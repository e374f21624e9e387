"""ResNet image-encoder backbones (He et al., 2016).

Faithful BasicBlock / Bottleneck residual networks built on
:mod:`repro.nn`. The constructors cover

- the paper's full-scale ``resnet50`` / ``resnet101`` (7×7 stem, base
  width 64, stage plans [3,4,6,3] / [3,4,23,3]) — used mostly for exact
  parameter accounting, and
- ``mini_resnet50`` / ``mini_resnet101`` — the same bottleneck topology
  at reduced width/depth with a 3×3 stem for 32×32 synthetic images,
  which is what the laptop-scale experiments train.

The backbone output is the globally-average-pooled feature vector
(``feature_dim`` = 512·expansion·width_scale), i.e. the paper's ``d'``.
"""

from __future__ import annotations

import numpy as np

from .. import nn

__all__ = [
    "BasicBlock",
    "Bottleneck",
    "ResNet",
    "resnet50",
    "resnet101",
    "mini_resnet50",
    "mini_resnet101",
    "BACKBONE_PRESETS",
    "build_backbone",
]


def _fold(owner, conv_name, bn_name):
    """Fold ``owner.<bn_name>`` into ``owner.<conv_name>``, then drop it.

    A no-op once folded, so deploying twice changes nothing.
    """
    bn = getattr(owner, bn_name)
    if isinstance(bn, nn.BatchNorm2d):
        getattr(owner, conv_name).absorb_batchnorm(bn)
        setattr(owner, bn_name, nn.Identity())


class BasicBlock(nn.Module):
    """Two 3×3 convolutions with identity shortcut (expansion 1)."""

    expansion = 1

    def __init__(self, in_channels, channels, stride=1, rng=None):
        super().__init__()
        out_channels = channels * self.expansion
        self.conv1 = nn.Conv2d(in_channels, channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels)
        self.conv2 = nn.Conv2d(channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def forward(self, x):
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()

    def fold_batchnorm(self):
        """Fold each eval-mode BatchNorm into the conv it follows (deploy)."""
        _fold(self, "conv1", "bn1")
        _fold(self, "conv2", "bn2")
        if isinstance(self.shortcut, nn.Sequential):  # projection conv → BN
            _fold(self.shortcut, "layer0", "layer1")


class Bottleneck(nn.Module):
    """1×1 → 3×3 → 1×1 bottleneck with expansion 4 (ResNet-50/101 block)."""

    expansion = 4

    def __init__(self, in_channels, channels, stride=1, rng=None):
        super().__init__()
        out_channels = channels * self.expansion
        self.conv1 = nn.Conv2d(in_channels, channels, 1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels)
        self.conv2 = nn.Conv2d(channels, channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(channels)
        self.conv3 = nn.Conv2d(channels, out_channels, 1, bias=False, rng=rng)
        self.bn3 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def forward(self, x):
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out)).relu()
        out = self.bn3(self.conv3(out))
        return (out + self.shortcut(x)).relu()

    def fold_batchnorm(self):
        """Fold each eval-mode BatchNorm into the conv it follows (deploy)."""
        _fold(self, "conv1", "bn1")
        _fold(self, "conv2", "bn2")
        _fold(self, "conv3", "bn3")
        if isinstance(self.shortcut, nn.Sequential):  # projection conv → BN
            _fold(self.shortcut, "layer0", "layer1")


class ResNet(nn.Module):
    """Configurable residual network.

    Parameters
    ----------
    block:
        :class:`BasicBlock` or :class:`Bottleneck`.
    layers:
        Number of blocks per stage, e.g. ``[3, 4, 6, 3]`` for ResNet-50.
    base_width:
        Channel count of the first stage (64 at full scale).
    small_input:
        Use a 3×3/stride-1 stem without max-pooling (CIFAR-style), suited
        to the 32×32 synthetic images; otherwise the ImageNet 7×7/stride-2
        stem plus 3×3/stride-2 max-pool.
    in_channels:
        Input image channels.
    """

    def __init__(self, block, layers, base_width=64, small_input=True, in_channels=3, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.block_type = block
        self.layer_plan = tuple(layers)
        self.base_width = base_width
        self.small_input = small_input

        if small_input:
            self.conv1 = nn.Conv2d(in_channels, base_width, 3, stride=1, padding=1, bias=False, rng=rng)
            self.pool = nn.Identity()
        else:
            self.conv1 = nn.Conv2d(in_channels, base_width, 7, stride=2, padding=3, bias=False, rng=rng)
            self.pool = nn.MaxPool2d(3, stride=2)
        self.bn1 = nn.BatchNorm2d(base_width)

        stages = []
        channels = base_width
        in_ch = base_width
        for stage_index, num_blocks in enumerate(layers):
            stride = 1 if stage_index == 0 else 2
            blocks = []
            for block_index in range(num_blocks):
                blocks.append(
                    block(in_ch, channels, stride=stride if block_index == 0 else 1, rng=rng)
                )
                in_ch = channels * block.expansion
            stages.append(nn.Sequential(*blocks))
            channels *= 2
        self.stages = nn.ModuleList(stages)
        self.feature_dim = in_ch
        self.head_pool = nn.GlobalAvgPool2d()

    def forward(self, x):
        """Map an NCHW batch to (N, feature_dim) pooled features."""
        if not isinstance(x, nn.Tensor):
            x = nn.Tensor(x)
        out = self.bn1(self.conv1(x)).relu()
        out = self.pool(out)
        for stage in self.stages:
            out = stage(out)
        return self.head_pool(out)

    def fold_batchnorm(self):
        """Fold the stem's eval-mode BatchNorm into the stem conv (deploy);
        each block folds its own pairs."""
        _fold(self, "conv1", "bn1")

    def __repr__(self):
        return (
            f"ResNet(block={self.block_type.__name__}, layers={list(self.layer_plan)}, "
            f"base_width={self.base_width}, feature_dim={self.feature_dim})"
        )


def resnet50(rng=None, base_width=64, small_input=False):
    """Full-scale ResNet-50 (feature_dim 2048 at base width 64)."""
    return ResNet(Bottleneck, [3, 4, 6, 3], base_width=base_width, small_input=small_input, rng=rng)


def resnet101(rng=None, base_width=64, small_input=False):
    """Full-scale ResNet-101 (feature_dim 2048 at base width 64)."""
    return ResNet(Bottleneck, [3, 4, 23, 3], base_width=base_width, small_input=small_input, rng=rng)


def mini_resnet50(rng=None, base_width=8):
    """Laptop-scale stand-in for ResNet-50: same bottleneck topology,
    reduced depth/width, CIFAR-style stem (feature_dim 64·base_width/8)."""
    return ResNet(Bottleneck, [1, 1, 1, 1], base_width=base_width, small_input=True, rng=rng)


def mini_resnet101(rng=None, base_width=8):
    """Laptop-scale stand-in for ResNet-101: deeper third stage, mirroring
    how ResNet-101 deepens ResNet-50."""
    return ResNet(Bottleneck, [1, 1, 3, 1], base_width=base_width, small_input=True, rng=rng)


#: Named presets used by the experiment configs (Table II rows).
BACKBONE_PRESETS = {
    "resnet50": mini_resnet50,
    "resnet101": mini_resnet101,
    "resnet50_full": resnet50,
    "resnet101_full": resnet101,
}


def build_backbone(name, rng=None, **kwargs):
    """Instantiate a backbone preset by name."""
    try:
        factory = BACKBONE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown backbone {name!r}; available: {sorted(BACKBONE_PRESETS)}"
        ) from None
    return factory(rng=rng, **kwargs)
