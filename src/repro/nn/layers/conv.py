"""2-D convolution layer."""

from __future__ import annotations

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D convolution over NCHW input (square kernels)."""

    def __init__(
        self,
        in_channels,
        out_channels,
        kernel_size,
        stride=1,
        padding=0,
        bias=True,
        rng=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / np.sqrt(fan_in)
            self.bias = Parameter(rng.uniform(-bound, bound, size=out_channels))
        else:
            self.bias = None
        # Deployed only: (the weight array the blocks came from,
        # {live tap rows and columns: contiguous tap block}).
        self._taps = None

    def forward(self, x):
        if self._taps is None:
            return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                            padding=self.padding)
        return F._conv2d(x, self.weight, self.bias, self.stride, self.padding,
                         self._tap_block)

    def deploy(self):
        """Keep each partial block of live kernel taps as its own matrix.

        One-way, for stationary inference (``HDCZSC.deploy``). A conv over
        a map smaller than its kernel multiplies only the taps that meet
        the image (:func:`~repro.nn.functional.conv2d`), but a strided
        view of that block still reads every cache line of the full
        kernel. A deployed conv therefore copies each partial block once,
        on first use, and multiplies that copy from then on; a whole
        kernel is never copied. Assigning new weights (``load_state_dict``)
        or folding a BatchNorm in drops the copies. Returns self.
        """
        if self._taps is None:
            self._taps = (None, {})
        return self

    def _tap_block(self, weight, rows, cols):
        """The live tap matrix of a deployed conv, built once per block
        (a whole kernel's is a view of the weight)."""
        source, blocks = self._taps
        if source is not weight.data:
            source, blocks = weight.data, {}
            self._taps = (source, blocks)
        key = (rows.start, rows.stop, cols.start, cols.stop)
        if key not in blocks:
            blocks[key] = F._tap_block(weight, rows, cols)
        return blocks[key]

    def absorb_batchnorm(self, bn):
        """Fold the eval-mode ``bn`` applied to this conv's output into it.

        With ``s = γ / √(σ² + ε)`` per output channel (``μ``, ``σ²`` the
        running statistics), ``bn(conv(x))`` equals this conv with weight
        ``W·s`` and bias ``(b − μ)·s + β`` (``b = 0`` without a bias).
        The weight is scaled in place, so the folded conv keeps a single
        copy of it; the caller removes ``bn`` from the graph. Returns
        self.
        """
        if bn.num_features != self.out_channels:
            raise ValueError(
                f"BatchNorm over {bn.num_features} channels cannot fold into a "
                f"conv with {self.out_channels} output channels"
            )
        gamma, beta, mean, var = (
            t.data.astype(np.float64)
            for t in (bn.weight, bn.bias, bn.running_mean, bn.running_var)
        )
        scale = gamma / np.sqrt(var + bn.eps)
        shift = beta - mean * scale
        if self.bias is not None:
            shift += self.bias.data * scale
        weight = self.weight.data
        weight *= scale.reshape(-1, 1, 1, 1)  # in place: one rounding, no copy
        self.bias = Parameter(shift, dtype=weight.dtype)
        if self._taps is not None:
            self._taps = (None, {})  # the kept blocks hold unscaled taps
        return self

    def __repr__(self):
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.bias is not None})"
        )
