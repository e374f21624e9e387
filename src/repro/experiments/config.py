"""Experiment scales and shared configuration.

Every table/figure harness accepts an :class:`ExperimentScale`. The
paper's CUB-200 protocol (200 classes, ~59 images/class, 256×256 photos,
ResNet50) maps onto three laptop scales:

- ``quick``  — seconds; used by the pytest-benchmark harnesses and CI.
- ``default`` — minutes per experiment; the scale recorded in
  EXPERIMENTS.md.
- ``full``  — the 200-class rendering of the protocol for overnight runs.

The *shape* of every result (orderings, crossovers, Pareto membership) is
what transfers across scales; absolute accuracies depend on scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Dataset / model / training sizes for one experiment run."""

    name: str
    num_classes: int
    images_per_class: int
    image_size: int
    embedding_dim: int
    pretrain_classes: int
    pretrain_images_per_class: int
    phase1_epochs: int
    phase2_epochs: int
    phase3_epochs: int
    batch_size: int
    lr: float
    weight_decay: float
    temperature: float
    num_trials: int
    baseline_epochs: int
    #: HDC codebook storage backend ("dense" reference / "packed" bit-level);
    #: backend choice never changes results, only storage and query speed.
    hdc_backend: str = "dense"
    #: shard count of the deployment class store (repro.hdc.store);
    #: sharding never changes decisions, only layout and scalability.
    store_shards: int = 1
    #: pool width of the store's per-shard query fan-out (None: every
    #: core this process may run on); parallelism never changes
    #: decisions, only wall-clock.
    store_workers: int | None = None
    #: fan-out executor of the store ("thread" pool / "process" pool with
    #: memmap-reopened shards); executor choice never changes decisions.
    store_executor: str = "thread"

    def replace(self, **kwargs):
        return replace(self, **kwargs)


SCALES = {
    "quick": ExperimentScale(
        name="quick",
        num_classes=16,
        images_per_class=6,
        image_size=24,
        embedding_dim=64,
        pretrain_classes=8,
        pretrain_images_per_class=4,
        phase1_epochs=1,
        phase2_epochs=2,
        phase3_epochs=2,
        batch_size=16,
        lr=3e-3,
        weight_decay=5e-3,
        temperature=0.03,
        num_trials=1,
        baseline_epochs=5,
    ),
    "default": ExperimentScale(
        name="default",
        num_classes=100,
        images_per_class=16,
        image_size=32,
        embedding_dim=128,
        pretrain_classes=20,
        pretrain_images_per_class=10,
        phase1_epochs=3,
        phase2_epochs=12,
        phase3_epochs=10,
        batch_size=32,
        lr=3e-3,
        weight_decay=5e-3,
        temperature=0.03,
        num_trials=3,
        baseline_epochs=30,
    ),
    "full": ExperimentScale(
        name="full",
        num_classes=200,
        images_per_class=20,
        image_size=32,
        embedding_dim=192,
        pretrain_classes=40,
        pretrain_images_per_class=10,
        phase1_epochs=4,
        phase2_epochs=16,
        phase3_epochs=12,
        batch_size=32,
        lr=3e-3,
        weight_decay=5e-3,
        temperature=0.03,
        num_trials=5,
        baseline_epochs=40,
    ),
}


def get_scale(scale):
    """Resolve a scale name or pass an :class:`ExperimentScale` through."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise KeyError(f"unknown scale {scale!r}; available: {sorted(SCALES)}") from None
