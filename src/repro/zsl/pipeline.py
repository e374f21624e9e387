"""End-to-end HDC-ZSC pipeline: build → Phase I → II → III → evaluate.

Bundles the paper's full training methodology behind one call so the
experiment harnesses (Tables I/II, Figs 4/5) and the examples stay short.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data import SyntheticImageNet
from ..models.heads import ImageEncoder
from ..models.resnet import build_backbone
from ..utils.rng import spawn
from .attribute_encoders import build_attribute_encoder
from .model import HDCZSC
from .training import (
    TrainConfig,
    evaluate_attribute_extraction,
    evaluate_zsc,
    train_phase1,
    train_phase2,
    train_phase3,
)

__all__ = ["PipelineConfig", "PipelineResult", "ZSLPipeline", "build_model"]


@dataclass
class PipelineConfig:
    """Architecture + per-phase training configuration.

    ``embedding_dim=None`` removes the projection FC, in which case
    Phase II is skipped — exactly the Table II rows without an FC layer.
    """

    backbone: str = "resnet50"
    embedding_dim: int | None = 256
    attribute_encoder: str = "hdc"  # "hdc" | "mlp"
    hdc_backend: str = "dense"  # "dense" | "packed" (HDC codebook storage)
    #: shard count of the deployment class store (repro.hdc.store);
    #: sharding changes layout and scalability, never decisions.
    store_shards: int = 1
    store_routing: str = "hash"  # "hash" | "round_robin"
    #: pool width of the store's per-shard query fan-out (None: every
    #: core this process may run on); parallelism changes wall-clock,
    #: never decisions.
    store_workers: int | None = None
    #: fan-out executor kind ("thread" | "process"); the process pool
    #: re-opens persisted shards via np.memmap inside each worker.
    store_executor: str = "thread"
    temperature: float = 0.03
    seed: int = 0
    pretrain_classes: int = 20
    pretrain_images_per_class: int = 8
    image_size: int = 24
    phase1: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=3))
    phase2: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=4))
    phase3: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=6))
    run_phase1: bool = True
    verbose: bool = False


@dataclass
class PipelineResult:
    """Trained model plus training histories and evaluation metrics."""

    model: HDCZSC
    phase1_history: list
    phase2_history: list
    phase3_history: list
    metrics: dict


def build_model(schema, config):
    """Instantiate the HDC-ZSC model described by ``config``."""
    backbone_rng = spawn(config.seed, "backbone")
    backbone = build_backbone(config.backbone, rng=backbone_rng)
    encoder_rng = spawn(config.seed, "projection")
    image_encoder = ImageEncoder(backbone, embedding_dim=config.embedding_dim, rng=encoder_rng)
    attr_rng = spawn(config.seed, "attribute-encoder")
    attribute_encoder = build_attribute_encoder(
        config.attribute_encoder,
        schema,
        image_encoder.embedding_dim,
        attr_rng,
        backend=config.hdc_backend,
    )
    return HDCZSC(image_encoder, attribute_encoder, temperature=config.temperature)


class ZSLPipeline:
    """Orchestrates the three training phases on a dataset split.

    Parameters
    ----------
    dataset:
        A :class:`repro.data.SyntheticCUB` instance.
    split:
        A :class:`repro.data.Split` (ZS / noZS / val).
    config:
        :class:`PipelineConfig`.
    """

    def __init__(self, dataset, split, config=None):
        self.dataset = dataset
        self.split = split
        self.config = config or PipelineConfig()
        self.model = build_model(dataset.schema, self.config)

    # ------------------------------------------------------------------ #

    def run(self):
        """Execute Phases I–III and the zero-shot evaluation."""
        config = self.config
        for phase_config in (config.phase1, config.phase2, config.phase3):
            phase_config.verbose = phase_config.verbose or config.verbose

        phase1_history = []
        if config.run_phase1:
            pretrain = SyntheticImageNet(
                num_classes=config.pretrain_classes,
                images_per_class=config.pretrain_images_per_class,
                image_size=config.image_size,
                seed=spawn(config.seed, "pretrain-data").integers(2**31),
            )
            _, phase1_history = train_phase1(
                self.model.image_encoder.backbone,
                pretrain.images,
                pretrain.labels,
                pretrain.num_classes,
                config.phase1,
            )

        phase2_history = []
        if self.model.image_encoder.has_projection:
            attribute_targets = self.split.train_attribute_targets
            phase2_history = train_phase2(
                self.model, self.split.train_images, attribute_targets, config.phase2
            )

        train_class_attributes = self.dataset.class_attributes[self.split.train_classes]
        phase3_history = train_phase3(
            self.model,
            self.split.train_images,
            self.split.train_targets,
            train_class_attributes,
            config.phase3,
        )

        metrics = self.evaluate()
        return PipelineResult(
            model=self.model,
            phase1_history=phase1_history,
            phase2_history=phase2_history,
            phase3_history=phase3_history,
            metrics=metrics,
        )

    def evaluate(self):
        """Zero-shot metrics on the split's (unseen) test classes."""
        test_class_attributes = self.dataset.class_attributes[self.split.test_classes]
        return evaluate_zsc(
            self.model,
            self.split.test_images,
            self.split.test_targets,
            test_class_attributes,
        )

    def deployment_store(self, shards=None, routing=None, workers=None,
                         executor=None):
        """The class-level item memory for stationary inference.

        Binarized prototypes of the split's *test* (unseen) classes,
        loaded into an :class:`~repro.hdc.store.AssociativeStore`;
        ``shards``/``routing``/``workers``/``executor`` default to the
        pipeline config (``store_shards`` / ``store_routing`` /
        ``store_workers`` / ``store_executor``). Labels are the class
        positions used by :meth:`evaluate`, so store decisions compare
        directly against ``split.test_targets``.
        """
        test_class_attributes = self.dataset.class_attributes[self.split.test_classes]
        return self.model.class_store(
            test_class_attributes,
            shards=self.config.store_shards if shards is None else shards,
            routing=routing or self.config.store_routing,
            workers=self.config.store_workers if workers is None else workers,
            executor=executor or self.config.store_executor,
        )

    def evaluate_store(self, shards=None, routing=None, store=None, workers=None,
                       executor=None):
        """Zero-shot metrics along the store-backed deployment path.

        Predictions are associative cleanups of binarized embeddings
        against :meth:`deployment_store` (or a prebuilt ``store``, so
        callers holding one don't re-encode the prototypes) — the
        paper's Fig 3 stationary inference. Returns ``{"top1", "top5",
        "store"}`` with accuracies in percent and the store's layout
        stats.
        """
        if store is None:
            store = self.deployment_store(shards=shards, routing=routing,
                                          workers=workers, executor=executor)
        queries = self.model.binary_embeddings(self.split.test_images)
        ranked = store.topk_batch(queries, k=min(5, len(store)))
        targets = np.asarray(self.split.test_targets)
        top1 = np.fromiter(
            (row[0][0] == target for row, target in zip(ranked, targets)),
            dtype=bool, count=len(targets),
        )
        top5 = np.fromiter(
            (any(label == target for label, _ in row)
             for row, target in zip(ranked, targets)),
            dtype=bool, count=len(targets),
        )
        return {
            "top1": float(top1.mean() * 100.0),
            "top5": float(top5.mean() * 100.0),
            "store": store.stats(),
        }

    def evaluate_attributes(self):
        """Table I metrics on the split's test images (instance-level GT)."""
        return evaluate_attribute_extraction(
            self.model,
            self.split.test_images,
            self.split.test_attribute_targets,
            self.dataset.schema,
        )
