"""``HDCZSC.deploy()``: the folded inference graph answers like the training graph.

Deploying folds every eval-mode BatchNorm of the ResNet encoder into the
conv before it, in place. The deployed graph must give every test image
the same sign pattern (the store query of paper Fig 3), keep one copy of
its weights, and stay put when deployed again.
"""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro import nn
from repro.data import SyntheticCUB, make_split
from repro.experiments.common import build_dataset, pipeline_config, run_pipeline
from repro.experiments.config import get_scale
from repro.zsl import PipelineConfig, build_model


def _batchnorms(model):
    return [m for m in model.modules() if isinstance(m, nn.BatchNorm2d)]


def test_table1_quick_binary_embeddings_survive_deploy():
    """Trained in float32 as Table 1 trains it (quick scale, noZS, seed
    0): no test image's binarized embedding moves under the fold."""
    scale = get_scale("quick")
    dataset = build_dataset(scale, seed=0)
    split = make_split(dataset, "noZS", seed=0)
    config = pipeline_config(scale, seed=0)
    config.phase3 = config.phase3.with_overrides(epochs=0)
    pipeline, _ = run_pipeline(dataset, split, config)
    model = pipeline.model
    before = model.binary_embeddings(split.test_images)
    model.deploy()
    assert not _batchnorms(model)
    assert np.array_equal(model.binary_embeddings(split.test_images), before)


@pytest.fixture(scope="module")
def paper_deploy():
    """The paper-size model (ResNet-50, d = 1536) in float64, deployed once.

    BatchNorm affine parameters and running statistics are drawn away
    from their identity initialization, so the fold has work to do.
    """
    dataset = SyntheticCUB(num_classes=4, images_per_class=1, image_size=32, seed=3)
    model = build_model(dataset.schema, PipelineConfig(
        backbone="resnet50_full", embedding_dim=1536, seed=3))
    rng = np.random.default_rng(3)
    batchnorms = _batchnorms(model)
    for bn in batchnorms:
        n = bn.num_features
        bn.weight.data = rng.uniform(0.5, 1.5, n)
        bn.bias.data = rng.normal(0.0, 0.1, n)
        bn.running_mean.data = rng.normal(0.0, 0.1, n)
        bn.running_var.data = rng.uniform(0.5, 2.0, n)
    images = dataset.images
    before = {
        "embeddings": model.image_encoder.encode(images),
        "signs": model.binary_embeddings(images),
        "parameters": model.num_parameters(trainable_only=False),
        "bn_channels": sum(bn.num_features for bn in batchnorms),
    }
    tracemalloc.start()
    try:
        model.deploy()
        _, deploy_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return model, images, before, deploy_peak


def test_paper_size_deploy_matches_in_float64(paper_deploy):
    model, images, before, _ = paper_deploy
    after = model.image_encoder.encode(images)
    assert after.dtype == np.float64
    assert np.abs(after - before["embeddings"]).max() <= 1e-9
    assert np.array_equal(model.binary_embeddings(images), before["signs"])


def test_paper_size_deploy_folds_every_batchnorm(paper_deploy):
    model, _, before, _ = paper_deploy
    assert not _batchnorms(model)
    assert model.num_parameters() == 0  # nothing left to train
    # each BatchNorm's γ and β (2 per channel) become one conv bias entry
    assert before["parameters"] == 26_655_297
    assert model.num_parameters(trainable_only=False) == 26_628_737
    assert 26_655_297 - 26_628_737 == before["bn_channels"]


def test_paper_size_deploy_folds_in_place(paper_deploy):
    """The fold scales each conv weight where it lies: deploying allocates
    less than one copy of the largest conv weight, so resident memory
    stays flat."""
    model, _, _, deploy_peak = paper_deploy
    largest = max(m.weight.data.nbytes for m in model.modules()
                  if isinstance(m, nn.Conv2d))
    assert deploy_peak < largest


def test_second_deploy_changes_nothing(paper_deploy):
    model, _, _, _ = paper_deploy

    def snapshot():
        return ([type(m).__name__ for m in model.modules()],
                {name: zlib.crc32(p.data) for name, p in model.named_parameters()})

    first = snapshot()
    assert model.deploy() is model
    assert snapshot() == first
