"""The HDCZSC model and the three training phases."""

import numpy as np
import pytest

from repro import nn
from repro.data import SyntheticCUB, make_split
from repro.models import ImageEncoder, mini_resnet50
from repro.utils.rng import seeded_rng
from repro.zsl import (
    HDCZSC,
    TrainConfig,
    attribute_pos_weight,
    build_attribute_encoder,
    evaluate_attribute_extraction,
    evaluate_zsc,
    train_phase1,
    train_phase2,
    train_phase3,
)


def tiny_model(schema, dim=32, kind="hdc", seed=0):
    rng = seeded_rng(seed)
    encoder = ImageEncoder(mini_resnet50(rng=rng, base_width=4), embedding_dim=dim, rng=rng)
    attribute_encoder = build_attribute_encoder(kind, schema, dim, rng)
    return HDCZSC(encoder, attribute_encoder)


class TestModel:
    def test_dim_mismatch_rejected(self, small_schema):
        rng = seeded_rng(0)
        encoder = ImageEncoder(mini_resnet50(rng=rng, base_width=4), embedding_dim=16, rng=rng)
        attr = build_attribute_encoder("hdc", small_schema, 32, rng)
        with pytest.raises(ValueError):
            HDCZSC(encoder, attr)

    def test_logit_shapes(self, small_schema, rng):
        model = tiny_model(small_schema)
        images = rng.normal(size=(2, 3, 16, 16))
        attrs = rng.random((5, small_schema.num_attributes))
        assert model.attribute_logits(nn.Tensor(images)).shape == (2, small_schema.num_attributes)
        assert model.class_logits(nn.Tensor(images), attrs).shape == (2, 5)

    def test_predict_and_score(self, small_schema, rng):
        model = tiny_model(small_schema)
        images = rng.normal(size=(4, 3, 16, 16))
        attrs = rng.random((5, small_schema.num_attributes))
        scores = model.score(images, attrs)
        assert scores.shape == (4, 5)
        assert np.array_equal(model.predict(images, attrs), scores.argmax(axis=1))

    def test_score_batching_consistent(self, small_schema, rng):
        model = tiny_model(small_schema)
        images = rng.normal(size=(5, 3, 16, 16))
        attrs = rng.random((3, small_schema.num_attributes))
        assert np.allclose(
            model.score(images, attrs, batch_size=2),
            model.score(images, attrs, batch_size=5),
            atol=1e-6,
        )

    @pytest.mark.parametrize("training", [True, False])
    def test_failing_score_restores_the_callers_mode(self, small_schema, rng,
                                                     training):
        """score / score_attributes run in eval mode and hand back the
        mode the caller had, also when they raise part-way."""
        model = tiny_model(small_schema).train(training)
        images = rng.normal(size=(2, 3, 16, 16))
        bad_attrs = rng.random((5, small_schema.num_attributes + 1))
        with pytest.raises(ValueError):
            model.score(images, bad_attrs)
        assert all(m.training is training for m in model.modules())
        with pytest.raises(ValueError, match="channels"):
            model.score_attributes(rng.normal(size=(2, 4, 16, 16)))
        assert all(m.training is training for m in model.modules())

    def test_inference_on_an_eval_model_skips_the_eval_walk(
            self, small_schema, rng, monkeypatch):
        """A deployed model is already in eval mode: the frozen-inference
        scope must not walk every module again on each call."""
        model = tiny_model(small_schema).deploy()
        walks = []
        monkeypatch.setattr(model, "train", lambda mode=True: walks.append(mode))
        model.binary_embeddings(rng.normal(size=(2, 3, 16, 16)))
        model.score(rng.normal(size=(2, 3, 16, 16)),
                    rng.random((3, small_schema.num_attributes)))
        assert walks == []

    def test_deploy_freezes_everything(self, small_schema):
        model = tiny_model(small_schema)
        model.deploy()
        assert model.num_parameters(trainable_only=True) == 0
        assert not model.training

    def test_is_hdc_flag(self, small_schema):
        assert tiny_model(small_schema, kind="hdc").is_hdc
        assert not tiny_model(small_schema, kind="mlp").is_hdc

    def test_hdc_vs_mlp_parameter_gap(self, small_schema):
        """HDC variant trains strictly fewer parameters (the paper's point)."""
        hdc = tiny_model(small_schema, kind="hdc")
        mlp = tiny_model(small_schema, kind="mlp")
        assert hdc.num_parameters() < mlp.num_parameters()


class TestPosWeight:
    def test_balances_imbalance(self):
        targets = np.zeros((10, 3))
        targets[0, 0] = 1          # rare → weight 9
        targets[:5, 1] = 1         # balanced → weight 1
        targets[:, 2] = 1          # always on → weight < 1 → clipped to 1
        weights = attribute_pos_weight(targets, cap=30)
        assert np.isclose(weights[0], 9.0)
        assert np.isclose(weights[1], 1.0)
        assert np.isclose(weights[2], 1.0)

    def test_cap_applies(self):
        targets = np.zeros((100, 1))
        targets[0, 0] = 1
        assert attribute_pos_weight(targets, cap=30)[0] == 30.0

    def test_never_seen_attribute_weight_one(self):
        weights = attribute_pos_weight(np.zeros((10, 2)))
        assert np.allclose(weights, 1.0)


@pytest.fixture(scope="module")
def micro_data():
    dataset = SyntheticCUB(num_classes=8, images_per_class=4, image_size=16, seed=5)
    split = make_split(dataset, "ZS", seed=0)
    return dataset, split


class TestPhases:
    def test_phase1_reduces_loss(self, micro_data, rng):
        dataset, _ = micro_data
        backbone = mini_resnet50(rng=seeded_rng(0), base_width=4)
        config = TrainConfig(epochs=3, batch_size=8, lr=3e-3, augment=False)
        head, history = train_phase1(
            backbone, dataset.images[:32], dataset.labels[:32] % 4, 4, config
        )
        assert len(history) == 3
        assert history[-1] < history[0]

    def test_phase2_reduces_loss_and_keeps_dictionary_fixed(self, micro_data):
        dataset, split = micro_data
        model = tiny_model(dataset.schema, seed=1)
        before = model.attribute_encoder.dictionary_tensor().data.copy()
        config = TrainConfig(epochs=2, batch_size=8, lr=3e-3, augment=False)
        history = train_phase2(model, split.train_images, split.train_attribute_targets, config)
        assert history[-1] <= history[0]
        after = model.attribute_encoder.dictionary_tensor().data
        assert np.array_equal(before, after)

    def test_phase3_freezes_backbone(self, micro_data):
        dataset, split = micro_data
        model = tiny_model(dataset.schema, seed=2)
        stem_before = model.image_encoder.backbone.conv1.weight.data.copy()
        proj_before = model.image_encoder.projection.weight.data.copy()
        attrs = dataset.class_attributes[split.train_classes]
        config = TrainConfig(epochs=1, batch_size=8, lr=1e-2, augment=False)
        train_phase3(model, split.train_images, split.train_targets, attrs, config)
        assert np.array_equal(stem_before, model.image_encoder.backbone.conv1.weight.data)
        assert not np.array_equal(proj_before, model.image_encoder.projection.weight.data)

    def test_phase3_target_range_checked(self, micro_data):
        dataset, split = micro_data
        model = tiny_model(dataset.schema, seed=3)
        config = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(ValueError):
            train_phase3(
                model,
                split.train_images,
                split.train_targets + 100,
                dataset.class_attributes[split.train_classes],
                config,
            )

    def test_evaluate_zsc_keys_and_ranges(self, micro_data):
        dataset, split = micro_data
        model = tiny_model(dataset.schema, seed=4)
        metrics = evaluate_zsc(
            model, split.test_images, split.test_targets,
            dataset.class_attributes[split.test_classes],
        )
        assert set(metrics) == {"top1", "top5"}
        assert 0 <= metrics["top1"] <= metrics["top5"] <= 100

    def test_evaluate_attributes_report(self, micro_data):
        dataset, split = micro_data
        model = tiny_model(dataset.schema, seed=4)
        report = evaluate_attribute_extraction(
            model, split.test_images, split.test_attribute_targets, dataset.schema
        )
        assert "average" in report
        assert 0 <= report["average"]["top1"] <= 100

    def test_config_overrides(self):
        config = TrainConfig(epochs=5)
        new = config.with_overrides(lr=1.0, epochs=2)
        assert new.lr == 1.0 and new.epochs == 2 and config.epochs == 5
