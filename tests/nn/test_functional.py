"""Correctness of repro.nn.functional: losses, conv, pooling, similarity."""

import numpy as np
import pytest
from scipy import signal

from repro.nn import Tensor, functional as F, gradcheck


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7)))).data
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out > 0).all()

    def test_stability_large_logits(self):
        out = F.softmax(Tensor(np.array([[1e4, 1e4 - 5.0]]))).data
        assert np.isfinite(out).all()

    def test_log_softmax_consistent(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)))
        assert np.allclose(F.log_softmax(logits).data, np.log(F.softmax(logits).data))


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        assert np.allclose(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        loss = F.cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        assert np.isclose(loss, -log_probs[np.arange(4), targets].mean())

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = logits[1, 2] = 100.0
        assert F.cross_entropy(Tensor(logits), np.array([1, 2])).item() < 1e-6

    def test_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        targets = rng.integers(0, 5, size=3)
        gradcheck(lambda: F.cross_entropy(logits, targets), [logits])

    def test_label_smoothing(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        targets = rng.integers(0, 5, size=3)
        gradcheck(lambda: F.cross_entropy(logits, targets, label_smoothing=0.1), [logits])

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(rng.normal(size=(3, 5))), np.zeros(4, dtype=int))


class TestBCEWithLogits:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(5, 4))
        targets = (rng.random((5, 4)) > 0.5).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        p = 1 / (1 + np.exp(-logits))
        manual = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert np.isclose(loss, manual, atol=1e-8)

    def test_pos_weight_scales_positive_term(self, rng):
        logits = rng.normal(size=(6, 3))
        all_pos = np.ones((6, 3))
        base = F.binary_cross_entropy_with_logits(Tensor(logits), all_pos).item()
        weighted = F.binary_cross_entropy_with_logits(
            Tensor(logits), all_pos, pos_weight=np.full(3, 2.0)
        ).item()
        assert np.isclose(weighted, 2.0 * base)

    def test_stability_extreme_logits(self):
        logits = Tensor(np.array([[1e3, -1e3]]))
        targets = np.array([[1.0, 0.0]])
        assert F.binary_cross_entropy_with_logits(logits, targets).item() < 1e-6

    def test_gradcheck_weighted(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = (rng.random((4, 3)) > 0.7).astype(float)
        pw = rng.random(3) * 5 + 0.5
        w = rng.random((4, 3)) + 0.5
        gradcheck(
            lambda: F.binary_cross_entropy_with_logits(logits, targets, pos_weight=pw, weight=w),
            [logits],
        )


def _conv2d_gather_einsum(x, w, stride, padding):
    """Reference conv: the plain im2col gather + einsum, for every geometry."""
    batch, channels, height, width = x.shape
    out_channels, _, kh, kw = w.shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    rows = np.tile(np.repeat(np.arange(kh), kw), channels)[:, None]
    cols = np.tile(np.arange(kw), kh * channels)[:, None]
    i = rows + stride * np.repeat(np.arange(out_h), out_w)[None, :]
    j = cols + stride * np.tile(np.arange(out_w), out_h)[None, :]
    k = np.repeat(np.arange(channels), kh * kw)[:, None]
    out = np.einsum("fc,bcp->bfp", w.reshape(out_channels, -1), padded[:, k, i, j],
                    optimize=True)
    return out.reshape(batch, out_channels, out_h, out_w)


class TestConv2d:
    @pytest.mark.parametrize("kernel,stride,padding,size", [
        (1, 1, 0, 6),  # 1×1 strided view, no copy
        (1, 2, 0, 7),  # 1×1 strided view on odd H/W
        (3, 1, 1, 6),  # zero-padded gather
        (7, 2, 3, 9),  # the full ResNet stem
    ])
    def test_fast_paths_match_gather_einsum(self, rng, kernel, stride, padding, size):
        x = rng.normal(size=(2, 3, size, size))
        w = rng.normal(size=(4, 3, kernel, kernel))
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        np.testing.assert_allclose(
            out, _conv2d_gather_einsum(x, w, stride, padding), rtol=1e-12)

    def test_cached_im2col_indices_are_read_only(self):
        indices = F._im2col_indices(2, 3, 3, 4, 4, 1)
        assert all(a is b for a, b in zip(indices, F._im2col_indices(2, 3, 3, 4, 4, 1)))
        for index in indices:
            with pytest.raises(ValueError, match="read-only"):
                index[0, 0] = 1

    def test_matches_scipy(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        for n in range(2):
            for f in range(4):
                reference = np.zeros((8, 8))
                for c in range(3):
                    reference += signal.correlate2d(x[n, c], w[f, c], mode="same")
                assert np.allclose(out[n, f], reference, atol=1e-10)

    @pytest.mark.parametrize("stride,padding,expected", [(1, 0, 6), (2, 1, 4), (2, 0, 3)])
    def test_output_shape(self, rng, stride, padding, expected):
        x = Tensor(rng.normal(size=(1, 2, 8, 8)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        assert F.conv2d(x, w, stride=stride, padding=padding).shape == (1, 3, expected, expected)

    def test_bias(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 1, 1)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b).data
        assert np.allclose(out[0, 0], 1.5) and np.allclose(out[0, 1], -2.0)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        gradcheck(lambda: (F.conv2d(x, w, b, stride=2, padding=1) ** 2).sum(), [x, w, b])

    def test_gradcheck_1x1_strided(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 1, 1)) * 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        gradcheck(lambda: (F.conv2d(x, w, b, stride=2) ** 2).sum(), [x, w, b])

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.normal(size=(1, 3, 4, 4))), Tensor(rng.normal(size=(2, 4, 3, 3))))

    def test_empty_output_rejected(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.normal(size=(1, 1, 2, 2))), Tensor(rng.normal(size=(1, 1, 5, 5))))


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2).data
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        out = F.global_avg_pool2d(Tensor(x)).data
        assert np.allclose(out, x.mean(axis=(2, 3)))

    def test_pool_gradchecks(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        gradcheck(lambda: (F.max_pool2d(x, 3, stride=3) ** 2).sum(), [x])
        gradcheck(lambda: (F.avg_pool2d(x, 2) ** 2).sum(), [x])
        gradcheck(lambda: (F.global_avg_pool2d(x) ** 2).sum(), [x])

    def test_overlapping_stride(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        out = F.max_pool2d(x, 3, stride=1)
        assert out.shape == (1, 1, 3, 3)
        gradcheck(lambda: (F.max_pool2d(x, 3, stride=1) ** 2).sum(), [x])


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        assert np.allclose(F.dropout(x, 0.5, training=False).data, x.data)

    def test_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.25, training=True, rng=rng).data
        assert abs(out.mean() - 1.0) < 0.02

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0)


class TestCosineSimilarity:
    def test_matches_manual(self, rng):
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        out = F.cosine_similarity_matrix(Tensor(a), Tensor(b)).data
        an = a / np.linalg.norm(a, axis=1, keepdims=True)
        bn = b / np.linalg.norm(b, axis=1, keepdims=True)
        assert np.allclose(out, an @ bn.T, atol=1e-10)

    def test_range(self, rng):
        out = F.cosine_similarity_matrix(
            Tensor(rng.normal(size=(6, 8))), Tensor(rng.normal(size=(7, 8)))
        ).data
        assert (out <= 1.0 + 1e-9).all() and (out >= -1.0 - 1e-9).all()

    def test_self_similarity_is_one(self, rng):
        a = rng.normal(size=(4, 6))
        out = F.cosine_similarity_matrix(Tensor(a), Tensor(a)).data
        assert np.allclose(np.diag(out), 1.0)

    def test_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        gradcheck(lambda: (F.cosine_similarity_matrix(a, b) ** 2).sum(), [a, b])

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            F.cosine_similarity_matrix(
                Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 5)))
            )


class TestMSE:
    def test_value_and_grad(self, rng):
        pred = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        target = rng.normal(size=(4, 3))
        assert np.isclose(F.mse_loss(pred, target).item(), ((pred.data - target) ** 2).mean())
        gradcheck(lambda: F.mse_loss(pred, target), [pred])
