"""Correctness of repro.nn.functional: losses, conv, pooling, similarity."""

import numpy as np
import pytest
from scipy import signal

from repro import nn
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


def _im2col_indices(channels, kernel_h, kernel_w, out_h, out_w, stride):
    """Reference im2col gather indices ``(k, i, j)`` over a padded NCHW input."""
    rows = np.tile(np.repeat(np.arange(kernel_h), kernel_w), channels)[:, None]
    cols = np.tile(np.arange(kernel_w), kernel_h * channels)[:, None]
    i = rows + stride * np.repeat(np.arange(out_h), out_w)[None, :]
    j = cols + stride * np.tile(np.arange(out_w), out_h)[None, :]
    k = np.repeat(np.arange(channels), kernel_h * kernel_w)[:, None]
    return k, i, j


def _conv2d_gather_einsum(x, w, stride, padding):
    """Reference conv: the plain im2col gather + einsum, for every geometry."""
    batch, channels, height, width = x.shape
    out_channels, _, kh, kw = w.shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k, i, j = _im2col_indices(channels, kh, kw, out_h, out_w, stride)
    out = np.einsum("fc,bcp->bfp", w.reshape(out_channels, -1), padded[:, k, i, j],
                    optimize=True)
    return out.reshape(batch, out_channels, out_h, out_w)


def _conv2d_add_at(x, w, b, stride, padding, grad):
    """Reference conv with its backward: the fancy-index im2col gather, one
    ``np.matmul``, and an ``np.add.at`` scatter of the column gradient.
    Returns ``(out, grad_x, grad_w)``."""
    batch, channels, height, width = x.shape
    out_channels, _, kh, kw = w.shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k, i, j = _im2col_indices(channels, kh, kw, out_h, out_w, stride)
    cols = padded[:, k, i, j]
    w_mat = w.reshape(out_channels, -1)
    out = np.matmul(w_mat, cols).reshape(batch, out_channels, out_h, out_w)
    out = out + b.reshape(1, -1, 1, 1)
    grad_mat = grad.reshape(batch, out_channels, -1)
    grad_w = np.einsum("bfp,bcp->fc", grad_mat, cols, optimize=True).reshape(w.shape)
    grad_cols = np.einsum("fc,bfp->bcp", w_mat, grad_mat, optimize=True)
    grad_padded = np.zeros_like(padded)
    np.add.at(grad_padded, (slice(None), k, i, j), grad_cols)
    grad_x = grad_padded[:, :, padding:padding + height, padding:padding + width]
    return out, grad_x, grad_w


def _pool2d_add_at(x, kernel_size, stride, grad, kind):
    """Reference max/avg pool with its backward: the fancy-index gather of
    each channel's windows and an ``np.add.at`` scatter. Returns
    ``(out, grad_x)``."""
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    k, i, j = _im2col_indices(1, kernel_size, kernel_size, out_h, out_w, stride)
    flat = x.reshape(batch * channels, 1, height, width)
    cols = flat[:, k, i, j]  # (B*C, ks*ks, oh*ow)
    grad_flat = grad.reshape(batch * channels, 1, -1)
    if kind == "max":
        arg = cols.argmax(axis=1)
        out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, arg[:, None, :], grad_flat, axis=1)
    else:
        out = cols.mean(axis=1)
        grad_cols = np.broadcast_to(grad_flat / kernel_size**2, cols.shape)
    grad_x = np.zeros_like(flat)
    np.add.at(grad_x, (slice(None), k, i, j), grad_cols)
    return out.reshape(batch, channels, out_h, out_w), grad_x.reshape(x.shape)


def _conv_and_grads(x, w, b, stride, padding, grad):
    """``F.conv2d``'s output and its gradients for the upstream ``grad``."""
    dtype = x.dtype
    tx, tw, tb = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, b))
    out = F.conv2d(tx, tw, tb, stride=stride, padding=padding)
    (out * Tensor(grad, dtype=dtype)).sum().backward()
    return out.data, tx.grad, tw.grad


#: (kernel, stride, padding, (H, W)) geometries where every tap meets the image
FULL_TAPS = [
    (1, 1, 0, (6, 6)),
    (1, 2, 0, (7, 7)),
    (1, 2, 0, (6, 5)),
    (3, 1, 1, (6, 6)),
    (3, 2, 1, (8, 8)),
    (3, 1, 1, (2, 2)),
    (3, 1, 0, (5, 4)),
    (5, 2, 2, (7, 6)),
    (7, 2, 3, (9, 9)),
]


class TestConv2d:
    @pytest.mark.parametrize("kernel,stride,padding,size", [
        (1, 1, 0, 6),  # 1×1 unit stride: the window view is the input
        (1, 2, 0, 7),  # 1×1 strided, odd H/W
        (3, 1, 1, 6),  # zero-padded gather
        (7, 2, 3, 9),  # the full ResNet stem
        # dead taps: a map smaller than the kernel
        pytest.param(3, 1, 1, (1, 1), id="3x3-s1-on-1x1"),
        pytest.param(3, 2, 1, (1, 1), id="3x3-s2-on-1x1"),
        pytest.param(3, 1, 1, (2, 2), id="3x3-s1-on-2x2"),  # every tap live
        pytest.param(3, 2, 1, (2, 2), id="3x3-s2-on-2x2"),
        pytest.param(3, 1, 1, (1, 3), id="3x3-s1-on-1x3"),
        pytest.param(7, 2, 3, (2, 2), id="7x7-s2-on-2x2"),
    ])
    def test_fast_paths_match_gather_einsum(self, rng, kernel, stride, padding, size):
        height, width = (size, size) if np.isscalar(size) else size
        x = rng.normal(size=(2, 3, height, width))
        w = rng.normal(size=(4, 3, kernel, kernel))
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        np.testing.assert_allclose(
            out, _conv2d_gather_einsum(x, w, stride, padding), rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel,stride,padding,size", FULL_TAPS)
    def test_full_taps_bit_identical_to_gather_and_add_at(
            self, rng, dtype, kernel, stride, padding, size):
        """Where every tap is live, the window gather feeds ``np.matmul``
        the same columns as the fancy-index gather, and the per-tap
        scatter sums each pixel in ``np.add.at``'s order: bit for bit."""
        x = rng.normal(size=(2, 3, *size)).astype(dtype)
        w = rng.normal(size=(4, 3, kernel, kernel)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        out_h = (size[0] + 2 * padding - kernel) // stride + 1
        out_w = (size[1] + 2 * padding - kernel) // stride + 1
        grad = rng.normal(size=(2, 4, out_h, out_w)).astype(dtype)
        for got, want in zip(_conv_and_grads(x, w, b, stride, padding, grad),
                             _conv2d_add_at(x, w, b, stride, padding, grad)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kernel,stride,padding,size,live", [
        (3, 2, 1, (2, 2), (slice(1, 3), slice(1, 3))),
        (3, 1, 1, (1, 3), (slice(1, 2), slice(0, 3))),
        (7, 2, 3, (2, 2), (slice(3, 5), slice(3, 5))),
    ])
    def test_dead_taps_get_exactly_zero_weight_gradient(
            self, rng, kernel, stride, padding, size, live):
        x = rng.normal(size=(2, 3, *size))
        w = rng.normal(size=(4, 3, kernel, kernel))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        grad = rng.normal(size=out.shape)
        got_out, got_x, got_w = _conv_and_grads(x, w, b, stride, padding, grad)
        want_out, want_x, want_w = _conv2d_add_at(x, w, b, stride, padding, grad)
        dead = np.ones(w.shape, dtype=bool)
        dead[:, :, live[0], live[1]] = False
        assert (got_w[dead] == 0).all() and (want_w[dead] == 0).all()
        for got, want in ((got_out, want_out), (got_x, want_x), (got_w, want_w)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

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

    def test_gradcheck_dead_taps(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True)
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["max", "avg"])
    @pytest.mark.parametrize("kernel_size,stride,size", [
        (2, 2, (8, 8)),
        (2, 2, (7, 9)),  # trailing rows/columns no window reads
        (3, 2, (7, 7)),  # overlapping windows: the ResNet stem pool
        (3, 1, (5, 6)),
        (3, 3, (3, 3)),  # one output per channel
    ])
    def test_bit_identical_to_gather_and_add_at(self, rng, dtype, kind, kernel_size,
                                                 stride, size):
        x = rng.normal(size=(2, 3, *size)).astype(dtype)
        x[0, 0, :3, :3] = 1.0  # tied maxima: the first tap in window order wins
        tensor = Tensor(x, requires_grad=True, dtype=dtype)
        pool = F.max_pool2d if kind == "max" else F.avg_pool2d
        out = pool(tensor, kernel_size, stride)
        grad = rng.normal(size=out.shape).astype(dtype)
        (out * Tensor(grad, dtype=dtype)).sum().backward()
        for got, want in zip((out.data, tensor.grad),
                             _pool2d_add_at(x, kernel_size, stride, grad, kind)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestDeployedConv:
    """A deployed conv keeps its partial tap blocks; they never go stale."""

    @staticmethod
    def _conv(seed, mode):
        conv = nn.Conv2d(4, 3, 3, padding=1, bias=False,
                         rng=np.random.default_rng(seed)).freeze()
        return conv.deploy() if mode == "deployed" else conv

    def test_keeps_each_partial_block_once_and_no_whole_kernel(self, rng):
        conv = self._conv(0, "deployed")
        small = Tensor(rng.normal(size=(2, 4, 1, 1)))  # only the centre tap is live
        out = conv(small).data
        [block] = conv._taps[1].values()
        assert block.shape == (3, 4) and block.flags.c_contiguous
        assert not np.shares_memory(block, conv.weight.data)
        np.testing.assert_array_equal(conv(small).data, out)
        assert [*conv._taps[1].values()][0] is block  # built once
        np.testing.assert_array_equal(
            out, F.conv2d(small, conv.weight, padding=1).data)  # as undeployed
        conv(Tensor(rng.normal(size=(2, 4, 3, 3))))  # every tap live
        whole = conv._taps[1][(0, 3, 0, 3)]
        assert np.shares_memory(whole, conv.weight.data)

    @pytest.mark.parametrize("mode", ["frozen", "deployed"])
    @pytest.mark.parametrize("change", ["load_state_dict", "absorb_batchnorm"])
    def test_run_then_changed_answers_like_a_fresh_conv(self, rng, mode, change):
        small = Tensor(rng.normal(size=(2, 4, 1, 1)))
        used, fresh = self._conv(0, mode), self._conv(0, mode)
        used(small)
        if change == "load_state_dict":
            fresh = self._conv(1, mode)
            used.load_state_dict(fresh.state_dict())
        else:
            bn = nn.BatchNorm2d(3).eval()
            bn.weight.data = rng.uniform(0.5, 1.5, 3)
            bn.running_mean.data = rng.normal(0.0, 0.5, 3)
            for conv in (used, fresh):
                conv.absorb_batchnorm(bn)
        np.testing.assert_array_equal(used(small).data, fresh(small).data)

    def test_deployed_model_answers_like_a_freshly_deployed_twin(self, small_schema,
                                                                  rng):
        """8×8 images reach layer4 as 1×1 maps, so its 3×3 convs keep blocks."""
        from repro.models import ImageEncoder, mini_resnet50
        from repro.zsl import HDCZSC, build_attribute_encoder

        def model(seed):
            seeded = np.random.default_rng(seed)
            encoder = ImageEncoder(mini_resnet50(rng=seeded, base_width=4),
                                   embedding_dim=16, rng=seeded)
            return HDCZSC(encoder, build_attribute_encoder(
                "hdc", small_schema, 16, seeded)).deploy()

        images = rng.normal(size=(3, 3, 8, 8))
        used = model(0)
        used.image_encoder.encode(images)
        assert any(conv._taps[1] for conv in used.modules()
                   if isinstance(conv, nn.Conv2d))
        fresh = model(1)
        used.load_state_dict(fresh.state_dict())
        np.testing.assert_array_equal(used.image_encoder.encode(images),
                                      fresh.image_encoder.encode(images))


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
