"""Neural-network functional operations built on :class:`repro.nn.Tensor`.

Contains the differentiable building blocks the paper's models need:
stable softmax / log-softmax, cross entropy, the weighted binary cross
entropy used for Phase-II attribute extraction, im2col-based 2-D
convolution, pooling, dropout and the pairwise cosine-similarity kernel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "one_hot",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "dropout",
    "normalize",
    "cosine_similarity_matrix",
]


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# --------------------------------------------------------------------- #
# activations / probabilities
# --------------------------------------------------------------------- #


def softmax(logits, axis=-1):
    """Numerically stable softmax along ``axis``."""
    logits = _as_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits, axis=-1):
    """Numerically stable log-softmax along ``axis``."""
    logits = _as_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels, num_classes, dtype=None):
    """Return a dense one-hot matrix for integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    out = np.zeros((labels.size, num_classes), dtype=dtype or np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


# --------------------------------------------------------------------- #
# losses
# --------------------------------------------------------------------- #


def cross_entropy(logits, targets, label_smoothing=0.0):
    """Mean cross-entropy between ``logits`` (B, C) and integer ``targets``.

    This is the loss used in Phase I (ImageNet-style pre-training) and
    Phase III (zero-shot classification fine-tuning) of the paper.
    """
    logits = _as_tensor(logits)
    batch, num_classes = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (batch,):
        raise ValueError(f"targets shape {targets.shape} incompatible with logits {logits.shape}")
    log_probs = log_softmax(logits, axis=-1)
    target_dist = one_hot(targets, num_classes, dtype=logits.dtype)
    if label_smoothing:
        target_dist = (
            target_dist * (1.0 - label_smoothing) + label_smoothing / num_classes
        )
    return -(log_probs * Tensor(target_dist)).sum() * (1.0 / batch)


def binary_cross_entropy_with_logits(logits, targets, pos_weight=None, weight=None):
    """Mean binary cross entropy on logits with optional class weighting.

    Parameters
    ----------
    logits:
        Tensor of arbitrary shape.
    targets:
        Array of the same shape with values in ``[0, 1]``.
    pos_weight:
        Multiplier for the positive-target term, broadcastable to the
        logits shape. The paper uses this to counter the heavy inactive/
        active attribute imbalance in Phase II (roughly 10:1).
    weight:
        Optional per-element weight, broadcastable to the logits shape.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=logits.dtype)
    if targets.shape != logits.shape:
        raise ValueError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    t = Tensor(targets)
    # log σ(x) = min(x, 0) − log(1 + e^{−|x|}): stable for large |x|.
    abs_logits = logits.abs()
    softplus_neg_abs = (1.0 + (-abs_logits).exp()).log()
    log_sig_pos = _min_zero(logits) - softplus_neg_abs
    log_sig_neg = _min_zero(-logits) - softplus_neg_abs
    positive_term = t * log_sig_pos
    if pos_weight is not None:
        positive_term = positive_term * Tensor(
            np.broadcast_to(np.asarray(pos_weight, dtype=logits.dtype), logits.shape).copy()
        )
    loss = -(positive_term + (1.0 - t) * log_sig_neg)
    if weight is not None:
        loss = loss * Tensor(
            np.broadcast_to(np.asarray(weight, dtype=logits.dtype), logits.shape).copy()
        )
    return loss.mean()


def _min_zero(x):
    """Differentiable elementwise ``min(x, 0)``."""
    mask = x.data < 0
    return x * mask


def mse_loss(prediction, target):
    """Mean squared error."""
    prediction = _as_tensor(prediction)
    target = np.asarray(target, dtype=prediction.dtype)
    diff = prediction - Tensor(target)
    return (diff * diff).mean()


# --------------------------------------------------------------------- #
# convolution / pooling (im2col primitives with hand-written backward)
# --------------------------------------------------------------------- #


@lru_cache(maxsize=64)
def _im2col_indices(channels, kernel_h, kernel_w, out_h, out_w, stride):
    """Gather indices ``(k, i, j)`` of an im2col over padded NCHW input.

    Cached per geometry, so every caller shares one set of arrays; they
    are read-only, because a write through one caller would corrupt the
    next one's gather.
    """
    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    for index in (k, i, j):
        index.flags.writeable = False
    return k, i, j


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """2-D convolution over an NCHW tensor.

    Implemented as an im2col primitive with an explicit backward pass;
    this keeps the autograd graph shallow and the inner loop inside BLAS.
    An unpadded 1×1 convolution reads its columns through a strided view
    instead of the im2col gather.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    batch, in_channels, height, width = x.shape
    out_channels, weight_channels, kernel_h, kernel_w = weight.shape
    if weight_channels != in_channels:
        raise ValueError(
            f"weight expects {weight_channels} input channels, got {in_channels}"
        )
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("convolution output would be empty; check kernel/stride/padding")

    if padding:
        x_padded = np.zeros(
            (batch, in_channels, height + 2 * padding, width + 2 * padding),
            dtype=x.data.dtype,
        )
        x_padded[:, :, padding:-padding, padding:-padding] = x.data
    else:
        x_padded = x.data
    k, i, j = _im2col_indices(in_channels, kernel_h, kernel_w, out_h, out_w, stride)
    if kernel_h == kernel_w == 1 and not padding:
        cols = x_padded[:, :, ::stride, ::stride].reshape(batch, in_channels, -1)
    else:
        cols = x_padded[:, k, i, j]  # (B, C*kh*kw, oh*ow)
    w_mat = weight.data.reshape(out_channels, -1)
    out = np.matmul(w_mat, cols).reshape(batch, out_channels, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = grad.reshape(batch, out_channels, -1)  # (B, F, oh*ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)))
        if weight.requires_grad:
            grad_w = np.einsum("bfp,bcp->fc", grad_mat, cols, optimize=True)
            weight._accumulate(grad_w.reshape(weight.shape))
        if x.requires_grad:
            grad_cols = np.einsum("fc,bfp->bcp", w_mat, grad_mat, optimize=True)
            grad_x_padded = np.zeros_like(x_padded)
            np.add.at(grad_x_padded, (slice(None), k, i, j), grad_cols)
            if padding:
                grad_x = grad_x_padded[:, :, padding:-padding, padding:-padding]
            else:
                grad_x = grad_x_padded
            x._accumulate(grad_x)

    return Tensor._make(out, parents, backward)


def max_pool2d(x, kernel_size=2, stride=None):
    """Max pooling over NCHW input."""
    x = _as_tensor(x)
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    k, i, j = _im2col_indices(1, kernel_size, kernel_size, out_h, out_w, stride)
    flat = x.data.reshape(batch * channels, 1, height, width)
    cols = flat[:, k, i, j]  # (B*C, ks*ks, oh*ow)
    arg = cols.argmax(axis=1)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out = out.reshape(batch, channels, out_h, out_w)

    def backward(grad):
        if not x.requires_grad:
            return
        grad_flat = grad.reshape(batch * channels, -1)
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, arg[:, None, :], grad_flat[:, None, :], axis=1)
        grad_padded = np.zeros_like(flat)
        np.add.at(grad_padded, (slice(None), k, i, j), grad_cols)
        x._accumulate(grad_padded.reshape(x.shape))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x, kernel_size=2, stride=None):
    """Average pooling over NCHW input."""
    x = _as_tensor(x)
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    k, i, j = _im2col_indices(1, kernel_size, kernel_size, out_h, out_w, stride)
    flat = x.data.reshape(batch * channels, 1, height, width)
    cols = flat[:, k, i, j]
    out = cols.mean(axis=1).reshape(batch, channels, out_h, out_w)
    count = kernel_size * kernel_size

    def backward(grad):
        if not x.requires_grad:
            return
        grad_flat = grad.reshape(batch * channels, 1, -1) / count
        grad_cols = np.broadcast_to(grad_flat, cols.shape)
        grad_padded = np.zeros_like(flat)
        np.add.at(grad_padded, (slice(None), k, i, j), grad_cols)
        x._accumulate(grad_padded.reshape(x.shape))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x):
    """Global average pooling: NCHW → NC."""
    x = _as_tensor(x)
    return x.mean(axis=(2, 3))


def dropout(x, p=0.5, training=True, rng=None):
    """Inverted dropout. Identity when not training or ``p == 0``."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    x = _as_tensor(x)
    if not training or p == 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask.astype(x.data.dtype))


# --------------------------------------------------------------------- #
# similarity kernel
# --------------------------------------------------------------------- #


def normalize(x, axis=-1, eps=1e-12):
    """L2-normalize a tensor along ``axis``."""
    x = _as_tensor(x)
    return x / x.norm(axis=axis, keepdims=True, eps=eps)


def cosine_similarity_matrix(a, b, eps=1e-12):
    """Pairwise cosine similarity between rows of ``a`` (N, d) and ``b`` (M, d).

    This is the paper's bi-similarity kernel before temperature scaling:
    ``cossim(γ(X), φ(A))``.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("cosine_similarity_matrix expects 2-D inputs")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return normalize(a, eps=eps) @ normalize(b, eps=eps).T
