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
# convolution / pooling (window gathers with hand-written backward)
# --------------------------------------------------------------------- #


class _Windows:
    """The live windows of a conv or pool over an NCHW ``shape``.

    On each spatial axis only the kernel taps that meet the input at some
    output position are live: ``[max(0, p − (out − 1)·s), min(k, p + n))``
    for input size ``n``, kernel ``k``, stride ``s`` and padding ``p``.
    Every other tap only ever multiplies zero padding. (An output that
    reads nothing but padding keeps one tap, so the block is never
    empty.) The padding shifts to match, and the zero canvas the windows
    read holds only the padding the live taps reach: with none, the
    canvas is the input itself.
    """

    def __init__(self, shape, kernel_h, kernel_w, stride, padding):
        self.stride = stride
        out, taps, canvas, inner, region = [], [], list(shape[:2]), [...], [...]
        for size, kernel in zip(shape[2:], (kernel_h, kernel_w)):
            length = (size + 2 * padding - kernel) // stride + 1
            hi = min(kernel, padding + size)
            lo = min(max(0, padding - (length - 1) * stride), hi - 1)
            start = lo - padding  # the input index tap ``lo`` reads at output 0
            stop = start + (length - 1) * stride + hi - lo
            before = max(0, -start)
            out.append(length)
            taps.append(slice(lo, hi))
            canvas.append(before + max(size, stop))
            inner.append(slice(before, before + size))
            region.append(slice(before + start, before + stop))
        self.out, self.taps = tuple(out), tuple(taps)
        self.kernel = tuple(tap.stop - tap.start for tap in taps)
        self.canvas, self.inner, self.region = tuple(canvas), tuple(inner), tuple(region)
        self.padded = self.canvas != tuple(shape)
        self.view_shape = (*shape[:2], *self.out, *self.kernel)

    def over(self, data):
        """The live windows of NCHW ``data``: a read-only ``(N, C, oh, ow,
        kh, kw)`` view, of a zero-padded copy when the live taps reach
        padding.

        Built by ``as_strided`` from this geometry. ``sliding_window_view``
        builds the same view but re-validates its arguments on every
        call, at about twice the fixed cost, which a batch-1 forward
        pays once per conv.
        """
        if self.padded:
            padded = np.zeros(self.canvas, dtype=data.dtype)
            padded[self.inner] = data
            data = padded
        region = data[self.region]
        batch, channel, row, col = region.strides
        return np.lib.stride_tricks.as_strided(
            region, self.view_shape,
            (batch, channel, row * self.stride, col * self.stride, row, col),
            writeable=False,
        )

    def scatter(self, cols, dtype):
        """Window columns summed back onto the input's shape: the adjoint
        of the gather from :meth:`over`.

        ``cols`` reshapes to ``(N, C, kh, kw, oh, ow)``. One strided add
        per tap, taps in order, so every pixel sums its windows in the
        order ``np.add.at`` over the im2col indices would.
        """
        grad = np.zeros(self.canvas, dtype=dtype)
        region = grad[self.region]
        (out_h, out_w), (kernel_h, kernel_w), step = self.out, self.kernel, self.stride
        taps = cols.reshape(*self.canvas[:2], kernel_h, kernel_w, out_h, out_w)
        for i in range(kernel_h):
            rows = slice(i, i + (out_h - 1) * step + 1, step)
            for j in range(kernel_w):
                region[:, :, rows, j:j + (out_w - 1) * step + 1:step] += taps[:, :, i, j]
        return grad[self.inner] if self.padded else grad


@lru_cache(maxsize=256)
def _windows(shape, kernel_h, kernel_w, stride, padding):
    """The :class:`_Windows` of one geometry, shared by every call: a
    model's layers meet the same few geometries on every forward."""
    return _Windows(shape, kernel_h, kernel_w, stride, padding)


def _tap_block(weight, rows, cols):
    """The live taps ``weight[:, :, rows, cols]`` as a contiguous
    ``(F, C·kh·kw)`` matrix: a view of a whole kernel, a copy of a
    partial block."""
    block = weight.data[:, :, rows, cols]
    return np.ascontiguousarray(block.reshape(block.shape[0], -1))


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """2-D convolution over an NCHW tensor.

    Implemented as an im2col primitive with an explicit backward pass;
    this keeps the autograd graph shallow and the inner loop inside BLAS.
    It works only over the kernel taps that can meet the image: on a map
    smaller than the kernel, the taps that would only multiply zero
    padding leave the gather and the matmul, and their weight gradient
    is 0.
    """
    return _conv2d(x, weight, bias, stride, padding, _tap_block)


def _conv2d(x, weight, bias, stride, padding, tap_block):
    """:func:`conv2d` taking its live tap matrix from ``tap_block(weight,
    rows, cols)``, so a deployed :class:`~repro.nn.Conv2d` can hand in
    the block it keeps."""
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    batch, in_channels = x.shape[:2]
    out_channels, weight_channels, kernel_h, kernel_w = weight.shape
    if weight_channels != in_channels:
        raise ValueError(
            f"weight expects {weight_channels} input channels, got {in_channels}"
        )
    windows = _windows(x.shape, kernel_h, kernel_w, stride, padding)
    out_h, out_w = windows.out
    if out_h <= 0 or out_w <= 0:
        raise ValueError("convolution output would be empty; check kernel/stride/padding")

    # im2col over the live taps: (B, C*kh*kw, oh*ow) in one reshape copy
    # (a view for a 1x1 unit-stride conv over a contiguous input)
    cols = windows.over(x.data).transpose(0, 1, 4, 5, 2, 3).reshape(
        batch, -1, out_h * out_w)
    w_mat = tap_block(weight, *windows.taps)
    out = np.matmul(w_mat, cols).reshape(batch, out_channels, out_h, out_w)
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = grad.reshape(batch, out_channels, -1)  # (B, F, oh*ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)))
        if weight.requires_grad:
            grad_w = np.einsum("bfp,bcp->fc", grad_mat, cols, optimize=True)
            grad_w = grad_w.reshape(out_channels, in_channels, *windows.kernel)
            if grad_w.shape != weight.shape:  # the dead taps' gradient is 0
                full = np.zeros(weight.shape, dtype=grad_w.dtype)
                full[:, :, windows.taps[0], windows.taps[1]] = grad_w
                grad_w = full
            weight._accumulate(grad_w)
        if x.requires_grad:
            grad_cols = np.einsum("fc,bfp->bcp", w_mat, grad_mat, optimize=True)
            x._accumulate(windows.scatter(grad_cols, x.data.dtype))

    return Tensor._make(out, parents, backward)


def _pool_columns(x, kernel_size, stride):
    """A pool's windows over ``x`` and its columns ``(B·C, ks·ks, oh·ow)``.

    The columns are copied with the channels innermost and viewed in
    (channel, tap, output) order, so the average adds each window's taps
    one after another in tap order at every output size. (Over a
    tap-innermost copy NumPy switches to pairwise summation when a map
    pools to one output.)
    """
    windows = _windows(x.shape, kernel_size, kernel_size, stride, 0)
    out_h, out_w = windows.out
    cols = np.ascontiguousarray(windows.over(x.data).transpose(4, 5, 2, 3, 0, 1))
    cols = cols.reshape(kernel_size * kernel_size, out_h * out_w, -1)
    return windows, cols.transpose(2, 0, 1)


def max_pool2d(x, kernel_size=2, stride=None):
    """Max pooling over NCHW input."""
    x = _as_tensor(x)
    stride = stride or kernel_size
    windows, cols = _pool_columns(x, kernel_size, stride)
    arg = cols.argmax(axis=1)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out = out.reshape(*x.shape[:2], *windows.out)

    def backward(grad):
        if not x.requires_grad:
            return
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, arg[:, None, :],
                          grad.reshape(len(cols), 1, -1), axis=1)
        x._accumulate(windows.scatter(grad_cols, x.data.dtype))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x, kernel_size=2, stride=None):
    """Average pooling over NCHW input."""
    x = _as_tensor(x)
    stride = stride or kernel_size
    windows, cols = _pool_columns(x, kernel_size, stride)
    out = cols.mean(axis=1).reshape(*x.shape[:2], *windows.out)
    count = kernel_size * kernel_size

    def backward(grad):
        if not x.requires_grad:
            return
        grad_cols = np.broadcast_to(grad.reshape(len(cols), 1, -1) / count, cols.shape)
        x._accumulate(windows.scatter(grad_cols, x.data.dtype))

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
