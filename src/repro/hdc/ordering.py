"""The retrieval stack's single top-k ordering / tie-break implementation.

Every ranked decision in the repository — ``ItemMemory.topk`` /
``topk_batch``, the sharded store's fan-out merge, and the
integer-distance partials of the parallel query path — resolves through
:func:`topk_order`. The contract:

    rank by the primary key **ascending**; exact ties resolve to the
    smaller tie-break key, which defaults to the entry's position.

Callers ranking by similarity *descending* pass the negated
similarities; positions are insertion order for similarity rows, so the
default tie-break is exactly the documented "earliest-inserted label
wins" behaviour. Keeping one implementation (pinned directly by
``tests/hdc/test_ordering.py``) is what guarantees the ``ItemMemory``
reference and the sharded merge can never drift apart on ties.
"""

from __future__ import annotations

import numpy as np

__all__ = ["topk_order", "topk_order_partitioned", "topk_order_partitioned_batch"]


def topk_order(primary, k, tiebreak=None):
    """Indices of the ``k`` smallest entries along the last axis.

    ``primary`` ascending; exact ties resolve to the smaller
    ``tiebreak`` entry (default: the entry's position, via a stable
    sort). Works on any trailing-axis batch shape; ``k`` larger than the
    axis returns every index.
    """
    primary = np.asarray(primary)
    k = min(int(k), primary.shape[-1])
    if tiebreak is None:
        order = np.argsort(primary, axis=-1, kind="stable")
    else:
        tiebreak = np.asarray(tiebreak)
        if tiebreak.shape != primary.shape:
            raise ValueError(
                f"tiebreak shape {tiebreak.shape} must match primary "
                f"{primary.shape}"
            )
        # np.lexsort ranks by the *last* key first: primary, then tiebreak.
        order = np.lexsort((tiebreak, primary), axis=-1)
    return order[..., :k]


def topk_order_partitioned(primary, k):
    """:func:`topk_order` for one 1-D row, ``np.partition``-accelerated.

    Identical result (including tie resolution) at O(n + t log t) where
    ``t`` is the number of candidates at or below the k-th smallest
    value, instead of a full O(n log n) sort — the per-shard selection
    used on large stores. Boundary ties are handled exactly: every entry
    equal to the k-th smallest value stays a candidate, and the final
    ranking among candidates goes through :func:`topk_order` itself.
    """
    primary = np.asarray(primary)
    if primary.ndim != 1:
        raise ValueError(f"expected a 1-D row, got shape {primary.shape}")
    n = primary.shape[0]
    k = min(int(k), n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if 4 * k >= n:  # partition wouldn't pay for itself
        return topk_order(primary, k)
    bound = np.partition(primary, k - 1)[k - 1]
    candidates = np.nonzero(primary <= bound)[0]  # ascending positions
    return candidates[topk_order(primary[candidates], k)]


def topk_order_partitioned_batch(primary, k):
    """Row-batched :func:`topk_order_partitioned` for a ``(B, n)`` array.

    Bit-identical to applying :func:`topk_order_partitioned` (hence
    :func:`topk_order`) to every row, in one vectorized pass. Integer
    rows use a composite ``primary * n + position`` key — exact
    lexicographic (primary ascending, position ascending) because every
    position is in ``[0, n)`` — selected with a single batched
    ``np.argpartition`` and ranked by one small sort of the ``k``
    unique keys per row. Float rows (no exact composite key) fall back
    to the batched stable sort of :func:`topk_order`.
    """
    primary = np.asarray(primary)
    if primary.ndim != 2:
        raise ValueError(f"expected a (B, n) batch, got shape {primary.shape}")
    num_rows, n = primary.shape
    k = min(int(k), n)
    if k <= 0:
        return np.empty((num_rows, 0), dtype=np.int64)
    if not np.issubdtype(primary.dtype, np.integer) or 4 * k >= n:
        return topk_order(primary, k)
    lo, hi = int(primary.min()), int(primary.max())
    limit = np.iinfo(np.int64).max
    if hi >= (limit - n) // n or lo <= -((limit - n) // n):
        return topk_order(primary, k)  # composite key would overflow
    composite = primary.astype(np.int64) * n + np.arange(n, dtype=np.int64)
    selected = np.argpartition(composite, k - 1, axis=1)[:, :k]
    rows = np.arange(num_rows)[:, None]
    order = np.argsort(composite[rows, selected], axis=1)
    return selected[rows, order]
