"""Pluggable storage/compute backends for the HDC algebra.

Two interchangeable implementations of the paper's bipolar hypervector
algebra (Schmuck et al., JETC 2019):

- :class:`DenseBackend` — the reference semantics: one int8 per
  component, binding as elementwise multiplication, Hamming distance as
  an elementwise comparison. Simple, exact, and the ground truth every
  other backend must agree with bit-for-bit.
- :class:`PackedBackend` — the hardware-faithful representation: 64
  components per ``uint64`` word (one *bit* per component, as the paper's
  17 KB storage claim assumes). Binding is XOR, bundling is a vectorized
  column-popcount majority, permutation is a word-level roll with bit
  carry, and similarity is popcount Hamming via ``np.bitwise_count``.

A backend instance is bound to one dimensionality ``d`` because the
packed word layout cannot infer ``d`` from its store (``d`` is padded up
to a whole number of 64-bit words). Random sampling always routes
through the dense Rademacher sample before packing, so both backends
produce *identical* hypervectors for the same seed — the property that
makes backend choice invisible to experiment results.

Bit convention (little-endian platforms): component ``i`` lives in word
``i // 64`` at bit ``i % 64``, with bit 1 encoding bipolar −1 (the
``bipolar_to_binary`` mapping under which XOR ≡ multiplication).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .ordering import topk_order_partitioned_batch
from .hypervector import (
    WORD_BITS,
    pack_bipolar,
    pack_bits,
    random_bipolar,
    unpack_bipolar,
    unpack_bits,
)

__all__ = [
    "HDCBackend",
    "DenseBackend",
    "PackedBackend",
    "BACKENDS",
    "make_backend",
]

def _popcount_sum(words):
    """Σ popcount over the last axis of a uint64 array (NumPy ≥ 2.0)."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _majority_bits(minus_counts, n, rng):
    """Majority bits from per-column −1 counts (bit 1 ↔ bipolar −1).

    The tie-breaking contract shared by every backend: a column with
    exactly ``n/2`` minus-ones resolves to +1 (bit 0) deterministically,
    or — when ``rng`` is given — to the sign drawn by one
    ``rng.integers(0, 2, size=num_ties)`` call over the tie positions in
    row-major order (draw 1 → +1, draw 0 → −1). Backends that follow
    this contract agree bit-for-bit for the same generator state.
    """
    twice = 2 * minus_counts
    bits = (twice > n).astype(np.uint8)
    ties = twice == n
    if ties.any() and rng is not None:
        draws = rng.integers(0, 2, size=int(ties.sum()), dtype=np.int8)
        bits[ties] = (1 - draws).astype(np.uint8)
    return bits


def _squeeze_pairwise(matrix, a_ndim, b_ndim, scalar=float):
    """Collapse a pairwise (A, B) result to match 1-D operand shapes."""
    if a_ndim == 1 and b_ndim == 1:
        return scalar(matrix[0, 0])
    if a_ndim == 1:
        return matrix[0]
    if b_ndim == 1:
        return matrix[:, 0]
    return matrix


class HDCBackend(ABC):
    """Storage + compute strategy for bipolar hypervectors of one ``d``.

    Stores are backend-native numpy arrays whose *last* axis is the
    component axis (dense: length ``d`` int8; packed: ``ceil(d/64)``
    uint64 words). All similarity methods are batched first-class:
    1-D × 1-D → scalar, 1-D × 2-D → ``(n,)``, 2-D × 2-D → the full
    pairwise ``(A, B)`` matrix in a single call.
    """

    name = "abstract"

    def __init__(self, dim):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)

    # -- construction / conversion -------------------------------------- #

    def random(self, num_vectors, rng):
        """Sample ``(num_vectors, d)`` Rademacher hypervectors.

        Always drawn through the dense sampler so every backend yields
        the same vectors for the same generator state.
        """
        return self.from_bipolar(random_bipolar(num_vectors, self.dim, rng))

    @abstractmethod
    def from_bipolar(self, vectors, checked=False):
        """Convert a dense bipolar ``(..., d)`` array to the native store.

        ``checked=True`` says the caller has already verified that every
        component is ±1, so a backend that would check again skips it.
        """

    @abstractmethod
    def to_bipolar(self, store):
        """Convert a native store back to dense bipolar int8 ``(..., d)``."""

    # -- algebra ---------------------------------------------------------- #

    @abstractmethod
    def bind(self, a, b):
        """Variable binding (bipolar multiply / binary XOR)."""

    def unbind(self, bound, key):
        """Binding is self-inverse, so unbinding is another bind."""
        return self.bind(bound, key)

    def bundle(self, stack, rng=None):
        """Majority-rule bundling of an ``(n, d*)`` stack → ``(d*,)``.

        Delegates to :meth:`bundle_many` on a singleton batch — same
        result and the same rng stream, so each backend maintains the
        tie-break contract in exactly one place.
        """
        stack = np.asarray(stack)
        if stack.ndim != 2:
            raise ValueError("bundle expects a 2-D (n, d) stack")
        return self.bundle_many(stack[None], rng=rng)[0]

    @abstractmethod
    def bundle_many(self, stacks, rng=None):
        """Batched bundling of ``(B, n, d*)`` stacks → ``(B, d*)``.

        Tie-breaking follows the shared contract of
        :func:`_majority_bits` applied once to the flattened ``(B, d)``
        tie mask — reproducible, but the rng stream differs from calling
        :meth:`bundle` row by row (numpy draws are buffered per call).
        """

    @abstractmethod
    def permute(self, x, shift=1):
        """Cyclic permutation ρ by ``shift`` component positions."""

    def inverse_permute(self, x, shift=1):
        """Inverse of :meth:`permute`."""
        return self.permute(x, -shift)

    # -- similarity -------------------------------------------------------- #

    @abstractmethod
    def hamming(self, a, b):
        """Pairwise Hamming distances (component disagreement counts)."""

    @abstractmethod
    def dot(self, a, b):
        """Pairwise bipolar dot products (``d − 2·hamming``)."""

    def minus_counts(self, store):
        """Per-row count of −1 components of a native ``(n, ·)`` store.

        The popcount statistic behind the store layer's per-shard
        pruning bounds: for bipolar vectors,
        ``hamming(q, x) >= |minus_counts(q) - minus_counts(x)|``, so a
        shard whose rows all have minus-counts far from the query's can
        be skipped without scoring it.
        """
        store = np.asarray(store)
        if store.ndim != 2:
            raise ValueError(f"expected a native (n, ·) store, got {store.shape}")
        return (self.to_bipolar(store) < 0).sum(axis=-1, dtype=np.int64)

    #: rows per block of the column-count sweep (bounds the dense temporary)
    _COLUMN_COUNT_BLOCK = 4096

    def column_minus_counts(self, store):
        """Per-*column* count of −1 components of a native ``(n, ·)`` store.

        The ``(dim,)`` int64 column statistic behind the store layer's
        geometric pruning bounds: the per-bit majority of these counts
        is the shard's Hamming-space centroid (:meth:`centroid`).
        Computed in bounded row blocks, so a memmapped million-row store
        never materializes more than one block of bipolar components.
        """
        store = np.asarray(store)
        if store.ndim != 2:
            raise ValueError(f"expected a native (n, ·) store, got {store.shape}")
        counts = np.zeros(self.dim, dtype=np.int64)
        for start in range(0, store.shape[0], self._COLUMN_COUNT_BLOCK):
            block = self.to_bipolar(store[start : start + self._COLUMN_COUNT_BLOCK])
            counts += (block < 0).sum(axis=0, dtype=np.int64)
        return counts

    def centroid(self, column_minus_counts, rows):
        """Native majority-vote centroid row from per-column −1 counts.

        The Hamming-space 1-medoid surrogate the geometric shard bounds
        use: component ``i`` is −1 when strictly more than half of the
        ``rows`` stored rows are −1 there, +1 otherwise (exact-half ties
        resolve to +1, deterministically — the same convention as
        :func:`_majority_bits` without an rng, so every backend derives
        the identical centroid from the same counts). Any fixed centroid
        yields a *correct* lower bound ``max(0, d(q, c) − radius)``; the
        majority vote is simply the count-minimizing choice.
        """
        counts = np.asarray(column_minus_counts, dtype=np.int64)
        if counts.shape != (self.dim,):
            raise ValueError(
                f"expected ({self.dim},) column counts, got {counts.shape}"
            )
        bits = _majority_bits(counts, int(rows), None)
        return self.from_bipolar((1 - 2 * bits.astype(np.int8)).astype(np.int8),
                                 checked=True)

    def hamming_topk(self, queries, store, k, bounds=None, dead=None):
        """Exact ``(distances, indices)`` top-``k`` of queries vs store rows.

        Both ``(A, k')`` int64 arrays with ``k' = min(k, n)``, each row
        ranked by Hamming distance ascending with exact ties resolved to
        the smaller store index — the retrieval stack's shared
        :func:`~repro.hdc.ordering.topk_order` contract.

        ``bounds`` (an ``(A,)`` array of integer distances) is a *pruning
        permit*: entries whose distance strictly exceeds ``bounds[i]``
        are irrelevant to the caller and may be replaced by sentinel
        rows (distance ``dim + 1``, index ``-1``). Every item with
        distance ``<= bounds[i]`` that belongs in the exact top-``k'``
        is always returned in its exact rank. The reference
        implementation computes the full exact top-``k'`` through the
        partitioned selection (:func:`topk_order_partitioned_batch`) and
        then *applies* the permit — out-of-bound slots come back as
        sentinels, so the sentinel-merge path behaves identically on
        every backend; subclasses may instead use ``bounds`` to skip
        work (``PackedBackend``'s adaptive prefix schedule).

        ``dead`` (sorted row indices; the store stack's dead-row mask)
        names rows that were deleted but not yet folded out of
        ``store``: they score as distance ``dim + 1``, so a dead row
        only ever comes back as a sentinel, and the ranking of the live
        rows is exactly the ranking of a store without them.
        """
        queries = np.atleast_2d(np.asarray(queries))
        distances = np.atleast_2d(self.hamming(queries, store))
        masked = dead is not None and len(dead) > 0
        if masked:
            distances[:, dead] = self.dim + 1
        selected = topk_order_partitioned_batch(distances, k)
        rows = np.arange(distances.shape[0])[:, None]
        out_d = distances[rows, selected]
        out_i = selected.astype(np.int64)
        if masked:
            out_i[out_d > self.dim] = -1
        if bounds is not None:
            bounds = np.asarray(bounds, dtype=np.int64)
            if bounds.shape != (out_d.shape[0],):
                raise ValueError(
                    f"bounds must have shape ({out_d.shape[0]},), "
                    f"got {bounds.shape}"
                )
            pruned = out_d > bounds[:, None]
            out_d = np.where(pruned, np.int64(self.dim + 1), out_d)
            out_i = np.where(pruned, np.int64(-1), out_i)
        return out_d, out_i

    def cosine(self, a, b):
        """Pairwise cosine similarity (bipolar norms are ``sqrt(d)``)."""
        dot = self.dot(a, b)
        return np.asarray(dot, dtype=np.float64) / self.dim if np.ndim(dot) else dot / self.dim

    # -- accounting -------------------------------------------------------- #

    def nbytes(self, store):
        """Actual bytes held by a native store (the *measured* footprint)."""
        return int(np.asarray(store).nbytes)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DenseBackend(HDCBackend):
    """Reference backend: one int8 per bipolar component.

    Deliberately favors clarity over speed — its Hamming path is the
    literal elementwise-disagreement count the algebra defines, and it is
    the semantics oracle the packed backend is verified against.
    """

    name = "dense"

    def from_bipolar(self, vectors, checked=False):
        vectors = np.asarray(vectors)
        if vectors.shape[-1] != self.dim:
            raise ValueError(f"expected last axis {self.dim}, got {vectors.shape}")
        return vectors.astype(np.int8)

    def to_bipolar(self, store):
        return np.asarray(store, dtype=np.int8)

    def bind(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape[-1] != b.shape[-1]:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        return (a * b).astype(a.dtype)

    def bundle_many(self, stacks, rng=None):
        stacks = np.asarray(stacks)
        if stacks.ndim != 3:
            raise ValueError("bundle_many expects a 3-D (B, n, d) array")
        minus = (stacks < 0).sum(axis=1, dtype=np.int64)
        bits = _majority_bits(minus, stacks.shape[1], rng)
        return (1 - 2 * bits.astype(np.int8)).astype(np.int8)

    def permute(self, x, shift=1):
        return np.roll(np.asarray(x), shift, axis=-1)

    #: target temporary size (bytes) for the blocked comparison sweep
    _HAMMING_BLOCK_BYTES = 4 << 20
    #: rows of ``a`` held resident per tile pass
    _HAMMING_A_BLOCK = 64

    def hamming(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        a2 = np.atleast_2d(a)
        b2 = np.atleast_2d(b)
        if a2.shape[-1] != b2.shape[-1]:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        num_a, num_b = a2.shape[0], b2.shape[0]
        counts = np.empty((num_a, num_b), dtype=np.int64)
        # Tile over *both* axes: the item (b) axis is the one that grows
        # into the millions, so the comparison temporary is bounded by
        # (a_block × tile × d) bools however large the store gets — the
        # old query-axis-only blocking degenerated to full-store
        # temporaries per query row.
        a_block = max(1, min(num_a, self._HAMMING_A_BLOCK))
        per_pair = max(1, a2.shape[-1] * a_block)
        tile = max(1, self._HAMMING_BLOCK_BYTES // per_pair)
        for b_start in range(0, num_b, tile):
            b_tile = b2[b_start : b_start + tile]
            for a_start in range(0, num_a, a_block):
                counts[a_start : a_start + a_block, b_start : b_start + tile] = (
                    a2[a_start : a_start + a_block, None, :] != b_tile[None, :, :]
                ).sum(axis=-1, dtype=np.int64)
        return _squeeze_pairwise(counts, a.ndim, b.ndim, scalar=int)

    def dot(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        out = np.atleast_2d(a).astype(np.float64) @ np.atleast_2d(b).astype(np.float64).T
        return _squeeze_pairwise(out, a.ndim, b.ndim, scalar=float)


class PackedBackend(HDCBackend):
    """Bit-packed backend: 64 components per ``uint64`` word.

    Stores 1 bit per component (8× smaller than :class:`DenseBackend`
    for ``d`` divisible by 64) and runs the hot similarity path as
    XOR + ``np.bitwise_count`` popcounts, blocked to keep temporaries
    cache-friendly.
    """

    name = "packed"

    #: target temporary size (bytes) for the blocked Hamming kernel
    _HAMMING_BLOCK_BYTES = 4 << 20

    def __init__(self, dim):
        super().__init__(dim)
        self.num_words = (self.dim + WORD_BITS - 1) // WORD_BITS

    def from_bipolar(self, vectors, checked=False):
        vectors = np.asarray(vectors)
        if vectors.shape[-1] != self.dim:
            raise ValueError(f"expected last axis {self.dim}, got {vectors.shape}")
        return pack_bits(vectors < 0) if checked else pack_bipolar(vectors)

    def to_bipolar(self, store):
        return unpack_bipolar(store, self.dim)

    def _as_words(self, x):
        """Validate a packed store: uint64 words, ``num_words`` per vector.

        Guards against dense bipolar arrays slipping in unpacked — their
        int8 components would silently reinterpret as 64-bit words and
        every downstream popcount would be garbage.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.num_words or x.dtype != np.uint64:
            raise ValueError(
                f"expected a packed uint64 store with last axis {self.num_words}, "
                f"got {x.dtype} {x.shape}; convert dense vectors with from_bipolar()"
            )
        return x

    def bind(self, a, b):
        return np.bitwise_xor(self._as_words(a), self._as_words(b))

    def _minus_counts(self, stacks, axis):
        bits = unpack_bits(stacks, self.dim)
        return bits.sum(axis=axis, dtype=np.int64)

    def bundle_many(self, stacks, rng=None):
        stacks = self._as_words(stacks)
        if stacks.ndim != 3:
            raise ValueError("bundle_many expects a 3-D (B, n, words) array")
        bits = _majority_bits(self._minus_counts(stacks, axis=1), stacks.shape[1], rng)
        return pack_bits(bits)

    def permute(self, x, shift=1):
        x = self._as_words(x)
        s = int(shift) % self.dim
        if s == 0:
            return x.copy()
        if self.dim % WORD_BITS == 0:
            # Word-level roll plus a bit carry from the neighbouring word.
            word_shift, bit_shift = divmod(s, WORD_BITS)
            rolled = np.roll(x, word_shift, axis=-1)
            if bit_shift:
                carry = np.roll(rolled, 1, axis=-1)
                rolled = (rolled << np.uint64(bit_shift)) | (
                    carry >> np.uint64(WORD_BITS - bit_shift)
                )
            return rolled
        # Padded tail bits make word rolls wrap incorrectly; take the
        # exact (slower) route through the dense layout.
        return pack_bipolar(np.roll(unpack_bipolar(x, self.dim), s, axis=-1))

    #: rows of ``a`` held resident per tile pass
    _HAMMING_A_BLOCK = 64

    def hamming(self, a, b):
        a = self._as_words(a)
        b = self._as_words(b)
        a2 = np.ascontiguousarray(np.atleast_2d(a))
        b2 = np.ascontiguousarray(np.atleast_2d(b))
        num_a, num_b = a2.shape[0], b2.shape[0]
        counts = np.empty((num_a, num_b), dtype=np.int64)
        # Tile over the *item* axis (the axis that grows into the
        # millions): each tile is transposed once into word-major layout
        # and swept word by word, so every popcount pass runs over a
        # contiguous (a_block, tile) temporary and the store is read
        # once per a_block rather than once per query row. The old
        # query-axis-only blocking materialized a full-store XOR
        # temporary per query at large n.
        a_block = max(1, min(num_a, self._HAMMING_A_BLOCK))
        tile = max(1, self._HAMMING_BLOCK_BYTES // (8 * a_block))
        for b_start in range(0, num_b, tile):
            b_tile = np.ascontiguousarray(b2[b_start : b_start + tile].T)
            for a_start in range(0, num_a, a_block):
                a_rows = a2[a_start : a_start + a_block]
                counts[a_start : a_start + a_block, b_start : b_start + tile] = (
                    self._hamming_tile(a_rows, b_tile)
                )
        return _squeeze_pairwise(counts, a.ndim, b.ndim, scalar=int)

    def _hamming_tile(self, a_rows, b_tile_T):
        """Popcount Hamming of ``(A, words)`` rows vs one ``(words, t)`` tile."""
        acc = np.zeros((a_rows.shape[0], b_tile_T.shape[1]), dtype=np.uint64)
        for word in range(self.num_words):
            acc += np.bitwise_count(a_rows[:, word, None] ^ b_tile_T[word, None, :])
        return acc

    def dot(self, a, b):
        hamming = self.hamming(a, b)
        if np.ndim(hamming):
            return (self.dim - 2 * hamming).astype(np.float64)
        return float(self.dim - 2 * hamming)

    def minus_counts(self, store):
        store = self._as_words(np.asarray(store))
        if store.ndim != 2:
            raise ValueError(f"expected a native (n, words) store, got {store.shape}")
        return _popcount_sum(store)  # padding bits are zero, so they never count

    #: rows per block of the packed column count: a uint8 column sum of
    #: up to 255 bits cannot overflow
    _COLUMN_COUNT_ROWS = 255

    def column_minus_counts(self, store):
        """Per-column −1 counts straight from the packed words.

        Same contract as :meth:`HDCBackend.column_minus_counts`, without
        the bipolar round trip: each block of at most 255 rows is
        unpacked to one uint8 bit per component (``np.unpackbits`` over
        the words' little-endian byte view, so bit ``i`` is component
        ``i``) and summed down its columns in uint8.
        """
        store = self._as_words(np.asarray(store))
        if store.ndim != 2:
            raise ValueError(f"expected a native (n, words) store, got {store.shape}")
        counts = np.zeros(self.num_words * WORD_BITS, dtype=np.int64)
        for start in range(0, store.shape[0], self._COLUMN_COUNT_ROWS):
            block = np.ascontiguousarray(
                store[start : start + self._COLUMN_COUNT_ROWS], dtype="<u8")
            bits = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little")
            counts += bits.sum(axis=0, dtype=np.uint8)
        return counts[: self.dim]

    #: early-exit top-k kernel tuning — items per word-major tile, items in
    #: the bound-seeding probe block, the survivor fraction above which a
    #: query finishes its whole tile contiguously rather than gathered, and
    #: the size of the ``(query block, tile)`` uint64 XOR temporary, which
    #: sets how many queries each NumPy call covers
    _TOPK_TILE = 16384
    _TOPK_PROBE = 2048
    _TOPK_GATHER_FRACTION = 0.25
    _TOPK_BLOCK_BYTES = 1 << 20

    def _first_checkpoint(self, bound):
        """Words to accumulate before the first early-exit filter pass.

        Adaptive prefix schedule: a uniformly-random far item mismatches
        ~``WORD_BITS/2`` bits per word, so its running count is expected
        to cross ``bound`` after about ``bound / (WORD_BITS/2)`` words —
        filtering much earlier buys nothing (almost everything survives)
        and filtering much later wastes popcounts on items that were
        already provably out. A tight bound therefore checkpoints after
        one or two words; a loose bound (``>= dim/2``-ish) pushes the
        first checkpoint past the last word, collapsing the kernel to a
        single contiguous pass — no two-pass tax when pruning cannot
        pay. Clamped to ``[1, num_words]``; ``num_words`` means "no
        filtering".
        """
        if bound >= self.dim:
            return self.num_words  # every prefix count passes; skip filtering
        words = int(bound) // (WORD_BITS // 2) + 1
        return max(1, min(self.num_words, words))

    def hamming_topk(self, queries, store, k, bounds=None, dead=None):
        """Early-exit exact top-``k``: prefix distances prune the tail words.

        Same contract as :meth:`HDCBackend.hamming_topk`. The store is
        swept in word-major tiles, and every NumPy call covers a *block*
        of queries across a whole tile, sized so the ``(block, tile)``
        uint64 XOR temporary stays near ``_TOPK_BLOCK_BYTES``: each call
        runs long enough with the GIL released for shard kernels on
        other threads to overlap it, and the per-call overhead is paid
        once per block instead of once per query.

        Adaptive prefix schedule: blocks take the queries in bound order,
        a block accumulates Hamming counts up to a first checkpoint
        chosen from its *loosest* bound (:meth:`_first_checkpoint` —
        tight bounds checkpoint after a word or two, loose bounds degrade
        to one contiguous pass), and every query then filters against
        its *own* bound, the smaller of its running k-th-best distance
        and the caller's ``bounds``: the
        remaining words can only add distance, so an item whose prefix
        count already exceeds it is done. A query with dense survivors
        finishes its tile contiguously; the block's sparse survivors are
        gathered and re-filtered at escalating (doubling) word-block
        checkpoints, so a near-match workload pays popcounts for little
        more than the true candidates. A small fully-scored probe block
        seeds the running bounds when the caller brings none.

        Exact ties survive: items are kept while the prefix is ``<=``
        the bound, and every candidate ranks by its exact full distance
        under the shared (distance, index) tie contract, folded into one
        int64 key ``distance * (n + 1) + index + 1`` (the ``(dim + 1,
        -1)`` sentinel rows a query's top-``k`` starts from rank behind
        every real candidate). ``dead`` rows have their running count
        pinned to the sentinel ``dim + 1`` after the prefix and again
        after a contiguous finish (the tail words can wrap a uint16
        counter), and no filter admits a count above ``dim``, so they
        never survive; an empty mask runs the unmasked kernel unchanged.
        """
        a2 = np.ascontiguousarray(np.atleast_2d(self._as_words(np.asarray(queries))))
        b2 = self._as_words(np.asarray(store))
        if b2.ndim != 2:
            raise ValueError(f"expected a native (n, words) store, got {b2.shape}")
        num_a, n = a2.shape[0], b2.shape[0]
        k = min(int(k), n)
        if k <= 0:
            empty = np.empty((num_a, 0), dtype=np.int64)
            return empty, empty.copy()
        if dead is not None and not len(dead):
            dead = None
        if self.num_words < 4 or n < 2 * self._TOPK_PROBE or 4 * k >= n:
            return super().hamming_topk(a2, b2, k, bounds, dead)
        if bounds is None:
            # No caller bound: a fully-scored head block seeds every
            # query's running bound before the first real tile.
            limits = np.full(num_a, self.dim, dtype=np.int64)
            cuts = [0, *range(self._TOPK_PROBE, n, self._TOPK_TILE), n]
        else:
            bounds = np.asarray(bounds, dtype=np.int64)
            if bounds.shape != (num_a,):
                raise ValueError(
                    f"bounds must have shape ({num_a},), got {bounds.shape}"
                )
            limits = np.clip(bounds, 0, self.dim)
            cuts = [*range(0, n, self._TOPK_TILE), n]
        scale = n + 1
        best = np.full((num_a, k), (self.dim + 1) * scale, dtype=np.int64)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            b_tile = np.ascontiguousarray(b2[lo:hi].T)
            tile_dead = None
            if dead is not None:
                start, stop = np.searchsorted(dead, (lo, hi))
                tile_dead = dead[start:stop] - lo if stop > start else None
            self._topk_tile(a2, b_tile, lo, tile_dead, limits, best, scale)
        return best // scale, best % scale - 1

    def _topk_tile(self, a2, b_tile, lo, tile_dead, limits, best, scale):
        """Fold one word-major tile (store rows from ``lo``) into ``best``."""
        num_a, num_words, sentinel = a2.shape[0], self.num_words, self.dim + 1
        t = b_tile.shape[1]
        block = max(1, self._TOPK_BLOCK_BYTES // (8 * t))
        size = min(block, num_a) * t
        acc_dtype = np.uint16 if sentinel <= np.iinfo(np.uint16).max else np.uint32
        buffers = [np.empty(size, dtype) for dtype in (np.uint64, np.uint8, acc_dtype)]
        # Each query's bound for this tile; blocks take the queries in
        # bound order, so a tight query shares its block (and the block's
        # first checkpoint) with other tight ones.
        bound = np.minimum(best[:, -1] // scale, limits).astype(acc_dtype)
        by_bound = np.argsort(bound, kind="stable")
        for q0 in range(0, num_a, block):
            index = by_bound[q0 : q0 + block]
            rows, eff = a2[index], bound[index]
            m = index.size
            xv, cv, av = (buf[: m * t].reshape(m, t) for buf in buffers)
            first = self._first_checkpoint(int(eff.max()))
            self._accumulate(rows, b_tile, 0, first, xv, cv, av)
            if tile_dead is not None:
                av[:, tile_dead] = sentinel  # above every filter bound
            if first == num_words:
                # Loose bounds: the schedule collapsed to one contiguous
                # pass — select straight from the fully-summed tile.
                self._merge_scored(best, index, av, eff, lo, scale)
                continue
            passed = av <= eff[:, None]
            tallies = self._row_tallies(passed)
            dense = tallies > t * self._TOPK_GATHER_FRACTION
            gathered = np.arange(m)
            if dense.any():
                # Dense survivors: these queries finish the whole tile
                # contiguously, which beats gathering.
                picked = np.flatnonzero(dense)
                scored = av if picked.size == m else av[picked]
                self._accumulate(rows[picked], b_tile, first, num_words,
                                 xv[: picked.size], cv[: picked.size], scored)
                if tile_dead is not None:
                    # re-pin: the tail words may wrap a narrow counter
                    scored[:, tile_dead] = sentinel
                self._merge_scored(best, index[picked], scored, eff[picked], lo, scale)
                if picked.size == m:
                    continue
                gathered = np.flatnonzero(~dense)
                passed, tallies = passed[gathered], tallies[gathered]
            # Gathered finish with escalating (doubling) word-block
            # checkpoints: survivors re-filter against their query's bound
            # after each block, so far items stop accumulating as soon as
            # they provably cannot matter.
            local = np.repeat(np.arange(gathered.size), tallies)
            keep = np.flatnonzero(passed) - local * t
            group = gathered[local]
            dist = av.ravel().take(group * t + keep)
            limit = eff.take(group)
            word, span = first, first
            while word < num_words and keep.size:
                stop = min(num_words, word + span)
                for w in range(word, stop):
                    dist += np.bitwise_count(b_tile[w].take(keep) ^ rows[:, w].take(group))
                word, span = stop, span * 2
                alive = dist <= limit
                if not alive.all():
                    group, keep, dist, limit = (
                        group[alive], keep[alive], dist[alive], limit[alive])
            self._topk_merge(best, index, group,
                             dist.astype(np.int64) * scale + (keep + lo + 1))

    @staticmethod
    def _accumulate(rows, b_tile, lo, hi, xv, cv, av):
        """Add words ``[lo, hi)`` of the Hamming counts of query ``rows``
        against a word-major tile into the ``(m, t)`` counts ``av``
        (``lo == 0`` starts them); ``xv``/``cv`` are working buffers."""
        for word in range(lo, hi):
            np.bitwise_xor(b_tile[word], rows[:, word, None], out=xv)
            if word == 0:
                np.bitwise_count(xv, out=av)
            else:
                np.add(av, np.bitwise_count(xv, out=cv), out=av)

    @staticmethod
    def _row_tallies(passed):
        """Per-row ``True`` counts of an ``(m, t)`` mask (``m`` 1-D counts
        beat one ``count_nonzero(axis=1)``)."""
        return np.fromiter(map(np.count_nonzero, passed), dtype=np.intp,
                           count=passed.shape[0])

    def _merge_scored(self, best, index, scored, eff, lo, scale):
        """Merge fully-scored ``(m, t)`` tile rows into queries ``index``:
        each row's top-``k`` and its ties, none above the row's bound."""
        k, t = best.shape[1], scored.shape[1]
        limit = eff
        if t > k:
            limit = np.minimum(limit, np.partition(scored, k - 1, axis=1)[:, k - 1])
        passed = scored <= limit[:, None]
        group = np.repeat(np.arange(scored.shape[0]), self._row_tallies(passed))
        flat = np.flatnonzero(passed)
        dist = scored.ravel().take(flat).astype(np.int64)
        self._topk_merge(best, index, group, dist * scale + (flat - group * t + lo + 1))

    @staticmethod
    def _topk_merge(best, index, group, keys):
        """Fold candidate ``keys`` into the running top-``k`` keys of the
        queries ``index`` in place; ``group`` (ascending) gives each
        key's position in ``index``. Distinct keys make the merge the
        exact (distance, index) contract."""
        if not keys.size:
            return
        k = best.shape[1]
        counts = np.bincount(group, minlength=index.size)
        table = np.full((index.size, k + int(counts.max())),
                        np.iinfo(np.int64).max, dtype=np.int64)
        table[:, :k] = best[index]
        slots = np.arange(keys.size) - (np.cumsum(counts) - counts)[group]
        table[group, k + slots] = keys
        table.partition(k - 1, axis=1)
        best[index] = np.sort(table[:, :k], axis=1)


BACKENDS = {DenseBackend.name: DenseBackend, PackedBackend.name: PackedBackend}


def make_backend(spec, dim):
    """Resolve ``spec`` (a name or an :class:`HDCBackend`) at ``dim``."""
    if isinstance(spec, HDCBackend):
        if spec.dim != dim:
            raise ValueError(f"backend dim {spec.dim} does not match {dim}")
        return spec
    try:
        cls = BACKENDS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown HDC backend {spec!r}; available: {sorted(BACKENDS)}"
        ) from None
    return cls(dim)
