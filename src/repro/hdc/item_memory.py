"""Associative item memory with similarity-based cleanup.

A standard HDC component: stores labelled hypervectors and retrieves the
best-matching stored item for a noisy query. Used in this repository for
attribute-dictionary analysis and in the HDC example applications, as
the scorer of real-valued dense queries, and as the in-memory reference
whose decisions the store subsystem (:mod:`repro.hdc.store`) must match.

:class:`RowMemory` owns the rows and knows no labels; :class:`ItemMemory`
adds the label list and label → row index on top.

Design notes for scale:

- label membership is a dict lookup (O(1), not a list scan);
- the stored stack is kept as one contiguous backend-native matrix;
  rows added since the last query fold into it lazily, so queries never
  re-``np.stack`` and the steady-state residency is a single copy;
- the query API is batched first-class: :meth:`similarities_batch`,
  :meth:`cleanup_batch` and :meth:`topk_batch` score ``(B, d)`` queries
  against all ``n`` items in a single matmul (dense) or popcount
  (packed) call;
- :meth:`RowMemory._take` adopts an existing backend-native matrix (for
  example an ``np.memmap`` over a saved shard file) without copying;
- deletion is a dead-row mask: :meth:`remove_many` flags rows in place
  (O(batch)), every query skips them, and the memory folds them out in
  one gather once they reach its live rows — so kernels never scan more
  than about twice the live rows. Rows keep their *physical* index
  until that fold; :meth:`index_of` and every answer speak in dense
  ranks over the survivors.

Tie-breaking contract (shared with :class:`repro.hdc.store`): queries
rank stored items by similarity *descending*, and exact similarity ties
resolve to the earliest-inserted label. ``cleanup``/``cleanup_batch``
realize this through ``argmax`` (first maximum wins); ``topk`` uses a
stable sort on the negated similarities.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from .backend import make_backend
from .hypervector import is_bipolar
from .ordering import topk_order

__all__ = ["ItemMemory", "RowMemory", "require_bipolar"]


def require_bipolar(queries, who="the store"):
    """``queries`` as an array; refuses any component other than ±1."""
    queries = np.asarray(queries)
    if not is_bipolar(queries):
        raise ValueError(f"{who} accepts only bipolar (+1/-1) queries; use "
                         "ItemMemory(dim, backend='dense') for real-valued queries")
    return queries


class RowMemory:
    """The rows of an associative memory, without labels: the native
    store, the dead-row mask, and the kernels that answer in *physical*
    rows. A :class:`~repro.hdc.store.ShardedItemMemory`'s shards are these.

    Parameters
    ----------
    dim:
        Hypervector dimensionality.
    backend:
        ``"dense"`` (default) stores int8 components and scores float
        cosine; ``"packed"`` stores bit-packed words and scores popcount
        Hamming cosine — identical values for bipolar data, 8× smaller
        and popcount-fast at query time.
    """

    def __init__(self, dim, backend="dense"):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self._backend = make_backend(backend, dim)
        self.dim = self._backend.dim
        self._rows = 0  # physical rows, dead ones included
        # Dead-row mask: physical rows deleted but not yet folded out,
        # plus the sorted array the kernels take (built on first use).
        self._dead = set()
        self._dead_sorted = None
        # Contiguous native store + blocks of rows added since it was last
        # built. The pending blocks fold into the matrix on the next query,
        # so the steady-state residency is one contiguous copy, not two.
        self._matrix = None
        self._pending = []

    @property
    def backend(self):
        """The storage/compute backend holding the stored items."""
        return self._backend

    def _check_native(self, matrix, what):
        """Refuse a native matrix of the wrong width or dtype."""
        expected = self._backend.from_bipolar(np.ones((0, self.dim), dtype=np.int8))
        if matrix.ndim != 2 or matrix.shape[1:] != expected.shape[1:]:
            raise ValueError(
                f"expected a native (n, {expected.shape[1]}) {what}, got {matrix.shape}"
            )
        if matrix.dtype != expected.dtype:
            raise ValueError(
                f"expected a {expected.dtype} native {what}, got {matrix.dtype}"
            )

    def _take(self, matrix, what="store"):
        """Check a native matrix; an empty memory adopts it without a copy
        (a memmap stays lazy), any other appends one copy of it."""
        matrix = np.asanyarray(matrix)
        self._check_native(matrix, what)
        if self._rows:
            self._append_rows(np.array(matrix))
            return
        if matrix.flags.writeable:
            # Freeze a zero-copy view, not the caller's array in place.
            matrix = matrix.view()
            matrix.setflags(write=False)
        self._matrix, self._rows = matrix, matrix.shape[0]

    def _check_rows(self, vectors, expected_shape):
        """Validate shape and bipolarity before any conversion/commit."""
        if vectors.shape != expected_shape:
            raise ValueError(f"expected shape {expected_shape}, got {vectors.shape}")
        if not is_bipolar(vectors):
            raise ValueError(
                "stored vectors must be bipolar (+1/-1); the dense backend would "
                "otherwise silently truncate components to int8"
            )

    def _append_rows(self, rows):
        """Commit one validated block of native ``rows``."""
        self._pending.append(rows)
        self._rows += rows.shape[0]

    def __len__(self):
        return self._rows - len(self._dead)  # live rows

    # -- the dead-row mask -------------------------------------------------- #

    def _dead_rows(self):
        """Sorted int64 physical indices of the dead rows, or ``None``."""
        if not self._dead:
            return None
        if self._dead_sorted is None:
            self._dead_sorted = np.fromiter(
                sorted(self._dead), dtype=np.int64, count=len(self._dead))
        return self._dead_sorted

    def _live_mask(self):
        """``(physical rows,)`` bool mask of the live rows."""
        keep = np.ones(self._rows, dtype=bool)
        if self._dead:
            keep[self._dead_rows()] = False
        return keep

    def _kill(self, rows):
        """Flag live physical ``rows`` dead: O(len(rows)), nothing moves."""
        self._dead.update(rows)
        self._dead_sorted = None

    def _fold_due(self):
        """The one fold rule: dead rows have reached the live rows."""
        return bool(self._dead) and len(self._dead) >= len(self)

    def _fold(self):
        """Gather the live rows into a fresh contiguous store.

        Returns the ``(old physical rows,)`` keep mask so an owner that
        indexes physical rows (labels, or the sharded store's order
        arrays and bound groups) can follow.
        """
        keep = self._live_mask()
        matrix = np.ascontiguousarray(np.asarray(self._native_matrix())[keep])
        matrix.setflags(write=False)
        self._matrix, self._rows = matrix, matrix.shape[0]
        self._dead = set()
        self._dead_sorted = None
        return keep

    def _native_matrix(self):
        """The contiguous ``(physical rows, ·)`` backend-native store.

        Pending rows fold into the cached matrix here; afterwards the
        matrix is the only resident copy of the stored vectors.
        """
        if self._matrix is None or self._pending:
            parts = [] if self._matrix is None else [self._matrix]
            parts.extend(self._pending)
            if parts:
                matrix = parts[0] if len(parts) == 1 else np.concatenate(parts)
                self._matrix = np.ascontiguousarray(matrix)
            else:
                self._matrix = self._backend.from_bipolar(
                    np.ones((0, self.dim), dtype=np.int8)
                )
            self._pending.clear()
            self._matrix.setflags(write=False)
        return self._matrix

    def native_matrix(self):
        """The read-only backend-native store, one row per *physical* row.

        Dead rows not yet folded out are still in it (``len(self)``
        counts only the live ones); the persistence layer folds them
        before it writes a store.
        """
        return self._native_matrix()

    def matrix(self):
        """The live stored vectors as a read-only ``(n, dim)`` bipolar array."""
        native = self._native_matrix()
        if self._dead:
            native = native[self._live_mask()]
        if self._backend.name == "dense":
            native.setflags(write=False)
            return native
        dense = self._backend.to_bipolar(native)
        dense.setflags(write=False)
        return dense

    def measured_bytes(self):
        """Actual bytes of the contiguous native store (dead rows included)."""
        return self._backend.nbytes(self._native_matrix())

    # -- queries ---------------------------------------------------------- #

    def _pack_query(self, query):
        if query.shape[-1] != self.dim:
            raise ValueError(f"expected last axis {self.dim}, got {query.shape}")
        return self._backend.from_bipolar(
            require_bipolar(query, "the packed backend"), checked=True)

    #: target size (bytes) of the float64 store-conversion temporary
    _DENSE_BLOCK_BYTES = 4 << 20

    def _dense_similarities(self, queries):
        """Dense cosine with the matmul *before* normalization.

        The raw ``queries @ storeᵀ`` dot of float64 against bipolar rows
        is exact for integer-valued queries (every partial sum is an
        exactly-representable integer), and the stored rows all have norm
        ``√d``, so each similarity entry is a deterministic elementwise
        function of its own row — bit-identical no matter how the store
        is sharded. (:func:`repro.hdc.ops.cosine_similarity` normalizes
        first, which loses that property.)

        The int8 store converts to float64 in bounded row blocks, so the
        conversion temporary stays ~4 MB however large the store grows —
        the same discipline as the backends' blocked Hamming kernels.
        """
        queries = queries.astype(np.float64)
        norms = np.linalg.norm(queries, axis=1)
        if (norms == 0).any():
            raise ValueError("cosine similarity undefined for zero vectors")
        native = self._native_matrix()
        dots = np.empty((queries.shape[0], native.shape[0]), dtype=np.float64)
        block = max(1, self._DENSE_BLOCK_BYTES // (8 * max(1, self.dim)))
        for start in range(0, native.shape[0], block):
            stop = start + block
            dots[:, start:stop] = queries @ native[start:stop].astype(np.float64).T
        return dots / (norms[:, None] * np.sqrt(self.dim))

    def _single(self, query):
        """One ``(dim,)`` query as a ``(1, dim)`` batch (validated)."""
        query = np.asarray(query)
        if query.ndim != 1:
            raise ValueError(f"expected a ({self.dim},) query, got {query.shape}")
        if query.shape[0] != self.dim:
            raise ValueError(f"expected last axis {self.dim}, got {query.shape}")
        return query[None]

    def similarities(self, query):
        """Cosine similarity of ``query`` against every stored item.

        Dense backend: any real-valued query (float cosine). Packed
        backend: bipolar queries only (popcount cosine — same values as
        dense for bipolar data). Computed through the same kernel as
        :meth:`similarities_batch`, so single and batched queries score
        bit-identically.
        """
        return self.similarities_batch(self._single(query))[0]

    def similarities_batch(self, queries):
        """Cosine similarities of ``(B, dim)`` queries: one ``(B, n)`` call."""
        return self.similarities_native(self._query_form(queries))

    def similarities_native(self, native_queries):
        """Cosine similarities ``(B, n)`` of queries already in the form the
        kernels score (:meth:`_query_form`), over the live rows.

        The sharded store's per-shard similarities primitive: its
        controller checks and converts the query block once for every
        shard, as it does for :meth:`topk_native`.
        """
        sims = self._scores(native_queries)
        dead = self._dead_rows()
        return sims if dead is None else np.delete(sims, dead, axis=1)

    def _check_batch(self, queries):
        """A non-empty memory and a ``(B, dim)`` query block."""
        if not len(self):
            raise LookupError("item memory is empty")
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"expected (B, {self.dim}) queries, got {queries.shape}")
        return queries

    def _query_form(self, queries):
        """A checked ``(B, dim)`` query block in the form the kernels
        score: as given on the dense backend (any real values), packed
        words on the packed one (bipolar only)."""
        queries = self._check_batch(queries)
        if self._backend.name == "dense":
            return queries
        return self._pack_query(queries)

    def _scores(self, native_queries):
        """``(B, physical rows)`` cosine similarities, dead rows included."""
        if self._backend.name == "dense":
            return self._dense_similarities(native_queries)
        return self._backend.cosine(native_queries, self._native_matrix())

    def _masked_similarities(self, queries):
        """``(B, physical rows)`` similarities, every dead column ``-inf``.

        The shared kernel of every float query surface: a dead row can
        never win an ``argmax`` or a descending top-``k`` over the live
        rows, and ranking by physical index is ranking by insertion.
        """
        sims = self._scores(self._query_form(queries))
        dead = self._dead_rows()
        if dead is not None:
            sims[:, dead] = -np.inf
        return sims

    def distances_batch(self, queries):
        """Integer Hamming distances of bipolar queries: ``(B, n)`` int64.

        The integer-domain twin of :meth:`similarities_batch` (the
        sharded store's merge converts such distances to the same float
        similarities). Defined for bipolar queries only (the distance is
        the component disagreement count); cosine similarity is a
        monotone decreasing function of it, so rankings in either domain
        agree.
        """
        queries = self._check_batch(queries)
        if not is_bipolar(queries):
            raise ValueError(
                "integer Hamming distances are defined for bipolar (+1/-1) "
                "queries only; use similarities_batch for real-valued queries"
            )
        distances = self._backend.hamming(self._backend.from_bipolar(queries),
                                          self._native_matrix())
        dead = self._dead_rows()
        return distances if dead is None else np.delete(distances, dead, axis=1)

    def topk_native(self, native_queries, k, bounds=None):
        """Exact integer top-``k``: ``(B, k')`` distances + local row indices.

        The sharded store's per-shard selection primitive: delegates to
        the backend's :meth:`~repro.hdc.backend.HDCBackend.hamming_topk`
        (packed: early-exit prefix pruning; dense: full reference
        selection) over the contiguous native store. Rows are ranked by
        distance ascending with exact ties resolved to the smaller row
        index — insertion order, the shared tie-break contract. Row
        indices are *physical*; dead rows come back only as sentinel rows
        (distance ``dim + 1``, index ``-1``), and so may candidates the
        caller's ``bounds`` permits the backend to prune (distance
        strictly above the bound).
        """
        if not len(self):
            raise LookupError("item memory is empty")
        return self._backend.hamming_topk(
            native_queries, self._native_matrix(), k, bounds=bounds,
            dead=self._dead_rows(),
        )


class ItemMemory(RowMemory):
    """Associative memory over labelled hypervectors: a :class:`RowMemory`
    (same parameters) plus one label per physical row (dead rows keep
    theirs until a fold) and the live label → physical row index."""

    def __init__(self, dim, backend="dense"):
        super().__init__(dim, backend=backend)
        self._labels = []
        self._label_index = {}

    def add(self, label, vector):
        """Store ``vector`` under ``label``.

        Raises ``ValueError`` on a duplicate label, on a shape other than
        ``(dim,)``, and on non-bipolar components (which the dense
        backend would otherwise truncate silently).
        """
        vector = np.asarray(vector)
        self._check_rows(vector, (self.dim,))
        if label in self._label_index:
            raise ValueError(f"label {label!r} already stored")
        # Convert before touching any state: a failed conversion must
        # leave the memory exactly as it was.
        self._append([label], self._backend.from_bipolar(vector[None], checked=True))

    def add_many(self, labels, vectors):
        """Store a stack of vectors under corresponding labels.

        Atomic like :meth:`add`: every label and vector is validated and
        converted (in one batched call) before any state changes, so a
        failure leaves the memory untouched. Raises ``ValueError`` on
        label/vector count mismatch, duplicate labels (within the batch
        or against the store), a shape other than ``(len(labels), dim)``,
        and non-bipolar components.
        """
        labels = list(labels)
        vectors = np.asarray(vectors)
        if len(labels) != len(vectors):
            raise ValueError(
                f"labels and vectors must align: {len(labels)} labels, "
                f"{len(vectors)} vectors"
            )
        if not labels:
            return
        if vectors.ndim != 2:
            raise ValueError(
                f"expected a 2-D ({len(labels)}, {self.dim}) vector stack, "
                f"got {vectors.ndim}-D {vectors.shape}"
            )
        self._check_rows(vectors, (len(labels), self.dim))
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in add_many")
        for label in labels:
            if label in self._label_index:
                raise ValueError(f"label {label!r} already stored")
        self._append(labels, self._backend.from_bipolar(vectors, checked=True))

    def _append(self, labels, rows):
        """Commit validated ``labels`` and their block of native ``rows``."""
        start = self._rows
        self._label_index.update(zip(labels, range(start, start + len(labels))))
        self._labels.extend(labels)
        self._append_rows(rows)

    def __contains__(self, label):
        return label in self._label_index

    @property
    def labels(self):
        """Every live label, in insertion order."""
        if not self._dead:
            return tuple(self._labels)
        return tuple(compress(self._labels, self._live_mask()))

    def index_of(self, label):
        """Rank of ``label`` among the live rows, in insertion order."""
        row = self._label_index[label]
        dead = self._dead_rows()
        return row if dead is None else row - int(np.searchsorted(dead, row))

    def _fold(self):
        keep = super()._fold()
        self._labels = list(compress(self._labels, keep))
        self._label_index = {label: i for i, label in enumerate(self._labels)}
        return keep

    def remove_many(self, labels):
        """Delete stored rows by label: O(batch), nothing moves.

        The whole batch is validated first (duplicates within the batch,
        membership), so a rejected batch leaves the memory untouched. On
        success each row is flagged in the dead-row mask and drops out
        of every query, so answers over the survivors are bit-identical
        to a memory that never held the removed rows. Once the dead rows
        reach the live rows, one gather folds them all out of the store.
        """
        labels = list(labels)
        if not labels:
            return
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in remove_many")
        for label in labels:
            if label not in self._label_index:
                raise ValueError(f"label {label!r} is not stored")
        self._kill([self._label_index.pop(label) for label in labels])
        if self._fold_due():
            self._fold()

    def cleanup(self, query):
        """Return ``(label, similarity)`` of the best-matching stored item.

        Exact similarity ties resolve to the earliest-inserted label.
        """
        labels, sims = self.cleanup_batch(self._single(query))
        return labels[0], float(sims[0])

    def cleanup_batch(self, queries):
        """Batched cleanup: ``(B, dim)`` queries → ``(labels, similarities)``.

        Returns a list of ``B`` labels and the matching ``(B,)`` float
        similarity array, computed in one pairwise similarity call.
        Exact similarity ties resolve to the earliest-inserted label
        (``argmax`` returns the first maximum).
        """
        sims = self._masked_similarities(queries)
        best = np.argmax(sims, axis=1)
        labels = [self._labels[i] for i in best]
        return labels, sims[np.arange(len(best)), best]

    def _topk_order(self, sims, k):
        """Top-``k`` row indices: similarity descending, ties by insertion.

        Delegates to the retrieval stack's single tie-break
        implementation (:func:`repro.hdc.ordering.topk_order` on the
        negated similarities) — the same function the sharded store's
        fan-out merge ranks with, so the two paths cannot drift. ``k``
        is capped at the live rows, so a dead (``-inf``) column is never
        selected.
        """
        return topk_order(-np.asarray(sims), min(k, len(self)))

    def topk(self, query, k=5):
        """Return the ``k`` best ``(label, similarity)`` pairs, best first.

        Ordering contract: similarity descending; exact ties in insertion
        order (earliest-stored label first). ``k`` larger than the store
        returns every item.
        """
        return self.topk_batch(self._single(query), k=k)[0]

    def topk_batch(self, queries, k=5):
        """Batched :meth:`topk`: ``(B, dim)`` queries → ``B`` ranked lists.

        Returns a list of ``B`` lists of ``(label, similarity)`` pairs,
        each best-first under the same ordering contract as :meth:`topk`,
        from one pairwise similarity call.
        """
        sims = self._masked_similarities(queries)
        order = self._topk_order(sims, k)
        return [
            [(self._labels[i], float(row_sims[i])) for i in row_order]
            for row_sims, row_order in zip(sims, order)
        ]
