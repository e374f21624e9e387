"""``AssociativeStore`` — the retrieval facade consumers talk to.

One object, one query surface, one kind of store: every layout is a
:class:`~repro.hdc.store.sharded.ShardedItemMemory` — ``shards=1``
(default) is a one-shard one, whose fan-out runs its lone shard with no
bounds and no merge — with decisions guaranteed identical to the
reference :class:`~repro.hdc.item_memory.ItemMemory` by the agreement
suite.

The facade is also a small query planner: batched queries are executed
in blocks of ``query_block`` rows, so the per-call ``(B, n_shard)``
similarity temporary stays bounded no matter how large a batch a caller
throws at it. Results are streams of per-query answers, so block
boundaries are invisible. Queries must be bipolar (a bare dense
:class:`~repro.hdc.item_memory.ItemMemory` scores others).

``save``/``open`` delegate to :mod:`repro.hdc.store.persistence`:
``open`` memmaps the shard files, so opening costs only the label index
(O(labels), ~0.3 s at one million items) and the vector data pages in
on demand. A store opened from a path stays *attached* to it:
``add``/``add_many`` journal the new rows as per-shard segment files
(the append story — reopen, append, query), and :meth:`compact` folds
the journal back into contiguous shard files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .persistence import (
    _validate_ingest,
    append_rows,
    delete_rows,
    open_store,
    save_store,
    upsert_rows,
)
from .sharded import DEFAULT_CHUNK_SIZE, ShardedItemMemory

__all__ = ["AssociativeStore"]


class AssociativeStore:
    """Facade over a sharded associative memory (one shard by default).

    **Determinism contract**: every query decision — labels, ranks, and
    float similarity values — is bit-identical across all construction
    choices (``shards``, ``routing``, ``workers``, ``executor``,
    ``query_block``) and across the persistence lifecycle
    (save → open → append → compact), on both backends; exact similarity
    ties resolve to the earliest-inserted label. Layout and parallelism
    tune cost, never answers (pinned by the agreement suites under
    ``tests/hdc/store/``).

    **Thread/process-safety**: same single-controller rule as the
    memories it wraps — concurrent read-only queries are safe, but
    mutation (``add``/``add_many``/``delete``/``upsert``/``save``/
    ``compact``) must not race queries or other mutations; a persisted
    store directory must have
    at most one *writing* handle at a time (writers commit via atomic
    manifest swaps, so concurrent readers in other processes stay
    consistent).

    Parameters
    ----------
    dim:
        Hypervector dimensionality.
    backend:
        HDC storage backend (``"dense"`` / ``"packed"``).
    shards:
        Shard count (``1``: one shard, no pruning bounds, no merge).
    routing:
        Shard routing policy (moot for one shard).
    query_block:
        Max queries scored per underlying call — bounds the similarity
        temporary at ``query_block × largest-shard`` entries.
    workers:
        Pool width of the sharded query fan-out: an int ≥ 1, or the
        default (``None``, or ``"auto"``) — every core this process may
        run on. Never changes decisions, only wall-clock. One shard's
        queries split across the width too; a batch that makes one slice
        runs on the calling thread.
    executor:
        Fan-out executor kind: ``"thread"`` (default) or ``"process"``
        (true multi-core; persisted shards re-open via ``np.memmap``
        inside each worker, in-memory shards spill to a temp store
        directory on the first process query). Never changes decisions.
    """

    def __init__(self, dim, backend="dense", shards=1, routing="hash",
                 query_block=1024, workers=None, executor="thread"):
        if query_block < 1:
            raise ValueError("query_block must be >= 1")
        self._memory = ShardedItemMemory(
            dim, num_shards=shards, backend=backend, routing=routing,
            workers=workers, executor=executor,
        )
        self._path = None
        self._auto_compact_segments = None
        self.query_block = int(query_block)

    @classmethod
    def _wrap(cls, memory, query_block=1024):
        """Wrap an existing memory (used by :meth:`open`)."""
        if query_block < 1:
            raise ValueError("query_block must be >= 1")
        store = cls.__new__(cls)
        store._memory = memory
        store._path = None
        store._auto_compact_segments = None
        store.query_block = int(query_block)
        return store

    @classmethod
    def from_vectors(cls, labels, vectors, backend="dense", shards=1,
                     routing="hash", query_block=1024, workers=None,
                     executor="thread", chunk_size=DEFAULT_CHUNK_SIZE):
        """Build a store directly from a labelled ``(n, dim)`` stack."""
        vectors = np.asarray(vectors)
        if vectors.ndim != 2:
            raise ValueError(f"expected an (n, dim) stack, got {vectors.shape}")
        store = cls(vectors.shape[1], backend=backend, shards=shards,
                    routing=routing, query_block=query_block, workers=workers,
                    executor=executor)
        store.add_many(labels, vectors, chunk_size=chunk_size)
        return store

    @classmethod
    def open(cls, path, mmap=True, query_block=1024, workers=None,
             executor="thread", auto_compact_segments=None):
        """Reopen a saved store (lazily memmapped by default).

        The returned store is attached to ``path``: subsequent
        ``add``/``add_many`` calls journal the rows to per-shard segment
        files and :meth:`compact` rewrites contiguous shards.
        ``workers``/``executor`` set the fan-out.
        ``auto_compact_segments=N`` makes the
        handle :meth:`compact` itself whenever an append leaves the
        journal holding more than ``N`` segment files — bounded journal
        growth without explicit compaction calls.
        """
        if auto_compact_segments is not None and int(auto_compact_segments) < 1:
            raise ValueError("auto_compact_segments must be >= 1 (or None)")
        memory = open_store(path, mmap=mmap)
        memory.executor = executor
        memory.workers = workers
        store = cls._wrap(memory, query_block=query_block)
        store._path = Path(path)
        if auto_compact_segments is not None:
            store._auto_compact_segments = int(auto_compact_segments)
        return store

    # -- introspection ----------------------------------------------------- #

    @property
    def memory(self):
        """The underlying :class:`ShardedItemMemory`."""
        return self._memory

    @property
    def dim(self):
        return self._memory.dim

    @property
    def backend_name(self):
        return self._memory.backend.name

    @property
    def num_shards(self):
        return self._memory.num_shards

    @property
    def routing(self):
        return self._memory.routing

    @property
    def workers(self):
        """Fan-out pool width."""
        return self._memory.workers

    @property
    def executor(self):
        """Fan-out executor kind (``"thread"`` / ``"process"``)."""
        return self._memory.executor

    @property
    def auto_compact_segments(self):
        """Journal segment-count threshold for automatic compaction."""
        return self._auto_compact_segments

    @property
    def pruning_stats(self):
        """Shard-skip counters of the bounded fan-out.

        **Cumulative** across every query since construction (or the
        last :meth:`reset_pruning_stats`) — lifetime telemetry, not
        per-query numbers. See
        :attr:`ShardedItemMemory.pruning_stats
        <repro.hdc.store.sharded.ShardedItemMemory.pruning_stats>` for
        the per-layer key breakdown (``skipped_minus`` /
        ``skipped_centroid``). A one-shard store counts one task per
        batch and never skips.
        """
        return self._memory.pruning_stats

    def reset_pruning_stats(self):
        """Zero the cumulative pruning counters; returns the final snapshot.

        The documented way to scope :attr:`pruning_stats` to a workload:
        reset, run the queries, read. Never changes decisions.
        """
        return self._memory.reset_pruning_stats()

    @property
    def path(self):
        """The attached persistence directory (``None`` for in-memory stores)."""
        return self._path

    @property
    def labels(self):
        return self._memory.labels

    def __len__(self):
        return len(self._memory)

    def __contains__(self, label):
        return label in self._memory

    def index_of(self, label):
        return self._memory.index_of(label)

    def measured_bytes(self):
        """Actual resident bytes of the native shard stores."""
        return self._memory.measured_bytes()

    def stats(self):
        """Summary dict for reports: items, layout, resident bytes."""
        return {
            "items": len(self),
            "dim": self.dim,
            "backend": self.backend_name,
            "shards": self.num_shards,
            "routing": self.routing,
            "workers": self.workers,
            "executor": self.executor,
            "bytes": self.measured_bytes(),
        }

    def __repr__(self):
        return (
            f"AssociativeStore(n={len(self)}, dim={self.dim}, "
            f"shards={self.num_shards}, backend={self.backend_name!r})"
        )

    # -- ingestion --------------------------------------------------------- #

    def add(self, label, vector):
        """Store one labelled hypervector (journaled when persisted)."""
        if self._path is not None:
            self.add_many([label], np.asarray(vector)[None])
            return
        self._memory.add(label, vector)

    def add_many(self, labels, vectors, chunk_size=DEFAULT_CHUNK_SIZE):
        """Stream labelled vectors in, ``chunk_size`` rows at a time.

        ``vectors`` only needs ``len()`` and row slicing (an ``np.memmap``
        streams through without materializing). On a store opened from a
        path, the batch is additionally journaled to per-shard segment
        files and committed by a manifest rewrite — reopen, append,
        query is the supported lifecycle (:meth:`compact` folds the
        journal back in).
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self._path is not None:
            append_rows(self._memory, self._path, labels, vectors,
                        chunk_size=chunk_size)
            self._maybe_auto_compact()
            return
        self._memory.add_many(labels, vectors, chunk_size=chunk_size)

    def delete(self, labels):
        """Remove labelled rows (tombstone-journaled when persisted).

        ``labels`` is a list (a single ``str``/``bytes`` label is
        accepted as a convenience). Deleted labels become unreachable
        from every query surface immediately; decisions over the
        surviving items are bit-identical to a store freshly built
        without the deleted rows. On a persisted store the commit writes
        one tombstone delta sidecar plus the constant-size manifest swap
        (format v5); :meth:`compact` later folds the tombstones out.
        Unknown or duplicated labels reject the whole batch up front.
        """
        if isinstance(labels, (str, bytes)):
            labels = [labels]
        labels = list(labels)
        if self._path is not None:
            delete_rows(self._memory, self._path, labels)
            return
        self._memory.delete_many(labels)

    def upsert(self, labels, vectors, chunk_size=DEFAULT_CHUNK_SIZE):
        """Insert-or-replace labelled rows (journaled when persisted).

        Labels already stored are replaced; new labels are enrolled. A
        replaced label re-enters at the *end* of the insertion order —
        an upsert refreshes recency, so a re-enrolled duplicate loses
        exact-similarity ties it used to win. On a persisted store the
        whole batch commits as one delta (tombstones for the replaced
        rows + one replacement segment per touched shard, each carrying
        its own exact bounds group). The batch is validated up front; a
        rejected batch touches neither RAM nor disk.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self._path is not None:
            upsert_rows(self._memory, self._path, labels, vectors,
                        chunk_size=chunk_size)
            self._maybe_auto_compact()
            return
        labels = list(labels)
        if not labels:
            return
        memory = self._memory
        vectors = np.asarray(vectors)
        _validate_ingest(memory, labels, vectors, "upsert", allow_existing=True)
        self.delete([label for label in labels if label in memory])
        self.add_many(labels, vectors, chunk_size=chunk_size)

    # -- queries ----------------------------------------------------------- #

    def _blocks(self, queries):
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"expected (B, {self.dim}) queries, got {queries.shape}")
        for start in range(0, queries.shape[0], self.query_block):
            yield queries[start : start + self.query_block]

    def similarities(self, query):
        return self._memory.similarities_batch(np.asarray(query)[None])[0]

    def similarities_batch(self, queries):
        """Full ``(B, n)`` similarity matrix (unbounded — debugging aid)."""
        return self._memory.similarities_batch(queries)

    def cleanup(self, query):
        """Best ``(label, similarity)`` for one query."""
        return self._memory.cleanup(query)

    def cleanup_batch(self, queries):
        """Best match per query, executed in bounded query blocks.

        Block boundaries are invisible: answers (and tie-breaks — ties
        go to the earliest-inserted label) are bit-identical for any
        ``query_block``. Safe concurrently with other queries.
        """
        labels, sims = [], []
        for block in self._blocks(queries):
            block_labels, block_sims = self._memory.cleanup_batch(block)
            labels.extend(block_labels)
            sims.append(block_sims)
        return labels, np.concatenate(sims) if sims else np.empty(0)

    def topk(self, query, k=5):
        """Ranked ``(label, similarity)`` pairs for one query."""
        return self._memory.topk(query, k=k)

    def topk_batch(self, queries, k=5):
        """Ranked lists per query, executed in bounded query blocks.

        Ordering contract: similarity descending, exact ties by
        insertion order ascending; bit-identical for any ``query_block``
        and store layout. Safe concurrently with other queries.
        """
        out = []
        for block in self._blocks(queries):
            out.extend(self._memory.topk_batch(block, k=k))
        return out

    # -- persistence -------------------------------------------------------- #

    def _maybe_auto_compact(self):
        """Compact when the append journal exceeds the configured size.

        The auto-compaction policy of :meth:`open`'s
        ``auto_compact_segments=N``: counting actual ``shard_*.seg*.npy``
        files keeps the trigger exact across handles and generations.
        """
        limit = self._auto_compact_segments
        if limit is None:
            return
        segments = len(list(self._path.glob("shard_*.seg*.npy")))
        if segments > limit:
            self.compact()

    def save(self, path):
        """Write the store (contiguous shard matrices + manifest) to ``path``.

        Saving does not attach the in-memory store to ``path``; use
        :meth:`open` to get a journaling, appendable handle on the saved
        directory.
        """
        return save_store(self._memory, path)

    def compact(self):
        """Fold journaled append segments back into contiguous shard files.

        Rewrites every shard's full native matrix under a bumped
        manifest ``generation`` and deletes the segment journal, so the
        directory is again one lazily memmappable file per shard.
        Requires a store opened from a path. Returns the manifest path.
        """
        if self._path is None:
            raise ValueError(
                "compact() needs a persisted store; open it with "
                "AssociativeStore.open(path) first"
            )
        return save_store(self._memory, self._path)
