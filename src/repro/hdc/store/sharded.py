"""Sharded associative memory: N label-free row shards, one answer.

``ShardedItemMemory`` routes labels to shards (:mod:`.routing`), ingests
in streaming chunks, and answers batched cleanup / top-k queries by
fanning the query block across shards — sequentially, on a thread pool,
or on a process pool (``workers=`` / ``executor=``, see
:mod:`.parallel`; process workers re-open persisted shards via
``np.memmap``, and an in-memory store spills to a temp store directory
on its first process query) — and merging the per-shard partial
results. The fan-out is a list schedule: as many kernel calls as the
executor is wide (capped at the visible cores) stay in flight, and
each completion starts the next shard, so no worker idles while a
shard is left. The most promising shard (the seed) runs first, and it
and the last shard — each of which would otherwise run alone — split
their queries across the width. Every completed shard tightens a
shared k-th-best bound: a shard whose recorded bounds — the
minus-count interval *or* the geometric centroid + radius ball
(``d(q, x) >= max(|minus(q) − band|, d(q, centroid) − radius)``) —
provably cannot beat the bound of the moment it comes up is skipped
outright, and dispatched shards pass that bound into the kernels'
adaptive prefix-Hamming early exit. Per-shard scoring runs through
:class:`~repro.hdc.item_memory.RowMemory`'s blocked Hamming kernels, so
the peak temporary is bounded by the kernel tile, not the store — the
property that lets one process serve multi-million-item stores.
The shards hold rows, not labels: the one label index is the store's,
and a label's row is one ``searchsorted`` of its order per shard away.

The merge operates end-to-end in the **integer distance domain**: each
shard's partial is a ``(uint Hamming distance, global insertion index)``
pair per candidate, no per-shard float similarity row is materialized,
and only the final merged top-k converts to float similarity
(:func:`.parallel.distances_to_similarities` — the exact float
expressions of the reference path). Queries must be bipolar on both
backends: a real-valued query has no integer distance, so it is refused
(a bare dense :class:`~repro.hdc.item_memory.ItemMemory` scores one).

Decision contract (the agreement suite pins this): for any shard count,
any worker count, and either backend, every ``cleanup`` / ``topk``
decision is identical to a single :class:`ItemMemory` holding the same
items in the same insertion order. That holds because

- per-item distances/similarities are computed by the same kernels on
  the same rows (exact integer popcounts / dots, so shard layout cannot
  change a value),
- ties merge under the shared contract of
  :func:`repro.hdc.ordering.topk_order` — primary key ascending, then
  *global insertion order* ascending — which is exactly ``ItemMemory``'s
  first-maximum / stable-sort behaviour, and
- the merge ranks candidates by that key alone, never by which
  partial (or query slice of one) arrived first, so completion order
  cannot reorder a merge.

Global insertion orders are *physical*: strictly increasing, never
reused, with gaps where rows were deleted. A deleted row stays in its
shard, flagged in the shard's dead-row mask (every kernel skips it),
until the shard folds its dead rows out — at save/compact, or as soon
as they reach the shard's live rows. A handle attached to a store
directory holds exactly that directory's physical orders, so process
workers return orders as they read them; the orders are renumbered
densely only when save/compact rewrites the directory (or, for an
unattached store, when the dead orders reach the live ones). Ranking
by physical order is ranking by the dense survivor order, so the tie
contract above is unchanged.
"""

from __future__ import annotations

import tempfile
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from itertools import compress

import numpy as np

from ..item_memory import RowMemory, require_bipolar
from ..ordering import topk_order
from .parallel import (
    BoundTracker,
    ShardExecutor,
    distances_to_similarities,
    join_partials,
    process_shard_task,
    query_slices,
    run_shard_task,
)
from .routing import ROUTINGS, route_label

__all__ = ["ShardedItemMemory", "DEFAULT_CHUNK_SIZE", "validate_batch"]

#: rows ingested per streaming chunk in :meth:`ShardedItemMemory.add_many`
DEFAULT_CHUNK_SIZE = 65536


def validate_batch(labels, vectors, store, allow_existing=False):
    """Shared ``add_many`` batch validation for the store layer.

    Checks label/vector alignment, in-batch duplicates, and duplicates
    against ``store`` (anything supporting ``in``) — *before* anything
    commits, so ingestion semantics are identical on every layout.
    ``allow_existing=True`` (the upsert path) skips the against-store
    duplicate check: existing labels are replaced, not refused.
    Returns the labels as a list.
    """
    labels = list(labels)
    num_rows = vectors.shape[0] if hasattr(vectors, "shape") else len(vectors)
    if len(labels) != num_rows:
        raise ValueError(
            f"labels and vectors must align: {len(labels)} labels, "
            f"{num_rows} vectors"
        )
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels in add_many")
    if not allow_existing:
        for label in labels:
            if label in store:
                raise ValueError(f"label {label!r} already stored")
    return labels


class ShardedItemMemory:
    """Associative memory over labelled hypervectors, split into shards.

    **Determinism contract** (pinned by the agreement suites): every
    ``cleanup`` / ``topk`` / ``topk_batch`` decision — labels, ranks,
    and float similarity values — is bit-identical to a single
    :class:`~repro.hdc.item_memory.ItemMemory` holding the same items
    in the same insertion order, for any shard count, routing policy,
    worker count, executor kind, pruning toggle, and append history, on
    both backends. Exact similarity ties resolve to the earliest
    *globally* inserted label (:func:`repro.hdc.ordering.topk_order`).

    **Thread/process-safety**: queries may run internally on a thread
    or process pool, but the object itself is single-controller —
    concurrent *mutation* (``add``/``add_many``/``delete_many``/
    ``workers=``/``executor=``/``close``) from multiple threads is not
    supported,
    and a query concurrent with a mutation may observe a torn label
    map. Concurrent read-only queries from multiple threads are safe,
    including the :attr:`pruning_stats` counters: each query folds its
    counts in atomically under a lock (see :attr:`pruning_stats` for
    the exact contract), so concurrent batches never lose increments.
    Worker processes only ever read persisted shard files.

    Parameters
    ----------
    dim:
        Hypervector dimensionality.
    num_shards:
        Number of row shards (≥ 1).
    backend:
        HDC storage backend name shared by every shard
        (``"dense"`` / ``"packed"``).
    routing:
        Label-placement policy: ``"hash"`` (stable content hash) or
        ``"round_robin"`` (i-th item → shard ``i % N``). See
        :mod:`repro.hdc.store.routing`.
    workers:
        Pool width for the per-shard query fan-out: an int ≥ 1
        (``1`` = sequential for threads); the default (``None``, or
        ``"auto"``) is every core this process may run on. Worker count
        never changes decisions, only wall-clock.
    executor:
        Fan-out executor kind: ``"thread"`` (default; the packed
        kernel's blocked NumPy calls release the GIL long enough for
        shard calls to overlap) or ``"process"`` (a true multi-core pool —
        worker processes re-open persisted shards via ``np.memmap``;
        an in-memory store spills its shards to a temp store directory
        on the first process query, so labels must then be
        JSON-serializable). Executor choice never changes decisions.
    """

    #: minus-count bounds of a shard known to hold zero rows — any real
    #: row update (min/max merge) collapses it to that row's counts
    EMPTY_POP_BOUNDS = (2**62, -1)

    def __init__(self, dim, num_shards=4, backend="dense", routing="hash",
                 workers=None, executor="thread"):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if routing not in ROUTINGS:
            raise ValueError(f"unknown routing policy {routing!r}; available: {ROUTINGS}")
        self._shards = [RowMemory(dim, backend=backend) for _ in range(num_shards)]
        self.dim = self._shards[0].dim
        self.routing = routing
        self._slots = []  # label of every global order, dead slots included
        self._order = {}  # live label -> global (physical) insertion order
        # Global orders deleted since the orders were last renumbered,
        # plus their sorted array (built on first use).
        self._dead_orders = []
        self._dead_sorted = None
        # Per shard, the global order of every physical row (an int64
        # buffer valid up to the shard's row count; see _ingest_chunk).
        self._shard_orders = [np.empty(0, dtype=np.int64)] * num_shards
        # Bumped by every mutation; an attachment is trusted only at the
        # version it was recorded at.
        self._version = 0
        # Per-shard minus-count bounds (pruning): (min, max) when known
        # exactly, None when unknown (a pre-bounds persisted store).
        self._pop_bounds = [self.EMPTY_POP_BOUNDS] * num_shards
        # Per-shard geometric bounds (pruning layer 2): a backend-native
        # majority centroid row plus the exact max Hamming radius of the
        # shard's rows around it. None/None = unknown (a store persisted
        # before bounds existed) — such shards are never skipped on this
        # layer. The centroid is fixed between compactions; in-memory
        # ingest folds the radius exactly with respect to it (see
        # _note_geometry). Together with _pop_bounds this is the shard's
        # *base* bound group, covering every row that is not part of a
        # journaled segment group below.
        self._geo_centroid = [None] * num_shards
        self._geo_radius = [None] * num_shards
        # Per-shard journaled segment bound groups: each persisted
        # append pushes one {rows, live, pop, centroid, radius} group per
        # touched shard (exact for just that batch; ``rows`` physical,
        # ``live`` the survivors among them), and the planner
        # lower-bounds the shard by the min over its base + segment
        # groups — appends tighten pruning instead of widening one ball.
        # Compaction folds the groups back into fresh exact base bounds.
        self._segment_groups = [[] for _ in range(num_shards)]
        # While the persistence layer journals an append it suspends the
        # base-bound folds (_note_popcounts/_note_geometry) — the rows
        # are covered by the exact segment groups it pushes instead.
        self._suspend_bound_folds = False
        # Lazily built pruning-bound state (stacked centroid matrix +
        # per-group interval/ball tables); invalidated by every mutation
        # so a stale matrix can never produce a wrong bound.
        self._bound_state_cache = None
        #: skip shards whose bounds beat the current k-th best (settable;
        #: pruning never changes decisions, only work)
        self.prune = True
        self._pruning = dict.fromkeys(
            ("batches", "tasks", "skipped", "skipped_minus",
             "skipped_centroid", "bounded"), 0,
        )
        # Guards _pruning against concurrent batched queries: each
        # query accumulates privately and folds in under this lock.
        self._stats_lock = threading.Lock()
        # Persisted twin for process-executor workers: (path, generation,
        # version-at-attach). None until saved/opened/spilled.
        self._attachment = None
        self._spill_dir = None  # TemporaryDirectory owning a spilled twin
        self._executor = ShardExecutor(workers, kind=executor)

    @classmethod
    def _from_shards(cls, shards, orders, slots, label_orders, dead_orders,
                     routing, pop_bounds, geo_bounds, segment_bounds):
        """Rebuild a sharded memory around opened shards (persistence).

        ``shards`` (row memories) hold their physical rows, tombstoned
        ones flagged dead; ``orders`` gives each shard's ascending global
        physical orders, ``slots`` the label of every order,
        ``label_orders`` each live label's order and ``dead_orders`` the
        tombstoned ones.
        ``pop_bounds`` / ``geo_bounds`` are each shard's base-row
        minus-count interval and ``(native centroid, radius)`` ball
        (``None``: unknown, never skipped on), and ``segment_bounds``
        one ``(rows, pop, geo)`` group per journaled segment, covering
        the shard's last physical rows in order. A shard whose dead rows
        reach its live rows folds them out here.
        """
        memory = cls(shards[0].dim, num_shards=len(shards),
                     backend=shards[0].backend.name, routing=routing)
        memory._shards = list(shards)
        for index, shard in enumerate(shards):
            memory._pop_bounds[index] = (
                pop_bounds[index] if len(shard) else cls.EMPTY_POP_BOUNDS)
            if geo_bounds[index] is not None:
                memory._geo_centroid[index] = geo_bounds[index][0]
                memory._geo_radius[index] = geo_bounds[index][1]
            live = shard._live_mask()
            start = live.size - sum(group[0] for group in segment_bounds[index])
            for rows, pop, geo in segment_bounds[index]:
                memory._push_segment_bounds(
                    index, rows, pop, *(geo or (None, None)),
                    live=int(live[start:start + rows].sum()))
                start += rows
            memory._shard_orders[index] = orders[index]
        if sum(map(len, shards)) != len(label_orders):
            raise ValueError(
                f"{sum(map(len, shards))} live shard rows but "
                f"{len(label_orders)} live labels"
            )
        memory._slots, memory._order = list(slots), label_orders
        memory._dead_orders = list(dead_orders)
        for index, shard in enumerate(shards):
            if shard._fold_due():
                memory._fold_shard(index)
        return memory

    # -- introspection ----------------------------------------------------- #

    @property
    def backend(self):
        """The storage/compute backend (shared by every shard)."""
        return self._shards[0].backend

    @property
    def num_shards(self):
        return len(self._shards)

    @property
    def workers(self):
        """Pool width of the query fan-out (settable; kind preserved)."""
        return self._executor.workers

    @workers.setter
    def workers(self, value):
        kind = self._executor.kind
        self._executor.close()
        self._executor = ShardExecutor(value, kind=kind)

    @property
    def executor(self):
        """Fan-out executor kind, ``"thread"`` / ``"process"`` (settable)."""
        return self._executor.kind

    @executor.setter
    def executor(self, kind):
        workers = self._executor.workers
        self._executor.close()
        self._executor = ShardExecutor(workers, kind=kind)

    def close(self):
        """Shut the executor pool down and drop any spilled twin directory."""
        self._executor.close()
        spill, self._spill_dir = self._spill_dir, None
        if spill is not None:
            self._attachment = None
            spill.cleanup()

    @property
    def pruning_stats(self):
        """Shard-skip counters of the bounded fan-out, **cumulative**.

        Counters accumulate across every query since construction (or
        the last :meth:`reset_pruning_stats`) — they are lifetime
        telemetry, not per-query numbers; snapshot before/after a query
        block or call :meth:`reset_pruning_stats` to measure one
        workload. Keys:

        - ``batches`` — query batches the bounded fan-out executed;
        - ``tasks`` — shard queries the fan-out considered;
        - ``skipped`` — shards answered purely from their persisted
          bounds (the kernel never ran), split by the bound layer that
          proved the skip: ``skipped_minus`` (the minus-count interval
          alone sufficed) + ``skipped_centroid`` (the centroid + radius
          bound was needed);
        - ``bounded`` — shards dispatched carrying a finite k-th-best
          bound into their kernel's early-exit schedule;
        - ``skip_rate`` — ``skipped / tasks`` (derived).

        With more than one worker, ``skipped`` (and so ``bounded``) can
        depend on the order in which shards complete: each shard is
        tested against the bound of the moment it comes up, and that
        moment depends on which kernels have finished. Only what the
        seed shard alone proves is fixed, since its query slices all
        finish before any other shard is tested. The counters are
        telemetry; decisions never move with them.

        **Thread-safety contract** (pinned by the concurrent suite in
        ``tests/hdc/store/test_parallel.py``): each batched query
        accumulates its counts privately and folds them in *atomically,
        once, at batch end* under an internal lock — per-query
        isolation. Two batches racing through the same memory (direct
        callers on several threads; ``StoreServer`` itself runs one
        batch at a time) therefore never lose increments, and any read
        observes a consistent state in which every completed batch is
        counted exactly once (a batch still in flight is not counted
        yet). Decisions never depend on these values.
        """
        with self._stats_lock:
            stats = dict(self._pruning)
        stats["skip_rate"] = (
            stats["skipped"] / stats["tasks"] if stats["tasks"] else 0.0
        )
        return stats

    def reset_pruning_stats(self):
        """Zero the cumulative pruning counters; returns the final snapshot.

        The documented way to scope :attr:`pruning_stats` to a workload:
        reset, run the queries, read. The returned dict is the pre-reset
        snapshot (including ``skip_rate``), so callers can log the old
        epoch while starting a new one. Never changes decisions.
        """
        with self._stats_lock:
            stats = dict(self._pruning)
            self._pruning = dict.fromkeys(self._pruning, 0)
        stats["skip_rate"] = (
            stats["skipped"] / stats["tasks"] if stats["tasks"] else 0.0
        )
        return stats

    @property
    def shards(self):
        """The label-free :class:`~repro.hdc.item_memory.RowMemory` shards."""
        return tuple(self._shards)

    @property
    def labels(self):
        """Every stored label, in global insertion order."""
        if not self._dead_orders:
            return tuple(self._slots)
        live = np.ones(len(self._slots), dtype=bool)
        live[self._dead_order_array()] = False
        return tuple(compress(self._slots, live))

    @property
    def shard_sizes(self):
        return tuple(len(shard) for shard in self._shards)

    def shard_of(self, label):
        """Shard index holding ``label``."""
        return self._locate([self._order[label]])[0][0]

    def _locate(self, orders):
        """``(shard, batch positions, physical rows)`` per shard holding any of
        the live global ``orders``: one ``searchsorted`` per shard."""
        orders = np.asarray(orders, dtype=np.int64)
        found = []
        for index in range(self.num_shards):
            held = self._orders_of(index)
            if not held.size:
                continue
            rows = np.searchsorted(held, orders).clip(max=held.size - 1)
            hit = np.flatnonzero(held[rows] == orders)
            if hit.size:
                found.append((index, hit, rows[hit]))
        return found

    def index_of(self, label):
        """Rank of ``label`` in global insertion order among the survivors."""
        order = self._order[label]
        dead = self._dead_order_array()
        return order if dead is None else order - int(np.searchsorted(dead, order))

    def _dead_order_array(self):
        """Sorted int64 array of the dead global orders, or ``None``."""
        if not self._dead_orders:
            return None
        if self._dead_sorted is None:
            self._dead_sorted = np.sort(
                np.asarray(self._dead_orders, dtype=np.int64))
        return self._dead_sorted

    def __len__(self):
        return len(self._order)

    def __contains__(self, label):
        return label in self._order

    def measured_bytes(self):
        """Actual bytes of all shards' contiguous native stores."""
        return sum(shard.measured_bytes() for shard in self._shards)

    def __repr__(self):
        return (
            f"ShardedItemMemory(n={len(self)}, dim={self.dim}, "
            f"shards={self.num_shards}, routing={self.routing!r}, "
            f"backend={self.backend.name!r}, workers={self.workers}, "
            f"executor={self.executor!r})"
        )

    # -- ingestion --------------------------------------------------------- #

    def add(self, label, vector):
        """Store ``vector`` under ``label`` in its routed shard.

        Deterministic placement (:mod:`.routing`) and atomic: a rejected
        vector (duplicate label, wrong shape, non-bipolar) leaves every
        map untouched. Not safe to call concurrently with queries or
        other mutations. Placement never changes decisions.
        """
        if label in self._order:
            raise ValueError(f"label {label!r} already stored")
        self._ingest_chunk([label], np.asarray(vector)[None])

    def _segment_rows(self, shard_index):
        """Physical rows of one shard covered by journaled segment groups."""
        return sum(group["rows"] for group in self._segment_groups[shard_index])

    def _push_segment_bounds(self, shard_index, rows, pop, centroid, radius,
                             live=None):
        """Append one journaled segment's exact bound group to a shard.

        Called by the persistence layer when an append commits: the
        group covers the shard's next ``rows`` physical rows (``live``
        of them alive, all by default) with its own minus-count
        interval (``pop``) and centroid + radius ball — ``None`` layers
        stay unknown (never skip on them). Invalidates the cached bound
        state.
        """
        self._segment_groups[shard_index].append({
            "rows": int(rows),
            "live": int(rows if live is None else live),
            "pop": None if pop is None else (int(pop[0]), int(pop[1])),
            "centroid": None if centroid is None else np.asarray(centroid),
            "radius": None if radius is None else int(radius),
        })
        self._invalidate_bound_state()

    def _invalidate_bound_state(self):
        """Drop the cached stacked-centroid/bound tables (any mutation)."""
        self._bound_state_cache = None

    def _note_popcounts(self, shard_index, rows):
        """Fold committed native rows into one shard's *base* minus-count
        bounds (skipped while the persistence layer journals an append —
        those rows get their own exact segment group instead)."""
        if self._suspend_bound_folds:
            return
        bounds = self._pop_bounds[shard_index]
        if bounds is None:
            return  # unknown base rows (pre-bounds store) stay unknown
        counts = self.backend.minus_counts(rows)
        self._pop_bounds[shard_index] = (
            min(bounds[0], int(counts.min())),
            max(bounds[1], int(counts.max())),
        )

    def _note_geometry(self, shard_index, rows):
        """Fold committed native rows into one shard's *base* centroid +
        radius.

        Called *after* the rows landed in the shard. The centroid is
        established exactly once per base group — the majority vote of
        the first batch that *is* the whole base group — and stays fixed
        until a compaction recomputes it from the full matrix
        (persistence layer); the radius is folded as the exact max
        Hamming distance of every committed row to that fixed centroid.
        Any fixed centroid keeps the lower bound
        ``max(0, d(q, c) − radius)`` strict, so freshness of the
        majority vote affects only tightness, never correctness. A shard
        whose base rows predate bounds tracking (an opened pre-bounds
        store) stays unknown until the next compact. Skipped while the
        persistence layer journals an append (segment groups cover those
        rows).
        """
        if self._suspend_bound_folds:
            return
        centroid = self._geo_centroid[shard_index]
        if centroid is None:
            base_rows = (
                self._shards[shard_index]._rows - self._segment_rows(shard_index)
            )
            if base_rows != rows.shape[0]:
                return  # unknown base rows (pre-bounds store) stay unknown
            counts = self.backend.column_minus_counts(rows)
            centroid = self.backend.centroid(counts, rows.shape[0])
            self._geo_centroid[shard_index] = centroid
            self._geo_radius[shard_index] = None
        radius = int(np.max(np.atleast_1d(self.backend.hamming(centroid, rows))))
        previous = self._geo_radius[shard_index]
        self._geo_radius[shard_index] = (
            radius if previous is None else max(previous, radius)
        )

    def _orders_of(self, shard_index):
        """``(physical rows,)`` int64 global orders of one shard's rows."""
        return self._shard_orders[shard_index][:self._shards[shard_index]._rows]

    def _dense(self, orders):
        """Global orders with the dead-order gaps below them closed."""
        dead = self._dead_order_array()
        return orders if dead is None else orders - np.searchsorted(dead, orders)

    def add_many(self, labels, vectors, chunk_size=DEFAULT_CHUNK_SIZE):
        """Stream a stack of vectors into the shards, ``chunk_size`` rows at a time.

        ``vectors`` only needs ``len()`` and row slicing, so an
        ``np.memmap`` (or any lazily materialized array) streams through
        without ever being resident at once. Labels are validated for
        duplicates up front and every chunk is shape/bipolarity-checked
        before any of it commits, so a failure cannot leave the global
        label maps and the shards disagreeing; chunks before the failing
        one remain ingested (streaming semantics). Ingestion is
        single-controller: do not call concurrently with queries or
        other mutations. Chunk size never changes decisions — only the
        shard bound tightness an eventual compact() re-tightens.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        labels = validate_batch(labels, vectors, self)
        for start in range(0, len(labels), chunk_size):
            chunk_labels = labels[start : start + chunk_size]
            chunk = np.asarray(vectors[start : start + chunk_size])
            self._ingest_chunk(chunk_labels, chunk)

    def _ingest_chunk(self, chunk_labels, chunk, checked=False):
        """Route one chunk (its labels already checked for duplicates) to
        its shards and commit it.

        Each shard's slice is checked for bipolarity (unless ``checked``:
        the caller validated the whole batch up front) and converted to
        native rows once, and every slice is checked before any shard
        commits, so one non-bipolar row refuses the chunk. Each shard
        then takes its native rows as they are, and the bound folds read
        the same rows. (Slice by slice, the temporaries of the check and
        the conversion stay a shard's share of the chunk.) Returns the
        plan, one ``(shard, chunk offsets, native rows)`` per touched
        shard, so a journaled commit writes the rows the ingest packed.
        """
        base = len(self)  # routing runs on the dense survivor count
        if chunk.ndim != 2 or chunk.shape != (len(chunk_labels), self.dim):
            raise ValueError(
                f"expected a ({len(chunk_labels)}, {self.dim}) chunk, got {chunk.shape}"
            )
        groups = {}
        for offset, label in enumerate(chunk_labels):
            index = route_label(label, base + offset, self.num_shards, self.routing)
            groups.setdefault(index, []).append(offset)
        plan = []
        for index, offsets in groups.items():
            rows = chunk[offsets]
            if not checked:
                self._shards[index]._check_rows(rows, rows.shape)
            plan.append((index, offsets, self.backend.from_bipolar(rows, checked=True)))
        first = len(self._slots)
        for index, offsets, rows in plan:
            shard = self._shards[index]
            shard._append_rows(rows)
            self._note_popcounts(index, rows)
            self._note_geometry(index, rows)
            # The shard's order buffer grows by doubling, so ingest never
            # reallocates per row.
            stop = shard._rows
            start, buffer = stop - len(offsets), self._shard_orders[index]
            if stop > buffer.shape[0]:
                grown = np.empty(max(stop, 2 * buffer.shape[0]), dtype=np.int64)
                grown[:start] = buffer[:start]
                self._shard_orders[index] = buffer = grown
            buffer[start:stop] = first + np.asarray(offsets)
        self._slots.extend(chunk_labels)
        self._order.update(zip(chunk_labels, range(first, len(self._slots))))
        self._version += 1
        self._invalidate_bound_state()
        return plan

    def delete_many(self, labels):
        """Delete stored labels: O(batch), nothing else moves.

        The whole batch is validated first (in-batch duplicates,
        membership — a rejected batch touches nothing); then each row is
        flagged in its shard's dead-row mask and its global order left
        as a gap, so every later decision — including exact-tie
        resolution — is bit-identical to a memory freshly built from the
        surviving (label, vector) sequence. A shard folds its dead rows
        out once they reach its live rows; the global orders renumber
        once the dead orders reach the live ones. Pruning bounds stay as
        recorded: a deletion only shrinks a group, so they remain valid
        (possibly loose) supersets until a compact recomputes them, and
        a segment group whose rows all died drops out of the skip test.
        Single-controller like every other mutation.
        """
        self._delete(labels)
        if len(self._dead_orders) >= len(self._order):
            self._compact()

    def _delete(self, labels):
        """:meth:`delete_many` without the renumber: the journaled commit
        path, whose orders must stay the directory's."""
        labels = list(labels)
        if not labels:
            return
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in delete_many")
        for label in labels:
            if label not in self._order:
                raise ValueError(f"label {label!r} is not stored")
        orders = [self._order.pop(label) for label in labels]
        self._dead_orders.extend(orders)
        self._dead_sorted = None
        for index, _, rows in self._locate(orders):
            shard = self._shards[index]
            # Attribute each dying row to its bound group by physical
            # position: base rows come first, then the journaled segment
            # groups in push order.
            groups = self._segment_groups[index]
            if groups:
                boundaries = np.cumsum(
                    [shard._rows - self._segment_rows(index)]
                    + [group["rows"] for group in groups]
                )
                for gi in np.searchsorted(boundaries, rows, side="right"):
                    if gi >= 1:  # 0 = base group (bounds stay as supersets)
                        groups[int(gi) - 1]["live"] -= 1
            shard._kill(rows.tolist())
            if shard._fold_due():
                self._fold_shard(index)
        self._version += 1
        self._invalidate_bound_state()

    def _fold_shard(self, index):
        """Fold one shard's dead rows out; its orders and groups follow."""
        orders = self._orders_of(index)
        keep = self._shards[index]._fold()
        self._shard_orders[index] = orders[keep]
        for group in self._segment_groups[index]:
            group["rows"] = group["live"]
        self._invalidate_bound_state()

    def _compact(self):
        """Fold every dead row out and renumber the global orders densely
        (save/compact, and :meth:`delete_many` once the dead orders reach
        the live ones). Bumps the version: an attachment names old orders.
        """
        for index, shard in enumerate(self._shards):
            if shard._dead:
                self._fold_shard(index)
        if not self._dead_orders:
            return
        for index in range(self.num_shards):
            self._shard_orders[index] = self._dense(self._orders_of(index))
        self._slots = list(self.labels)
        self._order = {label: i for i, label in enumerate(self._slots)}
        self._dead_orders, self._dead_sorted = [], None
        self._version += 1

    def _adopt_orders(self, shard_orders, slots, label_orders, dead_orders):
        """Take a store directory's physical orders for the same live
        labels — what a journaled commit does after a cold manifest read
        (say, after the handle saved a dense copy elsewhere), so the
        orders it journals and those process workers return are the
        directory's: each shard's live orders, ascending (False, adopting
        nothing, when their counts are not this memory's shard sizes)."""
        self._compact()
        if [len(orders) for orders in shard_orders] != list(self.shard_sizes):
            return False
        self._shard_orders = [np.asarray(orders, dtype=np.int64)
                              for orders in shard_orders]
        self._slots, self._order = list(slots), dict(label_orders)
        self._dead_orders, self._dead_sorted = list(dead_orders), None
        self._version += 1
        return True

    # -- queries ----------------------------------------------------------- #

    def _check_queries(self, queries):
        """A non-empty store and a bipolar ``(B, dim)`` query block."""
        if not self._order:
            raise LookupError("sharded item memory is empty")
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"expected (B, {self.dim}) queries, got {queries.shape}")
        return require_bipolar(queries, "a sharded store")

    def _active_shards(self):
        """Indices of the non-empty shards.

        On the thread executor each one's pending rows fold into its
        matrix here, on the calling thread and one shard at a time:
        otherwise the first read after an append would re-stack whole
        shards inside the pool threads, several at once, each holding
        its old matrix and its new one.
        """
        active = [index for index, shard in enumerate(self._shards) if len(shard)]
        if self._executor.kind == "thread":
            for index in active:
                self._shards[index]._native_matrix()
        return active

    def _attach(self, path, generation):
        """Record a persisted twin directory process workers may re-open.

        Called by the persistence layer after every successful
        save/open/commit; the attachment is only trusted while the
        memory is at the version it was recorded at (any in-memory
        mutation since — an add, a delete, a renumber — forces a fresh
        spill).
        """
        self._attachment = (str(path), int(generation), self._version)

    def _ensure_process_store(self):
        """``(path, generation)`` of a persisted twin of this memory.

        A valid attachment (saved/opened/appended store) is reused as
        is — worker processes re-open its shard files via ``np.memmap``.
        An unsaved in-memory store spills its shards to a fresh temp
        store directory on the first process query (``save_store``
        attaches it); the spill lives until the memory is closed,
        collected, or re-spilled after a further in-memory mutation.
        """
        attachment = self._attachment
        if attachment is not None and attachment[2] == self._version:
            return attachment[0], attachment[1]
        from .persistence import save_store  # deferred import (module cycle)

        spill = tempfile.TemporaryDirectory(prefix="repro-store-spill-")
        try:
            save_store(self, spill.name)
        except TypeError as exc:
            spill.cleanup()
            raise TypeError(
                "executor='process' needs a persistable store: labels must "
                "be JSON-serializable scalars (str/int/float/bool) so "
                "in-memory shards can spill to a temp store directory"
            ) from exc
        old, self._spill_dir = self._spill_dir, spill
        if old is not None:
            # Workers still holding memmaps of the old spill keep reading
            # the unlinked inodes; new tasks name the new directory.
            old.cleanup()
        attachment = self._attachment
        return attachment[0], attachment[1]

    def _bound_state(self):
        """Cached per-group bound tables for the planner, built lazily.

        Returns ``{"groups", "centroids", "radii"}``: per shard, the
        list of its nonempty bound groups as ``(pop interval or None,
        ball slot or None)`` pairs — the base group (rows not covered by
        a journaled segment group) followed by the segment groups — plus
        the stacked backend-native centroid matrix and radius vector all
        ball slots index into, so one batched Hamming call bounds every
        ball of every shard at once. The cache is invalidated by every
        mutation (:meth:`_invalidate_bound_state` via ``_publish``,
        ``_push_segment_bounds``, and the persistence layer's compact
        adoption); a stale stack can therefore never bound fresh rows.
        """
        state = self._bound_state_cache
        if state is not None:
            return state
        groups = []
        centroids, radii = [], []
        for index in range(self.num_shards):
            shard_groups = []
            base_live = len(self._shards[index]) - sum(
                group["live"] for group in self._segment_groups[index])
            if base_live > 0:
                pop = self._pop_bounds[index]
                if pop is not None and pop[1] < pop[0]:
                    pop = None  # empty-sentinel bounds on a nonempty group
                ball = None
                if self._geo_centroid[index] is not None \
                        and self._geo_radius[index] is not None:
                    ball = len(centroids)
                    centroids.append(np.asarray(self._geo_centroid[index]))
                    radii.append(int(self._geo_radius[index]))
                shard_groups.append((pop, ball))
            for group in self._segment_groups[index]:
                if group["live"] <= 0:
                    continue
                ball = None
                if group["centroid"] is not None and group["radius"] is not None:
                    ball = len(centroids)
                    centroids.append(group["centroid"])
                    radii.append(group["radius"])
                shard_groups.append((group["pop"], ball))
            groups.append(shard_groups)
        state = {
            "groups": groups,
            "centroids": np.stack(centroids) if centroids else None,
            "radii": np.asarray(radii, dtype=np.int64),
        }
        self._bound_state_cache = state
        return state

    def _lower_bounds(self, active, native, query_minus):
        """Per-query Hamming lower bounds per shard: ``(lower, minus)``.

        Every row of a shard belongs to exactly one bound group — the
        base group or a journaled segment group — so the shard's best
        possible distance is lower-bounded by the **min over its groups**
        of each group's bound, and each group's bound is the elementwise
        max of its two layers: the minus-count interval
        (``hamming(q, x) >= |minus(q) − band|``) and the geometric ball
        (triangle inequality: ``d(q, x) >= d(q, centroid) − radius``,
        evaluated for all balls of all shards in one batched Hamming
        call against the cached stacked centroids). Per-segment groups
        are what let an append *tighten* a shard's bound: a far-away
        batch contributes its own distant ball instead of widening the
        base ball.

        Returns two dicts keyed by shard index: ``lower`` (the combined
        bound; a shard is absent when any of its groups has both layers
        unknown) and ``minus`` (the minus-layer-only bound, ``None``
        when any group's interval is unknown — used to attribute skips
        to the layer that proved them).
        """
        state = self._bound_state()
        ball_lower = None
        if state["centroids"] is not None:
            distances = np.atleast_2d(
                self.backend.hamming(native, state["centroids"])
            )
            ball_lower = np.maximum(0, distances - state["radii"][None, :])
        lower, minus_lower = {}, {}
        for index in active:
            combined = minus_only = None
            combined_known = minus_known = True
            for pop, ball in state["groups"][index]:
                row_minus = None
                if pop is not None:
                    low, high = pop
                    row_minus = np.maximum(
                        0, np.maximum(low - query_minus, query_minus - high)
                    )
                else:
                    minus_known = False
                row_geo = None if ball is None else ball_lower[:, ball]
                if row_minus is None and row_geo is None:
                    combined_known = False
                    break  # an unbounded group: the shard can never skip
                if row_minus is None:
                    row = row_geo
                elif row_geo is None:
                    row = row_minus
                else:
                    row = np.maximum(row_minus, row_geo)
                combined = row if combined is None else np.minimum(combined, row)
                if minus_known:
                    minus_only = (
                        row_minus if minus_only is None
                        else np.minimum(minus_only, row_minus)
                    )
            if combined_known and combined is not None:
                lower[index] = combined
                minus_lower[index] = minus_only if minus_known else None
        return lower, minus_lower

    def _submit(self, mode, index, queries, k, bounds=None):
        """Start one shard's ``mode`` task over ``queries`` on the executor.

        The thread executor runs it on the live shard; the process
        executor sends the task tuple (the query slice included) to a
        worker that re-opens the shard from the persisted twin.
        """
        if self._executor.kind == "process":
            path, generation = self._ensure_process_store()
            return self._executor.submit(process_shard_task, (
                mode, path, generation, index, queries, k, bounds))
        shard, orders = self._shards[index], self._orders_of(index)
        return self._executor.submit(
            lambda _: run_shard_task(mode, shard, orders, queries, k, bounds),
            None)

    @staticmethod
    def _skips(index, lower, minus_lower, tracker, counts):
        """Count one considered shard; True when it provably cannot
        contribute — its lower bound strictly beats the tracked k-th
        best for every query. The skip is attributed to the minus-count
        interval when that bound alone proves it, else to the centroid
        + radius bound (alone or jointly)."""
        counts["tasks"] += 1
        bound_row = lower.get(index)
        if bound_row is None or not tracker.can_skip(bound_row):
            return False
        minus_row = minus_lower.get(index)
        minus = minus_row is not None and tracker.can_skip(minus_row)
        counts["skipped"] += 1
        counts["skipped_minus" if minus else "skipped_centroid"] += 1
        return True

    def _fanout_ints(self, mode, native, k):
        """Bounded integer-domain fan-out; returns the partial list.

        A list schedule, cheapest lower bound first: the executor width
        (capped at the cores) of kernel calls stays in flight, and each
        completion lets the next shard start. Every completed shard
        tightens the shared
        :class:`~repro.hdc.store.parallel.BoundTracker`; a shard whose
        lower bound — the min over its bound groups (base + journaled
        segments) of each group's elementwise max of the minus-count
        interval bound and the centroid + radius geometric bound
        (:meth:`_lower_bounds`) — strictly beats the k-th best of that
        moment for every query is skipped (the kernel never runs;
        :attr:`pruning_stats` attributes the skip to the layer that
        proved it), and every other shard carries that moment's bound
        so its kernel can early-exit internally. Skips are strict, so
        decisions are bit-identical with pruning on or off and under
        any completion order (which only moves the counters). Pruning
        counters accumulate in batch-local variables and fold into
        :attr:`pruning_stats` once, under the stats lock, when the batch
        completes — concurrent batches stay exact.
        """
        counts = dict.fromkeys(
            ("tasks", "skipped", "skipped_minus", "skipped_centroid",
             "bounded"), 0,
        )
        active = self._active_shards()
        tracker = BoundTracker(
            native.shape[0], 1 if mode == "cleanup_ints" else k, self.dim + 1
        )
        lower, minus_lower = {}, {}
        if self.prune:
            query_minus = self.backend.minus_counts(native)
            lower, minus_lower = self._lower_bounds(active, native, query_minus)
        order = sorted(
            active,
            key=lambda i: -1 if lower.get(i) is None else int(lower[i].min()),
        )
        # In flight: the pool width, capped at the cores this process may
        # actually run on — extra workers beyond that only time-slice one
        # core and thrash the kernels' cache-sized tiles. (The core count
        # is probed once per executor, not per batch.)
        width = max(1, min(self._executor.workers, self._executor.cores))
        split = query_slices(native.shape[0], width)
        # The seed (smallest lower bound) and the last shard would each run
        # alone, so their queries split across the width. The seed's parts
        # all finish before anything else starts, bound-free: every later
        # shard then carries a real k-th best into its kernel, and which
        # shards the seed alone lets skip does not depend on timing.
        counts["tasks"] += 1
        seed = [(rows, self._submit(mode, order[0], native[rows], k))
                for rows in split]
        partials = [join_partials([(rows, f.result()) for rows, f in seed])]
        tracker.update(partials[0][0])
        queue, ready, running, parts = deque(order[1:]), deque(), {}, {}
        while queue or ready or running:
            while len(running) < width and (ready or queue):
                if ready:
                    index, rows = ready.popleft()
                    running[self._submit(mode, index, native[rows], k,
                                         tracker.bounds()[rows])] = index, rows
                    continue
                index = queue.popleft()
                if not self._skips(index, lower, minus_lower, tracker, counts):
                    counts["bounded"] += 1
                    slices = split if not queue else [slice(None)]
                    parts[index] = (len(slices), [])
                    ready.extend((index, rows) for rows in slices)
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                index, rows = running.pop(future)
                expected, got = parts[index]
                got.append((rows, future.result()))
                if len(got) == expected:  # the shard's last query slice
                    partials.append(join_partials(got))
                    tracker.update(partials[-1][0])
        with self._stats_lock:
            self._pruning["batches"] += 1
            for key, value in counts.items():
                self._pruning[key] += value
        return partials

    def similarities_batch(self, queries):
        """Cosine similarities ``(B, n)`` with columns in global insertion order.

        Materializes the full matrix — a debugging/agreement aid; the
        bounded-memory paths are :meth:`cleanup_batch` / :meth:`topk_batch`.
        The block is checked and converted to native queries once, and
        every shard scores those.
        """
        queries = self._check_queries(queries)
        native = self.backend.from_bipolar(queries, checked=True)
        out = np.empty((queries.shape[0], len(self)), dtype=np.float64)
        active = self._active_shards()
        futures = [self._submit("similarities", index, native, None)
                   for index in active]
        for index, future in zip(active, futures):
            sims = future.result()
            # A shard answers its live rows in physical order.
            orders, shard = self._orders_of(index), self._shards[index]
            if shard._dead:
                orders = orders[shard._live_mask()]
            out[:, self._dense(orders)] = sims
        return out

    def cleanup(self, query):
        """Return ``(label, similarity)`` of the best-matching stored item.

        Ties resolve to the earliest globally inserted label;
        bit-identical to ``ItemMemory.cleanup`` under any layout,
        executor, or pruning setting. Safe to call concurrently with
        other queries (not with mutations).
        """
        labels, sims = self.cleanup_batch(np.asarray(query)[None])
        return labels[0], float(sims[0])

    def cleanup_batch(self, queries):
        """Batched cleanup across shards: ``(B, dim)`` → ``(labels, sims)``.

        Each shard answers with its own best ``(distance, global order)``
        pair; the merge keeps the lexicographic minimum — smallest
        distance, ties by earliest global insertion — and only then
        converts to float similarity. Bit-identical to a single
        ``ItemMemory``.
        """
        queries = self._check_queries(queries)
        native = self.backend.from_bipolar(queries, checked=True)
        partials = self._fanout_ints("cleanup_ints", native, 1)
        primary = np.stack([p for p, _ in partials])  # (S', B)
        orders = np.stack([o for _, o in partials])  # (S, B)
        best = np.lexsort((orders, primary), axis=0)[0]  # best shard per query
        columns = np.arange(primary.shape[1])
        best_orders = orders[best, columns]
        sims = distances_to_similarities(
            primary[best, columns], self.dim, self.backend.name, queries
        )
        return [self._slots[order] for order in best_orders], sims

    def topk(self, query, k=5):
        """Return the ``k`` best ``(label, similarity)`` pairs, best first.

        Ordering contract: similarity descending, exact ties by global
        insertion order ascending — bit-identical to ``ItemMemory.topk``
        under any layout/executor/pruning setting. Safe concurrently
        with other queries (not with mutations).
        """
        return self.topk_batch(np.asarray(query)[None], k=k)[0]

    def topk_batch(self, queries, k=5):
        """Batched top-k across shards: ``B`` ranked lists of ``(label, sim)``.

        Each shard contributes its local top-``k`` as integer
        ``(distance, global order)`` pairs (partition-accelerated, exact
        ties included), so merging at most ``shards × k`` candidates per
        query under the shared :func:`~repro.hdc.ordering.topk_order`
        contract reproduces the global ranking exactly; the ``(B, k)``
        merged winners are the only values converted to float.
        """
        queries = self._check_queries(queries)
        k = min(k, len(self))
        native = self.backend.from_bipolar(queries, checked=True)
        partials = self._fanout_ints("topk_ints", native, k)
        primary = np.concatenate([p for p, _ in partials], axis=1)  # (B, Σk')
        orders = np.concatenate([o for _, o in partials], axis=1)
        selected = topk_order(primary, k, tiebreak=orders)
        rows = np.arange(primary.shape[0])[:, None]
        merged_orders = orders[rows, selected]
        sims = distances_to_similarities(
            primary[rows, selected], self.dim, self.backend.name, queries
        )
        return [
            [
                (self._slots[order], float(sim))
                for order, sim in zip(order_row, sim_row)
            ]
            for order_row, sim_row in zip(merged_orders, sims)
        ]
