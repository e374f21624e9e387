"""Shard fan-out executors and integer-domain query partials.

The sharded store's query path has three independent scaling levers,
all implemented here:

- **Fan-out** — per-shard Hamming kernels are independent, so
  :class:`ShardExecutor` runs them as submitted tasks: inline for a
  1-wide thread executor (or a lone shard's only task), on a reused
  ``ThreadPoolExecutor``, or — with ``kind="process"`` — on a
  ``ProcessPoolExecutor`` that sidesteps the GIL entirely. The default
  width is every core this process may run on
  (:func:`available_cores`, its CPU affinity). The store layer keeps
  that many kernel calls in flight and starts the next shard whenever
  one finishes (a list schedule, never a barrier), and a shard that
  would run alone has its queries split across the width
  (:func:`query_slices`; :func:`join_partials` stitches the parts back).
  Threads overlap because the packed top-k kernel
  (``PackedBackend.hamming_topk``) makes each NumPy call cover a block
  of queries across a whole tile, so a call holds the GIL released for
  20–80 µs: on a 2-core container, a 64-query ``topk_batch`` over a
  100k × 1024 store in eight packed shards took 113–122 ms on two
  threads against 180–199 ms on one (barrier waves: 140–143 ms). The
  per-query kernel that the blocked one replaced took 180–220 ms one
  after another and 1.2–1.5× that on two threads.
  Worker processes never receive pickled shard matrices: tasks name a
  persisted store directory, a shard index and the task's query slice,
  and each worker re-opens its shard's ``.npy`` files via ``np.memmap``
  (:func:`process_shard_task`) — zero-copy, shared through the page
  cache, cached per ``(path, generation)`` inside the worker.
- **Integer domain** — per-shard partials are ``(uint distance, global
  physical insertion order)`` pairs (:func:`shard_cleanup_ints` /
  :func:`shard_topk_ints`): ranking by distance *ascending* is exactly
  ranking by similarity *descending*, and the global insertion index is
  the shared tie-break key. No per-shard float similarity row is ever
  materialized; only the final merged top-k converts, and
  :func:`distances_to_similarities` reproduces the reference backends'
  float expressions operand for operand, so the conversion is
  bit-identical to the reference ``ItemMemory`` path.
- **Early-exit bounds** — :class:`BoundTracker` carries the current
  k-th-best distance per query across the fan-out. Shards whose best
  possible distance — lower-bounded by *two* independent layers
  recorded at ingest/append/compact time, the minus-count interval
  (``hamming >= |minus(q) − band|``) and the geometric centroid ball
  (``hamming >= d(q, centroid) − radius``) — already *exceeds* the
  tracked k-th-best are skipped without running their kernel at all,
  and unskipped shards receive the tracked bound so their kernels can
  prune internally (``PackedBackend.hamming_topk``'s adaptive prefix
  schedule). Skipping is always strict (``bound > k-th best``), so
  boundary ties — which resolve by global insertion order — are never
  pruned and decisions stay bit-identical.

Partials from bounded shards may contain *sentinel* rows (distance
``dim + 1``, order :data:`ORDER_SENTINEL`) for candidates that provably
cannot win; sentinels rank behind every real candidate under the shared
ordering contract and are never selected by a merge.

Every partial is integer-domain (the store refuses real-valued queries),
and a shard is a label-free row memory: partials never carry labels.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

__all__ = [
    "available_cores",
    "resolve_workers",
    "resolve_executor",
    "EXECUTOR_KINDS",
    "ShardExecutor",
    "BoundTracker",
    "ORDER_SENTINEL",
    "query_slices",
    "join_partials",
    "run_shard_task",
    "shard_cleanup_ints",
    "shard_topk_ints",
    "process_shard_task",
    "distances_to_similarities",
]

#: executor kinds accepted by :class:`ShardExecutor` and the store layer
EXECUTOR_KINDS = ("thread", "process")

#: tie-break key of sentinel partial entries — larger than any real global
#: insertion index, so sentinels always lose the merge
ORDER_SENTINEL = np.int64(2**62)


def available_cores():
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the CPU count (at least 1)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)  # pragma: no cover - non-Linux fallback


def resolve_workers(workers):
    """Normalize a worker-count spec: an int ≥ 1, or ``None`` (the default)
    / ``"auto"`` → :func:`available_cores`."""
    if workers is None or workers == "auto":
        return available_cores()
    try:
        workers = int(workers)
    except (TypeError, ValueError):
        raise ValueError(f"workers must be an int >= 1 or 'auto', got {workers!r}") from None
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (or 'auto'), got {workers}")
    return workers


def resolve_executor(kind):
    """Normalize an executor kind: ``"thread"`` (default) or ``"process"``."""
    if kind is None:
        return "thread"
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {kind!r}; available: {EXECUTOR_KINDS}"
        )
    return kind


class ShardExecutor:
    """Runs shard tasks: inline, on threads, or on processes.

    :meth:`submit` starts one task and returns its
    :class:`~concurrent.futures.Future`; the store layer's fan-out keeps
    the executor's width of them in flight and reacts to each
    completion. A 1-wide thread executor runs every task inline on the
    calling thread (the future comes back done), and so does any thread
    executor for the one task of a lone shard's fan-out. :meth:`map` is
    :meth:`submit` over a list, with results in submission order. The
    pool is created lazily on the first pooled task and reused across
    queries; :meth:`close` (also called on garbage collection) shuts it
    down, cancelling any queued work, after which :meth:`submit` and
    :meth:`map` raise rather than silently rebuilding a pool.

    ``kind="process"`` requires the task function and its items to be
    picklable (the store layer sends :func:`process_shard_task` plus
    plain task tuples); worker processes are forked where the platform
    supports it, so a large parent store is never copied eagerly.

    **Determinism**: the executor never decides anything — the store
    layer merges partials under a tie contract that ignores the order
    they arrive in, so pool width, kind and completion order never
    change decisions. **Safety**: :meth:`submit` may be called from
    concurrent threads (the underlying pools are thread-safe), and
    :meth:`close` is idempotent and safe to call from any thread — even
    one that never ran a query (the serving layer's event loop hands the
    store between threads): a lock serializes pool creation against
    shutdown, so a racing ``submit`` either runs on the live pool (its
    in-flight work may then be cancelled by the shutdown) or raises.
    """

    def __init__(self, workers=None, kind="thread"):
        self._pool = None  # before validation: __del__ must always find it
        self._closed = False
        self._lock = threading.Lock()  # pool creation vs close, any thread
        self.kind = resolve_executor(kind)
        #: cores this process may run on, probed once per executor — the
        #: default pool width, and the store layer caps the kernel calls
        #: it keeps in flight at this (a per-query ``sched_getaffinity``
        #: syscall would be pure overhead on the hot path)
        self.cores = available_cores()
        self.workers = resolve_workers(workers)

    def _make_pool(self):
        if self.kind == "process":
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            return ProcessPoolExecutor(max_workers=self.workers, mp_context=context)
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-shard"
        )

    def submit(self, fn, item, inline=False):
        """Start ``fn(item)``; returns its :class:`~concurrent.futures.Future`.

        A 1-wide thread executor runs it inline, and so does any thread
        executor when ``inline`` (the store layer's fan-out asks for its
        only task), so the returned future is already done (holding the
        result or the raised exception). A process executor ignores
        ``inline`` and always uses its pool.
        """
        inline = self.kind == "thread" and (inline or self.workers == 1)
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "ShardExecutor is closed; create a new executor (or assign "
                    "memory.workers / memory.executor) instead of reusing it"
                )
            if not inline and self._pool is None:
                self._pool = self._make_pool()
            pool = self._pool
        if not inline:
            return pool.submit(fn, item)
        future = Future()
        try:
            future.set_result(fn(item))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def map(self, fn, items):
        """``[fn(item) for item in items]`` over the pool, in submission order."""
        futures = [self.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def close(self):
        """Shut the pool down (idempotent; callable from any thread).

        Queued work is cancelled and in-flight futures of a racing
        :meth:`submit` may raise ``CancelledError`` — close concurrently
        with queries only when abandoning their results (the store
        layer's own contract: mutation must not race queries).
        Subsequent :meth:`submit` and :meth:`map` calls raise.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __del__(self):
        self.close()

    def __repr__(self):
        return f"ShardExecutor(workers={self.workers}, kind={self.kind!r})"


class BoundTracker:
    """The fan-out's shared current k-th-best distance, per query.

    Every completed partial feeds its distances in; :meth:`bounds`
    hands the per-query k-th-best to the next shard's kernel, and
    :meth:`can_skip` answers whether a shard's minus-count lower bounds
    make it *provably* unable to contribute — strictly greater than the
    k-th best for **every** query in the batch, so boundary ties (which
    resolve by insertion order) always get scored.

    Until ``k`` real candidates have been seen for a query, its
    k-th-best is the sentinel (``dim + 1``), which no lower bound can
    exceed — a shard can never be skipped on the strength of an
    unfinished ranking.
    """

    def __init__(self, num_queries, k, sentinel):
        self.k = max(1, int(k))
        self.sentinel = int(sentinel)
        self.best = np.full((num_queries, self.k), self.sentinel, dtype=np.int64)

    def update(self, primary):
        """Fold one partial's ``(B,)`` or ``(B, k')`` distances in."""
        primary = np.asarray(primary)
        if primary.ndim == 1:
            primary = primary[:, None]
        merged = np.concatenate([self.best, primary], axis=1)
        merged.sort(axis=1)
        self.best = merged[:, : self.k]

    def bounds(self):
        """Per-query current k-th-best distances, ``(B,)`` int64."""
        return self.best[:, -1].copy()

    def can_skip(self, lower_bounds):
        """True when ``lower_bounds`` beat the k-th best for every query."""
        return bool(np.all(lower_bounds > self.best[:, -1]))


# -- per-shard partials: (primary ascending, global insertion index) ------- #


def _orders_with_sentinels(orders, rows):
    """Map kernel row indices to global orders; sentinel rows (−1) map to
    :data:`ORDER_SENTINEL`."""
    valid = rows >= 0
    return np.where(valid, orders[np.where(valid, rows, 0)], ORDER_SENTINEL)


def shard_cleanup_ints(shard, native_queries, orders, bounds=None):
    """One shard's cleanup partial: per-query ``(distance, global order)``.

    A shard receives its rows in global insertion order, so the
    earliest local row is also the earliest global row — the kernel's
    (distance, row) tie contract realizes the global tie-break before
    the merge ever runs. ``bounds`` lets the kernel early-exit items
    that provably lose to another shard; pruned slots come back as
    sentinels.
    """
    distances, rows = shard.topk_native(native_queries, 1, bounds=bounds)
    return distances[:, 0], _orders_with_sentinels(orders, rows[:, 0])


def shard_topk_ints(shard, native_queries, k, orders, bounds=None):
    """One shard's top-k partial: ``(B, k')`` distances + global orders."""
    distances, rows = shard.topk_native(native_queries, k, bounds=bounds)
    return distances, _orders_with_sentinels(orders, rows)


def query_slices(num_queries, parts):
    """``min(parts, num_queries)`` contiguous, near-equal slices of a batch.

    How the fan-out splits one shard's queries across idle workers: the
    packed kernel blocks its queries anyway, so each part is a smaller
    batch of the same call, and its rows of the partial are exactly the
    whole call's rows (every query's top-k is independent of the rest).
    """
    parts = max(1, min(int(parts), num_queries))
    cuts = [num_queries * part // parts for part in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def join_partials(parts):
    """One shard's ``(primary, orders)`` partial from its query-slice parts.

    ``parts`` are ``(slice, partial)`` pairs in any (completion) order;
    the pieces are stacked back in query order.
    """
    if len(parts) == 1:
        return parts[0][1]
    parts = sorted(parts, key=lambda part: part[0].start)
    return tuple(np.concatenate([partial[side] for _, partial in parts])
                 for side in (0, 1))


def run_shard_task(mode, shard, orders, queries, k, bounds=None):
    """One shard's partial of kind ``mode`` — the body of every task.

    The thread executor calls it on the live shard; a process worker
    calls it on the shard it re-opened (:func:`process_shard_task`).
    """
    if mode == "cleanup_ints":
        return shard_cleanup_ints(shard, queries, orders, bounds=bounds)
    if mode == "topk_ints":
        return shard_topk_ints(shard, queries, k, orders, bounds=bounds)
    if mode == "similarities":
        return shard.similarities_native(queries)
    raise ValueError(f"unknown shard task mode {mode!r}")


# -- process-executor tasks --------------------------------------------------- #

#: per-process cache of re-opened shards: {(path, generation): (the
#: generation's worker chain, {shard index: (shard, orders)})}
_WORKER_STORES = {}


def _worker_shard(path, generation, shard_index):
    """Re-open one shard (memmap) inside a worker process, with caching.

    The cache is keyed by ``(path, generation)`` — an append or compact
    bumps the generation, and an in-memory store re-spills to a new
    directory after a mutation, so workers pick up the new layout on
    the next task. A pool belongs to one memory, which has one
    attachment at a time, so a new key drops every other entry (and
    with it the superseded files' maps). The first attach of a
    generation reads its manifest and delta chain
    (:func:`~.persistence._worker_chain`), which refuses a directory
    that moved past ``generation``; every shard of that generation then
    attaches from them (:func:`~.persistence.load_worker_shard` does
    both for one shard).
    """
    from .persistence import _attach_worker_shard, _worker_chain  # module cycle

    key = (str(path), int(generation))
    cached = _WORKER_STORES.get(key)
    if cached is None:
        _WORKER_STORES.clear()
        cached = _WORKER_STORES[key] = (_worker_chain(path, key[1]), {})
    chain, shards = cached
    if shard_index not in shards:
        shards[shard_index] = _attach_worker_shard(chain, shard_index)
    return shards[shard_index]


def process_shard_task(task):
    """Execute one shard task inside a worker process.

    ``task`` is a plain tuple ``(mode, path, generation, shard_index,
    queries, k, bounds)`` whose ``queries`` (and ``bounds``) are the
    task's query slice — no shard matrix ever crosses the process
    boundary; the worker re-opens the persisted shard lazily via
    ``np.memmap`` and shares pages with every other worker through the
    OS page cache.
    """
    mode, path, generation, shard_index, queries, k, bounds = task
    shard, orders = _worker_shard(path, generation, shard_index)
    return run_shard_task(mode, shard, orders, queries, k, bounds)


def distances_to_similarities(distances, dim, backend_name, queries):
    """Merged integer distances → the reference float similarities.

    Reproduces the exact float expressions of the reference paths so
    the conversion is bit-identical to ``ItemMemory``:

    - packed: ``(d − 2·ham) / d`` (``PackedBackend.dot`` → ``cosine``);
    - dense: ``(d − 2·ham) / (‖q‖ · √d)`` — the raw matmul dot of a
      float64 query against bipolar rows is the exactly-representable
      integer ``d − 2·ham``, and the norms are computed by the same
      ``np.linalg.norm`` call as ``ItemMemory._dense_similarities``.
    """
    dots = (dim - 2 * np.asarray(distances)).astype(np.float64)
    if backend_name == "packed":
        return dots / dim
    norms = np.linalg.norm(np.asarray(queries).astype(np.float64), axis=1)
    if dots.ndim == 1:
        return dots / (norms * np.sqrt(dim))
    return dots / (norms[:, None] * np.sqrt(dim))
