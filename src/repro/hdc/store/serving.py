"""Async serving front-end: work-conserving micro-batching over the store.

Everything below the facade is built for *batches* — the per-call fixed
cost (query packing, shard fan-out dispatch, bound tracking, merge) is
paid once per batch and the kernels amortize it across rows. User-facing
traffic is the opposite shape: many concurrent *single* queries, each of
which would pay the whole fan-out alone. :class:`StoreServer` converts
one shape into the other:

- **Coalescing** — awaitable single requests (:meth:`StoreServer.cleanup`
  / :meth:`~StoreServer.topk` / :meth:`~StoreServer.similarities`) queue
  into per-kind groups (top-k requests batch per ``k``);
- **Flush triggers** — work-conserving, with no timer: while no wave or
  mutation is in flight on the dispatch thread, the oldest group is
  flushed into one *wave* on the next event-loop tick, so same-tick
  arrivals share it (**idle** trigger); otherwise arrivals coalesce,
  and each finishing wave or mutation hands the thread to the oldest
  queued group. A group reaching ``max_batch`` rows flushes at once
  (**size** trigger); shutdown flushes the rest (**drain**);
- **Dispatch** — a flushing wave stacks its query rows and submits the
  store's batch kernel (``cleanup_batch`` / ``topk_batch`` /
  ``similarities_batch``) to the one dispatch thread via
  ``loop.run_in_executor``, so the event loop never blocks on NumPy;
  the store's own ``workers=``/``executor=`` fan-out applies inside the
  wave unchanged;
- **Demultiplexing** — per-row results resolve each caller's future;
  a request cancelled mid-wave is simply skipped (the wave still
  completes for everyone else).

**Decision contract**: a request served through a wave is bit-identical
to the same request issued alone against the store — rows of a batched
kernel call are scored independently, and the store's own agreement
suites pin batch-composition invariance (``query_block`` blocking,
strict pruning skips). The serving agreement suite
(``tests/hdc/store/test_serving.py``) pins it end to end across
executors × backends, under cancellation and backpressure. A query of
the wrong shape or not bipolar is refused at admission, alone: the
batch kernels would refuse its whole wave.

**Admission control / backpressure**: at most ``max_pending`` requests
may be *inside* the server (queued or in a dispatched, unfinished
wave). Beyond that, ``admission="wait"`` (default) parks new callers on
a FIFO of waiters that wake as slots free; ``admission="reject"`` fails
them immediately with :exc:`ServerOverloaded`. Either way the server's
memory is bounded and the latency cost of overload is explicit.

**Shutdown**: :meth:`StoreServer.stop` (or leaving the ``async with``
block) stops admission — new requests and parked waiters fail with
:exc:`ServerClosed` — then flushes every queued group as a drain wave
and awaits all in-flight waves, so accepted requests always resolve.

**Mutations**: :meth:`StoreServer.delete` / :meth:`~StoreServer.upsert`
submit their store call to the same dispatch thread when called. One
thread runs its calls one at a time, in submission order, and that
order is the mutation barrier: no kernel call overlaps a mutation,
waves flushed before it answer the old snapshot, and reads that queue
or size-flush while it runs answer the new one.

**Threading**: the coalescing state (groups, counters, waiters) is
touched only from the event-loop thread — no locks. Every store call
(wave kernels and mutations) runs on the one dispatch thread, so the
store sees one call at a time.

Stats follow the ``pruning_stats`` pattern: :attr:`StoreServer.stats`
is cumulative telemetry (requests, waves, mean batch size, flush-trigger
attribution, queue-depth high-water mark) and
:meth:`StoreServer.reset_stats` scopes it to a workload.
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..item_memory import require_bipolar

__all__ = [
    "StoreServer",
    "ServerClosed",
    "ServerOverloaded",
    "ServerTimeout",
    "ADMISSION_POLICIES",
    "FLUSH_TRIGGERS",
    "REQUEST_KINDS",
    "jsonable_result",
]

#: what happens to a request arriving with ``max_pending`` already inside
#: the server: ``"wait"`` parks it (FIFO) until a slot frees, ``"reject"``
#: raises :exc:`ServerOverloaded` immediately
ADMISSION_POLICIES = ("wait", "reject")

#: why a wave left the queue: it filled (``size``), the dispatch thread
#: was free for it (``idle``), or the server drained it at shutdown
FLUSH_TRIGGERS = ("size", "idle", "drain")

#: the request kinds a server coalesces — also the vocabulary transports
#: use with :func:`jsonable_result`
REQUEST_KINDS = ("cleanup", "topk", "similarities")


def jsonable_result(kind, result):
    """Convert one demuxed result row into plain-JSON types.

    The transport-facing serialization seam: every wire front-end (the
    HTTP server in :mod:`repro.hdc.store.http` today, any future
    transport) must serialize answers through this one function so the
    on-the-wire shape cannot drift per transport. The mapping preserves
    bit-identity — similarities stay ``float`` (Python floats serialize
    via shortest round-trip repr, so JSON encode→decode returns the
    exact same double) and labels stay strings:

    - ``"cleanup"``: ``(label, sim)`` → ``{"label": ..., "similarity": ...}``
    - ``"topk"``: ranked pairs → ``{"results": [{"label": ..., "similarity": ...}, ...]}``
    - ``"similarities"``: the ``(n,)`` row → ``{"similarities": [...]}``
    """
    if kind == "cleanup":
        label, sim = result
        return {"label": label, "similarity": float(sim)}
    if kind == "topk":
        return {"results": [
            {"label": label, "similarity": float(sim)} for label, sim in result
        ]}
    if kind == "similarities":
        return {"similarities": [float(sim) for sim in result]}
    raise ValueError(
        f"unknown request kind {kind!r}; available: {REQUEST_KINDS}"
    )


class ServerClosed(RuntimeError):
    """The server is stopping/stopped and no longer admits requests."""


class ServerOverloaded(RuntimeError):
    """Admission control rejected the request (``admission="reject"``)."""


class ServerTimeout(TimeoutError):
    """The request's deadline expired before a wave resolved it.

    Raised to exactly one caller; the request's micro-batch wave is
    never poisoned — co-batched rows still resolve bit-identically, and
    an expired request that was still *queued* frees its admission slot
    immediately. A ``TimeoutError`` subclass so generic timeout handling
    catches it. Deadlines outrank shutdown: a deadline expiring while
    the request rides a ``stop()`` drain wave still raises this, not
    :exc:`ServerClosed` — the request *was* admitted; it ran out of
    time.
    """


class StoreServer:
    """Asyncio micro-batching server over an :class:`AssociativeStore`.

    Accepts concurrent single ``cleanup`` / ``topk`` / ``similarities``
    requests as awaitables, coalesces them into batched waves (flushed
    as soon as the dispatch thread is free, or on a size trigger),
    dispatches each wave through the store's batch kernels off the event
    loop, and demultiplexes per-row results — bit-identical to issuing
    each request alone (see the module docstring for the full contract).

    Use it as an async context manager, inside a running event loop::

        async with StoreServer(store, max_batch=64) as srv:
            label, sim = await srv.cleanup(query)

    The server owns no store state: the wrapped ``store`` (anything with
    ``dim``, ``cleanup_batch``, ``topk_batch``, ``similarities_batch``)
    is queried read-only by waves and is *not* closed by :meth:`stop`.
    Mutations go through :meth:`delete` / :meth:`upsert` — **barrier
    operations** that run on the waves' one dispatch thread, in
    submission order: a mutation runs after every wave flushed before
    it, and every wave flushed after it waits for it to commit. Every
    query therefore resolves against exactly one snapshot — wholly
    before or wholly after any mutation, never half-applied. Do not
    mutate the store around the server's back while it is running.

    Parameters
    ----------
    store:
        The query target, typically an :class:`AssociativeStore`.
    max_batch:
        Size flush trigger: a group reaching this many queued rows is
        dispatched immediately. ``1`` disables coalescing (every request
        is its own wave — the naive baseline the benchmark anchors on).
    max_pending:
        Admission-control bound on requests inside the server (queued
        plus dispatched-but-unfinished).
    admission:
        Over-capacity policy: ``"wait"`` (park FIFO) or ``"reject"``
        (raise :exc:`ServerOverloaded`). See :data:`ADMISSION_POLICIES`.
    default_timeout_ms:
        Per-request deadline applied when a request passes no
        ``timeout_ms`` of its own. ``None`` (default) means requests
        wait indefinitely. A request whose deadline expires — parked at
        admission, queued in a group, or already riding a wave — fails
        with :exc:`ServerTimeout` without poisoning its wave.
    """

    def __init__(self, store, max_batch=64, max_pending=4096,
                 admission="wait", default_timeout_ms=None):
        if int(max_batch) < 1:
            raise ValueError("max_batch must be >= 1")
        if int(max_pending) < int(max_batch):
            raise ValueError(
                f"max_pending ({max_pending}) must be >= max_batch "
                f"({max_batch}), or no wave could ever fill"
            )
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; "
                f"available: {ADMISSION_POLICIES}"
            )
        if default_timeout_ms is not None and float(default_timeout_ms) <= 0:
            raise ValueError("default_timeout_ms must be > 0 (or None)")
        self._store = store
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self.admission = admission
        self.default_timeout_ms = (
            None if default_timeout_ms is None else float(default_timeout_ms)
        )
        self._loop = None
        self._pool = None
        self._started = False
        self._closed = False
        #: key -> {"futures": [...], "queries": [...]}, oldest group first;
        #: keys are ("cleanup",) / ("topk", k) / ("similarities",)
        self._groups = {}
        self._pending = 0  # admitted requests not yet resolved
        self._waiters = deque()  # admission="wait" FIFO
        self._inflight = set()  # submitted store calls (waves, mutations)
        self._stats = self._zero_stats()

    @staticmethod
    def _zero_stats():
        return dict.fromkeys(
            ("requests", "rejected", "cancelled", "timed_out", "waves",
             "batched_requests", "flushed_size", "flushed_idle",
             "flushed_drain", "queue_high_water", "mutations"), 0,
        )

    # -- lifecycle ---------------------------------------------------------- #

    async def start(self):
        """Bind to the running event loop and start the dispatch thread.

        Must be awaited inside the loop that will issue requests (the
        async-context-manager form does this for you). Starting twice or
        after :meth:`stop` raises.
        """
        if self._closed:
            raise ServerClosed("StoreServer was stopped; build a new one")
        if self._started:
            raise RuntimeError("StoreServer is already started")
        self._loop = asyncio.get_running_loop()
        # One thread, so store calls run one at a time in submission
        # order: the mutation barrier rests on it (see _mutate).
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._started = True
        return self

    async def stop(self):
        """Graceful shutdown: stop admitting, drain queues, await waves.

        Every request admitted before the call still resolves (queued
        groups are flushed as ``drain`` waves), and mutations already
        submitted still land; parked admission waiters fail with
        :exc:`ServerClosed`. Idempotent. The wrapped store is left open.
        """
        self._closed = True
        if not self._started:
            return
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    ServerClosed("StoreServer stopped while awaiting admission")
                )
        for key in list(self._groups):
            self._flush(key, "drain")
        while self._inflight:
            await asyncio.wait(self._inflight)
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info):
        await self.stop()

    # -- introspection ------------------------------------------------------ #

    @property
    def store(self):
        """The wrapped query target (read-only use)."""
        return self._store

    @property
    def pending(self):
        """Requests currently inside the server (queued + in waves)."""
        return self._pending

    @property
    def started(self):
        """Whether :meth:`start` ran (stays ``True`` after :meth:`stop`)."""
        return self._started

    @property
    def closed(self):
        """Whether :meth:`stop` ran — the server no longer admits."""
        return self._closed

    @property
    def stats(self):
        """Cumulative serving telemetry (the ``pruning_stats`` pattern).

        Counters accumulate since construction or the last
        :meth:`reset_stats`:

        - ``requests`` — requests admitted past validation (including
          later-cancelled ones); ``rejected`` / ``cancelled`` /
          ``timed_out`` count admission rejections, caller
          cancellations, and expired deadlines (:exc:`ServerTimeout`);
        - ``waves`` — batched kernel dispatches; ``batched_requests`` —
          rows those waves carried (``mean_batch_size`` is the derived
          amortization actually achieved);
        - ``flushed_size`` / ``flushed_idle`` / ``flushed_drain`` —
          flush-trigger attribution, one per wave;
        - ``queue_high_water`` — max simultaneous in-server requests
          observed (the backpressure headroom that was actually used);
        - ``mutations`` — :meth:`delete` / :meth:`upsert` store calls
          that landed (a cancelled caller's included);
        - ``queue_depth`` — current :attr:`pending` (derived, not
          cumulative).

        Decisions never depend on these values.
        """
        stats = dict(self._stats)
        stats["mean_batch_size"] = (
            stats["batched_requests"] / stats["waves"] if stats["waves"] else 0.0
        )
        stats["queue_depth"] = self._pending
        return stats

    def reset_stats(self):
        """Zero the cumulative counters; returns the closing snapshot."""
        snapshot = self.stats
        self._stats = self._zero_stats()
        return snapshot

    def __repr__(self):
        return (
            f"StoreServer(store={self._store!r}, max_batch={self.max_batch}, "
            f"max_pending={self.max_pending}, "
            f"admission={self.admission!r}, pending={self._pending})"
        )

    # -- request surface ---------------------------------------------------- #

    async def cleanup(self, query, timeout_ms=None):
        """Await the best ``(label, similarity)`` for one query row.

        Equal to ``store.cleanup(query)`` bit for bit, however the
        request was batched. ``timeout_ms`` overrides the server's
        ``default_timeout_ms`` deadline for this request.
        """
        return await self._submit(("cleanup",), query, timeout_ms)

    async def topk(self, query, k=5, timeout_ms=None):
        """Await the ranked ``(label, similarity)`` list for one query.

        Requests batch per ``k`` (rows of one kernel call must share a
        ``k``); equal to ``store.topk(query, k=k)`` bit for bit.
        """
        if int(k) < 1:
            raise ValueError("k must be >= 1")
        return await self._submit(("topk", int(k)), query, timeout_ms)

    async def similarities(self, query, timeout_ms=None):
        """Await the full ``(n,)`` similarity row for one query."""
        return await self._submit(("similarities",), query, timeout_ms)

    async def delete(self, labels):
        """Remove ``labels`` from the store through the serving barrier.

        Serializes against other mutations and against every query wave
        (see :meth:`_mutate`). Validation errors (unknown or duplicate
        labels) propagate to this caller only; the batch is all-or-
        nothing, so a rejected delete changes no snapshot. Refused with
        :exc:`ServerClosed` once :meth:`stop` has begun — mutations do
        not ride the drain.
        """
        labels = list(labels)
        await self._mutate(lambda store: store.delete(labels))

    async def upsert(self, labels, vectors):
        """Insert-or-replace ``labels`` through the serving barrier.

        Same barrier/refusal semantics as :meth:`delete`; the store's
        own upsert contract applies (replaced labels re-enter at the end
        of the insertion order).
        """
        labels = list(labels)
        vectors = np.asarray(vectors)
        await self._mutate(lambda store: store.upsert(labels, vectors))

    async def _mutate(self, apply):
        """Run one mutation on the dispatch thread, between waves.

        The store call is submitted at once, so the dispatch thread runs
        it after every wave flushed before it and before every wave
        flushed after it: waves already submitted answer against the old
        snapshot; requests still queued in a group, and groups that
        size-flush meanwhile, answer against the *new* one. No kernel
        ever observes a half-applied mutation, on thread and process
        executors alike. A cancelled caller sees ``CancelledError`` at
        once; the store call still runs, lands and counts in ``stats``
        before any later wave.
        """
        if not self._started:
            raise RuntimeError(
                "StoreServer is not started; use 'async with StoreServer(...)'"
                " or await server.start() first"
            )
        if self._closed:
            raise ServerClosed("StoreServer is stopped")
        applying = self._loop.run_in_executor(self._pool, apply, self._store)
        self._inflight.add(applying)
        applying.add_done_callback(self._mutation_done)
        # Shielded: a cancelled caller must not cancel a call still
        # queued on the thread, or whether it lands would depend on when
        # the cancellation arrived.
        return await asyncio.shield(applying)

    def _mutation_done(self, applying):
        """Count a landed mutation and hand the thread on."""
        self._inflight.discard(applying)
        if applying.exception() is None:
            self._stats["mutations"] += 1
        self._dispatch_idle()

    def _resolve_timeout(self, timeout_ms):
        timeout = self.default_timeout_ms if timeout_ms is None else timeout_ms
        if timeout is None:
            return None
        timeout = float(timeout)
        if timeout <= 0:
            raise ValueError("timeout_ms must be > 0 (or None)")
        return timeout

    async def _submit(self, key, query, timeout_ms=None):
        if not self._started:
            raise RuntimeError(
                "StoreServer is not started; use 'async with StoreServer(...)'"
                " or await server.start() first"
            )
        if self._closed:
            raise ServerClosed("StoreServer is stopped")
        row = np.asarray(query)
        if row.ndim != 1 or row.shape[0] != self._store.dim:
            raise ValueError(
                f"expected a ({self._store.dim},) query row, got {row.shape}"
            )
        require_bipolar(row)  # one bad row would fail its whole wave
        timeout = self._resolve_timeout(timeout_ms)
        # Deadline state shared with the timer callback: which admission
        # waiter / result future currently carries this request, so
        # _expire can fail it at whatever stage the deadline catches it.
        state = {"key": key, "waiter": None, "future": None, "expired": False}
        timer = None
        if timeout is not None:
            timer = self._loop.call_later(
                timeout / 1000.0, self._expire, state
            )
        try:
            await self._admit(state)
            if state["expired"]:
                # Deadline hit between the waiter's wake (which consumed
                # a freed slot) and this resumption: hand the token on,
                # exactly like the _closed re-check below.
                self._wake_waiters()
                self._stats["timed_out"] += 1
                raise ServerTimeout(
                    f"request deadline ({timeout} ms) expired while "
                    f"awaiting admission"
                )
            if self._closed:
                # stop() can interleave between admission and this enqueue
                # whenever admission yields to the loop (a parked waiter
                # resumes on a later tick; subclassed/instrumented admission
                # may add further suspension points). Enqueueing now would
                # strand the request in a fresh group that no drain wave ever
                # flushes, so fail it and hand the admitted slot to a
                # successor instead.
                self._wake_waiters()
                raise ServerClosed(
                    "StoreServer stopped while the request was being admitted"
                )
            self._stats["requests"] += 1
            self._pending += 1
            if self._pending > self._stats["queue_high_water"]:
                self._stats["queue_high_water"] = self._pending
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = {"futures": [], "queries": []}
                self._loop.call_soon(self._dispatch_idle)
            future = self._loop.create_future()
            state["future"] = future
            group["futures"].append(future)
            group["queries"].append(row)
            if len(group["futures"]) >= self.max_batch:
                self._flush(key, "size")
            try:
                return await future
            except asyncio.CancelledError:
                self._stats["cancelled"] += 1
                self._discard_queued(key, future)
                raise
        finally:
            if timer is not None:
                timer.cancel()

    def _expire(self, state):
        """Deadline timer callback: fail the request wherever it stands.

        Three stages, one outcome (:exc:`ServerTimeout` to this caller
        only):

        - **parked at admission** — the waiter leaves the FIFO and fails
          (it held no slot, so none is released);
        - **queued in a group** — the request leaves its group exactly
          like a cancellation, freeing its admission slot immediately;
        - **riding a dispatched wave** — the result future fails now;
          the wave completes for its co-batched rows (demux skips done
          futures) and releases every slot it dispatched with, this
          one included.
        """
        state["expired"] = True
        waiter = state["waiter"]
        if waiter is not None and not waiter.done():
            if waiter in self._waiters:
                self._waiters.remove(waiter)
            self._stats["timed_out"] += 1
            waiter.set_exception(
                ServerTimeout("request deadline expired while awaiting admission")
            )
            return
        future = state["future"]
        if future is None or future.done():
            return  # resolved first (or _submit will notice "expired")
        self._discard_queued(state["key"], future)
        self._stats["timed_out"] += 1
        future.set_exception(
            ServerTimeout("request deadline expired before its wave resolved")
        )

    async def _admit(self, state=None):
        """Block (or reject) until the server is under ``max_pending``."""
        while self._pending >= self.max_pending:
            if self.admission == "reject":
                self._stats["rejected"] += 1
                raise ServerOverloaded(
                    f"StoreServer has {self._pending} pending requests "
                    f"(max_pending={self.max_pending})"
                )
            waiter = self._loop.create_future()
            if state is not None:
                state["waiter"] = waiter
            self._waiters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                elif waiter.done() and not waiter.cancelled():
                    # Woken (its wake consumed a freed slot) then
                    # cancelled before resuming: the wake token would
                    # vanish with this caller and the FIFO behind it
                    # would starve until some later release — pass the
                    # token to the next parked waiter instead.
                    self._wake_waiters()
                raise
            finally:
                if state is not None:
                    state["waiter"] = None
            if self._closed:
                raise ServerClosed("StoreServer stopped while awaiting admission")

    def _discard_queued(self, key, future):
        """Drop a cancelled or expired request that is still queued
        (frees its slot).

        A request already dispatched in a wave is not here anymore; its
        wave completes normally and skips the done future.
        """
        group = self._groups.get(key)
        if group is None or future not in group["futures"]:
            return
        index = group["futures"].index(future)
        del group["futures"][index]
        del group["queries"][index]
        if not group["futures"]:
            del self._groups[key]
        self._release(1)

    # -- coalescing core ---------------------------------------------------- #

    def _dispatch_idle(self):
        """Hand the free dispatch thread the oldest queued group.

        Runs a tick after a group forms and when a wave or mutation
        finishes; groups that form while a call is in flight coalesce
        until then.
        """
        while self._groups and not self._inflight:
            self._flush(next(iter(self._groups)), "idle")

    def _flush(self, key, trigger):
        """Move one group out of the queue and dispatch it as a wave."""
        group = self._groups.pop(key)
        live = [
            (future, row)
            for future, row in zip(group["futures"], group["queries"])
            if not future.done()
        ]
        dead = len(group["futures"]) - len(live)
        if dead:
            self._release(dead)
        if not live:
            return
        self._stats["waves"] += 1
        self._stats["flushed_" + trigger] += 1
        self._stats["batched_requests"] += len(live)
        batch = np.stack([row for _, row in live])
        wave = self._loop.run_in_executor(self._pool, self._execute, key, batch)
        self._inflight.add(wave)
        wave.add_done_callback(functools.partial(
            self._demux, [future for future, _ in live]))

    def _demux(self, futures, wave):
        """Resolve a finished wave's callers and hand the thread on."""
        self._inflight.discard(wave)
        error = wave.exception()
        if error is not None:  # demux the failure to every caller
            for future in futures:
                if not future.done():
                    future.set_exception(error)
        else:
            for future, result in zip(futures, wave.result()):
                if not future.done():  # cancelled mid-wave: skip
                    future.set_result(result)
        self._release(len(futures))
        self._dispatch_idle()

    def _execute(self, key, batch):
        """One batched kernel call (dispatch thread); returns rows."""
        kind = key[0]
        if kind == "cleanup":
            labels, sims = self._store.cleanup_batch(batch)
            return [(label, float(sim)) for label, sim in zip(labels, sims)]
        if kind == "topk":
            return self._store.topk_batch(batch, k=key[1])
        return list(self._store.similarities_batch(batch))

    def _release(self, count):
        """Free ``count`` pending slots and wake that many parked waiters."""
        self._pending -= count
        self._wake_waiters()

    def _wake_waiters(self):
        """Wake one parked waiter per currently-free slot (FIFO).

        Each wake hands its slot to exactly one waiter; a woken waiter
        that never claims it (cancelled before resuming, or refused at
        the post-admission ``_closed`` re-check) must call this again to
        pass the token on.
        """
        free = self.max_pending - self._pending
        while self._waiters and free > 0:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                free -= 1
