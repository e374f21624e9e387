"""Serving-layer agreement: micro-batched answers are direct answers.

The decision contract of :class:`repro.hdc.store.serving.StoreServer`
(the serving rung of the store ladder): a request served through a
coalesced wave must be *bit-identical* to the same request issued alone
against the :class:`AssociativeStore` — across executor kinds, backends,
batch compositions, tie-heavy inputs, cancellation mid-wave, and
backpressure. The suite also pins the server's operational semantics:
the work-conserving flush rule and flush-trigger attribution, admission
control (wait and reject), graceful drain on shutdown, and slot
accounting under cancellation.

No pytest-asyncio: each test drives its own ``asyncio.run``.
"""

import asyncio
from functools import partial

import numpy as np
import pytest

from repro.hdc import random_bipolar
from repro.hdc.store import (
    AssociativeStore,
    ServerClosed,
    ServerOverloaded,
    ServerTimeout,
    StoreServer,
)
from store_helpers import BACKENDS, EXECUTORS, fresh_memory, noisy_queries
from store_helpers import GatedStore as _GatedStore
from store_helpers import build_store as _store

pytestmark = pytest.mark.usefixtures("strict_loop_exceptions")
_noisy_queries = partial(noisy_queries, num=24, flip_fraction=0.15)


async def _until(condition, timeout=10.0):
    """Poll ``condition`` between loop ticks; fail rather than hang."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class _GatedDelete(_GatedStore):
    """A gated store whose ``delete`` is held too; ``calls`` records when
    each delete enters and when it returns."""

    def delete(self, labels):
        self._gate(("delete", *labels))
        result = self._inner.delete(labels)
        self.calls.append(("returned", *labels))
        return result


class TestServedAgreement:
    """Concurrent single requests == sequential direct calls, bit for bit."""

    @pytest.mark.parametrize("shards", (1, 3))
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_concurrent_requests_bit_identical(self, backend, executor, shards, rng):
        store, _, vectors = _store(rng, backend=backend, shards=shards, executor=executor)
        queries = _noisy_queries(vectors, rng)
        expected_cleanup = [store.cleanup(q) for q in queries]
        expected_topk = [store.topk(q, k=5) for q in queries]
        expected_sims = [store.similarities(q) for q in queries]

        async def main():
            async with StoreServer(store, max_batch=8) as srv:
                cleanup = asyncio.gather(*[srv.cleanup(q) for q in queries])
                topk = asyncio.gather(*[srv.topk(q, k=5) for q in queries])
                sims = asyncio.gather(*[srv.similarities(q) for q in queries])
                return await cleanup, await topk, await sims, srv.stats

        got_cleanup, got_topk, got_sims, stats = asyncio.run(main())
        assert got_cleanup == expected_cleanup
        assert got_topk == expected_topk
        for got, expected in zip(got_sims, expected_sims):
            assert np.array_equal(got, expected)
        # Coalescing actually happened and every request was counted.
        assert stats["requests"] == 3 * len(queries)
        assert stats["batched_requests"] == stats["requests"]
        assert 0 < stats["waves"] < stats["requests"]
        assert stats["mean_batch_size"] > 1.0
        assert (
            stats["flushed_size"] + stats["flushed_idle"]
            + stats["flushed_drain"] == stats["waves"]
        )
        store.memory.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_tie_heavy_duplicates_resolve_identically(self, executor, rng):
        """Duplicate vectors across shards: every wave composition must
        reproduce the global insertion-order tie-break, repeatedly."""
        dim = 128
        base = random_bipolar(3, dim, rng)
        labels = [f"dup{i}" for i in range(24)]
        vectors = np.tile(base, (8, 1))
        store = AssociativeStore.from_vectors(
            labels, vectors, backend="packed", shards=8, workers=2,
            executor=executor,
        )
        reference = fresh_memory(labels, vectors)
        queries = np.concatenate([base, base])
        expected_cleanup = [reference.cleanup(q) for q in queries]
        expected_topk = [reference.topk(q, k=24) for q in queries]

        async def main():
            async with StoreServer(store, max_batch=4) as srv:
                for _ in range(5):  # scheduling varies run to run
                    cleanup = await asyncio.gather(
                        *[srv.cleanup(q) for q in queries])
                    topk = await asyncio.gather(
                        *[srv.topk(q, k=24) for q in queries])
                    assert cleanup == expected_cleanup
                    assert topk == expected_topk

        asyncio.run(main())
        store.memory.close()

    def test_mixed_kinds_and_ks_batch_separately_but_agree(self, rng):
        """Interleaved cleanup / topk(k=3) / topk(k=7) / similarities:
        groups must never mix kinds or ks, and all answers must agree."""
        store, _, vectors = _store(rng)
        queries = _noisy_queries(vectors, rng, num=8)

        async def main():
            async with StoreServer(store, max_batch=32) as srv:
                jobs = []
                for q in queries:
                    jobs.append(srv.cleanup(q))
                    jobs.append(srv.topk(q, k=3))
                    jobs.append(srv.topk(q, k=7))
                    jobs.append(srv.similarities(q))
                return await asyncio.gather(*jobs), srv.stats

        results, stats = asyncio.run(main())
        for i, q in enumerate(queries):
            assert results[4 * i] == store.cleanup(q)
            assert results[4 * i + 1] == store.topk(q, k=3)
            assert results[4 * i + 2] == store.topk(q, k=7)
            assert np.array_equal(results[4 * i + 3], store.similarities(q))
        assert stats["waves"] >= 4  # one per (kind, k) group at least
        store.memory.close()


class TestWorkConserving:
    """The idle flush trigger: a group leaves as soon as the dispatch
    thread is free, so only what queued while it was busy coalesces —
    an idle server never waits, and no timer is armed."""

    def test_lone_request_enters_the_kernel_within_two_ticks(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)
        gated = _GatedStore(store)
        armed = []

        def recording(schedule):
            def wrapper(*args, **kwargs):
                armed.append(args)
                return schedule(*args, **kwargs)
            return wrapper

        async def main():
            loop = asyncio.get_running_loop()
            loop.call_later = recording(loop.call_later)
            loop.call_at = recording(loop.call_at)
            async with StoreServer(gated, max_batch=64) as srv:
                request = asyncio.ensure_future(srv.cleanup(vectors[0]))
                await asyncio.sleep(0)  # tick 0: the request enqueues
                await asyncio.sleep(0)  # tick 1: its group flushes
                assert srv.stats["flushed_idle"] == 1
                await asyncio.sleep(0)  # tick 2: the wave calls the kernel
                assert gated.entered.wait(timeout=5)
                gated.release.set()
                return await request

        assert asyncio.run(main()) == store.cleanup(vectors[0])
        assert armed == []  # no flush timer, at any point

    def test_arrivals_during_a_busy_wave_ride_one_next_wave(self, rng):
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        queries = _noisy_queries(vectors, rng, num=6)

        async def main():
            async with StoreServer(gated, max_batch=64) as srv:
                first = asyncio.ensure_future(srv.cleanup(vectors[0]))
                await _until(gated.entered.is_set)  # the only worker is busy
                srv.reset_stats()
                tasks = []
                for q in queries:  # one arrival per loop tick
                    tasks.append(asyncio.ensure_future(srv.cleanup(q)))
                    await asyncio.sleep(0)
                assert srv.stats["waves"] == 0  # all queued, none flushed
                gated.release.set()
                await first
                # the finished wave hands its worker on: no request strands
                results = await asyncio.wait_for(asyncio.gather(*tasks), 10)
                return results, srv.stats

        results, stats = asyncio.run(main())
        assert results == [store.cleanup(q) for q in queries]
        assert stats["waves"] == stats["flushed_idle"] == 1
        assert stats["batched_requests"] == len(queries)
        store.memory.close()

    def test_same_tick_burst_coalesces(self, rng):
        store, _, vectors = _store(rng)
        queries = _noisy_queries(vectors, rng, num=12)

        async def main():
            async with StoreServer(store, max_batch=64) as srv:
                results = await asyncio.gather(
                    *[srv.topk(q, k=3) for q in queries])
                return results, srv.stats

        results, stats = asyncio.run(main())
        assert results == [store.topk(q, k=3) for q in queries]
        assert stats["waves"] == stats["flushed_idle"] == 1
        assert stats["batched_requests"] == len(queries)
        store.memory.close()

    def test_queued_groups_dispatch_oldest_first(self, rng):
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)

        async def main():
            async with StoreServer(gated, max_batch=64) as srv:
                first = asyncio.ensure_future(srv.cleanup(vectors[0]))
                await _until(gated.entered.is_set)  # the only worker is busy
                queued = []
                for request in (lambda: srv.topk(vectors[1], k=7),
                                lambda: srv.similarities(vectors[2]),
                                lambda: srv.cleanup(vectors[3]),
                                lambda: srv.topk(vectors[4], k=2)):
                    queued.append(asyncio.ensure_future(request()))
                    await asyncio.sleep(0)
                gated.release.set()
                await asyncio.wait_for(asyncio.gather(first, *queued), 10)

        asyncio.run(main())
        assert gated.calls == ["cleanup", ("topk", 7), "similarities",
                               "cleanup", ("topk", 2)]
        store.memory.close()

    def test_reads_during_a_delete_ride_one_wave_after_it(self, rng):
        """A running mutation holds the worker too: reads arriving while
        it commits queue, then ride one wave against the new snapshot."""
        store, _, vectors = _store(rng, items=24, dim=128)
        queries = _noisy_queries(vectors, rng, num=5)
        gated = _GatedDelete(store)

        async def main():
            async with StoreServer(gated, max_batch=64) as srv:
                mutation = asyncio.ensure_future(srv.delete(["item0"]))
                await _until(gated.entered.is_set)  # the delete is running
                reads = []
                for q in queries:  # one arrival per loop tick
                    reads.append(asyncio.ensure_future(srv.topk(q, k=5)))
                    await asyncio.sleep(0)
                assert srv.stats["waves"] == 0  # all queued, none flushed
                gated.release.set()
                await mutation
                results = await asyncio.wait_for(asyncio.gather(*reads), 10)
                return results, srv.stats

        results, stats = asyncio.run(main())
        assert results == [store.topk(q, k=5) for q in queries]
        assert all(label != "item0" for row in results for label, _ in row)
        assert stats["waves"] == stats["flushed_idle"] == 1
        assert stats["batched_requests"] == len(queries)
        assert gated.calls == [("delete", "item0"), ("returned", "item0"),
                               ("topk", 5)]
        store.memory.close()

    def test_reads_filling_a_wave_during_a_delete_flush_but_run_after_it(
            self, rng):
        """The size trigger during a mutation: reads that reach
        ``max_batch`` while a delete is inside the store flush at once,
        but their wave enters the store only after the delete returns,
        so it answers against the new snapshot."""
        store, _, vectors = _store(rng, items=24, dim=128)
        queries = _noisy_queries(vectors, rng, num=4)
        gated = _GatedDelete(store)

        async def main():
            async with StoreServer(gated, max_batch=len(queries)) as srv:
                try:
                    mutation = asyncio.ensure_future(srv.delete(["item0"]))
                    await _until(gated.entered.is_set)  # the delete is running
                    reads = [asyncio.ensure_future(srv.topk(q, k=5))
                             for q in queries]
                    await asyncio.sleep(0)  # all four enqueue: the group fills
                    assert srv.stats["waves"] == srv.stats["flushed_size"] == 1
                    await asyncio.sleep(0.1)
                    assert gated.calls == [("delete", "item0")]
                finally:
                    gated.release.set()
                await mutation
                return await asyncio.wait_for(asyncio.gather(*reads), 10)

        results = asyncio.run(main())
        assert gated.calls == [("delete", "item0"), ("returned", "item0"),
                               ("topk", 5)]
        assert results == [store.topk(q, k=5) for q in queries]
        assert all(label != "item0" for row in results for label, _ in row)
        store.memory.close()


class TestCancellation:
    def test_cancel_mid_wave_leaves_the_rest_of_the_wave_intact(self, rng):
        """A request cancelled after its wave dispatched: the wave still
        completes, every other request gets its exact answer, the
        cancelled caller sees CancelledError, and the slots drain."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        queries = _noisy_queries(vectors, rng, num=3)
        expected = [store.cleanup(q) for q in queries]

        async def main():
            async with StoreServer(gated, max_batch=3) as srv:
                tasks = [asyncio.ensure_future(srv.cleanup(q)) for q in queries]
                # size trigger fires at 3: wait for the wave to enter the
                # kernel, then cancel the middle request mid-wave
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                tasks[1].cancel()
                gated.release.set()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                assert srv.pending == 0  # cancelled slot was released too
                return results, srv.stats

        results, stats = asyncio.run(main())
        assert results[0] == expected[0]
        assert isinstance(results[1], asyncio.CancelledError)
        assert results[2] == expected[2]
        assert stats["cancelled"] == 1
        assert stats["flushed_size"] == 1
        store.memory.close()

    def test_cancel_while_queued_frees_the_slot_before_the_flush(self, rng):
        """A request cancelled while queued behind a busy worker leaves
        the queue immediately; the survivors ride the next wave and
        answer exactly."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        queries = _noisy_queries(vectors, rng, num=3)
        expected = [store.cleanup(q) for q in queries]

        async def main():
            async with StoreServer(gated, max_batch=64) as srv:
                held = asyncio.ensure_future(srv.topk(vectors[0]))
                while not gated.entered.is_set():  # the only worker is busy
                    await asyncio.sleep(0.001)
                srv.reset_stats()
                tasks = [asyncio.ensure_future(srv.cleanup(q)) for q in queries]
                await asyncio.sleep(0)  # let all three enqueue
                assert srv.pending == 1 + 3
                tasks[0].cancel()
                await asyncio.sleep(0)  # cancellation lands before any flush
                assert srv.pending == 1 + 2
                gated.release.set()
                await held
                results = await asyncio.gather(*tasks, return_exceptions=True)
                return results, srv.stats

        results, stats = asyncio.run(main())
        assert isinstance(results[0], asyncio.CancelledError)
        assert results[1:] == expected[1:]
        assert stats["cancelled"] == 1
        assert stats["flushed_idle"] == 1
        assert stats["batched_requests"] == 2  # the cancelled row never ran
        store.memory.close()

    def test_cancelling_every_queued_request_dissolves_the_group(self, rng):
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)

        async def main():
            async with StoreServer(gated, max_batch=64) as srv:
                held = asyncio.ensure_future(srv.topk(vectors[2]))
                while not gated.entered.is_set():  # the only worker is busy
                    await asyncio.sleep(0.001)
                srv.reset_stats()
                task = asyncio.ensure_future(srv.cleanup(vectors[0]))
                await asyncio.sleep(0)
                task.cancel()
                await asyncio.sleep(0)
                assert srv.pending == 1  # the held wave's request alone
                gated.release.set()
                assert await held == store.topk(vectors[2])
                assert srv.stats["waves"] == 0  # nothing left to dispatch
                # ...and the server still serves fresh requests afterwards
                assert await srv.cleanup(vectors[1]) == store.cleanup(vectors[1])

        asyncio.run(main())
        store.memory.close()


class TestBackpressure:
    def test_wait_admission_bounds_the_queue_and_loses_nothing(self, rng):
        """admission='wait': a burst far over max_pending completes in
        full, bit-identically, with the high-water mark respecting the
        bound."""
        store, _, vectors = _store(rng)
        queries = _noisy_queries(vectors, rng, num=64)
        expected = [store.cleanup(q) for q in queries]

        async def main():
            async with StoreServer(store, max_batch=4, max_pending=8) as srv:
                results = await asyncio.gather(
                    *[srv.cleanup(q) for q in queries])
                return results, srv.stats

        results, stats = asyncio.run(main())
        assert results == expected
        assert stats["queue_high_water"] <= 8
        assert stats["rejected"] == 0
        store.memory.close()

    def test_reject_admission_raises_overloaded_and_recovers(self, rng):
        """admission='reject': requests beyond max_pending fail fast with
        ServerOverloaded while admitted ones still answer exactly."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        queries = _noisy_queries(vectors, rng, num=6)
        expected = [store.cleanup(q) for q in queries]

        async def main():
            async with StoreServer(gated, max_batch=2, max_pending=4,
                                   admission="reject") as srv:
                tasks = [asyncio.ensure_future(srv.cleanup(q))
                         for q in queries[:4]]
                while not gated.entered.is_set():  # first wave is in flight
                    await asyncio.sleep(0.001)
                with pytest.raises(ServerOverloaded):
                    await srv.cleanup(queries[4])
                assert srv.stats["rejected"] == 1
                gated.release.set()
                admitted = await asyncio.gather(*tasks)
                # capacity is back: the previously rejected query now fits
                retried = await srv.cleanup(queries[4])
                return admitted, retried

        admitted, retried = asyncio.run(main())
        assert admitted == expected[:4]
        assert retried == expected[4]
        store.memory.close()


class TestShutdown:
    def test_stop_drains_queued_and_inflight_requests(self, rng):
        """Graceful shutdown: accepted requests all resolve (drain wave),
        and requests after stop() raise ServerClosed."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        queries = _noisy_queries(vectors, rng, num=5)
        expected = [store.cleanup(q) for q in queries]

        async def main():
            srv = await StoreServer(gated, max_batch=3).start()
            tasks = [asyncio.ensure_future(srv.cleanup(q)) for q in queries]
            while not gated.entered.is_set():  # wave of 3 dispatched, 2 queued
                await asyncio.sleep(0.001)
            stopper = asyncio.ensure_future(srv.stop())
            await asyncio.sleep(0)  # stop() flushed the drain wave
            gated.release.set()
            results = await asyncio.gather(*tasks)
            await stopper
            assert srv.stats["flushed_drain"] == 1
            with pytest.raises(ServerClosed):
                await srv.cleanup(queries[0])
            return results

        assert asyncio.run(main()) == expected
        store.memory.close()

    def test_stop_fails_parked_admission_waiters(self, rng):
        """A caller parked on admission when the server stops gets
        ServerClosed — never a hang, never a silent drop."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)

        async def main():
            async with StoreServer(gated, max_batch=1, max_pending=1) as srv:
                first = asyncio.ensure_future(srv.cleanup(vectors[0]))
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                parked = asyncio.ensure_future(srv.cleanup(vectors[1]))
                await asyncio.sleep(0)  # parked on the admission FIFO
                stopper = asyncio.ensure_future(srv.stop())
                gated.release.set()
                results = await asyncio.gather(first, parked, stopper,
                                               return_exceptions=True)
                return results

        first, parked, _ = asyncio.run(main())
        assert first == store.cleanup(vectors[0])
        assert isinstance(parked, ServerClosed)
        store.memory.close()

    def test_stop_is_idempotent_and_start_after_stop_refuses(self, rng):
        store, _, _ = _store(rng, shards=1, items=4)

        async def main():
            srv = StoreServer(store)
            await srv.start()
            await srv.stop()
            await srv.stop()  # idempotent
            with pytest.raises(ServerClosed):
                await srv.start()

        asyncio.run(main())


class TestAdmissionShutdownRaces:
    """Regression pins for the admission/shutdown races: the wake-token
    loss on cancel-after-wake and the stop-vs-enqueue window."""

    def test_cancel_after_wake_passes_token_to_next_waiter(self, rng):
        """A parked waiter woken by a freed slot, then cancelled before
        it resumes, must hand the wake token to the next waiter in the
        FIFO — pre-fix the token vanished with the cancelled caller and
        the queue behind it starved until some unrelated later release.

        The interleave is built from plain event-loop FIFO order: the
        cancellation of a queued request releases its slot and wakes
        ``woken`` synchronously, and the test's own wakeup (scheduled
        first) runs before ``woken`` resumes — exactly the window where
        the second cancel must not swallow the token."""
        store, _, vectors = _store(rng, shards=1, items=8)
        gated = _GatedStore(store)
        expected = [store.cleanup(vectors[1]), store.topk(vectors[0], k=5),
                    store.topk(vectors[1], k=5), store.cleanup(vectors[3])]

        async def main():
            async with StoreServer(gated, max_batch=3,
                                   max_pending=5) as srv:
                busy = asyncio.ensure_future(srv.similarities(vectors[4]))
                while not gated.entered.is_set():  # the only worker is busy
                    await asyncio.sleep(0.001)
                held = [asyncio.ensure_future(srv.cleanup(vectors[0])),
                        asyncio.ensure_future(srv.cleanup(vectors[1])),
                        asyncio.ensure_future(srv.topk(vectors[0])),
                        asyncio.ensure_future(srv.topk(vectors[1]))]
                await asyncio.sleep(0)
                # two part-filled groups queued behind it, at capacity
                assert srv.pending == 5
                assert srv.stats["waves"] == 1
                woken = asyncio.ensure_future(srv.cleanup(vectors[2]))
                starved = asyncio.ensure_future(srv.cleanup(vectors[3]))
                await asyncio.sleep(0)  # both parked on the admission FIFO
                held[0].cancel()        # frees one slot -> wakes `woken`
                await asyncio.sleep(0)  # wake delivered, `woken` not resumed
                woken.cancel()          # cancel-after-wake
                await asyncio.gather(held[0], woken, return_exceptions=True)
                await asyncio.sleep(0)  # the passed-on token admits `starved`
                assert srv.pending == 5, "wake token was lost"
                # only held[0] counts: `woken` never got past admission
                assert srv.stats["cancelled"] == 1
                gated.release.set()
                await busy
            # the freed worker served the queued groups (leaving the
            # context drains any that were still queued)
            return await asyncio.gather(held[1], held[2], held[3], starved)

        assert asyncio.run(main()) == expected

    def test_stop_between_admission_and_enqueue_fails_closed(self, rng):
        """stop() landing after a request is admitted but before it
        enqueues must fail it with ServerClosed — pre-fix it enqueued
        into a fresh group that no drain wave would ever flush and hung
        until its (arbitrarily distant) deadline. The subclass holds
        open the loop tick a woken admission waiter pays between its
        wake and the enqueue."""
        store, _, vectors = _store(rng, shards=1, items=8)

        class _GatedAdmission(StoreServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.admitted = asyncio.Event()
                self.proceed = asyncio.Event()

            async def _admit(self, state=None):
                await super()._admit(state)
                self.admitted.set()
                await self.proceed.wait()

        async def main():
            async with _GatedAdmission(store, max_batch=64) as srv:
                request = asyncio.ensure_future(srv.cleanup(vectors[0]))
                await srv.admitted.wait()  # admitted, not yet enqueued
                stopper = asyncio.ensure_future(srv.stop())
                await asyncio.sleep(0)     # stop() completed: nothing queued
                assert srv.closed
                srv.proceed.set()
                with pytest.raises(ServerClosed):
                    await asyncio.wait_for(request, timeout=5.0)
                assert srv.pending == 0
                assert srv.stats["requests"] == 0  # never counted as admitted
                await stopper

        asyncio.run(main())


class TestDeadlines:
    """Per-request deadlines: a timed-out request fails alone with
    ServerTimeout — its micro-batch wave, its queue slot, and the
    server's liveness are all unaffected."""

    def test_timeout_validation(self, rng):
        store, _, vectors = _store(rng, shards=1, items=4)
        with pytest.raises(ValueError, match="default_timeout_ms"):
            StoreServer(store, default_timeout_ms=0)
        with pytest.raises(ValueError, match="default_timeout_ms"):
            StoreServer(store, default_timeout_ms=-5)

        async def main():
            async with StoreServer(store) as srv:
                with pytest.raises(ValueError, match="timeout_ms"):
                    await srv.cleanup(vectors[0], timeout_ms=0)
                with pytest.raises(ValueError, match="timeout_ms"):
                    await srv.topk(vectors[0], timeout_ms=-1)
                assert srv.pending == 0
                assert srv.stats["timed_out"] == 0

        asyncio.run(main())

    def test_timeout_while_queued_frees_the_slot(self, rng):
        """A deadline firing while the request is queued behind a busy
        worker: the request fails with ServerTimeout, its slot frees at
        once, its group never dispatches, and the server keeps serving."""
        store, _, vectors = _store(rng, shards=1, items=8)
        gated = _GatedStore(store)

        async def main():
            async with StoreServer(gated, max_batch=64) as srv:
                held = asyncio.ensure_future(srv.topk(vectors[2]))
                while not gated.entered.is_set():  # the only worker is busy
                    await asyncio.sleep(0.001)
                with pytest.raises(ServerTimeout):
                    await srv.cleanup(vectors[0], timeout_ms=5.0)
                assert srv.pending == 1  # the held wave's request alone
                assert srv.stats["timed_out"] == 1
                gated.release.set()
                assert await held == store.topk(vectors[2])
                assert srv.stats["waves"] == 1  # the group dissolved
                answer = await srv.cleanup(vectors[1], timeout_ms=5000.0)
                assert answer == store.cleanup(vectors[1])

        asyncio.run(main())

    def test_timeout_in_wave_does_not_poison_the_batch(self, rng):
        """Expiry while the request's wave is mid-kernel: the timed-out
        caller gets ServerTimeout, the co-batched request in the *same
        wave* still receives its exact answer, and the slots drain."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        expected = store.cleanup(vectors[1])

        async def main():
            async with StoreServer(gated, max_batch=2) as srv:
                fast = asyncio.ensure_future(
                    srv.cleanup(vectors[0], timeout_ms=20.0))
                slow = asyncio.ensure_future(srv.cleanup(vectors[1]))
                # size trigger at 2: the wave dispatches and parks on the
                # gate; the 20 ms deadline fires while it is in flight
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                with pytest.raises(ServerTimeout):
                    await fast
                gated.release.set()
                assert await slow == expected
                assert srv.pending == 0
                assert srv.stats["timed_out"] == 1
                assert srv.stats["waves"] == 1  # one wave, not poisoned

        asyncio.run(main())
        store.memory.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", (1, 4))
    def test_bad_query_fails_alone_not_its_wave(self, backend, shards, rng):
        """Five valid top-k calls and one 0.5-valued query in the same
        tick: the bad one is refused at admission, so the wave it would
        have joined (whose batch kernel refuses a whole batch over one
        non-bipolar row) answers the other five exactly."""
        store, _, vectors = _store(rng, backend=backend, shards=shards)
        expected = [store.topk(vectors[i], k=3) for i in range(5)]

        async def main():
            async with StoreServer(store) as srv:
                calls = [srv.topk(vectors[i], k=3) for i in range(5)]
                calls.insert(2, srv.topk(np.full(store.dim, 0.5), k=3))
                answers = await asyncio.gather(*calls, return_exceptions=True)
                refused = answers.pop(2)
                assert isinstance(refused, ValueError)
                assert "bipolar" in str(refused)
                assert answers == expected
                assert srv.pending == 0

        asyncio.run(main())
        store.memory.close()

    def test_timeout_parked_on_admission(self, rng):
        """A deadline expiring while the caller is still parked on the
        admission FIFO: ServerTimeout, the FIFO entry is removed, and
        the in-flight request is untouched."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        expected = store.cleanup(vectors[0])

        async def main():
            async with StoreServer(gated, max_batch=1, max_pending=1) as srv:
                first = asyncio.ensure_future(srv.cleanup(vectors[0]))
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                with pytest.raises(ServerTimeout):
                    await srv.cleanup(vectors[1], timeout_ms=15.0)
                assert srv.stats["timed_out"] == 1
                gated.release.set()
                assert await first == expected
                # capacity intact: a fresh request is admitted and served
                assert await srv.cleanup(vectors[2]) == store.cleanup(
                    vectors[2])

        asyncio.run(main())
        store.memory.close()

    def test_default_timeout_applies_and_per_request_overrides(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)
        gated = _GatedStore(store)

        async def main():
            async with StoreServer(gated, max_batch=64,
                                   default_timeout_ms=5.0) as srv:
                held = asyncio.ensure_future(
                    srv.topk(vectors[2], timeout_ms=5000.0))
                while not gated.entered.is_set():  # the only worker is busy
                    await asyncio.sleep(0.001)
                with pytest.raises(ServerTimeout):
                    await srv.cleanup(vectors[0])  # inherits the default
                # a generous per-request override outlives 30 ms queued
                override = asyncio.ensure_future(
                    srv.cleanup(vectors[1], timeout_ms=5000.0))
                await asyncio.sleep(0.03)
                gated.release.set()
                assert await override == store.cleanup(vectors[1])
                assert await held == store.topk(vectors[2])
                assert srv.stats["timed_out"] == 1

        asyncio.run(main())

    def test_deadline_during_drain_is_timeout_not_closed(self, rng):
        """Deadlines outrank shutdown: a request whose deadline expires
        while its wave drains inside stop() raises ServerTimeout — not
        ServerClosed — and the drain still completes cleanly."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        expected = store.cleanup(vectors[1])

        async def main():
            srv = await StoreServer(gated, max_batch=2).start()
            timed = asyncio.ensure_future(
                srv.cleanup(vectors[0], timeout_ms=30.0))
            other = asyncio.ensure_future(srv.cleanup(vectors[1]))
            while not gated.entered.is_set():  # wave of 2 in flight
                await asyncio.sleep(0.001)
            stopper = asyncio.ensure_future(srv.stop())
            await asyncio.sleep(0.05)  # deadline fires mid-drain
            with pytest.raises(ServerTimeout):
                await timed
            gated.release.set()
            assert await other == expected
            await stopper
            assert srv.stats["timed_out"] == 1

        asyncio.run(main())
        store.memory.close()


class TestRestartability:
    def test_start_after_stop_leaves_no_half_initialized_pool(self, rng):
        store, _, _ = _store(rng, shards=1, items=4)

        async def main():
            srv = StoreServer(store)
            await srv.start()
            await srv.stop()
            with pytest.raises(ServerClosed):
                await srv.start()
            assert srv.started and srv.closed
            assert srv._pool is None  # refused before any pool was built
            # stop before ever starting is clean, and pins start shut too
            fresh = StoreServer(store)
            await fresh.stop()
            assert not fresh.started and fresh.closed
            with pytest.raises(ServerClosed):
                await fresh.start()
            assert fresh._pool is None

        asyncio.run(main())

    def test_concurrent_stops_during_inflight_drain(self, rng):
        """Two stop() calls racing an in-flight wave: both complete, the
        wave's requests all resolve, and a third stop stays a no-op."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        expected = [store.cleanup(q) for q in vectors[:3]]

        async def main():
            srv = await StoreServer(gated, max_batch=3).start()
            tasks = [asyncio.ensure_future(srv.cleanup(q))
                     for q in vectors[:3]]
            while not gated.entered.is_set():  # wave of 3 dispatched
                await asyncio.sleep(0.001)
            stoppers = [asyncio.ensure_future(srv.stop()),
                        asyncio.ensure_future(srv.stop())]
            await asyncio.sleep(0.01)  # both stops await the same wave
            gated.release.set()
            await asyncio.gather(*stoppers)
            results = await asyncio.gather(*tasks)
            await srv.stop()  # already stopped: plain no-op
            return results

        assert asyncio.run(main()) == expected
        store.memory.close()

    def test_reset_stats_mid_wave_keeps_epochs_separate(self, rng):
        """reset_stats concurrent with an in-flight wave: the wave was
        counted when it flushed, so the closing snapshot keeps it and
        its late completion leaks no increments into the new epoch."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)

        async def main():
            async with StoreServer(gated, max_batch=2) as srv:
                tasks = [asyncio.ensure_future(srv.cleanup(q))
                         for q in vectors[:2]]
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                snapshot = srv.reset_stats()  # mid-wave
                assert snapshot["requests"] == 2
                assert snapshot["waves"] == 1
                assert snapshot["flushed_size"] == 1
                assert snapshot["batched_requests"] == 2
                assert snapshot["queue_depth"] == 2  # still in flight
                gated.release.set()
                await asyncio.gather(*tasks)
                fresh = srv.stats
                assert fresh["requests"] == 0
                assert fresh["waves"] == 0
                assert fresh["batched_requests"] == 0
                assert fresh["flushed_size"] == 0
                assert fresh["queue_depth"] == 0

        asyncio.run(main())
        store.memory.close()


class TestValidationAndStats:
    def test_constructor_validation(self, rng):
        store, _, _ = _store(rng, shards=1, items=4)
        with pytest.raises(ValueError, match="max_batch"):
            StoreServer(store, max_batch=0)
        with pytest.raises(ValueError, match="max_pending"):
            StoreServer(store, max_batch=8, max_pending=4)
        with pytest.raises(ValueError, match="admission"):
            StoreServer(store, admission="drop-newest")

    def test_requests_validate_before_queueing(self, rng):
        store, _, vectors = _store(rng, shards=1, items=4)

        async def main():
            async with StoreServer(store) as srv:
                with pytest.raises(ValueError, match="query row"):
                    await srv.cleanup(vectors[:2])  # a batch, not a row
                with pytest.raises(ValueError, match="query row"):
                    await srv.cleanup(vectors[0][:-1])  # wrong dim
                with pytest.raises(ValueError, match="k"):
                    await srv.topk(vectors[0], k=0)
                assert srv.pending == 0  # nothing leaked into the queue
                assert srv.stats["requests"] == 0

        asyncio.run(main())

    def test_unstarted_server_refuses_requests(self, rng):
        store, _, vectors = _store(rng, shards=1, items=4)
        srv = StoreServer(store)

        async def main():
            with pytest.raises(RuntimeError, match="not started"):
                await srv.cleanup(vectors[0])

        asyncio.run(main())

    def test_reset_stats_scopes_a_workload(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)

        async def main():
            async with StoreServer(store, max_batch=4) as srv:
                await asyncio.gather(*[srv.cleanup(q) for q in vectors])
                snapshot = srv.reset_stats()
                assert snapshot["requests"] == len(vectors)
                assert srv.stats["requests"] == 0
                await srv.cleanup(vectors[0])
                assert srv.stats["requests"] == 1

        asyncio.run(main())


class TestServedMutations:
    """The mutation barrier: served delete/upsert are atomic between
    waves — requests before see the old generation, requests after see
    the new one, and answers on both sides stay bit-identical to direct
    calls against the store in that state."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_served_mutation_history_bit_identical(self, executor, rng):
        store, _, vectors = _store(rng, executor=executor, items=24, dim=128)
        queries = _noisy_queries(vectors, rng, num=12)
        expected_before = [store.topk(q, k=5) for q in queries]
        batch = random_bipolar(2, 128, rng)

        async def main():
            async with StoreServer(store, max_batch=8) as srv:
                before = await asyncio.gather(
                    *[srv.topk(q, k=5) for q in queries])
                await srv.delete(["item3", "item17"])
                await srv.upsert(["item5", "new0"], batch)
                after = await asyncio.gather(
                    *[srv.topk(q, k=5) for q in queries])
                return before, after, srv.stats

        before, after, stats = asyncio.run(main())
        assert before == expected_before
        # the store now IS the post-mutation state: direct calls agree
        assert after == [store.topk(q, k=5) for q in queries]
        assert all(label not in ("item3", "item17")
                   for row in after for label, _ in row)
        assert stats["mutations"] == 2
        store.memory.close()

    def test_served_tie_break_moves_when_the_winner_is_deleted(self, rng):
        """Tie-heavy duplicates through the server: deleting the
        earliest-inserted winner promotes the next — served answers
        track the surviving insertion order exactly."""
        dim = 128
        base = random_bipolar(1, dim, rng)[0]
        labels = [f"dup{i}" for i in range(6)]
        store = AssociativeStore.from_vectors(
            labels, np.tile(base, (6, 1)), backend="packed", shards=3)

        async def main():
            async with StoreServer(store) as srv:
                first = await srv.cleanup(base)
                await srv.delete(["dup0"])
                second = await srv.cleanup(base)
                await srv.upsert(["dup1"], base[None])  # re-enroll: recency
                third = await srv.cleanup(base)
                ranked = await srv.topk(base, k=6)
                return first, second, third, ranked

        first, second, third, ranked = asyncio.run(main())
        assert first[0] == "dup0"
        assert second[0] == "dup1"  # next-earliest survivor wins
        assert third[0] == "dup2"  # re-enrolled dup1 lost its recency tie
        assert [label for label, _ in ranked][-1] == "dup1"
        store.memory.close()

    def test_mutation_parks_until_inflight_wave_finishes(self, rng):
        """A mutation arriving mid-wave waits for the wave to drain: the
        executing wave answers against the old generation, the mutation
        applies after, and parked queries then see the new one."""
        store, _, vectors = _store(rng, shards=1, items=8, dim=64)
        gated = _GatedStore(store)
        expected = store.topk(vectors[0], k=3)

        async def main():
            async with StoreServer(gated, max_batch=1) as srv:
                wave = asyncio.create_task(srv.topk(vectors[0], k=3))
                while not gated.entered.is_set():
                    await asyncio.sleep(0.005)
                mutation = asyncio.create_task(srv.delete(["item0"]))
                await asyncio.sleep(0.05)
                assert not mutation.done()  # parked behind the wave
                gated.release.set()
                answer = await wave
                await mutation
                assert srv.stats["mutations"] == 1
                return answer

        assert asyncio.run(main()) == expected
        assert "item0" not in store.labels  # the mutation did land

    def test_cancelled_delete_holds_the_barrier_until_the_store_returns(self, rng):
        """Cancelling a delete's caller cannot stop the store call on the
        dispatch thread, so the barrier stays up until it returns:
        neither a read nor a second delete may enter the store while the
        first delete is still applying, and the cancelled one still
        lands and counts."""
        store, _, vectors = _store(rng, items=24, dim=128)
        gated = _GatedDelete(store)

        async def main():
            async with StoreServer(gated) as srv:
                try:
                    first = asyncio.ensure_future(srv.delete(["item0"]))
                    await _until(gated.entered.is_set)
                    first.cancel()
                    await asyncio.sleep(0)
                    read = asyncio.ensure_future(srv.topk(vectors[3], k=5))
                    second = asyncio.ensure_future(srv.delete(["item1"]))
                    await asyncio.sleep(0.1)
                    assert gated.calls == [("delete", "item0")]
                finally:
                    gated.release.set()
                with pytest.raises(asyncio.CancelledError):
                    await first
                answer = await asyncio.wait_for(read, 10)
                await asyncio.wait_for(second, 10)
                return answer, srv.stats

        answer, stats = asyncio.run(main())
        assert gated.calls[:2] == [("delete", "item0"), ("returned", "item0")]
        assert sorted(gated.calls[2:], key=str) == [
            ("delete", "item1"), ("returned", "item1"), ("topk", 5)]
        assert all(label != "item0" for label, _ in answer)
        assert stats["mutations"] == 2  # the cancelled delete landed
        assert "item0" not in store.labels and "item1" not in store.labels
        store.memory.close()

    def test_mutations_refused_after_stop_and_before_start(self, rng):
        store, _, _ = _store(rng, shards=1, items=4)
        srv = StoreServer(store)

        async def main():
            with pytest.raises(RuntimeError, match="not started"):
                await srv.delete(["item0"])
            async with StoreServer(store) as running:
                await running.stop()
                with pytest.raises(ServerClosed):
                    await running.delete(["item0"])
                with pytest.raises(ServerClosed):
                    await running.upsert(["item0"],
                                         random_bipolar(1, store.dim, rng))

        asyncio.run(main())
        assert len(store) == 4  # nothing mutated through a refused call
