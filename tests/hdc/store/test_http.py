"""Wire-transport agreement: HTTP answers are direct answers.

The decision contract of :class:`repro.hdc.store.http.StoreHTTPServer`:
an answer fetched over a real socket — JSON body in, micro-batched
:class:`StoreServer` wave, JSON body out — must be *bit-identical* to
the same query issued against a solo :class:`ItemMemory`, across
executor kinds, backends and tie-heavy inputs (JSON numbers round-trip
doubles exactly, so the wire adds no tolerance). The suite also pins
the transport's operational semantics: the route table, the
429/503/400 error mapping, request framing edge cases, keep-alive,
per-route counters, and drain-on-stop (in-flight responses complete,
new requests get 503, stopped listeners refuse).

No pytest-asyncio: each test drives its own ``asyncio.run``.
"""

import asyncio
import json
from functools import partial

import numpy as np
import pytest

from repro.hdc import random_bipolar
from repro.hdc.store import (
    ROUTES,
    AssociativeStore,
    HTTPStatusError,
    JSONHTTPClient,
    RetryPolicy,
    ServerClosed,
    StoreHTTPError,
    StoreHTTPServer,
    StoreServer,
    TransportError,
    jsonable_result,
)
from store_helpers import BACKENDS, EXECUTORS, fresh_memory, noisy_queries
from store_helpers import GatedStore as _GatedStore
from store_helpers import build_store as _store

pytestmark = pytest.mark.usefixtures("strict_loop_exceptions")
_noisy_queries = partial(noisy_queries, num=18, flip_fraction=0.15)


def _wire(query):
    """A query row as it travels in a JSON body."""
    return [int(v) for v in query]


def _serve_jobs(store, jobs, clients=6, **server_kwargs):
    """Serve ``jobs`` (method, path, payload) over concurrent keep-alive
    connections; returns ``(status, payload)`` per job, in job order."""
    server_kwargs.setdefault("max_batch", 8)

    async def main():
        async with StoreHTTPServer(StoreServer(store, **server_kwargs)) as http:
            pool = await asyncio.gather(*[
                JSONHTTPClient.connect(http.host, http.port)
                for _ in range(min(clients, len(jobs)))
            ])

            async def worker(index):
                return [await pool[index].request(*job)
                        for job in jobs[index::len(pool)]]

            try:
                chunks = await asyncio.gather(
                    *[worker(i) for i in range(len(pool))])
            finally:
                await asyncio.gather(*[client.close() for client in pool])
        answers = [None] * len(jobs)
        for i, chunk in enumerate(chunks):
            for j, answer in enumerate(chunk):
                answers[i + j * len(pool)] = answer
        return answers

    return asyncio.run(main())


async def _raw_roundtrip(port, data):
    """Write raw bytes, parse one response (framing-level 400s close the
    connection, dispatch-level ones keep it alive, so read by
    Content-Length rather than to EOF); returns (status, JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    status = int((await reader.readline()).split(b" ", 2)[1])
    length = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return status, json.loads(body)


class TestWireAgreement:
    """Served-over-the-wire answers == solo ItemMemory calls, bit for bit."""

    @pytest.mark.parametrize("shards", (1, 3))
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_wire_answers_bit_identical(self, backend, executor, shards, rng):
        store, labels, vectors = _store(rng, backend=backend, shards=shards,
                                        executor=executor)
        reference = fresh_memory(labels, vectors, backend=backend)
        queries = _noisy_queries(vectors, rng)

        jobs, expected = [], []
        for q in queries:
            jobs.append(("POST", "/v1/cleanup", {"query": _wire(q)}))
            expected.append(jsonable_result("cleanup", reference.cleanup(q)))
            jobs.append(("POST", "/v1/topk", {"query": _wire(q), "k": 5}))
            expected.append(jsonable_result("topk", reference.topk(q, k=5)))
            jobs.append(("POST", "/v1/similarities", {"query": _wire(q)}))
            expected.append(
                jsonable_result("similarities", reference.similarities(q)))

        answers = _serve_jobs(store, jobs)
        assert [status for status, _ in answers] == [200] * len(jobs)
        assert [payload for _, payload in answers] == expected
        store.memory.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_tie_heavy_duplicates_resolve_identically(self, executor, rng):
        """Duplicate vectors across shards: every wave composition reached
        over the wire must reproduce the insertion-order tie-break."""
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

        jobs, expected = [], []
        for q in queries:
            jobs.append(("POST", "/v1/cleanup", {"query": _wire(q)}))
            expected.append(jsonable_result("cleanup", reference.cleanup(q)))
            jobs.append(("POST", "/v1/topk", {"query": _wire(q), "k": 24}))
            expected.append(jsonable_result("topk", reference.topk(q, k=24)))

        for _ in range(3):  # scheduling varies run to run
            answers = _serve_jobs(store, jobs, max_batch=4)
            assert [payload for _, payload in answers] == expected
        store.memory.close()

    def test_float_payloads_round_trip_exactly(self, rng):
        """JSON numbers are shortest-round-trip doubles: encode→decode of
        a similarity row returns the exact same float64 bits."""
        store, labels, vectors = _store(rng, backend="dense", shards=1)
        sims = store.similarities(vectors[0])
        encoded = json.loads(json.dumps(jsonable_result("similarities", sims)))
        assert np.array_equal(
            np.asarray(encoded["similarities"], dtype=np.float64), sims)

    def test_jsonable_result_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            jsonable_result("batch", [])

    @pytest.mark.store_scale
    def test_wire_agreement_at_scale(self, rng, store_scale_items,
                                     store_scale_executor):
        """The scaled pass CI runs per executor kind: wire answers over a
        large store still match direct calls exactly."""
        dim = 256
        labels = [f"item{i}" for i in range(store_scale_items)]
        vectors = random_bipolar(store_scale_items, dim, rng)
        store = AssociativeStore.from_vectors(
            labels, vectors, backend="packed", shards=8, workers=2,
            executor=store_scale_executor,
        )
        queries = _noisy_queries(vectors, rng, num=32)
        jobs, expected = [], []
        for q in queries:
            jobs.append(("POST", "/v1/cleanup", {"query": _wire(q)}))
            expected.append(jsonable_result("cleanup", store.cleanup(q)))
            jobs.append(("POST", "/v1/topk", {"query": _wire(q), "k": 3}))
            expected.append(jsonable_result("topk", store.topk(q, k=3)))
        answers = _serve_jobs(store, jobs, max_batch=16)
        assert [payload for _, payload in answers] == expected
        store.memory.close()


class TestErrorMapping:
    """The documented status mapping, pinned over real sockets."""

    def test_validation_errors_map_to_400(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)
        q = _wire(vectors[0])
        jobs = [
            ("POST", "/v1/cleanup", {"query": "not an array"}),
            ("POST", "/v1/cleanup", {}),
            ("POST", "/v1/cleanup", {"query": q[:-1]}),       # wrong dim
            ("POST", "/v1/cleanup", {"query": q, "k": 5}),    # unknown key
            ("POST", "/v1/topk", {"query": q, "k": "five"}),
            ("POST", "/v1/topk", {"query": q, "k": 0}),
            ("POST", "/v1/similarities", {"query": [q]}),     # 2-d batch
            # json.loads admits these literals; the answer would not be JSON
            ("POST", "/v1/cleanup", {"query": [float("nan")] + q[1:]}),
            ("POST", "/v1/topk", {"query": q[:-1] + [float("inf")]}),
            ("POST", "/v1/similarities",
             {"query": [float("-inf")] + q[1:]}),
        ]
        answers = _serve_jobs(store, jobs, clients=1)
        for (status, payload), job in zip(answers, jobs):
            assert status == 400, (job, payload)
            assert payload["error"]["status"] == 400
            assert payload["error"]["message"]
        for _, payload in answers[-3:]:
            assert "finite" in payload["error"]["message"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_bipolar_query_is_a_400_alone(self, backend, rng):
        """A 0.5-valued query sent beside five valid ones gets its own
        400 at admission; the others get 200 with the reference answers
        instead of sharing the failure of one batch kernel call."""
        store, labels, vectors = _store(rng, backend=backend, shards=4,
                                        items=24)
        reference = fresh_memory(labels, vectors, backend=backend)
        jobs = [("POST", "/v1/topk", {"query": _wire(q), "k": 3})
                for q in vectors[:5]]
        jobs.insert(2, ("POST", "/v1/topk",
                        {"query": [0.5] * store.dim, "k": 3}))
        answers = _serve_jobs(store, jobs, clients=6)
        status, payload = answers.pop(2)
        assert status == 400 and "bipolar" in payload["error"]["message"]
        assert answers == [(200, jsonable_result("topk", reference.topk(q, k=3)))
                           for q in vectors[:5]]
        store.memory.close()

    def test_unknown_route_404_wrong_method_405(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)
        jobs = [
            ("GET", "/v1/nope", None),
            ("POST", "/v2/cleanup", {"query": _wire(vectors[0])}),
            ("GET", "/v1/cleanup", None),                     # 405
            ("POST", "/v1/healthz", {"query": _wire(vectors[0])}),  # 405
        ]
        answers = _serve_jobs(store, jobs, clients=1)
        assert [status for status, _ in answers] == [404, 404, 405, 405]
        assert "routes" in answers[0][1]["error"]["message"]
        assert "POST" in answers[2][1]["error"]["message"]

    def test_framing_errors_over_raw_sockets(self, rng):
        """Malformed framing never reaches the serving layer: 400 on a
        bad request line or body, 411 without Content-Length, 431 on
        oversized headers, 501 on chunked bodies — then the connection
        closes."""
        store, _, _ = _store(rng, shards=1, items=8)

        async def main():
            server = StoreServer(store)
            async with StoreHTTPServer(server, max_header_bytes=2048) as http:
                port = http.port
                cases = [
                    (b"GARBAGE\r\n\r\n", 400),
                    (b"POST /v1/cleanup HTTP/2\r\n\r\n", 400),
                    (b"POST /v1/cleanup HTTP/1.1\r\nHost: x\r\n\r\n", 411),
                    (b"POST /v1/cleanup HTTP/1.1\r\n"
                     b"Content-Length: oops\r\n\r\n", 400),
                    (b"POST /v1/cleanup HTTP/1.1\r\nContent-Length: 6\r\n"
                     b"\r\n{oops}", 400),
                    (b"POST /v1/cleanup HTTP/1.1\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n", 501),
                    (b"GET /v1/healthz HTTP/1.1\r\nX-Pad: "
                     + b"x" * 4096 + b"\r\n\r\n", 431),
                ]
                for data, expected_status in cases:
                    status, payload = await _raw_roundtrip(port, data)
                    assert status == expected_status, (data[:40], payload)
                    assert payload["error"]["status"] == expected_status

        asyncio.run(main())

    def test_oversized_body_maps_to_413(self, rng):
        store, _, _ = _store(rng, shards=1, items=8)

        async def main():
            server = StoreServer(store)
            async with StoreHTTPServer(server, max_body_bytes=1024) as http:
                client = await JSONHTTPClient.connect(http.host, http.port)
                status, payload = await client.request(
                    "POST", "/v1/cleanup", {"query": [1] * 4096})
                await client.close()
                assert status == 413
                assert "max_body_bytes" in payload["error"]["message"]

        asyncio.run(main())

    def test_overload_maps_to_429(self, rng):
        """admission='reject' + a gated wave: the over-capacity request
        fails fast on the wire with 429 and the admitted one answers."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        expected = jsonable_result("cleanup", store.cleanup(vectors[0]))

        async def main():
            server = StoreServer(gated, max_batch=1, max_pending=1,
                                 admission="reject")
            async with StoreHTTPServer(server) as http:
                first = await JSONHTTPClient.connect(http.host, http.port)
                second = await JSONHTTPClient.connect(http.host, http.port)
                inflight = asyncio.ensure_future(first.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[0])}))
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                status, payload = await second.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[1])})
                assert status == 429
                assert payload["error"]["status"] == 429
                gated.release.set()
                status, payload = await inflight
                assert (status, payload) == (200, expected)
                await first.close()
                await second.close()

        asyncio.run(main())
        store.memory.close()

    def test_stopped_serving_layer_maps_to_503(self, rng):
        """ServerClosed surfaces as 503 when the serving layer under a
        live transport stops (borrowed server case)."""
        store, _, vectors = _store(rng, shards=1, items=8)

        async def main():
            async with StoreServer(store) as server:  # borrowed: pre-started
                async with StoreHTTPServer(server) as http:
                    client = await JSONHTTPClient.connect(http.host, http.port)
                    await server.stop()
                    status, payload = await client.request(
                        "POST", "/v1/cleanup", {"query": _wire(vectors[0])})
                    await client.close()
                    assert status == 503
                    assert payload["error"]["status"] == 503

        asyncio.run(main())


class TestWireMutations:
    """POST /v1/delete and /v1/upsert: wire-driven mutation histories
    answer bit-identically to direct calls, validation maps to 400, and
    mutations refuse with 503 once the server drains."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_wire_mutation_history_bit_identical(self, executor, rng):
        dim = 128
        store, labels, vectors = _store(rng, executor=executor, dim=dim,
                                        items=24)
        reference = fresh_memory(labels, vectors)
        queries = _noisy_queries(vectors, rng, num=6)
        batch = random_bipolar(2, dim, rng)

        jobs, expected = [], []
        for q in queries:
            jobs.append(("POST", "/v1/topk", {"query": _wire(q), "k": 5}))
            expected.append(jsonable_result("topk", reference.topk(q, k=5)))
        jobs.append(("POST", "/v1/delete", {"labels": ["item3", "item17"]}))
        expected.append({"status": "ok", "deleted": 2})
        jobs.append(("POST", "/v1/upsert",
                     {"labels": ["item5", "new0"],
                      "vectors": [_wire(v) for v in batch]}))
        expected.append({"status": "ok", "upserted": 2})
        # The reference never runs a delete: a fresh memory over the
        # surviving (label, vector) sequence, the upsert batch last.
        kept = [i for i, label in enumerate(labels)
                if label not in ("item3", "item17", "item5")]
        reference = fresh_memory([labels[i] for i in kept], vectors[kept])
        reference.add_many(["item5", "new0"], batch)
        for q in queries:
            jobs.append(("POST", "/v1/topk", {"query": _wire(q), "k": 5}))
            expected.append(jsonable_result("topk", reference.topk(q, k=5)))

        answers = _serve_jobs(store, jobs, clients=1)  # sequenced history
        assert [status for status, _ in answers] == [200] * len(jobs)
        assert [payload for _, payload in answers] == expected
        post = [payload for _, payload in answers[len(queries) + 2:]]
        assert all(entry["label"] not in ("item3", "item17")
                   for payload in post for entry in payload["results"])
        store.memory.close()

    def test_tie_heavy_duplicate_deleted_over_the_wire(self, rng):
        dim = 128
        base = random_bipolar(1, dim, rng)[0]
        store = AssociativeStore.from_vectors(
            [f"dup{i}" for i in range(6)], np.tile(base, (6, 1)),
            backend="packed", shards=3)
        jobs = [
            ("POST", "/v1/cleanup", {"query": _wire(base)}),
            ("POST", "/v1/delete", {"labels": ["dup0"]}),
            ("POST", "/v1/cleanup", {"query": _wire(base)}),
        ]
        answers = _serve_jobs(store, jobs, clients=1)
        assert [status for status, _ in answers] == [200, 200, 200]
        assert answers[0][1]["label"] == "dup0"
        assert answers[2][1]["label"] == "dup1"  # survivor tie order
        store.memory.close()

    def test_mutation_validation_maps_to_400(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)
        good = [_wire(v) for v in vectors[:1]]
        jobs = [
            ("POST", "/v1/delete", {"labels": ["ghost"]}),     # unknown label
            ("POST", "/v1/delete", {"labels": []}),            # empty batch
            ("POST", "/v1/delete", {"labels": "item0"}),       # not a list
            ("POST", "/v1/delete", {"labels": ["item0"], "k": 1}),  # bad key
            ("POST", "/v1/upsert", {"labels": ["item0"]}),     # no vectors
            ("POST", "/v1/upsert", {"labels": ["item0"],
                                    "vectors": [[0.5] * store.dim]}),
            ("POST", "/v1/upsert", {"labels": ["a", "a"], "vectors": good * 2}),
        ]
        answers = _serve_jobs(store, jobs, clients=1)
        for (status, payload), job in zip(answers, jobs):
            assert status == 400, (job, payload)
            assert payload["error"]["status"] == 400
            assert payload["error"]["message"]
        assert len(store) == 8  # every refused mutation left the store alone

    def test_mutation_mid_drain_maps_to_503(self, rng):
        """A mutation arriving while the transport drains (and after the
        serving layer stops) is refused with 503 — never half-applied."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        rows_before = len(store)

        async def main():
            server = StoreServer(gated, max_batch=1)
            http = await StoreHTTPServer(server).start()
            first = await JSONHTTPClient.connect(http.host, http.port)
            inflight = asyncio.ensure_future(first.request(
                "POST", "/v1/cleanup", {"query": _wire(vectors[0])}))
            while not gated.entered.is_set():
                await asyncio.sleep(0.001)
            stopper = asyncio.ensure_future(http.stop())
            await asyncio.sleep(0.01)  # stop() is now draining
            late = await JSONHTTPClient.connect(http.host, http.port)
            status, payload = await late.request(
                "POST", "/v1/delete", {"labels": ["item0"]})
            assert status == 503
            assert payload["error"]["status"] == 503
            gated.release.set()
            await inflight
            await stopper
            await first.close()
            await late.close()

        asyncio.run(main())
        assert len(store) == rows_before  # the refused delete never landed
        assert "item0" in store.labels
        store.memory.close()


class TestLifecycle:
    def test_drain_on_stop_completes_inflight_and_503s_new(self, rng):
        """stop() during an in-flight wave: the dispatched request's
        response still arrives (drain propagates through the serving
        layer), a request arriving mid-drain gets 503, and once stopped
        the listener refuses outright."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        expected = jsonable_result("cleanup", store.cleanup(vectors[0]))

        async def main():
            server = StoreServer(gated, max_batch=1)
            http = await StoreHTTPServer(server).start()
            port = http.port
            first = await JSONHTTPClient.connect(http.host, port)
            inflight = asyncio.ensure_future(first.request(
                "POST", "/v1/cleanup", {"query": _wire(vectors[0])}))
            while not gated.entered.is_set():
                await asyncio.sleep(0.001)
            stopper = asyncio.ensure_future(http.stop())
            await asyncio.sleep(0.01)  # stop() is now draining
            late = await JSONHTTPClient.connect(http.host, port)
            status, payload = await late.request(
                "POST", "/v1/cleanup", {"query": _wire(vectors[1])})
            assert status == 503
            assert payload["error"]["status"] == 503
            gated.release.set()
            assert await inflight == (200, expected)
            await stopper
            assert server.closed  # owned server stopped with the wire
            with pytest.raises(OSError):
                await JSONHTTPClient.connect(http.host, port)
            await first.close()
            await late.close()

        asyncio.run(main())
        store.memory.close()

    def test_stop_waits_for_handlers_of_clients_that_hung_up(self, rng):
        """Clients that closed before stop(): their handlers may still be
        awaiting the server side's wait_closed(). stop() must wait for
        them, or asyncio.run's teardown cancels one mid-await (and the
        loop logs a CancelledError)."""
        store, _, vectors = _store(rng, shards=1, items=8)

        async def main():
            http = await StoreHTTPServer(StoreServer(store)).start()
            clients = [await JSONHTTPClient.connect(http.host, http.port)
                       for _ in range(2)]
            for client in clients:
                status, _ = await client.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[0])})
                assert status == 200
            for client in clients:
                await client.close()
            while http._handlers:
                await asyncio.sleep(0)
            await http.stop()
            pending = [task for task in asyncio.all_tasks()
                       if task.get_coro().__name__ == "_serve_connection"]
            assert pending == []

        asyncio.run(main())

    def test_borrowed_server_left_running(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)
        expected = store.cleanup(vectors[0])

        async def main():
            async with StoreServer(store) as server:
                async with StoreHTTPServer(server) as http:
                    client = await JSONHTTPClient.connect(http.host, http.port)
                    status, _ = await client.request(
                        "POST", "/v1/cleanup", {"query": _wire(vectors[0])})
                    assert status == 200
                    await client.close()
                # the wire is gone, the serving layer still answers
                assert not server.closed
                assert await server.cleanup(vectors[0]) == expected

        asyncio.run(main())

    def test_restart_refused_and_stop_idempotent(self, rng):
        store, _, _ = _store(rng, shards=1, items=8)

        async def main():
            http = StoreHTTPServer(StoreServer(store))
            await http.start()
            with pytest.raises(RuntimeError, match="already started"):
                await http.start()
            await http.stop()
            await http.stop()  # idempotent
            with pytest.raises(ServerClosed):
                await http.start()
            # stop before start is clean too, and also blocks start
            other = StoreHTTPServer(StoreServer(store))
            await other.stop()
            with pytest.raises(ServerClosed):
                await other.start()

        asyncio.run(main())

    def test_constructor_validation(self, rng):
        store, _, _ = _store(rng, shards=1, items=8)
        server = StoreServer(store)
        with pytest.raises(ValueError, match="max_header_bytes"):
            StoreHTTPServer(server, max_header_bytes=10)
        with pytest.raises(ValueError, match="max_body_bytes"):
            StoreHTTPServer(server, max_body_bytes=10)


class TestObservability:
    def test_route_table_is_the_documented_surface(self):
        assert set(ROUTES) == {
            ("POST", "/v1/cleanup"),
            ("POST", "/v1/topk"),
            ("POST", "/v1/similarities"),
            ("POST", "/v1/delete"),
            ("POST", "/v1/upsert"),
            ("GET", "/v1/stats"),
            ("GET", "/v1/healthz"),
        }

    def test_healthz_and_stats_fold_wire_and_serving_counters(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)

        async def main():
            async with StoreHTTPServer(StoreServer(store)) as http:
                client = await JSONHTTPClient.connect(http.host, http.port)
                status, health = await client.request("GET", "/v1/healthz")
                assert (status, health["status"]) == (200, "ok")
                for q in vectors[:4]:
                    status, _ = await client.request(
                        "POST", "/v1/cleanup", {"query": _wire(q)})
                    assert status == 200
                status, _ = await client.request(
                    "POST", "/v1/topk", {"query": _wire(vectors[0])})
                assert status == 200
                status, _ = await client.request("GET", "/v1/nope")
                assert status == 404
                status, stats = await client.request("GET", "/v1/stats")
                assert status == 200
                await client.close()
                return stats

        stats = asyncio.run(main())
        routes = stats["http"]["requests_by_route"]
        assert routes["POST /v1/cleanup"] == 4
        assert routes["POST /v1/topk"] == 1
        assert routes["GET /v1/healthz"] == 1
        assert routes["GET /v1/stats"] == 1  # counted as it serves itself
        # the stats response itself is written (and counted) after the
        # snapshot: 4 cleanups + 1 topk + healthz = 6 at snapshot time
        assert stats["http"]["responses_by_status"]["200"] == 6
        assert stats["http"]["responses_by_status"]["404"] == 1
        assert stats["http"]["connections"] == 1
        assert stats["server"]["requests"] == 5  # the serving layer's view

class TestDeadlinesOnTheWire:
    """timeout_ms in the body → ServerTimeout → 504; Retry-After hints."""

    def test_expired_deadline_maps_to_504_and_is_not_retryable(self, rng):
        """A gated wave holds the request past its wire deadline: the
        response is 504 (no Retry-After — the caller's time allowance is
        spent), the wave is not poisoned, and the connection keeps
        serving."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        expected = jsonable_result("cleanup", store.cleanup(vectors[1]))

        async def main():
            server = StoreServer(gated, max_batch=1)
            async with StoreHTTPServer(server) as http:
                timed = await JSONHTTPClient.connect(http.host, http.port)
                inflight = asyncio.ensure_future(timed.request(
                    "POST", "/v1/cleanup",
                    {"query": _wire(vectors[0]), "timeout_ms": 20.0}))
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                status, payload = await inflight  # deadline fired mid-wave
                assert status == 504
                assert payload["error"]["status"] == 504
                assert "retry-after" not in timed.last_headers
                gated.release.set()
                status, payload = await timed.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[1])})
                assert (status, payload) == (200, expected)
                await timed.close()

        asyncio.run(main())
        store.memory.close()

    def test_timeout_ms_validation_maps_to_400(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)
        q = _wire(vectors[0])
        jobs = [
            ("POST", "/v1/cleanup", {"query": q, "timeout_ms": 0}),
            ("POST", "/v1/topk", {"query": q, "timeout_ms": -5}),
            ("POST", "/v1/similarities", {"query": q, "timeout_ms": "soon"}),
            ("POST", "/v1/cleanup", {"query": q, "timeout_ms": True}),
        ]
        answers = _serve_jobs(store, jobs, clients=1)
        for (status, payload), job in zip(answers, jobs):
            assert status == 400, (job, payload)
            assert "timeout_ms" in payload["error"]["message"]

    def test_429_and_503_carry_the_retry_after_hint(self, rng):
        """Overload and drain responses advertise when to come back: the
        1-second floor of HTTP's integer Retry-After."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)

        async def main():
            server = StoreServer(gated, max_batch=1, max_pending=1,
                                 admission="reject")
            async with StoreHTTPServer(server) as http:
                assert http.retry_after_hint == 1
                first = await JSONHTTPClient.connect(http.host, http.port)
                second = await JSONHTTPClient.connect(http.host, http.port)
                inflight = asyncio.ensure_future(first.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[0])}))
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                status, _ = await second.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[1])})
                assert status == 429
                assert second.last_headers["retry-after"] == "1"
                gated.release.set()
                await inflight
                await first.close()
                await second.close()

        asyncio.run(main())

        async def drained():
            async with StoreServer(store) as server:
                async with StoreHTTPServer(server) as http:
                    client = await JSONHTTPClient.connect(http.host, http.port)
                    await server.stop()
                    status, _ = await client.request(
                        "POST", "/v1/cleanup", {"query": _wire(vectors[0])})
                    assert status == 503
                    assert client.last_headers["retry-after"] == "1"
                    await client.close()

        asyncio.run(drained())
        store.memory.close()


class TestRetryPolicy:
    """The backoff schedule, pinned without a single real sleep."""

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay_ms=0)
        with pytest.raises(ValueError, match="budget_ms"):
            RetryPolicy(budget_ms=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)

    def test_schedule_is_deterministic_capped_and_jittered(self):
        policy = RetryPolicy(base_delay_ms=100.0, max_delay_ms=400.0,
                             jitter=0.5, seed=7)
        schedule = [policy.delay_ms(n) for n in range(6)]
        assert schedule == [policy.delay_ms(n) for n in range(6)]
        for attempt, delay in enumerate(schedule):
            raw = min(400.0, 100.0 * 2 ** attempt)
            assert raw * 0.5 <= delay <= raw  # jitter shrinks, never grows
        assert max(schedule) <= 400.0
        # different seeds desynchronize the fleet
        other = RetryPolicy(base_delay_ms=100.0, max_delay_ms=400.0,
                            jitter=0.5, seed=8)
        assert [other.delay_ms(n) for n in range(6)] != schedule
        # zero jitter: the exact exponential curve
        flat = RetryPolicy(base_delay_ms=100.0, max_delay_ms=400.0, jitter=0.0)
        assert [flat.delay_ms(n) for n in range(4)] == [100.0, 200.0, 400.0,
                                                        400.0]

    def test_retry_after_raises_the_floor_but_respects_the_cap(self):
        policy = RetryPolicy(base_delay_ms=10.0, max_delay_ms=500.0,
                             jitter=0.0)
        assert policy.delay_ms(0, retry_after_s=0.35) == 350.0
        assert policy.delay_ms(0, retry_after_s=60.0) == 500.0  # capped
        assert policy.delay_ms(5, retry_after_s=0.001) == 320.0  # no shrink


class TestClientFailureTyping:
    def test_connect_refused_raises_transport_error(self):
        async def main():
            with pytest.raises(TransportError) as info:
                await JSONHTTPClient.connect("127.0.0.1", 1)  # reserved port
            assert isinstance(info.value, ConnectionError)
            assert isinstance(info.value, StoreHTTPError)

        asyncio.run(main())

    def test_server_gone_mid_connection_raises_transport_error(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)

        async def main():
            http = await StoreHTTPServer(StoreServer(store)).start()
            client = await JSONHTTPClient.connect(http.host, http.port)
            status, _ = await client.request(
                "POST", "/v1/cleanup", {"query": _wire(vectors[0])})
            assert status == 200
            await http.stop()  # idle keep-alive connection dropped
            with pytest.raises(TransportError):
                await client.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[1])})
            await client.close()

        asyncio.run(main())

    def test_raise_for_status_yields_typed_error(self, rng):
        store, _, _ = _store(rng, shards=1, items=8)

        async def main():
            async with StoreHTTPServer(StoreServer(store)) as http:
                client = await JSONHTTPClient.connect(http.host, http.port)
                with pytest.raises(HTTPStatusError) as info:
                    await client.request("GET", "/v1/nope",
                                         raise_for_status=True)
                assert info.value.status == 404
                assert info.value.payload["error"]["status"] == 404
                assert isinstance(info.value, StoreHTTPError)
                # 2xx is untouched
                status, _ = await client.request("GET", "/v1/healthz",
                                                 raise_for_status=True)
                assert status == 200
                await client.close()

        asyncio.run(main())


class TestClientRetry:
    def test_retry_on_429_with_fake_clock_and_zero_real_sleeps(self, rng):
        """Overload → 429 → backoff (on an injected clock and sleep) →
        success, with the recorded delays exactly the policy schedule
        floored by the server's Retry-After hint."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)
        expected = jsonable_result("cleanup", store.cleanup(vectors[1]))
        slept = []
        holder = {}

        async def fake_sleep(seconds):
            slept.append(seconds)
            gated.release.set()           # capacity frees while we "sleep"
            await holder["inflight"]      # ...and the slot is back before
            # the fake pause returns — deterministic, still zero real sleep

        policy = RetryPolicy(max_retries=3, base_delay_ms=40.0,
                             max_delay_ms=200.0, jitter=0.0, seed=1,
                             clock=lambda: 0.0, sleep=fake_sleep)

        async def main():
            server = StoreServer(gated, max_batch=1, max_pending=1,
                                 admission="reject")
            async with StoreHTTPServer(server) as http:
                first = await JSONHTTPClient.connect(http.host, http.port)
                retrier = await JSONHTTPClient.connect(http.host, http.port,
                                                       retry=policy)
                holder["inflight"] = asyncio.ensure_future(first.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[0])}))
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                status, payload = await retrier.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[1])})
                assert (status, payload) == (200, expected)
                await holder["inflight"]
                await first.close()
                await retrier.close()

        asyncio.run(main())
        # one 429 then success: one backoff pause, floored by the server's
        # 1 s Retry-After hint but still capped at max_delay_ms
        assert slept == [policy.delay_ms(0, retry_after_s=1.0) / 1000.0]
        assert slept == [0.2]
        store.memory.close()

    def test_budget_exhaustion_returns_the_last_status(self, rng):
        """A clock that jumps past the budget: the retry loop gives up
        without sleeping and hands back the final 429."""
        store, _, vectors = _store(rng)
        gated = _GatedStore(store)

        async def never_sleep(seconds):
            raise AssertionError("budget should forbid any pause")

        policy = RetryPolicy(max_retries=5, base_delay_ms=50.0, jitter=0.0,
                             budget_ms=10.0, clock=lambda: 0.0,
                             sleep=never_sleep)

        async def main():
            server = StoreServer(gated, max_batch=1, max_pending=1,
                                 admission="reject")
            async with StoreHTTPServer(server) as http:
                first = await JSONHTTPClient.connect(http.host, http.port)
                retrier = await JSONHTTPClient.connect(http.host, http.port,
                                                       retry=policy)
                inflight = asyncio.ensure_future(first.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[0])}))
                while not gated.entered.is_set():
                    await asyncio.sleep(0.001)
                status, _ = await retrier.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[1])})
                assert status == 429  # budget spent: surfaced, not retried
                gated.release.set()
                await inflight
                await first.close()
                await retrier.close()

        asyncio.run(main())
        store.memory.close()

    def test_non_idempotent_transport_failure_is_not_retried(self, rng):
        store, _, vectors = _store(rng, shards=1, items=8)

        async def main():
            http = await StoreHTTPServer(StoreServer(store)).start()
            policy = RetryPolicy(max_retries=5, base_delay_ms=1.0)
            client = await JSONHTTPClient.connect(http.host, http.port,
                                                  retry=policy)
            await http.stop()
            with pytest.raises(TransportError):
                await client.request(
                    "POST", "/v1/cleanup", {"query": _wire(vectors[0])},
                    idempotent=False)
            await client.close()

        asyncio.run(main())

    def test_restart_window_loses_zero_idempotent_requests(self, rng):
        """The acceptance scenario: a server stops, the port stays dark,
        a replacement comes up — a retrying client issuing idempotent
        queries across the whole window sees every request succeed with
        the exact answer and zero surfaced failures."""
        store, _, vectors = _store(rng, shards=1, items=8)
        queries = [vectors[i % 8] for i in range(10)]
        expected = [jsonable_result("cleanup", store.cleanup(q))
                    for q in queries]

        async def main():
            http_a = await StoreHTTPServer(StoreServer(store)).start()
            port = http_a.port
            policy = RetryPolicy(max_retries=10, base_delay_ms=10.0,
                                 max_delay_ms=50.0, budget_ms=20_000.0,
                                 jitter=0.5, seed=3)
            client = await JSONHTTPClient.connect(http_a.host, port,
                                                  retry=policy)

            answers = []

            async def issue_all():
                for q in queries:
                    answers.append(await client.request(
                        "POST", "/v1/cleanup", {"query": _wire(q)}))

            issuing = asyncio.ensure_future(issue_all())
            await asyncio.sleep(0.02)   # a few requests land on server A
            await http_a.stop()
            await asyncio.sleep(0.05)   # the dark window: connect refused
            http_b = await StoreHTTPServer(
                StoreServer(store), port=port).start()
            await issuing
            await client.close()
            await http_b.stop()
            return answers

        answers = asyncio.run(main())
        assert [status for status, _ in answers] == [200] * len(queries)
        assert [payload for _, payload in answers] == expected


class TestObservabilityExtra:
    def test_keep_alive_and_connection_close(self, rng):
        """Several requests ride one connection; Connection: close is
        honored with an EOF right after the response."""
        store, _, vectors = _store(rng, shards=1, items=8)

        async def main():
            async with StoreHTTPServer(StoreServer(store)) as http:
                client = await JSONHTTPClient.connect(http.host, http.port)
                for q in vectors[:3]:  # sequential on one socket
                    status, _ = await client.request(
                        "POST", "/v1/cleanup", {"query": _wire(q)})
                    assert status == 200
                await client.close()
                body = json.dumps({"query": _wire(vectors[0])}).encode()
                raw = (b"POST /v1/cleanup HTTP/1.1\r\nConnection: close\r\n"
                       + b"Content-Length: %d\r\n\r\n" % len(body) + body)
                status, payload = await _raw_roundtrip(http.port, raw)
                assert status == 200
                assert payload == jsonable_result(
                    "cleanup", store.cleanup(vectors[0]))
                stats = http.stats
                assert stats["http"]["connections"] == 2

        asyncio.run(main())
