"""Serving-layer benchmark: micro-batching throughput and latency.

Records the ``serving`` surface of ``benchmarks/BENCH_store.json``
(merged into the record written by ``bench_store.py`` — each harness
owns its keys and preserves the others'):

- **throughput**: saturated queries/s through a :class:`StoreServer`
  per ``max_batch`` setting and store size, measured as a closed burst
  of concurrent single ``cleanup`` requests. ``max_batch=1`` is the
  *naive one-request-per-call baseline* — same event loop, same
  dispatch path, no coalescing — and the headline
  ``batching_multiple_100k`` asserts the best batched setting clears
  **3×** that baseline at 100k items on one core (amortization alone,
  no parallelism).
- **latency**: p50/p99 vs *offered* QPS per setting — an open-loop
  arrival schedule (arrivals don't wait for completions), latencies
  measured from scheduled arrival so queueing delay under overload is
  included.
- **amortization**: per-query cost of ``cleanup_batch`` vs batch size —
  the kernel-side curve the server's coalescing converts into serving
  throughput.
- **wire**: the same settings driven over real HTTP sockets — closed-
  loop throughput plus per-request p50/p99 across
  ``HTTP_CONNECTIONS`` keep-alive :class:`JSONHTTPClient` connections.
  Each point carries its in-process twin at the same concurrency
  (``HTTP_CONNECTIONS`` closed-loop callers, each streaming its share
  of the requests), so the transport overhead
  (``wire_overhead_multiple``, in-process over wire throughput) is
  explicit and must be ≥ 1: the wire only adds work.

``BENCH_SERVING_MAX_ITEMS`` caps the store sizes for a quick pass; the
JSON record and the 3× and ≥ 1 assertions only engage on a full sweep.
Decisions are spot-checked against direct calls in every burst — the
speed being measured is of *bit-identical* answers (over the wire too).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q``
"""

import asyncio
import os
import time

import numpy as np

from _bench_io import merge_bench_record
from repro.hdc import random_bipolar
from repro.hdc.store import (
    AssociativeStore,
    JSONHTTPClient,
    StoreHTTPServer,
    StoreServer,
    jsonable_result,
)

D = 1024
SHARDS = 8
SIZES = (10_000, 100_000)
QUERY_POOL = 256
BURST_REQUESTS = 384
LATENCY_REQUESTS = 120
#: max_batch settings; the first is the naive baseline
SETTINGS = (1, 16, 64, 256)
AMORTIZATION_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
#: offered rates for the latency sweep, as multiples of naive capacity
OFFERED_MULTIPLES = (0.5, 1.0, 2.0)
#: keep-alive connections driving the wire (HTTP) surface, and the
#: closed-loop callers of its in-process twin
HTTP_CONNECTIONS = 16
#: each wire point keeps the best of this many (wire, twin) run pairs
WIRE_REPEATS = 3


def _build(num_items, rng):
    store = AssociativeStore(D, backend="packed", shards=SHARDS)
    chunk = 65536
    queries = None
    for start in range(0, num_items, chunk):
        rows = min(chunk, num_items - start)
        vectors = random_bipolar(rows, D, rng)
        if queries is None:
            queries = vectors[:QUERY_POOL].copy()
            flips = rng.integers(0, D, size=(QUERY_POOL, D // 8))
            for row, columns in enumerate(flips):
                queries[row, columns] *= -1
        store.add_many((f"item{i}" for i in range(start, start + rows)),
                       vectors)
    return store, queries


def _server(store, max_batch):
    return StoreServer(store, max_batch=max_batch,
                       max_pending=max(4096, max_batch))


async def _closed_burst(store, max_batch, queries, expected):
    """Saturated throughput: fire every request at once, admission=wait."""
    async with _server(store, max_batch) as server:
        loop = asyncio.get_running_loop()
        tick = loop.time()
        answers = await asyncio.gather(
            *[server.cleanup(queries[i % len(queries)])
              for i in range(BURST_REQUESTS)])
        elapsed = loop.time() - tick
        stats = server.stats
    for i in range(0, BURST_REQUESTS, 37):  # bit-identity spot check
        assert answers[i] == expected[i % len(expected)]
    return {
        "queries_per_second": BURST_REQUESTS / elapsed,
        "waves": stats["waves"],
        "mean_batch_size": stats["mean_batch_size"],
    }


async def _offered_load(store, max_batch, queries, offered_qps):
    """Open-loop latency: arrivals follow the schedule unconditionally."""
    period = 1.0 / offered_qps
    async with _server(store, max_batch) as server:
        loop = asyncio.get_running_loop()
        start = loop.time()
        latencies = [None] * LATENCY_REQUESTS

        async def one(index):
            scheduled = start + index * period
            delay = scheduled - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await server.cleanup(queries[index % len(queries)])
            latencies[index] = loop.time() - scheduled

        await asyncio.gather(*[one(i) for i in range(LATENCY_REQUESTS)])
    p50, p99 = np.percentile(np.asarray(latencies) * 1000.0, [50, 99])
    return {"offered_qps": offered_qps, "p50_ms": float(p50),
            "p99_ms": float(p99)}


async def _closed_loop(calls, expected_of):
    """Closed-loop throughput/latency: each of ``calls`` streams its share
    of the requests sequentially; latency is per request (so it includes
    any wait for a busy worker), throughput is wall-clock."""
    loop = asyncio.get_running_loop()
    latencies = []

    async def drive(call, indices):
        for index in indices:
            tick = loop.time()
            answer = await call(index)
            latencies.append(loop.time() - tick)
            if index % 37 == 0:  # bit-identity spot check
                assert answer == expected_of(index)

    tick = loop.time()
    await asyncio.gather(*[
        drive(call, range(i, BURST_REQUESTS, len(calls)))
        for i, call in enumerate(calls)])
    elapsed = loop.time() - tick
    p50, p99 = np.percentile(np.asarray(latencies) * 1000.0, [50, 99])
    return {"queries_per_second": BURST_REQUESTS / elapsed,
            "p50_ms": float(p50), "p99_ms": float(p99)}


async def _http_closed_loop(store, max_batch, queries, expected):
    """The wire point: ``HTTP_CONNECTIONS`` keep-alive clients."""
    wire_queries = [[int(v) for v in q] for q in queries]
    expected_json = [jsonable_result("cleanup", e) for e in expected]

    def caller(client):
        async def call(index):
            status, answer = await client.request(
                "POST", "/v1/cleanup",
                {"query": wire_queries[index % len(wire_queries)]})
            assert status == 200
            return answer
        return call

    async with StoreHTTPServer(_server(store, max_batch)) as http:
        clients = await asyncio.gather(*[
            JSONHTTPClient.connect(http.host, http.port)
            for _ in range(HTTP_CONNECTIONS)])
        try:
            point = await _closed_loop(
                [caller(client) for client in clients],
                lambda index: expected_json[index % len(expected_json)])
            stats = http.server.stats
        finally:
            await asyncio.gather(*[client.close() for client in clients])
    point.update(waves=stats["waves"],
                 mean_batch_size=stats["mean_batch_size"])
    return point


async def _in_process_closed_loop(store, max_batch, queries, expected):
    """The wire point's twin: as many closed-loop callers, no sockets."""
    async def call(index):
        return await server.cleanup(queries[index % len(queries)])

    async with _server(store, max_batch) as server:
        point = await _closed_loop(
            [call] * HTTP_CONNECTIONS,
            lambda index: expected[index % len(expected)])
        stats = server.stats
    point.update(mean_batch_size=stats["mean_batch_size"])
    return point


def _wire_point(store, max_batch, queries, expected):
    """Best of ``WIRE_REPEATS`` alternating (wire, twin) runs per side."""
    wire, twin = [], []
    for _ in range(WIRE_REPEATS):
        wire.append(asyncio.run(_http_closed_loop(
            store, max_batch, queries, expected)))
        twin.append(asyncio.run(_in_process_closed_loop(
            store, max_batch, queries, expected)))
    point = max(wire, key=lambda p: p["queries_per_second"])
    best_twin = max(twin, key=lambda p: p["queries_per_second"])
    in_process = best_twin["queries_per_second"]
    point.update(
        in_process_queries_per_second=in_process,
        in_process_mean_batch_size=best_twin["mean_batch_size"],
        wire_overhead_multiple=in_process / point["queries_per_second"],
    )
    return point


def _amortization_curve(store, queries):
    """Kernel-side per-query cost vs batch size (best of 3)."""
    curve = []
    for batch in AMORTIZATION_BATCHES:
        rows = queries[:batch]
        best = min(
            _timed(lambda rows=rows: store.cleanup_batch(rows))
            for _ in range(3)
        )
        curve.append({
            "batch": batch,
            "per_query_ms": best / batch * 1000.0,
            "queries_per_second": batch / best,
        })
    return curve


def _timed(fn):
    tick = time.perf_counter()
    fn()
    return time.perf_counter() - tick


def test_serving_surface_json():
    max_items = int(os.environ.get("BENCH_SERVING_MAX_ITEMS", SIZES[-1]))
    sizes = [size for size in SIZES if size <= max_items]
    assert sizes, "BENCH_SERVING_MAX_ITEMS excludes every store size"

    throughput = []
    latency = []
    amortization = None
    wire = None
    naive_by_size = {}
    best_by_size = {}
    for num_items in sizes:
        rng = np.random.default_rng(num_items)
        store, queries = _build(num_items, rng)
        expected = [store.cleanup(q) for q in queries]

        for max_batch in SETTINGS:
            point = asyncio.run(_closed_burst(
                store, max_batch, queries, expected))
            point.update(items=num_items, max_batch=max_batch,
                         naive_baseline=max_batch == 1)
            throughput.append(point)
            qps = point["queries_per_second"]
            if max_batch == 1:
                naive_by_size[num_items] = qps
            else:
                best_by_size[num_items] = max(
                    best_by_size.get(num_items, 0.0), qps)

        naive_qps = naive_by_size[num_items]
        for max_batch in SETTINGS[1:]:
            for multiple in OFFERED_MULTIPLES:
                point = asyncio.run(_offered_load(
                    store, max_batch, queries,
                    offered_qps=naive_qps * multiple))
                point.update(items=num_items, max_batch=max_batch,
                             offered_vs_naive=multiple)
                latency.append(point)

        if num_items == sizes[-1]:
            amortization = _amortization_curve(store, queries)
            wire_points = []
            for max_batch in SETTINGS:
                point = _wire_point(store, max_batch, queries, expected)
                point.update(items=num_items, max_batch=max_batch,
                             naive_baseline=max_batch == 1)
                wire_points.append(point)
            wire = {"connections": HTTP_CONNECTIONS,
                    "in_process_callers": HTTP_CONNECTIONS,
                    "repeats": WIRE_REPEATS,
                    "throughput": wire_points}
        del store

    multiples = {
        str(items): best_by_size[items] / naive_by_size[items]
        for items in sizes
    }
    surface = {
        "config": {
            "dim": D,
            "backend": "packed",
            "shards": SHARDS,
            "burst_requests": BURST_REQUESTS,
            "latency_requests": LATENCY_REQUESTS,
            "settings": [{"max_batch": b} for b in SETTINGS],
            "offered_multiples_of_naive": list(OFFERED_MULTIPLES),
        },
        "throughput": throughput,
        "latency_vs_offered_qps": latency,
        "amortization": amortization,
        "wire": wire,
        "batching_multiple": multiples,
    }

    if sizes[-1] == SIZES[-1]:  # full sweep: record + headline assertions
        surface["batching_multiple_100k"] = multiples["100000"]
        assert multiples["100000"] >= 3.0, (
            f"micro-batching multiple at 100k items fell to "
            f"{multiples['100000']:.2f}x the one-request-per-call baseline "
            f"(naive {naive_by_size[100_000]:.0f} q/s, best batched "
            f"{best_by_size[100_000]:.0f} q/s); the bar is >= 3x"
        )
        for point in wire["throughput"]:
            assert point["wire_overhead_multiple"] >= 1.0, (
                f"max_batch={point['max_batch']}: the wire "
                f"({point['queries_per_second']:.0f} q/s) outran its "
                f"in-process twin ({point['in_process_queries_per_second']:.0f}"
                f" q/s) at the same concurrency")
        merge_bench_record("BENCH_store.json", {"serving": surface})
