"""Open-loop load generator against the async serving layer.

Builds a 100k-item packed sharded store, wraps it in a
:class:`StoreServer`, and fires independently-timed ``cleanup`` requests
at a configurable *offered* rate — arrivals follow the schedule whether
or not earlier requests finished, the honest way to load-test a server
(a closed loop would slow its own arrivals down and hide queueing).
Each request records its own latency from scheduled arrival to
resolution, so queueing delay under overload is *included*.

Prints a latency histogram with p50/p90/p99, the achieved vs offered
rate, and the server's own stats — waves, mean batch size, flush-trigger
attribution (size vs idle), queue high-water — which together show how
the work-conserving batcher trades latency for throughput: below the
store's single-request capacity (~130 q/s for 100k × 1024 on one core)
requests mostly ride alone and never wait for a batch; above it, they
queue behind the busy worker and coalesce into larger waves (up to
``max_batch``), which absorbs the difference.

    python examples/serving_demo.py [--http] [--retry] [--timeout-ms=X] \\
        [num_items] [offered_qps] [max_batch] [num_requests]

With ``--http`` the same open-loop load travels over real sockets: a
:class:`StoreHTTPServer` on an ephemeral port, requests as JSON bodies
on a pool of keep-alive :class:`JSONHTTPClient` connections (one grows
per concurrently in-flight request, like a real client fleet), wire
traffic riding the same micro-batching. Answers are bit-identical to
direct ``store.cleanup`` calls no matter how requests coalesce — or
travel — and the demo spot-checks a sample at the end.

``--timeout-ms=X`` attaches a per-request deadline: overloaded requests
fail with :class:`ServerTimeout` (HTTP **504** on the wire) instead of
queueing without bound — offer a rate above capacity and watch the
tail get cut at the deadline while served answers stay exact.
``--retry`` (with ``--http``) gives every client a :class:`RetryPolicy`,
so 429/503 responses back off and retry instead of surfacing.
"""

import asyncio
import sys
import time

import numpy as np

from repro.hdc import random_bipolar
from repro.hdc.store import (
    AssociativeStore,
    JSONHTTPClient,
    RetryPolicy,
    ServerTimeout,
    StoreHTTPServer,
    StoreServer,
)

DIM = 1024
SHARDS = 8
QUERY_POOL = 256


def build_store(num_items, rng):
    """Stream the store in; keep a noisy query pool from the first chunk."""
    print(f"building {num_items:,}-item packed store "
          f"({DIM} dims, {SHARDS} shards)...")
    store = AssociativeStore(DIM, backend="packed", shards=SHARDS)
    chunk = 65536
    queries = None
    for start in range(0, num_items, chunk):
        rows = min(chunk, num_items - start)
        vectors = random_bipolar(rows, DIM, rng)
        if queries is None:
            queries = vectors[:QUERY_POOL].copy()
            flips = rng.integers(0, DIM, size=(len(queries), DIM // 8))
            for row, columns in enumerate(flips):
                queries[row, columns] *= -1
        store.add_many((f"item{i}" for i in range(start, start + rows)),
                       vectors)
    return store, queries


async def offered_load(server, queries, offered_qps, num_requests,
                       timeout_ms=None):
    """Fire requests on an open-loop schedule; return per-request latency.

    With ``timeout_ms``, requests the server cannot answer inside the
    deadline resolve to ``None`` (counted, excluded from the agreement
    spot-check) instead of queueing without bound.
    """
    period = 1.0 / offered_qps
    loop = asyncio.get_running_loop()
    start = loop.time()
    latencies = [None] * num_requests
    answers = [None] * num_requests

    async def one(index):
        scheduled = start + index * period
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            answers[index] = await server.cleanup(
                queries[index % len(queries)], timeout_ms=timeout_ms)
        except ServerTimeout:
            pass  # answers[index] stays None
        latencies[index] = loop.time() - scheduled

    await asyncio.gather(*[one(i) for i in range(num_requests)])
    elapsed = loop.time() - start
    return np.asarray(latencies) * 1000.0, answers, elapsed


def print_histogram(latencies_ms, bins=12):
    edges = np.logspace(np.log10(max(latencies_ms.min(), 0.05)),
                        np.log10(latencies_ms.max() + 1e-9), bins + 1)
    counts, _ = np.histogram(latencies_ms, bins=edges)
    peak = max(counts.max(), 1)
    print("\nlatency histogram (scheduled arrival -> resolution):")
    for lo, hi, count in zip(edges[:-1], edges[1:], counts):
        bar = "#" * max(1 if count else 0, round(40 * count / peak))
        print(f"  {lo:8.2f}-{hi:8.2f} ms  {count:6d}  {bar}")


async def offered_load_http(http, queries, offered_qps, num_requests,
                            timeout_ms=None, retry=False):
    """The same open-loop schedule, over the wire.

    Connections are checked out of a keep-alive pool that grows by one
    whenever every connection is busy (a ``JSONHTTPClient`` carries one
    request at a time), so the pool size ends up tracking the peak
    concurrency the offered rate actually produced.
    """
    period = 1.0 / offered_qps
    loop = asyncio.get_running_loop()
    wire = [[int(v) for v in q] for q in queries]
    pool = asyncio.Queue()
    clients = []
    start = loop.time()
    latencies = [None] * num_requests
    answers = [None] * num_requests
    policy = RetryPolicy(max_retries=4, base_delay_ms=5.0,
                         max_delay_ms=100.0) if retry else None

    async def one(index):
        scheduled = start + index * period
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if pool.empty():
            client = await JSONHTTPClient.connect(http.host, http.port,
                                                  retry=policy)
            clients.append(client)
        else:
            client = pool.get_nowait()
        body = {"query": wire[index % len(wire)]}
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        status, payload = await client.request("POST", "/v1/cleanup", body)
        if status == 200:
            answers[index] = (payload["label"], payload["similarity"])
        else:
            assert status == 504, payload  # expired deadline, by design
        latencies[index] = loop.time() - scheduled
        pool.put_nowait(client)

    await asyncio.gather(*[one(i) for i in range(num_requests)])
    elapsed = loop.time() - start
    await asyncio.gather(*[client.close() for client in clients])
    return np.asarray(latencies) * 1000.0, answers, elapsed, len(clients)


async def run(store, queries, offered_qps, max_batch, num_requests,
              http=False, timeout_ms=None, retry=False):
    if http:
        server = StoreServer(store, max_batch=max_batch)
        async with StoreHTTPServer(server) as front:
            print(f"\nserving over http://{front.host}:{front.port} — "
                  f"offering {offered_qps:.0f} q/s ({num_requests} "
                  f"requests, max_batch={max_batch}, "
                  f"timeout_ms={timeout_ms}, retry={retry})...")
            latencies, answers, elapsed, connections = (
                await offered_load_http(front, queries, offered_qps,
                                        num_requests, timeout_ms=timeout_ms,
                                        retry=retry))
            print(f"pool grew to {connections} keep-alive connections")
            stats = server.stats
        return latencies, answers, elapsed, stats
    return await run_in_process(store, queries, offered_qps, max_batch,
                                num_requests, timeout_ms=timeout_ms)


async def run_in_process(store, queries, offered_qps, max_batch,
                         num_requests, timeout_ms=None):
    async with StoreServer(store, max_batch=max_batch) as server:
        print(f"\noffering {offered_qps:.0f} q/s "
              f"({num_requests} requests, max_batch={max_batch}, "
              f"timeout_ms={timeout_ms})...")
        latencies, answers, elapsed = await offered_load(
            server, queries, offered_qps, num_requests,
            timeout_ms=timeout_ms)
        stats = server.stats
    return latencies, answers, elapsed, stats


def main(num_items=100_000, offered_qps=200.0, max_batch=64,
         num_requests=400, http=False, timeout_ms=None, retry=False):
    rng = np.random.default_rng(0)
    store, queries = build_store(num_items, rng)

    latencies, answers, elapsed, stats = asyncio.run(
        run(store, queries, offered_qps, max_batch, num_requests,
            http=http, timeout_ms=timeout_ms, retry=retry))

    p50, p90, p99 = np.percentile(latencies, [50, 90, 99])
    print(f"\nachieved {num_requests / elapsed:,.0f} q/s "
          f"(offered {offered_qps:,.0f})")
    print(f"latency p50 {p50:.2f} ms   p90 {p90:.2f} ms   p99 {p99:.2f} ms")
    print_histogram(latencies)
    timed_out = sum(answer is None for answer in answers)
    if timeout_ms is not None:
        print(f"\n{timed_out}/{num_requests} requests hit the "
              f"{timeout_ms:g} ms deadline")

    print("\nserver stats:")
    for key in ("requests", "waves", "mean_batch_size", "flushed_size",
                "flushed_idle", "flushed_drain", "queue_high_water",
                "timed_out"):
        value = stats[key]
        value = f"{value:.2f}" if isinstance(value, float) else value
        print(f"  {key:>18}: {value}")

    print("\nspot-checking a sample against direct store.cleanup calls...")
    tick = time.perf_counter()
    sample = [i for i in range(0, num_requests, max(1, num_requests // 16))
              if answers[i] is not None]
    assert all(
        answers[i] == store.cleanup(queries[i % len(queries)])
        for i in sample
    ), "served answer diverged from a direct call"
    print(f"  {len(sample)} served answers bit-identical "
          f"({time.perf_counter() - tick:.2f}s)")


if __name__ == "__main__":
    flags = [arg for arg in sys.argv[1:] if arg.startswith("--")]
    argv = [arg for arg in sys.argv[1:] if not arg.startswith("--")]
    timeout_flag = next((arg for arg in flags
                         if arg.startswith("--timeout-ms=")), None)
    main(
        int(argv[0]) if len(argv) > 0 else 100_000,
        float(argv[1]) if len(argv) > 1 else 200.0,
        int(argv[2]) if len(argv) > 2 else 64,
        int(argv[3]) if len(argv) > 3 else 400,
        http="--http" in flags,
        timeout_ms=(float(timeout_flag.split("=", 1)[1])
                    if timeout_flag else None),
        retry="--retry" in flags,
    )
