"""Serving and wire-transport smoke check: answers fetched over real
HTTP sockets must match sequential direct calls bit-for-bit — CI runs
``python -m repro.hdc.store.http_smoke`` on both shard executors.

The check builds a sharded packed store, saves it, reopens it from disk
(the served path exercises the memmap-backed kernels), then drives a
:class:`StoreHTTPServer` on an ephemeral port with ``HTTP_SMOKE_CLIENTS``
concurrent keep-alive :class:`JSONHTTPClient` connections issuing
``/v1/cleanup`` / ``/v1/topk`` / ``/v1/similarities`` requests — JSON in,
JSON out, through the micro-batching ``StoreServer``, which must count
exactly the requests sent, in fewer waves — and compares every decoded
answer against the same store queried directly, one request at a time.
It finishes with the error-mapping spot checks (400 on a malformed
body, 404 on an unknown route, 503 once stopped) so the transport
contract can't silently drift either.

``HTTP_SMOKE_ITEMS`` scales the store (default 400; the CI
``store_scale`` step runs a larger pass), ``HTTP_SMOKE_QUERIES`` the
request count per kind (default 48), ``HTTP_SMOKE_CLIENTS`` the
connection count (default 8) and ``HTTP_SMOKE_EXECUTOR`` the shard
fan-out executor (``thread`` default / ``process``).
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from ..hypervector import random_bipolar
from .http import JSONHTTPClient, StoreHTTPServer
from .planner import AssociativeStore
from .serving import StoreServer

DIM = 512
ITEMS = int(os.environ.get("HTTP_SMOKE_ITEMS", 400))
QUERIES = int(os.environ.get("HTTP_SMOKE_QUERIES", 48))
CLIENTS = int(os.environ.get("HTTP_SMOKE_CLIENTS", 8))
EXECUTOR = os.environ.get("HTTP_SMOKE_EXECUTOR", "thread")
SHARDS = 3
WORKERS = 2
MAX_BATCH = 8
TOPK = 5


def _noisy(vectors, rng, num):
    queries = vectors[rng.integers(0, len(vectors), size=num)].copy()
    flips = rng.integers(0, DIM, size=(num, DIM // 8))
    for row, columns in enumerate(flips):
        queries[row, columns] *= -1
    return queries


async def _drive(store, queries):
    """Serve every request over the wire; return decoded answers + stats."""
    requests = []
    for q in queries:
        row = [int(v) for v in q]
        requests.append(("POST", "/v1/cleanup", {"query": row}))
        requests.append(("POST", "/v1/topk", {"query": row, "k": TOPK}))
        requests.append(("POST", "/v1/similarities", {"query": row}))

    async with StoreHTTPServer(StoreServer(store, max_batch=MAX_BATCH)) as http:
        clients = await asyncio.gather(*[
            JSONHTTPClient.connect(http.host, http.port)
            for _ in range(CLIENTS)
        ])

        async def worker(client, jobs):
            return [await client.request(*job) for job in jobs]

        try:
            chunks = await asyncio.gather(*[
                worker(client, requests[i::CLIENTS])
                for i, client in enumerate(clients)
            ])
            bad = await clients[0].request(
                "POST", "/v1/cleanup", {"query": "not an array"})
            missing = await clients[0].request("GET", "/v1/missing")
            status, stats = await clients[0].request("GET", "/v1/stats")
            assert status == 200, stats
            # stop the serving layer underneath the live transport:
            # ServerClosed must surface on the wire as 503
            await http.server.stop()
            closed = await clients[0].request(
                "POST", "/v1/cleanup", {"query": requests[0][2]["query"]})
        finally:
            await asyncio.gather(*[client.close() for client in clients])
        port = http.port

    # interleave the per-client chunks back into request order
    answers = [None] * len(requests)
    for i, chunk in enumerate(chunks):
        for j, answer in enumerate(chunk):
            answers[i + j * CLIENTS] = answer

    # once stopped, fresh connections are refused outright
    try:
        client = await JSONHTTPClient.connect("127.0.0.1", port)
    except OSError:
        refused = True
    else:
        refused = False
        await client.close()
    return answers, stats, bad, missing, closed, refused


def main():
    rng = np.random.default_rng(17)
    vectors = random_bipolar(ITEMS, DIM, rng)
    built = AssociativeStore.from_vectors(
        [f"item{i}" for i in range(ITEMS)], vectors, backend="packed",
        shards=SHARDS, workers=WORKERS, executor=EXECUTOR,
    )
    queries = _noisy(vectors, rng, QUERIES)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "store"
        built.save(store_path)
        built.memory.close()
        store = AssociativeStore.open(store_path, workers=WORKERS,
                                      executor=EXECUTOR)
        expected = []
        for q in queries:
            label, sim = store.cleanup(q)
            expected.append((200, {"label": label, "similarity": sim}))
            expected.append((200, {"results": [
                {"label": lbl, "similarity": s}
                for lbl, s in store.topk(q, k=TOPK)
            ]}))
            expected.append((200, {"similarities":
                                   [float(s) for s in store.similarities(q)]}))

        answers, stats, bad, missing, closed, refused = asyncio.run(
            _drive(store, queries))
        store.memory.close()

    for index, (got, want) in enumerate(zip(answers, expected)):
        if got != want:
            print(f"SMOKE FAIL: wire answer {index} diverged from the "
                  f"direct call\n  got:  {got}\n  want: {want}",
                  file=sys.stderr)
            return 1
    served = stats["server"]
    routes = stats["http"]["requests_by_route"]
    if served["requests"] != 3 * QUERIES or served["waves"] >= served["requests"]:
        print(f"SMOKE FAIL: serving stats implausible ({served})",
              file=sys.stderr)
        return 1
    if routes["POST /v1/cleanup"] != QUERIES + 1:  # + the malformed probe
        print(f"SMOKE FAIL: route counters implausible ({routes})",
              file=sys.stderr)
        return 1
    if bad[0] != 400 or missing[0] != 404 or closed[0] != 503:
        print(f"SMOKE FAIL: error mapping drifted (400→{bad[0]}, "
              f"404→{missing[0]}, 503→{closed[0]})", file=sys.stderr)
        return 1
    if not refused:
        print("SMOKE FAIL: stopped server still accepts connections",
              file=sys.stderr)
        return 1

    print(
        f"http smoke OK: {ITEMS} items x {DIM} dims, {SHARDS} shards, "
        f"executor={EXECUTOR}, {3 * QUERIES} requests over {CLIENTS} "
        f"keep-alive connections served in {served['waves']} waves "
        f"(mean batch {served['mean_batch_size']:.1f}) bit-identical to "
        f"direct calls over the reopened store; 400/404/503 mapping intact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
