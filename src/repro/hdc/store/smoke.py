"""Store smoke checks: ``python -m repro.hdc.store.smoke [store|http]``.

CI runs both stages on both shard executors. Each builds the same
sharded packed store with a multi-worker fan-out and asks it the same
kind of noisy query batch; three environment knobs scale them:
``STORE_SMOKE_ITEMS`` (stored items, default 400; the CI
``store_scale`` step runs a larger pass), ``STORE_SMOKE_QUERIES`` (noisy
queries, default 48) and ``STORE_SMOKE_EXECUTOR`` (``thread`` default /
``process``, so the memmap-reopening worker path is guarded too).

``store`` (the default) is the persistence-format drift guard: build →
save → reopen → append → delete/upsert → compact → query, every reopen
in a *fresh process* so any drift (manifest schema, shard layout,
segment journal, bit convention) fails loudly. A child interpreter —
which shares no in-memory state, only the on-disk format — reopens the
saved store via memmap and must reproduce the parent's cleanup + top-k
answers bit-for-bit. The parent then *appends* rows through the journal
as a run of many small commits — each one a segment + delta-sidecar +
manifest-swap cycle, the high-rate-ingest shape the O(batch) commit
path exists for — verifying after every commit that a fresh reopen
answers bit-identically through the delta chain; a second child must
answer for the fully grown store; the parent then *mutates* — a
tombstone-journaled ``delete`` and an ``upsert`` that replaces and
enrolls in one commit — and a third child must see deleted labels gone
and answer the mutated store bit-for-bit; after ``compact()`` a fourth
child must still agree, from the rewritten contiguous layout.

``http`` is the serving and wire-transport drift guard: the saved store
is reopened from disk (the served path exercises the memmap-backed
kernels) and served by a :class:`StoreHTTPServer` on an ephemeral port
to concurrent keep-alive :class:`JSONHTTPClient` connections issuing
``/v1/cleanup`` / ``/v1/topk`` / ``/v1/similarities`` requests — JSON
in, JSON out, through the micro-batching ``StoreServer``, which must
count exactly the requests sent, in fewer waves — and every decoded
answer must equal the same store queried directly, one request at a
time. It finishes with the error-mapping spot checks (400 on a
malformed body, 404 on an unknown route, 503 once stopped) so the
transport contract can't silently drift either.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ..hypervector import random_bipolar
from .http import JSONHTTPClient, StoreHTTPServer
from .planner import AssociativeStore
from .serving import StoreServer

DIM = 512
ITEMS = int(os.environ.get("STORE_SMOKE_ITEMS", 400))
QUERIES = int(os.environ.get("STORE_SMOKE_QUERIES", 48))
EXECUTOR = os.environ.get("STORE_SMOKE_EXECUTOR", "thread")
SHARDS = 3
WORKERS = 2
APPEND_ITEMS = max(8, ITEMS // 8)
APPEND_COMMITS = 8  # the store stage journals this many small commits
CLIENTS = 8  # keep-alive connections of the http stage
MAX_BATCH = 8
TOPK = 5

_CHILD = """
import json, os, sys
import numpy as np
from repro.hdc.store import AssociativeStore

path, query_path = sys.argv[1], sys.argv[2]
executor = os.environ.get("STORE_SMOKE_EXECUTOR", "thread")
store = AssociativeStore.open(path, workers=2, executor=executor)
queries = np.load(query_path)
labels, sims = store.cleanup_batch(queries)
topk = store.topk_batch(queries, k=5)
print(json.dumps({
    "labels": labels,
    "sims": [float(s) for s in sims],
    "topk": [[[label, float(sim)] for label, sim in row] for row in topk],
    "items": len(store),
    "shards": store.num_shards,
}))
"""


def _noisy(vectors, rng, num):
    queries = vectors[rng.integers(0, len(vectors), size=num)].copy()
    flips = rng.integers(0, DIM, size=(num, DIM // 8))
    for row, columns in enumerate(flips):
        queries[row, columns] *= -1
    return queries


def _build():
    """The stages' store of ``ITEMS`` rows, its noisy queries, the rng,
    and ``APPEND_ITEMS`` more vectors behind the stored ones."""
    rng = np.random.default_rng(7)
    vectors = random_bipolar(ITEMS + APPEND_ITEMS, DIM, rng)
    store = AssociativeStore.from_vectors(
        [f"item{i}" for i in range(ITEMS)], vectors[:ITEMS], backend="packed",
        shards=SHARDS, workers=WORKERS, executor=EXECUTOR, chunk_size=128,
    )
    return store, vectors, _noisy(vectors[:ITEMS], rng, QUERIES), rng


def _expected(store, queries):
    labels, sims = store.cleanup_batch(queries)
    return {
        "labels": labels,
        "sims": [float(s) for s in sims],
        "topk": [
            [[label, float(sim)] for label, sim in row]
            for row in store.topk_batch(queries, k=5)
        ],
        "items": len(store),
        "shards": store.num_shards,
    }


def _child_answers(store_path, query_path):
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(store_path), str(query_path)],
        capture_output=True, text=True,
    )
    if child.returncode != 0:
        print(child.stdout)
        print(child.stderr, file=sys.stderr)
        return None
    return json.loads(child.stdout)


def store_stage():
    store, vectors, queries, rng = _build()

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "store"
        query_path = Path(tmp) / "queries.npy"
        store.save(store_path)
        np.save(query_path, queries)

        # Stage 1: plain save → fresh-process memmap reopen.
        answer = _child_answers(store_path, query_path)
        if answer != _expected(store, queries):
            print("SMOKE FAIL: reopened store answers differ from the "
                  "in-memory store", file=sys.stderr)
            return 1

        # Stage 2: many small appends through the journal — the
        # high-rate-ingest shape (commit after commit of a few rows,
        # each a segment + delta sidecar + constant-size manifest swap).
        # After every commit a *fresh* handle must answer for the just-
        # appended row through the delta chain; the child then checks
        # the fully grown store from a fresh process.
        grown = AssociativeStore.open(store_path, workers=WORKERS)
        step = max(1, APPEND_ITEMS // APPEND_COMMITS)
        for start in range(0, APPEND_ITEMS, step):
            rows = min(step, APPEND_ITEMS - start)
            grown.add_many(
                [f"item{ITEMS + start + i}" for i in range(rows)],
                vectors[ITEMS + start:ITEMS + start + rows],
            )
            probe = vectors[ITEMS + start + rows - 1]
            expected = grown.cleanup(probe)
            if AssociativeStore.open(store_path).cleanup(probe) != expected:
                print(f"SMOKE FAIL: commit at row {ITEMS + start} not "
                      "answered by a fresh reopen", file=sys.stderr)
                return 1
        queries = _noisy(vectors, rng, QUERIES)  # may now hit appended rows
        np.save(query_path, queries)
        answer = _child_answers(store_path, query_path)
        if answer != _expected(grown, queries):
            print("SMOKE FAIL: journaled append not reproduced after "
                  "fresh-process reopen", file=sys.stderr)
            return 1

        # Stage 3: mutations through the journal — a tombstone-only
        # delete commit and an upsert (replacement segments + tombstones
        # in one commit). A fresh process must see deleted labels gone
        # and answer the mutated store bit-identically.
        doomed = ["item1", f"item{ITEMS // 2}", f"item{ITEMS + 1}"]
        grown.delete(doomed)
        replaced = ["item2", f"item{ITEMS - 1}"]
        upsert_labels = replaced + ["fresh0", "fresh1"]
        grown.upsert(upsert_labels,
                     random_bipolar(len(upsert_labels), DIM, rng))
        fresh = AssociativeStore.open(store_path)
        if any(label in fresh.labels for label in doomed):
            print("SMOKE FAIL: deleted labels survive a fresh reopen",
                  file=sys.stderr)
            return 1
        if fresh.labels[-len(upsert_labels):] != tuple(upsert_labels):
            print("SMOKE FAIL: upserted batch did not re-enter at the end "
                  "of the insertion order", file=sys.stderr)
            return 1
        mutated = _expected(grown, queries)
        answer = _child_answers(store_path, query_path)
        if answer != mutated:
            print("SMOKE FAIL: delete/upsert commits not reproduced after "
                  "fresh-process reopen", file=sys.stderr)
            return 1

        # Stage 4: compact; folding tombstones out must change nothing.
        grown.compact()
        if list(store_path.glob("shard_*.seg*.npy")):
            print("SMOKE FAIL: compact() left segment files behind",
                  file=sys.stderr)
            return 1
        if list(store_path.glob("delta.g*.json")):
            print("SMOKE FAIL: compact() left delta sidecars behind",
                  file=sys.stderr)
            return 1
        answer = _child_answers(store_path, query_path)
        if answer != mutated:
            print("SMOKE FAIL: compacted store answers differ",
                  file=sys.stderr)
            return 1

    print(
        f"store smoke OK: {ITEMS}+{APPEND_ITEMS} items x {DIM} dims, "
        f"{SHARDS} shards, workers={WORKERS}, executor={EXECUTOR}, "
        f"{QUERIES} queries bit-identical across save / "
        f"{APPEND_COMMITS}-commit append run / delete+upsert / compact "
        f"fresh-process reopens"
    )
    return 0


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


def http_stage():
    built, _, queries, _ = _build()

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


STAGES = {"store": store_stage, "http": http_stage}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.hdc.store.smoke",
        description="Store smoke checks (knobs: STORE_SMOKE_ITEMS, "
                    "STORE_SMOKE_QUERIES, STORE_SMOKE_EXECUTOR).")
    parser.add_argument("stage", nargs="?", default="store", choices=STAGES,
                        help="store: save/reopen/append/mutate/compact in "
                             "fresh processes; http: answers over HTTP")
    return STAGES[parser.parse_args(argv).stage]()


if __name__ == "__main__":
    sys.exit(main())
