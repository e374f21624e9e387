"""Serving-layer smoke check: concurrent micro-batched answers over a
*persisted* store must match sequential direct calls bit-for-bit — CI
runs ``python -m repro.hdc.store.serving_smoke`` next to the round-trip
smoke steps.

The check builds a sharded packed store, saves it, reopens it from disk
(so the served path exercises the memmap-backed kernels, not just the
in-memory ones), then fires ``SERVING_SMOKE_QUERIES`` concurrent
``cleanup`` / ``topk`` / ``similarities`` requests at an in-process
:class:`StoreServer` with a small ``max_batch`` — forcing real
coalescing into multi-request waves — and compares every answer against
the same store queried sequentially, one request at a time. Any
divergence (a demux off-by-one, a wave-composition-dependent tie-break,
a stats/slot accounting leak that deadlocks the drain) fails loudly.

``SERVING_SMOKE_ITEMS`` scales the store (default 400; the CI
``store_scale`` step runs a larger pass), ``SERVING_SMOKE_QUERIES``
the concurrent request count (default 64) and ``SERVING_SMOKE_EXECUTOR``
the shard fan-out executor (``thread`` default / ``process``).
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from ..hypervector import random_bipolar
from .planner import AssociativeStore
from .serving import StoreServer

DIM = 512
ITEMS = int(os.environ.get("SERVING_SMOKE_ITEMS", 400))
QUERIES = int(os.environ.get("SERVING_SMOKE_QUERIES", 64))
EXECUTOR = os.environ.get("SERVING_SMOKE_EXECUTOR", "thread")
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


async def _serve(store, queries):
    async with StoreServer(store, max_batch=MAX_BATCH) as srv:
        cleanup = asyncio.gather(*[srv.cleanup(q) for q in queries])
        topk = asyncio.gather(*[srv.topk(q, k=TOPK) for q in queries])
        sims = asyncio.gather(*[srv.similarities(q) for q in queries])
        return await cleanup, await topk, await sims, srv.stats


def main():
    rng = np.random.default_rng(11)
    vectors = random_bipolar(ITEMS, DIM, rng)
    built = AssociativeStore.from_vectors(
        [f"item{i}" for i in range(ITEMS)], vectors, backend="packed",
        shards=SHARDS, workers=WORKERS, executor=EXECUTOR,
    )
    queries = _noisy(vectors, rng, QUERIES)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "store"
        built.save(store_path)
        store = AssociativeStore.open(store_path, workers=WORKERS,
                                      executor=EXECUTOR)

        expected_cleanup = [store.cleanup(q) for q in queries]
        expected_topk = [store.topk(q, k=TOPK) for q in queries]
        expected_sims = [store.similarities(q) for q in queries]

        cleanup, topk, sims, stats = asyncio.run(_serve(store, queries))
        store.memory.close()

    if cleanup != expected_cleanup:
        print("SMOKE FAIL: served cleanup answers differ from sequential "
              "direct calls", file=sys.stderr)
        return 1
    if topk != expected_topk:
        print("SMOKE FAIL: served topk answers differ from sequential "
              "direct calls", file=sys.stderr)
        return 1
    if not all(np.array_equal(got, want)
               for got, want in zip(sims, expected_sims)):
        print("SMOKE FAIL: served similarity rows differ from sequential "
              "direct calls", file=sys.stderr)
        return 1
    if stats["requests"] != 3 * QUERIES or stats["waves"] >= stats["requests"]:
        print(f"SMOKE FAIL: serving stats implausible ({stats})",
              file=sys.stderr)
        return 1

    print(
        f"serving smoke OK: {ITEMS} items x {DIM} dims, {SHARDS} shards, "
        f"executor={EXECUTOR}, {3 * QUERIES} concurrent requests served in "
        f"{stats['waves']} waves (mean batch {stats['mean_batch_size']:.1f}) "
        f"bit-identical to sequential calls over the reopened store"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
