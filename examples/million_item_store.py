"""One million hypervectors in a sharded associative store, on a budget.

Demonstrates the store subsystem (``repro.hdc.store``) at the scale the
ROADMAP targets: a million 1024-dimensional packed hypervectors are
*streamed* into a sharded :class:`AssociativeStore` in 64k-row chunks and
then queried with one batched top-k call.

Stated memory budget (d = 1024, N = 1,000,000, 8 shards):

- resident store: 1 bit/component → 128 bytes/item → **128 MB** total
  (the dense int8 equivalent would be 1 GB);
- ingestion transient: one 64k × 1024 int8 chunk → **64 MB**, freed
  after packing — the full dense matrix never exists;
- query transient: the tiled top-k kernel caps each XOR/popcount
  temporary at ~1 MB per shard call, and the fan-out merge stays in
  the integer distance domain — per-shard partials are (distance,
  insertion-index) pairs, never float similarity rows — so the peak is
  bounded by the kernel tile for any store size.

    python examples/million_item_store.py [num_items] [workers] [executor]

``workers`` (default: every core this process may run on) sets the
per-shard fan-out width and ``executor`` picks the pool kind
(``thread`` default / ``process`` — worker processes re-open the
spilled shards via np.memmap); decisions are identical for any worker
count and either executor.
"""

import sys
import time

import numpy as np

from repro.hdc import random_bipolar
from repro.hdc.store import AssociativeStore

DIM = 1024
SHARDS = 8
CHUNK = 65536
QUERY_BATCH = 64


def main(num_items=1_000_000, workers=None, executor="thread"):
    store = AssociativeStore(DIM, backend="packed", shards=SHARDS,
                             workers=workers, executor=executor)
    rng = np.random.default_rng(0)

    print(f"streaming {num_items:,} packed {DIM}-dim hypervectors "
          f"into {SHARDS} shards ({CHUNK:,} rows per chunk, "
          f"workers={store.workers}, executor={store.executor})...")
    queries = probe_labels = None
    tick = time.perf_counter()
    for start in range(0, num_items, CHUNK):
        rows = min(CHUNK, num_items - start)
        chunk = random_bipolar(rows, DIM, rng)  # the only dense copy alive
        if queries is None:
            # Remember a few items (with 12.5% bit-flip noise) to query later.
            queries = chunk[:QUERY_BATCH].copy()
            probe_labels = [f"item{i}" for i in range(QUERY_BATCH)]
            flips = rng.integers(0, DIM, size=(QUERY_BATCH, DIM // 8))
            for row, columns in enumerate(flips):
                queries[row, columns] *= -1
        store.add_many(
            (f"item{i}" for i in range(start, start + rows)), chunk
        )
        done = start + rows
        if done % (CHUNK * 4) == 0 or done == num_items:
            rate = done / (time.perf_counter() - tick)
            print(f"  {done:>9,} items  ({rate:,.0f} rows/s, "
                  f"{store.measured_bytes() / 2**20:.0f} MB resident)")

    print(f"\nstore: {store}")
    print(f"resident bytes: {store.measured_bytes():,} "
          f"({store.measured_bytes() / len(store):.0f} per item; dense would be {DIM})")

    print(f"\nbatched top-3 for {QUERY_BATCH} noisy queries "
          f"against all {len(store):,} items...")
    tick = time.perf_counter()
    ranked = store.topk_batch(queries, k=3)
    elapsed = time.perf_counter() - tick
    recalled = sum(row[0][0] == label for row, label in zip(ranked, probe_labels))
    print(f"  {elapsed:.2f}s  ({QUERY_BATCH / elapsed:.1f} queries/s, "
          f"{QUERY_BATCH * len(store) / elapsed / 1e6:.0f}M item-compares/s)")
    print(f"  exact recall under 12.5% bit-flip noise: "
          f"{recalled}/{QUERY_BATCH}")
    for label, sim in ranked[0]:
        print(f"  query 0 -> {label}: {sim:+.3f}")
    return store


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000,
        int(sys.argv[2]) if len(sys.argv) > 2 else None,
        sys.argv[3] if len(sys.argv) > 3 else "thread",
    )
