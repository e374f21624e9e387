"""Append-commit benchmark: O(batch) commit cost across store sizes.

Records the ``append`` surface of ``benchmarks/BENCH_store.json``
(merged into the record the other store harnesses write). At each store
size the harness saves a store, reopens it, runs a series of journaled
append commits, and measures what one commit actually costs:

- **throughput** — appended rows/s and the median seconds per commit;
- **metadata bytes per commit** — the manifest rewrite plus the delta
  sidecar. The manifest inlines no label maps, so this column must stay
  **flat in store size**: a commit against a million-item store
  rewrites the same few kilobytes as a commit against ten thousand
  items;
- **the retired cost, measured in-repo** — the bytes a pre-v4
  (label-map-inlining) commit was forced to rewrite every time: the
  full label map and the per-shard orders sidecars, taken from the
  actual files ``save_store`` just wrote for this very store. The
  headline ``rewrite_reduction_vs_full_map`` asserts ≥ 10× less
  metadata rewritten per commit at one million items.

The ``mutation`` surface applies the same yardstick to delete/upsert
commits: at each size the harness runs interleaved tombstone-only
deletes and replace+enroll upserts (with a ``compact()`` halfway, so
the first commit after a compaction is among those timed) and records
the per-commit metadata bytes (manifest + delta sidecar) and the median
seconds per commit. Both must stay **flat in store size** — a delete
against a million-item store journals the same few kilobytes, in about
the same time, as one against ten thousand items. The ``store_scale``
complexity fence (``tests/hdc/store/test_parallel.py``) runs the same
:func:`_mutation_point` at two sizes.

``BENCH_APPEND_MAX_ITEMS`` caps the sweep for a quick pass; the JSON
record and the headline assertion only engage on a full sweep. Every
size spot-checks that appended rows answer after a fresh reopen — the
cost being measured is of *committed* appends — and that deleted
labels are gone and upserted rows answer after a fresh reopen.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_append.py -q``
"""

import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from _bench_io import merge_bench_record
from repro.hdc import random_bipolar
from repro.hdc.store import MANIFEST_NAME, AssociativeStore

D = 1024  # divisible by 64: exactly 16 uint64 words per vector
SIZES = (10_000, 100_000, 1_000_000)
SHARDS = 8
BATCH = 64  # rows per append commit
COMMITS = 8  # journaled commits measured per size
#: delete and upsert commits each, measured per size; the store compacts
#: after the first half
MUTATION_COMMITS = 10
CHUNK = 65536


def _build(num_items, rng):
    store = AssociativeStore(D, backend="packed", shards=SHARDS)
    for start in range(0, num_items, CHUNK):
        rows = min(CHUNK, num_items - start)
        store.add_many(range(start, start + rows), random_bipolar(rows, D, rng))
    return store


def _glob_bytes(path, pattern):
    return sum(p.stat().st_size for p in path.glob(pattern))


def _append_point(num_items, rng, tmp_root=None):
    store = _build(num_items, rng)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        store_path = tmp / "store"
        store.save(store_path)
        manifest_path = store_path / MANIFEST_NAME
        # What a pre-v4 commit rewrote every single time: the manifest
        # *with* its inlined label maps — i.e. today's manifest plus the
        # label/orders sidecars save_store just wrote for this store.
        full_map_bytes = (
            manifest_path.stat().st_size
            + _glob_bytes(store_path, "labels.g*.json")
            + _glob_bytes(store_path, "orders_*.npy")
        )
        del store

        opened = AssociativeStore.open(store_path)
        commit_seconds = []
        for commit in range(COMMITS):
            base = num_items + commit * BATCH
            vectors = random_bipolar(BATCH, D, rng)
            tick = time.perf_counter()
            opened.add_many(range(base, base + BATCH), vectors)
            commit_seconds.append(time.perf_counter() - tick)
        probe = vectors[-1]  # last appended row, queried after reopen

        manifest_bytes = manifest_path.stat().st_size
        delta_bytes = _glob_bytes(store_path, "delta.g*.json") / COMMITS
        segment_bytes = _glob_bytes(store_path, "shard_*.seg*.npy") / COMMITS
        metadata_bytes = manifest_bytes + delta_bytes

        # Committed means committed: a fresh open answers from the journal.
        fresh = AssociativeStore.open(store_path)
        assert fresh.cleanup(probe)[0] == num_items + COMMITS * BATCH - 1
        return {
            "items": num_items,
            "shards": SHARDS,
            "batch": BATCH,
            "commits": COMMITS,
            "append_rows_per_second": BATCH * COMMITS / sum(commit_seconds),
            "seconds_per_commit_median": statistics.median(commit_seconds),
            "manifest_bytes_per_commit": manifest_bytes,
            "delta_bytes_per_commit": delta_bytes,
            "segment_bytes_per_commit": segment_bytes,
            "metadata_bytes_per_commit": metadata_bytes,
            "full_map_rewrite_bytes": full_map_bytes,
            "rewrite_reduction_vs_full_map": full_map_bytes / metadata_bytes,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _mutation_point(num_items, rng, tmp_root=None):
    store = _build(num_items, rng)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        store_path = tmp / "store"
        store.save(store_path)
        manifest_path = store_path / MANIFEST_NAME
        del store

        opened = AssociativeStore.open(store_path)
        delete_seconds, upsert_seconds = [], []
        for commit in range(MUTATION_COMMITS):
            if commit == MUTATION_COMMITS // 2:
                opened.compact()  # the next delete is timed cold after it
            # Tombstone-only commit: BATCH distinct labels per round.
            doomed = list(range(commit * BATCH, (commit + 1) * BATCH))
            tick = time.perf_counter()
            opened.delete(doomed)
            delete_seconds.append(time.perf_counter() - tick)
            # Upsert commit: half replacements, half new enrollments.
            refreshed = list(range(
                (MUTATION_COMMITS + commit) * BATCH,
                (MUTATION_COMMITS + commit) * BATCH + BATCH // 2,
            ))
            enrolled = list(range(
                num_items + commit * (BATCH // 2),
                num_items + (commit + 1) * (BATCH // 2),
            ))
            vectors = random_bipolar(BATCH, D, rng)
            tick = time.perf_counter()
            opened.upsert(refreshed + enrolled, vectors)
            upsert_seconds.append(time.perf_counter() - tick)

        manifest_bytes = manifest_path.stat().st_size
        deltas = list(store_path.glob("delta.g*.json"))  # since the compact
        delta_bytes = sum(p.stat().st_size for p in deltas) / len(deltas)
        metadata_bytes = manifest_bytes + delta_bytes

        # Committed means committed: a fresh open drops every tombstoned
        # row and answers the last upserted one.
        fresh = AssociativeStore.open(store_path)
        assert 0 not in fresh.labels
        assert fresh.cleanup(vectors[-1])[0] == enrolled[-1]
        return {
            "items": num_items,
            "shards": SHARDS,
            "batch": BATCH,
            "commits": 2 * MUTATION_COMMITS,
            "delete_rows_per_second": BATCH * MUTATION_COMMITS / sum(delete_seconds),
            "upsert_rows_per_second": BATCH * MUTATION_COMMITS / sum(upsert_seconds),
            "seconds_per_delete_median": statistics.median(delete_seconds),
            "seconds_per_upsert_median": statistics.median(upsert_seconds),
            "manifest_bytes_per_commit": manifest_bytes,
            "delta_bytes_per_commit": delta_bytes,
            "metadata_bytes_per_commit": metadata_bytes,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_append_surface_json():
    """Record per-commit cost at each decade; assert it is O(batch)."""
    max_items = int(os.environ.get("BENCH_APPEND_MAX_ITEMS", SIZES[-1]))
    sizes = [size for size in SIZES if size <= max_items]
    points = [
        _append_point(num_items, np.random.default_rng(num_items + 7))
        for num_items in sizes
    ]

    # Flat in store size: the commit metadata at the largest size must
    # stay within 2x of the smallest (it grows with the *journal*, never
    # with the store), while the retired full-map rewrite grows ~100x
    # across the same sweep.
    if len(points) > 1:
        assert points[-1]["metadata_bytes_per_commit"] <= (
            2 * points[0]["metadata_bytes_per_commit"]
        ), points
    if sizes[-1] == SIZES[-1]:  # full sweep: record + headline assertion
        assert points[-1]["rewrite_reduction_vs_full_map"] >= 10, points[-1]
        merge_bench_record(
            "BENCH_store.json",
            {
                "append": {
                    "config": {
                        "dim": D,
                        "backend": "packed",
                        "shards": SHARDS,
                        "batch": BATCH,
                        "commits": COMMITS,
                    },
                    "points": points,
                }
            },
        )


def test_mutation_surface_json():
    """Record per-commit delete/upsert cost; assert it is O(batch)."""
    max_items = int(os.environ.get("BENCH_APPEND_MAX_ITEMS", SIZES[-1]))
    sizes = [size for size in SIZES if size <= max_items]
    points = [
        _mutation_point(num_items, np.random.default_rng(num_items + 11))
        for num_items in sizes
    ]

    # Flat in store size, exactly like appends: mutation commit metadata
    # at the largest size stays within 2x of the smallest — and so does
    # the median time of a delete and of an upsert commit.
    if len(points) > 1:
        assert points[-1]["metadata_bytes_per_commit"] <= (
            2 * points[0]["metadata_bytes_per_commit"]
        ), points
        for kind in ("delete", "upsert"):
            key = f"seconds_per_{kind}_median"
            assert points[-1][key] <= 2 * points[0][key], points
    if sizes[-1] == SIZES[-1]:  # full sweep: record the surface
        merge_bench_record(
            "BENCH_store.json",
            {
                "mutation": {
                    "config": {
                        "dim": D,
                        "backend": "packed",
                        "shards": SHARDS,
                        "batch": BATCH,
                        "commits": 2 * MUTATION_COMMITS,
                    },
                    "points": points,
                }
            },
        )
