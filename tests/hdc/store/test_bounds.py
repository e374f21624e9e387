"""Geometric (centroid + radius) shard bounds: pruning and exactness.

The second pruning layer's contract, two ways:

- **decisions never move** — on cluster-sharded stores whose per-shard
  minus-count intervals fully overlap (the workload the minus bound
  cannot prune), the geometric bound skips shards while every answer
  stays bit-identical to the single-shard reference, pruned or not;
- **bounds stay exact** — the persisted radius is exactly
  ``max_row d(row, centroid)`` for the persisted centroid, through
  chunked ingest, journaled appends, compaction, and a fresh-process
  reopen.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.hdc import ItemMemory, random_bipolar
from repro.hdc.store import (
    AssociativeStore,
    ShardedItemMemory,
    open_store,
    read_manifest,
    save_store,
)
from repro.hdc.store.persistence import _centroid_from_hex

BACKENDS = ("dense", "packed")
EXECUTORS = ("thread", "process")


def _cluster_store(rng, dim=128, shards=4, per_shard=20, backend="packed",
                   executor="thread", noise_bits=8):
    """Cluster-sharded but popcount-*unbanded* data.

    One random prototype per shard (popcounts all ~dim/2, so the
    per-shard minus-count intervals overlap and that bound prunes
    nothing), items are noisy copies routed shard-pure via round robin —
    shards are geometrically tight balls, exactly what the centroid +
    radius bound captures.
    """
    prototypes = random_bipolar(shards, dim, rng)
    items = shards * per_shard
    vectors = prototypes[np.arange(items) % shards].copy()
    flips = rng.integers(0, dim, size=(items, noise_bits))
    for row, columns in enumerate(flips):
        vectors[row, columns] *= -1
    labels = [f"v{i}" for i in range(items)]
    reference = ItemMemory(dim, backend=backend)
    reference.add_many(labels, vectors)
    sharded = ShardedItemMemory(dim, num_shards=shards, backend=backend,
                                routing="round_robin", executor=executor)
    sharded.add_many(labels, vectors, chunk_size=13)
    queries = prototypes[:1].copy()  # near shard 0's ball, far from the rest
    queries[0, rng.integers(0, dim, size=4)] *= -1
    return reference, sharded, vectors, queries


def _assert_memory_bounds_exact(memory):
    """In-memory invariant: every bound group's radius is exactly
    ``max d(row, centroid)`` over the rows *it* covers — the base group
    over the base rows, each journaled segment group over its block."""
    for index, shard in enumerate(memory.shards):
        native = shard.native_matrix()
        segments = memory._segment_groups[index]
        base_rows = len(shard) - sum(group["rows"] for group in segments)
        blocks = [(memory._geo_centroid[index], memory._geo_radius[index],
                   native[:base_rows])]
        offset = base_rows
        for group in segments:
            blocks.append((group["centroid"], group["radius"],
                           native[offset:offset + group["rows"]]))
            offset += group["rows"]
        for block, (centroid, radius, rows) in enumerate(blocks):
            if centroid is None:
                assert radius is None, f"shard {index} block {block}"
                continue
            if not rows.shape[0]:
                continue
            distances = np.atleast_1d(memory.backend.hamming(centroid, rows))
            assert int(distances.max()) == radius, f"shard {index} block {block}"


def _assert_manifest_bounds_exact(path):
    """Persisted invariant: each bound block — the entry's (base rows)
    and every journaled segment's — is exact over *its own* rows: the
    minus interval is the per-row min/max and the radius is
    ``max_row d(row, centroid)``."""
    manifest = read_manifest(path)
    memory = open_store(path, mmap=False)
    shards = memory.shards if isinstance(memory, ShardedItemMemory) else [memory]
    for index, (entry, shard) in enumerate(zip(manifest["shards"], shards)):
        if not len(shard):
            continue
        native = shard.native_matrix()  # base rows, then segments in order
        blocks = [(entry["bounds"], native[: entry["rows"]])]
        offset = entry["rows"]
        for segment in entry.get("segments", ()):
            blocks.append(
                (segment["bounds"], native[offset:offset + segment["rows"]]))
            offset += segment["rows"]
        assert offset == len(shard), f"shard {index}"
        for block, (bounds, rows) in enumerate(blocks):
            if not rows.shape[0]:
                continue
            where = f"shard {index} block {block}"
            minus = shard.backend.minus_counts(rows)
            assert bounds["minus_min"] == int(minus.min()), where
            assert bounds["minus_max"] == int(minus.max()), where
            if bounds["centroid"] is None:
                continue
            centroid = _centroid_from_hex(shard.backend, bounds["centroid"])
            distances = np.atleast_1d(shard.backend.hamming(centroid, rows))
            assert int(distances.max()) == int(bounds["radius"]), where


class TestGeometricPruning:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_centroid_layer_skips_where_minus_cannot(self, backend, executor,
                                                     rng):
        reference, sharded, _, queries = _cluster_store(
            rng, backend=backend, executor=executor)
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        got_labels, got_sims = sharded.cleanup_batch(queries)
        assert got_labels == ref_labels
        assert np.array_equal(got_sims, ref_sims)
        assert sharded.topk_batch(queries, k=7) == reference.topk_batch(
            queries, k=7)
        stats = sharded.pruning_stats
        assert stats["skipped_centroid"] > 0  # the new layer carries it
        assert stats["skipped_minus"] == 0  # popcounts can't tell shards apart
        assert stats["skipped"] == (
            stats["skipped_minus"] + stats["skipped_centroid"]
        )
        sharded.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_toggle_is_bit_identical_on_cluster_store(self, backend, rng):
        reference, sharded, vectors, queries = _cluster_store(rng,
                                                              backend=backend)
        mixed = np.concatenate([queries, vectors[:3]])
        pruned_cleanup = sharded.cleanup_batch(mixed)
        pruned_topk = sharded.topk_batch(mixed, k=6)
        sharded.prune = False
        assert sharded.cleanup_batch(mixed)[0] == pruned_cleanup[0]
        assert np.array_equal(sharded.cleanup_batch(mixed)[1],
                              pruned_cleanup[1])
        assert sharded.topk_batch(mixed, k=6) == pruned_topk
        assert sharded.topk_batch(mixed, k=6) == reference.topk_batch(mixed,
                                                                      k=6)

    def test_boundary_tie_in_a_skippable_looking_shard_survives(self, rng):
        """A duplicate of the best match living in a *geometrically tight*
        other shard ties exactly at the k-th best; the strict skip rule
        must score that shard so insertion order decides."""
        dim = 128
        row = np.ones(dim, dtype=np.int8)
        sharded = ShardedItemMemory(dim, num_shards=2, backend="packed",
                                    routing="round_robin")
        # shard 0: "first"; shard 1: identical "second" (radius 0 balls,
        # lower bound exactly equal to the k-th best — never skippable)
        sharded.add_many(["first", "second"], np.stack([row, row]))
        label, sim = sharded.cleanup(row)
        assert label == "first" and sim == 1.0
        assert [name for name, _ in sharded.topk(row, k=2)] == [
            "first", "second"]

    def test_banded_store_attributes_skips_to_the_minus_layer(self, rng):
        """On the PR 4 banded workload the interval bound alone proves the
        skip — attribution must say so."""
        dim, shards, per_shard = 128, 8, 4
        vectors = []
        for i in range(shards * per_shard):
            minus = (i % shards) * (dim // shards)
            row = np.ones(dim, dtype=np.int8)
            row[:minus] = -1
            vectors.append(row)
        vectors = np.stack(vectors)
        sharded = ShardedItemMemory(dim, num_shards=shards, backend="packed",
                                    routing="round_robin")
        sharded.add_many([f"v{i}" for i in range(len(vectors))], vectors)
        sharded.cleanup_batch(np.stack([vectors[0], vectors[8]]))
        stats = sharded.pruning_stats
        assert stats["skipped"] == 7
        assert stats["skipped_minus"] == 7
        assert stats["skipped_centroid"] == 0


class TestSegmentBounds:
    def test_append_segment_ball_skips_where_a_widened_ball_could_not(
        self, tmp_path, rng
    ):
        """Widening the shard's single ball to cover an appended batch
        would let a far-away batch drown a tight base ball and blind the
        geometric layer. The journal gives the batch its own exact ball:
        the planner's min-over-groups bound still skips — and a widened
        single ball provably could not have."""
        dim = 128
        reference, sharded, vectors, queries = _cluster_store(rng, dim=dim)
        save_store(sharded, tmp_path / "s")
        opened = AssociativeStore.open(tmp_path / "s")

        # Round-robin routing sends appended row j to shard j % 4, so
        # give each shard a tight batch at the *antipode* of its own
        # prototype: maximally far from the base ball (the widened
        # radius blows up to ~dim) yet still ~dim/2 from the query.
        extra = -vectors[np.arange(8) % 4].copy()
        flips = rng.integers(0, dim, size=(8, 3))
        for row, columns in enumerate(flips):
            extra[row, columns] *= -1
        opened.add_many([f"far{i}" for i in range(8)], extra)
        reference.add_many([f"far{i}" for i in range(8)], extra)

        ref_labels, ref_sims = reference.cleanup_batch(queries)
        got_labels, got_sims = opened.cleanup_batch(queries)
        assert got_labels == ref_labels
        assert np.array_equal(got_sims, ref_sims)
        assert opened.pruning_stats["skipped_centroid"] > 0

        # Reconstruct what the retired design would have bounded with:
        # the base centroid, radius widened over the appended rows. That
        # single ball's lower bound never strictly beats the best
        # distance — no shard could have geo-skipped.
        memory = opened.memory
        backend = memory.backend
        q_native = backend.from_bipolar(queries)
        best = min(
            int(np.atleast_1d(
                backend.hamming(q_native[0], shard.native_matrix())).min())
            for shard in memory.shards
        )
        for index, shard in enumerate(memory.shards):
            segments = memory._segment_groups[index]
            assert segments, f"shard {index} journaled no appended rows"
            base_rows = len(shard) - sum(g["rows"] for g in segments)
            centroid = memory._geo_centroid[index]
            native = shard.native_matrix()
            widened = max(
                int(memory._geo_radius[index]),
                int(np.atleast_1d(
                    backend.hamming(centroid, native[base_rows:])).max()),
            )
            to_centroid = int(np.atleast_1d(
                backend.hamming(centroid, q_native)).max())
            assert to_centroid - widened <= best, f"shard {index}"

    def test_append_into_empty_shard_establishes_exact_bounds(
        self, tmp_path, rng
    ):
        """A saved store with a still-empty shard: the one row an append
        routes there journals as a radius-zero segment with its own exact
        bounds, while the empty base entry stays empty."""
        dim = 64
        memory = ShardedItemMemory(dim, num_shards=3, backend="packed",
                                   routing="round_robin")
        memory.add_many(["a", "b"], random_bipolar(2, dim, rng))  # shard 2 empty
        save_store(memory, tmp_path / "s")
        opened = AssociativeStore.open(tmp_path / "s")
        opened.add_many(["c"], random_bipolar(1, dim, rng))  # routes to shard 2
        entries = read_manifest(tmp_path / "s")["shards"]
        assert entries[2]["rows"] == 0  # base stays empty; the row journals
        (segment,) = entries[2]["segments"]
        assert segment["bounds"]["centroid"] is not None
        assert segment["bounds"]["radius"] == 0  # one row: radius zero
        _assert_manifest_bounds_exact(tmp_path / "s")


def _forget_base_bounds(path):
    """Null every layer of each shard entry's persisted bounds block —
    the unknown-bounds state a manifest may carry (bounds are advisory
    metadata, so this is not corruption)."""
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["shards"]:
        entry["bounds"] = dict.fromkeys(entry["bounds"])
    manifest_path.write_text(json.dumps(manifest))


class TestUnknownBounds:
    """A manifest whose base bounds are unknown opens, never skips a
    shard it cannot bound, and regains exact bounds on its first
    compact."""

    def test_opens_never_geo_skips_and_gains_bounds_on_compact(
        self, tmp_path, rng
    ):
        reference, sharded, _, queries = _cluster_store(rng)
        save_store(sharded, tmp_path / "s")
        sharded.close()
        _forget_base_bounds(tmp_path / "s")

        opened = AssociativeStore.open(tmp_path / "s")
        assert opened.cleanup_batch(queries)[0] == reference.cleanup_batch(
            queries)[0]
        assert opened.pruning_stats["skipped"] == 0  # both layers unknown

        opened.compact()  # recomputes both layers exactly
        assert all(entry["bounds"]["centroid"] is not None
                   for entry in read_manifest(tmp_path / "s")["shards"])
        _assert_manifest_bounds_exact(tmp_path / "s")
        opened.reset_pruning_stats()
        assert opened.cleanup_batch(queries)[0] == reference.cleanup_batch(
            queries)[0]
        assert opened.pruning_stats["skipped_centroid"] > 0  # skips now
        # ... and a fresh reopen sees the same bounds
        fresh = AssociativeStore.open(tmp_path / "s")
        fresh.cleanup_batch(queries)
        assert fresh.pruning_stats["skipped_centroid"] > 0

    def test_append_journals_an_exact_segment_and_leaves_base_unknown(
        self, tmp_path, rng
    ):
        """An append never compacts behind the caller's back: the base
        bounds stay unknown (so their shards are never skipped), and the
        new rows journal as segments with their own exact balls."""
        reference, sharded, _, queries = _cluster_store(rng)
        save_store(sharded, tmp_path / "s")
        sharded.close()
        _forget_base_bounds(tmp_path / "s")
        opened = AssociativeStore.open(tmp_path / "s")
        extra = random_bipolar(5, 128, rng)
        opened.add_many([f"late{i}" for i in range(5)], extra)
        reference.add_many([f"late{i}" for i in range(5)], extra)

        manifest = read_manifest(tmp_path / "s")
        assert manifest["deltas"]  # journaled, not compacted
        assert all(entry["bounds"]["centroid"] is None
                   and entry["bounds"]["minus_min"] is None
                   for entry in manifest["shards"])
        assert _assert_segment_bounds_exact_over_committed_rows(
            tmp_path / "s") == 4  # one segment per shard
        assert opened.cleanup_batch(queries)[0] == reference.cleanup_batch(
            queries)[0]
        assert opened.topk_batch(queries, k=7) == reference.topk_batch(
            queries, k=7)
        assert opened.pruning_stats["skipped"] == 0


class TestBoundStateCache:
    def test_cache_never_survives_a_mutation(self, tmp_path, rng):
        """The stacked-centroid/bound tables are cached between queries
        and must be dropped by *every* mutation — add, journaled
        append, and compact — so a stale stack can never bound fresh
        rows."""
        _, sharded, vectors, queries = _cluster_store(rng)
        sharded.cleanup_batch(queries)
        state = sharded._bound_state()
        assert sharded._bound_state() is state  # reused across queries
        sharded.add("late", vectors[0])
        assert sharded._bound_state_cache is None  # add() invalidates
        assert sharded._bound_state() is not state

        save_store(sharded, tmp_path / "s")
        opened = AssociativeStore.open(tmp_path / "s")
        memory = opened.memory
        memory.cleanup_batch(queries)
        cached = memory._bound_state()
        opened.add_many(["x1", "x2"], random_bipolar(2, 128, rng))
        assert memory._bound_state_cache is None  # journaled append too
        rebuilt = memory._bound_state()
        assert rebuilt is not cached
        # ... and the rebuilt stack actually carries the new segment balls
        assert rebuilt["centroids"].shape[0] > cached["centroids"].shape[0]

        opened.compact()
        assert memory._bound_state_cache is None  # compact adoption too


class TestResetPruningStats:
    def test_counters_accumulate_until_reset_and_snapshot_returned(self, rng):
        _, sharded, _, queries = _cluster_store(rng)
        sharded.cleanup_batch(queries)
        once = sharded.pruning_stats
        sharded.cleanup_batch(queries)
        twice = sharded.pruning_stats
        assert twice["tasks"] == 2 * once["tasks"]  # cumulative by contract
        assert twice["batches"] == 2 * once["batches"]
        snapshot = sharded.reset_pruning_stats()
        assert snapshot == twice  # the pre-reset epoch comes back
        zeroed = sharded.pruning_stats
        assert all(zeroed[key] == 0 for key in
                   ("batches", "tasks", "skipped", "skipped_minus",
                    "skipped_centroid", "bounded"))
        sharded.cleanup_batch(queries)
        assert sharded.pruning_stats["tasks"] == once["tasks"]  # fresh epoch

    def test_facade_reset_delegates_and_single_shard_returns_none(self, rng):
        vectors = random_bipolar(12, 64, rng)
        store = AssociativeStore.from_vectors(
            [f"v{i}" for i in range(12)], vectors, shards=3, backend="packed")
        store.cleanup_batch(vectors[:2])
        snapshot = store.reset_pruning_stats()
        assert snapshot["batches"] >= 1
        assert store.pruning_stats["batches"] == 0
        single = AssociativeStore.from_vectors(["a"], vectors[:1])
        assert single.reset_pruning_stats() is None
        assert single.pruning_stats is None


_CHILD = """
import json, sys
import numpy as np
from repro.hdc.store import ShardedItemMemory, open_store, read_manifest
from repro.hdc.store.persistence import _centroid_from_hex

path, query_path = sys.argv[1], sys.argv[2]
memory = open_store(path)
manifest = read_manifest(path)
shards = memory.shards if isinstance(memory, ShardedItemMemory) else [memory]
radii_exact = []
for entry, shard in zip(manifest["shards"], shards):
    bounds = entry["bounds"]
    if bounds["centroid"] is None or not len(shard):
        radii_exact.append(None)
        continue
    centroid = _centroid_from_hex(shard.backend, bounds["centroid"])
    distances = np.atleast_1d(shard.backend.hamming(centroid,
                                                    shard.native_matrix()))
    radii_exact.append(bool(int(distances.max()) == int(bounds["radius"])))
labels, _ = memory.cleanup_batch(np.load(query_path))
print(json.dumps({"radii_exact": radii_exact, "labels": labels,
                  "stats": memory.pruning_stats}))
"""


class TestBoundsExactness:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_memory_bounds_exact_after_chunked_ingest(self, backend, rng):
        _, sharded, vectors, _ = _cluster_store(rng, backend=backend)
        _assert_memory_bounds_exact(sharded)
        sharded.add("late", vectors[0])  # single-row path folds too
        _assert_memory_bounds_exact(sharded)

    def test_bounds_exact_across_append_compact_and_fresh_process(
        self, tmp_path, rng
    ):
        """The satellite's full lifecycle: save → append (journaled) →
        compact → reopen in a *fresh process*, the persisted radius
        exact at every stage and skips intact at the end."""
        dim, shards = 128, 3
        reference, sharded, vectors, queries = _cluster_store(
            rng, dim=dim, shards=shards)
        store_path = tmp_path / "store"
        save_store(sharded, store_path)
        _assert_manifest_bounds_exact(store_path)

        opened = AssociativeStore.open(store_path)
        prototypes = vectors[:shards]  # row i is shard i's prototype copy
        extra = prototypes[np.arange(10) % shards].copy()
        flips = rng.integers(0, dim, size=(10, 6))
        for row, columns in enumerate(flips):
            extra[row, columns] *= -1
        opened.add_many([f"late{i}" for i in range(10)], extra)
        reference.add_many([f"late{i}" for i in range(10)], extra)
        _assert_manifest_bounds_exact(store_path)  # append folded exactly
        _assert_memory_bounds_exact(opened.memory)  # disk mirrors memory

        opened.compact()
        _assert_manifest_bounds_exact(store_path)  # recomputed, tight again
        _assert_memory_bounds_exact(opened.memory)

        query_path = tmp_path / "queries.npy"
        np.save(query_path, queries)
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, str(store_path), str(query_path)],
            capture_output=True, text=True, check=True,
        )
        report = json.loads(child.stdout)
        assert all(flag for flag in report["radii_exact"]
                   if flag is not None)
        assert any(flag for flag in report["radii_exact"])  # bounds exist
        assert report["labels"] == reference.cleanup_batch(queries)[0]
        assert report["stats"]["skipped_centroid"] > 0  # and they skip


def _assert_segment_bounds_exact_over_committed_rows(path):
    """Invariant that survives mutation: every journaled segment's bounds
    block is exact over the rows *committed with it* (the ``.npy`` rows),
    even after later tombstones thin the segment — bounds are write-once
    supersets, recomputed only at compact."""
    manifest = read_manifest(path)
    memory = open_store(path, mmap=False)
    backend = (memory.shards[0].backend
               if isinstance(memory, ShardedItemMemory) else memory.backend)
    checked = 0
    for entry in manifest["shards"]:
        for segment in entry.get("segments", ()):
            rows = np.load(path / segment["file"])
            bounds = segment["bounds"]
            minus = backend.minus_counts(rows)
            assert bounds["minus_min"] == int(minus.min())
            assert bounds["minus_max"] == int(minus.max())
            centroid = _centroid_from_hex(backend, bounds["centroid"])
            distances = np.atleast_1d(backend.hamming(centroid, rows))
            assert int(distances.max()) == int(bounds["radius"])
            checked += 1
    return checked


class TestBoundsUnderMutation:
    """The bounds contract under mutation: a delete may only *tighten* a group's
    bound (never recomputed mid-generation, so the persisted block is an
    unchanged, still-sound superset), a replacement segment carries its
    own exact ball, and pruning stays decision-invisible across whole
    delete → query → compact → query histories."""

    def test_delete_leaves_bound_blocks_unchanged_and_sound(self, tmp_path,
                                                            rng):
        reference, sharded, vectors, queries = _cluster_store(rng)
        path = tmp_path / "s"
        save_store(sharded, path)
        opened = AssociativeStore.open(path)
        opened.add_many(["x0", "x1", "x2"], random_bipolar(3, 128, rng))
        before = read_manifest(path)

        victims = ["v1", "v6", "v11", "x1"]
        opened.delete(victims)
        after = read_manifest(path)
        for entry_before, entry_after in zip(before["shards"],
                                             after["shards"]):
            # bound blocks byte-identical: deletes never touch them
            assert entry_after["bounds"] == entry_before["bounds"]
            for seg_before, seg_after in zip(entry_before["segments"],
                                             entry_after["segments"]):
                assert seg_after["bounds"] == seg_before["bounds"]
        # live-row accounting moved instead, by exactly the batch size:
        # a reopen masks just the victims, and each segment group counts
        # the live rows of its own physical block
        fresh = open_store(path)
        assert sum(len(shard._dead) for shard in fresh.shards) == len(victims)
        for index, shard in enumerate(fresh.shards):
            live = shard._live_mask()
            stop = live.size
            for group in reversed(fresh._segment_groups[index]):
                assert group["live"] == int(live[stop - group["rows"]:stop].sum())
                stop -= group["rows"]

        # ... and the untouched radii are still *sound* supersets over
        # the rows of every in-memory bound group (deleted rows stay in
        # place, masked, so the groups still cover physical rows)
        memory = opened.memory
        for index, shard in enumerate(memory.shards):
            native = shard.native_matrix()
            segments = memory._segment_groups[index]
            base_rows = native.shape[0] - sum(group["rows"] for group in segments)
            blocks = [(memory._geo_centroid[index],
                       memory._geo_radius[index], native[:base_rows])]
            offset = base_rows
            for group in segments:
                blocks.append((group["centroid"], group["radius"],
                               native[offset:offset + group["rows"]]))
                offset += group["rows"]
            for centroid, radius, block_rows in blocks:
                if centroid is None or not block_rows.shape[0]:
                    continue
                distances = np.atleast_1d(
                    memory.backend.hamming(centroid, block_rows))
                assert int(distances.max()) <= int(radius)

    def test_replacement_segment_carries_its_own_exact_ball(self, tmp_path,
                                                            rng):
        """An upsert's replacement segment journals an exact minus
        interval + centroid/radius over its committed rows, exactly like
        an append segment — and the planner still skips with it."""
        dim = 128
        reference, sharded, vectors, queries = _cluster_store(rng, dim=dim)
        path = tmp_path / "s"
        save_store(sharded, path)
        opened = AssociativeStore.open(path)

        replace = [f"v{i}" for i in range(4)]
        fresh = [f"far{i}" for i in range(4)]
        batch = -vectors[np.arange(8) % 4].copy()  # antipodal, tight balls
        flips = rng.integers(0, dim, size=(8, 3))
        for row, columns in enumerate(flips):
            batch[row, columns] *= -1
        opened.upsert(replace + fresh, batch)
        assert _assert_segment_bounds_exact_over_committed_rows(path) > 0

        survivors = [i for i in range(len(vectors))
                     if f"v{i}" not in replace]
        rebuilt = ItemMemory(dim, backend="packed")
        rebuilt.add_many(
            [f"v{i}" for i in survivors] + replace + fresh,
            np.concatenate([vectors[survivors], batch]),
        )
        ref_labels, ref_sims = rebuilt.cleanup_batch(queries)
        got_labels, got_sims = opened.cleanup_batch(queries)
        assert got_labels == ref_labels
        assert np.array_equal(got_sims, ref_sims)
        assert opened.pruning_stats["skipped_centroid"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prune_toggle_invisible_across_mutation_history(self, tmp_path,
                                                            backend, rng):
        """delete → query → upsert → query → compact → query, pruning on
        vs off: every decision bit-identical, and the post-compact
        bounds are exact again (the delete's tightening realized)."""
        dim = 128
        reference, sharded, vectors, queries = _cluster_store(
            rng, dim=dim, backend=backend)
        path = tmp_path / "s"
        save_store(sharded, path)
        mixed = np.concatenate([queries, vectors[:3]])

        def history(store):
            answers = []
            store.delete(["v2", "v7", "v13"])
            answers.append(store.cleanup_batch(mixed))
            answers.append(store.topk_batch(mixed, k=5))
            store.upsert(["v4", "new0"],
                         random_bipolar(2, dim, np.random.default_rng(77)))
            answers.append(store.cleanup_batch(mixed))
            store.compact()
            answers.append(store.cleanup_batch(mixed))
            answers.append(store.topk_batch(mixed, k=5))
            return answers

        with_prune = tmp_path / "on"
        import shutil as _shutil
        _shutil.copytree(path, with_prune)
        pruned_store = AssociativeStore.open(with_prune)
        pruned = history(pruned_store)
        plain_store = AssociativeStore.open(path)
        plain_store.memory.prune = False
        plain = history(plain_store)
        for got, expected in zip(pruned, plain):
            if isinstance(got, tuple):
                assert got[0] == expected[0]
                assert np.array_equal(got[1], expected[1])
            else:
                assert got == expected
        assert plain_store.pruning_stats["skipped"] == 0
        # compact folded every tombstone out: exactness is restorable
        _assert_manifest_bounds_exact(with_prune)
        manifest = read_manifest(with_prune)
        assert manifest.get("deltas") == []
        assert sum(entry["rows"] for entry in manifest["shards"]) == len(
            pruned_store.labels)
