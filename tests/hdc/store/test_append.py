"""Append/compact lifecycle of persisted stores.

Round-trips the full journal story — reopen → append → query → compact
→ reopen — plus the refusal of every other format version and the
corrupted-segment failure cases, which must raise, never mis-answer.
"""

import json

import numpy as np
import pytest

from repro.hdc import random_bipolar
from repro.hdc.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    AssociativeStore,
    ShardedItemMemory,
    append_rows,
    delete_rows,
    load_worker_shard,
    open_store,
    read_manifest,
    save_store,
    upsert_rows,
)
from store_helpers import fresh_memory as _reference


def _manifest(path):
    return json.loads((path / MANIFEST_NAME).read_text())


def _write_manifest(path, manifest):
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))


def _crash_after_manifest_swap(monkeypatch):
    """Make the commit's manifest write land, then raise — a crash right
    after the commit point, before the handle learns it committed."""
    import repro.hdc.store.persistence as persistence_module

    write = persistence_module._write_manifest

    def crash(path, manifest):
        write(path, manifest)
        raise RuntimeError("simulated crash after the manifest swap")

    monkeypatch.setattr(persistence_module, "_write_manifest", crash)


class TestAppendRoundTrip:
    @pytest.mark.parametrize("backend", ["dense", "packed"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_reopen_append_query_compact_reopen(self, backend, shards, tmp_path, rng):
        dim = 256
        vectors = random_bipolar(40, dim, rng)
        labels = [f"item{i}" for i in range(40)]
        store = AssociativeStore.from_vectors(labels[:25], vectors[:25],
                                              backend=backend, shards=shards)
        store.save(tmp_path / "store")

        # reopen → append (journaled as segments) → query
        reopened = AssociativeStore.open(tmp_path / "store", workers=2)
        reopened.add_many(labels[25:37], vectors[25:37])
        reopened.add(labels[37], vectors[37])
        segments = list((tmp_path / "store").glob("shard_*.seg*.npy"))
        assert segments, "appends must journal per-shard segment files"
        reference = _reference(labels[:38], vectors[:38], backend=backend)
        queries = vectors[:10]
        assert reopened.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        assert reopened.topk_batch(queries, k=7) == reference.topk_batch(queries, k=7)

        # a *fresh* reopen reads base + segments in insertion order
        fresh = AssociativeStore.open(tmp_path / "store")
        assert fresh.labels == tuple(labels[:38])
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        new_labels, new_sims = fresh.cleanup_batch(queries)
        assert new_labels == ref_labels and np.array_equal(new_sims, ref_sims)

        # compact → contiguous shards, journal gone, answers unchanged
        generation_before = _manifest(tmp_path / "store")["generation"]
        fresh.compact()
        assert not list((tmp_path / "store").glob("shard_*.seg*.npy"))
        manifest = _manifest(tmp_path / "store")
        assert manifest["generation"] > generation_before
        assert all(not entry["segments"] for entry in manifest["shards"])
        compacted = AssociativeStore.open(tmp_path / "store")
        assert compacted.labels == tuple(labels[:38])
        assert compacted.topk_batch(queries, k=7) == reference.topk_batch(queries, k=7)

    def test_multiple_append_rounds_accumulate_segments(self, tmp_path, rng):
        dim = 128
        vectors = random_bipolar(30, dim, rng)
        labels = list(range(30))
        AssociativeStore.from_vectors(labels[:10], vectors[:10], shards=2,
                                      backend="packed").save(tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        reopened.add_many(labels[10:20], vectors[10:20])
        reopened.add_many(labels[20:], vectors[20:])
        manifest = _manifest(tmp_path / "store")
        assert manifest["generation"] == 2
        assert sum(len(e["segments"]) for e in manifest["shards"]) >= 2
        fresh = AssociativeStore.open(tmp_path / "store")
        reference = _reference(labels, vectors)
        assert fresh.labels == tuple(labels)
        assert fresh.topk_batch(vectors[:6], k=5) == reference.topk_batch(
            vectors[:6], k=5
        )

    def test_round_robin_appends_keep_routing_invariants(self, tmp_path, rng):
        dim = 64
        vectors = random_bipolar(16, dim, rng)
        labels = [f"v{i}" for i in range(16)]
        memory = ShardedItemMemory(dim, num_shards=4, routing="round_robin")
        memory.add_many(labels[:8], vectors[:8])
        save_store(memory, tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        reopened.add_many(labels[8:], vectors[8:])
        fresh = AssociativeStore.open(tmp_path / "store")
        # i % 4 placement continues across the save/append boundary
        assert fresh.memory.shard_sizes == (4, 4, 4, 4)
        assert [fresh.memory.shard_of(label) for label in labels] == [
            i % 4 for i in range(16)
        ]

    def test_append_duplicate_rejected_without_touching_disk(self, tmp_path, rng):
        vectors = random_bipolar(4, 64, rng)
        AssociativeStore.from_vectors(list("abcd"), vectors, shards=2,
                                      backend="packed").save(tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        before = _manifest(tmp_path / "store")
        with pytest.raises(ValueError, match="already stored"):
            reopened.add_many(["e", "a"], random_bipolar(2, 64, rng))
        assert len(reopened) == 4  # nothing half-committed in memory
        assert _manifest(tmp_path / "store") == before  # ... or on disk
        assert not list((tmp_path / "store").glob("shard_*.seg*.npy"))

    def test_unserializable_append_labels_rejected_before_commit(self, tmp_path, rng):
        vectors = random_bipolar(2, 64, rng)
        AssociativeStore.from_vectors(["a", "b"], vectors).save(tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        with pytest.raises(TypeError, match="JSON-serializable"):
            reopened.add_many([("tuple", "label")], random_bipolar(1, 64, rng))
        assert len(reopened) == 2  # memory untouched too

    def test_partial_batch_failure_commits_nothing_anywhere(self, tmp_path, rng):
        """A late-chunk validation failure must not commit earlier chunks
        to RAM either — the open handle and the disk stay in sync."""
        dim = 64
        vectors = random_bipolar(10, dim, rng).astype(np.float64)
        AssociativeStore.from_vectors(list("abcd"), vectors[:4].astype(np.int8),
                                      shards=2, backend="packed").save(
            tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        bad = vectors[4:]
        bad[-1, 0] = 0.5  # last chunk is invalid
        with pytest.raises(ValueError, match="bipolar"):
            reopened.add_many([f"n{i}" for i in range(6)], bad, chunk_size=2)
        assert len(reopened) == 4  # no partial in-memory commit
        assert not list((tmp_path / "store").glob("shard_*.seg*.npy"))
        reopened.add_many(["ok"], random_bipolar(1, dim, rng))  # still in sync
        assert AssociativeStore.open(tmp_path / "store").labels == (
            "a", "b", "c", "d", "ok"
        )

    def test_interrupted_compaction_leaves_an_openable_store(self, tmp_path, rng,
                                                             monkeypatch):
        """The manifest swap is the commit point: a crash during the data
        writes of compact() must leave the previous generation intact."""
        dim = 64
        vectors = random_bipolar(12, dim, rng)
        AssociativeStore.from_vectors(list("abcdefgh"), vectors[:8], shards=2,
                                      backend="packed").save(tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        reopened.add_many(["i", "j", "k", "l"], vectors[8:])
        expected = AssociativeStore.open(tmp_path / "store").topk_batch(
            vectors[:5], k=4
        )

        import repro.hdc.store.persistence as persistence_module

        def crash(path, manifest):
            raise RuntimeError("simulated crash before the manifest commit")

        monkeypatch.setattr(persistence_module, "_write_manifest", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            reopened.compact()
        monkeypatch.undo()
        # The old manifest still fully describes existing files.
        survivor = AssociativeStore.open(tmp_path / "store")
        assert survivor.labels == tuple("abcdefghijkl")
        assert survivor.topk_batch(vectors[:5], k=4) == expected

    def test_compact_requires_a_persisted_store(self, rng):
        store = AssociativeStore.from_vectors(["a"], random_bipolar(1, 64, rng))
        with pytest.raises(ValueError, match="persisted"):
            store.compact()

    def test_append_rows_rejects_out_of_sync_manifest(self, tmp_path, rng):
        vectors = random_bipolar(4, 64, rng)
        AssociativeStore.from_vectors(list("abcd"), vectors, backend="packed").save(
            tmp_path / "store"
        )
        stale = open_store(tmp_path / "store")  # plain memory, no journal
        stale.add("extra", random_bipolar(1, 64, rng)[0])  # in-memory only
        with pytest.raises(ValueError, match="out of sync"):
            append_rows(stale, tmp_path / "store", ["f"], random_bipolar(1, 64, rng))


class TestFormatVersion:
    @pytest.mark.parametrize("version", [1, 2, 3, 4, FORMAT_VERSION + 1])
    def test_future_version_still_refused(self, version, tmp_path, rng):
        """Only FORMAT_VERSION is read: older and newer manifests are
        refused at open with one error naming the version, the manifest
        file, and the generation."""
        AssociativeStore.from_vectors(["a"], random_bipolar(1, 32, rng)).save(
            tmp_path / "store"
        )
        manifest = _manifest(tmp_path / "store")
        manifest["format_version"] = version
        _write_manifest(tmp_path / "store", manifest)
        with pytest.raises(ValueError, match="format version") as refused:
            open_store(tmp_path / "store")
        message = str(refused.value)
        assert f"version {version} is not supported" in message
        assert str(tmp_path / "store" / MANIFEST_NAME) in message
        assert "generation 0" in message

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_single_kind_directory_still_works(self, executor, tmp_path, rng):
        """A v5 ``"single"`` directory (kind "single", routing null, no
        orders sidecar) opens as a one-shard store, answers like a fresh
        ItemMemory, takes a delete and an upsert, and its compact()
        rewrites it as kind "sharded" with an orders sidecar."""
        path, vectors = tmp_path / "store", random_bipolar(18, 128, rng)
        AssociativeStore.from_vectors(range(16), vectors[:16], backend="packed").save(path)
        manifest = _manifest(path)
        (path / manifest["shards"][0].pop("orders_file")).unlink()
        _write_manifest(path, {**manifest, "kind": "single", "routing": None})
        store = AssociativeStore.open(path, workers=2, executor=executor)
        state, queries = dict(zip(range(16), vectors)), random_bipolar(5, 128, rng)

        def agrees(store):
            reference = _reference(list(state), np.stack(list(state.values())))
            assert store.labels == reference.labels
            assert store.topk_batch(queries, k=4) == reference.topk_batch(queries, k=4)
            assert store.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]

        agrees(store)
        store.delete([3, 7])
        store.upsert([5, 16], vectors[16:])
        del state[3], state[7], state[5]
        state.update({5: vectors[16], 16: vectors[17]})
        agrees(store)
        assert _manifest(path)["kind"] == "single"  # commits journal as is
        agrees(AssociativeStore.open(path, executor=executor))
        store.compact()
        manifest = _manifest(path)
        assert manifest["kind"] == "sharded" and manifest["routing"] == "hash"
        assert (path / manifest["shards"][0]["orders_file"]).is_file()
        agrees(AssociativeStore.open(path, executor=executor))
        store.memory.close()

    @pytest.mark.parametrize("damage", [
        "shards", "num_shards", "dim", "backend", "generation",
        "shard.file", "shard.rows", "shard.segments",
        "segment.file", "segment.rows", "shards=[1, 2]",
    ])
    def test_malformed_manifest_refused_naming_file_and_generation(
            self, damage, tmp_path, rng):
        """A manifest missing a field that readers index, or holding a
        shard entry that is not an object, is refused with a ValueError
        naming the manifest file and the generation — at open and at
        process-worker attach alike — never a bare KeyError."""
        path = tmp_path / "store"
        vectors = random_bipolar(8, 64, rng)
        AssociativeStore.from_vectors(list("abcd"), vectors[:4], shards=2,
                                      backend="packed").save(path)
        AssociativeStore.open(path).add_many(list("efgh"), vectors[4:])
        manifest = _manifest(path)
        generation = manifest["generation"]
        journaled = next(entry for entry in manifest["shards"]
                         if entry["segments"])
        if damage == "shards=[1, 2]":
            manifest["shards"] = [1, 2]
        elif damage.startswith("shard."):
            del journaled[damage.split(".")[1]]
        elif damage.startswith("segment."):
            del journaled["segments"][0][damage.split(".")[1]]
        else:
            del manifest[damage]
        _write_manifest(path, manifest)
        named = "unknown" if damage == "generation" else generation
        for attach in (lambda: AssociativeStore.open(path),
                       lambda: load_worker_shard(path, 0, generation)):
            with pytest.raises(ValueError) as refused:
                attach()
            assert (f"[file {path / MANIFEST_NAME}, generation {named}]"
                    in str(refused.value))


    @pytest.mark.parametrize("attach", ["open", "worker attach"])
    @pytest.mark.parametrize("damage", [
        "entry.shard", "entry.file", "entry.labels", "entry.orders",
        "tombstone.shard", "tombstone.labels", "tombstone.orders",
        "entries", "tombstones",
    ])
    def test_malformed_delta_refused_naming_file_and_generation(
            self, damage, attach, tmp_path, rng):
        """A delta sidecar without a field that readers index — in an
        appended segment entry, a tombstone group, or the sidecar itself
        — is refused with a ValueError naming the delta file and its
        generation, at open and at process-worker attach alike, never a
        bare KeyError."""
        path = tmp_path / "store"
        vectors = random_bipolar(8, 64, rng)
        AssociativeStore.from_vectors(list("abcd"), vectors[:4], shards=2,
                                      backend="packed").save(path)
        handle = AssociativeStore.open(path)
        handle.add_many(list("efgh"), vectors[4:])  # delta.g00001: entries
        handle.delete(["a", "f"])  # delta.g00002: tombstone groups
        what, _, field = damage.partition(".")
        delta_generation = 1 if what.startswith("entr") else 2
        delta_path = path / f"delta.g{delta_generation:05d}.json"
        delta = json.loads(delta_path.read_text())
        if field:
            del delta["entries" if what == "entry" else "tombstones"][0][field]
        else:
            del delta[what]
        delta_path.write_text(json.dumps(delta))
        if attach == "open":
            def attach_call():
                return AssociativeStore.open(path)
        else:
            def attach_call():
                return load_worker_shard(path, 0, _manifest(path)["generation"])
        with pytest.raises(ValueError) as refused:
            attach_call()
        assert (f"[file {delta_path}, generation {delta_generation}]"
                in str(refused.value))


class TestCorruptedSegments:
    def _saved_with_segment(self, tmp_path, rng, dim=64):
        vectors = random_bipolar(8, dim, rng)
        AssociativeStore.from_vectors(list("abcd"), vectors[:4], shards=2,
                                      backend="packed").save(tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        reopened.add_many(["e", "f", "g", "h"], vectors[4:])
        segments = sorted((tmp_path / "store").glob("shard_*.seg*.npy"))
        assert segments
        return tmp_path / "store", segments

    def test_segment_row_count_mismatch_raises(self, tmp_path, rng):
        path, segments = self._saved_with_segment(tmp_path, rng)
        matrix = np.load(segments[0])
        np.save(segments[0], np.vstack([matrix, matrix[:1]]))  # extra ghost row
        with pytest.raises(ValueError, match="rows"):
            open_store(path)

    def test_truncated_segment_file_raises(self, tmp_path, rng):
        path, segments = self._saved_with_segment(tmp_path, rng)
        payload = segments[0].read_bytes()
        segments[0].write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ValueError, match="corrupted|rows"):
            open_store(path)

    def test_wrong_dtype_segment_raises(self, tmp_path, rng):
        path, segments = self._saved_with_segment(tmp_path, rng)
        matrix = np.load(segments[0])
        np.save(segments[0], matrix.astype(np.int32))  # not the native dtype
        with pytest.raises(ValueError, match="native"):
            open_store(path)

    def test_missing_segment_file_raises(self, tmp_path, rng):
        path, segments = self._saved_with_segment(tmp_path, rng)
        segments[0].unlink()
        with pytest.raises(FileNotFoundError, match="segment"):
            open_store(path)

    def test_segment_label_collision_raises(self, tmp_path, rng):
        """A journal claiming a label the base already holds must fail at
        open, not shadow or duplicate the row. (Journal labels live in
        the delta sidecar, so that is where the corruption lands.)"""
        path, segments = self._saved_with_segment(tmp_path, rng)
        manifest = read_manifest(path)  # materialized labels and orders
        for index, entry in enumerate(manifest["shards"]):
            if entry["segments"]:
                delta_path = path / entry["segments"][0]["delta_file"]
                delta = json.loads(delta_path.read_text())
                part = next(p for p in delta["entries"] if p["shard"] == index)
                # the label of this shard's first base row
                collision = manifest["slots"][(entry["orders"] or [0])[0]]
                part["labels"][0] = collision
                delta_path.write_text(json.dumps(delta))
                break
        with pytest.raises(ValueError, match="label collision") as refused:
            open_store(path)
        generation = json.loads(delta_path.read_text())["generation"]
        assert (f"[file {delta_path}, generation {generation}]"
                in str(refused.value))


class TestCrashConsistency:
    """The manifest swap is an append commit's *sole* commit point: a
    crash anywhere around it leaves a store that opens and answers
    bit-identically to one of the two legal generations."""

    def _store_with_pending_append(self, tmp_path, rng):
        dim = 64
        vectors = random_bipolar(12, dim, rng)
        labels = [f"v{i}" for i in range(12)]
        AssociativeStore.from_vectors(labels[:8], vectors[:8], shards=2,
                                      backend="packed").save(tmp_path / "s")
        return tmp_path / "s", labels, vectors

    def test_crash_between_delta_write_and_swap_keeps_the_old_generation(
        self, tmp_path, rng, monkeypatch
    ):
        path, labels, vectors = self._store_with_pending_append(tmp_path, rng)
        queries = vectors[:6]
        expected = AssociativeStore.open(path).topk_batch(queries, k=4)

        import repro.hdc.store.persistence as persistence_module

        def crash(target, manifest):
            raise RuntimeError("simulated crash before the manifest swap")

        monkeypatch.setattr(persistence_module, "_write_manifest", crash)
        opened = AssociativeStore.open(path)
        with pytest.raises(RuntimeError, match="simulated crash"):
            opened.add_many(labels[8:], vectors[8:])
        monkeypatch.undo()

        # The delta sidecar and segment files are orphaned on disk, but
        # the surviving manifest never references them: the store opens
        # as the pre-append generation, the orphans are never read.
        assert list((path).glob("delta.g*.json"))
        assert list((path).glob("shard_*.seg*.npy"))
        survivor = AssociativeStore.open(path)
        assert survivor.labels == tuple(labels[:8])
        assert survivor.topk_batch(queries, k=4) == expected

        # Retrying on a fresh handle reuses the generation number, so the
        # retry *overwrites* the orphans and commits cleanly.
        retry = AssociativeStore.open(path)
        retry.add_many(labels[8:], vectors[8:])
        reference = _reference(labels, vectors)
        fresh = AssociativeStore.open(path)
        assert fresh.labels == tuple(labels)
        assert fresh.topk_batch(queries, k=4) == reference.topk_batch(
            queries, k=4)

    def test_crash_between_swap_and_cleanup_keeps_the_new_generation(
        self, tmp_path, rng, monkeypatch
    ):
        path, labels, vectors = self._store_with_pending_append(tmp_path, rng)
        queries = vectors[:6]

        _crash_after_manifest_swap(monkeypatch)
        opened = AssociativeStore.open(path)
        with pytest.raises(RuntimeError, match="simulated crash"):
            opened.add_many(labels[8:], vectors[8:])
        monkeypatch.undo()

        # The manifest swap already happened, so the append is durable
        # for both executors — process workers attach from the manifest.
        reference = _reference(labels, vectors)
        for executor in ("thread", "process"):
            survivor = AssociativeStore.open(path, executor=executor)
            assert survivor.labels == tuple(labels)
            assert survivor.topk_batch(queries, k=4) == reference.topk_batch(
                queries, k=4)
            survivor.memory.close()


class TestAutoCompaction:
    """``AssociativeStore.open(..., auto_compact_segments=N)``: the journal
    folds itself once it grows past N segment files."""

    def _segments(self, path):
        return sorted(p.name for p in path.glob("shard_*.seg*.npy"))

    def test_appends_past_threshold_trigger_one_compacted_generation(
        self, tmp_path, rng
    ):
        dim = 64
        vectors = random_bipolar(40, dim, rng)
        labels = [f"v{i}" for i in range(40)]
        store = AssociativeStore.from_vectors(
            labels[:20], vectors[:20], backend="packed", shards=3)
        store.save(tmp_path / "s")
        opened = AssociativeStore.open(tmp_path / "s", auto_compact_segments=4)
        assert opened.auto_compact_segments == 4
        # Append one row at a time until the journal crosses the threshold;
        # each single-label append journals exactly one segment file.
        appended = 0
        for i in range(20, 40):
            opened.add(labels[i], vectors[i])
            appended += 1
            segments = self._segments(tmp_path / "s")
            assert len(segments) <= 4, "journal must never exceed the threshold"
            if not segments and appended >= 5:
                break  # a compaction ran
        else:
            pytest.fail("auto-compaction never triggered")
        manifest = _manifest(tmp_path / "s")
        assert all(not entry["segments"] for entry in manifest["shards"])
        # the handle keeps answering and a fresh open agrees bit-for-bit
        reference = _reference(labels[: 20 + appended], vectors[: 20 + appended])
        queries = vectors[: 20 + appended]
        assert opened.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        reopened = AssociativeStore.open(tmp_path / "s")
        assert reopened.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]

    def test_below_threshold_journal_persists(self, tmp_path, rng):
        dim = 64
        vectors = random_bipolar(24, dim, rng)
        labels = [f"v{i}" for i in range(24)]
        store = AssociativeStore.from_vectors(
            labels[:20], vectors[:20], backend="packed", shards=2)
        store.save(tmp_path / "s")
        opened = AssociativeStore.open(tmp_path / "s", auto_compact_segments=50)
        opened.add_many(labels[20:], vectors[20:])
        assert self._segments(tmp_path / "s")  # journal kept

    def test_invalid_threshold_rejected(self, tmp_path, rng):
        vectors = random_bipolar(4, 64, rng)
        store = AssociativeStore.from_vectors(["a", "b", "c", "d"], vectors)
        store.save(tmp_path / "s")
        with pytest.raises(ValueError, match="auto_compact_segments"):
            AssociativeStore.open(tmp_path / "s", auto_compact_segments=0)


class TestMutationPersistence:
    """Delete/upsert commits: tombstone journaling, out-of-sync refusal,
    and crash consistency around the mutation commit's manifest swap."""

    def _saved(self, tmp_path, rng, n=20, dim=128, backend="packed", shards=3):
        vectors = random_bipolar(n, dim, rng)
        labels = [f"v{i}" for i in range(n)]
        AssociativeStore.from_vectors(labels, vectors, backend=backend,
                                      shards=shards).save(tmp_path / "s")
        return tmp_path / "s", labels, vectors

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_mutation_history_roundtrips_through_compact(
        self, backend, shards, tmp_path, rng
    ):
        dim = 128
        vectors = random_bipolar(24, dim, rng)
        labels = [f"v{i}" for i in range(20)]
        AssociativeStore.from_vectors(labels, vectors[:20], backend=backend,
                                      shards=shards).save(tmp_path / "s")
        handle = AssociativeStore.open(tmp_path / "s")
        handle.delete(["v3", "v11"])
        replace, fresh_labels, batch = ["v5", "v7"], ["w0", "w1"], vectors[20:]
        handle.upsert(replace + fresh_labels, batch)
        # Survivors keep insertion order; the whole upsert batch
        # (replacements included) re-enters at the end.
        gone = {"v3", "v11", *replace}
        survivors = [i for i in range(20) if labels[i] not in gone]
        reference = _reference(
            [labels[i] for i in survivors] + replace + fresh_labels,
            np.concatenate([vectors[survivors], batch]),
            backend=backend,
        )
        queries = vectors[:8]
        fresh = AssociativeStore.open(tmp_path / "s")
        assert fresh.labels == reference.labels
        assert fresh.topk_batch(queries, k=6) == reference.topk_batch(queries, k=6)

        # compact folds the tombstones out: empty delta chain, no
        # journal files, answers unchanged
        fresh.compact()
        manifest = _manifest(tmp_path / "s")
        assert manifest["deltas"] == []
        assert manifest["next_order"] == manifest["rows"] == 20
        assert not list((tmp_path / "s").glob("delta.g*.json"))
        assert not list((tmp_path / "s").glob("shard_*.seg*.npy"))
        compacted = AssociativeStore.open(tmp_path / "s")
        assert compacted.labels == reference.labels
        assert compacted.topk_batch(queries, k=6) == reference.topk_batch(
            queries, k=6)

    def test_upsert_packs_each_journaled_row_once(
        self, tmp_path, rng, count_packing
    ):
        """A 100-row upsert on an opened 8-shard packed store: the batch
        is checked once up front, each shard slice is packed once at
        ingest, and the commit journals the rows the ingest packed. What
        is left per touched shard is the segment centroid, packed once;
        the delta sidecar's hex is written from those words."""
        path, labels, vectors = self._saved(tmp_path, rng, n=2000, dim=256,
                                            shards=8)
        handle = AssociativeStore.open(path)
        upserted = labels[1950:] + [f"w{i}" for i in range(50)]
        batch = random_bipolar(100, 256, rng)
        with count_packing() as calls:
            handle.upsert(upserted, batch)
        assert len(_manifest(path)["shards"]) == 8
        assert all(len(entry["segments"]) == 1
                   for entry in _manifest(path)["shards"])  # all 8 touched
        assert calls == {"is_bipolar": 1, "pack_bits": 8 + 8}
        reference = _reference(labels[:1950] + upserted,
                               np.concatenate([vectors[:1950], batch]))
        queries = np.concatenate([vectors[:4], batch[:4]])
        for store in (handle, AssociativeStore.open(path)):
            assert store.topk_batch(queries, k=3) == reference.topk_batch(
                queries, k=3)

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_centroid_hex_is_the_packed_bipolar_bytes(self, backend, rng):
        """A centroid's manifest hex is written straight from its words
        (packed) or packed once (dense), and reads the same bytes as
        packing its bipolar form: delta and manifest bytes are those of
        a bipolar round trip, and decode back to the same row."""
        from repro.hdc.backend import make_backend
        from repro.hdc.hypervector import pack_bipolar
        from repro.hdc.store.persistence import (_centroid_from_hex,
                                                 _centroid_to_hex)

        for dim in (64, 100, 256):  # 100: padding bits in the last word
            hdc = make_backend(backend, dim)
            rows = hdc.from_bipolar(random_bipolar(9, dim, rng))
            centroid = hdc.centroid(hdc.column_minus_counts(rows), 9)
            text = _centroid_to_hex(hdc, centroid)
            expected = pack_bipolar(hdc.to_bipolar(centroid)).astype("<u8")
            assert text == expected.tobytes().hex()
            assert np.array_equal(_centroid_from_hex(hdc, text), centroid)

    def test_delete_commit_writes_only_a_delta_and_the_manifest(
        self, tmp_path, rng
    ):
        path, labels, vectors = self._saved(tmp_path, rng)
        handle = AssociativeStore.open(path)
        handle.delete(["v2", "v9"])
        assert not list(path.glob("shard_*.seg*.npy"))  # no vector data
        deltas = list(path.glob("delta.g*.json"))
        assert len(deltas) == 1
        manifest = _manifest(path)
        assert manifest["deltas"] == [deltas[0].name]
        delta = json.loads(deltas[0].read_text())
        assert delta["op"] == "delete"
        assert not delta["entries"]
        assert sum(len(g["orders"]) for g in delta["tombstones"]) == 2
        # surviving rows shrink; physical orders never do
        assert manifest["rows"] == 18
        assert manifest["next_order"] == 20
        fresh = AssociativeStore.open(path)
        keep = [i for i in range(20) if labels[i] not in ("v2", "v9")]
        reference = _reference([labels[i] for i in keep], vectors[keep])
        queries = vectors[:8]
        assert fresh.labels == reference.labels
        assert fresh.topk_batch(queries, k=5) == reference.topk_batch(queries, k=5)

    def test_mutations_reject_out_of_sync_manifest(self, tmp_path, rng):
        vectors = random_bipolar(4, 64, rng)
        AssociativeStore.from_vectors(list("abcd"), vectors, backend="packed").save(
            tmp_path / "store"
        )
        stale = open_store(tmp_path / "store")  # plain memory, no journal
        stale.add("extra", random_bipolar(1, 64, rng)[0])  # in-memory only
        with pytest.raises(ValueError, match="out of sync"):
            delete_rows(stale, tmp_path / "store", ["a"])
        with pytest.raises(ValueError, match="out of sync"):
            upsert_rows(stale, tmp_path / "store", ["a"],
                        random_bipolar(1, 64, rng))

    def test_crash_before_swap_keeps_the_mutation_invisible(
        self, tmp_path, rng, monkeypatch
    ):
        path, labels, vectors = self._saved(tmp_path, rng)
        queries = vectors[:6]
        expected = AssociativeStore.open(path).topk_batch(queries, k=4)

        import repro.hdc.store.persistence as persistence_module

        def crash(target, manifest):
            raise RuntimeError("simulated crash before the manifest swap")

        monkeypatch.setattr(persistence_module, "_write_manifest", crash)
        opened = AssociativeStore.open(path)
        with pytest.raises(RuntimeError, match="simulated crash"):
            opened.delete(["v4", "v9"])
        monkeypatch.undo()

        # The delta sidecar is orphaned on disk, but the surviving
        # manifest's chain never names it: the store opens as the
        # pre-delete generation.
        assert list(path.glob("delta.g*.json"))
        survivor = AssociativeStore.open(path)
        assert survivor.labels == tuple(labels)
        assert survivor.topk_batch(queries, k=4) == expected

        # Retrying on a fresh handle reuses the generation number and
        # overwrites the orphan.
        retry = AssociativeStore.open(path)
        retry.delete(["v4", "v9"])
        fresh = AssociativeStore.open(path)
        assert "v4" not in fresh.labels and "v9" not in fresh.labels
        assert len(fresh) == 18

    def test_crash_after_swap_keeps_the_mutation_durable(
        self, tmp_path, rng, monkeypatch
    ):
        path, labels, vectors = self._saved(tmp_path, rng)
        batch = random_bipolar(2, 128, rng)

        _crash_after_manifest_swap(monkeypatch)
        opened = AssociativeStore.open(path)
        with pytest.raises(RuntimeError, match="simulated crash"):
            opened.upsert(["v0", "new0"], batch)
        monkeypatch.undo()

        # The manifest swap already happened, so the upsert is durable.
        reference = _reference(labels[1:] + ["v0", "new0"],
                               np.concatenate([vectors[1:], batch]))
        queries = vectors[:6]
        for executor in ("thread", "process"):
            survivor = AssociativeStore.open(path, executor=executor)
            assert survivor.labels == reference.labels
            assert survivor.topk_batch(queries, k=4) == reference.topk_batch(
                queries, k=4)
            survivor.memory.close()

    def test_upserts_past_threshold_fold_tombstones_out(self, tmp_path, rng):
        path, labels, vectors = self._saved(tmp_path, rng, shards=2)
        opened = AssociativeStore.open(path, auto_compact_segments=3)
        folded = False
        for round_index in range(8):
            fresh_vector = random_bipolar(1, 128, rng)
            opened.upsert(["v0"], fresh_vector)
            vectors[0] = fresh_vector[0]
            if not list(path.glob("shard_*.seg*.npy")):
                folded = True
                break
        assert folded, "auto-compaction never folded the mutation journal"
        manifest = _manifest(path)
        assert manifest["deltas"] == []
        assert manifest["next_order"] == manifest["rows"] == 20
        # v0 sits at the end of the insertion order after its upserts
        reference = _reference(labels[1:] + ["v0"],
                               np.concatenate([vectors[1:], vectors[:1]]))
        fresh = AssociativeStore.open(path)
        assert fresh.labels == reference.labels
        queries = vectors[:6]
        assert fresh.topk_batch(queries, k=4) == reference.topk_batch(queries, k=4)
