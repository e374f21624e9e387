"""Store persistence: manifest format, memmap reopening, drift guards."""

import json

import numpy as np
import pytest

from repro.hdc import random_bipolar
from repro.hdc.item_memory import RowMemory
from repro.hdc.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    ShardedItemMemory,
    open_store,
    save_store,
)


def _build_sharded(rng, dim=256, items=30, shards=3, backend="packed",
                   routing="hash"):
    memory = ShardedItemMemory(dim, num_shards=shards, backend=backend,
                               routing=routing)
    memory.add_many([f"item{i}" for i in range(items)],
                    random_bipolar(items, dim, rng), chunk_size=11)
    return memory


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["dense", "packed"])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_sharded_roundtrip_bit_identical(self, backend, mmap, tmp_path, rng):
        memory = _build_sharded(rng, backend=backend)
        queries = random_bipolar(5, memory.dim, rng)
        save_store(memory, tmp_path / "store")
        reopened = open_store(tmp_path / "store", mmap=mmap)
        assert isinstance(reopened, ShardedItemMemory)
        assert reopened.labels == memory.labels
        assert reopened.routing == memory.routing
        assert reopened.shard_sizes == memory.shard_sizes
        ref_labels, ref_sims = memory.cleanup_batch(queries)
        new_labels, new_sims = reopened.cleanup_batch(queries)
        assert new_labels == ref_labels
        assert np.array_equal(new_sims, ref_sims)
        assert reopened.topk_batch(queries, k=7) == memory.topk_batch(queries, k=7)

    def test_memmap_is_lazy_and_appendable(self, tmp_path, rng):
        memory = _build_sharded(rng, backend="packed")
        save_store(memory, tmp_path / "store")
        reopened = open_store(tmp_path / "store", mmap=True)
        # Shard matrices are memmaps until something queries them.
        assert all(isinstance(s.native_matrix(), np.memmap) for s in reopened.shards)
        # Adds after reopen still work (the shard folds into RAM lazily).
        extra = random_bipolar(1, memory.dim, rng)[0]
        reopened.add("late", extra)
        assert reopened.cleanup(extra)[0] == "late"

    def test_reopened_store_keeps_routing_for_new_labels(self, tmp_path, rng):
        """Hash routing is process-stable: the same label would land in the
        same shard after reopen, so placement survives the round trip."""
        memory = _build_sharded(rng, routing="hash")
        save_store(memory, tmp_path / "store")
        reopened = open_store(tmp_path / "store")
        for label in memory.labels:
            assert reopened.shard_of(label) == memory.shard_of(label)

    def test_overwriting_with_fewer_shards_removes_stale_files(self, tmp_path, rng):
        save_store(_build_sharded(rng, shards=4), tmp_path / "store")
        save_store(_build_sharded(rng, shards=2), tmp_path / "store")
        reopened = open_store(tmp_path / "store")
        assert reopened.num_shards == 2
        # Only the committed manifest's files survive: no stale shards
        # from the wider layout, no previous generation's bases.
        manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
        remaining = sorted(p.name for p in (tmp_path / "store").glob("shard_*.npy"))
        assert remaining == sorted(entry["file"] for entry in manifest["shards"])
        assert len(remaining) == 2

    def test_take_does_not_freeze_callers_array(self, rng):
        matrix = np.ascontiguousarray(random_bipolar(3, 32, rng))
        memory = RowMemory(32)
        memory._take(matrix)  # adopted as a frozen zero-copy view
        assert not memory.native_matrix().flags.writeable
        assert np.shares_memory(memory.native_matrix(), matrix)
        matrix[0, 0] = -matrix[0, 0]  # caller's copy stays writable

    def test_save_creates_manifest_and_shard_files(self, tmp_path, rng):
        memory = _build_sharded(rng, shards=4)
        manifest_path = save_store(memory, tmp_path / "store")
        assert manifest_path.name == MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["dim"] == memory.dim
        assert manifest["backend"] == "packed"
        assert manifest["num_shards"] == 4
        # The manifest inlines no label maps — the global list lives
        # in the labels sidecar; each orders sidecar names the global
        # rows its shard holds.
        assert "labels" not in manifest
        labels = json.loads((tmp_path / "store" / manifest["labels_file"]).read_text())
        assert labels == list(memory.labels)
        assert manifest["rows"] == len(memory)
        for index, entry in enumerate(manifest["shards"]):
            assert "labels" not in entry
            assert (tmp_path / "store" / entry["file"]).is_file()
            orders = np.load(tmp_path / "store" / entry["orders_file"])
            assert orders.shape == (entry["rows"],)
            assert np.array_equal(orders, memory._orders_of(index))


class TestDriftGuards:
    def test_unsupported_version_refused(self, tmp_path, rng):
        save_store(_build_sharded(rng), tmp_path / "store")
        manifest_path = tmp_path / "store" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            open_store(tmp_path / "store")

    def test_foreign_manifest_refused(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="not a repro.hdc.store manifest"):
            open_store(tmp_path)

    def test_missing_manifest_refused(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            open_store(tmp_path / "nothing-here")

    def test_missing_shard_file_refused(self, tmp_path, rng):
        save_store(_build_sharded(rng), tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
        victim = manifest["shards"][1]["file"]
        (tmp_path / "store" / victim).unlink()
        with pytest.raises(FileNotFoundError, match="shard_00001"):
            open_store(tmp_path / "store")

    def test_missing_orders_sidecar_refused(self, tmp_path, rng):
        """Shard labels live in global_labels[orders]: without the
        orders sidecar the shard's rows are unlabelable — refuse."""
        save_store(_build_sharded(rng), tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
        (tmp_path / "store" / manifest["shards"][1]["orders_file"]).unlink()
        with pytest.raises(FileNotFoundError, match="orders"):
            open_store(tmp_path / "store")

    def test_row_count_mismatch_refused(self, tmp_path, rng):
        save_store(_build_sharded(rng), tmp_path / "store")
        manifest_path = tmp_path / "store" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][0]["rows"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="rows"):
            open_store(tmp_path / "store")

    def test_unserializable_labels_refused(self, tmp_path, rng):
        memory = ShardedItemMemory(32, num_shards=2)
        memory.add(("tuple", "label"), random_bipolar(1, 32, rng)[0])
        with pytest.raises(TypeError, match="JSON-serializable"):
            save_store(memory, tmp_path / "store")

    def test_non_finite_float_labels_refused_at_save(self, tmp_path, rng):
        """NaN would serialize as non-standard JSON and can never compare
        equal on reopen — fail at save time, not open time."""
        memory = ShardedItemMemory(32, num_shards=2)
        memory.add(float("nan"), random_bipolar(1, 32, rng)[0])
        with pytest.raises(TypeError, match="finite"):
            save_store(memory, tmp_path / "store")

    def test_label_duplicated_across_shards_refused(self, tmp_path, rng):
        """A store whose orders sidecars hand the same global row to two
        shards must fail at open, not answer queries from an orphaned
        row. (Shard labels are global_labels[orders], so a cross-shard
        duplicate *is* a doubly-assigned global order.)"""
        memory = _build_sharded(rng, shards=2)
        save_store(memory, tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
        orders_path = tmp_path / "store" / manifest["shards"][0]["orders_file"]
        dup_order = int(np.load(orders_path)[0])
        orders_path = tmp_path / "store" / manifest["shards"][1]["orders_file"]
        orders = np.load(orders_path)
        orders[0] = dup_order
        np.save(orders_path, orders)
        with pytest.raises(ValueError):
            open_store(tmp_path / "store")

    def test_saving_other_types_refused(self, tmp_path):
        with pytest.raises(TypeError, match="ItemMemory"):
            save_store(object(), tmp_path / "store")
