"""AssociativeStore facade: implementation choice, query blocking, IO."""

import numpy as np
import pytest

from repro.hdc import AssociativeStore, random_bipolar
from repro.hdc.store import ShardedItemMemory


class TestFacade:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_every_shard_count_is_a_sharded_memory(self, shards):
        store = AssociativeStore(64, shards=shards, routing="round_robin")
        assert isinstance(store.memory, ShardedItemMemory)
        assert store.num_shards == shards and store.routing == "round_robin"

    def test_from_vectors_and_queries(self, rng):
        vectors = random_bipolar(20, 128, rng)
        labels = [f"v{i}" for i in range(20)]
        store = AssociativeStore.from_vectors(labels, vectors, shards=3,
                                              backend="packed")
        assert len(store) == 20 and "v7" in store
        assert store.index_of("v7") == 7
        label, sim = store.cleanup(vectors[7])
        assert label == "v7" and np.isclose(sim, 1.0)
        single = store.similarities(vectors[7])
        assert single.shape == (20,)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_query_blocking_is_invisible(self, shards, rng):
        """Tiny query_block must return exactly what one big call returns."""
        vectors = random_bipolar(15, 128, rng)
        labels = [f"v{i}" for i in range(15)]
        blocked = AssociativeStore.from_vectors(labels, vectors, shards=shards,
                                                query_block=2)
        whole = AssociativeStore.from_vectors(labels, vectors, shards=shards)
        queries = random_bipolar(9, 128, rng)
        b_labels, b_sims = blocked.cleanup_batch(queries)
        w_labels, w_sims = whole.cleanup_batch(queries)
        assert b_labels == w_labels
        assert np.array_equal(b_sims, w_sims)
        assert blocked.topk_batch(queries, k=4) == whole.topk_batch(queries, k=4)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_streaming_add_many_chunks(self, shards, rng):
        store = AssociativeStore(64, shards=shards)
        vectors = random_bipolar(10, 64, rng)
        store.add_many([f"v{i}" for i in range(10)], vectors, chunk_size=3)
        assert store.labels == tuple(f"v{i}" for i in range(10))

    def test_add_many_validates_before_committing(self, rng):
        store = AssociativeStore(64)
        with pytest.raises(ValueError, match="duplicate"):
            store.add_many(["a", "a"], random_bipolar(2, 64, rng))
        with pytest.raises(ValueError, match="align"):
            store.add_many(["a"], random_bipolar(2, 64, rng))
        assert len(store) == 0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_duplicate_against_store_fails_before_any_commit(self, shards, rng):
        """Same ingestion semantics on every shard count: a duplicate
        anywhere in the batch commits nothing, even with tiny chunks."""
        store = AssociativeStore(64, shards=shards)
        store.add("c", random_bipolar(1, 64, rng)[0])
        with pytest.raises(ValueError, match="'c' already stored"):
            store.add_many(["a", "b", "c"], random_bipolar(3, 64, rng),
                           chunk_size=1)
        assert len(store) == 1 and "a" not in store

    def test_stats(self, rng):
        store = AssociativeStore.from_vectors(
            ["a", "b"], random_bipolar(2, 128, rng), backend="packed", shards=2
        )
        stats = store.stats()
        assert stats["items"] == 2 and stats["shards"] == 2
        assert stats["backend"] == "packed"
        assert stats["bytes"] == store.measured_bytes() == 2 * 128 // 8

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            AssociativeStore(64, shards=0)
        with pytest.raises(ValueError, match="query_block"):
            AssociativeStore(64, query_block=0)

    def test_wrong_query_shape_rejected(self, rng):
        store = AssociativeStore.from_vectors(["a"], random_bipolar(1, 64, rng))
        with pytest.raises(ValueError, match="queries"):
            store.cleanup_batch(random_bipolar(2, 32, rng))


class TestFacadePersistence:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_save_open_roundtrip(self, shards, tmp_path, rng):
        vectors = random_bipolar(25, 256, rng)
        labels = list(range(25))  # int labels survive JSON
        store = AssociativeStore.from_vectors(labels, vectors, shards=shards,
                                              backend="packed")
        store.save(tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        assert reopened.num_shards == shards
        assert reopened.labels == store.labels
        queries = random_bipolar(6, 256, rng)
        assert reopened.topk_batch(queries, k=5) == store.topk_batch(queries, k=5)
        ref_labels, ref_sims = store.cleanup_batch(queries)
        new_labels, new_sims = reopened.cleanup_batch(queries)
        assert new_labels == ref_labels and np.array_equal(new_sims, ref_sims)

    def test_open_without_mmap(self, tmp_path, rng):
        vectors = random_bipolar(4, 64, rng)
        store = AssociativeStore.from_vectors(list("abcd"), vectors)
        store.save(tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store", mmap=False)
        assert not isinstance(reopened.memory.shards[0].native_matrix(), np.memmap)
        assert reopened.cleanup(vectors[2])[0] == "c"
