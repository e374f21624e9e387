"""Cross-implementation agreement: ShardedItemMemory vs ItemMemory.

The behavioural contract of the store subsystem (in the spirit of
``tests/hdc/test_backend.py``): for any shard count, either routing
policy, and both backends, every cleanup / top-k decision must be
*bit-identical* to the in-memory reference ``ItemMemory`` holding the
same items in the same insertion order.
"""

from functools import partial

import numpy as np
import pytest

from repro.hdc import ItemMemory, random_bipolar
from repro.hdc.store import ShardedItemMemory
from repro.hdc.store.routing import hash_shard, route_label
from store_helpers import BACKENDS, SHARD_COUNTS, fresh_memory, noisy_queries
from store_helpers import pair as _pair

_noisy_queries = partial(noisy_queries, num=6, flip_fraction=0.2)


class TestAgreement:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_cleanup_batch_bit_identical(self, backend, shards, rng):
        dim = 256
        labels = [f"item{i}" for i in range(40)]
        vectors = random_bipolar(40, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, backend, shards)
        queries = _noisy_queries(vectors, rng)
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        sh_labels, sh_sims = sharded.cleanup_batch(queries)
        assert sh_labels == ref_labels
        assert np.array_equal(sh_sims, ref_sims)  # exact, not allclose

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_topk_batch_bit_identical(self, backend, shards, rng):
        dim = 256
        labels = [f"item{i}" for i in range(40)]
        vectors = random_bipolar(40, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, backend, shards)
        queries = _noisy_queries(vectors, rng)
        for k in (1, 5, 17, 100):  # 100 > store size
            assert sharded.topk_batch(queries, k=k) == reference.topk_batch(
                queries, k=k
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_exact_ties_resolve_to_global_insertion_order(self, backend, shards, rng):
        """Duplicate vectors under many labels: the tie-break must ignore
        shard placement and return the earliest-inserted label."""
        dim = 128
        base = random_bipolar(1, dim, rng)[0]
        labels = [f"dup{i}" for i in range(12)]
        vectors = np.tile(base, (12, 1))
        reference, sharded = _pair(dim, labels, vectors, backend, shards)
        label, sim = sharded.cleanup(base)
        assert (label, sim) == reference.cleanup(base)
        assert label == "dup0" and np.isclose(sim, 1.0)
        assert sharded.topk(base, k=12) == reference.topk(base, k=12)
        assert [lab for lab, _ in sharded.topk(base, k=12)] == labels

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("routing", ("hash", "round_robin"))
    def test_routing_policy_never_changes_decisions(self, backend, routing, rng):
        dim = 192
        labels = list(range(30))  # int labels are valid too
        vectors = random_bipolar(30, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, backend, 5, routing=routing)
        queries = _noisy_queries(vectors, rng)
        assert sharded.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        assert sharded.topk_batch(queries, k=4) == reference.topk_batch(queries, k=4)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_similarities_batch_in_global_order(self, shards, rng):
        dim = 128
        labels = [f"v{i}" for i in range(25)]
        vectors = random_bipolar(25, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, "packed", shards)
        queries = random_bipolar(4, dim, rng)
        assert np.array_equal(
            sharded.similarities_batch(queries),
            reference.similarities_batch(queries),
        )

    def test_single_and_batch_queries_agree(self, rng):
        dim = 128
        sharded = ShardedItemMemory(dim, num_shards=3)
        vectors = random_bipolar(10, dim, rng)
        sharded.add_many([f"v{i}" for i in range(10)], vectors)
        query = vectors[4]
        label, sim = sharded.cleanup(query)
        assert label == "v4" and np.isclose(sim, 1.0)
        batch_labels, batch_sims = sharded.cleanup_batch(query[None])
        assert (batch_labels[0], batch_sims[0]) == sharded.cleanup(query)
        assert sharded.topk(query, k=3) == sharded.topk_batch(query[None], k=3)[0]


class TestMutationAgreement:
    """Interleaved add/delete/upsert histories: after every step the
    sharded store must answer bit-identically to a single-shard
    reference freshly built from the surviving (label, vector) set in
    surviving insertion order — and deleted labels are unreachable from
    every query surface."""

    @staticmethod
    def _rebuilt(dim, backend, model):
        reference = ItemMemory(dim, backend=backend)
        if model:
            reference.add_many([label for label, _ in model],
                               np.stack([vector for _, vector in model]))
        return reference

    @staticmethod
    def _apply(model, op, labels, vectors=None):
        if op == "delete":
            return [(label, vector) for label, vector in model
                    if label not in set(labels)]
        survivors = [(label, vector) for label, vector in model
                     if label not in set(labels)]
        return survivors + list(zip(labels, vectors))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_interleaved_history_matches_fresh_rebuild(self, backend, shards,
                                                       rng):
        dim = 128
        labels = [f"item{i}" for i in range(24)]
        vectors = random_bipolar(24, dim, rng)
        sharded = ShardedItemMemory(dim, num_shards=shards, backend=backend)
        sharded.add_many(labels, vectors, chunk_size=7)
        model = list(zip(labels, vectors))
        queries = _noisy_queries(vectors, rng)

        history = [
            ("delete", ["item3", "item17", "item8"], None),
            ("add", [f"late{i}" for i in range(5)],
             random_bipolar(5, dim, rng)),
            ("upsert", ["item5", "late2", "fresh0"],
             random_bipolar(3, dim, rng)),
            ("delete", ["late0", "item0"], None),
            ("upsert", ["item23"], random_bipolar(1, dim, rng)),
        ]
        for op, batch_labels, batch_vectors in history:
            if op == "delete":
                sharded.delete_many(batch_labels)
            elif op == "add":
                sharded.add_many(batch_labels, batch_vectors)
            else:  # upsert at this layer: delete existing, re-add at end
                existing = [label for label in batch_labels
                            if label in sharded]
                if existing:
                    sharded.delete_many(existing)
                sharded.add_many(batch_labels, batch_vectors)
            model = self._apply(model, "delete" if op == "delete" else "add",
                                batch_labels, batch_vectors)
            reference = self._rebuilt(dim, backend, model)
            assert sharded.labels == reference.labels
            ref_labels, ref_sims = reference.cleanup_batch(queries)
            got_labels, got_sims = sharded.cleanup_batch(queries)
            assert got_labels == ref_labels
            assert np.array_equal(got_sims, ref_sims)
            assert sharded.topk_batch(queries, k=6) == reference.topk_batch(
                queries, k=6)
            assert np.array_equal(sharded.similarities_batch(queries[:2]),
                                  reference.similarities_batch(queries[:2]))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_tie_heavy_duplicates_after_deleting_the_winner(self, backend,
                                                            shards, rng):
        """Twelve identical vectors; deleting the earliest-inserted
        winner promotes the next-earliest, bit-identically to the
        reference — and a re-enrolled duplicate drops to the back of
        the tie order (re-enrollment refreshes recency)."""
        dim = 128
        base = random_bipolar(1, dim, rng)[0]
        labels = [f"dup{i}" for i in range(12)]
        vectors = np.tile(base, (12, 1))
        _, sharded = _pair(dim, labels, vectors, backend, shards)
        model = list(zip(labels, vectors))

        sharded.delete_many(["dup0", "dup5"])
        model = self._apply(model, "delete", ["dup0", "dup5"])
        reference = self._rebuilt(dim, backend, model)
        label, sim = sharded.cleanup(base)
        assert (label, sim) == reference.cleanup(base)
        assert label == "dup1" and np.isclose(sim, 1.0)
        order = [lab for lab, _ in sharded.topk(base, k=12)]
        assert order == [lab for lab, _ in reference.topk(base, k=12)]
        assert order[0] == "dup1" and "dup0" not in order

        # re-enroll dup1: same vector, but recency moves it to the back
        sharded.delete_many(["dup1"])
        sharded.add("dup1", base)
        model = self._apply(model, "add", ["dup1"], [base])
        reference = self._rebuilt(dim, backend, model)
        assert sharded.cleanup(base) == reference.cleanup(base)
        assert sharded.cleanup(base)[0] == "dup2"
        order = [lab for lab, _ in sharded.topk(base, k=12)]
        assert order[-1] == "dup1"  # the re-enrolled duplicate lost its tie

    def test_deleted_labels_are_unreachable_everywhere(self, rng):
        dim = 64
        labels = [f"v{i}" for i in range(10)]
        vectors = random_bipolar(10, dim, rng)
        sharded = ShardedItemMemory(dim, num_shards=3, backend="packed")
        sharded.add_many(labels, vectors)
        sharded.delete_many(["v4", "v7"])
        assert len(sharded) == 8
        assert "v4" not in sharded and "v7" not in sharded
        assert sharded.labels == tuple(l for l in labels
                                       if l not in ("v4", "v7"))
        with pytest.raises(KeyError):
            sharded.index_of("v4")
        answers = sharded.topk_batch(vectors, k=10)
        assert all(lab not in ("v4", "v7")
                   for row in answers for lab, _ in row)
        assert sharded.cleanup(vectors[4])[0] != "v4"
        assert sharded.similarities_batch(vectors[:1]).shape[1] == 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dead_rows_fold_out_once_they_reach_the_live_rows(self, backend,
                                                              rng):
        """The one fold rule bounds what kernels scan and what an
        unattached store holds: after every delete batch, physical rows
        (and the global order space) stay within twice the live rows
        plus one batch, while answers stay those of a fresh rebuild."""
        dim, n, batch = 64, 200, 16
        labels = [f"v{i}" for i in range(n)]
        vectors = random_bipolar(n, dim, rng)
        sharded = ShardedItemMemory(dim, num_shards=4, backend=backend)
        sharded.add_many(labels, vectors)
        single = fresh_memory(labels, vectors, backend=backend)
        model = list(zip(labels, vectors))
        queries = _noisy_queries(vectors, rng)
        for start in range(0, n - batch, batch):
            doomed = labels[start:start + batch]
            sharded.delete_many(doomed)
            single.remove_many(doomed)
            model = self._apply(model, "delete", doomed)
            physical = sum(shard.native_matrix().shape[0] for shard in sharded.shards)
            assert physical <= 2 * len(sharded) + batch
            assert len(sharded._slots) <= 2 * len(sharded) + batch
            assert single.native_matrix().shape[0] <= 2 * len(single) + batch
            reference = self._rebuilt(dim, backend, model)
            assert sharded.topk_batch(queries, k=3) == reference.topk_batch(
                queries, k=3)
            assert single.topk_batch(queries, k=3) == reference.topk_batch(
                queries, k=3)
            assert [sharded.index_of(label) for label, _ in model] == list(
                range(len(model)))
        assert len(sharded) == len(single) == len(model) == 8

    def test_delete_rejects_unknown_and_duplicate_labels_atomically(self, rng):
        sharded = ShardedItemMemory(32, num_shards=2)
        sharded.add_many(list("abc"), random_bipolar(3, 32, rng))
        with pytest.raises(ValueError, match="not stored"):
            sharded.delete_many(["a", "ghost"])
        with pytest.raises(ValueError, match="duplicate"):
            sharded.delete_many(["a", "a"])
        assert len(sharded) == 3  # nothing half-deleted
        assert sharded.labels == ("a", "b", "c")


class TestRoutingAndIngestion:
    def test_hash_routing_is_stable_and_in_range(self):
        for label in ["a", "b", 1, 2.5, True, "サンプル"]:
            first = hash_shard(label, 7)
            assert 0 <= first < 7
            assert first == hash_shard(label, 7)  # stable across calls

    def test_hash_distinguishes_types(self):
        # 1 and "1" are distinct labels; their routing payloads differ.
        spread = {n: (hash_shard(1, n), hash_shard("1", n)) for n in (64, 97)}
        assert any(a != b for a, b in spread.values())

    def test_round_robin_balances_perfectly(self, rng):
        sharded = ShardedItemMemory(64, num_shards=4, routing="round_robin")
        sharded.add_many([f"v{i}" for i in range(12)], random_bipolar(12, 64, rng))
        assert sharded.shard_sizes == (3, 3, 3, 3)
        assert sharded.shard_of("v0") == 0 and sharded.shard_of("v5") == 1

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError, match="routing"):
            ShardedItemMemory(64, num_shards=2, routing="teleport")
        with pytest.raises(ValueError, match="routing"):
            route_label("a", 0, 2, "teleport")

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedItemMemory(64, num_shards=0)

    def test_duplicate_labels_rejected_across_shards(self, rng):
        sharded = ShardedItemMemory(32, num_shards=3)
        sharded.add("a", random_bipolar(1, 32, rng)[0])
        with pytest.raises(ValueError, match="'a' already stored"):
            sharded.add("a", random_bipolar(1, 32, rng)[0])
        with pytest.raises(ValueError, match="'a' already stored"):
            sharded.add_many(["b", "a"], random_bipolar(2, 32, rng))
        assert len(sharded) == 1  # nothing half-committed

    def test_failed_chunk_leaves_maps_consistent(self, rng):
        sharded = ShardedItemMemory(32, num_shards=3)
        bad = random_bipolar(4, 32, rng).astype(np.float64)
        bad[2, 0] = 0.5  # not bipolar
        with pytest.raises(ValueError, match="bipolar"):
            sharded.add_many(list("abcd"), bad, chunk_size=10)
        assert len(sharded) == 0
        assert sum(sharded.shard_sizes) == 0  # shards agree with global maps
        sharded.add_many(list("abcd"), random_bipolar(4, 32, rng))  # retry works
        assert len(sharded) == 4

    def test_insertion_order_and_membership(self, rng):
        sharded = ShardedItemMemory(32, num_shards=3)
        labels = [f"v{i}" for i in range(9)]
        sharded.add_many(labels, random_bipolar(9, 32, rng), chunk_size=2)
        assert sharded.labels == tuple(labels)
        assert [sharded.index_of(label) for label in labels] == list(range(9))
        assert "v3" in sharded and "nope" not in sharded

    def test_empty_store_raises_lookup_error(self, rng):
        sharded = ShardedItemMemory(16, num_shards=2)
        with pytest.raises(LookupError):
            sharded.cleanup_batch(random_bipolar(2, 16, rng))

    def test_wrong_query_shape_rejected(self, rng):
        sharded = ShardedItemMemory(16, num_shards=2)
        sharded.add("a", random_bipolar(1, 16, rng)[0])
        with pytest.raises(ValueError, match="queries"):
            sharded.cleanup_batch(random_bipolar(2, 32, rng))

    def test_more_shards_than_items(self, rng):
        """Empty shards are skipped during fan-out."""
        sharded = ShardedItemMemory(64, num_shards=8)
        vectors = random_bipolar(2, 64, rng)
        sharded.add_many(["x", "y"], vectors)
        assert sharded.cleanup(vectors[1])[0] == "y"
        assert len(sharded.topk(vectors[0], k=5)) == 2

    def test_measured_bytes_sums_shards(self, rng):
        sharded = ShardedItemMemory(128, num_shards=4, backend="packed")
        sharded.add_many([f"v{i}" for i in range(10)], random_bipolar(10, 128, rng))
        assert sharded.measured_bytes() == 10 * 128 // 8
