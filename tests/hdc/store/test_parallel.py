"""Parallel fan-out agreement: executor × workers × shards × backends.

The decision contract of the parallel query path (in the spirit of
``test_sharded.py``, which pins the layout dimension): for any executor
kind (thread pool / process pool), any worker count, any shard count,
and both backends, every cleanup / top-k / top-k-batch decision must be
*bit-identical* to the single-shard reference ``ItemMemory`` holding the
same items in the same insertion order — including tie-heavy inputs
where out-of-order shard completion would reorder a merge that keyed on
anything but the global insertion index, and including the early-exit
pruning bounds (strict skips can never drop a boundary tie).
"""

import gc
import importlib
import os
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.hdc import ItemMemory, random_bipolar
from repro.hdc.store import AssociativeStore, ShardedItemMemory, resolve_workers
from repro.hdc.store.parallel import (ShardExecutor, available_cores,
                                      distances_to_similarities)

WORKER_COUNTS = (1, 2)
SHARD_COUNTS = (1, 3, 8)
BACKENDS = ("dense", "packed")
EXECUTORS = ("thread", "process")


def _noisy_queries(vectors, rng, num=6, flip_fraction=0.2):
    dim = vectors.shape[1]
    queries = vectors[rng.integers(0, len(vectors), size=num)].copy()
    flips = rng.integers(0, dim, size=(num, int(dim * flip_fraction)))
    for row, columns in enumerate(flips):
        queries[row, columns] *= -1
    return queries


def _pair(dim, labels, vectors, backend, shards, workers, routing="hash",
          executor="thread"):
    reference = ItemMemory(dim, backend=backend)
    reference.add_many(labels, vectors)
    sharded = ShardedItemMemory(dim, num_shards=shards, backend=backend,
                                routing=routing, workers=workers,
                                executor=executor)
    sharded.add_many(labels, vectors, chunk_size=7)  # odd chunks on purpose
    return reference, sharded


class TestWorkerAgreement:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_cleanup_batch_bit_identical(self, backend, shards, workers,
                                         executor, rng):
        dim = 256
        labels = [f"item{i}" for i in range(40)]
        vectors = random_bipolar(40, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, backend, shards,
                                   workers, executor=executor)
        queries = _noisy_queries(vectors, rng)
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        sh_labels, sh_sims = sharded.cleanup_batch(queries)
        assert sh_labels == ref_labels
        assert np.array_equal(sh_sims, ref_sims)  # exact, not allclose
        sharded.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_topk_and_topk_batch_bit_identical(self, backend, shards, workers,
                                               executor, rng):
        dim = 256
        labels = [f"item{i}" for i in range(40)]
        vectors = random_bipolar(40, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, backend, shards,
                                   workers, executor=executor)
        queries = _noisy_queries(vectors, rng)
        for k in (1, 5, 17, 100):  # 100 > store size
            assert sharded.topk_batch(queries, k=k) == reference.topk_batch(
                queries, k=k
            )
        assert sharded.topk(queries[0], k=9) == reference.topk(queries[0], k=9)
        sharded.close()

    @pytest.mark.parametrize("workers", (1, 7))
    def test_wide_thread_pools_stay_bit_identical(self, workers, rng):
        """More workers than shards (the PR 3 grid's widest point)."""
        dim = 256
        labels = [f"item{i}" for i in range(40)]
        vectors = random_bipolar(40, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, "packed", 3, workers)
        queries = _noisy_queries(vectors, rng)
        assert sharded.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        assert sharded.topk_batch(queries, k=6) == reference.topk_batch(queries, k=6)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_tie_heavy_inputs_resolve_by_global_insertion_order(
        self, backend, workers, executor, rng
    ):
        """Many duplicate vectors spread across many shards: every shard
        returns identical distances, so a merge keyed on completion order
        (threads finish in any order) instead of insertion order would be
        nondeterministic. Repeat the query to catch scheduling luck."""
        dim = 128
        base = random_bipolar(3, dim, rng)
        labels = [f"dup{i}" for i in range(24)]
        vectors = np.tile(base, (8, 1))  # 8 copies of each of 3 vectors
        reference, sharded = _pair(dim, labels, vectors, backend, 8, workers,
                                   executor=executor)
        queries = np.concatenate([base, base])
        expected_topk = reference.topk_batch(queries, k=24)
        expected_cleanup = reference.cleanup_batch(queries)
        for _ in range(5):  # scheduling varies run to run
            assert sharded.topk_batch(queries, k=24) == expected_topk
            got_labels, got_sims = sharded.cleanup_batch(queries)
            assert got_labels == expected_cleanup[0]
            assert np.array_equal(got_sims, expected_cleanup[1])
        # The winner is the globally earliest-inserted duplicate.
        assert sharded.cleanup(base[0])[0] == "dup0"
        sharded.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", (1, 5))
    def test_real_valued_queries_refused_on_every_surface(self, backend,
                                                          shards, rng):
        """The store answers bipolar queries only, at every shard count
        and on both backends: a real-valued query has no integer
        distance, and the dense backend would cast 0.5 to 0. Every query
        surface refuses one with the packed path's guidance, while a bare
        dense ItemMemory still scores it."""
        dim = 192
        labels = [f"v{i}" for i in range(30)]
        vectors = random_bipolar(30, dim, rng)
        store = AssociativeStore.from_vectors(labels, vectors, backend=backend,
                                              shards=shards)
        queries = np.concatenate([vectors[:5], np.full((1, dim), 0.5)])
        surfaces = (
            lambda: store.cleanup(queries[-1]),
            lambda: store.cleanup_batch(queries),
            lambda: store.topk(queries[-1], k=3),
            lambda: store.topk_batch(queries, k=3),
            lambda: store.similarities(queries[-1]),
            lambda: store.similarities_batch(queries),
        )
        for call in surfaces:
            with pytest.raises(ValueError, match=r"accepts only bipolar .* "
                               r"ItemMemory\(dim, backend='dense'\)"):
                call()
        reference = ItemMemory(dim, backend=backend)
        reference.add_many(labels, vectors)
        assert store.topk_batch(queries[:5], k=3) \
            == reference.topk_batch(queries[:5], k=3)
        dense = ItemMemory(dim, backend="dense")
        dense.add_many(labels, vectors)
        assert len(dense.topk_batch(queries, k=3)) == 6
        if shards > 1:
            store.memory.close()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_similarities_batch_in_global_order(self, workers, executor, rng):
        dim = 128
        labels = [f"v{i}" for i in range(25)]
        vectors = random_bipolar(25, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, "packed", 4, workers,
                                   executor=executor)
        queries = random_bipolar(4, dim, rng)
        assert np.array_equal(
            sharded.similarities_batch(queries),
            reference.similarities_batch(queries),
        )
        sharded.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", (1, 8))
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_similarities_batch_checks_and_packs_queries_once(
            self, backend, shards, executor, rng, count_packing):
        """The controller checks the query block once and converts it
        once; every shard scores the native queries, as top-k does."""
        dim = 256
        labels = [f"v{i}" for i in range(40)]
        vectors = random_bipolar(40, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, backend, shards, 2,
                                   executor=executor)
        queries = _noisy_queries(vectors, rng, num=4)
        sharded.similarities_batch(queries)  # a process store spills first
        with count_packing() as calls:
            sims = sharded.similarities_batch(queries)
        assert calls == {"is_bipolar": 1,
                         "pack_bits": 1 if backend == "packed" else 0}
        assert np.array_equal(sims, reference.similarities_batch(queries))
        sharded.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_append_history_never_changes_decisions(self, backend, rng):
        """Incremental adds after the bulk load (the append history of a
        persisted store) must leave decisions identical to one bulk
        reference, for parallel workers too."""
        dim = 128
        labels = [f"v{i}" for i in range(30)]
        vectors = random_bipolar(30, dim, rng)
        reference = ItemMemory(dim, backend=backend)
        reference.add_many(labels, vectors)
        sharded = ShardedItemMemory(dim, num_shards=3, backend=backend, workers=2)
        sharded.add_many(labels[:18], vectors[:18], chunk_size=5)
        sharded.add_many(labels[18:27], vectors[18:27])
        for label, vector in zip(labels[27:], vectors[27:]):
            sharded.add(label, vector)
        queries = _noisy_queries(vectors, rng)
        assert sharded.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        assert sharded.topk_batch(queries, k=8) == reference.topk_batch(queries, k=8)


class TestMutationAcrossExecutors:
    """The executor dimension of the mutation grid: delete/upsert
    histories on persisted stores answer bit-identically to a fresh
    rebuild of the surviving set, for thread AND process fan-out, and
    readers are generation-pinned snapshots while a writer commits."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_persisted_mutation_history_bit_identical(
        self, tmp_path, backend, executor, workers, rng
    ):
        dim = 128
        labels = [f"v{i}" for i in range(24)]
        vectors = random_bipolar(24, dim, rng)
        builder = AssociativeStore.from_vectors(
            labels, vectors, backend=backend, shards=3)
        builder.save(tmp_path / "s")
        store = AssociativeStore.open(tmp_path / "s", mmap=False,
                                      executor=executor, workers=workers)
        model = list(zip(labels, vectors))

        def rebuilt():
            reference = ItemMemory(dim, backend=backend)
            reference.add_many([l for l, _ in model],
                               np.stack([v for _, v in model]))
            return reference

        def check(handle):
            reference = rebuilt()
            queries = _noisy_queries(np.stack([v for _, v in model]), rng)
            ref_labels, ref_sims = reference.cleanup_batch(queries)
            got_labels, got_sims = handle.cleanup_batch(queries)
            assert got_labels == ref_labels
            assert np.array_equal(got_sims, ref_sims)
            assert handle.topk_batch(queries, k=6) == reference.topk_batch(
                queries, k=6)

        store.delete(["v2", "v9", "v17"])
        model = [(l, v) for l, v in model if l not in ("v2", "v9", "v17")]
        check(store)

        batch = random_bipolar(3, dim, rng)
        store.upsert(["v5", "v20", "new0"], batch)
        model = [(l, v) for l, v in model if l not in ("v5", "v20")]
        model += list(zip(["v5", "v20", "new0"], batch))
        check(store)

        # a fresh open replays the journal to the same state...
        fresh = AssociativeStore.open(tmp_path / "s", mmap=False,
                                      executor=executor, workers=workers)
        check(fresh)
        # ... and compaction folds it without moving a single decision
        fresh.compact()
        check(fresh)
        check(AssociativeStore.open(tmp_path / "s", mmap=False,
                                    executor=executor, workers=workers))

    def test_concurrent_readers_pin_exactly_one_generation(self, tmp_path,
                                                           rng):
        """Snapshot isolation: while a writer commits mutations, every
        reader answer matches exactly one committed generation — handles
        opened earlier keep answering their pinned snapshot (thread AND
        process executors), and fresh opens see old-or-new, never a
        torn mix."""
        import threading
        import time

        dim = 64
        labels = [f"v{i}" for i in range(16)]
        vectors = random_bipolar(16, dim, rng)
        path = tmp_path / "s"
        AssociativeStore.from_vectors(labels, vectors, backend="packed",
                                      shards=3).save(path)
        queries = _noisy_queries(vectors, rng, num=4)
        model = list(zip(labels, vectors))

        def answers_of(current_model):
            reference = ItemMemory(dim, backend="packed")
            reference.add_many([l for l, _ in current_model],
                               np.stack([v for _, v in current_model]))
            return reference.topk_batch(queries, k=5)

        upsert_batch = random_bipolar(2, dim, rng)
        mutations = [
            ("delete", ["v3", "v11"], None),
            ("upsert", ["v6", "late0"], upsert_batch),
            ("append", ["tail0", "tail1"], random_bipolar(2, dim, rng)),
        ]
        legal = [answers_of(model)]
        for op, batch_labels, batch_vectors in mutations:
            model = [(l, v) for l, v in model if l not in set(batch_labels)]
            if op != "delete":
                model += list(zip(batch_labels, batch_vectors))
            legal.append(answers_of(model))

        pinned = AssociativeStore.open(path, mmap=False)
        pinned_proc = AssociativeStore.open(path, executor="process",
                                            workers=2)
        warm = pinned_proc.topk_batch(queries, k=5)  # pin the worker pool
        assert warm == legal[0]

        writer = AssociativeStore.open(path)
        done = threading.Event()

        def commit_all():
            try:
                for op, batch_labels, batch_vectors in mutations:
                    time.sleep(0.02)
                    if op == "delete":
                        writer.delete(batch_labels)
                    elif op == "upsert":
                        writer.upsert(batch_labels, batch_vectors)
                    else:
                        writer.add_many(batch_labels, batch_vectors)
            finally:
                done.set()

        thread = threading.Thread(target=commit_all)
        thread.start()
        observed = []
        try:
            while not done.is_set():
                got = AssociativeStore.open(path, mmap=False).topk_batch(
                    queries, k=5)
                assert got in legal  # old or new, never a torn generation
                observed.append(legal.index(got))
        finally:
            thread.join()
        # earlier handles never move off their pinned snapshot: the
        # thread handle answers its RAM generation; the process handle
        # answers its warmed generation-0 cache, or — if a task lands on
        # a cold worker that can no longer load generation 0 — refuses
        # with the documented error. Never a torn mix.
        assert pinned.topk_batch(queries, k=5) == legal[0]
        try:
            assert pinned_proc.topk_batch(queries, k=5) == legal[0]
        except RuntimeError as exc:
            assert "generation" in str(exc) and "re-open" in str(exc)
        pinned_proc.memory.close()
        # the committed chain converged, and readers marched monotonically
        final = AssociativeStore.open(path, mmap=False)
        assert final.topk_batch(queries, k=5) == legal[-1]
        assert observed == sorted(observed)


class TestFacadeAndExecutor:
    def test_store_facade_threads_workers(self, rng):
        vectors = random_bipolar(20, 128, rng)
        labels = [f"v{i}" for i in range(20)]
        store = AssociativeStore.from_vectors(labels, vectors, shards=4,
                                              backend="packed", workers=3)
        assert store.workers == 3
        assert store.stats()["workers"] == 3
        single = AssociativeStore.from_vectors(labels, vectors, workers=3)
        assert single.workers == 1  # nothing to fan out
        assert store.cleanup(vectors[7])[0] == "v7"

    def test_workers_is_settable_on_a_live_memory(self, rng):
        sharded = ShardedItemMemory(64, num_shards=3, workers=1)
        sharded.add_many([f"v{i}" for i in range(9)], random_bipolar(9, 64, rng))
        query = random_bipolar(2, 64, rng)
        before = sharded.topk_batch(query, k=4)
        sharded.workers = 4
        assert sharded.workers == 4
        assert sharded.topk_batch(query, k=4) == before

    def test_default_width_is_the_affinity_core_count(self, tmp_path, rng):
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        vectors = random_bipolar(20, 128, rng)
        labels = [f"v{i}" for i in range(20)]
        store = AssociativeStore.from_vectors(labels, vectors, shards=4,
                                              backend="packed")
        assert store.workers == cores
        assert ShardedItemMemory(64, num_shards=2).workers == cores
        store.save(tmp_path / "store")
        reopened = AssociativeStore.open(tmp_path / "store")
        assert reopened.workers == cores
        assert reopened.memory._executor.cores == cores
        assert AssociativeStore.from_vectors(labels, vectors).workers == 1

    def test_resolve_workers(self):
        assert resolve_workers(None) == available_cores()
        assert resolve_workers("auto") == available_cores()
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)
        with pytest.raises(ValueError, match="workers"):
            resolve_workers("many")
        with pytest.raises(ValueError, match="workers"):
            ShardedItemMemory(64, num_shards=2, workers=-1)
        with pytest.raises(ValueError, match="workers"):
            AssociativeStore(64, shards=2, workers=0)

    def test_executor_preserves_submission_order(self):
        executor = ShardExecutor(workers=4)
        try:
            # Later items finish first; results must stay in order.
            import time

            def slow_identity(item):
                time.sleep(0.02 * (4 - item))
                return item

            assert executor.map(slow_identity, range(4)) == [0, 1, 2, 3]
        finally:
            executor.close()

    def test_distances_to_similarities_matches_reference_floats(self, rng):
        dim = 192
        vectors = random_bipolar(12, dim, rng)
        queries = random_bipolar(3, dim, rng)
        for backend in BACKENDS:
            memory = ItemMemory(dim, backend=backend)
            memory.add_many(list(range(12)), vectors)
            distances = memory.distances_batch(queries)
            sims = distances_to_similarities(distances, dim, backend, queries)
            assert np.array_equal(sims, memory.similarities_batch(queries))

    def test_distances_batch_rejects_non_bipolar(self, rng):
        memory = ItemMemory(32, backend="dense")
        memory.add("a", random_bipolar(1, 32, rng)[0])
        with pytest.raises(ValueError, match="bipolar"):
            memory.distances_batch(np.ones((1, 32)) * 0.5)

    def test_map_after_close_raises_instead_of_rebuilding(self):
        """Regression: close() used to silently rebuild a pool on the next
        map; a closed executor must refuse work, for every width/kind."""
        for workers, kind in ((1, "thread"), (3, "thread"), (2, "process")):
            executor = ShardExecutor(workers=workers, kind=kind)
            if kind == "thread":
                assert executor.map(lambda x: x * 2, [1, 2]) == [2, 4]
            executor.close()
            with pytest.raises(RuntimeError, match="closed"):
                executor.map(lambda x: x, [1])
            executor.close()  # idempotent
            assert executor._pool is None

    def test_close_is_idempotent_from_a_non_owning_thread(self):
        """Regression: the serving layer's event loop hands the store to a
        dispatch thread, so close() may come from a thread that never ran
        a map. Many racing closers (plus the owner) must each return
        cleanly, the pool must be shut down exactly once, and a later map
        must raise rather than rebuild a pool."""
        import threading

        for kind in ("thread", "process"):
            executor = ShardExecutor(workers=2, kind=kind)
            if kind == "thread":  # materialize the pool from the owner
                assert executor.map(lambda x: x + 1, [1, 2]) == [2, 3]
            closers = [threading.Thread(target=executor.close) for _ in range(8)]
            for thread in closers:
                thread.start()
            executor.close()  # the owner joins the race too
            for thread in closers:
                thread.join()
            assert executor._pool is None
            with pytest.raises(RuntimeError, match="closed"):
                executor.map(lambda x: x, [1])

    def test_close_racing_map_never_rebuilds_a_pool(self):
        """A map racing close() must either complete or raise — it can
        never leave a fresh pool behind on a closed executor."""
        import threading

        for _ in range(20):
            executor = ShardExecutor(workers=2, kind="thread")
            started = threading.Event()

            def mapper(executor=executor, started=started):
                started.set()
                try:
                    executor.map(lambda x: x, range(8))
                except RuntimeError:
                    pass  # closed first: the documented outcome
                except Exception:
                    pass  # cancelled mid-flight by the shutdown: also fine

            thread = threading.Thread(target=mapper)
            thread.start()
            started.wait()
            executor.close()
            thread.join()
            assert executor._pool is None  # never rebuilt after close

    def test_resolve_executor_and_invalid_kind(self):
        from repro.hdc.store import resolve_executor

        assert resolve_executor(None) == "thread"
        assert resolve_executor("thread") == "thread"
        assert resolve_executor("process") == "process"
        with pytest.raises(ValueError, match="executor"):
            resolve_executor("fibers")
        with pytest.raises(ValueError, match="executor"):
            ShardedItemMemory(64, num_shards=2, executor="fibers")
        with pytest.raises(ValueError, match="executor"):
            AssociativeStore(64, shards=2, executor="fibers")

    def test_executor_and_workers_setters_preserve_each_other(self, rng):
        sharded = ShardedItemMemory(64, num_shards=3, workers=2,
                                    executor="process")
        sharded.add_many([f"v{i}" for i in range(9)], random_bipolar(9, 64, rng))
        query = random_bipolar(2, 64, rng)
        before = sharded.topk_batch(query, k=4)
        sharded.workers = 4
        assert sharded.executor == "process"
        sharded.executor = "thread"
        assert sharded.workers == 4
        assert sharded.topk_batch(query, k=4) == before
        sharded.close()

    def test_process_spill_requires_json_labels(self, rng):
        sharded = ShardedItemMemory(64, num_shards=2, executor="process")
        sharded.add(("tuple", "label"), random_bipolar(1, 64, rng)[0])
        with pytest.raises(TypeError, match="JSON-serializable"):
            sharded.cleanup_batch(random_bipolar(1, 64, rng))
        sharded.close()


class TestEarlyExitPruning:
    """Shard-skip pruning must never change a decision, only skip work."""

    def _banded_pair(self, rng, dim=128, shards=8, per_shard=4, backend="packed",
                     executor="thread", workers=1):
        """Round-robin store whose shards hold disjoint minus-count bands:
        shard s's vectors all have exactly s * dim // shards minus-ones,
        so for a query in one band every other shard's lower bound is
        positive — skippable once an exact match pins the k-th best."""
        vectors = []
        for i in range(shards * per_shard):
            shard = i % shards
            minus = shard * (dim // shards)
            row = np.ones(dim, dtype=np.int8)
            row[:minus] = -1
            vectors.append(row)
        vectors = np.stack(vectors)
        labels = [f"v{i}" for i in range(len(vectors))]
        reference = ItemMemory(dim, backend=backend)
        reference.add_many(labels, vectors)
        sharded = ShardedItemMemory(dim, num_shards=shards, backend=backend,
                                    routing="round_robin", workers=workers,
                                    executor=executor)
        sharded.add_many(labels, vectors)
        return reference, sharded, vectors

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_skippable_shards_are_skipped_and_decisions_hold(
        self, backend, executor, rng
    ):
        """Every shard but the query's own band is skippable: the exact
        match pins the k-th best at 0, every other band's bound is > 0."""
        reference, sharded, vectors = self._banded_pair(
            rng, backend=backend, executor=executor)
        # exact copies from shard 0's band (items 0 and 8 both live there)
        queries = np.stack([vectors[0], vectors[8]])
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        sh_labels, sh_sims = sharded.cleanup_batch(queries)
        assert sh_labels == ref_labels
        assert np.array_equal(sh_sims, ref_sims)
        stats = sharded.pruning_stats
        assert stats["skipped"] == 7  # all bands but the query's own
        assert stats["tasks"] == 8
        assert 0 < stats["skip_rate"] < 1
        assert sharded.topk_batch(queries, k=3) == reference.topk_batch(
            queries, k=3)
        sharded.close()

    def test_pruning_toggle_is_bit_identical(self, rng):
        reference, sharded, vectors = self._banded_pair(rng)
        queries = np.concatenate([vectors[:2], _noisy_queries(vectors, rng)])
        pruned_cleanup = sharded.cleanup_batch(queries)
        pruned_topk = sharded.topk_batch(queries, k=5)
        sharded.prune = False
        assert sharded.cleanup_batch(queries)[0] == pruned_cleanup[0]
        assert np.array_equal(sharded.cleanup_batch(queries)[1], pruned_cleanup[1])
        assert sharded.topk_batch(queries, k=5) == pruned_topk
        assert sharded.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        sharded.close()

    def test_boundary_ties_are_never_pruned(self, rng):
        """A duplicate of the query's best match living in another shard
        ties exactly at the k-th-best distance; the strict skip rule must
        keep that shard scored so insertion order decides."""
        dim = 128
        row = np.ones(dim, dtype=np.int8)
        # two identical vectors routed to different shards (round robin)
        sharded = ShardedItemMemory(dim, num_shards=2, backend="packed",
                                    routing="round_robin")
        sharded.add_many(["first", "second"], np.stack([row, row]))
        label, sim = sharded.cleanup(row)
        assert label == "first" and sim == 1.0
        ranked = sharded.topk(row, k=2)
        assert [name for name, _ in ranked] == ["first", "second"]

    def test_facade_surfaces_pruning_stats(self, rng):
        vectors = random_bipolar(12, 64, rng)
        store = AssociativeStore.from_vectors(
            [f"v{i}" for i in range(12)], vectors, shards=3, backend="packed")
        store.cleanup_batch(vectors[:2])
        stats = store.pruning_stats
        assert stats is not None and stats["batches"] >= 1
        single = AssociativeStore.from_vectors(["a"], vectors[:1])
        assert single.pruning_stats is None

    def test_opened_pre_bounds_store_never_skips(self, rng, tmp_path):
        """A manifest whose non-empty shards carry ``null`` bounds (every
        layer unknown) must disable skipping on *both* layers but answer
        identically; compacting the open handle re-establishes exact
        bounds, and it skips again."""
        import json

        reference, sharded, vectors = self._banded_pair(rng)
        from repro.hdc.store import save_store, open_store, MANIFEST_NAME
        save_store(sharded, tmp_path / "s")
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert all(entry["rows"] for entry in manifest["shards"])
        for entry in manifest["shards"]:
            entry["bounds"] = dict.fromkeys(entry["bounds"])  # all null
        manifest_path.write_text(json.dumps(manifest))
        reopened = open_store(tmp_path / "s")
        queries = vectors[:2].copy()
        assert reopened.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        assert reopened.pruning_stats["skipped"] == 0
        save_store(reopened, tmp_path / "s")  # compact: exact bounds again
        reopened.reset_pruning_stats()
        assert reopened.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        assert reopened.pruning_stats["skipped"] > 0
        sharded.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_concurrent_batches_keep_stats_exact_and_decisions_fixed(
        self, backend, rng
    ):
        """The pruning_stats thread-safety contract: two tie-heavy batched
        queries racing through one ShardedItemMemory (direct callers on
        several threads) must (a) answer bit-identically to the
        sequential reference on every run and (b) lose no stat
        increments — each batch folds in atomically, so the totals are
        exactly batches x active-shard tasks."""
        import threading

        dim = 128
        base = random_bipolar(2, dim, rng)
        vectors = np.tile(base, (8, 1))  # tie-heavy: 8 copies of each
        labels = [f"dup{i}" for i in range(16)]
        reference = ItemMemory(dim, backend=backend)
        reference.add_many(labels, vectors)
        sharded = ShardedItemMemory(dim, num_shards=4, backend=backend,
                                    routing="round_robin", workers=2)
        sharded.add_many(labels, vectors)
        queries = np.concatenate([base, base, base])
        expected_cleanup = reference.cleanup_batch(queries)
        expected_topk = reference.topk_batch(queries, k=16)
        sharded.reset_pruning_stats()
        runs_per_thread, num_threads = 10, 4
        failures = []

        def worker():
            try:
                for _ in range(runs_per_thread):
                    got_labels, got_sims = sharded.cleanup_batch(queries)
                    assert got_labels == expected_cleanup[0]
                    assert np.array_equal(got_sims, expected_cleanup[1])
                    assert sharded.topk_batch(queries, k=16) == expected_topk
            except Exception as exc:  # surface across the thread boundary
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        stats = sharded.pruning_stats
        batches = 2 * runs_per_thread * num_threads  # cleanup + topk each run
        assert stats["batches"] == batches
        assert stats["tasks"] == batches * 4  # every active shard, every batch
        assert stats["skipped"] == stats["skipped_minus"] + stats["skipped_centroid"]
        sharded.close()


class TestWorkConservingSchedule:
    """The bounded fan-out's schedule at width 2, on any machine: the
    core count that caps the width is pinned to 2, so a 1-core runner
    sees the same schedule as a 2-core one."""

    @staticmethod
    def _store(monkeypatch, rng, executor):
        import repro.hdc.store.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cores", lambda: 2)
        dim = 256
        labels = [f"item{i}" for i in range(800)]
        vectors = random_bipolar(800, dim, rng)
        reference, sharded = _pair(dim, labels, vectors, "packed", 8, 2,
                                   executor=executor)
        assert sharded._executor.cores == 2 and all(sharded.shard_sizes)
        return reference, sharded, vectors

    @staticmethod
    def _trace_submits(sharded, monkeypatch):
        """Record each task the fan-out submits: ``(shard, queries,
        bound-free, every bound-free task submitted before it had
        finished)``. The bound-free tasks are the seed's."""
        submits, seed = [], []
        original = sharded._submit

        def submit(mode, index, queries, k, bounds=None):
            settled = all(future.done() for future in seed)
            future = original(mode, index, queries, k, bounds)
            if bounds is None:
                seed.append(future)
            submits.append((index, len(queries), bounds is None, settled))
            return future

        monkeypatch.setattr(sharded, "_submit", submit)
        return submits, seed

    @staticmethod
    def _trace_kernels(sharded, monkeypatch):
        """Record ``("start"|"end", shard, queries)`` around every packed
        kernel call (thread executor: the calls run in this process)."""
        import threading

        from repro.hdc.backend import PackedBackend

        events, lock = [], threading.Lock()
        shard_of = {id(shard._native_matrix()): index
                    for index, shard in enumerate(sharded.shards)}
        original = PackedBackend.hamming_topk

        def hamming_topk(self, queries, store, *args, **kwargs):
            key = (shard_of[id(store)], len(queries))
            with lock:
                events.append(("start", *key))
            try:
                return original(self, queries, store, *args, **kwargs)
            finally:
                with lock:
                    events.append(("end", *key))

        monkeypatch.setattr(PackedBackend, "hamming_topk", hamming_topk)
        return events

    @staticmethod
    def _assert_split_schedule(submits):
        """64 queries on 8 shards at width 2: two bound-free seed halves
        first, every later task submitted only once both had finished,
        the last shard split in halves too and every other shard whole."""
        shards = [index for index, *_ in submits]
        first, last = shards[0], shards[-1]
        assert len(submits) == 8 + 2
        assert [task[:3] for task in submits[:2]] == [(first, 32, True)] * 2
        assert shards[-2:] == [last, last] and last != first
        assert all(not free and settled for _, _, free, settled in submits[2:])
        sizes = {index: sorted(n for i, n, *_ in submits if i == index)
                 for index in shards}
        assert sizes.pop(first) == sizes.pop(last) == [32, 32]
        assert sorted(sizes) == sorted(set(range(8)) - {first, last})
        assert all(split == [64] for split in sizes.values())

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_seed_and_last_shard_split_across_the_width(
        self, executor, monkeypatch, rng
    ):
        """Each 64-query batch makes 8 + 2 shard tasks in the split
        schedule, and answers like the reference."""
        reference, sharded, vectors = self._store(monkeypatch, rng, executor)
        queries = _noisy_queries(vectors, rng, num=64)
        submits, seed = self._trace_submits(sharded, monkeypatch)
        assert sharded.topk_batch(queries, k=5) == reference.topk_batch(
            queries, k=5)
        self._assert_split_schedule(submits)
        submits.clear()
        seed.clear()
        labels, sims = sharded.cleanup_batch(queries)
        self._assert_split_schedule(submits)
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        assert labels == ref_labels and np.array_equal(sims, ref_sims)
        assert sharded.pruning_stats["skipped"] == 0  # every shard ran
        sharded.close()

    def test_kernel_calls_of_a_batch(self, monkeypatch, rng):
        """The same schedule seen from the packed kernel (thread executor):
        8 + 2 calls, the seed's two 32-query calls both end before any
        other shard's call starts, and the last shard's calls are the
        only other 32-query ones."""
        reference, sharded, vectors = self._store(monkeypatch, rng, "thread")
        queries = _noisy_queries(vectors, rng, num=64)
        events = self._trace_kernels(sharded, monkeypatch)
        assert sharded.topk_batch(queries, k=5) == reference.topk_batch(
            queries, k=5)
        starts = [event[1:] for event in events if event[0] == "start"]
        assert len(starts) == len(events) // 2 == 8 + 2
        first = starts[0][0]
        seed_ends = [i for i, event in enumerate(events)
                     if event[:2] == ("end", first)]
        other_starts = [i for i, event in enumerate(events)
                        if event[0] == "start" and event[1] != first]
        assert starts[:2] == [(first, 32)] * 2 and len(seed_ends) == 2
        assert max(seed_ends) < min(other_starts)
        last = starts[-1][0]
        assert sorted(starts) == sorted(
            [(first, 32)] * 2 + [(last, 32)] * 2
            + [(index, 64) for index in range(8) if index not in (first, last)])
        sharded.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_one_query_runs_the_seed_alone(self, executor, monkeypatch, rng):
        """One query cannot split: the seed runs alone and finishes before
        any other shard starts, and every shard runs once."""
        reference, sharded, vectors = self._store(monkeypatch, rng, executor)
        query = _noisy_queries(vectors, rng, num=1)
        submits, _ = self._trace_submits(sharded, monkeypatch)
        assert sharded.topk_batch(query, k=5) == reference.topk_batch(query, k=5)
        assert submits[0][1:3] == (1, True)
        assert all(not free and settled for _, _, free, settled in submits[1:])
        assert sorted(index for index, *_ in submits) == list(range(8))
        assert all(n == 1 for _, n, *_ in submits)
        sharded.close()


class TestProcessPersistedLifecycle:
    """The process executor across the save → open → append → compact cycle."""

    def test_open_query_append_query_compact_query(self, rng, tmp_path):
        dim = 128
        vectors = random_bipolar(40, dim, rng)
        labels = [f"v{i}" for i in range(40)]
        store = AssociativeStore.from_vectors(
            labels[:30], vectors[:30], backend="packed", shards=3)
        store.save(tmp_path / "s")
        opened = AssociativeStore.open(tmp_path / "s", workers=2,
                                       executor="process")
        assert opened.executor == "process"
        reference = ItemMemory(dim, backend="packed")
        reference.add_many(labels[:30], vectors[:30])
        queries = _noisy_queries(vectors[:30], rng)
        assert opened.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        # journaled append bumps the generation; workers must follow
        opened.add_many(labels[30:], vectors[30:])
        reference.add_many(labels[30:], vectors[30:])
        queries = _noisy_queries(vectors, rng)
        assert opened.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        assert opened.topk_batch(queries, k=6) == reference.topk_batch(queries, k=6)
        opened.compact()
        assert opened.topk_batch(queries, k=6) == reference.topk_batch(queries, k=6)
        opened.memory.close()

    def _mutated_store(self, rng, path):
        """A 3-shard persisted store after an append, a delete and an
        upsert: base files, segments, tombstones and a replacement all
        on the delta chain. Returns the open handle and its generation."""
        import json
        from repro.hdc.store import MANIFEST_NAME

        dim = 128
        vectors = random_bipolar(40, dim, rng)
        labels = [f"v{i}" for i in range(40)]
        AssociativeStore.from_vectors(
            labels[:30], vectors[:30], backend="packed", shards=3).save(path)
        opened = AssociativeStore.open(path, mmap=False)
        opened.add_many(labels[30:], vectors[30:])
        opened.delete(["v3", "v17", "v31"])
        opened.upsert(["v5", "v36"], random_bipolar(2, dim, rng))
        generation = json.loads((path / MANIFEST_NAME).read_text())["generation"]
        return opened, generation

    def test_worker_attach_matches_the_open_handle(self, rng, tmp_path):
        """``load_worker_shard`` — the process workers' one attach —
        rebuilds each shard's rows and dense global orders from the
        manifest, the orders sidecars and the delta chain, exactly as
        the handle that made the commits holds them."""
        from repro.hdc.store import load_worker_shard

        opened, generation = self._mutated_store(rng, tmp_path / "s")
        memory = opened.memory
        for index, shard in enumerate(memory.shards):
            attached, orders = load_worker_shard(tmp_path / "s", index, generation)
            assert np.array_equal(attached.native_matrix(), shard.native_matrix())
            assert np.array_equal(orders, memory._orders_of(index))
        memory.close()

    def test_worker_parses_a_generations_delta_chain_once(
            self, rng, tmp_path, monkeypatch):
        """A process worker attaching every shard of one generation reads
        its manifest and delta chain once: 6 delta parses for a 6-delta
        chain and 8 shards, not one chain per shard. Each shard attaches
        as ``load_worker_shard`` attaches it alone."""
        from repro.hdc.store import load_worker_shard, parallel, persistence, \
            read_manifest

        dim = 128
        vectors = random_bipolar(230, dim, rng)
        labels = [f"v{i}" for i in range(200)]
        AssociativeStore.from_vectors(labels, vectors[:200], backend="packed",
                                      shards=8).save(tmp_path / "s")
        opened = AssociativeStore.open(tmp_path / "s")
        for step in range(3):
            fresh = [f"w{step}.{i}" for i in range(10)]
            opened.upsert(labels[10 * step:10 * step + 2] + fresh[2:],
                          vectors[200 + 10 * step:210 + 10 * step])
            opened.delete([labels[100 + step], fresh[5]])
        manifest = read_manifest(tmp_path / "s")
        assert len(manifest["deltas"]) == 6
        parsed = []
        load_delta = persistence._load_delta
        monkeypatch.setattr(persistence, "_load_delta",
                            lambda *args: parsed.append(args) or load_delta(*args))
        monkeypatch.setattr(parallel, "_WORKER_STORES", {})
        attached = [parallel._worker_shard(tmp_path / "s", manifest["generation"],
                                           index) for index in range(8)]
        assert len(parsed) == 6
        for index, (shard, orders) in enumerate(attached):
            alone, alone_orders = load_worker_shard(tmp_path / "s", index,
                                                    manifest["generation"])
            assert np.array_equal(orders, alone_orders)
            assert np.array_equal(shard.native_matrix(), alone.native_matrix())
            assert np.array_equal(shard._live_mask(), alone._live_mask())

    def test_worker_attach_refuses_a_moved_generation(self, rng, tmp_path):
        """A worker asked for a generation the directory has left raises
        the "re-open it" error (CF-26) instead of answering from it."""
        from repro.hdc.store import load_worker_shard

        opened, generation = self._mutated_store(rng, tmp_path / "s")
        with pytest.raises(RuntimeError, match="re-open it"):
            load_worker_shard(tmp_path / "s", 0, generation - 1)
        opened.memory.close()

    def test_worker_attach_raises_on_a_missing_orders_sidecar(self, rng, tmp_path):
        """There is no fallback path: a missing orders sidecar raises,
        naming the file and the generation, rather than attaching some
        other way."""
        import json
        from repro.hdc.store import MANIFEST_NAME, load_worker_shard

        opened, generation = self._mutated_store(rng, tmp_path / "s")
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        orders_file = manifest["shards"][1]["orders_file"]
        (tmp_path / "s" / orders_file).unlink()
        with pytest.raises(FileNotFoundError) as excinfo:
            load_worker_shard(tmp_path / "s", 1, generation)
        assert orders_file in str(excinfo.value)
        assert "generation" in str(excinfo.value)
        opened.memory.close()

    def test_save_elsewhere_then_delete_keeps_the_attached_orders(
            self, rng, tmp_path):
        """A journaling handle saves a copy to a second directory (which
        folds and renumbers its memory to match that copy), then deletes
        on its own directory: the cold commit must take the first
        directory's physical orders back, so the orders process workers
        read there are the handle's and every answer stays exact."""
        from repro.hdc.store import load_worker_shard, read_manifest

        dim = 128
        vectors = random_bipolar(40, dim, rng)
        labels = [f"v{i}" for i in range(40)]
        AssociativeStore.from_vectors(
            labels[:30], vectors[:30], backend="packed", shards=3,
        ).save(tmp_path / "a")
        opened = AssociativeStore.open(tmp_path / "a", workers=2,
                                       executor="process")
        opened.delete(["v2", "v9"])  # gaps in the physical orders of "a"
        opened.add_many(labels[30:], vectors[30:])
        opened.save(tmp_path / "b")  # dense orders, attached to "b"
        opened.delete(["v4", "v31"])  # journaled on "a" again

        memory = opened.memory
        generation = read_manifest(tmp_path / "a")["generation"]
        assert memory._attachment[:2] == (str(tmp_path / "a"), generation)
        for index, shard in enumerate(memory.shards):
            attached, orders = load_worker_shard(tmp_path / "a", index,
                                                 generation)
            assert np.array_equal(orders[attached._live_mask()],
                                  memory._orders_of(index)[shard._live_mask()])
        survivors = [i for i in range(40) if labels[i] not in
                     ("v2", "v9", "v4", "v31")]
        reference = ItemMemory(dim, backend="packed")
        reference.add_many([labels[i] for i in survivors], vectors[survivors])
        queries = _noisy_queries(vectors, rng)
        assert opened.cleanup_batch(queries)[0] == reference.cleanup_batch(queries)[0]
        assert opened.topk_batch(queries, k=6) == reference.topk_batch(queries, k=6)
        fresh = AssociativeStore.open(tmp_path / "a")
        assert fresh.topk_batch(queries, k=6) == reference.topk_batch(queries, k=6)
        opened.memory.close()

    def test_in_memory_delete_respills(self, rng):
        """A delete (even one an add of the same size hides from a row
        count) invalidates the spilled twin: the next process query
        re-spills and answers the store as it is now."""
        dim = 64
        vectors = random_bipolar(10, dim, rng)
        sharded = ShardedItemMemory(dim, num_shards=2, backend="packed",
                                    executor="process")
        sharded.add_many([f"v{i}" for i in range(8)], vectors[:8])
        assert sharded.cleanup(vectors[3])[0] == "v3"
        first_spill = sharded._attachment
        sharded.delete_many(["v3"])
        sharded.add_many(["w"], vectors[3:4])  # same row count as the spill
        assert sharded.cleanup(vectors[3])[0] == "w"
        assert sharded._attachment != first_spill
        second_spill = sharded._attachment
        sharded.delete_many(["v5"])
        assert sharded.cleanup(vectors[5])[0] != "v5"
        assert sharded._attachment != second_spill
        sharded.close()

    def test_in_memory_growth_respills(self, rng):
        dim = 64
        vectors = random_bipolar(12, dim, rng)
        sharded = ShardedItemMemory(dim, num_shards=2, backend="packed",
                                    executor="process")
        sharded.add_many([f"v{i}" for i in range(8)], vectors[:8])
        assert sharded.cleanup(vectors[3])[0] == "v3"
        first_spill = sharded._attachment
        sharded.add_many([f"v{i}" for i in range(8, 12)], vectors[8:])
        assert sharded.cleanup(vectors[10])[0] == "v10"  # sees new rows
        assert sharded._attachment != first_spill
        sharded.close()


@pytest.mark.store_scale
class TestStoreScale:
    """Slow large-store cases (run with ``-m store_scale``; CI nightly-style).

    ``STORE_SCALE_EXECUTOR=process`` runs the same agreement pass over
    the process executor (CI runs both).
    """

    def test_agreement_at_scale(self, store_scale_items, store_scale_executor):
        rng = np.random.default_rng(99)
        dim = 512
        items = store_scale_items
        vectors = random_bipolar(items, dim, rng)
        labels = list(range(items))
        reference = ItemMemory(dim, backend="packed")
        reference.add_many(labels, vectors)
        sharded = ShardedItemMemory(dim, num_shards=8, backend="packed", workers=4,
                                    executor=store_scale_executor)
        sharded.add_many(labels, vectors)
        queries = _noisy_queries(vectors, rng, num=16, flip_fraction=0.125)
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        sh_labels, sh_sims = sharded.cleanup_batch(queries)
        assert sh_labels == ref_labels
        assert np.array_equal(sh_sims, ref_sims)
        assert sharded.topk_batch(queries, k=10) == reference.topk_batch(
            queries, k=10
        )

    def test_append_at_scale(self, store_scale_items, store_scale_executor,
                             tmp_path):
        """Journaled appends against a large persisted store stay
        bit-identical to the reference under either executor — each of a
        run of small commits must answer through the delta chain, and
        ``compact()`` must fold them without changing a decision."""
        rng = np.random.default_rng(101)
        dim = 512
        items = store_scale_items
        batch, commits = 64, 4
        vectors = random_bipolar(items + batch * commits, dim, rng)
        labels = list(range(items + batch * commits))
        reference = ItemMemory(dim, backend="packed")
        reference.add_many(labels[:items], vectors[:items])
        store = AssociativeStore(dim, backend="packed", shards=8)
        store.add_many(labels[:items], vectors[:items])
        store.save(tmp_path / "store")
        del store

        opened = AssociativeStore.open(tmp_path / "store", workers=4,
                                       executor=store_scale_executor)
        for commit in range(commits):
            lo = items + commit * batch
            reference.add_many(labels[lo:lo + batch], vectors[lo:lo + batch])
            opened.add_many(labels[lo:lo + batch], vectors[lo:lo + batch])
            probe = vectors[lo + batch - 1]
            assert opened.cleanup(probe) == reference.cleanup(probe)
        queries = _noisy_queries(vectors, rng, num=16, flip_fraction=0.125)
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        sh_labels, sh_sims = opened.cleanup_batch(queries)
        assert sh_labels == ref_labels
        assert np.array_equal(sh_sims, ref_sims)
        opened.compact()
        assert opened.cleanup_batch(queries)[0] == ref_labels
        assert opened.topk_batch(queries, k=10) == reference.topk_batch(
            queries, k=10
        )
        opened.memory.close()

    def test_commit_time_is_flat_in_store_size(self, store_scale_items,
                                               tmp_path, monkeypatch):
        """The complexity fence behind "O(batch) commits": the median of
        ten 64-row delete commits, and of ten upsert commits — the first
        after a ``compact()`` among them — on a persisted 8-shard packed
        store must not grow more than 2x from ``store_scale_items // 10``
        to ``store_scale_items`` rows. Timed by the same
        ``_mutation_point`` that records the benchmark's ``mutation``
        surface."""
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[3] / "benchmarks"))
        bench_append = importlib.import_module("bench_append")
        small, large = (
            bench_append._mutation_point(items, np.random.default_rng(items),
                                         tmp_root=tmp_path)
            for items in (store_scale_items // 10, store_scale_items)
        )
        assert small["commits"] == large["commits"] >= 18
        for kind in ("delete", "upsert"):
            key = f"seconds_per_{kind}_median"
            assert large[key] <= 2 * small[key], (kind, small, large)

    def test_default_width_overlaps_shard_kernels(self, store_scale_items):
        """The fence behind the cores-wide default: on a packed 8-shard
        store of ``store_scale_items`` 1024-d rows, the median 64-query
        ``topk_batch`` at the default width (every core this process may
        run on) takes at most 0.8x the median at ``workers=1`` — the
        thread fan-out must overlap the shard kernels, not serialize
        them on the GIL. Calls alternate between two handles over the
        same rows, so drifting machine load hits both alike.

        Skipped where two threads cannot run at once: on one core, and
        when a virtual machine's cores share one host core — each
        repetition also times a GIL-free reference (``np.bitwise_count``
        over a 1M-word array, in two threads and then one), and the fence
        needs that reference to run at least 1.5x faster on two threads.
        """
        if available_cores() < 2:
            pytest.skip("needs at least 2 cores")
        rng = np.random.default_rng(107)
        dim, items = 1024, store_scale_items
        vectors = random_bipolar(items, dim, rng)
        labels = list(range(items))
        wide = AssociativeStore.from_vectors(labels, vectors, backend="packed",
                                             shards=8)
        narrow = AssociativeStore.from_vectors(labels, vectors, backend="packed",
                                               shards=8, workers=1)
        assert wide.workers == available_cores() and narrow.workers == 1
        queries = _noisy_queries(vectors, rng, num=64, flip_fraction=0.125)
        assert wide.topk_batch(queries, k=5) == narrow.topk_batch(queries, k=5)
        words = [rng.integers(0, 2**63, size=1 << 20, dtype=np.uint64) for _ in range(2)]

        def reference(index):
            out = np.empty(words[index].shape, dtype=np.uint8)
            for _ in range(20):
                np.bitwise_count(words[index], out=out)

        runs = {
            "narrow": lambda: narrow.topk_batch(queries, k=5),
            "wide": lambda: wide.topk_batch(queries, k=5),
            "reference x1": lambda: (reference(0), reference(1)),
            "reference x2": lambda: list(pool.map(reference, (0, 1))),
        }
        times = {name: [] for name in runs}
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(9):
                for name, run in runs.items():
                    start = time.perf_counter()
                    run()
                    times[name].append(time.perf_counter() - start)
        wide.memory.close()
        median = {name: float(np.median(spans)) for name, spans in times.items()}
        capacity = median["reference x1"] / median["reference x2"]
        if capacity < 1.5:
            pytest.skip(f"two threads ran GIL-free NumPy only {capacity:.2f}x "
                        f"faster than one: no second core to overlap on")
        assert median["wide"] <= 0.8 * median["narrow"], median

    @pytest.mark.parametrize("kind, bound", [("int", 145), ("str", 165)])
    def test_handle_memory_per_item(self, kind, bound, tmp_path):
        """The fence behind ARCHITECTURE.md's "Handle memory": after
        ``AssociativeStore.open`` of a saved 100k × 1024 store in 8
        packed shards, tracemalloc's traced bytes come to at most 145 per
        item with int labels and 165 with str labels. The vectors stay
        memmapped and are not traced; the store's one label index
        (``_slots`` and ``_order``) is most of what is. A label list or
        dict per shard would push both figures past 250. Fixed at 100k
        items: per-item bytes depend on the dict's fill."""
        items, dim, chunk = 100_000, 1024, 25_000
        rng = np.random.default_rng(109)
        labels = (list(range(items)) if kind == "int"
                  else [f"item{i}" for i in range(items)])
        store = AssociativeStore(dim, backend="packed", shards=8, workers=1)
        for start in range(0, items, chunk):
            store.add_many(labels[start:start + chunk],
                           random_bipolar(chunk, dim, rng))
        store.save(tmp_path / "store")
        del store, labels
        gc.collect()
        tracemalloc.start()
        try:
            opened = AssociativeStore.open(tmp_path / "store", workers=1)
            gc.collect()
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_item = traced / len(opened)
        assert per_item <= bound, f"{per_item:.1f} B/item with {kind} labels"

    def test_mutation_at_scale(self, store_scale_items, store_scale_executor,
                               tmp_path):
        """Delete 10% and upsert 5% of a large persisted store: answers
        must stay bit-identical to a reference built fresh from the
        surviving rows, through a reopen replaying the tombstones and
        through the ``compact()`` that folds them out."""
        rng = np.random.default_rng(103)
        dim = 512
        items = store_scale_items
        vectors = random_bipolar(items, dim, rng)
        labels = list(range(items))
        store = AssociativeStore(dim, backend="packed", shards=8)
        store.add_many(labels, vectors)
        store.save(tmp_path / "store")
        del store

        deleted = {int(i) for i in
                   rng.choice(items, size=items // 10, replace=False)}
        refreshed = [int(i) for i in rng.choice(
            [i for i in range(items) if i not in deleted],
            size=items // 20, replace=False)]
        new_vectors = random_bipolar(len(refreshed), dim, rng)

        opened = AssociativeStore.open(tmp_path / "store", workers=4,
                                       executor=store_scale_executor)
        opened.delete(sorted(deleted))
        opened.upsert(refreshed, new_vectors)

        # Survivors keep insertion order; the upsert batch re-enters at
        # the end — exactly what a fresh build from scratch would hold.
        survivors = [i for i in range(items)
                     if i not in deleted and i not in set(refreshed)]
        reference = ItemMemory(dim, backend="packed")
        reference.add_many(survivors, vectors[survivors])
        reference.add_many(refreshed, new_vectors)

        queries = _noisy_queries(vectors, rng, num=16, flip_fraction=0.125)
        ref_labels, ref_sims = reference.cleanup_batch(queries)
        sh_labels, sh_sims = opened.cleanup_batch(queries)
        assert sh_labels == ref_labels
        assert np.array_equal(sh_sims, ref_sims)
        assert opened.topk_batch(queries, k=10) == reference.topk_batch(
            queries, k=10
        )

        # a fresh reopen replays the tombstone chain identically
        fresh = AssociativeStore.open(tmp_path / "store", workers=4,
                                      executor=store_scale_executor)
        assert fresh.cleanup_batch(queries)[0] == ref_labels
        fresh.memory.close()

        opened.compact()
        assert opened.cleanup_batch(queries)[0] == ref_labels
        assert opened.topk_batch(queries, k=10) == reference.topk_batch(
            queries, k=10
        )
        opened.memory.close()
