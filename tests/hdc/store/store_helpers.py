"""Helpers the store suites share: the grid axes, noisy queries, the
fresh reference memory, a reference/sharded pair, a small labelled
store, and a store whose batch kernels block until the test releases
them."""

import threading

from repro.hdc import ItemMemory, random_bipolar
from repro.hdc.store import AssociativeStore, ShardedItemMemory

SHARD_COUNTS = (1, 3, 8)
BACKENDS = ("dense", "packed")
EXECUTORS = ("thread", "process")


def noisy_queries(vectors, rng, num, flip_fraction):
    """``num`` stored rows drawn at random, each with ``flip_fraction`` of
    its components drawn (with replacement) for a sign flip."""
    dim = vectors.shape[1]
    queries = vectors[rng.integers(0, len(vectors), size=num)].copy()
    flips = rng.integers(0, dim, size=(num, int(dim * flip_fraction)))
    for row, columns in enumerate(flips):
        queries[row, columns] *= -1
    return queries


def fresh_memory(labels, vectors, backend="packed"):
    """A freshly built :class:`ItemMemory` of the rows: the reference
    every store's decisions must match."""
    memory = ItemMemory(vectors.shape[1], backend=backend)
    memory.add_many(labels, vectors)
    return memory


def pair(dim, labels, vectors, backend, shards, workers=None, routing="hash",
         executor="thread"):
    """A reference :class:`ItemMemory` and a sharded memory of the same rows."""
    reference = fresh_memory(labels, vectors, backend)
    sharded = ShardedItemMemory(dim, num_shards=shards, backend=backend,
                                routing=routing, workers=workers,
                                executor=executor)
    sharded.add_many(labels, vectors, chunk_size=7)  # odd chunks on purpose
    return reference, sharded


def build_store(rng, backend="packed", shards=3, executor="thread", dim=256,
                items=48):
    """``(store, labels, vectors)``: ``items`` random ``item<i>`` rows, two workers wide."""
    labels = [f"item{i}" for i in range(items)]
    vectors = random_bipolar(items, dim, rng)
    store = AssociativeStore.from_vectors(
        labels, vectors, backend=backend, shards=shards, workers=2,
        executor=executor,
    )
    return store, labels, vectors


class GatedStore:
    """Duck-typed store whose batch kernels block until released: a
    test holds a wave *mid-dispatch* (the server's one dispatch thread
    parks on ``release``, so every later request stays out of the store)
    and observes ``entered``. ``calls`` lists the kernel calls in entry
    order."""

    def __init__(self, inner):
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def __getattr__(self, name):  # dim, and the ungated delete/upsert
        return getattr(self._inner, name)

    def _gate(self, call):
        self.calls.append(call)
        self.entered.set()
        assert self.release.wait(timeout=10), "test never released the gate"

    def cleanup_batch(self, queries):
        self._gate("cleanup")
        return self._inner.cleanup_batch(queries)

    def topk_batch(self, queries, k=5):
        self._gate(("topk", k))
        return self._inner.topk_batch(queries, k=k)

    def similarities_batch(self, queries):
        self._gate("similarities")
        return self._inner.similarities_batch(queries)
