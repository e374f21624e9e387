"""Op-level HDC benchmarks + the two-codebook design-choice ablation.

Quantifies the trade the paper's attribute encoder makes: storing G+V
atomic vectors and binding on the fly versus storing all α combination
vectors (Section III-A, the 71 % memory-reduction claim), and records
the dense-vs-packed backend trajectory in ``BENCH_hdc_backend.json``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import cub_schema
from repro.hdc import (
    AttributeDictionary,
    Codebook,
    DenseBackend,
    ItemMemory,
    PackedBackend,
    bind,
    bundle,
    codebook_footprint,
    cosine_similarity,
    random_bipolar,
)

D = 1536  # the paper's preferred dimensionality


@pytest.fixture(scope="module")
def schema():
    return cub_schema()


@pytest.fixture(scope="module")
def dictionary(schema):
    rng = np.random.default_rng(0)
    groups = Codebook.random(schema.group_names, D, rng)
    values = Codebook.random(schema.value_vocabulary, D, rng)
    return AttributeDictionary(groups, values, schema.pairs)


def test_bind_throughput(benchmark, rng):
    a = random_bipolar(312, D, rng)
    b = random_bipolar(312, D, rng)
    benchmark(lambda: bind(a, b))


def test_bundle_throughput(benchmark, rng):
    stack = random_bipolar(64, D, rng)
    benchmark(lambda: bundle(stack))


def test_cosine_similarity_312x200(benchmark, rng):
    queries = rng.normal(size=(200, D))
    keys = random_bipolar(312, D, rng).astype(np.float64)
    benchmark(lambda: cosine_similarity(queries, keys))


def test_dictionary_on_the_fly_row(benchmark, dictionary):
    """Hardware-style rematerialization: bind one row per query."""
    benchmark(lambda: [dictionary.row(i) for i in range(0, 312, 8)])


def test_dictionary_full_materialization(benchmark, schema):
    """Software-style: build the whole α×d dictionary once (uncached)."""
    rng = np.random.default_rng(1)
    groups = Codebook.random(schema.group_names, D, rng)
    values = Codebook.random(schema.value_vocabulary, D, rng)

    def build():
        return AttributeDictionary(groups, values, schema.pairs).matrix(cache=False)

    benchmark(build)


def test_class_embeddings_phi(benchmark, dictionary, rng):
    """φ(A) = A × B for the full 200-class CUB descriptor matrix."""
    A = rng.random((200, 312))
    dictionary.matrix()  # pre-cache, measuring only the projection
    benchmark(lambda: dictionary.class_embeddings(A))


def test_memory_footprint_claim(benchmark):
    """Asserts (and times) the 17 KB / 71 % accounting."""
    report = benchmark(lambda: codebook_footprint(28, 61, 312, D))
    assert round(report.factored_kilobytes) == 17
    assert round(report.reduction * 100) == 71


# --------------------------------------------------------------------- #
# dense vs packed backend comparison                                      #
# --------------------------------------------------------------------- #

B, C = 1024, 200  # batched queries × class codevectors (inference hot path)


def _best_of(fn, repeats=3):
    """Minimum wall time of ``fn`` over ``repeats`` runs (after one warmup)."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_packed_bind_throughput(benchmark, rng):
    backend = PackedBackend(D)
    a = backend.random(312, rng)
    b = backend.random(312, rng)
    benchmark(lambda: backend.bind(a, b))


def test_packed_bundle_throughput(benchmark, rng):
    backend = PackedBackend(D)
    stack = backend.random(64, rng)
    benchmark(lambda: backend.bundle(stack))


def test_packed_hamming_throughput(benchmark, rng):
    backend = PackedBackend(D)
    queries = backend.random(B, rng)
    store = backend.random(C, rng)
    benchmark(lambda: backend.hamming(queries, store))


def test_item_memory_cleanup_batch(benchmark, rng):
    """Batched associative cleanup on the packed backend."""
    memory = ItemMemory(D, backend="packed")
    memory.add_many([f"c{i}" for i in range(C)], random_bipolar(C, D, rng))
    queries = random_bipolar(B, D, rng)
    benchmark(lambda: memory.cleanup_batch(queries))


def test_backend_comparison_json(rng):
    """Dense-vs-packed comparison: Hamming hot path + stored-codebook bytes.

    Writes ``BENCH_hdc_backend.json`` next to this file so the perf
    trajectory is recorded across PRs, and asserts the tentpole's
    acceptance bar: ≥4× Hamming speedup and ≥8× memory reduction at
    d = 1536, C = 200, B = 1024.
    """
    dense = DenseBackend(D)
    packed = PackedBackend(D)
    queries = random_bipolar(B, D, rng)
    store = random_bipolar(C, D, rng)
    packed_queries = packed.from_bipolar(queries)
    packed_store = packed.from_bipolar(store)

    assert np.array_equal(
        dense.hamming(queries, store), packed.hamming(packed_queries, packed_store)
    )
    dense_time = _best_of(lambda: dense.hamming(queries, store))
    packed_time = _best_of(lambda: packed.hamming(packed_queries, packed_store))
    speedup = dense_time / packed_time

    dense_bytes = dense.nbytes(dense.from_bipolar(store))
    packed_bytes = packed.nbytes(packed_store)
    memory_reduction = dense_bytes / packed_bytes

    result = {
        "config": {"dim": D, "num_queries": B, "num_classes": C},
        "hamming_seconds": {"dense": dense_time, "packed": packed_time},
        "hamming_speedup": speedup,
        "codebook_bytes": {"dense": dense_bytes, "packed": packed_bytes},
        "memory_reduction": memory_reduction,
    }
    out_path = Path(__file__).parent / "BENCH_hdc_backend.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    assert speedup >= 4.0, f"packed Hamming only {speedup:.1f}x faster than dense"
    assert memory_reduction >= 8.0, f"packed store only {memory_reduction:.1f}x smaller"
