"""Backend layer: packed/dense agreement, property-based algebra invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import (
    WORD_BITS,
    DenseBackend,
    HDCBackend,
    PackedBackend,
    make_backend,
    pack_bipolar,
    random_bipolar,
    unpack_bipolar,
)

# Dimensions that exercise word boundaries: sub-word, exact words, ragged tail.
DIMS = st.sampled_from([1, 7, 63, 64, 65, 128, 200, 256, 300])


def backends(dim):
    return DenseBackend(dim), PackedBackend(dim)


def sample(seed, n, dim):
    return random_bipolar(n, dim, np.random.default_rng(seed))


class TestPacking:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS)
    def test_pack_roundtrip(self, seed, dim):
        x = sample(seed, 3, dim)
        assert np.array_equal(unpack_bipolar(pack_bipolar(x), dim), x)

    def test_word_count(self):
        assert pack_bipolar(sample(0, 2, 65)[0]).shape == (2,)
        assert pack_bipolar(sample(0, 2, 64)[0]).shape == (1,)

    def test_padding_bits_zero(self):
        """Tail bits beyond d stay zero, so XOR/popcount never see garbage."""
        x = -np.ones((1, 7), dtype=np.int8)  # all bits set in the used range
        words = pack_bipolar(x)
        assert int(words[0, 0]) == (1 << 7) - 1

    def test_rejects_non_bipolar(self):
        with pytest.raises(ValueError):
            pack_bipolar(np.array([0, 1, -1]))


class TestCrossBackendAgreement:
    """Packed and dense must agree bit-for-bit on every algebra op."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS)
    def test_bind(self, seed, dim):
        dense, packed = backends(dim)
        a, b = sample(seed, 2, dim)
        expected = dense.bind(a, b)
        got = packed.to_bipolar(packed.bind(packed.from_bipolar(a), packed.from_bipolar(b)))
        assert np.array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS, n=st.integers(1, 9))
    def test_bundle(self, seed, dim, n):
        dense, packed = backends(dim)
        stack = sample(seed, n, dim)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = dense.bundle(stack, rng=rng_a)
        got = packed.to_bipolar(packed.bundle(packed.from_bipolar(stack), rng=rng_b))
        assert np.array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS, n=st.integers(1, 5))
    def test_bundle_many(self, seed, dim, n):
        dense, packed = backends(dim)
        stacks = sample(seed, 4 * n, dim).reshape(4, n, dim)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = dense.bundle_many(stacks, rng=rng_a)
        got = packed.to_bipolar(packed.bundle_many(packed.from_bipolar(stacks), rng=rng_b))
        assert np.array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS, shift=st.integers(-130, 130))
    def test_permute(self, seed, dim, shift):
        """Covers the word-level roll + bit-carry path (dim % 64 == 0) and
        the ragged-tail fallback alike."""
        dense, packed = backends(dim)
        x = sample(seed, 2, dim)
        expected = dense.permute(x, shift)
        got = packed.to_bipolar(packed.permute(packed.from_bipolar(x), shift))
        assert np.array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS)
    def test_hamming_dot_cosine(self, seed, dim):
        dense, packed = backends(dim)
        a = sample(seed, 4, dim)
        b = sample(seed + 1, 3, dim)
        pa, pb = packed.from_bipolar(a), packed.from_bipolar(b)
        assert np.array_equal(packed.hamming(pa, pb), dense.hamming(a, b))
        assert np.allclose(packed.dot(pa, pb), dense.dot(a, b))
        assert np.allclose(packed.cosine(pa, pb), dense.cosine(a, b))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS)
    def test_random_sampling_identical(self, seed, dim):
        """Same generator state → the same hypervectors on every backend."""
        dense, packed = backends(dim)
        from_dense = dense.random(3, np.random.default_rng(seed))
        from_packed = packed.random(3, np.random.default_rng(seed))
        assert np.array_equal(packed.to_bipolar(from_packed), from_dense)


class TestAlgebraInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS)
    def test_bind_self_inverse_packed(self, seed, dim):
        packed = PackedBackend(dim)
        a, b = (packed.from_bipolar(v) for v in sample(seed, 2, dim))
        assert np.array_equal(packed.unbind(packed.bind(a, b), a), b)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS, shift=st.integers(-130, 130))
    def test_permute_inverse_identity_packed(self, seed, dim, shift):
        packed = PackedBackend(dim)
        x = packed.from_bipolar(sample(seed, 1, dim)[0])
        assert np.array_equal(packed.inverse_permute(packed.permute(x, shift), shift), x)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=DIMS)
    def test_hamming_zero_on_self(self, seed, dim):
        packed = PackedBackend(dim)
        x = packed.from_bipolar(sample(seed, 1, dim)[0])
        assert packed.hamming(x, x) == 0
        assert np.isclose(packed.cosine(x, x), 1.0)


class TestBackendContract:
    def test_make_backend_by_name(self):
        assert isinstance(make_backend("dense", 16), DenseBackend)
        assert isinstance(make_backend("packed", 16), PackedBackend)

    def test_make_backend_passthrough(self):
        backend = PackedBackend(32)
        assert make_backend(backend, 32) is backend

    def test_make_backend_dim_mismatch(self):
        with pytest.raises(ValueError):
            make_backend(PackedBackend(32), 64)

    def test_make_backend_unknown(self):
        with pytest.raises(ValueError):
            make_backend("quantum", 16)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            DenseBackend(0)

    def test_is_abstract(self):
        with pytest.raises(TypeError):
            HDCBackend(16)

    def test_nbytes_ratio(self):
        """The 8× storage story at the paper's d = 1536 (24 words exactly)."""
        rng = np.random.default_rng(0)
        vectors = random_bipolar(10, 1536, rng)
        dense, packed = backends(1536)
        assert dense.nbytes(dense.from_bipolar(vectors)) == 10 * 1536
        assert packed.nbytes(packed.from_bipolar(vectors)) == 10 * 1536 // 8
        assert packed.num_words == 1536 // WORD_BITS

    def test_packed_ops_reject_unpacked_inputs(self, rng):
        """Dense bipolar arrays must not slip into packed ops as 'words'."""
        packed = PackedBackend(128)
        dense_vectors = random_bipolar(2, 128, rng)
        store = packed.from_bipolar(dense_vectors)
        for call in (
            lambda: packed.hamming(dense_vectors, store),
            lambda: packed.bind(dense_vectors[0], store[0]),
            lambda: packed.bundle(dense_vectors),
            lambda: packed.permute(dense_vectors[0]),
        ):
            with pytest.raises(ValueError, match="from_bipolar"):
                call()

    def test_similarity_shapes(self):
        rng = np.random.default_rng(1)
        packed = PackedBackend(128)
        a = packed.random(3, rng)
        b = packed.random(5, rng)
        assert packed.hamming(a, b).shape == (3, 5)
        assert packed.hamming(a[0], b).shape == (5,)
        assert packed.hamming(a, b[0]).shape == (3,)
        assert isinstance(packed.hamming(a[0], b[0]), int)
        assert isinstance(packed.cosine(a[0], b[0]), float)


class TestHammingTopk:
    """The bound-aware exact top-k kernel (the store fan-out's primitive)."""

    def _reference(self, dense, nq, nd, k):
        from repro.hdc.ordering import topk_order

        distances = dense.hamming(nq, nd)
        selected = topk_order(distances, min(k, nd.shape[0]))
        rows = np.arange(distances.shape[0])[:, None]
        return distances[rows, selected], selected

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16),
           dim=st.sampled_from([64, 128, 200, 1024]),
           n=st.sampled_from([5, 300, 5000]),
           k=st.sampled_from([1, 4, 23]))
    def test_backends_match_full_sort_reference(self, seed, dim, n, k):
        dense, packed = backends(dim)
        rng = np.random.default_rng(seed)
        vectors = random_bipolar(n, dim, rng)
        # duplicate half the store: exact ties must resolve to smaller index
        vectors[n // 2 :] = vectors[: n - n // 2]
        queries = vectors[rng.integers(0, n, size=4)].copy()
        flips = rng.integers(0, dim, size=(4, max(1, dim // 10)))
        for row, columns in enumerate(flips):
            queries[row, columns] *= -1
        nd, nq = dense.from_bipolar(vectors), dense.from_bipolar(queries)
        expected_d, expected_i = self._reference(dense, nq, nd, k)
        for backend, store, qs in ((dense, nd, nq),
                                   (packed, packed.from_bipolar(vectors),
                                    packed.from_bipolar(queries))):
            got_d, got_i = backend.hamming_topk(qs, store, k)
            assert np.array_equal(got_d, expected_d), backend.name
            assert np.array_equal(got_i, expected_i), backend.name

    def test_bounds_preserve_everything_at_or_below_the_bound(self, rng):
        """Entries with distance <= bound must appear in exact rank; only
        strictly-worse entries may become sentinels (distance dim+1)."""
        dim, n, k = 512, 9000, 6
        dense, packed = backends(dim)
        vectors = random_bipolar(n, dim, rng)
        queries = vectors[rng.integers(0, n, size=5)].copy()
        flips = rng.integers(0, dim, size=(5, dim // 8))
        for row, columns in enumerate(flips):
            queries[row, columns] *= -1
        nd, nq = dense.from_bipolar(vectors), dense.from_bipolar(queries)
        expected_d, expected_i = self._reference(dense, nq, nd, k)
        store, qs = packed.from_bipolar(vectors), packed.from_bipolar(queries)
        for bound_col in (0, 2, k - 1):
            bounds = expected_d[:, bound_col].copy()
            got_d, got_i = packed.hamming_topk(qs, store, k, bounds=bounds)
            for qi in range(5):
                ok = expected_d[qi] <= bounds[qi]
                assert np.array_equal(got_d[qi][ok], expected_d[qi][ok])
                assert np.array_equal(got_i[qi][ok], expected_i[qi][ok])
                # pruned slots carry the documented sentinels or real
                # strictly-worse candidates — never anything better
                beyond = got_d[qi][~ok]
                assert (beyond > bounds[qi]).all()

    def test_zero_bound_forces_sentinels_for_far_queries(self, rng):
        dim, n = 256, 5000
        packed = PackedBackend(dim)
        vectors = random_bipolar(n, dim, rng)
        query = random_bipolar(1, dim, rng)  # ~dim/2 away from everything
        store, qs = packed.from_bipolar(vectors), packed.from_bipolar(query)
        got_d, got_i = packed.hamming_topk(qs, store, 3,
                                           bounds=np.zeros(1, dtype=np.int64))
        assert (got_d[0] == dim + 1).all()
        assert (got_i[0] == -1).all()

    def test_small_stores_and_k_overflow(self, rng):
        dim = 128
        dense, packed = backends(dim)
        vectors = random_bipolar(3, dim, rng)
        nd = dense.from_bipolar(vectors)
        store = packed.from_bipolar(vectors)
        qs = packed.from_bipolar(vectors[:1])
        expected_d, expected_i = self._reference(dense, nd[:1], nd, 99)
        got_d, got_i = packed.hamming_topk(qs, store, 99)
        assert np.array_equal(got_d, expected_d)
        assert np.array_equal(got_i, expected_i)
        assert got_d.shape == (1, 3)

    def test_minus_counts_agree_across_backends(self, rng):
        for dim in (63, 64, 200, 1024):
            dense, packed = backends(dim)
            vectors = random_bipolar(20, dim, rng)
            expected = (vectors < 0).sum(axis=1)
            assert np.array_equal(
                dense.minus_counts(dense.from_bipolar(vectors)), expected)
            assert np.array_equal(
                packed.minus_counts(packed.from_bipolar(vectors)), expected)

    def test_adaptive_schedule_tracks_the_bound(self):
        """Tight bounds checkpoint after a couple of words; loose bounds
        collapse to a single contiguous pass (no two-pass tax)."""
        from repro.hdc.backend import PackedBackend

        packed = PackedBackend(1024)  # 16 words
        assert packed._first_checkpoint(0) == 1
        assert packed._first_checkpoint(31) == 1
        assert packed._first_checkpoint(32) == 2
        assert packed._first_checkpoint(100) == 4
        checkpoints = [packed._first_checkpoint(b) for b in range(0, 1025, 32)]
        assert checkpoints == sorted(checkpoints)  # monotone in the bound
        assert packed._first_checkpoint(512) == 16  # ~dim/2: single pass
        assert packed._first_checkpoint(1024) == 16
        assert packed._first_checkpoint(1025) == 16  # the dim+1 sentinel

    def test_loose_bounds_take_the_single_pass_and_stay_exact(self, rng):
        """bounds = dim makes every prefix count survive — the schedule
        must degrade to one contiguous pass with the reference answer."""
        dim, n, k = 512, 9000, 5
        dense, packed = backends(dim)
        vectors = random_bipolar(n, dim, rng)
        queries = random_bipolar(3, dim, rng)
        nd, nq = dense.from_bipolar(vectors), dense.from_bipolar(queries)
        expected_d, expected_i = self._reference(dense, nq, nd, k)
        got_d, got_i = packed.hamming_topk(
            packed.from_bipolar(queries), packed.from_bipolar(vectors), k,
            bounds=np.full(3, dim, dtype=np.int64),
        )
        assert np.array_equal(got_d, expected_d)
        assert np.array_equal(got_i, expected_i)

    def test_dense_reference_applies_the_bounds_permit(self, rng):
        """The base kernel now realizes the sentinel contract too, so the
        sharded merge sees identical pruned-partial shapes on dense."""
        dim, n, k = 256, 400, 4
        dense, _ = backends(dim)
        vectors = random_bipolar(n, dim, rng)
        queries = vectors[:3].copy()
        nd, nq = dense.from_bipolar(vectors), dense.from_bipolar(queries)
        expected_d, expected_i = self._reference(dense, nq, nd, k)
        bounds = expected_d[:, 1].copy()  # keep ranks 0..1, prune the rest
        got_d, got_i = dense.hamming_topk(nq, nd, k, bounds=bounds)
        for qi in range(3):
            ok = expected_d[qi] <= bounds[qi]
            assert np.array_equal(got_d[qi][ok], expected_d[qi][ok])
            assert np.array_equal(got_i[qi][ok], expected_i[qi][ok])
            assert (got_d[qi][~ok] == dim + 1).all()
            assert (got_i[qi][~ok] == -1).all()

    def test_column_minus_counts_and_centroid_agree_across_backends(self, rng):
        for dim in (63, 64, 200, 1024):
            dense, packed = backends(dim)
            vectors = random_bipolar(33, dim, rng)
            expected = (vectors < 0).sum(axis=0)
            dense_counts = dense.column_minus_counts(dense.from_bipolar(vectors))
            packed_counts = packed.column_minus_counts(
                packed.from_bipolar(vectors))
            assert np.array_equal(dense_counts, expected)
            assert np.array_equal(packed_counts, expected)
            # identical majority centroid (exact-half ties resolve to +1)
            dense_centroid = dense.to_bipolar(dense.centroid(dense_counts, 33))
            packed_centroid = packed.to_bipolar(
                packed.centroid(packed_counts, 33))
            assert np.array_equal(dense_centroid, packed_centroid)
            majority = np.where(2 * expected > 33, -1, 1).astype(np.int8)
            assert np.array_equal(dense_centroid, majority)

    def test_column_minus_counts_blocked_sweep_is_exact(self, rng):
        """More rows than one block: the accumulation must still be exact."""
        from repro.hdc.backend import PackedBackend

        dim = 64
        dense, packed = backends(dim)
        rows = PackedBackend._COLUMN_COUNT_BLOCK + 37
        vectors = random_bipolar(rows, dim, rng)
        expected = (vectors < 0).sum(axis=0)
        assert np.array_equal(
            packed.column_minus_counts(packed.from_bipolar(vectors)), expected)
        assert np.array_equal(
            dense.column_minus_counts(dense.from_bipolar(vectors)), expected)

    @pytest.mark.parametrize("dim", [63, 64, 200, 1024])
    def test_packed_column_counts_past_the_uint8_block(self, dim, rng,
                                                       tmp_path):
        """The packed count sums each block of rows in uint8: an all −1
        column over more rows than one block (255 + more) must not wrap,
        on an in-memory store and on a memmapped one."""
        packed = PackedBackend(dim)
        rows = 2 * packed._COLUMN_COUNT_ROWS + 7
        vectors = random_bipolar(rows, dim, rng)
        vectors[:, 0] = -1
        vectors[:, dim - 1] = -1
        vectors[:, dim // 2] = 1
        expected = (vectors < 0).sum(axis=0)
        native = packed.from_bipolar(vectors)
        np.save(tmp_path / "store.npy", native)
        mapped = np.load(tmp_path / "store.npy", mmap_mode="r")
        for store in (native, mapped, native[:1]):
            counts = packed.column_minus_counts(store)
            assert counts.dtype == np.int64 and counts.shape == (dim,)
            assert np.array_equal(
                counts, (packed.to_bipolar(store) < 0).sum(axis=0))
        assert np.array_equal(packed.column_minus_counts(native), expected)
        assert expected[0] == rows > 255

    BLOCK = 4  # queries per NumPy call on a full 1024-row tile (below)

    def _blocked(self, dim):
        """A packed kernel with small tiles (probe 256, tiles of 1024 rows)
        whose query block on a full tile is ``BLOCK`` queries."""
        packed = PackedBackend(dim)
        packed._TOPK_TILE, packed._TOPK_PROBE = 1024, 256
        packed._TOPK_BLOCK_BYTES = 8 * 1024 * self.BLOCK
        return packed

    def _tied_case(self, rng, dim, n, num_queries):
        """A store whose second half duplicates its first (exact ties must
        resolve to the smaller index), and noisy copies of stored rows."""
        vectors = random_bipolar(n, dim, rng)
        vectors[n // 2 :] = vectors[: n - n // 2]
        queries = vectors[rng.integers(0, n, size=num_queries)].copy()
        for row in queries:
            row[rng.choice(dim, dim // 8, replace=False)] *= -1
        return vectors, queries

    @pytest.mark.parametrize("num_queries", [1, BLOCK - 1, BLOCK, BLOCK + 1, 65])
    def test_query_blocks_match_the_dense_reference(self, rng, num_queries):
        """Every query count around the block size — a partial block, an
        exact one, one query over — ranks exactly like the reference, both
        seeded by the probe and under per-query bounds."""
        dim, n, k = 512, 3000, 4  # tiles: probe 256, 1024, 1024, 696 rows
        dense, packed = DenseBackend(dim), self._blocked(dim)
        vectors, queries = self._tied_case(rng, dim, n, num_queries)
        nd, nq = dense.from_bipolar(vectors), dense.from_bipolar(queries)
        expected_d, expected_i = self._reference(dense, nq, nd, k)
        store, qs = packed.from_bipolar(vectors), packed.from_bipolar(queries)
        got_d, got_i = packed.hamming_topk(qs, store, k)
        assert np.array_equal(got_d, expected_d)
        assert np.array_equal(got_i, expected_i)
        bounds = expected_d[:, -1].copy()  # every query keeps its top-k
        got_d, got_i = packed.hamming_topk(qs, store, k, bounds=bounds)
        assert np.array_equal(got_d, expected_d)
        assert np.array_equal(got_i, expected_i)

    def test_mixed_bounds_inside_one_block(self, rng):
        """One block holds queries bounded at 0, tight, ``dim`` and
        ``dim + 1``: the block checkpoints on its loosest bound, yet each
        query keeps exactly what its own bound permits."""
        dim, n, k = 512, 3000, 5
        dense, packed = DenseBackend(dim), self._blocked(dim)
        vectors, queries = self._tied_case(rng, dim, n, 3 * self.BLOCK)
        nd, nq = dense.from_bipolar(vectors), dense.from_bipolar(queries)
        expected_d, expected_i = self._reference(dense, nq, nd, k)
        kinds = np.arange(queries.shape[0]) % 4
        bounds = np.choose(kinds, [np.zeros_like(expected_d[:, 0]),
                                   expected_d[:, 1],  # tight: keeps ranks 0..1
                                   np.full_like(expected_d[:, 0], dim),
                                   np.full_like(expected_d[:, 0], dim + 1)])
        got_d, got_i = packed.hamming_topk(packed.from_bipolar(queries),
                                           packed.from_bipolar(vectors), k,
                                           bounds=bounds)
        for qi in range(queries.shape[0]):
            ok = expected_d[qi] <= bounds[qi]
            assert np.array_equal(got_d[qi][ok], expected_d[qi][ok]), kinds[qi]
            assert np.array_equal(got_i[qi][ok], expected_i[qi][ok]), kinds[qi]
            assert (got_d[qi][~ok] > bounds[qi]).all(), kinds[qi]
            if kinds[qi] >= 2:  # a loose bound permits nothing to prune
                assert ok.all()

    def test_bad_bounds_shape_rejected(self, rng):
        packed = PackedBackend(256)
        store = packed.from_bipolar(random_bipolar(5000, 256, rng))
        qs = packed.from_bipolar(random_bipolar(2, 256, rng))
        with pytest.raises(ValueError, match="bounds"):
            packed.hamming_topk(qs, store, 2, bounds=np.zeros(3, dtype=np.int64))


class TestHammingTopkDeadRows:
    """``hamming_topk`` under a dead-row mask: every backend and every
    branch of the packed prefix-pruned kernel returns exactly the top-k
    of the *live* rows alone (computed here without any mask), with dead
    rows only ever as ``(dim + 1, -1)`` sentinels."""

    DIM = 512  # 8 words: the packed kernel's pruned path applies

    def _case(self, rng, n, dead, planted, queries=3):
        """A store whose first ``queries`` queries have exact copies at
        every ``planted`` row (so a masked winner would show at once)."""
        vectors = random_bipolar(n, self.DIM, rng)
        qs = random_bipolar(queries, self.DIM, rng)
        for row in planted:
            vectors[row] = qs[row % queries]
        return vectors, qs, np.asarray(sorted(dead), dtype=np.int64)

    def _expected(self, vectors, qs, dead, k, bounds=None):
        """The exact top-k over a store rebuilt from the live rows only,
        mapped back to physical indices and padded with sentinels."""
        from repro.hdc.ordering import topk_order

        n, dim = vectors.shape
        dense = DenseBackend(dim)
        live = np.setdiff1d(np.arange(n), dead)
        width = min(k, n)
        out_d = np.full((qs.shape[0], width), dim + 1, dtype=np.int64)
        out_i = np.full((qs.shape[0], width), -1, dtype=np.int64)
        if live.size:
            distances = np.atleast_2d(dense.hamming(qs, vectors[live]))
            selected = topk_order(distances, min(k, live.size))
            rows = np.arange(qs.shape[0])[:, None]
            out_d[:, : selected.shape[1]] = distances[rows, selected]
            out_i[:, : selected.shape[1]] = live[selected]
        if bounds is not None:
            pruned = out_d > np.asarray(bounds)[:, None]
            out_d[pruned], out_i[pruned] = dim + 1, -1
        return out_d, out_i

    def _packed(self, gather_fraction=None):
        packed = PackedBackend(self.DIM)
        packed._TOPK_TILE, packed._TOPK_PROBE = 1024, 256  # small tiles
        if gather_fraction is not None:
            packed._TOPK_GATHER_FRACTION = gather_fraction
        return packed

    def _assert_agree(self, backend, vectors, qs, dead, k, bounds=None):
        store, native_qs = backend.from_bipolar(vectors), backend.from_bipolar(qs)
        got_d, got_i = backend.hamming_topk(native_qs, store, k, bounds=bounds,
                                            dead=dead)
        expected_d, expected_i = self._expected(vectors, qs, dead, k, bounds)
        assert not np.isin(got_i, dead).any(), backend.name
        if bounds is None:
            assert np.array_equal(got_d, expected_d), backend.name
            assert np.array_equal(got_i, expected_i), backend.name
            return
        for qi in range(qs.shape[0]):  # the bounds permit, as for live rows
            ok = expected_d[qi] <= bounds[qi]
            assert np.array_equal(got_d[qi][ok], expected_d[qi][ok]), backend.name
            assert np.array_equal(got_i[qi][ok], expected_i[qi][ok]), backend.name
            assert (got_d[qi][~ok] > bounds[qi]).all(), backend.name

    @pytest.mark.parametrize("k", [1, 4])
    def test_dead_rows_inside_the_probe_block(self, rng, k):
        planted = [10, 11, 12, 100, 2500]  # the last one stays live
        vectors, qs, dead = self._case(rng, 3000, dead=[10, 11, 12, 100, 7],
                                       planted=planted)
        for backend in (DenseBackend(self.DIM), self._packed()):
            self._assert_agree(backend, vectors, qs, dead, k)

    @pytest.mark.parametrize("bound", [None, 60, DIM])
    def test_dead_rows_across_a_tile_boundary(self, rng, bound):
        span = list(range(1020, 1029))  # tiles are 1024 rows
        vectors, qs, dead = self._case(rng, 3000, dead=span,
                                       planted=span + [2900])
        bounds = None if bound is None else np.full(3, bound, dtype=np.int64)
        for backend in (DenseBackend(self.DIM), self._packed()):
            self._assert_agree(backend, vectors, qs, dead, 3, bounds)

    @pytest.mark.parametrize("branch, fraction", [("dense finish", 0.0),
                                                  ("gathered finish", 1.0)])
    def test_dead_rows_in_each_finish_branch(self, rng, branch, fraction):
        """A tight bound filters after a few words; the survivor fraction
        then picks the finish — forced here both ways."""
        planted = [5, 300, 1500, 1501, 2999]
        vectors, qs, dead = self._case(rng, 3000, dead=[5, 300, 1500, 2999],
                                       planted=planted)
        bounds = np.full(3, 100, dtype=np.int64)
        for backend in (DenseBackend(self.DIM), self._packed(fraction)):
            self._assert_agree(backend, vectors, qs, dead, 2, bounds)
            self._assert_agree(backend, vectors, qs, dead, 2)

    def test_dead_rows_stay_out_when_the_tail_words_wrap_the_counter(self, rng):
        """At 60,000-d the running counts are uint16: a dead row pinned to
        the sentinel at the first checkpoint wraps past 65,535 while the
        dense finish adds its tail words, unless it is pinned again."""
        dim, n = 60_000, 600
        packed = PackedBackend(dim)
        packed._TOPK_TILE, packed._TOPK_PROBE = 1024, 256
        packed._TOPK_GATHER_FRACTION = 0.0  # always the dense finish
        vectors = random_bipolar(n, dim, rng)  # every row ~dim/2 away ...
        qs = random_bipolar(2, dim, rng)
        vectors[[50, 51]] = qs  # ... but one live copy per query survives
        dead = np.asarray([4, 9], dtype=np.int64)  # 60,001 + ~30,000 wraps
        got_d, got_i = packed.hamming_topk(
            packed.from_bipolar(qs), packed.from_bipolar(vectors), 2,
            bounds=np.full(2, 100, dtype=np.int64), dead=dead)
        assert not np.isin(got_i, dead).any()
        assert got_i[:, 0].tolist() == [50, 51] and (got_d[:, 0] == 0).all()

    @pytest.mark.parametrize("bound", [None, 60, DIM])
    def test_dead_rows_on_probe_and_tile_edges(self, rng, bound):
        """Dead copies of the queries on the first and last row of the
        probe (rows 0..255, run only without bounds) and of every tile
        either way (1024-row tiles from the probe's end, or from row 0
        under bounds), over queries spanning several blocks."""
        edges = [0, 255, 256, 1023, 1024, 1279, 1280, 2047, 2048, 2303, 2304,
                 2999]
        vectors, qs, dead = self._case(rng, 3000, dead=edges,
                                       planted=edges + [1500, 2600], queries=9)
        bounds = None if bound is None else np.full(9, bound, dtype=np.int64)
        packed = self._packed()
        packed._TOPK_BLOCK_BYTES = 8 * 1024 * 4  # 4 queries per full tile
        for backend in (DenseBackend(self.DIM), packed):
            self._assert_agree(backend, vectors, qs, dead, 3, bounds)

    @pytest.mark.parametrize("bound", [None, 200])
    def test_dead_rows_above_the_uint16_range(self, rng, bound):
        """Above 65,534-d the sentinel ``dim + 1`` no longer fits a uint16
        count, so the running counts widen to uint32: dead rows pinned
        there stay out, and the live rows rank exactly."""
        dim, n = 70_000, 600
        packed = PackedBackend(dim)
        packed._TOPK_TILE, packed._TOPK_PROBE = 256, 128
        vectors = random_bipolar(n, dim, rng)
        qs = random_bipolar(3, dim, rng)
        vectors[[10, 11, 300, 301]] = qs[[0, 1, 0, 1]]  # exact copies ...
        vectors[[12, 302]] = qs[2]
        vectors[[12, 302], :100] *= -1  # ... and a tied pair of near ones
        dead = np.asarray([10, 11, 127, 128, 300, 599], dtype=np.int64)
        bounds = None if bound is None else np.full(3, bound, dtype=np.int64)
        for backend in (DenseBackend(dim), packed):
            self._assert_agree(backend, vectors, qs, dead, 3, bounds)

    @pytest.mark.parametrize("n, live, k", [(3000, 0, 4), (3000, 3, 5),
                                            (40, 0, 7), (40, 2, 40)])
    def test_k_at_or_above_the_live_rows(self, rng, n, live, k):
        vectors, qs, _ = self._case(rng, n, dead=(), planted=())
        dead = np.arange(live, n, dtype=np.int64)
        for backend in (DenseBackend(self.DIM), self._packed()):
            self._assert_agree(backend, vectors, qs, dead, k)
            got_d, got_i = backend.hamming_topk(
                backend.from_bipolar(qs), backend.from_bipolar(vectors), k,
                dead=dead)
            assert (got_i[:, live:] == -1).all()
            assert (got_d[:, live:] == self.DIM + 1).all()

    def test_empty_mask_is_the_unmasked_kernel(self, rng):
        vectors, qs, _ = self._case(rng, 3000, dead=(), planted=[7])
        packed = self._packed()
        store, native_qs = packed.from_bipolar(vectors), packed.from_bipolar(qs)
        plain = packed.hamming_topk(native_qs, store, 4)
        masked = packed.hamming_topk(native_qs, store, 4,
                                     dead=np.empty(0, dtype=np.int64))
        assert all(np.array_equal(a, b) for a, b in zip(plain, masked))
