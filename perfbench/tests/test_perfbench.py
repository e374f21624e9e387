"""Tests of the benchmark's own helpers: percentiles, spans, seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import churn_serve  # noqa: E402
import classify_fig3  # noqa: E402
import wire_topk  # noqa: E402
from harness import InsufficientSamples, OpLog, percentile  # noqa: E402
from repro.hdc.store import AssociativeStore  # noqa: E402
from spans import (BrokenWiring, Span, SpanRecorder, check_coverage,  # noqa: E402
                   children_of, op_coverage, read_paths, row_key, self_times,
                   subtree)
from wire_topk import request_paths  # noqa: E402


class TestPercentile:
    def test_p90_needs_100_samples(self):
        with pytest.raises(InsufficientSamples):
            percentile(list(range(99)), 90)
        assert percentile(list(range(100)), 90) == pytest.approx(89.1)

    def test_p99_needs_1000_samples(self):
        with pytest.raises(InsufficientSamples):
            percentile(list(range(999)), 99)
        percentile(list(range(1000)), 99)

    def test_median_of_few_samples(self):
        assert percentile([3.0], 50) == 3.0
        assert percentile([4, 1, 3, 2], 50) == 2.5
        with pytest.raises(InsufficientSamples):
            percentile([], 50)

    def test_matches_linear_interpolation(self):
        values = list(np.random.default_rng(0).random(250))
        for q in (10, 50, 90):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))


class TestWindowedLog:
    def test_medians_over_windows(self):
        log = OpLog()
        log.start_ns = 0
        # three windows of 100 ops; the middle one runs at half speed
        # and 3x latency, and the median ignores it
        end = 0
        for gap, latency in [(10, 1_000_000), (20, 3_000_000), (10, 1_000_000)]:
            for _ in range(100):
                end += gap
                log.record(end - latency, end)
        log.record(end, end + 5)  # a trailing partial window is dropped
        got = log.windowed(100)
        assert got["ops_per_s"] == pytest.approx(100 / (1000 / 1e9))
        assert got["op_ms_p50"] == pytest.approx(1.0)
        assert got["op_ms_p90"] == pytest.approx(1.0)

    def test_needs_one_full_window(self):
        log = OpLog()
        log.start_ns = 0
        for index in range(99):
            log.record(index, index + 1)
        with pytest.raises(InsufficientSamples):
            log.windowed(100)


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            Span(1, "root", 0, 100, None),
            Span(2, "a", 10, 40, 1),
            Span(3, "b", 30, 60, 1),  # overlaps a: the union 10..60 is covered
            Span(4, "a.child", 15, 20, 2),
            Span(5, "late", 90, 120, 1),  # runs past its parent: clipped at 100
        ]
        selfs = self_times(spans)
        assert selfs == {1: 100 - 50 - 10, 2: 25, 3: 30, 4: 5, 5: 30}
        # the tree's self times sum past the root's 100 by the overlap of
        # a and b (10) and the part of "late" beyond the root (20)
        children = children_of(spans)
        assert sum(selfs[s.sid] for s in subtree(spans[0], children)) == 130

    def test_recorder_links_parents(self):
        recorder = SpanRecorder()
        with recorder.span("outer", rid=7) as outer:
            with recorder.span("inner") as inner:
                pass
        spans = {s.sid: s for s in recorder.spans}
        assert spans[inner].parent == outer and spans[outer].parent is None
        assert spans[outer].rid == 7
        selfs = self_times(recorder.spans)
        assert selfs[outer] == spans[outer].duration - spans[inner].duration

    def test_row_key_ignores_dtype(self):
        row = np.array([1, -1, -1, 1] * 8)
        assert row_key(row.astype(np.int8)) == row_key(row.astype(np.int64))
        assert row_key(row) != row_key(-row)


class _Probe:
    """The part of a ``ServingProbe`` that :func:`read_paths` reads."""

    def __init__(self, wave_requests):
        self.wave_requests = wave_requests


def _recorder(spans):
    recorder = SpanRecorder()
    recorder.spans = spans
    return recorder


class TestCoverageGate:
    def test_gate_bounds(self):
        for frac in (0.9, 0.97, 1.0, 1.1):
            check_coverage(frac)
        for frac in (0.89, 1.11, 0.0):
            with pytest.raises(BrokenWiring):
                check_coverage(frac)

    def test_unwrapped_gap_in_an_op_fails_the_gate(self):
        # layer spans cover 0..60 and 70..95 of the op: 0.85 of it
        spans = [Span(1, "op", 0, 100, None),
                 Span(2, "zsl.binary_embeddings", 0, 60, 1),
                 Span(3, "models.forward", 5, 55, 2),
                 Span(4, "planner.cleanup_batch", 70, 95, 1)]
        assert op_coverage(spans) == pytest.approx(0.85)
        with pytest.raises(BrokenWiring):
            check_coverage(op_coverage(spans))
        # wrapping the gap as a layer span brings the op back to 0.95
        spans.append(Span(5, "zsl.gap", 60, 70, 1))
        check_coverage(op_coverage(spans))
        assert op_coverage(spans) == pytest.approx(0.95)

    def test_unwrapped_store_work_in_a_wave_fails_the_gate(self):
        # a read waits 0..20, rides the wave 20..90 and returns at 100;
        # only 20..40 of the wave is inside a layer span
        spans = [Span(1, "op", 0, 100, None),
                 Span(2, "serving.topk", 0, 100, 1, rid=7),
                 Span(3, "serving.wave", 20, 90, None),
                 Span(4, "planner.topk_batch", 20, 40, 3)]
        probe = _Probe({3: [7, None]})
        [row] = read_paths(_recorder(spans), probe, self_times(spans))
        assert (row["queue_wait"], row["wave_layers"], row["demux"]) == (20, 20, 10)
        with pytest.raises(BrokenWiring):
            check_coverage(row["path"] / 100)
        # the same wave with its store call wrapped end to end passes
        spans[3] = Span(4, "planner.topk_batch", 21, 89, 3)
        [row] = read_paths(_recorder(spans), probe, self_times(spans))
        check_coverage(row["path"] / 100)

    def test_wire_requests_match_their_server_reads(self):
        requests = [Span(1, "http.client", 0, 100, None, rid="aa"),
                    Span(2, "http.client", 100, 200, None, rid="aa")]
        reads = [["aa", 130, 180, 40], ["aa", 30, 80, 45]]
        # per request: HTTP self time (span less its read) + the read's path
        assert request_paths(requests, reads) == (100, 100 + 85)
        with pytest.raises(RuntimeError):
            request_paths(requests, [["aa", 30, 80, 45], ["bb", 130, 180, 40]])


class TestSeedDeterminism:
    def test_wire_inputs(self):
        first = wire_topk.make_inputs(3, items=40, queries=16)
        again = wire_topk.make_inputs(3, items=40, queries=16)
        other = wire_topk.make_inputs(4, items=40, queries=16)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(first[1], other[1])

    def test_churn_inputs_and_commit_schedule(self):
        vectors, pool = churn_serve.make_inputs(3, items=60, queries=16)
        again, pool_again = churn_serve.make_inputs(3, items=60, queries=16)
        np.testing.assert_array_equal(vectors, again)
        np.testing.assert_array_equal(pool, pool_again)
        assert not np.array_equal(pool, churn_serve.make_inputs(4, items=60, queries=16)[1])

        def commits(seed):
            schedule = churn_serve.CommitSchedule(seed, vectors, rows=8)
            out = []
            for _ in range(6):
                kind, labels, rows = schedule.next()
                out.append((kind, labels, None if rows is None else rows.tolist()))
            return out

        assert commits(3) == commits(3)
        assert commits(3) != commits(4)
        assert [kind for kind, _, _ in commits(3)] == ["delete", "upsert"] * 3

    def test_classify_stream(self):
        first = classify_fig3.make_inputs(3)
        again = classify_fig3.make_inputs(3)
        other = classify_fig3.make_inputs(4)
        np.testing.assert_array_equal(first["images"], again["images"])
        np.testing.assert_array_equal(first["order"], again["order"])
        assert len(first["images"]) == 50
        assert not np.array_equal(first["order"], other["order"])


def test_commit_schedule_tracks_the_store():
    """The tracked live rows are what the store holds, in its own order."""
    vectors, _ = churn_serve.make_inputs(5, items=200, queries=1)
    store = AssociativeStore.from_vectors(list(range(200)), vectors,
                                          backend="packed", shards=2)
    schedule = churn_serve.CommitSchedule(5, vectors, rows=8)
    for _ in range(7):
        kind, labels, rows = schedule.next()
        if kind == "delete":
            store.delete(labels)
        else:
            store.upsert(labels, rows)
    labels, live = schedule.live()
    assert list(store.labels) == labels
    for label, vector in zip(labels[-8:], live[-8:]):
        assert store.topk(vector, k=1)[0] == (label, 1.0)
