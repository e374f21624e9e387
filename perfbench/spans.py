"""The traced run's span recorder and the wrappers that feed it.

Spans are recorded from outside the program: the benchmark patches the
public methods of each layer for the duration of a traced phase, hands
``StoreServer`` a proxy store, and installs a counting ``StoreIO``.
Nothing under ``src/`` knows it is being traced.

A span is ``(sid, name, start, end, parent, rid)`` in ``perf_counter_ns``
units. The parent is the span open in the same task or thread when the
child began (a ``ContextVar``, so asyncio tasks and threads each keep
their own chain); the request id ties the spans of one op together. The
waves a ``StoreServer`` runs on its dispatch thread have no parent: the
requests they serve are listed in :attr:`ServingProbe.wave_requests`.

A traced run checks its wiring with :func:`check_coverage`: the self
times of the layer spans on an op's blocking path must account for the
op's time. The benchmark's own spans (``op``, ``serving.wave``) are left
out, so op time that no layer span covers lowers the figure.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import inspect
import itertools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from harness import median, now_ns
from repro.hdc.backend import PackedBackend
from repro.hdc.store import AssociativeStore, StoreIO, StoreServer
from repro.hdc.store.sharded import ShardedItemMemory


#: a traced run is refused when its layer spans account for less (or,
#: double-counted, more) of the op time than 1 ± this share
COVERAGE_TOLERANCE = 0.1


class BrokenWiring(RuntimeError):
    """The layer spans of a traced run do not account for its op time."""


def check_coverage(frac):
    """Refuse a ``trace.path_coverage_frac`` outside 1 ± ``COVERAGE_TOLERANCE``."""
    if not 1 - COVERAGE_TOLERANCE <= frac <= 1 + COVERAGE_TOLERANCE:
        raise BrokenWiring(
            f"the layer spans cover {frac:.3f} of the op time, outside "
            f"1 ± {COVERAGE_TOLERANCE:g}; the span wiring is broken")


class Span(NamedTuple):
    sid: int
    name: str
    start: int
    end: int
    parent: int | None
    rid: object = None

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name, rid=None):
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = now_ns()
        try:
            yield sid
        finally:
            end = now_ns()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, rid))

    def named(self, name):
        return [span for span in self.spans if span.name == name]

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump([list(span) for span in self.spans], handle)


def self_times(spans):
    """``{sid: self ns}``: each span's duration minus what its children cover.

    Children are clipped to the parent's interval and their union is
    taken, so overlapping children are not subtracted twice.
    """
    children = children_of(spans)
    out = {}
    for span in spans:
        covered, cursor = 0, span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.duration - covered
    return out


def children_of(spans):
    """``{sid: [child spans]}`` of a span list."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def subtree(span, children):
    """``span`` and all its descendants (``children`` from :func:`children_of`)."""
    out, stack = [], [span]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(children.get(span.sid, ()))
    return out


def layer_ns(root, children, selfs):
    """Self time of the spans below ``root``; ``root``'s own is left out."""
    return sum(selfs[span.sid] for span in subtree(root, children)) - selfs[root.sid]


def op_coverage(spans):
    """Share of the ``op`` spans' time the layer spans below them account for."""
    selfs = self_times(spans)
    children = children_of(spans)
    ops = [span for span in spans if span.name == "op"]
    return sum(layer_ns(op, children, selfs) for op in ops) / sum(op.duration for op in ops)


def overlap_ns(start, end, intervals):
    """Length of ``[start, end)`` covered by the (disjoint) ``intervals``."""
    return sum(max(0, min(end, hi) - max(start, lo)) for lo, hi in intervals)


class Patches:
    """Wraps class methods in spans; :meth:`restore` puts the originals back."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._undo = []

    def wrap(self, owner, attr, name):
        original = owner.__dict__[attr]
        recorder = self.recorder
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced(*args, **kwargs):
                with recorder.span(name):
                    return await original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with recorder.span(name):
                    return original(*args, **kwargs)
        self.replace(owner, attr, traced)

    def replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def row_key(row):
    """Identity of one query row, the same in every process and dtype."""
    data = np.ascontiguousarray(np.asarray(row), dtype=np.int8).tobytes()
    return hashlib.blake2b(data, digest_size=8).digest()


class ServingProbe:
    """Traces ``StoreServer`` reads, the waves serving them, and commits.

    :meth:`install` patches ``StoreServer.topk`` (one ``serving.topk``
    span per read, registered under its query row so a wave can name
    the reads it carries; :attr:`read_keys` keeps each read's row key),
    ``StoreServer.delete``/``upsert`` (the commit
    as the caller sees it) and the store layers below. The server must
    have been built over :meth:`proxy` of the store: the proxy records
    each wave (``serving.wave``) and each mutation
    (``serving.mutation``) on the dispatch thread, and the pruning
    counters each wave added.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.enabled = False
        self.pending = {}
        self.read_keys = {}
        self.wave_requests = {}
        self.pruning = defaultdict(int)
        self._rids = itertools.count(1)
        self._patches = Patches(recorder)

    def proxy(self, store):
        return _ProbedStore(store, self)

    def install(self):
        recorder, pending, rids = self.recorder, self.pending, self._rids
        read_keys = self.read_keys
        original_topk = StoreServer.__dict__["topk"]

        @functools.wraps(original_topk)
        async def topk(server, query, k=5, timeout_ms=None):
            rid = next(rids)
            key = row_key(query)
            pending[key] = rid
            read_keys[rid] = key.hex()
            try:
                with recorder.span("serving.topk", rid=rid):
                    return await original_topk(server, query, k=k,
                                               timeout_ms=timeout_ms)
            finally:
                pending.pop(key, None)

        patches = self._patches
        patches.replace(StoreServer, "topk", topk)
        patches.wrap(StoreServer, "delete", "serving.delete")
        patches.wrap(StoreServer, "upsert", "serving.upsert")
        patches.wrap(AssociativeStore, "topk_batch", "planner.topk_batch")
        patches.wrap(AssociativeStore, "delete", "persistence.delete")
        patches.wrap(AssociativeStore, "upsert", "persistence.upsert")
        patches.wrap(AssociativeStore, "compact", "persistence.compact")
        patches.wrap(ShardedItemMemory, "topk_batch", "sharded.topk_batch")
        patches.wrap(PackedBackend, "hamming_topk", "backend.hamming_topk")
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        self._patches.restore()


class _ProbedStore:
    """The store as ``StoreServer`` sees it in a traced run."""

    def __init__(self, store, probe):
        self._store = store
        self._probe = probe

    def __getattr__(self, attr):
        return getattr(self._store, attr)

    def topk_batch(self, queries, k=5):
        probe = self._probe
        if not probe.enabled:
            return self._store.topk_batch(queries, k=k)
        # the probe's own work is inside the wave span, as its self time
        with probe.recorder.span("serving.wave") as sid:
            probe.wave_requests[sid] = [probe.pending.get(row_key(row)) for row in queries]
            before = self._store.pruning_stats
            result = self._store.topk_batch(queries, k=k)
            after = self._store.pruning_stats
        if before is not None and after is not None:
            for key in ("batches", "tasks", "skipped", "bounded"):
                probe.pruning[key] += after[key] - before[key]
        return result

    def _mutation(self, method, *args):
        if not self._probe.enabled:
            return method(*args)
        with self._probe.recorder.span("serving.mutation"):
            return method(*args)

    def delete(self, labels):
        return self._mutation(self._store.delete, labels)

    def upsert(self, labels, vectors):
        return self._mutation(self._store.upsert, labels, vectors)


def read_paths(recorder, probe, selfs):
    """Blocking-path breakdown of every served read, one row per read.

    A read (``serving.topk``) is matched to the wave that carried it.
    Its row holds the queue wait (call → its wave's store call), the
    self times of the layer spans under the wave (the wave is shared, so
    each read it carries waits for all of them) and the demux tail (wave
    end → the read's return). ``path`` is their sum. The wave span's own
    self time is the benchmark's proxy at work (hashing query rows,
    reading pruning counters), so it is not on the path: ``path`` falls
    short of the read's duration by that and by any store work no layer
    span wraps.
    """
    by_id = {span.sid: span for span in recorder.spans}
    children = children_of(recorder.spans)
    wave_of = {rid: by_id[sid] for sid, rids in probe.wave_requests.items()
               for rid in rids if rid is not None}
    rows, wave_parts = [], {}
    for read in recorder.named("serving.topk"):
        wave = wave_of.get(read.rid)
        if wave is None:
            raise RuntimeError(f"read {read.rid} was not matched to a wave")
        if wave.sid not in wave_parts:
            wave_parts[wave.sid] = layer_ns(wave, children, selfs)
        row = {"read": read, "wave": wave, "queue_wait": wave.start - read.start,
               "wave_layers": wave_parts[wave.sid], "demux": read.end - wave.end}
        row["path"] = row["queue_wait"] + row["wave_layers"] + row["demux"]
        rows.append(row)
    return rows


def serving_layers(recorder, probe):
    """Per-layer numbers of served reads; also returns the read path rows."""
    selfs = self_times(recorder.spans)
    rows = read_paths(recorder, probe, selfs)
    queries = sum(len(rids) for rids in probe.wave_requests.values())
    mutations = [(s.start, s.end) for s in recorder.named("serving.mutation")]
    kernels = recorder.named("backend.hamming_topk")
    tasks = probe.pruning["tasks"]
    layers = {
        "serving.queue_wait_ms_p50": median([r["queue_wait"] for r in rows]) / 1e6,
        "serving.wave_ms_p50": median(
            [s.duration for s in recorder.named("serving.wave")]) / 1e6,
        "serving.parked_ms_per_read": sum(
            overlap_ns(r["read"].start, r["wave"].start, mutations)
            for r in rows) / len(rows) / 1e6,
        "planner.query_ms_per_query": sum(
            s.duration for s in recorder.named("planner.topk_batch")) / queries / 1e6,
        "backend.hamming_topk_calls_per_query": len(kernels) / queries,
        "backend.hamming_topk_ms_per_call": (
            sum(s.duration for s in kernels) / len(kernels) / 1e6 if kernels else 0.0),
        "sharded.shard_tasks_per_query": tasks / queries,
        "sharded.skip_rate": probe.pruning["skipped"] / tasks if tasks else 0.0,
        "sharded.bounded_rate": probe.pruning["bounded"] / tasks if tasks else 0.0,
    }
    return layers, rows


class TracingIO(StoreIO):
    """The persistence ``StoreIO`` seam, counting operations and bytes.

    Each fsync is also a ``persistence.fsync`` span, so it shows as a
    child of the commit or compaction that issued it.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.counts = defaultdict(int)

    def _observe(self, op, path, payload=None):
        self.counts[op] += 1
        if payload is not None:
            self.counts["bytes"] += len(payload)

    def save_array(self, path, array):
        super().save_array(path, array)
        self.counts["bytes"] += os.path.getsize(path)

    def fsync(self, path):
        with self.recorder.span("persistence.fsync"):
            super().fsync(path)
