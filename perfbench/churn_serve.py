"""Workload ``churn_serve``: a live store under reads and writes.

A 100k × 1024-d packed store in 8 hash shards is ingested, saved under
the checkout (the code's own fsync policy) and reopened with
``auto_compact_segments=64``. In one process, 64 reader coroutines call
``StoreServer.topk(k=5)`` with noisy copies of stored items, so waves
fill to ``max_batch``, and one writer coroutine commits after every 64
completed reads, alternating a ``delete`` of 64 live labels with an
``upsert`` of 64 rows (32 replace live labels, 32 are new). Kernels and
planner dominate the reads; commits take O(store) time and block reads
through the mutation barrier; auto-compaction runs during the run.
"""

from __future__ import annotations

import asyncio
import shutil
import traceback

import numpy as np

from harness import (InsufficientSamples, OpLog, add_counters, counter_layers,
                     dir_bytes, make_workdir, median, noisy_copies, now_ns,
                     overhead_frac, peak_rss_mb, percentile, random_bipolar,
                     repeat_setup, seeded_rng, trace_windows)
from repro.hdc import ItemMemory
from repro.hdc.store import AssociativeStore, StoreServer, install_io
from spans import (ServingProbe, SpanRecorder, TracingIO, self_times,
                   serving_layers)

ITEMS = 100_000
DIM = 1024
SHARDS = 8
READERS = 64
READS_PER_COMMIT = 64
COMMIT_ROWS = 64
AUTO_COMPACT_SEGMENTS = 64
POOL = 4096
SETUPS = 3
#: reads per measurement window: 18 commits, one auto-compaction cycle
#: (each upsert journals a segment per shard; the 9th upsert passes 64)
WINDOW_OPS = 18 * READS_PER_COMMIT
CHECK_QUERIES = 64


def make_inputs(seed, items=ITEMS, queries=POOL):
    """Stored vectors and the pool of noisy queries the readers cycle."""
    vectors = random_bipolar(seeded_rng(seed, "churn-store"), (items, DIM))
    rng = seeded_rng(seed, "churn-queries")
    pool = noisy_copies(rng, vectors, rng.integers(0, items, size=queries))
    return vectors, pool


class CommitSchedule:
    """The seeded commit stream, tracking the live rows it leaves behind.

    Commit ``i`` is a delete of ``rows`` live labels when ``i`` is even
    and an upsert of ``rows`` rows when odd (half replace live labels,
    half are new). :meth:`live` lists the surviving labels in insertion
    order (a replaced label moves to the end) with their vectors.
    """

    def __init__(self, seed, vectors, rows=COMMIT_ROWS):
        self.rng = seeded_rng(seed, "churn-commits")
        self.base = vectors
        self.rows = rows
        self.index = 0
        self.order = dict.fromkeys(range(len(vectors)))
        self.pool = list(range(len(vectors)))
        self.slot = {label: i for i, label in enumerate(self.pool)}
        self.replaced = {}
        self.next_label = len(vectors)

    def _sample(self, count):
        picks = self.rng.choice(len(self.pool), count, replace=False)
        return [self.pool[i] for i in picks]

    def _forget(self, label):
        slot, last = self.slot.pop(label), self.pool.pop()
        if last != label:
            self.pool[slot] = last
            self.slot[last] = slot

    def next(self):
        """``(kind, labels, vectors)`` of the next commit, applied to the tracking."""
        kind = "delete" if self.index % 2 == 0 else "upsert"
        self.index += 1
        if kind == "delete":
            labels = self._sample(self.rows)
            for label in labels:
                self._forget(label)
                del self.order[label]
                self.replaced.pop(label, None)
            return kind, labels, None
        half = self.rows // 2
        labels = self._sample(half) + list(range(self.next_label,
                                                 self.next_label + self.rows - half))
        self.next_label += self.rows - half
        vectors = random_bipolar(self.rng, (self.rows, self.base.shape[1]))
        for label, vector in zip(labels, vectors):
            if label in self.order:
                del self.order[label]
            else:
                self.slot[label] = len(self.pool)
                self.pool.append(label)
            self.order[label] = None
            self.replaced[label] = vector
        return kind, labels, vectors

    def live(self):
        labels = list(self.order)
        vectors = np.stack([self.replaced[label] if label in self.replaced
                            else self.base[label] for label in labels])
        return labels, vectors


def _build(workdir, index, vectors, pool, phases):
    """One set-up: ingest, save, reopen with auto-compaction, warm up."""
    path = workdir / f"store{index}"
    start = now_ns()
    store = AssociativeStore.from_vectors(list(range(len(vectors))), vectors,
                                          backend="packed", shards=SHARDS)
    ingested = now_ns()
    store.save(path)
    saved = now_ns()
    store = AssociativeStore.open(path, auto_compact_segments=AUTO_COMPACT_SEGMENTS)
    opened = now_ns()
    for _ in range(2):
        store.topk_batch(pool[:READERS], k=5)
    done = now_ns()
    phases.append({"ingest_s": (ingested - start) / 1e9, "save_s": (saved - ingested) / 1e9,
                   "open_s": (opened - saved) / 1e9})
    return (store, path), (done - start) / 1e9


async def _drive(server, pool, schedule, seconds, state, recorder=None):
    """64 readers + one writer for ``seconds``; returns (read log, commit log)."""
    reads, commits = OpLog(), OpLog()
    reads.begin()
    deadline = reads.start_ns + int(seconds * 1e9)
    done = {"reads": 0, "stop": False}
    due = asyncio.Event()

    async def reader():
        while not done["stop"]:
            query = pool[state["cursor"] % len(pool)]
            state["cursor"] += 1
            start = now_ns()
            try:
                if recorder is None:
                    await server.topk(query, k=5)
                else:
                    with recorder.span("op"):
                        await server.topk(query, k=5)
            except Exception:
                state["errors"].append(traceback.format_exc())
                reads.record(start, now_ns(), ok=False)
                continue
            end = now_ns()
            reads.record(start, end)
            done["reads"] += 1
            if done["reads"] >= READS_PER_COMMIT * (commits.attempted + 1):
                due.set()
            if end >= deadline:
                done["stop"] = True

    async def writer():
        while True:
            await due.wait()
            due.clear()
            if done["stop"]:
                return
            kind, labels, vectors = schedule.next()
            start = now_ns()
            try:
                if kind == "delete":
                    await server.delete(labels)
                else:
                    await server.upsert(labels, vectors)
            except Exception:
                state["commit_errors"].append(traceback.format_exc())
                commits.record(start, now_ns(), ok=False)
                continue
            commits.record(start, now_ns())
            if done["reads"] >= READS_PER_COMMIT * (commits.attempted + 1):
                due.set()

    writer_task = asyncio.create_task(writer())
    await asyncio.gather(*(reader() for _ in range(READERS)))
    reads.finish()
    due.set()
    await writer_task
    return reads, commits


def _check(path, schedule, pool):
    """A fresh handle holds exactly the tracked live rows and ranks like a rebuild."""
    store = AssociativeStore.open(path)
    labels, vectors = schedule.live()
    if sorted(store.labels) != sorted(labels):
        return "live label set differs from the tracked one"
    reference = ItemMemory(DIM, backend="packed")
    reference.add_many(labels, vectors)
    sample = pool[:CHECK_QUERIES]
    if store.topk_batch(sample, k=5) != reference.topk_batch(sample, k=5):
        return "topk differs from a freshly built ItemMemory"
    return None


def _tail(values_ns, q):
    try:
        return percentile(values_ns, q) / 1e6
    except InsufficientSamples:
        return None


def _commit_layers(recorder, io, commits):
    """Per-layer numbers of the commits made in the traced windows."""
    selfs = self_times(recorder.spans)
    calls = sorted(recorder.named("serving.delete") + recorder.named("serving.upsert"),
                   key=lambda s: s.start)
    mutations = sorted(recorder.named("serving.mutation"), key=lambda s: s.start)
    compactions = recorder.named("persistence.compact")
    fsync_ns = sum(s.duration for s in recorder.named("persistence.fsync"))

    def own_p50(name):
        spans = recorder.named(name)
        return median([selfs[s.sid] for s in spans]) / 1e6 if spans else 0.0

    return {
        "serving.commit_ms_p50": median([s.duration for s in calls]) / 1e6,
        "serving.barrier_wait_ms_p50": median(
            [m.start - c.start for c, m in zip(calls, mutations)]) / 1e6,
        "persistence.delete_ms_p50": own_p50("persistence.delete"),
        "persistence.upsert_ms_p50": own_p50("persistence.upsert"),
        "persistence.compact_ms_p50": (
            median([s.duration for s in compactions]) / 1e6 if compactions else 0.0),
        "persistence.compactions": len(compactions),
        "persistence.writes_per_commit": io.counts["write"] / commits,
        "persistence.fsyncs_per_commit": io.counts["fsync"] / commits,
        "persistence.bytes_written_per_commit": io.counts["bytes"] / commits,
        "persistence.fsync_ms_per_commit": fsync_ns / commits / 1e6,
    }


async def _session(store, pool, schedule, seconds, trace, state):
    recorder = SpanRecorder()
    probe = ServingProbe(recorder)
    io = TracingIO(recorder)
    plain_logs, traced_logs, counters = [], [], {}
    async with StoreServer(probe.proxy(store) if trace else store) as server:
        if not trace:
            return {"logs": [await _drive(server, pool, schedule, seconds, state)]}
        for plain_s, traced_s in trace_windows(seconds):
            plain_logs.append(await _drive(server, pool, schedule, plain_s, state))
            before = server.stats
            previous = install_io(io)
            probe.install()
            try:
                traced_logs.append(
                    await _drive(server, pool, schedule, traced_s, state, recorder))
            finally:
                probe.uninstall()
                install_io(previous)
            add_counters(counters, before, server.stats)
    commits = sum(len(commit_log.durations_ns) for _, commit_log in traced_logs)
    layers, rows = serving_layers(recorder, probe)
    path_ns = sum(row["path"] for row in rows)
    op_ns = sum(s.duration for s in recorder.named("op"))
    layers.update(_commit_layers(recorder, io, max(commits, 1)))
    layers.update(counter_layers(counters))
    layers.update({
        "trace.overhead_frac": overhead_frac([r for r, _ in plain_logs],
                                             [r for r, _ in traced_logs]),
        "trace.path_coverage_frac": path_ns / op_ns,
    })
    return {"logs": plain_logs + traced_logs, "layers": layers, "recorder": recorder}


def run(seed, seconds, trace):
    vectors, pool = make_inputs(seed)
    workdir = make_workdir("churn_serve")
    phases = []
    (store, path), setup_times = repeat_setup(
        SETUPS, lambda index: _build(workdir, index, vectors, pool, phases),
        teardown=lambda built: shutil.rmtree(built[1]))
    schedule = CommitSchedule(seed, vectors)
    state = {"cursor": 0, "errors": [], "commit_errors": []}
    session = asyncio.run(_session(store, pool, schedule, seconds, trace, state))
    rss = peak_rss_mb()
    live_items = len(store)
    disk_bytes = dir_bytes(path)
    problem = _check(path, schedule, pool)
    read_logs = [reads for reads, _ in session["logs"]]
    commit_logs = [commits for _, commits in session["logs"]]
    commit_ns = [d for log in commit_logs for d in log.durations_ns]
    metrics = {}
    if not trace:
        reads = read_logs[0]
        metrics.update({
            "setup_s": median(setup_times),
            **reads.windowed(WINDOW_OPS),
            "peak_rss_mb": rss,
        })
    else:
        metrics.update(session["layers"])
        metrics.update({
            "sharded.ingest_rows_per_s": len(vectors) / median([p["ingest_s"] for p in phases]),
            "persistence.save_s": median([p["save_s"] for p in phases]),
            "persistence.open_s": median([p["open_s"] for p in phases]),
            "persistence.disk_bytes_per_item": disk_bytes / live_items,
        })
    result = {
        "correct": problem is None and not state["errors"] and not state["commit_errors"],
        "attempted": sum(log.attempted for log in read_logs),
        "failed": sum(log.failed for log in read_logs),
        "metrics": metrics,
        "record": {
            "whole_run": None if trace else read_logs[0].whole(),
            "succeeded": sum(len(log.durations_ns) for log in read_logs),
            "check": problem or "ok",
            "errors": (state["errors"] + state["commit_errors"])[:3],
            "setup_s_all": setup_times,
            "setup_phases": phases,
            "commits": len(commit_ns),
            "commit_ms_p50": _tail(commit_ns, 50),
            "commit_ms_p90": _tail(commit_ns, 90),
            "disk_bytes_per_item": disk_bytes / live_items,
            "live_items": live_items,
        },
    }
    if trace:
        result["spans"] = session["recorder"]
    return result
