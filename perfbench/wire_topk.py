"""Workload ``wire_topk``: HTTP top-k against a small class store.

The store (1,000 items × 1024-d, packed, one shard) is served by
``StoreHTTPServer`` over a default ``StoreServer`` (``max_batch=64``,
``max_wait_ms=2.0``) in its own process (``wire_server.py``). This
process is the load generator: two keep-alive ``JSONHTTPClient``
connections in a closed loop, each sending ``POST /v1/topk`` (k=5) with
noisy copies (1/8 of bits flipped) of stored items. With two
connections no wave fills, so each request waits out the deadline: the
time goes to HTTP framing, JSON for 1,024-element lists and the serving
deadline, and the kernel is a sliver.

With two or more CPUs the load generator is pinned to the first and the
server to the last: left to the scheduler, the two processes and the
server's dispatch thread migrate between two cores and throughput
swings by a third from run to run.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from harness import (OUT_DIR, OpLog, add_counters, counter_layers,
                     make_workdir, median, noisy_copies, now_ns, overhead_frac,
                     random_bipolar, seeded_rng, trace_windows)
from repro.hdc import ItemMemory
from repro.hdc.store import JSONHTTPClient, StoreHTTPError
from spans import SpanRecorder, row_key

ITEMS = 1000
DIM = 1024
K = 5
CONNECTIONS = 2
POOL = 4096
SETUPS = 3
#: requests per measurement window (about 2.5 s)
WINDOW_OPS = 1000
WARMUP_PER_CONNECTION = 16
SERVER = Path(__file__).resolve().parent / "wire_server.py"


def make_inputs(seed, items=ITEMS, queries=POOL):
    """Stored vectors and the pool of noisy queries sent in order."""
    vectors = random_bipolar(seeded_rng(seed, "wire-store"), (items, DIM))
    rng = seeded_rng(seed, "wire-queries")
    pool = noisy_copies(rng, vectors, rng.integers(0, items, size=queries))
    return vectors, pool


def expected_answers(vectors, pool):
    """The JSON body each query must get, from a reference ``ItemMemory``."""
    reference = ItemMemory(DIM, backend="dense")
    reference.add_many(list(range(len(vectors))), vectors)
    return [{"results": [{"label": label, "similarity": sim} for label, sim in row]}
            for row in reference.topk_batch(pool, k=K)]


def request_paths(requests, reads):
    """``(HTTP ns, blocking path ns)`` summed over the traced requests.

    Each ``http.client`` span is matched to the one server read
    (``[key, start, end, path]`` from the wire server) with its query row
    key that lies inside it; both processes stamp spans with the same
    monotonic clock. The request's HTTP time is its self time, the span
    less that read; its blocking path adds the read's path.
    """
    by_key = defaultdict(list)
    for key, start, end, path in reads:
        by_key[key].append((start, end, path))
    if len(requests) != len(reads):
        raise RuntimeError(f"{len(requests)} traced requests, {len(reads)} server reads")
    http_ns = path_ns = 0
    for span in requests:
        inside = [read for read in by_key[span.rid]
                  if span.start <= read[0] and read[1] <= span.end]
        if len(inside) != 1:
            raise RuntimeError(f"request {span.rid} matched {len(inside)} server reads")
        start, end, path = inside[0]
        http_ns += span.duration - (end - start)
        path_ns += span.duration - (end - start) + path
    return http_ns, path_ns


def _cpus():
    """``(load generator CPU, server CPU)``, or ``None`` on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[-1]) if len(cpus) > 1 else None


class Server:
    """One ``wire_server.py`` process, driven over its stdin and stdout."""

    def __init__(self, vectors_path, traceable):
        command = [sys.executable, str(SERVER), str(vectors_path)]
        if traceable:
            command.append("--traceable")
        cpus = _cpus()
        if cpus:
            command += ["--cpu", str(cpus[1])]
        with open(Path(vectors_path).with_name("server.log"), "a") as log:
            self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                            stdout=subprocess.PIPE, stderr=log,
                                            text=True)
        self.port = self.read()["port"]

    def read(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("wire server exited early")
        return json.loads(line)

    def command(self, text):
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()

    def stop(self):
        """Stop the server; returns its final line (``None`` if it died)."""
        final = None
        try:
            self.command("stop")
            self.process.stdin.close()
            final = self.read()
        except (OSError, RuntimeError, ValueError):
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        return final


async def _connect(port):
    return [await JSONHTTPClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]


async def _close(clients):
    for client in clients:
        await client.close()


async def _start(vectors_path, traceable, bodies):
    """One set-up: process start → first 200 → warm-up; returns seconds."""
    start = now_ns()
    server = Server(vectors_path, traceable)
    clients = await _connect(server.port)
    status, _ = await clients[0].request("GET", "/v1/healthz")
    if status != 200:
        raise RuntimeError(f"healthz answered {status}")

    async def warm(client):
        for index in range(WARMUP_PER_CONNECTION):
            await client.request("POST", "/v1/topk", bodies[index])

    await asyncio.gather(*(warm(client) for client in clients))
    return server, clients, (now_ns() - start) / 1e9


async def _drive(clients, bodies, expected, seconds, state, trace=None):
    """Closed loop over the connections for ``seconds``; returns the op log.

    ``trace``, when given, holds a recorder that gets one ``http.client``
    span per request, tagged with its query row key (``trace["keys"]``),
    and sums the request and response body bytes (request sizes come
    precomputed in ``trace["body_bytes"]``).
    """
    log = OpLog()
    log.begin()
    deadline = log.start_ns + int(seconds * 1e9)

    async def connection(client):
        while now_ns() < deadline:
            index = state["cursor"] % len(bodies)
            state["cursor"] += 1
            start = now_ns()
            try:
                if trace is None:
                    status, body = await client.request("POST", "/v1/topk", bodies[index])
                else:
                    with trace["recorder"].span("http.client", rid=trace["keys"][index]):
                        status, body = await client.request("POST", "/v1/topk",
                                                            bodies[index])
            except StoreHTTPError:
                state["errors"].append(traceback.format_exc())
                log.record(start, now_ns(), ok=False)
                continue
            log.record(start, now_ns(), ok=status == 200)
            if status == 200:
                state["mismatches"] += body != expected[index]
                if trace is not None:
                    trace["request"] += trace["body_bytes"][index]
                    trace["response"] += int(client.last_headers["content-length"])
            else:
                state["errors"].append(f"HTTP {status}: {body}")

    await asyncio.gather(*(connection(client) for client in clients))
    log.finish()
    return log


async def _stats(client):
    status, stats = await client.request("GET", "/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    return stats


def _non_2xx(stats):
    return sum(count for code, count in stats["http"]["responses_by_status"].items()
               if not code.startswith("2"))


async def _session(workdir, seed, seconds, trace, vectors, pool):
    vectors_path = workdir / "vectors.npy"
    np.save(vectors_path, vectors)
    bodies = [{"query": row.tolist(), "k": K} for row in pool]
    state = {"cursor": 0, "mismatches": 0, "errors": []}
    setup_times = []
    server = clients = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                await _close(clients)
                server.stop()
            server, clients, seconds_taken = await _start(vectors_path, trace, bodies)
            setup_times.append(seconds_taken)
        expected = expected_answers(vectors, pool)
        result = {"setup_times": setup_times, "state": state}
        if not trace:
            result["logs"] = [await _drive(clients, bodies, expected, seconds, state)]
        else:
            plain_logs, traced_logs, counters = [], [], {}
            trace_state = {
                "recorder": SpanRecorder(), "keys": [row_key(row).hex() for row in pool],
                "request": 0, "response": 0, "non_2xx": 0,
                "body_bytes": [len(json.dumps(body).encode()) for body in bodies]}
            for plain_s, traced_s in trace_windows(seconds):
                plain_logs.append(await _drive(clients, bodies, expected, plain_s, state))
                before = await _stats(clients[0])
                server.command("trace")
                server.read()
                traced_logs.append(
                    await _drive(clients, bodies, expected, traced_s, state, trace_state))
                server.command("untrace")
                server.read()
                after = await _stats(clients[0])
                add_counters(counters, before["server"], after["server"])
                trace_state["non_2xx"] += _non_2xx(after) - _non_2xx(before)
            result["logs"] = plain_logs + traced_logs
            result["traced"] = (plain_logs, traced_logs, counters, trace_state)
        await _close(clients)
        clients = None
        result["final"] = server.stop()
        server = None
        return result
    finally:
        if clients is not None:
            await _close(clients)
        if server is not None:
            server.stop()


def run(seed, seconds, trace):
    cpus = _cpus()
    if cpus:
        os.sched_setaffinity(0, {cpus[0]})
    vectors, pool = make_inputs(seed)
    workdir = make_workdir("wire_topk")
    session = asyncio.run(_session(workdir, seed, seconds, trace, vectors, pool))
    state, logs, final = session["state"], session["logs"], session["final"]
    if final is None:
        raise RuntimeError("wire server did not report its final state")
    metrics = {}
    if not trace:
        log = logs[0]
        metrics.update({
            "setup_s": median(session["setup_times"]),
            **log.windowed(WINDOW_OPS),
            "peak_rss_mb": final["peak_rss_mb"],
        })
    else:
        plain_logs, traced_logs, counters, trace_state = session["traced"]
        recorder = trace_state["recorder"]
        ops = sum(len(log.durations_ns) for log in traced_logs)
        op_ns = sum(sum(log.durations_ns) for log in traced_logs)
        http_ns, path_ns = request_paths(recorder.named("http.client"), final["reads"])
        metrics.update(final["layers"])
        metrics.update(counter_layers(counters))
        metrics.update({
            "http.overhead_ms_per_request": http_ns / ops / 1e6,
            "http.request_bytes": trace_state["request"] / ops,
            "http.response_bytes": trace_state["response"] / ops,
            "http.non_2xx": trace_state["non_2xx"],
            "trace.overhead_frac": overhead_frac(plain_logs, traced_logs),
            "trace.path_coverage_frac": path_ns / op_ns,
        })
        spans = workdir / "server-spans.json"
        if spans.exists():
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            shutil.move(spans, OUT_DIR / f"wire_topk-seed{seed}-server-spans.json")
    result = {
        "correct": state["mismatches"] == 0 and not state["errors"],
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "metrics": metrics,
        "record": {
            "whole_run": None if trace else logs[0].whole(),
            "succeeded": sum(len(log.durations_ns) for log in logs),
            "mismatches": state["mismatches"],
            "errors": state["errors"][:3],
            "setup_s_all": session["setup_times"],
            "server_stats": final["stats"],
        },
    }
    if trace:
        result["spans"] = recorder
    return result
