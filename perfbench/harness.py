"""Shared plumbing of the benchmark: seeds, op timing, percentiles, records.

Every workload module builds its inputs through :func:`seeded_rng`, times
its ops into an :class:`OpLog`, and hands :func:`emit` its metrics; this
module owns the rules those steps share (the percentile refusal, the
result line a benchmark runner reads, the environment stamp on every
record).
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

#: the checkout root: ``perfbench/`` lives directly under it
ROOT = Path(__file__).resolve().parent.parent
#: scratch space of one run (stores, server inputs); removed at exit
WORK_ROOT = ROOT / ".perfbench" / "work"
#: span dumps and full result records; kept after the run
OUT_DIR = ROOT / ".perfbench" / "out"

now_ns = time.perf_counter_ns

#: a traced run alternates this many (untraced, traced) windows, so the
#: slow drift of a live store (journal growth, compaction) hits both sides
TRACE_ROUNDS = 4
#: ``StoreServer.stats`` counters summed over a run's traced windows
SERVING_COUNTERS = ("waves", "batched_requests", "flushed_size", "rejected",
                    "timed_out", "cancelled")


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(values, q):
    """The ``q``-th percentile of ``values`` (linear interpolation).

    A tail percentile is refused unless at least ten samples lie beyond
    it: a p90 needs 100 samples, a p99 1,000. The median needs one.
    """
    n = len(values)
    if n == 0:
        raise InsufficientSamples(f"p{q:g} of no samples")
    if q > 50 and n * (100 - q) < 1000:
        raise InsufficientSamples(
            f"p{q:g} needs {int(np.ceil(1000 / (100 - q)))} samples, got {n}")
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


def seeded_rng(seed, *keys):
    """A generator determined by ``seed`` and the stream names ``keys``."""
    entropy = [int(seed)] + [zlib.crc32(str(key).encode()) for key in keys]
    return np.random.default_rng(entropy)


def random_bipolar(rng, shape):
    """Uniform ``{-1, +1}`` int8 hypervectors."""
    return rng.integers(0, 2, size=shape, dtype=np.int8) * 2 - 1


def noisy_copies(rng, vectors, sources):
    """Copies of ``vectors[sources]`` with 1/8 of their bits flipped."""
    dim = vectors.shape[1]
    out = vectors[sources].copy()
    for row in out:
        row[rng.choice(dim, dim // 8, replace=False)] *= -1
    return out


class OpLog:
    """Latencies and failures of one timed phase of a closed loop."""

    def __init__(self):
        self.durations_ns = []
        self.ends_ns = []
        self.attempted = 0
        self.failed = 0
        self.start_ns = None
        self.end_ns = None

    def begin(self):
        self.start_ns = now_ns()

    def finish(self):
        self.end_ns = now_ns()

    def record(self, start_ns, end_ns, ok=True):
        self.attempted += 1
        if ok:
            self.durations_ns.append(end_ns - start_ns)
            self.ends_ns.append(end_ns)
        else:
            self.failed += 1

    @property
    def wall_s(self):
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def ops_per_s(self):
        return len(self.durations_ns) / self.wall_s

    def latency_ms(self, q):
        return percentile(self.durations_ns, q) / 1e6

    def whole(self):
        """Rate and latency percentiles over the whole phase."""
        return {"ops_per_s": self.ops_per_s, "op_ms_p50": self.latency_ms(50),
                "op_ms_p90": self.latency_ms(90)}

    def windowed(self, window_ops):
        """Medians over windows of ``window_ops`` consecutive completions.

        Each window's rate is its op count over the time since the
        previous window ended, its percentiles those of its ops'
        latencies; the trailing partial window is dropped. A few seconds
        of host slowdown then move one window, not the figure. The
        windows' own rates come back as ``window_ops_per_s``.
        """
        order = sorted(range(len(self.ends_ns)), key=self.ends_ns.__getitem__)
        windows = len(order) // window_ops
        if windows == 0:
            raise InsufficientSamples(
                f"a {window_ops}-op window needs {window_ops} ops, got {len(order)}")
        rates, p50s, p90s = [], [], []
        previous_end = self.start_ns
        for index in range(windows):
            chunk = order[index * window_ops:(index + 1) * window_ops]
            end = self.ends_ns[chunk[-1]]
            rates.append(window_ops / ((end - previous_end) / 1e9))
            previous_end = end
            durations = [self.durations_ns[i] for i in chunk]
            p50s.append(percentile(durations, 50) / 1e6)
            p90s.append(percentile(durations, 90) / 1e6)
        return {"ops_per_s": median(rates), "op_ms_p50": median(p50s),
                "op_ms_p90": median(p90s), "window_ops_per_s": rates}


def trace_windows(seconds):
    """``(untraced, traced)`` window lengths of a traced run, in order.

    They add up to ``seconds``: each round gives a third of its time to
    the untraced window and two thirds to the traced one.
    """
    window = seconds / TRACE_ROUNDS
    return [(window / 3, 2 * window / 3)] * TRACE_ROUNDS


def overhead_frac(plain_logs, traced_logs):
    """Share of untraced throughput lost in the traced windows."""
    def rate(logs):
        return sum(len(log.durations_ns) for log in logs) / sum(log.wall_s for log in logs)
    return 1.0 - rate(traced_logs) / rate(plain_logs)


def add_counters(totals, before, after):
    """Add the ``StoreServer.stats`` counter deltas of one window to ``totals``."""
    for key in SERVING_COUNTERS:
        totals[key] = totals.get(key, 0) + after[key] - before[key]


def counter_layers(totals):
    """Per-layer serving metrics from summed ``StoreServer.stats`` counters."""
    return {
        "serving.mean_batch_size": totals["batched_requests"] / totals["waves"],
        "serving.size_flush_frac": totals["flushed_size"] / totals["waves"],
        "serving.failed_ops": totals["rejected"] + totals["timed_out"] + totals["cancelled"],
    }


def peak_rss_mb():
    """Peak resident set size of this process (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(count, build, teardown=None):
    """Run ``build`` ``count`` times; returns ``(last result, seconds list)``.

    ``build`` returns ``(result, seconds)``; every result but the last is
    passed to ``teardown`` (and dropped) before the next set-up starts,
    so repeated set-ups do not stack their memory.
    """
    times, result = [], None
    for index in range(count):
        if result is not None and teardown is not None:
            teardown(result)
        result = None
        result, seconds = build(index)
        times.append(seconds)
    return result, times


def workdir(workload):
    """This process's scratch directory for ``workload`` under ``WORK_ROOT``."""
    return WORK_ROOT / f"{workload}-{os.getpid()}"


def make_workdir(workload):
    path = workdir(workload)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path):
    return sum(entry.stat().st_size for entry in Path(path).iterdir() if entry.is_file())


# -- environment stamp ------------------------------------------------------- #

def _openblas():
    """``(version string, threads in effect)`` of NumPy's OpenBLAS, if found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is None or threads is None:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode(), int(threads())
    return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed):
    """Machine, toolchain and checkout facts stamped on every record.

    Stores live under the checkout (``.perfbench/work``), so the
    checkout's filesystem is the store directory's.
    """
    blas_config, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "seed": seed,
        "store_filesystem": _filesystem(ROOT),
    }


# -- result output ----------------------------------------------------------- #

def declared_metrics(trace):
    """``{name: unit}`` of the metrics a run at ``trace`` level must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(workload, seed, trace, correct, attempted, failed, metrics,
         record=None):
    """Print the full record line, then the result line a runner reads.

    ``metrics`` must name every metric ``BENCHMARK.json`` declares for
    this trace level; a missing name fails loudly. Figures it does not
    declare (the p90 latency, see DESIGN.md) go to the record only.
    Per-layer metrics of a layer the workload does not touch are 0.
    """
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics missing from the run: {missing}")
    other = {name: value for name, value in metrics.items() if name not in units}
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    full = {"workload": workload, "trace": int(trace), **result,
            "other_metrics": other, **(record or {})}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print("record " + json.dumps(full, sort_keys=True))
    sys.stdout.flush()
    print(json.dumps(result))
