"""Crash-consistency fuzzer: the STORE_FORMAT.md guarantees, executed.

``docs/STORE_FORMAT.md`` makes two promises this module turns from
prose into executed cases:

1. **Commit atomicity** — the manifest swap is the one commit point;
   a writer killed at *any* syscall leaves a directory that reopens
   bit-identical to either the pre-commit or the post-commit state (or,
   before the very first manifest exists, refuses with a documented
   error), and a retried writer converges to the intended final state.
2. **Fail, never mis-answer** — every row of the corruption-detection
   table raises the documented error type, naming the offending file
   and generation; a non-JSON label is refused at save time and the
   malformed-bounds exception is tolerated without skipping.

The fuzzer drives deterministic ``save → {append | delete | upsert |
compact}×N`` schedules (:func:`make_schedule`, seed-derived; mutation
ops are weighted into the grammar, and
:func:`make_mutation_schedule` guarantees a delete- and upsert-bearing
schedule for the exhaustive sweep) through the injectable I/O seam
(:mod:`.faults`):

- a fault-free run under :class:`~.faults.CountingIO` enumerates every
  reachable injection point and records a per-step state
  :func:`fingerprint` (labels + native row bytes + top-k answers);
- for each injection point, a fresh **writer child**
  (``python -m repro.hdc.store.crash_fuzz --writer``) replays the
  schedule with a :class:`~.faults.FaultPlan` aimed at that operation
  and is hard-killed there (``mode="fail"`` runs in-process — same
  verification, no subprocess);
- the surviving directory must fingerprint-match a legal adjacent state
  or raise a documented error, and a fault-free replay of the remaining
  steps must converge to the reference final state.

Run ``python -m repro.hdc.store.crash_fuzz --help`` for the CLI; the CI
step bounds the randomized legs via ``CRASH_FUZZ_SCHEDULES`` /
``CRASH_FUZZ_EXECUTOR`` and picks fault modes via ``CRASH_FUZZ_MODES``. The corruption table's rows are exercised by
:data:`CORRUPTION_CASES` (the ``CF-xx`` ids cited by STORE_FORMAT.md's
"verified by" column), and the summary printed by :func:`main` counts
every table row exercised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..hypervector import random_bipolar
from .faults import (
    KILL_EXIT_CODE,
    CountingIO,
    FaultInjected,
    FaultPlan,
    FaultingIO,
    injected_faults,
    install_io,
)
from .persistence import MANIFEST_NAME, read_manifest
from .planner import AssociativeStore
from .routing import ROUTINGS

__all__ = [
    "FuzzFailure",
    "make_schedule",
    "make_mutation_schedule",
    "run_schedule",
    "fingerprint",
    "build_reference",
    "fuzz_injection_point",
    "fuzz_schedule",
    "CORRUPTION_CASES",
    "run_corruption_cases",
    "main",
]


class FuzzFailure(AssertionError):
    """A crash-consistency guarantee did not hold; the message says which."""


# -- schedules ---------------------------------------------------------------- #


def make_schedule(seed):
    """A deterministic ``save → {append|delete|upsert|compact}×N`` schedule.

    Everything — layout, backend, step count, batch sizes, mutation
    targets, and (via :func:`schedule_batch`) the row contents —
    derives from ``seed``, so a writer child handed the schedule JSON
    replays bit-identical writes. Mutation steps carry their label
    lists explicitly: the generator tracks the live-label set, so a
    ``delete`` only ever names stored labels (and never empties the
    store) and an ``upsert`` mixes re-enrolled and fresh labels.
    """
    rng = random.Random(f"crash_fuzz:{seed}")
    steps = [{"op": "save", "rows": rng.randint(3, 8)}]
    live = [f"s{seed}.0.{j}" for j in range(steps[0]["rows"])]
    for _ in range(rng.randint(2, 4)):
        index = len(steps)
        op = rng.choices(("append", "delete", "upsert", "compact"),
                         weights=(40, 20, 20, 20))[0]
        if op == "delete" and len(live) < 3:
            op = "append"  # keep at least two survivors queryable
        if op == "append":
            rows = rng.randint(2, 6)
            steps.append({"op": "append", "rows": rows})
            live += [f"s{seed}.{index}.{j}" for j in range(rows)]
        elif op == "delete":
            victims = rng.sample(live, rng.randint(1, min(3, len(live) - 2)))
            steps.append({"op": "delete", "rows": 0, "labels": victims})
            live = [label for label in live if label not in victims]
        elif op == "upsert":
            existing = rng.sample(live, rng.randint(1, min(2, len(live))))
            fresh = [f"s{seed}.{index}.{j}"
                     for j in range(rng.randint(0, 2))]
            labels = existing + fresh
            steps.append({"op": "upsert", "rows": len(labels),
                          "labels": labels})
            live = [label for label in live if label not in existing] + labels
        else:
            steps.append({"op": "compact", "rows": 0})
    return {
        "seed": seed,
        "dim": rng.choice((64, 128)),
        "backend": rng.choice(("dense", "packed")),
        "shards": rng.choice((1, 2, 3)),
        "routing": rng.choice(ROUTINGS),
        "steps": steps,
    }


def make_mutation_schedule(seed):
    """The exhaustive-sweep mutation schedule: guaranteed delete + upsert.

    Deterministically probes :func:`make_schedule` seeds (derived from
    ``seed``) until the grammar rolls a schedule journaling at least one
    ``delete`` and one ``upsert`` commit, so the exhaustive sweep
    kill-tests every v5 injection point — tombstone sidecars included —
    not just whichever ops a lucky seed happened to draw.
    """
    for salt in range(10_000):
        schedule = make_schedule(seed + 100_003 * (salt + 1))
        ops = {step["op"] for step in schedule["steps"]}
        if {"delete", "upsert"} <= ops:
            return schedule
    raise FuzzFailure(
        f"mutation grammar never rolled delete+upsert from seed {seed}"
    )


def schedule_batch(schedule, step_index):
    """The ``(labels, vectors)`` batch one schedule step ingests.

    ``save``/``append`` steps derive their labels from the step index;
    ``delete``/``upsert`` steps carry theirs explicitly (mutations must
    name labels that exist at that point of the history).
    """
    step = schedule["steps"][step_index]
    labels = step.get("labels")
    if labels is None:
        labels = [f"s{schedule['seed']}.{step_index}.{j}"
                  for j in range(step["rows"])]
    rng = np.random.default_rng([abs(schedule["seed"]), step_index, 0xC4A5])
    return labels, random_bipolar(len(labels), schedule["dim"], rng)


def run_schedule(schedule, path, start_step=0, end_step=None):
    """Execute schedule steps ``[start_step, end_step)`` against ``path``.

    Steps past the first reopen the directory fresh — exactly what a
    recovering writer does, so the same function serves the reference
    run, the writer children, and the post-crash recovery replay.
    """
    path = Path(path)
    steps = schedule["steps"]
    end_step = len(steps) if end_step is None else end_step
    store = None
    for index in range(start_step, end_step):
        step = steps[index]
        if step["op"] == "save":
            store = AssociativeStore(
                schedule["dim"], backend=schedule["backend"],
                shards=schedule["shards"], routing=schedule["routing"],
            )
            store.add_many(*schedule_batch(schedule, index))
            store.save(path)
            store = None  # append through a reopened, attached handle
        else:
            if store is None:
                store = AssociativeStore.open(path)
            if step["op"] == "append":
                store.add_many(*schedule_batch(schedule, index))
            elif step["op"] == "delete":
                store.delete(step["labels"])
            elif step["op"] == "upsert":
                store.upsert(*schedule_batch(schedule, index))
            elif step["op"] == "compact":
                store.compact()
            else:
                raise ValueError(f"unknown schedule op {step['op']!r}")


# -- state fingerprints ------------------------------------------------------- #


def fingerprint(path, executor="thread", workers=1):
    """Digest of a store directory's *logical* state.

    Covers the global label order, every shard's live labels (via the
    store's slots) and native row bytes, and top-k answers — so two
    directories fingerprint equal iff they answer identically, while
    physical debris (orphaned temp/segment files a crash legally leaves
    behind) does not participate. Raises whatever ``open`` raises: the
    caller decides whether a refusal is legal.
    """
    store = AssociativeStore.open(path, mmap=False, executor=executor,
                                  workers=workers)
    digest = hashlib.sha256()
    digest.update(json.dumps(list(store.labels)).encode())
    memory = store.memory
    for index, shard in enumerate(memory.shards):
        # Live rows only: a tombstoned row stays in place until compact,
        # which must not move the logical state.
        live = shard._live_mask()
        labels = [memory._slots[order] for order in memory._orders_of(index)[live]]
        digest.update(json.dumps(labels).encode())
        digest.update(np.ascontiguousarray(shard.native_matrix()[live]).tobytes())
    rng = np.random.default_rng(0xF1D0)
    queries = random_bipolar(3, store.dim, rng)
    for answers in store.topk_batch(queries, k=min(5, len(store))):
        digest.update(repr([(label, float(sim)) for label, sim in answers]).encode())
    return digest.hexdigest()


def build_reference(schedule, executor="thread"):
    """Fault-free enumeration run: injection points + per-step fingerprints.

    Returns ``{"cumulative": [ops after step k...], "total_ops": int,
    "ops": [(op, file name)...], "fingerprints": [state after step k...]}``.
    """
    counter = CountingIO()
    cumulative, fingerprints = [], []
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "store"
        for index in range(len(schedule["steps"])):
            with injected_faults(counter):
                run_schedule(schedule, target, start_step=index,
                             end_step=index + 1)
            cumulative.append(len(counter.trace))
            fingerprints.append(fingerprint(target, executor=executor))
    return {
        "cumulative": cumulative,
        "total_ops": len(counter.trace),
        "ops": list(counter.trace),
        "fingerprints": fingerprints,
    }


def _step_of(reference, op_index):
    """The schedule step a global operation index falls in."""
    for step, bound in enumerate(reference["cumulative"]):
        if op_index < bound:
            return step
    raise ValueError(
        f"op index {op_index} beyond the schedule's "
        f"{reference['total_ops']} operations"
    )


# -- killing one writer ------------------------------------------------------- #


def _writer_command(schedule, plan, target):
    return [
        sys.executable, "-m", "repro.hdc.store.crash_fuzz", "--writer",
        "--dir", str(target),
        "--schedule-json", json.dumps(schedule),
        "--plan-json", plan.to_json(),
    ]


def _run_killed_writer(schedule, plan, target):
    """Replay the schedule in a subprocess that the plan hard-kills."""
    proc = subprocess.run(
        _writer_command(schedule, plan, target),
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != KILL_EXIT_CODE:
        raise FuzzFailure(
            f"writer child exited {proc.returncode}, expected kill code "
            f"{KILL_EXIT_CODE} (plan {plan!r}): {proc.stderr.strip()[-500:]}"
        )


def _run_failed_writer(schedule, plan, target):
    """In-process writer for ``mode="fail"``; returns the crashed step."""
    with injected_faults(FaultingIO(plan)):
        for index in range(len(schedule["steps"])):
            try:
                run_schedule(schedule, target, start_step=index,
                             end_step=index + 1)
            except FaultInjected:
                return index
    raise FuzzFailure(f"fail plan never triggered: {plan!r}")


def _check_documented_refusal(exc, crash_step):
    """A refused survivor must raise a documented, attributable error."""
    message = str(exc)
    if "file" not in message or "generation" not in message:
        raise FuzzFailure(
            f"refused store raised an unattributable error (no file + "
            f"generation): {type(exc).__name__}: {message}"
        )
    if crash_step != 0 or not isinstance(exc, FileNotFoundError):
        raise FuzzFailure(
            f"store refused to open after a crash in step {crash_step}, but "
            f"only a pre-first-commit crash may refuse: "
            f"{type(exc).__name__}: {message}"
        )


def fuzz_injection_point(schedule, reference, op_index, mode,
                         executor="thread"):
    """Kill one writer at one injection point and verify the survivor.

    Returns an outcome dict (``crash_step``, observed ``state``:
    ``"pre"``/``"post"``/``"refused"``, ``recovered``). Raises
    :class:`FuzzFailure` on any guarantee violation — an illegal
    surviving state, an undocumented error, or a recovery replay that
    does not converge.
    """
    plan = FaultPlan(op_index, mode=mode)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "store"
        if mode == "fail":
            crash_step = _run_failed_writer(schedule, plan, target)
        else:
            _run_killed_writer(schedule, plan, target)
            crash_step = _step_of(reference, op_index)
        fingerprints = reference["fingerprints"]
        try:
            observed = fingerprint(target, executor=executor)
        except (FileNotFoundError, ValueError, RuntimeError) as exc:
            _check_documented_refusal(exc, crash_step)
            state, resume = "refused", 0
        else:
            if observed == fingerprints[crash_step]:
                state, resume = "post", crash_step + 1
            elif crash_step > 0 and observed == fingerprints[crash_step - 1]:
                state, resume = "pre", crash_step
            else:
                raise FuzzFailure(
                    f"survivor of a {mode} fault at op {op_index} (step "
                    f"{crash_step}) matches neither the pre- nor the "
                    f"post-commit state"
                )
        # The retried writer reuses the crashed generation, overwriting
        # any orphans, and must converge to the reference final state.
        run_schedule(schedule, target, start_step=resume)
        if fingerprint(target) != fingerprints[-1]:
            raise FuzzFailure(
                f"recovery replay after a {mode} fault at op {op_index} did "
                f"not converge to the reference final state"
            )
    return {"op_index": op_index, "mode": mode, "crash_step": crash_step,
            "state": state, "recovered": True}


def fuzz_schedule(schedule, modes=("kill", "truncate"), op_indices=None,
                  executor="thread", jobs=1, reference=None):
    """Fuzz one schedule at a set of injection points (default: all).

    ``modes`` cycles across the points. ``jobs`` parallelizes the writer
    children (subprocesses driven from a thread pool). Returns
    ``(reference, outcomes)``.
    """
    if reference is None:
        reference = build_reference(schedule)
    if op_indices is None:
        op_indices = range(reference["total_ops"])
    tasks = [(index, modes[n % len(modes)])
             for n, index in enumerate(op_indices)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(
                lambda task: fuzz_injection_point(
                    schedule, reference, task[0], task[1], executor=executor),
                tasks,
            ))
    else:
        outcomes = [
            fuzz_injection_point(schedule, reference, index, mode,
                                 executor=executor)
            for index, mode in tasks
        ]
    return reference, outcomes


# -- the corruption table, executed ------------------------------------------- #


def _edit_json(path, mutate):
    payload = json.loads(Path(path).read_text())
    mutate(payload)
    Path(path).write_text(json.dumps(payload))


def _edit_manifest(root, mutate):
    _edit_json(Path(root) / MANIFEST_NAME, mutate)


def _manifest(root):
    return json.loads((Path(root) / MANIFEST_NAME).read_text())


def _case_paths(root):
    """Interesting file names of the standard corruption-case store."""
    manifest = _manifest(root)
    entry = manifest["shards"][0]
    segment = next(
        segment for shard in manifest["shards"] for segment in shard["segments"]
    )
    return {
        "base": entry["file"],
        "orders": entry.get("orders_file"),
        "labels": manifest["labels_file"],
        "segment": segment["file"],
        "delta": segment["delta_file"],
    }


def _find_delta(root, op):
    """The first delta sidecar in the manifest chain journaling ``op``."""
    for name in _manifest(root)["deltas"]:
        if json.loads((Path(root) / name).read_text()).get("op") == op:
            return name
    raise FuzzFailure(f"corruption-case store journals no {op!r} delta")


def _truncate_file(root, name):
    path = Path(root) / name
    data = path.read_bytes()
    path.write_bytes(data[: max(1, len(data) // 2)])


def _wrong_dtype(root, name):
    path = Path(root) / name
    rows = np.load(path)
    np.save(path, rows.astype(np.float32))


def _corrupt_orders(root, name, mutate):
    path = Path(root) / name
    orders = np.load(path)
    np.save(path, mutate(orders))


def _cross_shard_collision(root):
    """Relabel a journaled row as a live base label of *another* shard."""
    manifest = read_manifest(root)
    index = next(i for i, e in enumerate(manifest["shards"]) if e["segments"])
    other = set(manifest["shards"][1 - index]["orders"])
    taken = next(label for label, order in manifest["label_orders"].items() if order in other)
    _edit_json(Path(root) / manifest["shards"][index]["segments"][0]["delta_file"],
               lambda d: next(part for part in d["entries"] if part["shard"] == index)
               ["labels"].__setitem__(0, taken))


def _expect_raise(exc_types, *needles, attributed=True):
    def check(root):
        try:
            fingerprint(root)
        except exc_types as exc:
            message = str(exc)
            for needle in needles:
                if needle not in message:
                    raise FuzzFailure(
                        f"expected {needle!r} in the error, got: {message}"
                    ) from exc
            if attributed and ("file" not in message
                               or "generation" not in message):
                raise FuzzFailure(
                    f"corruption error does not name file + generation: "
                    f"{message}"
                ) from exc
            return
        raise FuzzFailure(
            f"corrupted store opened instead of raising {exc_types}"
        )
    return check


def _check_tolerated(root):
    """Advisory corruption: the store must open and answer unchanged."""
    fingerprint(root)  # raises (failing the case) if open refuses


def _case_save_rejects_bad_label(root):
    """Non-JSON labels die at save time and never touch the directory."""
    store = AssociativeStore(64, backend="dense")
    rng = np.random.default_rng(5)
    store.add_many([("tuple", "label")], random_bipolar(1, 64, rng))
    before = sorted(p.name for p in Path(root).iterdir())
    try:
        store.save(root)
    except TypeError:
        after = sorted(p.name for p in Path(root).iterdir())
        if before != after:
            raise FuzzFailure(
                "rejected save still modified the store directory"
            ) from None
        return
    raise FuzzFailure("save accepted a non-JSON-serializable label")


def _case_generation_mismatch(root):
    """A directory swapped under an open store fails its process query."""
    handle = AssociativeStore.open(root, executor="process", workers=2)
    rng = np.random.default_rng(6)
    other = AssociativeStore(handle.dim, backend=handle.backend_name,
                             shards=max(handle.num_shards, 2))
    other.add_many([f"swap{i}" for i in range(8)],
                   random_bipolar(8, handle.dim, rng))
    other.save(root)  # bumps the generation under the open handle
    try:
        handle.topk(random_bipolar(1, handle.dim, rng)[0], k=2)
    except RuntimeError as exc:
        if "generation" not in str(exc) or "re-open" not in str(exc):
            raise FuzzFailure(
                f"generation-mismatch error lacks the documented wording: "
                f"{exc}"
            ) from exc
        return
    raise FuzzFailure(
        "process query against a swapped directory did not raise"
    )


#: every row of STORE_FORMAT.md's corruption table as an executed case:
#: ``(case id, table row index, corrupt(root), verify(root))``. The
#: table in the doc cites these ids in its "verified by" column.
CORRUPTION_CASES = [
    ("CF-01", 0, lambda r: _edit_manifest(r, lambda m: m.update(format="x")),
     _expect_raise(ValueError, "manifest")),
    ("CF-02", 0, lambda r: _edit_manifest(r, lambda m: m.update(format_version=99)),
     _expect_raise(ValueError, "not supported")),
    ("CF-03", 0, lambda r: _edit_manifest(r, lambda m: m.update(kind="blob")),
     _expect_raise(ValueError, "kind")),
    ("CF-04", 0, lambda r: _edit_manifest(r, lambda m: m.update(routing="zodiac")),
     _expect_raise(ValueError, "routing")),
    ("CF-05", 1, lambda r: _edit_manifest(r, lambda m: m.update(num_shards=7)),
     _expect_raise(ValueError, "num_shards")),
    ("CF-06", 2, lambda r: (Path(r) / _case_paths(r)["base"]).unlink(),
     _expect_raise(FileNotFoundError, "missing")),
    ("CF-07", 2, lambda r: (Path(r) / _case_paths(r)["segment"]).unlink(),
     _expect_raise(FileNotFoundError, "missing")),
    ("CF-08", 3, lambda r: _truncate_file(r, _case_paths(r)["base"]),
     _expect_raise(ValueError, "corrupted")),
    ("CF-09", 4, lambda r: _edit_json(
        Path(r) / _case_paths(r)["labels"], lambda labels: labels.pop()),
     _expect_raise(ValueError, "labels")),
    ("CF-10", 4, lambda r: _edit_manifest(
        r, lambda m: m["shards"][0].update(rows=m["shards"][0]["rows"] + 1)),
     _expect_raise(ValueError, "rows")),
    ("CF-11", 5, lambda r: _wrong_dtype(r, _case_paths(r)["base"]),
     _expect_raise(ValueError, "")),
    ("CF-12", 6, lambda r: (Path(r) / _case_paths(r)["labels"]).unlink(),
     _expect_raise(FileNotFoundError, "missing labels")),
    ("CF-13", 6, lambda r: (Path(r) / _case_paths(r)["labels"]).write_text("{nope"),
     _expect_raise(ValueError, "corrupted labels")),
    ("CF-14", 7, lambda r: (Path(r) / _case_paths(r)["orders"]).unlink(),
     _expect_raise(FileNotFoundError, "missing orders")),
    ("CF-15", 7, lambda r: _corrupt_orders(
        r, _case_paths(r)["orders"], lambda o: o[:-1]),
     _expect_raise(ValueError, "orders")),
    ("CF-16", 7, lambda r: _corrupt_orders(
        r, _case_paths(r)["orders"], lambda o: o + 10_000),
     _expect_raise(ValueError, "outside")),
    ("CF-17", 8, lambda r: _corrupt_orders(
        r, _case_paths(r)["orders"],
        lambda o: np.full_like(o, int(o[0]))),
     _expect_raise(ValueError, "")),
    ("CF-18", 9, lambda r: (Path(r) / _case_paths(r)["delta"]).unlink(),
     _expect_raise(FileNotFoundError, "missing delta")),
    ("CF-19", 9, lambda r: (Path(r) / _case_paths(r)["delta"]).write_text("]["),
     _expect_raise(ValueError, "corrupted delta")),
    ("CF-20", 9, lambda r: _edit_json(
        Path(r) / _case_paths(r)["delta"],
        lambda d: d.update(entries=[])),
     _expect_raise(ValueError, "does not cover")),
    ("CF-21", 10, lambda r: _edit_json(
        Path(r) / _case_paths(r)["delta"],
        lambda d: d.update(base_rows=d["base_rows"] + 1)),
     _expect_raise(ValueError, "row-count drift")),
    ("CF-22", 11, lambda r: _edit_json(
        Path(r) / _case_paths(r)["delta"],
        lambda d: [part.update(orders=[o + 1 for o in part["orders"]])
                   for part in d["entries"]]),
     _expect_raise(ValueError, "contiguous")),
    ("CF-23", 12, lambda r: _edit_json(
        Path(r) / _case_paths(r)["delta"],
        lambda d: d["entries"][0].update(
            labels=[json.loads((Path(r) / _case_paths(r)["labels"])
                               .read_text())[0]]
            * len(d["entries"][0]["labels"]))),
     _expect_raise(ValueError, "")),
    ("CF-34", 12, _cross_shard_collision, _expect_raise(ValueError, "label collision")),
    ("CF-24", 13, lambda r: None, _case_save_rejects_bad_label),
    ("CF-26", 14, lambda r: None, _case_generation_mismatch),
    ("CF-27", 15, lambda r: _edit_manifest(
        r, lambda m: m["shards"][0].update(
            bounds={"minus_min": "bogus", "minus_max": [], "centroid": "zz",
                    "radius": "wide"})),
     _check_tolerated),
    ("CF-28", 16, lambda r: _edit_json(
        Path(r) / _find_delta(r, "delete"),
        lambda d: d["tombstones"][0].update(
            orders=[10_000] * len(d["tombstones"][0]["orders"]))),
     _expect_raise(ValueError, "outside")),
    ("CF-29", 16, lambda r: _edit_json(
        Path(r) / _find_delta(r, "delete"),
        lambda d: d["tombstones"][0].update(
            labels=["imposter"] * len(d["tombstones"][0]["labels"]))),
     _expect_raise(ValueError, "imposter")),
    ("CF-30", 17, lambda r: _edit_json(
        Path(r) / _find_delta(r, "delete"),
        lambda d: d["tombstones"][0].update(
            labels=d["tombstones"][0]["labels"] * 2,
            orders=d["tombstones"][0]["orders"] * 2)),
     _expect_raise(ValueError, "twice")),
    ("CF-31", 18, lambda r: _edit_manifest(
        r, lambda m: m.update(deltas=[name for name in m["deltas"]
                                      if name != _find_delta(r, "delete")])),
     _expect_raise(ValueError, "row-count drift")),
    ("CF-32", 18, lambda r: _edit_manifest(
        r, lambda m: m.update(deltas=[name for name in m["deltas"]
                                      if name != _find_delta(r, "append")])),
     _expect_raise(ValueError, "absent from the manifest delta chain")),
    ("CF-33", 0, lambda r: _edit_manifest(
        r, lambda m: (m.update(format_version=4),
                      m.pop("deltas"), m.pop("next_order"))),
     _expect_raise(ValueError, "not supported")),
    ("CF-35", 19, lambda r: _corrupt_orders(
        r, _case_paths(r)["orders"], lambda o: o[[1, 0, *range(2, len(o))]]),
     _expect_raise(ValueError, "not strictly increasing")),
    ("CF-36", 19, lambda r: _edit_json(
        Path(r) / _case_paths(r)["delta"],
        lambda d: next(part["orders"] for part in d["entries"]
                       if len(part["orders"]) > 1).reverse()),
     _expect_raise(ValueError, "not strictly increasing")),
]

#: corruption-table row count the cases above must cover (18 rows
#: refused at open or query + the save-time label row + the
#: malformed-bounds tolerance paragraph)
CORRUPTION_TABLE_ROWS = 20


def _build_case_store(root):
    """The standard store the corruption cases mutate: sharded, packed,
    one journaled append, delete, and upsert each (so delta/segment AND
    tombstone-sidecar rows have targets)."""
    rng = np.random.default_rng(1234)
    dim = 64
    store = AssociativeStore(dim, backend="packed", shards=2, routing="hash")
    store.add_many([f"base{i}" for i in range(12)],
                   random_bipolar(12, dim, rng))
    store.save(root)
    handle = AssociativeStore.open(root)
    handle.add_many([f"extra{i}" for i in range(6)],
                    random_bipolar(6, dim, rng))
    handle.delete(["base1", "extra2"])
    handle.upsert(["base3", "mut0"], random_bipolar(2, dim, rng))


def run_corruption_cases(case_ids=None):
    """Execute (a subset of) :data:`CORRUPTION_CASES`.

    Returns ``{case id: table row index}`` for the cases that passed;
    raises :class:`FuzzFailure` on the first violated guarantee.
    """
    covered = {}
    with tempfile.TemporaryDirectory() as tmp:
        pristine = Path(tmp) / "pristine"
        _build_case_store(pristine)
        for case_id, row, corrupt, verify in CORRUPTION_CASES:
            if case_ids is not None and case_id not in case_ids:
                continue
            target = Path(tmp) / case_id
            shutil.copytree(pristine, target)
            try:
                corrupt(target)
                verify(target)
            except FuzzFailure as exc:
                raise FuzzFailure(f"{case_id}: {exc}") from exc
            covered[case_id] = row
    return covered


# -- CLI ----------------------------------------------------------------------- #


def _writer_main(args):
    """Writer-child entry: replay a schedule with a fault plan installed."""
    schedule = json.loads(args.schedule_json)
    plan = FaultPlan.from_json(args.plan_json)
    install_io(FaultingIO(plan))
    try:
        run_schedule(schedule, Path(args.dir))
    except FaultInjected:
        os._exit(KILL_EXIT_CODE)  # "fail" plans kill the child too
    return 0  # plan never triggered: the parent treats this as an error


def _env_int(name, default):
    value = os.environ.get(name, "").strip()
    return int(value) if value else default


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.hdc.store.crash_fuzz",
        description="Crash-consistency fuzzer for the store commit path.",
    )
    parser.add_argument("--writer", action="store_true",
                        help="internal: run as a fault-injected writer child")
    parser.add_argument("--dir", help="writer child: target store directory")
    parser.add_argument("--schedule-json", help="writer child: schedule JSON")
    parser.add_argument("--plan-json", help="writer child: FaultPlan JSON")
    parser.add_argument("--schedules", type=int,
                        default=_env_int("CRASH_FUZZ_SCHEDULES", 25),
                        help="randomized schedules to fuzz (default "
                             "$CRASH_FUZZ_SCHEDULES or 25)")
    parser.add_argument("--seed", type=int,
                        default=_env_int("CRASH_FUZZ_SEED", 0),
                        help="base seed for the randomized schedules")
    parser.add_argument("--points-per-schedule", type=int, default=3,
                        help="random injection points killed per schedule")
    parser.add_argument("--executor",
                        default=os.environ.get("CRASH_FUZZ_EXECUTOR", "thread"),
                        choices=("thread", "process"),
                        help="executor used to query survivors")
    parser.add_argument("--modes",
                        default=os.environ.get("CRASH_FUZZ_MODES",
                                               "kill,truncate"),
                        help="comma-separated fault modes to cycle through "
                             "(default $CRASH_FUZZ_MODES or kill,truncate)")
    parser.add_argument("--jobs", type=int,
                        default=_env_int("CRASH_FUZZ_JOBS",
                                         min(8, os.cpu_count() or 1)),
                        help="concurrent writer children")
    parser.add_argument("--no-exhaustive", action="store_true",
                        help="skip the exhaustive every-injection-point leg")
    parser.add_argument("--no-corruption", action="store_true",
                        help="skip the corruption-table cases")
    args = parser.parse_args(argv)

    if args.writer:
        return _writer_main(args)

    modes = tuple(mode.strip() for mode in args.modes.split(",") if mode.strip())
    summary = {
        "schedules": 0, "injection_points": 0,
        "states": {"pre": 0, "post": 0, "refused": 0},
        "by_mode": {mode: 0 for mode in modes},
        "corruption_cases": {}, "table_rows_exercised": 0,
    }

    def absorb(outcomes):
        for outcome in outcomes:
            summary["injection_points"] += 1
            summary["states"][outcome["state"]] += 1
            summary["by_mode"][outcome["mode"]] += 1

    if not args.no_exhaustive:
        # Two schedules, every injection point killed: the atomicity
        # guarantee holds at each reachable operation, not a sample —
        # once over whatever ops the base seed draws, once over a
        # schedule guaranteed to journal delete and upsert commits.
        for leg, schedule in (
            ("exhaustive", make_schedule(args.seed)),
            ("mutation", make_mutation_schedule(args.seed)),
        ):
            reference, outcomes = fuzz_schedule(
                schedule, modes=modes, executor=args.executor, jobs=args.jobs)
            summary["schedules"] += 1
            summary[f"{leg}_ops"] = reference["total_ops"]
            absorb(outcomes)
            print(f"{leg}: seed {schedule['seed']}, "
                  f"{reference['total_ops']} injection points", flush=True)

    for offset in range(args.schedules):
        seed = args.seed + 1 + offset
        schedule = make_schedule(seed)
        reference = build_reference(schedule)
        rng = random.Random(f"points:{seed}")
        points = sorted(rng.sample(
            range(reference["total_ops"]),
            min(args.points_per_schedule, reference["total_ops"]),
        ))
        _, outcomes = fuzz_schedule(
            schedule, modes=modes, op_indices=points,
            executor=args.executor, jobs=args.jobs, reference=reference)
        summary["schedules"] += 1
        absorb(outcomes)
        if (offset + 1) % 25 == 0:
            print(f"randomized: {offset + 1}/{args.schedules} schedules",
                  flush=True)

    if not args.no_corruption:
        covered = run_corruption_cases()
        summary["corruption_cases"] = {
            case: f"row {row}" for case, row in sorted(covered.items())
        }
        rows = set(covered.values())
        summary["table_rows_exercised"] = len(rows)
        if len(rows) != CORRUPTION_TABLE_ROWS:
            raise FuzzFailure(
                f"corruption cases exercised {len(rows)} table rows, "
                f"expected {CORRUPTION_TABLE_ROWS}"
            )

    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
