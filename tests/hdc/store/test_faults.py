"""The injectable I/O seam: passthrough by default, faults on demand.

:mod:`repro.hdc.store.faults` is the mechanism under the crash fuzzer
(``test_crash_fuzz.py`` drives the guarantees): a process-global seam
the persistence commit path routes every write/fsync/replace/unlink
through. This suite pins the seam itself — the default is a pure
passthrough, installation is scoped and restored, :class:`CountingIO`
sees the documented commit order, and a ``mode="fail"`` plan surfaces
as the ``OSError`` the production recovery contract expects, leaving
the directory in a legal pre-commit state.
"""

import numpy as np
import pytest

from repro.hdc import random_bipolar
from repro.hdc.store import AssociativeStore
from repro.hdc.store.faults import (
    FAULT_MODES,
    CountingIO,
    FaultInjected,
    FaultPlan,
    StoreIO,
    active_io,
    injected_faults,
    install_io,
)


def _build(dim=64, items=8, shards=2, seed=7):
    rng = np.random.default_rng(seed)
    store = AssociativeStore(dim, backend="packed", shards=shards)
    store.add_many([f"x{i}" for i in range(items)],
                   random_bipolar(items, dim, rng))
    return store


class TestSeamInstallation:
    def test_default_seam_is_the_plain_passthrough(self):
        assert type(active_io()) is StoreIO

    def test_install_returns_previous_and_none_restores_passthrough(self):
        counter = CountingIO()
        previous = install_io(counter)
        try:
            assert active_io() is counter
        finally:
            assert install_io(previous) is counter
        assert active_io() is previous
        # installing None falls back to a fresh passthrough
        old = install_io(None)
        try:
            assert type(active_io()) is StoreIO
        finally:
            install_io(old)

    def test_context_manager_restores_on_error(self, tmp_path):
        before = active_io()
        with pytest.raises(RuntimeError):
            with injected_faults(CountingIO()) as seam:
                assert active_io() is seam
                raise RuntimeError("boom")
        assert active_io() is before

    def test_context_manager_wraps_a_bare_plan(self):
        with injected_faults(FaultPlan(0, mode="fail")) as seam:
            assert seam.plan.op_index == 0
        # nothing observed, nothing triggered
        assert not seam.triggered


def _writes_after_manifest_commit(trace):
    """Names written after the manifest swap (the commit point)."""
    commit = trace.index(("replace", "manifest.json"))
    return [name for op, name in trace[commit + 1:] if op == "write"]


class TestCountingIO:
    def test_save_trace_ends_at_the_manifest_commit(self, tmp_path):
        """A save's operation trace matches the documented commit
        protocol: every data file is written and fsynced *before* the
        manifest replace — the single commit point — and nothing is
        written after it."""
        counter = CountingIO()
        with injected_faults(counter):
            _build().save(tmp_path / "store")
        ops = {op for op, _ in counter.trace}
        assert ops <= {"write", "fsync", "replace", "unlink"}
        assert _writes_after_manifest_commit(counter.trace) == []
        manifest_commit = counter.trace.index(("replace", "manifest.json"))
        npy_writes = [i for i, (op, name) in enumerate(counter.trace)
                      if op == "write" and ".npy" in name]  # *.npy.tmp
        assert npy_writes and max(npy_writes) < manifest_commit

    def test_append_trace_commits_through_the_manifest_too(self, tmp_path):
        target = tmp_path / "store"
        _build().save(target)
        handle = AssociativeStore.open(target)
        counter = CountingIO()
        with injected_faults(counter):
            handle.add_many(["y0", "y1"],
                            random_bipolar(2, 64, np.random.default_rng(1)))
        assert ("replace", "manifest.json") in counter.trace
        assert any(name.startswith("delta.") for _, name in counter.trace)
        assert _writes_after_manifest_commit(counter.trace) == []

    @pytest.mark.parametrize("op", ["delete", "upsert"])
    def test_mutation_trace_ends_at_the_manifest_commit(self, op, tmp_path):
        target = tmp_path / "store"
        _build().save(target)
        handle = AssociativeStore.open(target)
        counter = CountingIO()
        with injected_faults(counter):
            if op == "delete":
                handle.delete(["x1", "x4"])
            else:
                handle.upsert(["x1", "z0"],
                              random_bipolar(2, 64, np.random.default_rng(2)))
        assert any(name.startswith("delta.") for _, name in counter.trace)
        assert _writes_after_manifest_commit(counter.trace) == []


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="op_index"):
            FaultPlan(-1)
        with pytest.raises(ValueError, match="fault mode"):
            FaultPlan(0, mode="explode")
        with pytest.raises(ValueError, match="keep_fraction"):
            FaultPlan(0, keep_fraction=1.5)
        assert set(FAULT_MODES) == {"fail", "truncate", "kill"}

    def test_matching_filters_on_op_and_file_name(self):
        plan = FaultPlan(0, mode="fail", op="replace",
                         path_glob="manifest.json*")
        assert plan.matches("replace", "/any/where/manifest.json")
        assert plan.matches("replace", "manifest.json.tmp.123")
        assert not plan.matches("write", "manifest.json")
        assert not plan.matches("replace", "delta.g1.json")
        # no filters: everything matches
        assert FaultPlan(3).matches("fsync", "whatever.npy")

    def test_json_round_trip(self):
        plan = FaultPlan(4, mode="truncate", op="write",
                         path_glob="*.npy", keep_fraction=0.25)
        clone = FaultPlan.from_json(plan.to_json())
        assert (clone.op_index, clone.mode, clone.op, clone.path_glob,
                clone.keep_fraction) == (4, "truncate", "write", "*.npy", 0.25)


class TestFailMode:
    def test_failed_manifest_swap_leaves_the_previous_commit(self, tmp_path):
        """Failing the append's manifest replace (the commit point): the
        append raises the production OSError type and a reopen sees
        exactly the pre-append store."""
        target = tmp_path / "store"
        store = _build()
        store.save(target)
        labels_before = list(AssociativeStore.open(target).labels)

        handle = AssociativeStore.open(target)
        plan = FaultPlan(0, mode="fail", op="replace",
                         path_glob="manifest.json*")
        with injected_faults(plan) as seam:
            with pytest.raises(FaultInjected):
                handle.add_many(
                    ["y0", "y1"],
                    random_bipolar(2, 64, np.random.default_rng(2)))
        assert seam.triggered
        assert isinstance(FaultInjected("x"), OSError)
        assert list(AssociativeStore.open(target).labels) == labels_before

    def test_fault_before_any_commit_leaves_no_store(self, tmp_path):
        target = tmp_path / "store"
        with injected_faults(FaultPlan(0, mode="fail")):
            with pytest.raises(FaultInjected):
                _build().save(target)
        with pytest.raises(FileNotFoundError):
            AssociativeStore.open(target)

    def test_nth_match_counting(self, tmp_path):
        """op_index counts *matching* operations: a plan aimed at the
        second fsync lets the first one through."""
        counter = CountingIO()
        with injected_faults(counter):
            _build().save(tmp_path / "reference")
        fsyncs = [name for op, name in counter.trace if op == "fsync"]
        assert len(fsyncs) >= 2

        plan = FaultPlan(1, mode="fail", op="fsync")
        with injected_faults(plan) as seam:
            with pytest.raises(FaultInjected, match="fsync"):
                _build().save(tmp_path / "store")
        assert seam.matched == 2  # first match passed, second triggered
