"""Store-test fixtures: the ``store_scale`` sizing knob and the strict
event-loop exception handler.

``store_scale``-marked tests exercise the store at 100k-item scale —
too slow for tier-1, so the marker is deselected by default
(``pytest.ini``) and CI runs them in a dedicated nightly-style step
(``-m store_scale``). ``STORE_SCALE_ITEMS`` overrides the item count
for quick local runs.

The serving and HTTP suites run under ``strict_loop_exceptions``.
"""

import asyncio
import gc
import os
from contextlib import contextmanager

import pytest


@pytest.fixture
def store_scale_items():
    """Item count for ``store_scale`` tests (default 100k)."""
    return int(os.environ.get("STORE_SCALE_ITEMS", 100_000))


@pytest.fixture
def store_scale_executor():
    """Fan-out executor for ``store_scale`` tests (CI runs both kinds)."""
    return os.environ.get("STORE_SCALE_EXECUTOR", "thread")


@pytest.fixture
def count_packing(monkeypatch):
    """A context manager counting the ``is_bipolar`` and ``pack_bits``
    calls this process makes inside it (every module that imports them
    by name is wrapped): ``with count_packing() as calls: ...``."""
    import repro.hdc.backend as backend_module
    import repro.hdc.hypervector as hypervector_module
    import repro.hdc.item_memory as item_memory_module
    import repro.hdc.store.persistence as persistence_module

    @contextmanager
    def counting():
        calls = {"is_bipolar": 0, "pack_bits": 0}

        def counted(name):
            original = getattr(hypervector_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            is_bipolar, pack_bits = counted("is_bipolar"), counted("pack_bits")
            for module in (hypervector_module, item_memory_module):
                patch.setattr(module, "is_bipolar", is_bipolar)
            for module in (hypervector_module, backend_module, persistence_module):
                patch.setattr(module, "pack_bits", pack_bits, raising=False)
            yield calls

    return counting


@pytest.fixture
def strict_loop_exceptions(monkeypatch):
    """Fail the test if anything reaches an event loop's exception handler.

    Every loop the test creates (``asyncio.run`` included) records each
    context its exception handler receives: an exception raised in a
    callback, a task or future whose exception nobody retrieved, a task
    destroyed while still pending. Those never fail a test by
    themselves — the default handler only logs them. ``gc.collect()``
    runs before the check, so that reports from futures collected after
    their loop closed arrive first.
    """
    reports = []
    policy = asyncio.get_event_loop_policy()
    new_event_loop = policy.new_event_loop

    def recording_loop():
        loop = new_event_loop()
        loop.set_exception_handler(lambda _, context: reports.append(context))
        return loop

    monkeypatch.setattr(policy, "new_event_loop", recording_loop)
    yield
    gc.collect()
    if reports:
        pytest.fail("the event loop's exception handler was called: " + "; ".join(
            f"{context.get('message')} {context.get('exception')!r}"
            for context in reports
        ), pytrace=False)
