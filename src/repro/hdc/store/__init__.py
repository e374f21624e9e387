"""``repro.hdc.store`` — the sharded associative-memory store subsystem.

Retrieval, extracted from the monolithic :class:`~repro.hdc.ItemMemory`
into a layered subsystem (see ``docs/ARCHITECTURE.md``, "Store layer"):

- :class:`AssociativeStore` (:mod:`.planner`) — the facade every
  consumer uses: one query surface (``cleanup`` / ``cleanup_batch`` /
  ``topk`` / ``topk_batch``), bounded query blocking, ``save``/``open``
  plus the append/compact lifecycle of persisted stores.
- :class:`StoreServer` (:mod:`.serving`) — the asyncio front-end for
  concurrent *single* requests: work-conserving micro-batching (a batch
  leaves when the one dispatch thread is free, or at ``max_batch``
  rows) into the facade's batch kernels, admission control, graceful
  drain — served answers bit-identical to direct calls.
- :class:`StoreHTTPServer` (:mod:`.http`) — the stdlib HTTP/1.1 wire
  transport over :class:`StoreServer`: a fixed ``/v1`` route table,
  JSON bodies in/out, 429/503/504/400 error mapping with ``Retry-After``
  hints, drain-on-stop — wire answers bit-identical to direct calls
  too. :class:`JSONHTTPClient` pairs it with a typed failure hierarchy
  (:class:`StoreHTTPError` / :class:`TransportError` /
  :class:`HTTPStatusError`) and budget-bounded :class:`RetryPolicy`
  backoff.
- :mod:`.faults` — the injectable I/O seam under persistence
  (:func:`injected_faults`, :class:`FaultPlan`) and :mod:`.crash_fuzz`,
  the crash-consistency fuzzer that kills writers at every commit-path
  injection point and checks survivors reopen to a legal state.
- :class:`ShardedItemMemory` (:mod:`.sharded`) — label-routed shards
  with streaming ingestion and fan-out/merge queries, decision-identical
  to a single ``ItemMemory`` for any shard *and worker* count; the
  facade holds one at every shard count (``shards=1`` is one shard).
- :mod:`.parallel` — the shard executor (a thread or process pool) and
  the integer-distance-domain query partials the fan-out merges.
- :mod:`.persistence` — packed shard files + JSON manifest, reopened
  lazily via ``np.memmap``; appends journal per-shard segment files.
- :mod:`.routing` — stable hash / round-robin shard placement.

``ItemMemory`` itself stays in :mod:`repro.hdc.item_memory` as the bare
in-memory reference the agreement suite pins the subsystem against, and
the scorer of real-valued dense queries.
"""

from .parallel import (
    EXECUTOR_KINDS,
    BoundTracker,
    ShardExecutor,
    resolve_executor,
    resolve_workers,
)
from .persistence import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    append_rows,
    delete_rows,
    load_worker_shard,
    open_store,
    read_manifest,
    save_store,
    upsert_rows,
)
from .faults import (
    FAULT_MODES,
    KILL_EXIT_CODE,
    CountingIO,
    FaultInjected,
    FaultingIO,
    FaultPlan,
    StoreIO,
    active_io,
    injected_faults,
    install_io,
)
from .http import (
    ROUTES,
    HTTPStatusError,
    JSONHTTPClient,
    RetryPolicy,
    StoreHTTPError,
    StoreHTTPServer,
    TransportError,
)
from .planner import AssociativeStore
from .routing import ROUTINGS, hash_shard, route_label
from .serving import (
    ADMISSION_POLICIES,
    FLUSH_TRIGGERS,
    REQUEST_KINDS,
    ServerClosed,
    ServerOverloaded,
    ServerTimeout,
    StoreServer,
    jsonable_result,
)
from .sharded import DEFAULT_CHUNK_SIZE, ShardedItemMemory

__all__ = [
    "AssociativeStore",
    "StoreServer",
    "StoreHTTPServer",
    "JSONHTTPClient",
    "ROUTES",
    "RetryPolicy",
    "StoreHTTPError",
    "TransportError",
    "HTTPStatusError",
    "ServerClosed",
    "ServerOverloaded",
    "ServerTimeout",
    "StoreIO",
    "CountingIO",
    "FaultingIO",
    "FaultPlan",
    "FaultInjected",
    "FAULT_MODES",
    "KILL_EXIT_CODE",
    "active_io",
    "install_io",
    "injected_faults",
    "ADMISSION_POLICIES",
    "FLUSH_TRIGGERS",
    "REQUEST_KINDS",
    "jsonable_result",
    "ShardedItemMemory",
    "ShardExecutor",
    "BoundTracker",
    "resolve_workers",
    "resolve_executor",
    "EXECUTOR_KINDS",
    "DEFAULT_CHUNK_SIZE",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "save_store",
    "open_store",
    "append_rows",
    "delete_rows",
    "upsert_rows",
    "load_worker_shard",
    "read_manifest",
    "ROUTINGS",
    "hash_shard",
    "route_label",
]
