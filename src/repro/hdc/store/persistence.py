"""Save / open / append associative stores: shard files + a JSON manifest.

On-disk layout (one directory per store)::

    <path>/
      manifest.json            format version, dim, backend, routing,
                               generation, and the shard map (no label
                               lists — those live in the sidecars below)
      labels.g00000.json       global insertion-order label list, written
                               at save/compact only
      delta.g00002.json        one journaled commit's labels, global
                               orders, per-segment bounds and tombstones
      shard_00000.g00000.npy   shard 0's contiguous backend-native matrix
      shard_00000.seg00002.npy shard 0's first appended segment (journal)
      orders_00000.g00000.npy  shard 0's base rows' global orders
      shard_00001.g00000.npy   ...

Each shard's base file is a plain ``.npy`` of the shard's native store
(dense: ``(n, dim)`` int8; packed: ``(n, ⌈dim/64⌉)`` uint64) written
with ``np.save``, so :func:`open_store` can hand it straight to
``np.load(..., mmap_mode="r")``: a multi-million-item store opens lazily
— only the manifest and one label index load (O(labels): ~0.3 s at 1M),
the vector data stays on disk until a query touches it — and queries
against the memmap are bit-identical to the in-memory store (same
kernels over the same words/bytes). Process-executor workers attach
through :func:`load_worker_shard` instead: the raw manifest plus one
shard's matrices, orders sidecar and the delta chain — never the label
sidecar.

**Append/compact lifecycle**: :func:`append_rows` journals rows added
to a reopened store as per-shard *segment* files — the base matrices
are never rewritten, one segment per touched shard per append,
committed by a manifest rewrite (the manifest is the commit point; an
orphaned segment or delta sidecar from an interrupted append is simply
never read). A reopened store folds each shard's segments in behind its
base matrix in insertion order. Compaction (:func:`save_store` on the
same path, via ``AssociativeStore.compact()``) rewrites contiguous shard
files under a bumped ``generation``, deletes the journal, and restores
the one-lazy-file-per-shard property. All file writes go through a
temp-file + ``os.replace`` swap, so live memmaps of the previous
generation stay valid and a crash never leaves a half-written file
behind.

Labels must be JSON-serializable scalars (``str`` / ``int`` / ``float`` /
``bool``) and round-trip exactly. The manifest never inlines them: the
global insertion-order list lives in a ``labels.g<gen>.json`` sidecar
rewritten only at save/compact, each shard's normative ``orders_*.npy``
sidecar names the global rows its base holds (an open store keeps one
label index, not one per shard), and each journaled commit writes one
``delta.g<gen>.json`` sidecar carrying *only the batch's* labels,
global orders and tombstones. A commit therefore writes O(batch) bytes
— the segment files, one delta, and a small constant-size manifest —
instead of rewriting full label maps; :func:`open_store` replays the
delta chain (validating truncation, label collisions, shard order and
row-count drift — a corrupted chain raises, never mis-answers) and the
documented tie-breaking is preserved across save/open/append cycles.

**One deletion model**: a tombstoned row stays where it is, on disk and
in memory. Open and worker attach flag tombstoned rows in each shard's
dead-row mask instead of gathering the survivors (base memmaps stay
lazy), the opened memory holds the directory's *physical* global
orders, and a delete/upsert commit touches only its batch. Save and
compact fold the dead rows out and renumber densely.

**Pruning bounds**: every shard entry carries a ``bounds`` block — the
exact minus-count interval (``minus_min``/``minus_max``) plus the
geometric ball: a bit-packed majority ``centroid`` (hex-encoded
little-endian uint64 words) and the exact max Hamming ``radius`` of the
rows around it. Save and compact recompute both layers exactly from the
full matrices; the entry's block covers the *base* rows only and every
journaled segment carries its own exact block in its delta sidecar
(computed from just the batch), so appends tighten pruning — the
planner lower-bounds a shard by the min over its base + segment balls.
The normative field-by-field spec lives in ``docs/STORE_FORMAT.md``.

This build reads exactly :data:`FORMAT_VERSION`; a manifest of any
other ``format_version`` is refused at open with a ``ValueError`` that
names the version, the manifest file, and the generation. A CI smoke
step (``python -m repro.hdc.store.smoke``) re-opens — and appends to,
and compacts — a freshly saved store in new processes so format drift
fails the build.
"""

from __future__ import annotations

import json
import math
import re
from itertools import compress
from pathlib import Path

import numpy as np

from ..hypervector import pack_bits, unpack_bipolar
from ..item_memory import ItemMemory, RowMemory
from .faults import active_io
from .routing import ROUTINGS
from .sharded import DEFAULT_CHUNK_SIZE, ShardedItemMemory, validate_batch

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "save_store",
    "open_store",
    "append_rows",
    "delete_rows",
    "upsert_rows",
    "read_manifest",
    "load_worker_shard",
]

FORMAT_NAME = "repro.hdc.store"
#: the one manifest version this build writes and reads
FORMAT_VERSION = 5
MANIFEST_NAME = "manifest.json"

_LABEL_TYPES = (str, int, float, bool)


def _shard_filename(index, generation):
    # Generation-unique: a save/compact never overwrites a data file the
    # previous manifest references, so the manifest swap stays the one
    # and only commit point (a crash on either side leaves an openable
    # store). Stale generations are deleted only after the swap.
    return f"shard_{index:05d}.g{generation:05d}.npy"


def _segment_filename(index, generation):
    return f"shard_{index:05d}.seg{generation:05d}.npy"


def _orders_filename(index, generation):
    # Deliberately NOT matching the "shard_*.npy" cleanup glob.
    return f"orders_{index:05d}.g{generation:05d}.npy"


def _labels_filename(generation):
    # The global insertion-order label list, rewritten at save/compact
    # only — appends never touch it (that is what makes them O(batch)).
    return f"labels.g{generation:05d}.json"


def _delta_filename(generation):
    # One append commit's label/order/bounds sidecar.
    return f"delta.g{generation:05d}.json"


def _check_labels(labels):
    for label in labels:
        if not isinstance(label, _LABEL_TYPES):
            raise TypeError(
                f"label {label!r} of type {type(label).__name__} is not "
                f"JSON-serializable; persistable labels are str/int/float/bool"
            )
        if isinstance(label, float) and not math.isfinite(label):
            # NaN/inf are not standard JSON and NaN breaks the label-set
            # comparison on reopen; fail at save time, not open time.
            raise TypeError(f"label {label!r} is not a finite float")


def _replace_with(path, writer):
    """Write through a sibling temp file, fsync, then swap into place.

    The swap changes the directory entry, not the old inode, so live
    ``np.memmap`` views of the previous file stay valid (compaction can
    rewrite a shard the open store is still reading) and a crash never
    leaves a torn file under the final name. The temp write, the fsync
    and the ``os.replace`` all route through the injectable I/O seam
    (:mod:`.faults`) — a zero-overhead passthrough in production, the
    crash fuzzer's kill points under test.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    io = active_io()
    try:
        writer(tmp, io)
        io.fsync(tmp)
        io.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _save_array(path, array):
    _replace_with(path, lambda tmp, io: io.save_array(tmp, array))


def _write_json(path, payload):
    data = (json.dumps(payload) + "\n").encode("utf-8")
    _replace_with(path, lambda tmp, io: io.write_bytes(tmp, data))


def _write_manifest(path, manifest):
    _write_json(Path(path) / MANIFEST_NAME, manifest)
    return Path(path) / MANIFEST_NAME


def _unlink_stale(path):
    """Garbage-collect one stale file through the injectable seam."""
    active_io().unlink(path)


#: segment fields that persist in the manifest itself — orders and
#: bounds are *materialized* onto segments by :func:`_read_manifest`
#: (from the delta sidecars) and must never be inlined back
_SEGMENT_DISK_KEYS = ("file", "rows", "delta_file")

#: top-level manifest fields materialized by :func:`_read_manifest`
#: (never serialized): the dense surviving label list, the label of
#: every physical order (``slots``), the surviving label → physical
#: order map, and the sorted tombstoned orders — all O(store),
#: reconstructed from the sidecars + delta chain on open
_MANIFEST_MATERIALIZED_KEYS = ("labels", "slots", "label_orders",
                               "deleted_orders")

#: shard-entry fields materialized by :func:`_read_manifest` (no labels)
_ENTRY_MATERIALIZED_KEYS = ("orders",)


def _manifest_to_disk(manifest):
    """The serializable manifest: strip every materialized field.

    :func:`_read_manifest` materializes the global surviving ``labels``
    list, the ``slots`` / ``label_orders`` / ``deleted_orders``
    physical-order maps, each shard entry's ``orders``, and each
    segment's ``orders`` / ``bounds`` into the returned dict so
    in-process callers see one uniform shape. On
    disk those belong to the label/orders/delta sidecars — inlining
    them back would make every commit O(store) again.
    """
    out = {
        key: value for key, value in manifest.items()
        if key not in _MANIFEST_MATERIALIZED_KEYS
    }
    out["shards"] = [
        {
            **{key: value for key, value in entry.items()
               if key not in _ENTRY_MATERIALIZED_KEYS},
            "segments": [
                {key: segment[key] for key in _SEGMENT_DISK_KEYS
                 if key in segment}
                for segment in entry["segments"]
            ],
        }
        for entry in manifest["shards"]
    ]
    return out


def _collect_stale_sidecars(path, manifest):
    """Delete label/orders/delta sidecars the committed manifest no
    longer references (previous generations, folded journal chains)."""
    path = Path(path)
    orders = {
        entry.get("orders_file")
        for entry in manifest["shards"]
        if entry.get("orders_file")
    }
    for stale in path.glob("orders_*.npy"):
        if stale.name not in orders:
            _unlink_stale(stale)
    labels = {manifest.get("labels_file")}
    for stale in path.glob("labels.g*.json"):
        if stale.name not in labels:
            _unlink_stale(stale)
    # The manifest names its whole delta chain (pure-delete commits
    # journal no segment, so segment references alone would leak them).
    deltas = set(manifest["deltas"])
    for stale in path.glob("delta.g*.json"):
        if stale.name not in deltas:
            _unlink_stale(stale)


def _centroid_to_hex(backend, native_centroid):
    """Encode a backend-native centroid row as portable hex.

    The manifest encoding is backend-independent: the centroid's
    *bit-packed* form (bit 1 ↔ bipolar −1, component ``i`` in word
    ``i // 64`` at bit ``i % 64``), serialized as little-endian uint64
    words — ``dim/4`` hex characters regardless of the store backend,
    so a dense store's manifest is byte-identical to its packed twin's.
    A packed centroid already is those words (its padding bits are
    zero); a dense one is packed once.
    """
    native = np.asarray(native_centroid)
    words = native if backend.name == "packed" else pack_bits(native < 0)
    return words.astype("<u8").tobytes().hex()


def _centroid_from_hex(backend, text):
    """Decode a manifest centroid back into the backend's native row."""
    words = np.frombuffer(bytes.fromhex(text), dtype="<u8").astype(np.uint64)
    expected = (backend.dim + 63) // 64
    if words.shape != (expected,):
        raise ValueError(
            f"centroid encodes {words.shape[0]} words, expected {expected} "
            f"for dim {backend.dim}"
        )
    return backend.from_bipolar(unpack_bipolar(words, backend.dim))


def _exact_bounds(backend, native):
    """Both pruning layers of a native matrix, recomputed exactly.

    Returns the manifest ``bounds`` block for a shard holding ``native``
    (which must be non-empty): the per-row minus-count interval and the
    majority centroid + max-radius ball. One extra bounded-memory pass
    per layer at save/compact time buys every later query its skip test.
    """
    counts = backend.minus_counts(native)
    centroid = backend.centroid(backend.column_minus_counts(native),
                                native.shape[0])
    radius = int(np.max(np.atleast_1d(backend.hamming(centroid, native))))
    return {
        "minus_min": int(counts.min()),
        "minus_max": int(counts.max()),
        "centroid": _centroid_to_hex(backend, centroid),
        "radius": radius,
    }, centroid


_EMPTY_BOUNDS = {"minus_min": None, "minus_max": None,
                 "centroid": None, "radius": None}


def _next_generation(path):
    """Generation for the next manifest written at ``path`` (0 if fresh).

    Reads the raw manifest JSON only — no sidecar materialization — so
    saving over a large (or partially corrupted) store never pays, or
    trips over, a delta-chain replay just to bump a counter.
    """
    try:
        raw = json.loads((Path(path) / MANIFEST_NAME).read_text())
        return int(raw.get("generation", 0)) + 1
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return 0


def save_store(memory, path):
    """Write an :class:`ItemMemory` or :class:`ShardedItemMemory` to ``path``.

    Creates the directory (parents included) and writes *contiguous*
    shard files — the memory first folds out every dead row (and a
    sharded memory renumbers its global orders densely), so saving over
    a store that has journaled append, replacement, or tombstone commits
    folds them all in (survivors only, bounds recomputed exactly) and
    deletes the journal, i.e. this is also the compaction primitive. The
    manifest it wrote stays on the memory, so the next commit against
    ``path`` skips the cold re-read. Returns the manifest path.
    """
    if isinstance(memory, ItemMemory):
        kind, shards, routing = "single", [memory], None
        if memory._dead:
            memory._fold()
    elif isinstance(memory, ShardedItemMemory):
        kind, shards, routing = "sharded", list(memory.shards), memory.routing
        memory._compact()
    else:
        raise TypeError(
            f"cannot save {type(memory).__name__}; expected ItemMemory or "
            f"ShardedItemMemory (AssociativeStore saves via .save())"
        )
    labels = list(memory.labels)
    _check_labels(labels)

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    generation = _next_generation(path)
    # Crash-safe ordering: (1) write this generation's data files under
    # names no earlier manifest references, (2) swap the manifest —
    # the commit point — then (3) garbage-collect files the committed
    # manifest no longer names (stale shards of a wider layout, folded
    # append segments, previous generations). A crash at any point
    # leaves a directory whose manifest fully describes existing files.
    shard_entries = []
    fresh_geo = []
    for index, shard in enumerate(shards):
        filename = _shard_filename(index, generation)
        native = shard.native_matrix()
        _save_array(path / filename, native)
        entry = {"file": filename, "rows": len(shard), "segments": []}
        if kind == "sharded":
            # Per-shard global insertion orders (dense after the fold,
            # ascending) as a normative sidecar .npy: the global rows the
            # shard holds. Open and process workers attach through it
            # without a label list per shard.
            entry["orders_file"] = _orders_filename(index, generation)
            _save_array(path / entry["orders_file"], memory._orders_of(index))
        if len(shard):
            # Exact per-shard pruning bounds, both layers recomputed from
            # the full matrix: the minus-count interval
            # (|minus(q) − minus(x)| ≤ hamming) and the geometric ball
            # (d(q, x) ≥ d(q, centroid) − radius). Save/compact is the
            # point where the centroid re-tightens to the true majority.
            entry["bounds"], centroid = _exact_bounds(shard.backend, native)
            fresh_geo.append((centroid, entry["bounds"]["radius"]))
        else:
            entry["bounds"] = dict(_EMPTY_BOUNDS)
            fresh_geo.append(None)
        shard_entries.append(entry)
    # The global label list is a sidecar: save/compact is the only
    # point that rewrites it, so appends stay O(batch).
    labels_name = _labels_filename(generation)
    _write_json(path / labels_name, labels)
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dim": int(shards[0].dim),
        "backend": shards[0].backend.name,
        "routing": routing,
        "num_shards": len(shards),
        "generation": generation,
        "rows": len(labels),
        # Save/compact folds every tombstone and replacement out, so the
        # fresh generation starts with an empty delta chain and physical
        # orders dense again (next_order == rows).
        "next_order": len(labels),
        "deltas": [],
        "labels_file": labels_name,
        "shards": shard_entries,
    }
    manifest_path = _write_manifest(path, manifest)
    current = {entry["file"] for entry in shard_entries}
    for stale in path.glob("shard_*.npy"):
        if stale.name not in current:
            _unlink_stale(stale)
    _collect_stale_sidecars(path, manifest)
    if kind == "single":
        manifest["label_orders"] = {label: i for i, label in enumerate(labels)}
    memory._manifest_cache = (path, manifest)
    if isinstance(memory, ShardedItemMemory):
        # The saved directory is now a faithful copy of this memory:
        # process-executor workers may re-open it instead of spilling.
        # Adopt the freshly recomputed bounds in memory too, so the open
        # handle prunes with the same (possibly tighter) bounds a fresh
        # reopen would see — compact() is how a store with unknown
        # bounds starts skipping without a round trip through open().
        # The journaled segment groups folded into the fresh base
        # bounds, so they reset alongside.
        memory._attach(path, generation)
        memory._pop_bounds = [
            (entry["bounds"]["minus_min"], entry["bounds"]["minus_max"])
            if len(shard) else memory.EMPTY_POP_BOUNDS
            for entry, shard in zip(shard_entries, shards)
        ]
        memory._geo_centroid = [
            None if geo is None else geo[0] for geo in fresh_geo
        ]
        memory._geo_radius = [
            None if geo is None else int(geo[1]) for geo in fresh_geo
        ]
        memory._segment_groups = [[] for _ in shard_entries]
        memory._invalidate_bound_state()
    return manifest_path


def read_manifest(path):
    """Read, validate and materialize the store manifest at ``path``.

    Returns the manifest dict with every sidecar-held field filled in
    (labels, label → order map, orders, segment bounds; no label list
    per shard), JSON-serializable — an O(store) inspection helper for
    tests and tools; most callers want :func:`open_store` instead.
    """
    manifest = _read_manifest(path)
    for entry in manifest["shards"]:
        entry["orders"] = entry["orders"].tolist()
    return manifest


def _gen_tag(file_path, generation):
    """Uniform corruption-message suffix: offending file + generation.

    Every corruption raise in this module carries it — the crash fuzzer
    (:mod:`.crash_fuzz`) asserts that refused stores name both the file
    and the generation, so operators can tell *which* commit's artifact
    is damaged without spelunking the directory.
    """
    generation = "unknown" if generation is None else generation
    return f" [file {file_path}, generation {generation}]"


def _file_generation(name, fallback=None):
    """The generation baked into an artifact's file name, or ``fallback``.

    Shard/orders/label/delta names carry ``.g<gen>.`` and segment names
    ``.seg<gen>.`` (the commit that wrote them) — the most precise
    generation a corruption message can name, since base files legally
    outlive the manifest generation across appends.
    """
    match = re.search(r"\.(?:g|seg)(\d+)\.", str(name))
    return int(match.group(1)) if match else fallback


#: (field, type) pairs every manifest, shard entry and segment entry
#: must hold; checked once, by _read_raw_manifest, before any reader
#: indexes them
_MANIFEST_FIELDS = (("generation", int), ("dim", int), ("backend", str),
                    ("num_shards", int), ("shards", list))
_SEGMENT_FIELDS = (("file", str), ("rows", int))
_SHARD_FIELDS = _SEGMENT_FIELDS + (("segments", list),)
#: the same for every delta sidecar and its records, checked once, by
#: _load_delta, for open and worker attach alike
_DELTA_FIELDS = (("entries", list), ("tombstones", list))
_DELTA_ENTRY_FIELDS = (("shard", int), ("file", str), ("labels", list),
                       ("orders", list))
_TOMBSTONE_FIELDS = (("shard", int), ("labels", list), ("orders", list))


def _check_fields(record, fields, what, tag):
    """Refuse ``record`` unless it is a JSON object holding ``fields``."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} is not a JSON object ({record!r})" + tag)
    for field, kind in fields:
        if not isinstance(record.get(field), kind):
            raise ValueError(
                f"{what} field {field!r} is missing or not a "
                f"{kind.__name__} ({record.get(field)!r})" + tag
            )


def _read_raw_manifest(path):
    """The validated manifest JSON at ``path``, nothing materialized.

    Checks the envelope — format name, version, kind, routing, shard
    count — and the presence and type of every field readers index
    (:data:`_MANIFEST_FIELDS`, and per shard and segment entry
    :data:`_SHARD_FIELDS` / :data:`_SEGMENT_FIELDS`). Refuses any
    ``format_version`` other than :data:`FORMAT_VERSION`, and any
    malformed field, with a ``ValueError`` naming the manifest file and
    the generation.
    """
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"no store manifest at {manifest_path}"
            + _gen_tag(manifest_path, None)
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise ValueError(
            f"corrupted manifest {manifest_path}: {exc}"
            + _gen_tag(manifest_path, None)
        ) from exc
    if not isinstance(manifest, dict):
        raise ValueError(
            f"{manifest_path} does not hold a JSON object"
            + _gen_tag(manifest_path, None)
        )
    tag = _gen_tag(manifest_path, manifest.get("generation"))
    if manifest.get("format") != FORMAT_NAME:
        raise ValueError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest "
            f"(format={manifest.get('format')!r})" + tag
        )
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"store format version {version!r} is not supported (this build "
            f"reads version {FORMAT_VERSION} only)" + tag
        )
    if manifest.get("kind") not in ("single", "sharded"):
        raise ValueError(f"unknown store kind {manifest.get('kind')!r}" + tag)
    if manifest["kind"] == "sharded" and manifest.get("routing") not in ROUTINGS:
        raise ValueError(
            f"unknown routing policy {manifest.get('routing')!r}" + tag
        )
    _check_fields(manifest, _MANIFEST_FIELDS, "manifest", tag)
    for index, entry in enumerate(manifest["shards"]):
        _check_fields(entry, _SHARD_FIELDS, f"manifest shard entry {index}", tag)
        for position, segment in enumerate(entry["segments"]):
            _check_fields(segment, _SEGMENT_FIELDS,
                          f"manifest segment {position} of shard entry {index}",
                          tag)
    if len(manifest["shards"]) != manifest["num_shards"]:
        raise ValueError(
            f"manifest records num_shards={manifest['num_shards']} but holds "
            f"{len(manifest['shards'])} shard entries" + tag
        )
    return manifest


def _read_manifest(path):
    manifest = _read_raw_manifest(path)
    for entry in manifest["shards"]:
        # Bounds are performance metadata: a missing or malformed block
        # reads as unknown layers (never skipping), not as corruption.
        entry["bounds"] = _bounds_block(entry.get("bounds"))
    _materialize_sidecars(Path(path), manifest)
    return manifest


def _cached_manifest(memory, path):
    """The manifest the handle last wrote or read at ``path``, reusable
    iff the directory's generation still matches.

    Materializing a manifest is O(store) — the label sidecar parse plus
    the orders/delta replay — and a handle doing high-rate commits
    would otherwise pay it once per commit. Save, open and every commit
    therefore leave the on-disk manifest dict on the handle (plus, for
    a single-shard store, its label → physical order map; a sharded
    memory holds those orders itself); the next commit reuses it after
    one cheap raw read confirms the on-disk ``generation`` is
    unchanged. Any foreign commit — another handle's append, a compact,
    a directory swap — bumps the generation and misses the cache, and
    :func:`_prepare_commit` still checks the row count against the
    cached copy, so a diverged handle is refused exactly as before.
    """
    cached = getattr(memory, "_manifest_cache", None)
    if cached is None or cached[0] != path:
        return None
    manifest = cached[1]
    try:
        raw = json.loads((Path(path) / MANIFEST_NAME).read_text())
        current = (raw.get("generation"), raw.get("format_version"))
    except (OSError, ValueError, AttributeError):
        return None
    if current != (manifest["generation"], FORMAT_VERSION):
        return None
    return manifest


def _bounds_block(raw):
    """Normalize a serialized bounds block; missing layers stay unknown."""
    bounds = dict(raw) if isinstance(raw, dict) else {}
    for key in _EMPTY_BOUNDS:
        bounds.setdefault(key, None)
    return bounds


def _materialize_sidecars(path, manifest):
    """Rebuild the in-memory label/orders/bounds view of a manifest.

    Loads the global label sidecar and each shard's normative orders
    sidecar, then replays the journaled delta chain in generation order
    (appends and tombstone/replacement commits). Every structural
    inconsistency — truncated or missing sidecars, orders that do not
    partition the base rows, a delta that chains from the wrong row
    count, insertion orders that are not the contiguous next block, a
    tombstone naming a dead, unknown, or mislabelled slot, a journaled
    segment without its delta record, a label live at two orders —
    raises: a corrupted store must fail to open, not mis-answer. The
    materialized fields (``manifest["labels"]`` — the *surviving*
    labels in physical order — plus ``label_orders`` / ``slots`` /
    ``deleted_orders``, entry ``orders``, segment ``orders``/``bounds``)
    exist only in the returned dict; :func:`_manifest_to_disk` strips
    them on write.
    """
    generation = manifest.get("generation")
    labels_name = manifest.get("labels_file")
    if not isinstance(labels_name, str):
        raise ValueError(
            "manifest does not name a labels_file"
            + _gen_tag(path / MANIFEST_NAME, generation)
        )
    labels_path = path / labels_name
    if not labels_path.is_file():
        raise FileNotFoundError(
            f"missing labels file {labels_path}"
            + _gen_tag(labels_path, generation)
        )
    try:
        labels = json.loads(labels_path.read_text())
    except ValueError as exc:
        raise ValueError(
            f"corrupted labels file {labels_path}: {exc}"
            + _gen_tag(labels_path, generation)
        ) from exc
    if not isinstance(labels, list):
        raise ValueError(
            f"labels file {labels_path} does not hold a JSON list"
            + _gen_tag(labels_path, generation)
        )
    base_rows = sum(int(entry["rows"]) for entry in manifest["shards"])
    if len(labels) != base_rows:
        raise ValueError(
            f"labels file {labels_path} holds {len(labels)} labels but the "
            f"manifest's shard entries record {base_rows} base rows"
            + _gen_tag(labels_path, generation)
        )
    # Base orders stay int64 arrays here (open and commits index with
    # them); read_manifest() hands its callers plain lists.
    if manifest["kind"] == "single":
        manifest["shards"][0]["orders"] = np.arange(len(labels))
    else:
        assigned = np.zeros(len(labels), dtype=bool)
        for index, entry in enumerate(manifest["shards"]):
            orders = _load_base_orders(path, index, entry, len(labels),
                                       generation)
            if orders.size:
                if bool(assigned[orders].any()):
                    raise ValueError(
                        f"orders sidecars assign a global row to shard {index} "
                        f"and to an earlier shard"
                        + _gen_tag(path / entry["orders_file"], generation)
                    )
                assigned[orders] = True
            entry["orders"] = orders
        if not bool(assigned.all()):
            raise ValueError(
                "orders sidecars do not cover every row of the labels file"
                + _gen_tag(labels_path, generation)
            )
    deleted = _replay_deltas(path, manifest, labels)
    # ``labels`` is now the full *physical* slot list (tombstoned slots
    # keep their label); the surviving view is what readers consume.
    manifest["slots"] = labels
    manifest["deleted_orders"] = deleted
    live = np.ones(len(labels), dtype=bool)
    live[np.asarray(deleted, dtype=np.int64)] = False
    manifest["labels"] = list(compress(labels, live))
    orders = np.flatnonzero(live).tolist()
    manifest["label_orders"] = dict(zip(manifest["labels"], orders))
    if len(manifest["label_orders"]) != len(orders):
        seen = {}  # a label live at two orders: name the file enrolling the later
        label, order = next(pair for pair in zip(manifest["labels"], orders)
                            if seen.setdefault(*pair) != pair[1])
        source = next((path / seg["delta_file"] for entry in manifest["shards"]
                       for seg in entry["segments"] if order in seg["orders"]), labels_path)
        raise ValueError(f"label {label!r} is live at physical rows {seen[label]} and "
                         f"{order} (label collision)"
                         + _gen_tag(source, _file_generation(source.name, generation)))
    if manifest.get("next_order") != len(labels):
        raise ValueError(
            f"manifest records next_order={manifest.get('next_order')} "
            f"but the delta chain reconstructs {len(labels)} physical "
            f"rows (row-count drift)"
            + _gen_tag(path / MANIFEST_NAME, generation)
        )
    total = manifest.get("rows")
    if total is not None and int(total) != len(manifest["labels"]):
        raise ValueError(
            f"manifest records {total} rows but its label sidecars and delta "
            f"chain reconstruct {len(manifest['labels'])} surviving rows "
            f"(row-count drift)"
            + _gen_tag(path / MANIFEST_NAME, generation)
        )


def _load_base_orders(path, index, entry, num_labels, generation=None):
    """One shard entry's validated base global-orders array."""
    orders_name = entry.get("orders_file")
    if not isinstance(orders_name, str):
        raise ValueError(
            f"shard entry {index} does not name an orders_file"
            + _gen_tag(path / MANIFEST_NAME, generation)
        )
    orders_path = path / orders_name
    if not orders_path.is_file():
        raise FileNotFoundError(
            f"missing orders file {orders_path}"
            + _gen_tag(orders_path, generation)
        )
    try:
        orders = np.asarray(np.load(orders_path), dtype=np.int64)
    except (ValueError, EOFError, OSError) as exc:
        raise ValueError(
            f"corrupted orders file {orders_path}: {exc}"
            + _gen_tag(orders_path, generation)
        ) from exc
    if orders.ndim != 1 or orders.shape[0] != int(entry["rows"]):
        raise ValueError(
            f"{orders_path} holds {orders.shape} orders but the manifest "
            f"records {entry['rows']} base rows for shard {index}"
            + _gen_tag(orders_path, generation)
        )
    if orders.size and (int(orders.min()) < 0 or int(orders.max()) >= num_labels):
        raise ValueError(
            f"{orders_path} references global rows outside the "
            f"{num_labels}-row labels file"
            + _gen_tag(orders_path, generation)
        )
    return orders


def _load_delta(path, name, generation):
    """One delta sidecar's JSON object plus its corruption-message tag.

    Refuses a sidecar that is not a delta, or whose ``entries`` /
    ``tombstones`` records miss a field or hold one of the wrong JSON
    type (:data:`_DELTA_FIELDS`, :data:`_DELTA_ENTRY_FIELDS`,
    :data:`_TOMBSTONE_FIELDS`), with a ``ValueError`` naming the file
    and its generation — before any reader indexes them.
    """
    delta_path = path / name
    tag = _gen_tag(delta_path, _file_generation(name, generation))
    if not delta_path.is_file():
        raise FileNotFoundError(f"missing delta sidecar {delta_path}" + tag)
    try:
        delta = json.loads(delta_path.read_text())
    except ValueError as exc:
        raise ValueError(
            f"corrupted delta sidecar {delta_path}: {exc}" + tag
        ) from exc
    if not isinstance(delta, dict) or delta.get("format") != FORMAT_NAME:
        raise ValueError(
            f"{delta_path} is not a {FORMAT_NAME} delta sidecar" + tag
        )
    _check_fields(delta, _DELTA_FIELDS, f"delta sidecar {delta_path}", tag)
    for position, part in enumerate(delta["entries"]):
        _check_fields(part, _DELTA_ENTRY_FIELDS,
                      f"{delta_path} segment entry {position}", tag)
    for position, group in enumerate(delta["tombstones"]):
        _check_fields(group, _TOMBSTONE_FIELDS,
                      f"{delta_path} tombstone group {position}", tag)
    return delta, tag


def _replay_deltas(path, manifest, labels):
    """Replay the journaled delta chain, extending ``labels`` in place.

    Deltas are replayed in generation order. ``labels`` enters holding
    the *physical* base slots (one per base row) and leaves holding
    every physical slot ever committed — appends extend it, tombstones
    never shrink it (a dead slot keeps its label, so corruption stays
    attributable). Returns the sorted physical orders of every
    tombstoned slot.

    The chain is the manifest's explicit ``deltas`` list — a pure-delete
    commit journals no segment — and each delta carries its ``op``
    (``append`` / ``delete`` / ``upsert``), the surviving-row count it
    chains from (``base_rows``), its physical length (``next_order``),
    appended segment ``entries``, and per-shard ``tombstones``.
    Tombstones apply before the same commit's appended rows (an upsert
    re-enrolls the replaced labels at the end of the insertion order).
    Each delta must chain from exactly the surviving/physical counts the
    prior state reconstructs, cover exactly the journaled segments that
    reference it, and assign the contiguous next block of physical
    insertion orders; each covered segment gains its materialized
    ``labels``, ``orders``, and per-segment ``bounds``, and every
    structural inconsistency — including a tombstone naming an unknown,
    already-dead, mislabelled, or wrong-shard slot — raises.
    """
    manifest_tag = _gen_tag(path / MANIFEST_NAME, manifest.get("generation"))
    by_delta = {}
    for index, entry in enumerate(manifest["shards"]):
        for segment in entry["segments"]:
            name = segment.get("delta_file")
            if not isinstance(name, str):
                raise ValueError(
                    f"journaled segment {segment.get('file')!r} names no "
                    f"delta sidecar" + manifest_tag
                )
            by_delta.setdefault(name, {})[(index, segment["file"])] = segment
    names = manifest.get("deltas")
    if not isinstance(names, list) \
            or not all(isinstance(name, str) for name in names) \
            or len(set(names)) != len(names):
        raise ValueError(
            f"manifest does not carry a valid delta chain "
            f"({manifest.get('deltas')!r})" + manifest_tag
        )
    orphaned = set(by_delta) - set(names)
    if orphaned:
        missing = ", ".join(repr(name) for name in sorted(orphaned))
        raise ValueError(
            f"journaled segments reference delta sidecar(s) {missing} "
            f"absent from the manifest delta chain" + manifest_tag
        )
    # Physical order → owning shard, extended as appends replay, so a
    # tombstone's shard attribution validates in O(1).
    shard_of = np.zeros(len(labels), dtype=np.int64)
    if manifest["kind"] == "sharded":
        for index, entry in enumerate(manifest["shards"]):
            shard_of[entry["orders"]] = index
    dead = set()
    for name in names:
        delta_path = path / name
        delta, tag = _load_delta(path, name, manifest.get("generation"))
        op = delta.get("op")
        if op not in ("append", "delete", "upsert"):
            raise ValueError(f"{delta_path} records unknown op {op!r}" + tag)
        tombstones = delta["tombstones"]
        live = len(labels) - len(dead)
        if int(delta.get("base_rows", -1)) != live:
            raise ValueError(
                f"{delta_path} chains from {delta.get('base_rows')} rows but "
                f"{live} rows precede it (row-count drift)" + tag
            )
        if op == "append" and tombstones:
            raise ValueError(
                f"{delta_path} records op 'append' but carries tombstones"
                + tag
            )
        if delta.get("next_order") != len(labels):
            raise ValueError(
                f"{delta_path} chains from physical row "
                f"{delta.get('next_order')} but {len(labels)} physical rows "
                f"precede it (row-count drift)" + tag
            )
        for group in tombstones:
            t_shard, t_labels, t_orders = (
                group["shard"], group["labels"], group["orders"])
            if not 0 <= t_shard < len(manifest["shards"]) \
                    or len(t_labels) != len(t_orders):
                raise ValueError(
                    f"{delta_path} carries a malformed tombstone group" + tag
                )
            for t_label, order in zip(t_labels, t_orders):
                order = int(order)
                if not 0 <= order < len(labels):
                    raise ValueError(
                        f"{delta_path} tombstones physical row {order} "
                        f"outside the {len(labels)} committed rows" + tag
                    )
                if order in dead:
                    raise ValueError(
                        f"{delta_path} tombstones physical row {order} twice"
                        + tag
                    )
                if labels[order] != t_label:
                    raise ValueError(
                        f"{delta_path} tombstones row {order} as {t_label!r} "
                        f"but the chain holds {labels[order]!r}" + tag
                    )
                if int(shard_of[order]) != t_shard:
                    raise ValueError(
                        f"{delta_path} tombstones row {order} in shard "
                        f"{t_shard} but the row lives in shard "
                        f"{int(shard_of[order])}" + tag
                    )
                dead.add(order)
        pending = dict(by_delta.get(name, ()))
        batch = {}
        for part in delta["entries"]:
            key = (part["shard"], part["file"])
            segment = pending.pop(key, None)
            if segment is None:
                raise ValueError(
                    f"{delta_path} records segment {part['file']!r} of shard "
                    f"{part['shard']} that the manifest does not journal" + tag
                )
            part_labels, part_orders = part["labels"], part["orders"]
            if len(part_labels) != len(part_orders) \
                    or len(part_labels) != int(segment["rows"]):
                raise ValueError(
                    f"{delta_path} labels/orders for segment {part['file']!r} "
                    f"do not match its {segment['rows']} manifest rows" + tag
                )
            for label, order in zip(part_labels, part_orders):
                order = int(order)
                if order in batch:
                    raise ValueError(
                        f"{delta_path} assigns global insertion order {order} "
                        f"twice" + tag
                    )
                batch[order] = (label, part["shard"])
            segment["orders"] = [int(order) for order in part_orders]
            segment["bounds"] = _bounds_block(part.get("bounds"))
        if pending:
            missing = ", ".join(
                f"{file!r} (shard {shard})" for shard, file in sorted(pending)
            )
            raise ValueError(
                f"{delta_path} does not cover segment(s) {missing}" + tag
            )
        if batch and op == "delete":
            raise ValueError(
                f"{delta_path} records op 'delete' but carries appended "
                f"segment entries" + tag
            )
        expected = range(len(labels), len(labels) + len(batch))
        if sorted(batch) != list(expected):
            raise ValueError(
                f"{delta_path} insertion orders are not the contiguous block "
                f"[{expected.start}, {expected.stop}) (row-count drift)" + tag
            )
        if len(batch):
            shard_of = np.concatenate([
                shard_of,
                np.asarray([batch[order][1] for order in expected],
                           dtype=np.int64),
            ])
        labels.extend(batch[order][0] for order in expected)
    return sorted(dead)


def _load_matrix(path, entry, what, mmap, generation=None):
    """Load one base/segment file, validating it against its manifest entry."""
    file_path = path / entry["file"]
    tag = _gen_tag(file_path, _file_generation(entry["file"], generation))
    if not file_path.is_file():
        raise FileNotFoundError(f"missing {what} file {file_path}" + tag)
    try:
        matrix = np.load(file_path, mmap_mode="r" if mmap else None)
    except (ValueError, EOFError, OSError) as exc:
        raise ValueError(
            f"corrupted {what} file {file_path}: {exc}" + tag
        ) from exc
    if matrix.ndim != 2 or matrix.shape[0] != entry["rows"]:
        raise ValueError(
            f"{file_path} holds {matrix.shape[0] if matrix.ndim else 0} rows but "
            f"the manifest records {entry['rows']}" + tag
        )
    return matrix


def open_store(path, mmap=True):
    """Reopen a saved store; vector data loads lazily via ``np.memmap``.

    Returns an :class:`ItemMemory` (kind ``"single"``) or a
    :class:`ShardedItemMemory` (kind ``"sharded"``). With ``mmap=True``
    (default) each shard's *base* matrix is an ``np.load(...,
    mmap_mode="r")`` view — no vector data is materialized until
    queried, so opening costs only the label-map rebuild (O(labels)).
    Journaled append segments (if any) fold in behind the base matrix in
    insertion order; the first query materializes such a shard into RAM
    (``compact()`` restores the fully lazy layout). A segment whose rows,
    dtype, or width disagree with the manifest raises — a corrupted
    journal must fail, never mis-answer. ``mmap=False`` reads everything
    into RAM up front (useful when the store directory is about to be
    deleted).
    """
    path = Path(path)
    manifest = _read_manifest(path)
    dead = np.asarray(manifest["deleted_orders"], dtype=np.int64)
    assembled = [
        _assemble_shard(path, manifest, _entry_parts(entry), dead, mmap)
        for entry in manifest["shards"]
    ]
    if manifest["kind"] == "single":
        # One shard: its physical rows are the global physical orders, so
        # the slots label its rows and label_orders indexes them.
        memory = assembled[0][0]
        memory._labels = manifest["slots"]
        memory._label_index = dict(manifest["label_orders"])
        if memory._fold_due():
            memory._fold()
    else:
        backend = assembled[0][0].backend
        bounds = [_parsed_bounds(entry["bounds"], backend)
                  for entry in manifest["shards"]]
        memory = ShardedItemMemory._from_shards(
            [shard for shard, _ in assembled],
            [orders for _, orders in assembled],
            manifest["slots"], manifest["label_orders"],
            manifest["deleted_orders"], manifest["routing"],
            [pop for pop, _ in bounds], [geo for _, geo in bounds],
            # one group per journaled segment, from its delta's block
            [[(int(segment["rows"]), *_parsed_bounds(segment["bounds"], backend))
              for segment in entry["segments"]]
             for entry in manifest["shards"]],
        )
        memory._attach(path, manifest["generation"])
    # The memory mirrors the directory: its first commit needs no re-read.
    memory._manifest_cache = (path, _commit_manifest(manifest, memory))
    return memory


def _commit_manifest(manifest, memory):
    """The manifest a commit works on: the on-disk fields, plus (for a
    single-shard store, whose rows renumber when it folds) the label →
    physical order map. A sharded memory holds the physical orders."""
    out = _manifest_to_disk(manifest)
    if isinstance(memory, ItemMemory):
        out["label_orders"] = manifest["label_orders"]
    return out


def _parsed_bounds(block, backend):
    """A bounds block's ``(pop, geo)`` layers for the query planner.

    ``pop`` is the minus-count interval and ``geo`` the ``(native
    centroid, radius)`` ball; either is ``None`` when unknown — ``null``
    or malformed, since bounds are advisory and never refuse a store —
    and the planner never skips on it. A block is not recomputed when
    tombstones thin its rows: a deletion only shrinks the population,
    so it stays a valid (possibly loose) superset until compact
    re-tightens it.
    """
    pop = geo = None
    try:
        if block["minus_min"] is not None and block["minus_max"] is not None:
            pop = (int(block["minus_min"]), int(block["minus_max"]))
    except (TypeError, ValueError):
        pass
    try:
        if block["centroid"] is not None and block["radius"] is not None:
            geo = (_centroid_from_hex(backend, block["centroid"]),
                   int(block["radius"]))
    except (TypeError, ValueError):
        pass
    return pop, geo


def _entry_parts(entry):
    """``(record, orders)`` of a materialized shard entry's base rows and
    of each journaled segment, in physical order."""
    return [(record, np.asarray(record["orders"], dtype=np.int64))
            for record in [entry] + entry["segments"]]


def _assemble_shard(path, manifest, parts, dead, mmap):
    """One shard's rows, no labels: its base file, then its segments.

    ``parts`` are ``(record, orders)`` per file in physical order (the
    single-shard kind gets a still label-free :class:`ItemMemory`). Every
    row whose global order is in ``dead`` (sorted) is flagged in the
    shard's dead-row mask as soon as its file is in, never gathered — so
    a base memmap stays lazy. A file whose rows, dtype, or width
    disagree with the manifest raises, naming it, and so do orders not
    strictly increasing across the shard (rows are found by binary
    search of their orders). Returns the shard and its orders.
    """
    generation = manifest.get("generation")
    kind = ItemMemory if manifest["kind"] == "single" else RowMemory
    shard = kind(manifest["dim"], backend=manifest["backend"])
    start, last = 0, -1
    for position, (record, orders) in enumerate(parts):
        if orders.size and (int(orders[0]) <= last
                            or bool((np.diff(orders) <= 0).any())):
            source = path / record["delta_file" if position else "orders_file"]
            raise ValueError(
                f"{source} lists shard orders that are not strictly increasing"
                + _gen_tag(source, _file_generation(source.name, generation))
            )
        last = int(orders[-1]) if orders.size else last
        what = "segment" if position else "shard"
        matrix = _load_matrix(path, record, what, mmap, generation)
        try:
            shard._take(matrix, what)
        except (ValueError, TypeError) as exc:
            # The memory validates dtype/width against the backend; name
            # the offending file so it is attributable.
            raise ValueError(
                f"{what} file {path / record['file']} does not match the "
                f"manifest: {exc}"
                + _gen_tag(path / record["file"],
                           _file_generation(record["file"], generation))
            ) from exc
        if dead.size:
            hit = np.flatnonzero(np.isin(orders, dead))
            if hit.size:
                shard._kill((hit + start).tolist())
        start += len(orders)
    return shard, np.concatenate([orders for _, orders in parts])


def load_worker_shard(path, shard_index, generation, mmap=True):
    """A process worker's attach: one shard plus its physical global orders.

    Reads the raw manifest (validated, never materialized), the shard's
    base matrix and orders sidecar, its journaled segments, and the
    delta chain — no label sidecar, so attaching to a million-item store
    costs a few small reads and a memmap. Tombstoned rows are flagged in
    the shard's dead-row mask (folded out only if they reach its live
    rows, the memory-wide rule), and the orders are the directory's
    physical ones — exactly what the controller holds, so partials need
    no translation. Returns ``(RowMemory, orders)``: a label-free shard,
    since query partials only ever carry distances plus ``orders``.

    Raises ``RuntimeError`` when the directory is no longer at
    ``generation`` (it changed under the open store — re-open it), and
    ``FileNotFoundError`` / ``ValueError`` naming the file and the
    generation on any other inconsistency.
    """
    return _attach_worker_shard(_worker_chain(path, generation), shard_index, mmap)


def _worker_chain(path, generation):
    """What every worker attach of one generation reads in common.

    The raw manifest and its delta chain, each sidecar parsed once,
    reduced to ``(path, manifest, segment orders, dead orders)``: the
    global orders of every journaled segment, keyed by ``(delta file,
    shard, segment file)``, and the sorted tombstoned orders. A worker
    attaching several shards of one generation reads them once
    (:func:`~.parallel._worker_shard` keeps the result beside the
    shards). Raises like :func:`load_worker_shard`.
    """
    path = Path(path)
    manifest = _read_raw_manifest(path)
    if manifest.get("generation") != generation:
        raise RuntimeError(
            f"store at {path} is at generation {manifest.get('generation')} "
            f"but the query expected generation {generation}; the directory "
            f"changed under the open store — re-open it"
        )
    segment_orders, dead = {}, []
    for name in manifest["deltas"]:
        delta = _load_delta(path, name, generation)[0]
        for part in delta["entries"]:
            segment_orders.setdefault((name, part["shard"], part["file"]),
                                      part["orders"])
        for group in delta["tombstones"]:
            dead.extend(group["orders"])
    return path, manifest, segment_orders, np.unique(np.asarray(dead, dtype=np.int64))


def _attach_worker_shard(chain, shard_index, mmap=True):
    """:func:`load_worker_shard` for one shard of a :func:`_worker_chain`."""
    path, manifest, segment_orders, dead = chain
    generation = manifest["generation"]
    shards = manifest["shards"]
    if manifest["kind"] != "sharded" or not 0 <= shard_index < len(shards):
        raise ValueError(
            f"{manifest['kind']} store has no worker shard {shard_index}"
            + _gen_tag(path / MANIFEST_NAME, generation)
        )
    entry = shards[shard_index]
    base_rows = sum(int(other["rows"]) for other in shards)
    parts = [(entry, _load_base_orders(path, shard_index, entry, base_rows,
                                       generation))]
    for segment in entry["segments"]:
        # Each segment's global orders ride its O(batch)-sized delta.
        orders = segment_orders.get(
            (segment.get("delta_file"), shard_index, segment["file"]))
        if orders is None or len(orders) != int(segment["rows"]):
            raise ValueError(
                f"the delta chain does not record the {segment['rows']} orders "
                f"of segment {segment['file']!r}"
                + _gen_tag(path / segment["file"],
                           _file_generation(segment["file"], generation))
            )
        parts.append((segment, np.asarray(orders, dtype=np.int64)))
    shard, orders = _assemble_shard(path, manifest, parts, dead, mmap)
    if shard._fold_due():
        orders = orders[shard._fold()]
    return shard, orders


def _prepare_commit(memory, path, op):
    """Shared preamble of every journaled commit (append/delete/upsert).

    Resolves the manifest — the handle's cached one (O(1) checks) or a
    cold read — and validates it against the open ``memory`` (kind,
    dim, backend, contents). A cold read compares every label and, for
    a sharded memory, hands it the directory's physical orders
    (:meth:`ShardedItemMemory._adopt_orders`), so a handle that saved
    elsewhere or met a foreign compaction journals the right orders.
    Returns ``(path, manifest, sharded)``.
    """
    path = Path(path)
    sharded = isinstance(memory, ShardedItemMemory)
    manifest = _cached_manifest(memory, path)
    cold = manifest is None
    if cold:
        manifest = _read_manifest(path)
    kind = "sharded" if sharded else "single"
    if manifest["kind"] != kind:
        raise ValueError(
            f"cannot {op} a {kind} store to a {manifest['kind']} manifest"
        )
    if manifest["dim"] != memory.dim or manifest["backend"] != memory.backend.name:
        raise ValueError(
            f"open store (dim={memory.dim}, backend={memory.backend.name!r}) does "
            f"not match the manifest (dim={manifest['dim']}, "
            f"backend={manifest['backend']!r})"
        )
    # Out-of-sync guard. The cached manifest is this handle's own last
    # save/open/commit, which left it describing exactly this memory, so
    # equal row counts (and, sharded, physical order counts) prove
    # equality in O(1) — keeping the steady-state commit O(batch). A
    # cold manifest gets the full element-wise comparison.
    if cold:
        synced = list(manifest["labels"]) == list(memory.labels)
        if synced and sharded:
            synced = memory._adopt_orders(
                [np.setdiff1d(np.concatenate([o for _, o in _entry_parts(entry)]),
                              manifest["deleted_orders"])  # sorted
                 for entry in manifest["shards"]],
                manifest["slots"], manifest["label_orders"], manifest["deleted_orders"])
        manifest = _commit_manifest(manifest, memory)
    else:
        synced = manifest["rows"] == len(memory) and (
            not sharded or manifest["next_order"] == len(memory._slots))
    if not synced:
        raise ValueError(
            "on-disk manifest is out of sync with the open store; "
            "re-open or compact() before committing"
        )
    return path, manifest, sharded


def _journal_tombstones(memory, manifest, labels, sharded):
    """Per-shard tombstone groups for ``labels``: O(batch).

    Must run *before* the in-memory delete — shard placement and the
    physical orders come from the live maps (a sharded memory's own
    orders, which equal the directory's, placed by ``_locate``; a
    single-shard store's cached label → order map). Returns the
    JSON-ready groups, each naming its rows by (shard, label, physical
    order). Bounds are never touched: a shrunken group keeps its
    ball/interval, which stays a valid *superset* — deletes only ever
    tighten pruning, never loosen it.
    """
    orders_of = memory._order if sharded else manifest["label_orders"]
    orders = [int(orders_of[label]) for label in labels]
    placed = (memory._locate(orders) if sharded
              else [(0, range(len(labels)), None)] if labels else [])
    return [
        {"shard": index, "labels": [labels[i] for i in hit],
         "orders": [orders[i] for i in hit]}
        for index, hit, _ in placed
    ]


def _validate_ingest(memory, labels, vectors, sharded, what,
                     allow_existing=False):
    """Validate a whole ingest batch up front — labels (alignment,
    duplicates in-batch and, unless ``allow_existing``, against the
    store) and rows (shape, bipolarity). The in-memory ingest streams
    chunk by chunk, so without this a failure in a late chunk would
    commit earlier chunks to RAM with nothing journaled, leaving the
    open handle permanently diverged from disk."""
    validate_batch(labels, vectors, memory, allow_existing=allow_existing)
    reference_shard = memory.shards[0] if sharded else memory
    if vectors.ndim != 2 or vectors.shape != (len(labels), memory.dim):
        raise ValueError(
            f"expected a ({len(labels)}, {memory.dim}) {what} batch, "
            f"got {vectors.shape}"
        )
    reference_shard._check_rows(vectors, (len(labels), memory.dim))


def _ingest_grouped(memory, labels, vectors, sharded, chunk_size):
    """Add one validated batch; returns ``{shard: (batch offsets, native rows)}``.

    A sharded memory routes with its own ingest
    (:meth:`ShardedItemMemory._ingest_chunk`, over *dense* insertion
    orders), so journal placement can never diverge; placement then
    persists via the journal and is never re-derived on load. The native
    rows are the ones the ingest packed, so the commit journals them as
    they are: the batch was checked once up front, and no row is packed
    twice.
    """
    if not sharded:
        native = memory.backend.from_bipolar(vectors, checked=True)
        memory._append(labels, native)
        return {0: (list(range(len(labels))), native)}
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    groups = {}
    # Journaled rows get their own exact per-segment bound groups in
    # _commit instead of folding into the shard-level base bounds —
    # that is what lets appends *tighten* pruning.
    memory._suspend_bound_folds = True
    try:
        for start in range(0, len(labels), chunk_size):
            plan = memory._ingest_chunk(labels[start : start + chunk_size],
                                        vectors[start : start + chunk_size],
                                        checked=True)
            for index, offsets, rows in plan:
                group = groups.setdefault(index, ([], []))
                group[0].extend(start + offset for offset in offsets)
                group[1].append(rows)
    finally:
        memory._suspend_bound_folds = False
    return {index: (offsets, np.concatenate(blocks))
            for index, (offsets, blocks) in groups.items()}


def _commit(memory, path, manifest, sharded, op, base_rows,
            add_labels=(), groups=None, remove_labels=(), tombstones=()):
    """Write one commit: segment files + delta sidecar + manifest swap.

    ``base_rows`` is the *surviving* row count before this commit;
    ``add_labels`` and ``groups`` (per shard, the batch offsets and
    native rows :func:`_ingest_grouped` made) describe rows entering at
    the end of the physical order, ``remove_labels``/``tombstones`` the
    rows leaving it. The delta sidecar carries both sides, so replay
    reconstructs the commit from O(batch) bytes, and every step here is
    O(batch) too.
    """
    generation = int(manifest["generation"]) + 1
    next_order = int(manifest["next_order"])
    delta_name = _delta_filename(generation)
    delta_entries = []
    for index in sorted(groups or {}):
        offsets, native = groups[index]
        filename = _segment_filename(index, generation)
        _save_array(path / filename, native)
        # Exact bounds of just this batch: the segment's own minus-count
        # interval and centroid + radius ball, recorded in the delta
        # sidecar (the shard entry's base bounds are never touched).
        bounds, centroid = _exact_bounds(memory.backend, native)
        manifest["shards"][index]["segments"].append(
            {"file": filename, "rows": len(offsets), "delta_file": delta_name})
        # New rows occupy the contiguous *physical* block starting at
        # next_order — tombstoned slots are never reused, so physical
        # orders stay stable until compact renumbers everything.
        delta_entries.append({
            "shard": index, "file": filename, "rows": len(offsets),
            "labels": [add_labels[o] for o in offsets],
            "orders": [next_order + offset for offset in offsets],
            "bounds": bounds,
        })
        if sharded:
            memory._push_segment_bounds(
                index, len(offsets),
                (bounds["minus_min"], bounds["minus_max"]),
                centroid, bounds["radius"],
            )
    _write_json(path / delta_name, {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "generation": generation,
        "op": op,
        "base_rows": base_rows,
        "next_order": next_order,
        "entries": delta_entries,
        "tombstones": list(tombstones),
    })
    if not sharded:
        label_orders = manifest["label_orders"]
        for label in remove_labels:
            del label_orders[label]
        for offset, label in enumerate(add_labels):
            label_orders[label] = next_order + offset
    manifest["rows"] = len(memory)
    manifest["next_order"] = next_order + len(add_labels)
    manifest["deltas"].append(delta_name)
    manifest["generation"] = generation
    manifest_path = _write_manifest(path, _manifest_to_disk(manifest))
    # The dict now mirrors the directory exactly: keep it on the handle
    # so the next commit skips the O(store) re-materialization.
    memory._manifest_cache = (path, manifest)
    if sharded:
        memory._attach(path, generation)
    return manifest_path


def append_rows(memory, path, labels, vectors, chunk_size=DEFAULT_CHUNK_SIZE):
    """Ingest rows into an opened ``memory`` *and* journal them at ``path``.

    The append story for persisted stores: the whole batch is validated
    up front (labels, alignment, duplicates, shape, bipolarity — a
    rejected batch touches neither RAM nor disk), new rows route exactly
    as the in-memory ingest routes them, land in ``memory``, and are
    then journaled as one native-layout segment file per touched shard
    plus one ``delta.g<gen>.json`` sidecar (the batch's labels, global
    insertion orders, and exact per-segment bounds), committed by a
    small constant-size manifest rewrite under a bumped ``generation``.
    Returns the manifest path.

    Cost note: one append commit writes O(batch) bytes — the segment
    files, the delta sidecar, and a manifest whose size is independent
    of the store (label maps live in sidecars). Batching appends still
    amortizes the per-commit file count (one segment per touched shard
    per call).
    """
    labels = list(labels)
    _check_labels(labels)  # journalable before anything commits
    path, manifest, sharded = _prepare_commit(memory, path, "append")
    base = len(memory)
    vectors = np.asarray(vectors)
    _validate_ingest(memory, labels, vectors, sharded, "append")
    groups = _ingest_grouped(memory, labels, vectors, sharded, chunk_size)
    return _commit(
        memory, path, manifest, sharded, "append", base,
        add_labels=labels, groups=groups,
    )


def delete_rows(memory, path, labels):
    """Remove ``labels`` from an opened ``memory`` *and* journal it.

    A delete commit writes **no** vector data: one ``delta.g<gen>.json``
    sidecar records per-shard tombstone groups — each tombstoned row
    named by its (shard, label, physical order) triple — and the
    constant-size manifest swap publishes the new generation. In memory
    the rows are flagged in their shards' dead-row masks, so deleted
    labels are unreachable from ``cleanup``/``topk``/``similarities``
    at once, and the whole commit is O(batch). Bounds are never
    recomputed mid-generation: a group that lost rows keeps its (now
    superset) ball/interval, so pruning can only tighten; ``compact()``
    folds the tombstones out and recomputes exact bounds. The whole
    batch is validated up front (duplicates, unknown labels) — a
    rejected batch touches neither RAM nor disk. Returns the manifest
    path.
    """
    labels = list(labels)
    path, manifest, sharded = _prepare_commit(memory, path, "delete")
    if not labels:
        return path / MANIFEST_NAME
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels in delete batch")
    for label in labels:
        if label not in memory:
            raise ValueError(f"label {label!r} is not stored")
    tombstones = _journal_tombstones(memory, manifest, labels, sharded)
    base = len(memory)
    _delete_in_memory(memory, labels, sharded)
    return _commit(
        memory, path, manifest, sharded, "delete", base,
        remove_labels=labels, tombstones=tombstones,
    )


def _delete_in_memory(memory, labels, sharded):
    """Flag ``labels`` dead in RAM, keeping a sharded memory's global
    orders equal to the directory's (no renumber until compact)."""
    if sharded:
        memory._delete(labels)
    else:
        memory.remove_many(labels)


def upsert_rows(memory, path, labels, vectors, chunk_size=DEFAULT_CHUNK_SIZE):
    """Insert-or-replace ``labels`` in an opened ``memory`` and journal it.

    One commit, both sides: labels already stored leave a tombstone on
    their old physical row, and the whole batch (replacements and new
    labels alike) re-enters at the *end* of the insertion order — an
    upsert refreshes recency, so a re-enrolled duplicate loses ties it
    used to win. The replacement rows land as ordinary segment files
    carrying their own exact minus-interval and centroid/radius group,
    exactly like append segments, and the single ``delta.g<gen>.json``
    sidecar records both the tombstones and the new entries — still
    O(batch) bytes per commit. Validation is all-up-front as for
    :func:`append_rows`. Returns the manifest path.
    """
    labels = list(labels)
    _check_labels(labels)  # journalable before anything commits
    path, manifest, sharded = _prepare_commit(memory, path, "upsert")
    if not labels:
        return path / MANIFEST_NAME
    vectors = np.asarray(vectors)
    _validate_ingest(memory, labels, vectors, sharded, "upsert",
                     allow_existing=True)
    existing = [label for label in labels if label in memory]
    tombstones = _journal_tombstones(memory, manifest, existing, sharded)
    base = len(memory)  # surviving rows before either side applies
    if existing:
        _delete_in_memory(memory, existing, sharded)
    groups = _ingest_grouped(memory, labels, vectors, sharded, chunk_size)
    return _commit(
        memory, path, manifest, sharded, "upsert", base,
        add_labels=labels, groups=groups,
        remove_labels=existing, tombstones=tombstones,
    )
