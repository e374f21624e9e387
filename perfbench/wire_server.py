"""Server process of the ``wire_topk`` workload.

    python3 perfbench/wire_server.py VECTORS.npy [--traceable] [--cpu N]

Serves a packed single-shard ``AssociativeStore`` of the rows in
``VECTORS.npy`` (labels ``0..n-1``) through ``StoreHTTPServer`` over a
default ``StoreServer`` on an ephemeral localhost port, and prints
``{"port": N}`` once listening; ``--cpu N`` pins the process to CPU N.
Commands arrive on stdin, one per line:

- ``trace`` / ``untrace`` (``--traceable`` only) install / remove the
  span wrappers and answer ``{"tracing": true|false}``;
- ``stop``, or end of input, drains and stops the server. The last line
  printed is ``{"peak_rss_mb", "stats"[, "layers", "reads"]}``: a traced
  server adds its per-layer numbers and one ``[query row key, start,
  end, blocking path ns]`` row per traced read, and writes its spans
  next to ``VECTORS.npy``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from harness import peak_rss_mb  # noqa: E402
from repro.hdc.store import AssociativeStore, StoreHTTPServer, StoreServer  # noqa: E402
from spans import ServingProbe, SpanRecorder, serving_layers  # noqa: E402


def say(payload):
    print(json.dumps(payload), flush=True)


async def serve(vectors_path, traceable):
    vectors = np.load(vectors_path)
    store = AssociativeStore.from_vectors(list(range(len(vectors))), vectors,
                                          backend="packed")
    recorder = SpanRecorder()
    probe = ServingProbe(recorder)
    server = StoreServer(probe.proxy(store) if traceable else store)
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    buffered = b""

    def on_stdin():
        nonlocal buffered
        chunk = os.read(sys.stdin.fileno(), 4096)
        buffered += chunk
        *lines, buffered = buffered.split(b"\n")
        for line in lines:
            command = line.strip()
            if command == b"trace" and traceable and not probe.enabled:
                probe.install()
                say({"tracing": True})
            elif command == b"untrace" and probe.enabled:
                probe.uninstall()
                say({"tracing": False})
            elif command == b"stop":
                stopping.set()
        if not chunk:
            stopping.set()

    async with StoreHTTPServer(server) as front:
        say({"port": front.port})
        loop.add_reader(sys.stdin.fileno(), on_stdin)
        try:
            await stopping.wait()
        finally:
            loop.remove_reader(sys.stdin.fileno())
        stats = front.stats
    probe.uninstall()
    final = {"peak_rss_mb": peak_rss_mb(), "stats": stats}
    if recorder.spans:
        final["layers"], rows = serving_layers(recorder, probe)
        final["reads"] = [[probe.read_keys[row["read"].rid], row["read"].start,
                           row["read"].end, row["path"]] for row in rows]
        recorder.dump(Path(vectors_path).with_name("server-spans.json"))
    say(final)


def main(argv):
    if "--cpu" in argv:
        os.sched_setaffinity(0, {int(argv[argv.index("--cpu") + 1])})
    asyncio.run(serve(argv[0], "--traceable" in argv))


if __name__ == "__main__":
    main(sys.argv[1:])
