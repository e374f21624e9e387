"""Workload ``classify_fig3``: the paper's Fig 3 deployment at paper size.

One caller streams unseen-class test images, one per call, through
``HDCZSC.predict_store`` of the deployed 26.66M-parameter classifier
(ResNet-50 image encoder, 1536-d packed HDC attribute encoder) against a
class store of the 50 unseen classes of a ``SyntheticCUB`` ZS split. The
encoder is nearly all of each op; the batch-1 cleanup over 50 classes is
a sliver, so an ``nn``/``models`` change shows here and a store change
should not.
"""

from __future__ import annotations

import traceback

import numpy as np

from harness import (OpLog, median, now_ns, overhead_frac, peak_rss_mb,
                     repeat_setup, seeded_rng, trace_windows)
from repro import nn
from repro.data import SyntheticCUB, make_split
from repro.hdc.store import AssociativeStore
from repro.models import ImageEncoder
from repro.zsl import HDCZSC, PipelineConfig, build_model
from spans import Patches, SpanRecorder, op_coverage, self_times

MODEL = {"backbone": "resnet50_full", "embedding_dim": 1536,
         "hdc_backend": "packed"}
SETUPS = 3
#: ops per measurement window: 100 so each window's p90 is admissible
WINDOW_OPS = 100
WARMUP_OPS = 3


def make_inputs(seed):
    """Rendered dataset, ZS split and the seeded image stream order."""
    start = now_ns()
    dataset = SyntheticCUB(num_classes=200, images_per_class=1, image_size=32,
                           seed=seed)
    render_s = (now_ns() - start) / 1e9
    split = make_split(dataset, "ZS", seed=seed)
    images = split.test_images
    order = seeded_rng(seed, "classify-order").permutation(len(images))
    return {"dataset": dataset, "split": split, "images": images,
            "order": order, "render_s": render_s}


def _build(seed, inputs, build_times):
    """One set-up: build and deploy the model, load its class store, warm up."""
    dataset, split, images = inputs["dataset"], inputs["split"], inputs["images"]
    start = now_ns()
    model = build_model(dataset.schema, PipelineConfig(**MODEL, seed=seed)).deploy()
    store = model.class_store(dataset.class_attributes[split.test_classes])
    built = now_ns()
    for index in range(WARMUP_OPS):
        model.predict_store(images[index:index + 1], store)
    done = now_ns()
    build_times.append((built - start) / 1e9)
    return (model, store), (done - start) / 1e9


def _drive(model, store, inputs, seconds, cursor, predictions, errors,
           recorder=None):
    """Stream images one per call for ``seconds``; returns the op log."""
    images, order = inputs["images"], inputs["order"]
    log = OpLog()
    log.begin()
    deadline = log.start_ns + int(seconds * 1e9)
    while now_ns() < deadline:
        index = int(order[cursor % len(order)])
        cursor += 1
        image = images[index:index + 1]
        start = now_ns()
        try:
            if recorder is None:
                label = model.predict_store(image, store)[0]
            else:
                with recorder.span("op", rid=cursor):
                    label = model.predict_store(image, store)[0]
        except Exception:
            errors.append(traceback.format_exc())
            log.record(start, now_ns(), ok=False)
            continue
        log.record(start, now_ns())
        predictions.append((index, int(label)))
    log.finish()
    return log, cursor


def _check(model, inputs, predictions):
    """Every prediction equals the brute-force Hamming argmin (ties: first)."""
    dataset, split, images = inputs["dataset"], inputs["split"], inputs["images"]
    with nn.no_grad():
        prototypes = model.attribute_encoder(
            dataset.class_attributes[split.test_classes]).data
    prototypes = np.where(prototypes >= 0, 1, -1).astype(np.int8)
    expected = {}
    for index in sorted({index for index, _ in predictions}):
        query = model.binary_embeddings(images[index:index + 1])[0]
        distances = (prototypes != query).sum(axis=1)
        expected[index] = int(np.argmin(distances))
    return sum(label != expected[index] for index, label in predictions)


def _layers(recorder, ops):
    """Per-layer numbers of the traced windows, plus the path coverage."""
    selfs = self_times(recorder.spans)

    def total(name, own=False):
        return sum(selfs[s.sid] if own else s.duration for s in recorder.named(name))

    queries = len(recorder.named("planner.cleanup_batch"))
    return {
        "models.forward_ms_per_op": total("models.forward") / ops / 1e6,
        "zsl.binarize_ms_per_op": total("zsl.binary_embeddings", own=True) / ops / 1e6,
        "planner.query_ms_per_query": total("planner.cleanup_batch") / queries / 1e6,
        "trace.path_coverage_frac": op_coverage(recorder.spans),
    }


def run(seed, seconds, trace):
    inputs = make_inputs(seed)
    build_times = []
    (model, store), setup_times = repeat_setup(
        SETUPS, lambda _: _build(seed, inputs, build_times))
    predictions, errors = [], []
    cursor = 0
    metrics = {}
    if not trace:
        log, cursor = _drive(model, store, inputs, seconds, cursor, predictions, errors)
        metrics.update({
            "setup_s": median(setup_times),
            **log.windowed(WINDOW_OPS),
            "peak_rss_mb": peak_rss_mb(),
        })
        logs = [log]
    else:
        recorder = SpanRecorder()
        patches = Patches(recorder)
        plain_logs, traced_logs = [], []
        for plain_s, traced_s in trace_windows(seconds):
            log, cursor = _drive(model, store, inputs, plain_s, cursor,
                                 predictions, errors)
            plain_logs.append(log)
            patches.wrap(ImageEncoder, "forward", "models.forward")
            patches.wrap(HDCZSC, "binary_embeddings", "zsl.binary_embeddings")
            patches.wrap(AssociativeStore, "cleanup_batch", "planner.cleanup_batch")
            try:
                log, cursor = _drive(model, store, inputs, traced_s, cursor,
                                     predictions, errors, recorder)
            finally:
                patches.restore()
            traced_logs.append(log)
        metrics.update(_layers(recorder, sum(len(log.durations_ns) for log in traced_logs)))
        metrics.update({
            "zsl.build_s": median(build_times),
            "data.render_s": inputs["render_s"],
            "trace.overhead_frac": overhead_frac(plain_logs, traced_logs),
        })
        logs = plain_logs + traced_logs
    mismatches = _check(model, inputs, predictions)
    result = {
        "correct": mismatches == 0 and not errors,
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "metrics": metrics,
        "record": {
            "whole_run": None if trace else logs[0].whole(),
            "succeeded": sum(len(log.durations_ns) for log in logs),
            "mismatches": mismatches,
            "errors": errors[:3],
            "setup_s_all": setup_times,
            "distinct_images": len(inputs["images"]),
            "model_parameters": int(sum(p.data.size for p in model.parameters())),
        },
    }
    if trace:
        result["spans"] = recorder
    return result
