"""Quickstart: train HDC-ZSC on a small synthetic split and classify
birds from classes the model has never seen.

Runs in ~1 minute on a laptop CPU:

    python examples/quickstart.py
"""

import numpy as np

from repro import nn
from repro.data import SyntheticCUB, make_split
from repro.zsl import PipelineConfig, TrainConfig, ZSLPipeline


def main():
    # 1. A CUB-200-like synthetic dataset: every image is rendered from
    #    its class's 312-dimensional attribute signature.
    dataset = SyntheticCUB(num_classes=20, images_per_class=8, image_size=24, seed=0)
    print(f"dataset: {dataset}")
    print(f"schema:  {dataset.schema}  (G=28 groups, V=61 values, α=312)")

    # 2. The zero-shot split: train and test classes are disjoint.
    split = make_split(dataset, "ZS", seed=0)
    print(f"split:   {len(split.train_classes)} train / {len(split.test_classes)} unseen classes")

    # 3. Train the three phases (sizes kept tiny for the quickstart).
    config = PipelineConfig(
        embedding_dim=64,
        attribute_encoder="hdc",
        seed=0,
        pretrain_classes=8,
        pretrain_images_per_class=4,
        image_size=24,
        phase1=TrainConfig(epochs=1, batch_size=16),
        phase2=TrainConfig(epochs=3, batch_size=16),
        phase3=TrainConfig(epochs=3, batch_size=16),
        verbose=True,
    )
    with nn.using_dtype(np.float32):
        pipeline = ZSLPipeline(dataset, split, config)
        result = pipeline.run()

    # 4. Zero-shot inference: classify unseen-class images from their
    #    attribute descriptors alone (all weights stationary). deploy()
    #    folds BatchNorm into the convs, so count parameters before it.
    parameters = result.model.num_parameters(trainable_only=False)
    model = result.model.deploy()
    unseen_attributes = dataset.class_attributes[split.test_classes]
    predictions = model.predict(split.test_images[:5], unseen_attributes)
    names = dataset.class_names()
    print("\nfirst five zero-shot predictions:")
    for i, pred in enumerate(predictions):
        truth = names[split.test_labels[i]]
        guess = names[split.test_classes[pred]]
        print(f"  image {i}: predicted {guess:12s} truth {truth:12s}")

    chance = 100.0 / len(split.test_classes)
    print(f"\nzero-shot top-1: {result.metrics['top1']:.1f}%  "
          f"top-5: {result.metrics['top5']:.1f}%  (chance {chance:.1f}%)")
    print(f"trainable parameters: {parameters:,} "
          f"(HDC attribute encoder contributes 0)")

    # 5. Store-backed deployment (repro.hdc.store): binarized class
    #    prototypes in a sharded AssociativeStore; prediction becomes an
    #    associative cleanup — same decisions for any shard count. The
    #    binarized path trades a little accuracy at this tiny d for
    #    popcount-speed queries and an 8x-smaller packed store.
    store = pipeline.deployment_store(shards=3)
    store_metrics = pipeline.evaluate_store(store=store)
    print(f"\nassociative store: {store}")
    print(f"store-backed deployment (binarized embeddings, Hamming cleanup): "
          f"top-1 {store_metrics['top1']:.1f}%  top-5 {store_metrics['top5']:.1f}%")


if __name__ == "__main__":
    main()
