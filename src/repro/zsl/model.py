"""HDC-ZSC: the end-to-end zero-shot classifier (Fig 1 of the paper).

Composes the three computational modules:

- image encoder γ(·) — ResNet backbone + FC projection,
- attribute encoder φ(·) — stationary HDC codebooks (or the trainable
  MLP variant),
- similarity kernel — temperature-scaled cosine similarity.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .. import nn
from ..hdc.store import AssociativeStore
from .attribute_encoders import HDCAttributeEncoder
from .similarity import SimilarityKernel

__all__ = ["HDCZSC"]


def _sign_bipolar(x):
    """The store path's binarization convention: ``>= 0 → +1`` (int8)."""
    return np.where(np.asarray(x) >= 0, 1, -1).astype(np.int8)


class HDCZSC(nn.Module):
    """Zero-shot classifier with an HDC (or MLP) attribute encoder.

    Parameters
    ----------
    image_encoder:
        :class:`repro.models.ImageEncoder` mapping images to (B, d).
    attribute_encoder:
        Encoder exposing ``forward(class_attributes) -> (C, d)`` and
        ``dictionary_tensor() -> (α, d)``.
    temperature:
        Initial temperature of the similarity kernel.
    """

    def __init__(self, image_encoder, attribute_encoder, temperature=0.03):
        super().__init__()
        if image_encoder.embedding_dim != attribute_encoder.embedding_dim:
            raise ValueError(
                f"embedding dims differ: image {image_encoder.embedding_dim} vs "
                f"attribute {attribute_encoder.embedding_dim}"
            )
        self.image_encoder = image_encoder
        self.attribute_encoder = attribute_encoder
        self.kernel = SimilarityKernel(temperature)

    @property
    def embedding_dim(self):
        return self.image_encoder.embedding_dim

    @property
    def is_hdc(self):
        return isinstance(self.attribute_encoder, HDCAttributeEncoder)

    # -- forward paths ---------------------------------------------------- #

    def attribute_logits(self, images):
        """Phase-II path: ``q = cossim(γ(x), B)`` → (B, α) attribute scores."""
        embeddings = self.image_encoder(images)
        dictionary = self.attribute_encoder.dictionary_tensor()
        return self.kernel(embeddings, dictionary)

    def class_logits(self, images, class_attributes):
        """Phase-III / inference path: ``p = cossim(γ(x), φ(A))`` → (B, C)."""
        embeddings = self.image_encoder(images)
        class_embeddings = self.attribute_encoder(class_attributes)
        return self.kernel(embeddings, class_embeddings)

    def forward(self, images, class_attributes):
        return self.class_logits(images, class_attributes)

    # -- inference helpers --------------------------------------------------- #

    def predict(self, images, class_attributes, batch_size=64):
        """Zero-shot prediction: argmax over the provided class descriptors.

        Runs frozen (``no_grad``, eval mode) exactly like the paper's
        Fig 3 deployment; returns an (N,) array of class indices into
        ``class_attributes`` rows.
        """
        return self.score(images, class_attributes, batch_size=batch_size).argmax(axis=1)

    def score(self, images, class_attributes, batch_size=64):
        """Class-similarity matrix for a (large) image set, as numpy (N, C)."""
        return self._scores(
            images, lambda: self.attribute_encoder(class_attributes), batch_size
        )

    def score_attributes(self, images, batch_size=64):
        """Attribute-similarity matrix (N, α) for evaluation (Table I)."""
        return self._scores(
            images, self.attribute_encoder.dictionary_tensor, batch_size
        )

    def _scores(self, images, encode_targets, batch_size):
        """Kernel similarities of every image to ``encode_targets()``, frozen."""
        scores = []
        with self._stationary():
            targets = encode_targets()
            for start in range(0, len(images), batch_size):
                batch = nn.Tensor(np.asarray(images[start : start + batch_size]))
                embeddings = self.image_encoder(batch)
                scores.append(self.kernel(embeddings, targets).data)
        return np.concatenate(scores, axis=0)

    # -- store-backed deployment path (repro.hdc.store) ---------------------- #

    @contextmanager
    def _stationary(self):
        """Frozen-inference scope: eval + ``no_grad``, training restored.

        The recursive ``eval()`` walk is skipped when the root is already
        in eval mode (a deployed model always is): ``train()`` and
        ``eval()`` set the whole tree, so the root's flag speaks for it.
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with nn.no_grad():
                yield
        finally:
            if was_training:
                self.train()

    def binary_embeddings(self, images, batch_size=64):
        """Sign-binarized image embeddings: the store-query form of γ(x).

        Runs frozen (``no_grad``, eval mode) and maps each embedding to
        its bipolar sign pattern (``>= 0 → +1``), the representation an
        accelerator deployment compares against a binarized class item
        memory by Hamming distance. Returns ``(N, d)`` int8 in {±1}.
        """
        batches = []
        with self._stationary():
            for start in range(0, len(images), batch_size):
                batch = nn.Tensor(np.asarray(images[start : start + batch_size]))
                batches.append(_sign_bipolar(self.image_encoder(batch).data))
        return np.concatenate(batches, axis=0)

    def class_store(self, class_attributes, labels=None, shards=1,
                    routing="hash", backend=None, query_block=1024,
                    workers=None, executor="thread"):
        """Build the class-level item memory behind store-backed inference.

        Encodes ``class_attributes`` through φ(·), sign-binarizes the
        prototypes, and loads them into an
        :class:`~repro.hdc.store.AssociativeStore` — the paper's Fig 3
        stationary deployment, where zero-shot prediction is an
        associative cleanup of the binarized embedding against binarized
        class hypervectors. ``labels`` default to the row indices of
        ``class_attributes``; ``backend`` defaults to the HDC encoder's
        storage backend (``"dense"`` for the MLP encoder); ``workers``
        and ``executor`` set the sharded fan-out pool (decisions are
        worker- and executor-invariant).
        """
        with self._stationary():
            class_embeddings = self.attribute_encoder(class_attributes).data
        prototypes = _sign_bipolar(class_embeddings)
        if labels is None:
            labels = list(range(prototypes.shape[0]))
        if backend is None:
            backend = getattr(self.attribute_encoder, "backend_name", "dense")
        return AssociativeStore.from_vectors(
            labels, prototypes, backend=backend, shards=shards,
            routing=routing, query_block=query_block, workers=workers,
            executor=executor,
        )

    def predict_store(self, images, store, batch_size=64):
        """Store-backed zero-shot prediction: cleanup against ``store``.

        The deployment twin of :meth:`predict`: queries are the
        binarized embeddings, the decision is ``store.cleanup_batch``'s
        best label per query (identical for any shard count). Returns
        the stored labels, as an int array when every label is an int.
        """
        queries = self.binary_embeddings(images, batch_size=batch_size)
        labels, _ = store.cleanup_batch(queries)
        if labels and all(isinstance(label, (int, np.integer)) for label in labels):
            return np.asarray(labels, dtype=np.int64)
        return labels

    def deploy(self):
        """Freeze everything for stationary inference (paper Fig 3).

        One-way: every module with conv → BatchNorm pairs (the ResNet
        blocks and stem) folds each eval-mode BatchNorm into its conv,
        in place, and replaces it with ``nn.Identity``, so the deployed
        encoder keeps one copy of its weights and runs one conv per
        pair. Each conv is deployed too (``nn.Conv2d.deploy``): a conv
        over a map smaller than its kernel keeps its live taps as one
        contiguous block, built on first use. ``num_parameters()`` drops
        by the folded channel count.
        To train again, rebuild the model and ``load_state_dict`` a
        snapshot taken before deploying. Deploying twice changes
        nothing.
        """
        self.eval()
        for module in list(self.modules()):
            if hasattr(module, "fold_batchnorm"):
                module.fold_batchnorm()
            if isinstance(module, nn.Conv2d):
                module.deploy()
        self.freeze()
        return self

    def __repr__(self):
        kind = "HDC" if self.is_hdc else "MLP"
        return f"HDCZSC(d={self.embedding_dim}, attribute_encoder={kind})"
