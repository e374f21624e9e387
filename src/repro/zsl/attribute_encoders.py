"""Attribute encoders φ(·).

Two variants, exactly as compared in the paper:

- :class:`HDCAttributeEncoder` — the paper's contribution: a *stationary*
  encoder built from two random bipolar codebooks. The attribute
  dictionary ``B ∈ {±1}^{α×d}`` is materialized by binding group and
  value hypervectors; class embeddings are ``φ(A) = A × B``. It has zero
  trainable parameters.
- :class:`MLPAttributeEncoder` — the "Trainable-MLP" reference: a 2-layer
  trainable MLP replacing the fixed codebooks.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..hdc import AttributeDictionary, Codebook

__all__ = ["HDCAttributeEncoder", "MLPAttributeEncoder", "build_attribute_encoder"]


class HDCAttributeEncoder(nn.Module):
    """Stationary HDC attribute encoder.

    Parameters
    ----------
    schema:
        :class:`repro.data.AttributeSchema` providing group/value names
        and the (group, value) pair per attribute combination.
    dim:
        Hypervector dimensionality ``d`` (the paper's preferred 1536).
    rng:
        Generator used to sample the two Rademacher codebooks.
    backend:
        HDC storage backend: ``"dense"`` (int8 reference) or ``"packed"``
        (bit-packed uint64 words, the paper's 1-bit-per-component storage
        story). Sampling routes through the same dense Rademacher draw on
        either backend, so the codebooks — and therefore every
        classification decision — are identical per seed.
    """

    def __init__(self, schema, dim, rng, backend="dense"):
        super().__init__()
        groups = Codebook.random(schema.group_names, dim, rng, backend=backend)
        values = Codebook.random(schema.value_vocabulary, dim, rng, backend=backend)
        self.dictionary = AttributeDictionary(groups, values, schema.pairs)
        self.schema = schema
        self.embedding_dim = dim
        # Buffers so that state_dict round-trips the stationary codebooks.
        self.group_codebook = nn.Buffer(groups.vectors.astype(np.float64))
        self.value_codebook = nn.Buffer(values.vectors.astype(np.float64))
        self._dictionary_tensor = None

    @property
    def num_attributes(self):
        return self.dictionary.num_attributes

    def dictionary_tensor(self):
        """The attribute dictionary ``B`` as a constant (α, d) tensor."""
        if self._dictionary_tensor is None:
            matrix = self.dictionary.matrix().astype(nn.default_dtype())
            self._dictionary_tensor = nn.Tensor(matrix)
        return self._dictionary_tensor

    def forward(self, class_attributes):
        """Encode a class-attribute matrix: ``φ(A) = A × B`` → (C, d).

        ``class_attributes`` may be a numpy array or Tensor; the output
        participates in autograd only through ``class_attributes`` (the
        dictionary is stationary).
        """
        if not isinstance(class_attributes, nn.Tensor):
            class_attributes = nn.Tensor(np.asarray(class_attributes, dtype=nn.default_dtype()))
        return class_attributes @ self.dictionary_tensor()

    @property
    def backend_name(self):
        """Name of the HDC storage backend holding the codebooks."""
        return self.dictionary.backend.name

    def attribute_store(self, shards=1, routing="hash", query_block=1024,
                        workers=None, executor="thread"):
        """The dictionary ``B`` as an :class:`~repro.hdc.store.AssociativeStore`.

        One labelled hypervector per attribute combination
        (``"group::value"``), on the encoder's storage backend — the
        attribute-level item memory a deployment cleans noisy attribute
        estimates against. Neither sharding nor the ``workers`` fan-out
        width ever changes decisions.
        """
        from ..hdc.store import AssociativeStore

        labels = [
            f"{self.schema.group_names[g]}::{self.schema.value_vocabulary[v]}"
            for g, v in self.dictionary.pairs
        ]
        return AssociativeStore.from_vectors(
            labels, self.dictionary.matrix(), backend=self.backend_name,
            shards=shards, routing=routing, query_block=query_block,
            workers=workers, executor=executor,
        )

    def memory_report(self):
        """Footprint accounting of the stationary codebooks.

        Includes the *measured* resident bytes of the stored codebooks on
        the active backend, alongside the analytic bit counts. The
        measurement covers the HDC store itself — what a deployed
        accelerator would hold. This training-path module additionally
        keeps float64 working copies (the ``state_dict`` buffers and the
        cached dictionary tensor) that are not part of that store and
        are not counted here.
        """
        from ..hdc.footprint import measured_footprint

        return measured_footprint(self.dictionary)

    def __repr__(self):
        return (
            f"HDCAttributeEncoder(d={self.embedding_dim}, "
            f"alpha={self.num_attributes}, backend={self.backend_name!r})"
        )


class MLPAttributeEncoder(nn.Module):
    """Trainable 2-layer MLP attribute encoder (the paper's reference).

    Maps a class-attribute vector (α,) to the shared embedding space (d,).
    Unlike the HDC encoder it adds trainable parameters and must be
    learned, at a small accuracy gain (Table II / Fig 4).
    """

    def __init__(self, schema, dim, rng, hidden_dim=None):
        super().__init__()
        hidden_dim = hidden_dim or dim
        self.schema = schema
        self.embedding_dim = dim
        self.fc1 = nn.Linear(schema.num_attributes, hidden_dim, rng=rng)
        self.fc2 = nn.Linear(hidden_dim, dim, rng=rng)

    @property
    def num_attributes(self):
        return self.schema.num_attributes

    def dictionary_tensor(self):
        """Per-attribute embeddings: the MLP applied to one-hot rows.

        Gives the MLP variant the same Phase-II interface as the HDC
        encoder (a (α, d) matrix to score image embeddings against).
        """
        eye = np.eye(self.schema.num_attributes, dtype=nn.default_dtype())
        return self.forward(eye)

    def forward(self, class_attributes):
        if not isinstance(class_attributes, nn.Tensor):
            class_attributes = nn.Tensor(np.asarray(class_attributes, dtype=nn.default_dtype()))
        return self.fc2(self.fc1(class_attributes).relu())

    def __repr__(self):
        return f"MLPAttributeEncoder(d={self.embedding_dim}, alpha={self.num_attributes})"


def build_attribute_encoder(kind, schema, dim, rng, backend="dense", **kwargs):
    """Factory: ``kind`` is ``"hdc"`` or ``"mlp"``.

    ``backend`` selects the HDC storage backend (``"dense"``/``"packed"``)
    and is ignored by the MLP variant, which has no codebooks to store.
    """
    if kind == "hdc":
        return HDCAttributeEncoder(schema, dim, rng, backend=backend)
    if kind == "mlp":
        return MLPAttributeEncoder(schema, dim, rng, **kwargs)
    raise ValueError(f"unknown attribute encoder kind {kind!r} (expected 'hdc' or 'mlp')")
