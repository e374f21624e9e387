"""Hypervector sampling and representation conversions.

HDC encodes symbols as randomly initialized high-dimensional vectors
("atomic hypervectors"). The paper uses *dense* binary/bipolar vectors
drawn from the Rademacher distribution; as the dimensionality grows,
independently sampled vectors become quasi-orthogonal (Kanerva, 2009).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "random_bipolar",
    "random_binary",
    "bipolar_to_binary",
    "binary_to_bipolar",
    "is_bipolar",
    "is_binary",
    "pack_bits",
    "unpack_bits",
    "pack_bipolar",
    "unpack_bipolar",
    "expected_similarity_std",
]

#: components per packed word (the bit-packed backend's word width)
WORD_BITS = 64


def random_bipolar(num_vectors, dim, rng):
    """Sample ``num_vectors`` dense bipolar hypervectors from Rademacher.

    Returns an ``(num_vectors, dim)`` int8 array with entries in {-1, +1}.
    """
    if dim <= 0 or num_vectors < 0:
        raise ValueError("dim must be positive and num_vectors non-negative")
    return (rng.integers(0, 2, size=(num_vectors, dim), dtype=np.int8) * 2 - 1).astype(np.int8)


def random_binary(num_vectors, dim, rng):
    """Sample dense binary hypervectors: ``(num_vectors, dim)`` in {0, 1}."""
    if dim <= 0 or num_vectors < 0:
        raise ValueError("dim must be positive and num_vectors non-negative")
    return rng.integers(0, 2, size=(num_vectors, dim), dtype=np.int8)


def bipolar_to_binary(x):
    """Map {-1, +1} → {1, 0} (the convention under which XOR ≡ multiply).

    With ``b = (1 - x) / 2``, bipolar multiplication corresponds exactly to
    binary XOR: ``(-1)·(-1)=+1 ↔ 1⊕1=0``.
    """
    x = np.asarray(x)
    if not is_bipolar(x):
        raise ValueError("input is not bipolar (+1/-1)")
    return ((1 - x) // 2).astype(np.int8)


def binary_to_bipolar(b):
    """Map {1, 0} → {-1, +1}, the inverse of :func:`bipolar_to_binary`."""
    b = np.asarray(b)
    if not is_binary(b):
        raise ValueError("input is not binary (0/1)")
    return (1 - 2 * b).astype(np.int8)


def is_bipolar(x):
    """True when every entry is -1 or +1.

    Two elementwise comparisons instead of ``np.isin``: the same answer
    on every dtype, about ten times faster on an int8 store slice.
    """
    x = np.asarray(x)
    return bool(((x == 1) | (x == -1)).all())


def is_binary(x):
    """True when every entry is 0 or 1 (elementwise, like :func:`is_bipolar`)."""
    x = np.asarray(x)
    return bool(((x == 0) | (x == 1)).all())


def pack_bits(bits):
    """Pack a {0,1} bit array ``(..., d)`` into uint64 words ``(..., ⌈d/64⌉)``.

    Component ``i`` maps to bit ``i % 64`` of word ``i // 64``
    (little-endian bit order); padding bits beyond ``d`` are zero. The
    word view relies on the platform being little-endian, which holds on
    every supported target.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0:
        raise ValueError("pack_bits expects at least a 1-D bit array")
    dim = bits.shape[-1]
    num_words = (dim + WORD_BITS - 1) // WORD_BITS
    pad = num_words * WORD_BITS - dim
    bits = bits.astype(np.uint8)
    if pad:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bits(words, dim):
    """Inverse of :func:`pack_bits`: uint64 words → {0,1} bits ``(..., dim)``."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.shape[-1] * WORD_BITS < dim:
        raise ValueError(f"{words.shape[-1]} words cannot hold {dim} components")
    return np.unpackbits(words.view(np.uint8), axis=-1, count=dim, bitorder="little")


def pack_bipolar(x):
    """Bit-pack bipolar hypervectors: {−1, +1} ``(..., d)`` → uint64 words.

    Bit 1 encodes −1 (the :func:`bipolar_to_binary` convention under
    which packed XOR implements bipolar multiplication).
    """
    x = np.asarray(x)
    if not is_bipolar(x):
        raise ValueError("input is not bipolar (+1/-1)")
    return pack_bits((x < 0).astype(np.uint8))


def unpack_bipolar(words, dim):
    """Inverse of :func:`pack_bipolar`: words → bipolar int8 ``(..., dim)``."""
    bits = unpack_bits(words, dim)
    return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


def expected_similarity_std(dim):
    """Standard deviation of the cosine similarity of two random bipolar HVs.

    For i.i.d. Rademacher vectors the normalized dot product has mean 0 and
    standard deviation ``1/sqrt(dim)`` — the quantitative statement of
    quasi-orthogonality used in the paper's dimensioning argument.
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    return 1.0 / np.sqrt(dim)
