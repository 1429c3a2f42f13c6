"""Deterministic randomness: one counter-based generator, one splitting rule.

Every random draw in the toolkit flows through a numpy Philox bit generator
(counter-based, 64-bit words) keyed directly with a 64-bit seed, so streams
are reproducible across platforms and independent of numpy's SeedSequence.

The key reaches Philox without a SeedSequence. ``generator`` passes
Philox a minimal ``ISeedSequence`` whose ``generate_state(2, np.uint64)``
returns the key words ``[seed mod 2^64, 0]``: exactly the words
``Philox(key=seed)`` stores, so the state and every draw are the same.
``Philox(key=...)`` would first build a ``SeedSequence(None)`` (reading OS
entropy) only to throw it away; passing the key as the seed sequence skips
that. The key type has no ``spawn``, so ``Generator.spawn`` is not
supported on these generators (nothing in the toolkit calls it; child
streams come from ``child_seed``). The type is defined on the first draw,
not at import: subclassing ``ISeedSequence`` imports ``numpy.random``,
which ``import zerosum`` otherwise does not.

Child seeds are derived with a splitmix64 chain::

    child_seed(root, a, b, ...) = h_k   where   h_0 = root,
    h_{i+1} = splitmix64(h_i XOR (part_i * GOLDEN mod 2^64))

GOLDEN is the splitmix64 increment 0x9E3779B97F4A7C15. The rule is part of
the serialization contract: eval sets derive game i at size n from
(eval_seed, n, i), so any single game can be regenerated alone.

A root seed is an int in [0, 2^64); ``root_seed`` states that rule, and
``child_seed``, ``GameSpec`` and the CLI's seed options all read it, so no
two roots alias one stream. The path parts are reduced mod 2^64.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractViolation

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 output step (Steele, Lea & Flood's finalizer)."""
    x = (x + GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def root_seed(seed: int) -> int:
    """seed, if it is a root seed: an int in [0, 2^64); else ContractViolation."""
    if not 0 <= seed <= _MASK:
        raise ContractViolation(f"seed must be in [0, 2^64), got {seed}")
    return seed


def child_seed(root: int, *parts: int) -> int:
    """Derive a 64-bit child seed from a root seed and an integer path."""
    h = root_seed(root)
    for p in parts:
        h = splitmix64(h ^ ((int(p) * GOLDEN) & _MASK))
    return h


@functools.cache
def _philox_key() -> type:
    """The seed-sequence type that hands Philox its key words, defined once."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """Seed sequence that gives Philox the key words [seed mod 2^64, 0]."""

        __slots__ = ("_seed",)

        def __init__(self, seed: int):
            self._seed = seed & _MASK

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its two 64-bit key words once, at construction
            return np.array([self._seed, 0], dtype=np.uint64)

    return PhiloxKey


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed with the given 64-bit seed; the same state as
    np.random.Philox(key=seed mod 2^64)."""
    return np.random.Generator(np.random.Philox(_philox_key()(seed)))


def standard_normal(rng: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller standard normals from the uniform stream.

    Draws ceil(count/2) uniform pairs (u1, u2) in [0,1), maps them through
    z0 = sqrt(-2 ln(1-u1)) cos(2 pi u2), z1 = sqrt(-2 ln(1-u1)) sin(2 pi u2),
    and interleaves (z0_0, z1_0, z0_1, ...) truncated to count values. The
    transform is fixed here so the byte stream does not depend on numpy's
    internal normal sampler.
    """
    pairs = (count + 1) // 2
    u = rng.random((pairs, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]
    out = np.empty(pairs * 2)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]
