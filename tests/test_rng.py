"""``rng.generator`` keys Philox without a SeedSequence; it must give the
same state and the same draws as ``np.random.Philox(key=seed)``, which is
how the generator was built before and how numpy documents a keyed Philox.
Root seeds are ints in [0, 2^64), and nothing derives a stream from any
other root."""

import numpy as np
import pytest

from zerosum import ContractViolation, GameSpec
from zerosum.rng import child_seed, generator

_MASK = (1 << 64) - 1


def _plain(value):
    """A bit generator state with its arrays as lists, comparable with ==."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.tolist())
    return value


def _seeds():
    edges = [0, 1, 2 ** 63, 2 ** 64 - 1]
    rng = np.random.default_rng(20261019)
    drawn = rng.integers(0, 2 ** 64, size=10_000, dtype=np.uint64, endpoint=False).tolist()
    return edges + drawn


def test_generator_is_philox_keyed_with_the_seed():
    for s in _seeds():
        ours = generator(s)
        theirs = np.random.Generator(np.random.Philox(key=s))
        assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state), s
        assert ours.random(3).tobytes() == theirs.random(3).tobytes(), s
        assert ours.integers(-9, 10, size=4).tobytes() == theirs.integers(-9, 10, size=4).tobytes(), s


def test_generator_reduces_the_seed_mod_2_64():
    for s in (2 ** 64, 2 ** 64 + 5, 2 ** 70 + 3):
        want = np.random.Generator(np.random.Philox(key=s & _MASK)).random(2)
        assert generator(s).random(2).tobytes() == want.tobytes()


@pytest.mark.parametrize("root", [-1, 2 ** 64, 2 ** 65 - 1])
def test_a_root_seed_outside_64_bits_is_refused(root):
    with pytest.raises(ContractViolation, match=r"seed must be in \[0, 2\^64\)"):
        child_seed(root, 1)
    with pytest.raises(ContractViolation, match=r"seed must be in \[0, 2\^64\)"):
        GameSpec(n=3, seed=root)


def test_the_path_parts_are_still_reduced_mod_2_64():
    top = 2 ** 64 - 1
    assert GameSpec(n=3, seed=top).seed == top
    assert child_seed(top, -1) == child_seed(top, top)
    assert child_seed(0, 2 ** 64 + 7) == child_seed(0, 7)
