"""Projection parity: ``project_to_simplex`` checks its weights once, on
Python floats, and must behave exactly like the projection it replaced,
which checked them with numpy and then let ``MixedStrategy`` check the
result again.

``_ref_project`` below is that projection as it stood; ``_ref_as_weights``
is the entry check ``agents._as_weights`` made before it became one pass
over the entry types. Each input must give the same ``None``, the same
probability bytes, or the same raised exception type on both sides, with
warnings raised as errors so a leaked ``RuntimeWarning`` is a difference.
"""

import json
import math
import sys
import warnings

import numpy as np
import pytest

from zerosum.agents import _as_weights, parse_response
from zerosum.core import (
    PROJECT_MIN_MASS,
    SIMPLEX_SUM_TOL,
    MixedStrategy,
    project_to_simplex,
    strategy_checks,
)
from zerosum.errors import ContractViolation


def _ref_project(weights):
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1 or not np.isfinite(arr).all():
        return None
    with np.errstate(over="ignore"):
        if (arr >= 0.0).all() and abs(float(arr.sum()) - 1.0) <= SIMPLEX_SUM_TOL:
            return MixedStrategy(arr)
        clamped = np.maximum(arr, 0.0)
        mass = float(clamped.sum())
    if not PROJECT_MIN_MASS < mass < math.inf:
        return None
    return MixedStrategy(clamped / mass)


def _outcome(project, weights):
    try:
        s = project(weights)
    except Exception as exc:
        return ("raised", type(exc))
    if s is None:
        return ("none",)
    assert not s.probs.flags.writeable
    return ("probs", s.probs.dtype.str, s.probs.tobytes())


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _check(weights):
    before = np.array(weights, copy=True) if isinstance(weights, np.ndarray) else None
    got = _outcome(project_to_simplex, weights)
    assert got == _outcome(_ref_project, weights), weights
    if before is not None:  # the caller's array is neither frozen nor changed
        assert weights.flags.writeable
        assert weights.tobytes() == before.tobytes()
    return got


def _seeded_batch(rng, kind: int, n: int, m: int) -> np.ndarray:
    """m weight vectors of length n, one row each, of one of 8 kinds."""
    simplex = rng.dirichlet(np.ones(n), size=m)
    if kind == 0:  # on the simplex
        return simplex
    if kind == 1:  # a sum within or just past the tolerance
        simplex[:, 0] += rng.choice([1.0, -1.0], m) * rng.uniform(0.5, 1.5, m) * SIMPLEX_SUM_TOL
        return simplex
    if kind == 2:  # noisy oracle output
        return simplex + rng.uniform(0.01, 1.0, (m, 1)) * rng.standard_normal((m, n))
    if kind == 3:  # unnormalized, nonnegative, with signed zeros
        w = rng.uniform(0, 5, (m, n)) * (rng.random((m, n)) < 0.7)
        w[rng.random((m, n)) < 0.3] = -0.0
        return w
    if kind == 4:  # any scale, either sign, overflowing to +-inf at the top
        scales = [1e-320, 1e-300, 1e-13, 1e-6, 1.0, 1e6, 1e150, 1e300, 1e308]
        with np.errstate(over="ignore"):
            return rng.standard_normal((m, n)) * rng.choice(scales, (m, 1))
    if kind == 5:  # mass near the overflow edge
        w = rng.uniform(0.1, 1.0, (m, n)) * sys.float_info.max
        w /= rng.choice([1, 2, n, 2 * n, 4 * n], (m, 1))
        w[rng.random((m, n)) < 0.2] *= -1.0
        return w
    if kind == 6:  # special values spliced in
        specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e308]
        spliced = rng.random((m, n)) < 0.4
        simplex[spliced] = rng.choice(specials, int(spliced.sum()))
        return simplex
    # mass at the PROJECT_MIN_MASS edge
    return simplex * PROJECT_MIN_MASS * rng.choice([0.5, 1.0, 1.0 + 1e-15, 2.0], (m, 1))


def test_seeded_vectors_match_the_reference():
    rng = np.random.default_rng(12)
    kinds = set()
    count = 0
    for n in range(1, 13):
        for kind in range(8):
            for w in _seeded_batch(rng, kind, n, 2100):
                kinds.add(_check(w)[0])
                count += 1
    assert count >= 200_000
    assert kinds == {"none", "probs"}


def test_mixed_strategy_decides_as_numpy_sums():
    """MixedStrategy sums under the overflow guard; on the same seeded
    vectors it accepts exactly what strategy_checks, on numpy's arr.sum(),
    accepts, and rejects the rest with ContractViolation."""
    rng = np.random.default_rng(13)
    verdicts = set()
    for n in range(1, 13):
        for kind in range(8):
            for w in _seeded_batch(rng, kind, n, 300):
                with np.errstate(over="ignore", invalid="ignore"):
                    ok = all(strategy_checks(w))
                try:
                    MixedStrategy(w)
                except ContractViolation:
                    assert not ok, w
                else:
                    assert ok, w
                verdicts.add(bool(ok))
    assert verdicts == {True, False}


@pytest.mark.parametrize("weights", [
    [0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0], [0.0, 0.0], [-0.0],
    [-0.0, 0.5, 0.7], [-0.0, 2.0], [0.5, -0.0, 0.25],  # nonnegative, -0.0, sum off 1
    [5e-324, 1.0], [5e-324, 5e-324], [2.2250738585072014e-308, 1.0],
    [1e-12, 0.0], [1e-12, 1e-13], [-1.0, 1e-12], [1e-12 / 3, 1e-12 / 3, 1e-12 / 3],
    [1e308, 0.0], [1e308, 1e308], [1e308, 1e308, 1e308], [1e308, 1e308, -1.0],
    [-1e308, 1e308], [-1e308, -1e308, 1.0], [sys.float_info.max, 0.0],
    [sys.float_info.max / 2, sys.float_info.max / 2],
    [sys.float_info.max / 4, sys.float_info.max / 4],
    [sys.float_info.max / 4, sys.float_info.max / 4, sys.float_info.max / 4],
    [math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0], [-math.inf, 1.0], [math.inf, -math.inf],
    [0.5, 0.5 + 1e-9], [0.5, 0.5 - 1e-9], [0.5, 0.5 + 1.0000001e-9], [0.5, 0.5 - 1.0000001e-9],
    [1.0 + 1e-9], [1.0 - 1e-9], [np.nextafter(1.0 + 1e-9, 2.0)], [np.nextafter(1.0 - 1e-9, 0.0)],
    # sums at 1 + 1e-9 where numpy's sum is off by more than the tolerance and a
    # left-to-right sum of the same floats is not
    [0.23675015563385396, 0.052501986534333606, 0.019062959031986758, 0.09897084857753723,
     0.12347327764309018, 0.00517738373393577, 0.04023060474706562, 0.04017880077741313,
     0.11458562133381382, 0.26906836298696996],
    [0.017964158586501185, 0.17328493810036047, 0.026137007070324174, 0.034717189134332686,
     0.10384598898702782, 0.4438104751098663, 0.029289167857999558, 0.04387623015578536,
     0.015094242264823116, 0.04175963352345391, 0.027908030726744405, 0.04231293948278086],
    [1, 0, 0], [3, 1], [True, False], np.float32([0.25, 0.75]), np.float32([0.2, 0.3]),
    [], [[0.5, 0.5]], 0.5, [0.25] * 4, [0.1] * 10, [-0.1] * 3,
    ["0.5", "0.5"], ["x", 1.0], [[1.0], [2.0, 3.0]], [10 ** 400, 0], [None, 1.0],
], ids=lambda w: repr(w)[:40])
def test_special_values_match_the_reference(weights):
    _check(weights)


def test_array_inputs_keep_their_owner():
    base = np.array([0.3, 0.0, 0.7, -0.2, 0.5, 0.5])
    for w in (base[:3], base[3:], base[::2], np.array([0.3, 0.7])):
        _check(w)
        if (s := project_to_simplex(w)) is not None:
            assert not np.shares_memory(s.probs, w)
    frozen = np.array([0.3, 0.7])
    frozen.flags.writeable = False
    assert np.array_equal(project_to_simplex(frozen).probs, frozen)


def test_nonnegative_negative_zero_comes_out_positive():
    out = project_to_simplex(np.array([-0.0, 0.5, 0.7]))
    assert math.copysign(1.0, out.probs[0]) == 1.0
    on_simplex = project_to_simplex(np.array([-0.0, 1.0]))
    assert math.copysign(1.0, on_simplex.probs[0]) == -1.0


def test_hypothesis_search_matches_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    weight = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(-2.0, 2.0),
        st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 1e-12, 1.0]),
        st.integers(-10, 10),
    )
    vectors = st.one_of(
        st.lists(weight, min_size=0, max_size=12),
        st.integers(1, 12).flatmap(lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
    )

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(vectors, st.booleans())
    def check(values, as_array):
        _check(np.array(values, dtype=np.float64) if as_array else values)

    check()


def _ref_as_weights(value, n):
    if not isinstance(value, list):
        return None, "malformed"
    if len(value) != n:
        return None, "length_mismatch"
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
        return None, "malformed"
    return "weights", None


@pytest.mark.parametrize("text", [
    "[1, 0.5]", "[1, true]", "[false, 0.5]", "[null, 1]", '["1", 1]', "[[1], 1]",
    '[{"a": 1}, 1]', "[1e999, -1e999]", "[NaN, 1]", "[0, -0.0]", "[2, 3]", "[1, 2, 3]",
    "3", '"12"', "{}", "[]", "[1]", "[" + "9" * 401 + ", 1]",
], ids=lambda text: text[:16])
def test_entry_types_match_the_reference(text):
    value = json.loads(text)
    weights, error = _as_weights(value, 2)
    ref_weights, ref_error = _ref_as_weights(value, 2)
    assert error == ref_error
    assert (weights is None) == (ref_weights is None)
    if error is None:  # the reply path projects these weights
        reply = json.dumps({"row": value, "col": [0.5, 0.5]})
        assert parse_response(reply, 2).parse_error in (None, "degenerate_weights")
