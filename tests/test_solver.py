"""Equilibrium solving: the simplex route, the independent
support-enumeration route, and their agreement."""

import hashlib
import itertools

import numpy as np
import pytest

from zerosum import (
    ContractViolation,
    GameSpec,
    MixedStrategy,
    PayoffMatrix,
    SolverError,
    StrategyPair,
    maximin_pure,
    raw_exploit,
    sample_game,
    solve_zero_sum_lp,
    support_enumeration,
    uniform_pair,
)
from zerosum import solver
from zerosum.rng import child_seed
from zerosum.solver import CERT_TOL

MP = PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_matching_pennies_interior_equilibrium():
    eq = solve_zero_sum_lp(MP)
    assert eq.value == pytest.approx(0.0, abs=1e-12)
    assert eq.pair.row.probs == pytest.approx([0.5, 0.5], abs=1e-12)
    assert eq.pair.col.probs == pytest.approx([0.5, 0.5], abs=1e-12)
    assert raw_exploit(MP, eq.pair) <= 1e-12


def test_zero_matrix_returns_a_vertex_and_flags_degeneracy():
    eq = solve_zero_sum_lp(PayoffMatrix(np.zeros((2, 2))))
    assert np.array_equal(eq.pair.row.probs, np.array([1.0, 0.0]))
    assert np.array_equal(eq.pair.col.probs, np.array([1.0, 0.0]))
    assert eq.value == pytest.approx(0.0, abs=1e-12)
    assert eq.degenerate


def test_known_mixed_game():
    m = PayoffMatrix(np.array([[3.0, 0.0], [1.0, 2.0]]))
    eq = solve_zero_sum_lp(m)
    assert eq.value == pytest.approx(1.5, abs=1e-9)
    assert eq.pair.row.probs == pytest.approx([0.25, 0.75], abs=1e-9)
    assert eq.pair.col.probs == pytest.approx([0.5, 0.5], abs=1e-9)


def test_dominant_row_game():
    eq = solve_zero_sum_lp(PayoffMatrix(np.array([[1.0, 1.0], [0.0, 0.0]])))
    assert eq.value == pytest.approx(1.0, abs=1e-9)
    assert eq.pair.row.probs[0] == pytest.approx(1.0, abs=1e-9)


def test_saddle_point_game():
    eq = solve_zero_sum_lp(PayoffMatrix(np.array([[2.0, 1.0], [0.0, -1.0]])))
    assert eq.value == pytest.approx(1.0, abs=1e-9)
    assert eq.pair.row.probs == pytest.approx([1.0, 0.0], abs=1e-9)
    assert eq.pair.col.probs == pytest.approx([0.0, 1.0], abs=1e-9)


def test_all_2x2_integer_saddles_match_lp_value():
    vals = range(-2, 3)
    for a, b, c, d in itertools.product(vals, vals, vals, vals):
        m = np.array([[a, b], [c, d]], dtype=float)
        row_mins = m.min(axis=1)
        col_maxes = m.max(axis=0)
        if row_mins.max() == col_maxes.min():  # pure saddle exists
            eq = solve_zero_sum_lp(PayoffMatrix(m))
            assert eq.value == pytest.approx(row_mins.max(), abs=1e-9), m


def test_every_solution_certifies():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        m = PayoffMatrix(rng.normal(size=(n, n)) * rng.uniform(0.2, 30))
        eq = solve_zero_sum_lp(m)
        assert raw_exploit(m, eq.pair) <= 1e-8
        assert eq.iterations >= 0


def test_lp_agrees_with_support_enumeration():
    for seed in range(150):
        n = 2 + seed % 4  # sizes 2..5
        g = sample_game(GameSpec(n=n, distribution="integer", seed=seed))
        lp = solve_zero_sum_lp(g.matrix)
        se = support_enumeration(g.matrix)
        assert abs(lp.value - se.value) <= 1e-8
        assert raw_exploit(g.matrix, se.pair) <= 1e-8


def test_support_enumeration_rejects_large_games():
    with pytest.raises(ContractViolation):
        support_enumeration(PayoffMatrix(np.zeros((6, 6)) + np.eye(6)))


def _highs_value(a):
    """Game value from scipy's HiGHS: max v s.t. p'A >= v, p on the simplex."""
    from scipy.optimize import linprog

    n = a.shape[0]
    res = linprog(
        c=np.r_[np.zeros(n), -1.0],
        A_ub=np.c_[-a.T, np.ones(n)],
        b_ub=np.zeros(n),
        A_eq=np.r_[np.ones(n), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def test_lp_value_matches_highs_beyond_support_enumeration():
    # support enumeration stops at n = 5; above it HiGHS is the independent route
    pytest.importorskip("scipy")
    for n in (6, 8, 12, 16, 24, 32, 48, 64):
        for dist in ("integer", "gaussian", "sparse"):
            for i in range(4):
                g = sample_game(GameSpec(n=n, distribution=dist, seed=child_seed(24, n, i)))
                value = solve_zero_sum_lp(g.matrix).value
                assert abs(value - _highs_value(g.matrix.entries)) <= 1e-8, (n, dist, i)


def test_duality_under_negated_transpose():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n))
        v = solve_zero_sum_lp(PayoffMatrix(a)).value
        w = solve_zero_sum_lp(PayoffMatrix(-a.T)).value
        assert w == pytest.approx(-v, abs=1e-8)


def test_solver_is_bitwise_deterministic():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = PayoffMatrix(rng.normal(size=(n, n)))
        a = solve_zero_sum_lp(m)
        b = solve_zero_sum_lp(m)
        assert a.pair.row.probs.tobytes() == b.pair.row.probs.tobytes()
        assert a.pair.col.probs.tobytes() == b.pair.col.probs.tobytes()
        assert a.value == b.value and a.iterations == b.iterations
        sa = support_enumeration(m) if n <= 5 else None
        if sa is not None:
            sb = support_enumeration(m)
            assert sa.pair.row.probs.tobytes() == sb.pair.row.probs.tobytes()


# SHA-256 over every returned bit of both routes on a fixed corpus. A
# speedup of either solver must leave it unchanged; a deliberate change to
# the selector has to update it and say why.
SOLVER_PIN = "abf03907f11ee0c496a9c37c8e8a61970962bcfd7f71a82c59c72b88f0b82c33"


def test_solver_outputs_frozen_pin():
    h = hashlib.sha256()
    for n in range(2, 21):
        for i in range(20):
            g = sample_game(GameSpec(n=n, distribution="integer", seed=child_seed(5, n, i)))
            eq = solve_zero_sum_lp(g.matrix)
            h.update(repr((eq.value.hex(), eq.iterations, eq.degenerate)).encode())
            h.update(eq.pair.row.probs.tobytes())
            h.update(eq.pair.col.probs.tobytes())
            if n <= 5:
                se = support_enumeration(g.matrix)
                h.update(repr((se.value.hex(), se.iterations)).encode())
                h.update(se.pair.row.probs.tobytes())
                h.update(se.pair.col.probs.tobytes())
    assert h.hexdigest() == SOLVER_PIN


def test_verify_equilibrium_rejects_non_equilibria():
    m = PayoffMatrix(np.array([[3.0, 0.0], [1.0, 2.0]]))
    assert not raw_exploit(m, uniform_pair(2)) <= CERT_TOL
    assert raw_exploit(m, solve_zero_sum_lp(m).pair) <= CERT_TOL
    assert raw_exploit(MP, uniform_pair(2)) <= CERT_TOL


@pytest.mark.parametrize("perturb, error", [
    (lambda y, obj: (y * np.array([1.01, 1.0, 1.0]), obj), "failed its certificate"),
    (lambda y, obj: (y, obj * 1.01), "disagrees with realized payoff"),
], ids=["vertex", "objective"])
def test_lp_rejects_a_perturbed_kernel_solution(monkeypatch, perturb, error):
    original = solver.lp_kernel

    def perturbed(ap, max_iter):
        status, y, duals, obj, iters, degenerate = original(ap, max_iter)
        y, obj = perturb(y, obj)
        return status, y, duals, obj, iters, degenerate

    monkeypatch.setattr(solver, "lp_kernel", perturbed)
    m = PayoffMatrix(np.array([[3.0, 0.0, 1.0], [1.0, 2.0, 0.0], [0.0, 1.0, 2.0]]))
    with pytest.raises(SolverError, match=error) as info:
        solve_zero_sum_lp(m)
    assert np.array_equal(info.value.instance, m.entries)


def test_maximin_pure_selection():
    m = PayoffMatrix(np.array([[3.0, 0.0], [1.0, 2.0]]))
    pair = maximin_pure(m)
    assert np.array_equal(pair.row.probs, np.array([0.0, 1.0]))
    assert np.array_equal(pair.col.probs, np.array([0.0, 1.0]))


def test_maximin_breaks_ties_toward_lowest_index():
    m = PayoffMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    pair = maximin_pure(m)
    assert np.array_equal(pair.row.probs, np.array([1.0, 0.0]))
    assert np.array_equal(pair.col.probs, np.array([1.0, 0.0]))


def test_size_limit_enforced():
    big = np.zeros((65, 65))
    big[0, 0] = 1.0
    with pytest.raises(ContractViolation):
        solve_zero_sum_lp(PayoffMatrix(big))


def test_raw_exploit_handles_constant_matrices():
    m = PayoffMatrix(np.zeros((2, 2)))
    pair = StrategyPair(row=MixedStrategy(np.array([1.0, 0.0])),
                        col=MixedStrategy(np.array([1.0, 0.0])))
    assert raw_exploit(m, pair) == 0.0
