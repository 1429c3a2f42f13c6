"""Support enumeration certifies pure saddle points in closed form and
scans each larger support size in stacked numpy passes. It must return bit
for bit what a scan of one candidate at a time returns: value, iterations,
strategy bytes, and the same error type.

``_reference_support_enumeration`` below is that one-at-a-time scan, kept
as the reference."""

from itertools import combinations

import numpy as np
import pytest

from zerosum import core, solver
from zerosum.core import MixedStrategy, PayoffMatrix
from zerosum.errors import ContractViolation, SolverError
from zerosum.gen import GameSpec, dominated_pad, sample_game
from zerosum.rng import child_seed


def _equalization_solve(block):
    k = block.shape[0]
    m = np.zeros((k + 1, k + 1))
    m[:k, :k] = block
    m[:k, k] = -1.0
    m[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all():
        return None
    return sol[:k]


def _embed_support(weights, support, n):
    if (weights < -solver.SUPPORT_NEG_TOL).any():
        return None
    full = np.zeros(n)
    full[list(support)] = np.maximum(weights, 0.0)
    total = full.sum()
    if total <= 0.0:
        return None
    return MixedStrategy(full / total)


def _reference_support_enumeration(matrix):
    """(value, iterations, row, col) of the first certified candidate."""
    n = matrix.n
    a = matrix.entries
    examined = 0
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                examined += 1
                block = a[np.ix_(rows, cols)]
                col_w = _equalization_solve(block)
                if col_w is None:
                    continue
                q = _embed_support(col_w, cols, n)
                if q is None:
                    continue
                row_w = _equalization_solve(block.T)
                if row_w is None:
                    continue
                p = _embed_support(row_w, rows, n)
                if p is None:
                    continue
                max_aq, min_pa, value = solver.exploit_terms(a, p.probs, q.probs)
                if max(0.0, max_aq - value) + max(0.0, value - min_pa) <= solver.CERT_TOL:
                    return value, examined, p, q
    raise SolverError("support enumeration found no certified equilibrium", instance=a)


def _outcome(fn, matrix):
    try:
        out = fn(matrix)
    except (SolverError, ContractViolation) as exc:
        return type(exc).__name__
    if isinstance(out, tuple):
        value, iterations, row, col = out
    else:
        value, iterations, row, col = out.value, out.iterations, out.pair.row, out.pair.col
    return float(value).hex(), iterations, row.probs.tobytes(), col.probs.tobytes()


def _assert_same(matrix):
    ref = _outcome(_reference_support_enumeration, matrix)
    got = _outcome(solver.support_enumeration, matrix)
    assert got == ref, matrix.entries.tolist()
    return ref


def _seeded_games():
    for dist in ("integer", "gaussian", "sparse"):
        for n in range(2, 6):
            for i in range(12):
                spec = GameSpec(n=n, distribution=dist, seed=child_seed(41, n, i))
                yield sample_game(spec).matrix


def _hand_built():
    mp = np.array([[1.0, -1.0], [-1.0, 1.0]])
    yield mp
    yield np.kron(mp, np.ones((2, 2)))  # duplicate rows and columns, 4x4
    rng = np.random.default_rng(42)
    for n in range(2, 6):
        yield np.zeros((n, n))
        yield np.ones((n, n))
        dup = rng.integers(-3, 4, size=(n, n)).astype(float)
        dup[-1] = dup[0]
        dup[:, -1] = dup[:, 0]
        yield dup
        yield rng.integers(-1, 2, size=(n, n)).astype(float)  # many singular blocks
        yield rng.integers(0, 2, size=(n, n)).astype(float)
        # tiny but regular blocks: only an exact-zero pivot makes a system singular
        yield rng.normal(size=(n, n)) * 1e-6
        # at this scale no candidate meets the absolute 1e-8 certificate
        yield rng.normal(size=(n, n)) * 1e12
        # signed zeros: where every product of p'Aq is -0.0 the value is -0.0
        for _ in range(20):
            yield rng.choice([-1.0, -0.0, 0.0, 1.0], size=(n, n))


def _dominated_pads():
    for i, base_n in enumerate((2, 2, 3, 3)):
        base = sample_game(GameSpec(n=base_n, seed=child_seed(43, i)))
        for target in (4, 5):
            yield dominated_pad(base, target, shuffle=bool(i % 2)).padded


def test_batched_scan_matches_reference_on_seeded_games():
    for matrix in _seeded_games():
        _assert_same(matrix)


def test_batched_scan_matches_reference_on_singular_and_degenerate_games():
    outcomes = [_assert_same(PayoffMatrix(a)) for a in _hand_built()]
    assert "SolverError" in outcomes  # the no-equilibrium path is exercised
    assert any(o[0] == "-0x0.0p+0" for o in outcomes if not isinstance(o, str))


def test_batched_scan_matches_reference_on_dominated_pads():
    for matrix in _dominated_pads():
        _assert_same(matrix)


def test_batched_scan_matches_reference_on_the_benchmark_corpus():
    # the games solve_corpus cross-checks: integer, n = 2..4, 40 per size
    for seed in (1, 20261017):
        pure = total = 0
        for n in range(2, 5):
            for i in range(40):
                spec = GameSpec(n=n, distribution="integer", seed=child_seed(seed, n, i))
                _, iterations, _, _ = _assert_same(sample_game(spec).matrix)
                pure += iterations <= n * n
                total += 1
        assert 3 * pure >= total, (seed, pure)


@pytest.mark.parametrize("entries, cell", [
    # value 1 at the product of rows {0, 2} and columns {1, 2}
    ([[2.0, 1.0, 1.0], [0.0, 1.0, 1.0], [3.0, 1.0, 1.0]], (0, 1)),
    # rows {1, 2} and columns {0, 2}: the first saddle is not in row 0
    ([[-5.0, -1.0, -5.0], [0.0, 4.0, 0.0], [0.0, 7.0, 0.0]], (1, 0)),
    ([[3.0] * 4] * 4, (0, 0)),
    # a saddle 5e-9 from exact still certifies at 1e-8
    ([[1.0, 2.0], [1.0 + 5e-9, 0.0]], (0, 0)),
    # ... and wins over the exact saddle at (1, 1) that follows it
    ([[2.0, 1.0 - 5e-9, 3.0], [2.0, 1.0, 3.0], [-1.0, 0.0, -2.0]], (0, 1)),
    # a cell's residual is colmax_j - rowmin_i, so within the tolerance the
    # certified cells need not form a rectangle: (0, 2) and (1, 0) certify
    # at 9e-9 but (0, 0) does not, and column-major order would pick (1, 0)
    ([[1e-9, 1.0, 0.0], [1.5e-8, 1.0, 6e-9], [-1.0, 2.0, 9e-9]], (0, 2)),
])
def test_the_first_saddle_in_row_major_order_wins(entries, cell):
    matrix = PayoffMatrix(np.array(entries))
    _, iterations, row, col = _assert_same(matrix)
    n = matrix.n
    i, j = cell
    assert iterations == i * n + j + 1
    assert row == MixedStrategy.one_hot(n, i).probs.tobytes()
    assert col == MixedStrategy.one_hot(n, j).probs.tobytes()


@pytest.mark.parametrize("miss", [1.1e-8, 2e-8])
def test_a_saddle_missed_by_more_than_the_tolerance_is_not_certified(miss):
    matrix = PayoffMatrix(np.array([[1.0, 2.0], [1.0 + miss, 0.0]]))
    _, iterations, _, _ = _assert_same(matrix)
    assert iterations > matrix.n ** 2


def test_a_pure_saddle_solves_no_equalization_system(monkeypatch):
    calls = []
    equalize = solver._equalize

    def counting(*args):
        calls.append(args[1].shape[1])
        return equalize(*args)

    monkeypatch.setattr(solver, "_equalize", counting)
    saddle = PayoffMatrix(np.array([[2.0, 1.0, 1.0], [0.0, 1.0, 1.0], [3.0, 1.0, 1.0]]))
    assert solver.support_enumeration(saddle).iterations == 2
    assert calls == []
    matching_pennies = PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert solver.support_enumeration(matching_pennies).iterations == 5
    assert calls == [2, 2]


def test_batched_scan_stops_on_the_same_rejected_strategy(monkeypatch):
    # with a zero simplex tolerance MixedStrategy rejects every normalized
    # strategy whose sum rounds away from 1, so the scan must raise exactly
    # where the one-at-a-time scan reaches the first such candidate
    monkeypatch.setattr(core, "SIMPLEX_SUM_TOL", 0.0)
    outcomes = [_assert_same(m) for m in _seeded_games()]
    assert "ContractViolation" in outcomes
    assert any(not isinstance(o, str) for o in outcomes)


def test_batched_scan_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    entries = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    games = st.integers(2, 5).flatmap(
        lambda n: hnp.arrays(np.float64, (n, n), elements=entries)
    )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(games)
    def check(a):
        _assert_same(PayoffMatrix(a))

    check()
