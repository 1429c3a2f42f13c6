"""Equilibrium computation: simplex LP selector and support enumeration.

The LP route is the production selector T(A). The game is shifted entrywise
positive (shift = 1 - min A) and the column player's reciprocal-value LP

    max 1.y   s.t.  (A + shift) y <= 1,  y >= 0

is solved by a dense tableau simplex with Bland's rule, so T is a fixed,
deterministic function of A that returns a vertex of the optimal set at
degeneracy. The row strategy comes from the duals of the same tableau, the
value from the reciprocal of the objective.

Support enumeration is an independent oracle for n <= 5: it scans
equal-size support pairs in documented order (size ascending, then
lexicographic row support, then lexicographic column support), solves the
equalization systems, and returns the first candidate whose best-response
certificate passes. Size 1, the pure saddle points, is certified in closed
form: the candidate (e_i, e_j) passes when (colmax_j - a_ij)^+ +
(a_ij - rowmin_i)^+ <= 1e-8, and the first such cell in row-major order is
returned. That is exact, not a shortcut: a 1 x 1 bordered system always
has determinant 1 and its one weight normalizes to exactly 1.0, and for a
one-hot pair the certificate's sorted sums add only signed zeros to a
single entry, so they equal colmax_j, rowmin_i and a_ij as values and the
same subtractions decide. From k = 2 the scan works on one support size at
a time: every k x k block is gathered with one fancy index, the bordered
systems of each side are solved in one stacked np.linalg.solve, and the
survivors are certified in one batched exploit pass. A system counts as
singular when np.linalg.slogdet gives sign 0, the exact-zero LU pivot on
which a single np.linalg.solve raises, so the scan returns bit for bit
what solving one candidate at a time returns. The two routes share no
solver code, so they can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from ._kernels import exploit_terms_batch, lp_kernel
from .core import MixedStrategy, PayoffMatrix, StrategyPair, is_strategy, regrets

# not called here: perfbench/tracing.py patches solver.exploit_terms and
# solver.raw_exploit, and perfbench/workloads.py calls solver.raw_exploit
from ._kernels import exploit_terms  # noqa: F401
from .core import raw_exploit  # noqa: F401
from .errors import ContractViolation, SolverError

CERT_TOL = 1e-8          # exploitability certificate for returned equilibria
MAX_PIVOTS = 100_000
MAX_N = 64               # the largest game size generated, padded or solved by LP
SUPPORT_NEG_TOL = 1e-9   # support weights this far below zero are clamped
SUPPORT_ENUM_MAX_N = 5


@dataclass(frozen=True)
class Equilibrium:
    """Solver output: game value, strategy pair, and selector metadata."""

    value: float
    pair: StrategyPair
    iterations: int
    degenerate: bool


def solve_zero_sum_lp(matrix: PayoffMatrix) -> Equilibrium:
    """Solve the game by LP; deterministic and vertex-returning.

    Raises SolverError (carrying the instance) if the simplex hits its
    iteration bound or the solution fails the equilibrium certificate;
    neither occurs on the generated distributions.
    """
    if matrix.n > MAX_N:
        raise ContractViolation(f"LP solver is bounded at n <= {MAX_N}, got {matrix.n}")
    a = matrix.entries
    shift = 1.0 - float(a.min())
    status, y, duals, obj, iters, degenerate = lp_kernel(a + shift, MAX_PIVOTS)
    if status == 1:
        raise SolverError(f"simplex exceeded {MAX_PIVOTS} pivots", instance=a)
    if status == 2:
        raise SolverError("simplex reported an unbounded LP on a shifted game", instance=a)
    y = np.maximum(y, 0.0)
    duals = np.maximum(duals, 0.0)
    y_mass = y.sum()
    dual_mass = duals.sum()
    if y_mass <= 0.0 or dual_mass <= 0.0:
        raise SolverError("simplex returned an empty strategy", instance=a)
    pair = StrategyPair(
        row=MixedStrategy(duals / dual_mass),
        col=MixedStrategy(y / y_mass),
    )
    value = 1.0 / obj - shift
    row_regret, col_regret, pay = regrets(matrix, pair)
    resid = row_regret + col_regret
    if resid > CERT_TOL:
        raise SolverError(f"LP solution failed its certificate (exploit {resid:.3e})", instance=a)
    if abs(pay - value) > CERT_TOL:
        raise SolverError(
            f"LP value {value!r} disagrees with realized payoff {pay!r}", instance=a
        )
    return Equilibrium(value=value, pair=pair, iterations=iters, degenerate=degenerate)


@cache
def _support_pairs(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) index arrays of every |R| = |C| = k support pair, in scan order."""
    combos = np.array(list(combinations(range(n), k)))
    m = len(combos)
    rows = np.repeat(combos, m, axis=0)
    cols = np.tile(combos, (m, 1))
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _equalize(blocks: np.ndarray, support: np.ndarray, n: int, live: np.ndarray):
    """Equalizing strategies for the live blocks of a stack, embedded in n actions.

    Solves [B -1; 1' 0] [x; v] = [0; 1] for each live k x k block B. A
    system is dropped when it is singular (an exact-zero LU pivot, the case
    in which np.linalg.solve raises), when its solution is not finite, when
    a weight lies below -SUPPORT_NEG_TOL, or when the clamped weights have
    no mass. Returns (ok, full): which blocks were kept, and their
    normalized strategies as rows of a (len(blocks), n) array, zero where
    not kept. Each kept row is bitwise what solving its block alone gives.
    """
    k = support.shape[1]
    idx = np.flatnonzero(live)
    m = np.zeros((len(idx), k + 1, k + 1))
    m[:, :k, :k] = blocks[idx]
    m[:, :k, k] = -1.0
    m[:, k, :k] = 1.0
    regular = np.linalg.slogdet(m)[0] != 0.0
    idx = idx[regular]
    # an explicit (g, k + 1, 1) right-hand side: numpy 1.x reads a 1-D one
    # as a matrix against a stack and raises
    rhs = np.zeros((len(idx), k + 1, 1))
    rhs[:, k] = 1.0
    sol = np.linalg.solve(m[regular], rhs)[..., 0]
    weights = sol[:, :k]
    good = np.isfinite(sol).all(axis=1) & ~(weights < -SUPPORT_NEG_TOL).any(axis=1)
    idx = idx[good]
    full = np.zeros((len(blocks), n))
    full[idx[:, None], support[idx]] = np.maximum(weights[good], 0.0)
    total = full.sum(axis=1)
    ok = total > 0.0
    full[ok] /= total[ok, None]
    return ok, full


def support_enumeration(matrix: PayoffMatrix) -> Equilibrium:
    """Find an equilibrium by scanning equal-size support pairs (n <= 5).

    For supports (R, C) with |R| = |C| = k the column weights equalize the
    row payoffs on R and vice versa; a candidate is returned only after the
    full best-response certificate passes at 1e-8, which also certifies
    that the two equalization values agree. Size 1 is certified in closed
    form from the column maxima and row minima (see the module docstring);
    from k = 2 each support size is handled in one stacked pass. The first
    passing candidate in scan order is returned, with its 1-based scan
    position as ``iterations``. A candidate whose strategy MixedStrategy
    rejects stops the scan with that error.
    """
    n = matrix.n
    if n > SUPPORT_ENUM_MAX_N:
        raise ContractViolation(
            f"support enumeration is exponential; bounded at n <= {SUPPORT_ENUM_MAX_N}"
        )
    a = matrix.entries
    # k = 1 in closed form: the candidate (e_i, e_j) has residual
    # (colmax_j - a_ij)^+ + (a_ij - rowmin_i)^+, the batched certificate's
    # subtractions on the values its sorted sums give for a one-hot pair
    resid = np.fmax(0.0, a.max(axis=0) - a) + np.fmax(0.0, a - a.min(axis=1)[:, None])
    saddle = np.flatnonzero(resid <= CERT_TOL)
    if len(saddle):
        first = int(saddle[0])
        i, j = divmod(first, n)
        row = MixedStrategy.one_hot(n, i)
        col = MixedStrategy.one_hot(n, j)
        value = exploit_terms_batch(a, row.probs, col.probs)[2]
        return Equilibrium(
            value=float(value),
            pair=StrategyPair(row=row, col=col),
            iterations=first + 1,
            degenerate=False,
        )
    examined = n * n
    for k in range(2, n + 1):
        rows, cols = _support_pairs(n, k)
        blocks = a[rows[:, :, None], cols[:, None, :]]
        # the row side is solved only where the column side is a strategy
        col_ok, q = _equalize(blocks, cols, n, np.ones(len(blocks), dtype=bool))
        q_valid = is_strategy(q)
        row_ok, p = _equalize(blocks.transpose(0, 2, 1), rows, n, col_ok & q_valid)
        p_valid = is_strategy(p)
        both = np.flatnonzero(row_ok & p_valid)
        max_aq, min_pa, values = exploit_terms_batch(a, p[both], q[both])
        # the batched form of core.regrets; fmax, like its max(0.0, x), maps NaN to 0.0
        resid = np.fmax(0.0, max_aq - values) + np.fmax(0.0, values - min_pa)
        stop = (col_ok & ~q_valid) | (row_ok & ~p_valid)
        stop[both[resid <= CERT_TOL]] = True
        if not stop.any():
            examined += len(blocks)
            continue
        first = int(stop.argmax())
        # on a rejected strategy, MixedStrategy raises: column side first
        col = MixedStrategy(q[first])
        row = MixedStrategy(p[first])
        # both strategies passed, so first is a certified candidate in both
        return Equilibrium(
            value=float(values[np.searchsorted(both, first)]),
            pair=StrategyPair(row=row, col=col),
            iterations=examined + first + 1,
            degenerate=False,
        )
    raise SolverError("support enumeration found no certified equilibrium", instance=a)


def maximin_pure(matrix: PayoffMatrix) -> StrategyPair:
    """Pure security strategies: argmax_i min_j and argmin_j max_i.

    Ties break to the lowest index; both strategies are one-hot.
    """
    a = matrix.entries
    i = int(a.min(axis=1).argmax())
    j = int(a.max(axis=0).argmin())
    return StrategyPair(
        row=MixedStrategy.one_hot(matrix.n, i),
        col=MixedStrategy.one_hot(matrix.n, j),
    )


def uniform_pair(n: int) -> StrategyPair:
    """Both players mix uniformly."""
    if n < 1:
        raise ContractViolation(f"uniform_pair needs n >= 1, got {n}")
    return StrategyPair(row=MixedStrategy.uniform(n), col=MixedStrategy.uniform(n))
