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
certificate passes. The two routes share no solver code, so they can
cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._kernels import exploit_terms, lp_kernel
from .core import MixedStrategy, PayoffMatrix, StrategyPair
from .errors import ContractViolation, SolverError

CERT_TOL = 1e-8          # exploitability certificate for returned equilibria
MAX_PIVOTS = 100_000
SUPPORT_NEG_TOL = 1e-9   # support weights this far below zero are clamped
SUPPORT_ENUM_MAX_N = 5


@dataclass(frozen=True)
class Equilibrium:
    """Solver output: game value, strategy pair, and selector metadata."""

    value: float
    pair: StrategyPair
    method: str
    iterations: int
    degenerate: bool


def raw_exploit(matrix: PayoffMatrix, pair: StrategyPair) -> float:
    """Unnormalized exploitability max_i (Aq)_i - min_j (p'A)_j, clamped at 0."""
    if pair.row.n != matrix.n or pair.col.n != matrix.n:
        raise ContractViolation(
            f"strategy lengths ({pair.row.n}, {pair.col.n}) do not match matrix size {matrix.n}"
        )
    return _certificate(matrix.entries, pair.row.probs, pair.col.probs)[0]


def _certificate(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """(raw exploitability, realized payoff p'Aq) from one exploit_terms pass."""
    max_aq, min_pa, value = exploit_terms(a, p, q)
    return max(0.0, max_aq - value) + max(0.0, value - min_pa), value


def verify_equilibrium(matrix: PayoffMatrix, pair: StrategyPair, tol: float = CERT_TOL) -> bool:
    """True when the pair's exploitability is at most tol."""
    return raw_exploit(matrix, pair) <= tol


def solve_zero_sum_lp(matrix: PayoffMatrix) -> Equilibrium:
    """Solve the game by LP; deterministic and vertex-returning.

    Raises SolverError (carrying the instance) if the simplex hits its
    iteration bound or the solution fails the equilibrium certificate;
    neither occurs on the generated distributions.
    """
    if matrix.n > 64:
        raise ContractViolation(f"LP solver is bounded at n <= 64, got {matrix.n}")
    a = matrix.entries
    shift = 1.0 - float(a.min())
    status, y, duals, obj, iters, degenerate = lp_kernel(a + shift, MAX_PIVOTS)
    if status == 1:
        raise SolverError(f"simplex exceeded {MAX_PIVOTS} pivots", instance=a)
    if status == 2:
        raise SolverError("simplex reported an unbounded LP on a shifted game", instance=a)
    y = np.maximum(y, 0.0)
    duals = np.maximum(duals, 0.0)
    if y.sum() <= 0.0 or duals.sum() <= 0.0:
        raise SolverError("simplex returned an empty strategy", instance=a)
    pair = StrategyPair(
        row=MixedStrategy(duals / duals.sum()),
        col=MixedStrategy(y / y.sum()),
    )
    value = 1.0 / obj - shift
    resid, pay = _certificate(a, pair.row.probs, pair.col.probs)
    if resid > CERT_TOL:
        raise SolverError(f"LP solution failed its certificate (exploit {resid:.3e})", instance=a)
    if abs(pay - value) > CERT_TOL:
        raise SolverError(
            f"LP value {value!r} disagrees with realized payoff {pay!r}", instance=a
        )
    return Equilibrium(
        value=value, pair=pair, method="lp", iterations=iters, degenerate=degenerate
    )


def _equalization_solve(block: np.ndarray):
    """Solve [B -1; 1' 0] [x; v] = [0; 1]; None if singular."""
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
    return sol[:k], float(sol[k])


def _embed_support(weights: np.ndarray, support, n: int) -> MixedStrategy | None:
    if (weights < -SUPPORT_NEG_TOL).any():
        return None
    full = np.zeros(n)
    full[list(support)] = np.maximum(weights, 0.0)
    total = full.sum()
    if total <= 0.0:
        return None
    return MixedStrategy(full / total)


def support_enumeration(matrix: PayoffMatrix) -> Equilibrium:
    """Find an equilibrium by scanning equal-size support pairs (n <= 5).

    For supports (R, C) with |R| = |C| = k the column weights equalize the
    row payoffs on R and vice versa; a candidate is returned only after the
    full best-response certificate passes at 1e-8, which also certifies
    that the two equalization values agree.
    """
    n = matrix.n
    if n > SUPPORT_ENUM_MAX_N:
        raise ContractViolation(
            f"support enumeration is exponential; bounded at n <= {SUPPORT_ENUM_MAX_N}"
        )
    a = matrix.entries
    examined = 0
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                examined += 1
                # the row side is solved only when the column side embeds
                block = a[np.ix_(rows, cols)]
                col_sol = _equalization_solve(block)
                if col_sol is None:
                    continue
                q = _embed_support(col_sol[0], cols, n)
                if q is None:
                    continue
                row_sol = _equalization_solve(block.T)
                if row_sol is None:
                    continue
                p = _embed_support(row_sol[0], rows, n)
                if p is None:
                    continue
                resid, value = _certificate(a, p.probs, q.probs)
                if resid <= CERT_TOL:
                    return Equilibrium(
                        value=value,
                        pair=StrategyPair(row=p, col=q),
                        method="support_enum",
                        iterations=examined,
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
