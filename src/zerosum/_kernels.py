"""Hot numeric kernels, in numpy: the exploitability terms and the simplex.

There is one implementation of each kernel, so every machine computes the
same bits. tests/test_kernels.py keeps plain-Python loop versions of both
as references and checks these kernels against them bitwise.

- ``exploit_terms`` sums each product vector in ascending sorted order,
  sequentially from the first sorted product (``np.add.accumulate``, never
  numpy's pairwise ``sum``). The canonical order makes the certificate
  exactly permutation-equivariant: permuting rows/columns of the game (and
  the strategies with them) permutes each product multiset but never
  changes the sorted sequence being summed. All sums run along the last
  axis, in one buffer of shape ``(..., 2n, n)`` per call: its first n rows
  are the row products ``a * q`` and its last n the column products
  ``a.swapaxes(-1, -2) * p``, so column j is row n + j. ``np.multiply(...,
  out=)`` writes both blocks into the buffer, which is sorted once in place
  and accumulated once; each row is still sorted and summed on its own, so
  its sum is bitwise that of the row alone. The row sums are copied to one
  contiguous ``(..., 2n)`` array before ``np.maximum.reduce`` and
  ``np.minimum.reduce`` read them: numpy reduces a contiguous vector and a
  strided one by different loops, which can disagree on the sign of a zero
  maximum or minimum, and the references reduce contiguous vectors.
- ``lp_kernel`` is a dense tableau simplex for  max 1.y  s.t. ap @ y <= 1,
  y >= 0  with ap strictly positive. Entering variable: smallest index with
  reduced cost below -RC_TOL (Bland's rule). Leaving row: minimum ratio,
  ties broken by smallest basis label. Deterministic, anti-cycling, and
  vertex-returning at degeneracy by construction. The ratio test runs over
  Python floats (``.tolist()``), which are the same IEEE-754 doubles, so
  each division, subtraction and comparison rounds exactly as in a scalar
  loop over the tableau; only the per-element numpy-scalar overhead goes
  away.
"""

from __future__ import annotations

import numpy as np

RC_TOL = 1e-9       # reduced-cost threshold for entering / optimality
PIV_TOL = 1e-11     # minimum pivot element magnitude
RATIO_TIE_TOL = 1e-12


def exploit_terms_batch(a, p, q):
    """(max_i (Aq)_i, min_j (p'A)_j, p'Aq) with order-canonical summation.

    p and q are one strategy pair of shape (n,) or a stack of pairs of shape
    (g, n); the results carry the same leading axes. Each pair's products
    are sorted and summed along the last axis of their own block, so row g
    of a stack is bitwise the result for p[g], q[g] alone.
    """
    n = a.shape[-1]
    buf = np.empty((*p.shape[:-1], 2 * n, n))
    np.multiply(a, q[..., None, :], out=buf[..., :n, :])
    np.multiply(a.swapaxes(-1, -2), p[..., None, :], out=buf[..., n:, :])
    buf.sort()
    sums = np.add.accumulate(buf, axis=-1)[..., -1].copy()
    aq = sums[..., :n]
    v = p * aq
    v.sort()
    v = np.add.accumulate(v, axis=-1)[..., -1]
    return np.maximum.reduce(aq, axis=-1), np.minimum.reduce(sums[..., n:], axis=-1), v


def exploit_terms(a, p, q):
    """exploit_terms_batch for one strategy pair, as Python floats."""
    max_aq, min_pa, v = exploit_terms_batch(a, p, q)
    return float(max_aq), float(min_pa), float(v)


def lp_kernel(ap, max_iter):
    """Bland's-rule tableau simplex with vectorized pivot updates.

    Returns (status, y, duals, objective, iterations, degenerate); status
    is 0 optimal, 1 at the iteration cap, 2 unbounded. The rank-1 update
    forms the same products as ``np.outer`` and each entry takes one
    multiply then one subtract, as a scalar loop would.
    """
    n = ap.shape[0]
    width = 2 * n + 1
    t = np.zeros((n + 1, width))
    t[:n, :n] = ap
    t[:n, n:2 * n] = np.eye(n)
    t[:n, width - 1] = 1.0
    t[n, :n] = -1.0
    obj = t[n, :2 * n]
    rhs = t[:n, width - 1]
    basis = list(range(n, 2 * n))

    status = 0
    iters = 0
    while True:
        neg = obj < -RC_TOL
        enter = int(neg.argmax())
        if not neg[enter]:
            break
        col = t[:n, enter].tolist()
        rhs_vals = rhs.tolist()
        leave = -1
        best = np.inf
        for i in range(n):
            if col[i] > PIV_TOL:
                ratio = rhs_vals[i] / col[i]
                if ratio < best - RATIO_TIE_TOL:
                    best = ratio
                    leave = i
                elif leave >= 0 and abs(ratio - best) <= RATIO_TIE_TOL and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            status = 2
            break
        piv_row = t[leave] / t[leave, enter]
        t -= t[:, enter, None] * piv_row
        t[leave] = piv_row
        basis[leave] = enter
        iters += 1
        if iters >= max_iter:
            status = 1
            break

    y = np.zeros(n)
    for i, b in enumerate(basis):
        if b < n:
            y[b] = rhs[i]
    duals = t[n, n:2 * n].copy()
    nonbasic = np.ones(2 * n, dtype=bool)
    nonbasic[basis] = False
    degenerate = bool((np.abs(obj[nonbasic]) <= RC_TOL).any())
    return status, y, duals, float(t[n, width - 1]), iters, degenerate


# perfbench/run.py records the backend in each run's machine info
def backend_name() -> str:
    return "numpy"
