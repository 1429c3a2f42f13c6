"""Hot numeric kernels: numba @njit versions with a pure-numpy fallback.

Backend selection happens once at import: the numba path is used when numba
imports cleanly and the env flag ZEROSUM_NUMBA is not "0". Both
implementations are kept importable (``exploit_terms_numpy``,
``exploit_terms_numba``, ...) for parity tests and benchmarks/bench_kernels.py.

The two backends are written to perform identical floating-point operations
in identical order, so they agree bitwise:

- ``exploit_terms`` sums each product vector in ascending sorted order.
  Besides backend parity, the canonical order makes the certificate exactly
  permutation-equivariant: permuting rows/columns of the game (and the
  strategies with them) permutes each product multiset but never changes the
  sorted sequence being summed.
- ``lp_kernel`` is a dense tableau simplex for  max 1.y  s.t. ap @ y <= 1,
  y >= 0  with ap strictly positive. Entering variable: smallest index with
  reduced cost below -RC_TOL (Bland's rule). Leaving row: minimum ratio,
  ties broken by smallest basis label. Deterministic, anti-cycling, and
  vertex-returning at degeneracy by construction. The numpy version runs
  the ratio test over Python floats (``.tolist()``), which are the same
  IEEE-754 doubles, so each division, subtraction and comparison rounds
  exactly as in the jitted loop; only the per-element numpy-scalar
  overhead goes away.
"""

from __future__ import annotations

import os

import numpy as np

RC_TOL = 1e-9       # reduced-cost threshold for entering / optimality
PIV_TOL = 1e-11     # minimum pivot element magnitude
RATIO_TIE_TOL = 1e-12

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def decorator(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return decorator


def _exploit_terms_impl(a, p, q):
    n = a.shape[0]
    aq = np.empty(n)
    for i in range(n):
        prods = np.sort(a[i] * q)
        s = 0.0
        for j in range(n):
            s += prods[j]
        aq[i] = s
    pa = np.empty(n)
    for j in range(n):
        prods = np.sort(p * a[:, j])
        s = 0.0
        for i in range(n):
            s += prods[i]
        pa[j] = s
    vprods = np.sort(p * aq)
    v = 0.0
    for i in range(n):
        v += vprods[i]
    return aq.max(), pa.min(), v


def exploit_terms_batch(a, p, q):
    """(max_i (Aq)_i, min_j (p'A)_j, p'Aq) with order-canonical summation.

    p and q are one strategy pair of shape (n,) or a stack of pairs of shape
    (g, n); the results carry the same leading axes. Each pair's products
    are sorted and summed along their own axis, so row g of a stack is
    bitwise the result for p[g], q[g] alone.
    """
    aq = np.cumsum(np.sort(a * q[..., None, :], axis=-1), axis=-1)[..., -1]
    pa = np.cumsum(np.sort(a * p[..., :, None], axis=-2), axis=-2)[..., -1, :]
    v = np.cumsum(np.sort(p * aq, axis=-1), axis=-1)[..., -1]
    return aq.max(axis=-1), pa.min(axis=-1), v


def exploit_terms_numpy(a, p, q):
    """exploit_terms_batch for one strategy pair, as Python floats."""
    max_aq, min_pa, v = exploit_terms_batch(a, p, q)
    return float(max_aq), float(min_pa), float(v)


def _lp_kernel_impl(ap, max_iter):
    # Tableau columns: n decision vars, n slacks, rhs. All rhs start at 1.
    n = ap.shape[0]
    width = 2 * n + 1
    t = np.zeros((n + 1, width))
    for i in range(n):
        for j in range(n):
            t[i, j] = ap[i, j]
        t[i, n + i] = 1.0
        t[i, width - 1] = 1.0
    for j in range(n):
        t[n, j] = -1.0
    basis = np.empty(n, dtype=np.int64)
    for i in range(n):
        basis[i] = n + i

    status = 0
    iters = 0
    while True:
        enter = -1
        for j in range(2 * n):
            if t[n, j] < -RC_TOL:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = np.inf
        for i in range(n):
            if t[i, enter] > PIV_TOL:
                ratio = t[i, width - 1] / t[i, enter]
                if ratio < best - RATIO_TIE_TOL:
                    best = ratio
                    leave = i
                elif leave >= 0 and abs(ratio - best) <= RATIO_TIE_TOL and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            status = 2  # unbounded: cannot happen for strictly positive ap
            break
        piv = t[leave, enter]
        for j in range(width):
            t[leave, j] /= piv
        for i in range(n + 1):
            if i == leave:
                continue
            f = t[i, enter]
            for j in range(width):
                t[i, j] -= f * t[leave, j]
        basis[leave] = enter
        iters += 1
        if iters >= max_iter:
            status = 1
            break

    y = np.zeros(n)
    for i in range(n):
        if basis[i] < n:
            y[basis[i]] = t[i, width - 1]
    duals = np.empty(n)
    for i in range(n):
        duals[i] = t[n, n + i]
    degenerate = False
    for j in range(2 * n):
        in_basis = False
        for i in range(n):
            if basis[i] == j:
                in_basis = True
                break
        if not in_basis and abs(t[n, j]) <= RC_TOL:
            degenerate = True
            break
    return status, y, duals, t[n, width - 1], iters, degenerate


def lp_kernel_numpy(ap, max_iter):
    """Same simplex as the jitted kernel, with vectorized pivot updates.

    The rank-1 update forms the same products as ``np.outer`` and each entry
    takes one multiply then one subtract, as in the jitted loop; with the
    ratio test on Python floats (module docstring), the result is bitwise
    equal to ``_lp_kernel_impl``.
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


if HAS_NUMBA:
    exploit_terms_numba = njit(cache=True)(_exploit_terms_impl)
    lp_kernel_numba = njit(cache=True)(_lp_kernel_impl)
else:  # pragma: no cover
    exploit_terms_numba = None
    lp_kernel_numba = None

USE_NUMBA = HAS_NUMBA and os.environ.get("ZEROSUM_NUMBA", "1") != "0"

if USE_NUMBA:
    exploit_terms = exploit_terms_numba
    lp_kernel = lp_kernel_numba
else:
    exploit_terms = exploit_terms_numpy
    lp_kernel = lp_kernel_numpy


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"
