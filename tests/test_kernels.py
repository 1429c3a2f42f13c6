"""Kernel parity: the numpy kernels must agree bitwise, not just within
tolerance, with plain-Python loop versions of the same arithmetic.

``_exploit_terms_impl`` and ``_lp_kernel_impl`` below are those
references: one scalar operation at a time, in the order the kernels'
docstrings state."""

import numpy as np
import pytest

from zerosum import _kernels as K
from zerosum._kernels import PIV_TOL, RATIO_TIE_TOL, RC_TOL
from zerosum.core import MixedStrategy, PayoffMatrix, StrategyPair, exploitability, raw_exploit
from zerosum.gen import GameSpec, dominated_pad, random_pad, sample_game
from zerosum.rng import child_seed


def _sorted_sum(prods):
    # start at the first sorted product, as cumsum does: a sum of -0.0
    # products stays -0.0, where starting at +0.0 would give +0.0
    prods = np.sort(prods)
    s = prods[0]
    for j in range(1, len(prods)):
        s += prods[j]
    return s


def _exploit_terms_impl(a, p, q):
    n = a.shape[0]
    aq = np.empty(n)
    for i in range(n):
        aq[i] = _sorted_sum(a[i] * q)
    pa = np.empty(n)
    for j in range(n):
        pa[j] = _sorted_sum(p * a[:, j])
    return aq.max(), pa.min(), _sorted_sum(p * aq)


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


def _random_instance(rng, n):
    a = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    return a, p, q


def test_exploit_terms_matches_direct_linear_algebra():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        a, p, q = _random_instance(rng, n)
        hi, lo, v = K.exploit_terms(a, p, q)
        assert hi == pytest.approx((a @ q).max(), abs=1e-12)
        assert lo == pytest.approx((p @ a).min(), abs=1e-12)
        assert v == pytest.approx(p @ a @ q, abs=1e-12)


def test_exploit_terms_permutation_stable_bitwise():
    # reordering actions permutes the products but not the sorted order,
    # so the sums are identical floats
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        a, p, q = _random_instance(rng, n)
        rp = rng.permutation(n)
        cp = rng.permutation(n)
        base = K.exploit_terms(a, p, q)
        perm = K.exploit_terms(a[np.ix_(rp, cp)], p[rp], q[cp])
        assert base == perm


def _parity_games():
    """Seeded integer, gaussian and sparse games at n = 2..20, plus padded
    games, whose dominated blocks give degenerate and tied ratio tests."""
    games = []
    for dist in ("integer", "gaussian", "sparse"):
        for n in range(2, 21):
            for i in range(2):
                spec = GameSpec(n=n, distribution=dist, seed=child_seed(31, n, i))
                games.append(sample_game(spec).matrix.entries)
    for i in range(6):
        base = sample_game(GameSpec(n=2 + i % 3, seed=child_seed(32, i)))
        for target in (6, 9):
            games.append(dominated_pad(base, target, shuffle=bool(i % 2)).padded.entries)
            games.append(random_pad(base, target).padded.entries)
    return games


def test_lp_kernel_numpy_matches_reference_bitwise():
    degenerate = 0
    for a in _parity_games():
        ap = a + (1.0 - a.min())
        s_ref, y_ref, d_ref, o_ref, i_ref, g_ref = _lp_kernel_impl(ap, 10_000)
        s_np, y_np, d_np, o_np, i_np, g_np = K.lp_kernel(ap, 10_000)
        assert (s_np, i_np, g_np) == (s_ref, i_ref, g_ref), a
        assert y_np.tobytes() == y_ref.tobytes(), a
        assert d_np.tobytes() == d_ref.tobytes(), a
        assert float(o_np).hex() == float(o_ref).hex(), a
        degenerate += g_ref
    assert degenerate > 0  # the set exercises the degenerate paths


def test_exploit_terms_numpy_matches_reference_bitwise():
    rng = np.random.default_rng(33)
    for a in _parity_games():
        n = a.shape[0]
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        first, last = np.eye(n)[0], np.eye(n)[-1]
        # pure strategies put exact zeros, some of them -0.0, in the products
        for pp, qq in ((p, q), (first, q), (p, last), (first, last)):
            ref = tuple(float(x).hex() for x in _exploit_terms_impl(a, pp, qq))
            got = tuple(float(x).hex() for x in K.exploit_terms(a, pp, qq))
            assert got == ref, (a, pp, qq)


def test_raw_exploit_is_the_reward_residual_bitwise():
    # the certificates and the reward read one residual
    rng = np.random.default_rng(35)
    for a in _parity_games():
        n = a.shape[0]
        m = PayoffMatrix(a)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        first, last = np.eye(n)[0], np.eye(n)[-1]
        for pp, qq in ((p, q), (first, q), (p, last), (first, last)):
            pair = StrategyPair(row=MixedStrategy(pp), col=MixedStrategy(qq))
            got = raw_exploit(m, pair)
            assert got.hex() == exploitability(m, pair).exploit.hex(), (a, pp, qq)


def test_exploit_terms_batch_matches_numpy_kernel_row_by_row():
    rng = np.random.default_rng(34)
    for a in _parity_games():
        n = a.shape[0]
        p = rng.dirichlet(np.ones(n), size=5)
        q = rng.dirichlet(np.ones(n), size=5)
        p[0] = np.eye(n)[0]  # pure strategies put exact zeros in the products
        q[1] = np.eye(n)[-1]
        batch = K.exploit_terms_batch(a, p, q)
        for g in range(5):
            ref = tuple(float(x).hex() for x in K.exploit_terms(a, p[g], q[g]))
            got = tuple(float(col[g]).hex() for col in batch)
            assert got == ref, (a, g)


def _exploit_terms_batch_axis_form(a, p, q):
    # reference: the same sorted sequential sums through np.sort / np.cumsum
    # copies, with the column products summed along axis -2 untransposed
    aq = np.cumsum(np.sort(a * q[..., None, :], axis=-1), axis=-1)[..., -1]
    pa = np.cumsum(np.sort(a * p[..., :, None], axis=-2), axis=-2)[..., -1, :]
    v = np.cumsum(np.sort(p * aq, axis=-1), axis=-1)[..., -1]
    return aq.max(axis=-1), pa.min(axis=-1), v


def test_exploit_terms_batch_matches_its_axis_form_bitwise():
    rng = np.random.default_rng(36)
    for a in _parity_games():
        n = a.shape[0]
        p = rng.dirichlet(np.ones(n), size=4)
        q = rng.dirichlet(np.ones(n), size=4)
        p[0] = np.eye(n)[0]  # exact zeros, some of them -0.0, in the products
        q[1] = np.eye(n)[-1]
        for pp, qq in ((p, q), (p[0], q[0]), (p[2], q[1])):
            ref = _exploit_terms_batch_axis_form(a, pp, qq)
            got = K.exploit_terms_batch(a, pp, qq)
            assert [x.tobytes() for x in map(np.asarray, got)] == \
                [x.tobytes() for x in map(np.asarray, ref)], (a, pp, qq)


def test_exploit_terms_batch_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(37)
    a = rng.normal(size=(6, 6))
    p = rng.dirichlet(np.ones(6), size=3)
    q = rng.dirichlet(np.ones(6), size=3)
    before = [x.tobytes() for x in (a, p, q)]
    K.exploit_terms_batch(a, p, q)
    K.exploit_terms_batch(a, p[0], q[0])
    assert [x.tobytes() for x in (a, p, q)] == before


def test_lp_kernel_deterministic():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 6))
    ap = a - a.min() + 1.0
    first = K.lp_kernel(ap, 10_000)
    second = K.lp_kernel(ap, 10_000)
    assert first[1].tobytes() == second[1].tobytes()
    assert first[2].tobytes() == second[2].tobytes()
    assert first[0] == second[0] and first[4] == second[4]


def test_lp_kernel_iteration_cap_reports_status():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(5, 5))
    ap = a - a.min() + 1.0
    status, *_ = K.lp_kernel(ap, 1)
    assert status == 1
