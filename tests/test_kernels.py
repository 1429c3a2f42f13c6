"""Backend parity: the jitted kernels and the numpy fallbacks must agree
bitwise, not just within tolerance, so results cannot depend on which
backend a machine happens to select.

The plain-Python bodies the jitted kernels are compiled from
(``_lp_kernel_impl``, ``_exploit_terms_impl``) are the reference; the
numpy kernels are checked against them directly, so parity is tested with
or without numba installed."""

import os
import subprocess
import sys

import numpy as np
import pytest

from zerosum import _kernels as K
from zerosum.gen import GameSpec, dominated_pad, random_pad, sample_game
from zerosum.rng import child_seed

needs_numba = pytest.mark.skipif(not K.HAS_NUMBA, reason="numba not installed")


def _random_instance(rng, n):
    a = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    return a, p, q


@needs_numba
def test_exploit_terms_backends_agree_bitwise():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        a, p, q = _random_instance(rng, n)
        got_nb = K.exploit_terms_numba(a, p, q)
        got_np = K.exploit_terms_numpy(a, p, q)
        for x, y in zip(got_nb, got_np):
            assert float(x) == float(y), f"trial {trial}: {got_nb} vs {got_np}"


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


@needs_numba
def test_lp_kernel_backends_agree_bitwise():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(2, 10))
        a = rng.normal(size=(n, n))
        ap = a - a.min() + 1.0
        s_nb, y_nb, d_nb, o_nb, i_nb, g_nb = K.lp_kernel_numba(ap, 10_000)
        s_np, y_np, d_np, o_np, i_np, g_np = K.lp_kernel_numpy(ap, 10_000)
        assert s_nb == s_np and i_nb == i_np and g_nb == g_np
        assert y_nb.tobytes() == y_np.tobytes(), f"trial {trial}"
        assert d_nb.tobytes() == d_np.tobytes()
        assert float(o_nb) == float(o_np)


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
        s_ref, y_ref, d_ref, o_ref, i_ref, g_ref = K._lp_kernel_impl(ap, 10_000)
        s_np, y_np, d_np, o_np, i_np, g_np = K.lp_kernel_numpy(ap, 10_000)
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
        ref = tuple(float(x).hex() for x in K._exploit_terms_impl(a, p, q))
        got = tuple(float(x).hex() for x in K.exploit_terms_numpy(a, p, q))
        assert got == ref, a


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
            ref = tuple(float(x).hex() for x in K.exploit_terms_numpy(a, p[g], q[g]))
            got = tuple(float(col[g]).hex() for col in batch)
            assert got == ref, (a, g)


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


def _backend_in_subprocess(env_value):
    env = dict(os.environ)
    if env_value is None:
        env.pop("ZEROSUM_NUMBA", None)
    else:
        env["ZEROSUM_NUMBA"] = env_value
    out = subprocess.run(
        [sys.executable, "-c", "from zerosum._kernels import backend_name; print(backend_name())"],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip()


def test_env_flag_selects_numpy_backend():
    assert _backend_in_subprocess("0") == "numpy"


@needs_numba
def test_default_backend_is_numba():
    assert _backend_in_subprocess(None) == "numba"
    assert _backend_in_subprocess("1") == "numba"
