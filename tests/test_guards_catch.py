"""Each guard is shown to catch the fault it guards against.

One table of (guard, mutant, expected failure). A row's ``prepare`` builds
the guard's input with the package as it is, its ``check`` runs the guard's
own check and names the outcome ("ok" when it passes), and its mutant
patches one function for the length of one case. Every guard must pass
without its mutant and fail, as named, with it: a guard whose check has
drifted into a no-op fails here.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from test_acceptance import c09_verdict
from test_edit_sweep import sweep
from test_option_sweep import BASE, _argv, _exit_code, _sweep, write_inputs
from zerosum import _kernels, agents, cli, gen, harness, solver
from zerosum.agents import NoisyOracleAgent
from zerosum.core import canonical_json
from zerosum.errors import ConstructionError, SolverError
from zerosum.gen import GameSpec, dominated_pad, make_eval_set, random_pad, sample_game
from zerosum.harness import invariance_audit


def _outcome(check, state):
    """check's outcome on state, or the name of the guard error it raised."""
    try:
        return check(state)
    except (SolverError, ConstructionError) as exc:
        return type(exc).__name__


# the certificate: every LP solution is re-checked at 1e-8

def _lp_prepare(tmp_path):
    return sample_game(GameSpec(n=5, distribution="gaussian", seed=3)).matrix


def _lp_check(matrix):
    solver.solve_zero_sum_lp(matrix)
    return "ok"


def _nudge_y(monkeypatch):
    kernel = solver.lp_kernel

    def nudged(ap, max_iter):
        status, y, *rest = kernel(ap, max_iter)
        return (status, y + 1e-6, *rest)

    monkeypatch.setattr(solver, "lp_kernel", nudged)


# the dominated pad: its own LP value must equal the base game's at 1e-8

def _pad_prepare(tmp_path):
    base = sample_game(GameSpec(n=3, seed=4))
    base.equilibrium  # solved unpatched, so only the padded solve is off
    return base


def _pad_check(base):
    dominated_pad(base, 8, shuffle=True)
    return "ok"


def _off_value(monkeypatch):
    solve = gen.solve_zero_sum_lp

    def off(matrix):
        eq = solve(matrix)
        return replace(eq, value=eq.value + 1e-6)

    monkeypatch.setattr(gen, "solve_zero_sum_lp", off)


# the dominated pad, verified when built: its reference pair must certify at 1e-8

def _off_exploit(monkeypatch):
    exploit = gen.raw_exploit
    monkeypatch.setattr(gen, "raw_exploit", lambda matrix, pair: exploit(matrix, pair) + 1e-6)


# exact permutation equivariance: the scoring kernel sums in sorted order

def _audit_prepare(tmp_path):
    games = [g for n in (3, 5, 8)
             for g in make_eval_set(n, 40, GameSpec(n=2, distribution="gaussian"), eval_seed=1)]
    for g in games:
        g.equilibrium  # solved unpatched: the audit alone runs under the mutant
    return games


def _audit_check(games):
    [rep] = invariance_audit(NoisyOracleAgent(0.3, seed=1), games, kinds=("permutation",))
    return "ok" if rep.ok else "not ok"


def _storage_order_sums(monkeypatch):
    def storage_order(a, p, q):
        aq = (a * q[..., None, :]).cumsum(axis=-1)[..., -1]
        pa = (a.swapaxes(-1, -2) * p[..., None, :]).cumsum(axis=-1)[..., -1]
        v = (p * aq).cumsum(axis=-1)[..., -1]
        return aq.max(axis=-1), pa.min(axis=-1), v

    monkeypatch.setattr(_kernels, "exploit_terms_batch", storage_order)


# bit-exact rescoring: a stored result is reproduced from its raw texts

def _rescore_prepare(tmp_path):
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    run("gen", "--n", 4, "--count", 3, "--seed", 2, "--out", tmp_path / "g.jsonl")
    run("eval", "--in", tmp_path / "g.jsonl", "--agent", "noisy:0.3", "--k", 2, "--seed", 1,
        "--out", tmp_path / "r.json")
    return tmp_path


def _rescore_check(tmp_path):
    rc = cli.main(["eval", "--in", str(tmp_path / "g.jsonl"), "--agent", "noisy:0.3",
                   "--rescore", str(tmp_path / "r.json")])
    return "ok" if rc == 0 else f"exit {rc}"


def _float32_weights(monkeypatch):
    as_weights = agents._as_weights

    def rounded(value, n):
        weights, error = as_weights(value, n)
        if weights is not None:
            weights = weights.astype(np.float32).astype(np.float64)
        return weights, error

    monkeypatch.setattr(agents, "_as_weights", rounded)


# the two solver routes: solve --method both exits 3 when their values differ

def _routes_prepare(tmp_path):
    assert cli.main(["gen", "--n", "4", "--count", "3", "--seed", "2",
                     "--out", str(tmp_path / "g.jsonl")]) == 0
    return tmp_path


def _routes_check(tmp_path):
    rc = cli.main(["solve", "--in", str(tmp_path / "g.jsonl"), "--method", "both"])
    return "ok" if rc == 0 else f"exit {rc}"


def _off_support_value(monkeypatch):
    enumerate_supports = cli.support_enumeration

    def off(matrix):
        eq = enumerate_supports(matrix)
        return replace(eq, value=eq.value + 1e-5)

    monkeypatch.setattr(cli, "support_enumeration", off)


# the edit sweep: a reader accepts only a line equal to the one it rebuilds

def _sweep_prepare(tmp_path):
    return canonical_json(sample_game(GameSpec(n=3, seed=1)).to_json_dict())


def _sweep_check(line):
    _, violations = sweep(line)
    return "ok" if not violations else "violations"


def _uncompared(monkeypatch):
    monkeypatch.setattr(gen, "_rebuilt", lambda what, d, rec: rec)


# the option sweep: eval refuses a k below 1 (not exit 1) and a non-finite tau

def _options_prepare(tmp_path):
    with contextlib.chdir(tmp_path):
        write_inputs(tmp_path)
    return tmp_path


def _options_check(tmp_path):
    """The options whose swept values exit with a code the sweep does not allow."""
    base = set(_argv("eval", BASE["eval"]))
    with contextlib.chdir(tmp_path):
        wrong = {next((a for a in argv if a not in base), "").split("=")[0]
                 for argv, codes in _sweep("eval") if _exit_code(argv) not in codes}
    return f"wrong exits for {' '.join(sorted(wrong))}" if wrong else "ok"


def _unchecked_k_tau(monkeypatch):
    monkeypatch.setattr(harness, "_check_k_tau", lambda k, tau: None)


# the acceptance gate: C09's dominated curve holds while dense and random collapse

def _c09_check(state):
    ok, _ = c09_verdict()
    return "ok" if ok else "FAIL"


def _random_for_dominated(monkeypatch):
    monkeypatch.setattr(harness, "dominated_pad", random_pad)


# guard -> (prepare, check, mutant, the check's outcome under the mutant)
GUARDS = {
    "lp certificate": (_lp_prepare, _lp_check, _nudge_y, "SolverError"),
    "dominated pad value": (_pad_prepare, _pad_check, _off_value, "ConstructionError"),
    "dominated pad certificate": (_pad_prepare, _pad_check, _off_exploit, "ConstructionError"),
    "permutation audit": (_audit_prepare, _audit_check, _storage_order_sums, "not ok"),
    "rescore": (_rescore_prepare, _rescore_check, _float32_weights, "exit 3"),
    "solver routes": (_routes_prepare, _routes_check, _off_support_value, "exit 3"),
    "edit sweep": (_sweep_prepare, _sweep_check, _uncompared, "violations"),
    "option sweep": (_options_prepare, _options_check, _unchecked_k_tau,
                     "wrong exits for --k --tau"),
    "acceptance C09": (lambda tmp_path: None, _c09_check, _random_for_dominated, "FAIL"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_the_guard_passes_without_its_mutant(guard, tmp_path, capsys):
    prepare, check, _, _ = GUARDS[guard]
    assert _outcome(check, prepare(tmp_path)) == "ok"


@pytest.mark.parametrize("guard", GUARDS)
def test_the_guard_catches_its_mutant(guard, tmp_path, monkeypatch, capsys):
    prepare, check, mutant, failure = GUARDS[guard]
    state = prepare(tmp_path)
    mutant(monkeypatch)
    assert _outcome(check, state) == failure
