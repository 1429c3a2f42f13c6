"""Each guard is shown to catch the fault it guards against.

One table of (guard, mutant, expected failure). A row's ``prepare`` builds
the guard's input with the package as it is, its ``check`` runs the guard's
own check and names the outcome ("ok" when it passes), and its mutant
patches one function for the length of one case. Every guard must pass
without its mutant and fail, as named, with it: a guard whose check has
drifted into a no-op fails here.
"""

import contextlib
import json
from dataclasses import replace

import numpy as np
import pytest

import test_core
import test_kernels
from test_acceptance import c09_verdict
from test_edit_sweep import sweep
from test_golden import GOLDEN, ROWS, mismatches, run_table
from test_option_sweep import BASE, _argv, _exit_code, _sweep, write_inputs
from test_reader import _edited_entry, _infinite
from zerosum import _kernels, agents, cli, core, gen, harness, solver
from zerosum.agents import NoisyOracleAgent
from zerosum.core import canonical_json
from zerosum.errors import ConfigError, ConstructionError, ContractViolation, SolverError
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


# kernel parity: the fused exploitability kernel is bitwise its plain-Python reference

def _parity_check(state):
    """The kernel parity tests that fail, or ok."""
    failed = []
    for test in (test_kernels.test_exploit_terms_numpy_matches_reference_bitwise,
                 test_kernels.test_exploit_terms_batch_matches_the_reference_on_pairs_and_stacks):
        try:
            test()
        except AssertionError:
            failed.append(test.__name__)
    return f"fails: {' '.join(failed)}" if failed else "ok"


def _swapped_halves(monkeypatch):
    def swapped(a, p, q):
        n = a.shape[-1]
        buf = np.empty((*p.shape[:-1], 2 * n, n))
        np.multiply(a, q[..., None, :], out=buf[..., :n, :])
        np.multiply(a.swapaxes(-1, -2), p[..., None, :], out=buf[..., n:, :])
        buf.sort()
        sums = np.add.accumulate(buf, axis=-1)[..., -1].copy()
        aq, pa = sums[..., n:], sums[..., :n]  # each half read as the other
        v = p * aq
        v.sort()
        v = np.add.accumulate(v, axis=-1)[..., -1]
        return np.maximum.reduce(aq, axis=-1), np.minimum.reduce(pa, axis=-1), v

    monkeypatch.setattr(_kernels, "exploit_terms_batch", swapped)


# the checked strategy constructor: a vector its caller owns, such as an LP
# solution, is refused as the dataclass refuses it

def _strategy_check(state):
    """Whether a vector of mass 1.5 is accepted and the refusal test fails, or ok."""
    test = test_core.TestMixedStrategy().test_the_checked_constructor_refuses_as_the_dataclass_does
    try:
        core.MixedStrategy._checked(np.array([1.0, 0.5]))
        outcome = ["mass 1.5 accepted"]
    except ContractViolation:
        outcome = []
    for weights, error in test_core.STRATEGY_REFUSALS:
        try:
            test(weights, error)
        except pytest.fail.Exception:
            outcome.append(f"{test.__name__} fails")
            break
    return ", ".join(outcome) or "ok"


def _unchecked_mass(monkeypatch):
    check = core._check_weights

    def no_sum_check(arr):
        try:
            check(arr)
        except ContractViolation as exc:  # the sum check is the last one
            if "sum to" not in str(exc):
                raise

    monkeypatch.setattr(core, "_check_weights", no_sum_check)


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


# the size-group reader: a group builds as its records build alone, and a
# file's bad line is refused with the error it gets alone

def _group_prepare(tmp_path):
    games = [sample_game(GameSpec(n=4, distribution=dist, seed=i, normalize=i != 2))
             for i, dist in enumerate(("integer", "gaussian", "sparse", "integer", "gaussian"))]
    return tmp_path, [canonical_json(g.to_json_dict()) for g in games]


def _group_check(state):
    tmp_path, lines = state
    ds = [json.loads(line) for line in lines]
    specs = [GameSpec.from_json_dict(d["spec"]) for d in ds]
    raws = [d["raw"]["entries"] for d in ds]
    together = gen._game_records(specs, raws)
    alone = [gen._game_records([spec], [raw])[0] for spec, raw in zip(specs, raws)]
    if [(canonical_json(r.to_json_dict()), r.matrix.entries.tobytes()) for r in together] != \
            [(canonical_json(r.to_json_dict()), r.matrix.entries.tobytes()) for r in alone]:
        return "group differs"
    for accepted, edit, error in (("edit accepted", _edited_entry, "matrix does not match"),
                                  ("infinite entry accepted", _infinite, "must be finite")):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(line + "\n" for line in [lines[0], edit(lines[1]), *lines[2:]]))
        try:
            cli._load_records(str(path))
        except ConfigError as exc:
            if error not in str(exc):
                return f"wrong error: {exc}"
            continue
        return accepted
    return "ok"


def _first_of_group_compared(monkeypatch):
    rebuilt, seen = gen._rebuilt, set()

    def first_only(what, d, rec):
        if rec.n in seen:
            return rec
        seen.add(rec.n)
        return rebuilt(what, d, rec)

    monkeypatch.setattr(gen, "_rebuilt", first_only)


def _first_factor(monkeypatch):
    def first_factor(stack):
        out = stack * (2.0 / np.ptp(stack[0]))
        out.flags.writeable = False
        return out

    monkeypatch.setattr(gen, "normalized_stack", first_factor)


def _unchecked_finite(monkeypatch):
    def unchecked(n, raws):
        stack = core._float_array(raws, "payoff entries")
        return stack if stack.shape == (len(raws), n, n) else None

    monkeypatch.setattr(gen, "_raw_stack", unchecked)


# the golden table: every CLI output byte is pinned

def _golden_check(tmp_path):
    """The agents whose eval rows moved, or ok."""
    moved = {line.split("'")[1] for line in mismatches(run_table(tmp_path),
                                                     json.loads(GOLDEN.read_text()))}
    agents = sorted({ROWS[name][ROWS[name].index("--agent") + 1].split(":")[0]
                     for name in moved if name.startswith("eval ")})
    return f"eval rows moved: {' '.join(agents)}" if moved else "ok"


def _rounded_replies(monkeypatch):
    reply = agents._reply

    def rounded(row, col):
        return reply(np.array([float(f"{x:.15g}") for x in row]),
                     np.array([float(f"{x:.15g}") for x in col]))

    monkeypatch.setattr(agents, "_reply", rounded)


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
    # the games are built before the mutant is patched in
    "kernel parity": (lambda tmp_path: test_kernels._parity_games(), _parity_check,
                      _swapped_halves, "fails: test_exploit_terms_numpy_matches_reference_bitwise "
                      "test_exploit_terms_batch_matches_the_reference_on_pairs_and_stacks"),
    "checked strategy": (lambda tmp_path: None, _strategy_check, _unchecked_mass,
                         "mass 1.5 accepted, "
                         "test_the_checked_constructor_refuses_as_the_dataclass_does fails"),
    "rescore": (_rescore_prepare, _rescore_check, _float32_weights, "exit 3"),
    "solver routes": (_routes_prepare, _routes_check, _off_support_value, "exit 3"),
    "edit sweep": (_sweep_prepare, _sweep_check, _uncompared, "violations"),
    "group reader compares each line": (_group_prepare, _group_check, _first_of_group_compared,
                                        "edit accepted"),
    "group reader scales each matrix": (_group_prepare, _group_check, _first_factor,
                                        "group differs"),
    "group reader checks finiteness": (_group_prepare, _group_check, _unchecked_finite,
                                       "infinite entry accepted"),
    # maximin replies pure strategies, which 15 digits hold exactly
    "golden table": (lambda tmp_path: tmp_path, _golden_check, _rounded_replies,
                     "eval rows moved: block noisy oracle uniform"),
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
