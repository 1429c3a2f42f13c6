"""Acceptance gate: ten behavioral criteria asserted end to end.

Each test prints one "[C##] PASS/FAIL <detail>" line (visible in the
pytest summary via -rA) and enforces its stated tolerance and, where one
applies, its time budget. Reference numbers live in constants below;
changing them is changing the contract, not fixing a test.

Known standing failure: C03 holds the maximin baseline to its reference
row within 0.10 at every size. Sizes 3 and 6 measure far outside that
band at high replication (gaps ~0.16 and ~0.15 persist at N=1000 and at
one million games), so the criterion fails honestly rather than being
widened to pass.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from zerosum import (
    BlockSolverAgent,
    GameSpec,
    MaximinAgent,
    NoisyOracleAgent,
    OracleAgent,
    PayoffMatrix,
    UniformAgent,
    binomial_se,
    check_residual_lipschitz,
    child_seed,
    dominated_pad,
    evaluate,
    exploitability,
    grpo_cancellation_check,
    make_eval_set,
    padding_cliff_experiment,
    random_pad,
    raw_exploit,
    rescore,
    sample_game,
    selector_discontinuity_demo,
    solve_zero_sum_lp,
    support_enumeration,
    toy_grpo_train,
)

EVAL_SEED = 99
K = 4
TAU = 0.10

# Reference success rates for the two baselines at the standard setting
# (50 games per size, best of 4, tau = 0.10) and for the uniform agent on
# large dense games. Tolerances account for the reference's small sample.
BASELINE_UNIFORM = {2: 0.18, 3: 0.04, 4: 0.16, 5: 0.04, 6: 0.08, 7: 0.04}
BASELINE_MAXIMIN = {2: 0.72, 3: 0.74, 4: 0.38, 5: 0.28, 6: 0.28, 7: 0.10}
LARGE_INTEGER_UNIFORM = {8: 0.03, 10: 0.03, 12: 0.00, 15: 0.10, 20: 0.10}

MP = SimpleNamespace(
    n=2, id="mp", matrix=PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
)

COLLECTED = []  # EvalResults accumulated for the C10 cross-check


def _check(cid, ok, detail, elapsed=None, budget=None):
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.1f}s" + (f" / {budget:.0f}s budget]" if budget else "]")
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}{timing}")
    assert ok, f"{cid}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{cid}: took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c01_oracle_saturates_success():
    t0 = time.perf_counter()
    rates = {}
    for n in range(2, 8):
        games = make_eval_set(n, 50, eval_seed=EVAL_SEED)
        res = evaluate(OracleAgent(), games, k=K, tau=TAU)
        COLLECTED.append(res)
        rates[n] = res.s_at_tau
    ok = all(v == 1.0 for v in rates.values())
    _check(
        "C01", ok,
        f"exact solver scores s@{TAU:g} = 1.00 on every size 2-7 (got {rates})",
        elapsed=time.perf_counter() - t0, budget=10.0,
    )


def test_c02_uniform_matches_reference_row():
    t0 = time.perf_counter()
    gaps = {}
    for n in range(2, 8):
        games = make_eval_set(n, 4000, eval_seed=EVAL_SEED)
        res = evaluate(UniformAgent(), games, k=K, tau=TAU)
        COLLECTED.append(res)
        gaps[n] = round(abs(res.s_at_tau - BASELINE_UNIFORM[n]), 4)
    ok = all(g <= 0.09 for g in gaps.values())
    _check(
        "C02", ok,
        f"uniform s@{TAU:g} within 0.09 of its reference row at N=4000 (gaps {gaps})",
        elapsed=time.perf_counter() - t0, budget=60.0,
    )


def test_c03_maximin_matches_reference_row():
    t0 = time.perf_counter()
    cells = {}
    for n in range(2, 8):
        games = make_eval_set(n, 1000, eval_seed=EVAL_SEED)
        res = evaluate(MaximinAgent(), games, k=K, tau=TAU)
        COLLECTED.append(res)
        cells[n] = (round(res.s_at_tau, 4), BASELINE_MAXIMIN[n])
    gaps = {n: round(abs(m - r), 4) for n, (m, r) in cells.items()}
    ok = all(g <= 0.10 for g in gaps.values())
    detail = (
        f"maximin s@{TAU:g} within 0.10 of its reference row at N=1000; "
        f"measured vs reference {cells}, gaps {gaps}"
    )
    _check("C03", ok, detail, elapsed=time.perf_counter() - t0)


def test_c04_difficulty_growth_by_distribution():
    t0 = time.perf_counter()
    integer_tpl = GameSpec(n=2, distribution="integer", seed=0)
    gauss_tpl = GameSpec(n=2, distribution="gaussian", seed=0)
    int_gaps = {}
    gauss_curve = []
    for n in (8, 10, 12, 15, 20):
        g1 = make_eval_set(n, 400, template=integer_tpl, eval_seed=EVAL_SEED)
        r1 = evaluate(UniformAgent(), g1, k=K, tau=TAU)
        COLLECTED.append(r1)
        int_gaps[n] = round(abs(r1.s_at_tau - LARGE_INTEGER_UNIFORM[n]), 4)
        g2 = make_eval_set(n, 200, template=gauss_tpl, eval_seed=EVAL_SEED)
        r2 = evaluate(UniformAgent(), g2, k=K, tau=TAU)
        COLLECTED.append(r2)
        gauss_curve.append(r2.s_at_tau)
    int_ok = all(g <= 0.08 for g in int_gaps.values())
    monotone = all(b >= a - 0.03 for a, b in zip(gauss_curve, gauss_curve[1:]))
    gauss_ok = monotone and gauss_curve[-1] >= 0.9
    _check(
        "C04", int_ok and gauss_ok,
        "uniform stays hard on large integer games (gaps "
        f"{int_gaps} <= 0.08) while gaussian games concentrate toward easy "
        f"(s@ rises {[round(v, 3) for v in gauss_curve]}, final >= 0.9)",
        elapsed=time.perf_counter() - t0,
    )


def test_c05_solver_certifies_across_sizes():
    t0 = time.perf_counter()
    checked = agreed = failures = 0
    for n in range(2, 21):
        for i in range(1000):
            g = sample_game(
                GameSpec(n=n, distribution="integer", seed=child_seed(EVAL_SEED, n, i))
            )
            eq = solve_zero_sum_lp(g.matrix)
            checked += 1
            if raw_exploit(g.matrix, eq.pair) > 1e-8:
                failures += 1
            if n <= 4:
                se = support_enumeration(g.matrix)
                agreed += 1
                if abs(se.value - eq.value) > 1e-8:
                    failures += 1
    _check(
        "C05", failures == 0,
        f"{checked} games solved with certificate <= 1e-8 and "
        f"{agreed} independent-route agreements <= 1e-8 ({failures} failures)",
        elapsed=time.perf_counter() - t0, budget=120.0,
    )


def test_c06_metric_stability_and_forced_jump():
    t0 = time.perf_counter()
    lip = check_residual_lipschitz(trials=10_000, seed=EVAL_SEED)
    disc = selector_discontinuity_demo()
    jumps_ok = all(row["strategy_jump"] >= 1.0 for row in disc.rows)
    _check(
        "C06", lip.ok and disc.ok and jumps_ok,
        f"residual bound held on {lip.trials} trials ({lip.violations} violations, "
        f"max ratio {lip.max_ratio:.3f}); equilibrium jump >= 1 at every scale "
        f"down to {min(r['eps'] for r in disc.rows):g} (min jump {disc.min_jump:.3f})",
        elapsed=time.perf_counter() - t0, budget=30.0,
    )


def test_c07_advantage_cancellation_and_training():
    t0 = time.perf_counter()
    canc = grpo_cancellation_check(trials=10_000, seed=EVAL_SEED)
    merged = toy_grpo_train(MP, mode="role_merged", steps=100, seed=EVAL_SEED)
    coop = toy_grpo_train(MP, mode="cooperative", steps=500, seed=EVAL_SEED)
    frozen = not merged.logits_changed and merged.final_logits == merged.initial_logits
    ok = canc.ok and frozen and coop.converged and not coop.aborted
    _check(
        "C07", ok,
        f"merged-role coefficients exactly zero over {canc.trials} groups "
        f"(max {canc.max_abs_coefficient:g}); 100-step merged training left logits "
        f"bitwise unchanged; cooperative training converged "
        f"(final-window exploit {coop.final_window_mean_exploit:.4f} < 0.05)",
        elapsed=time.perf_counter() - t0, budget=60.0,
    )


def test_c08_padding_constructions_verify():
    t0 = time.perf_counter()
    bases = [
        sample_game(GameSpec(n=3, distribution="integer", seed=child_seed(77, i)))
        for i in range(100)
    ]
    verified = 0
    medians = {}
    for target in (8, 12, 15, 20):
        exps = []
        for b in bases:
            dominated_pad(b, target)  # raises ConstructionError on any miss
            verified += 1
            rp = random_pad(b, target)
            exps.append(exploitability(rp.padded, rp.reference_pair).normalized)
        medians[target] = round(float(np.median(exps)), 4)
    control_ok = all(m > 0.10 for m in medians.values())
    _check(
        "C08", verified == 400 and control_ok,
        f"{verified}/400 dominated pads certified; random-surround control "
        f"breaks the old equilibrium (median normalized exploit {medians} > 0.10)",
        elapsed=time.perf_counter() - t0, budget=120.0,
    )


C09_TARGETS = (8, 12, 15, 20)


def c09_verdict():
    """C09's padding-cliff run and its verdict: (ok, detail)."""
    rep = padding_cliff_experiment(
        BlockSolverAgent(3), base_n=3, targets=C09_TARGETS,
        count=50, k=K, tau=TAU, seed=EVAL_SEED,
    )
    dom, dense, rand = ({t: s for t, s in rep.curve(kind) if t in C09_TARGETS}
                        for kind in ("dominated", "dense", "random"))
    dom_ok = all(dom[t] >= 0.95 for t in C09_TARGETS)
    collapse_ok = all(dense[t] <= 0.30 and rand[t] <= 0.30 for t in C09_TARGETS)
    return dom_ok and collapse_ok, (
        f"block solver keeps s@ >= 0.95 on dominated pads ({dom}) while dense and random "
        f"collapse <= 0.30 (dense {dense}, random {rand})")


def test_c09_padding_cliff_signature():
    t0 = time.perf_counter()
    ok, detail = c09_verdict()
    _check("C09", ok, detail, elapsed=time.perf_counter() - t0)


def test_c10_metric_consistency_and_reproducibility():
    t0 = time.perf_counter()
    games = make_eval_set(4, 30, eval_seed=EVAL_SEED)
    res = evaluate(NoisyOracleAgent(sigma=0.3, seed=1), games, k=K, tau=TAU)
    COLLECTED.append(res)
    ordering_ok = all(r.s_at_tau >= r.pass_at_1 for r in COLLECTED)
    replay = rescore(res, games)
    replay_ok = replay.to_json_dict() == res.to_json_dict()
    se_ok = (
        abs(binomial_se(0.5, 50) - 0.0707) <= 5e-5
        and abs(binomial_se(0.5, 30) - 0.0913) <= 5e-5
    )
    _check(
        "C10", ordering_ok and replay_ok and se_ok,
        f"s@tau >= pass@1 across {len(COLLECTED)} collected runs; rescoring a "
        "stored run reproduces it bit for bit; binomial standard errors match "
        "0.0707 (N=50) and 0.0913 (N=30) within 5e-5",
        elapsed=time.perf_counter() - t0,
    )
