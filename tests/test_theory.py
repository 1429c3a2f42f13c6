"""Structural property checks: the residual Lipschitz bound, forced
selector discontinuity, and group-advantage cancellation (including the
toy trainer where merged-mode updates must vanish bitwise)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from zerosum import (
    ContractViolation,
    PayoffMatrix,
    StrategyPair,
    ToyPolicy,
    check_residual_lipschitz,
    frozen_training_check,
    grpo_advantages,
    grpo_cancellation_check,
    project_to_simplex,
    raw_exploit,
    selector_discontinuity_demo,
    toy_grpo_train,
    uniform_pair,
)
from zerosum import cli, theory
from zerosum.core import CheckReport
from zerosum.theory import LIPSCHITZ_SLACK, MATCHING_PENNIES, FrozenTrainingReport

MP = SimpleNamespace(
    n=2, id="mp", matrix=PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
)


class TestLipschitz:
    def test_bound_holds_on_many_instances(self):
        rep = check_residual_lipschitz(trials=2000, seed=0)
        assert rep.ok
        assert rep.violations == 0
        assert rep.trials == 2000
        assert rep.max_ratio <= 1.0
        assert rep.max_abs_delta > 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ContractViolation):
            check_residual_lipschitz(trials=0)

    def test_json(self):
        d = check_residual_lipschitz(trials=50, seed=1).to_json_dict()
        assert d["kind"] == "lipschitz"
        assert d["ok"] is True

    def test_bound_property(self):
        """Search integer, sparse and near-degenerate games for a violation
        of |E(A) - E(B)| <= 2 max|A - B| at fixed strategies."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        def matrices(n):
            floats = hnp.arrays(np.float64, (n, n), elements=st.floats(-10, 10))
            integer = hnp.arrays(np.float64, (n, n), elements=st.integers(-9, 9).map(float))
            sparse = st.tuples(floats, hnp.arrays(bool, (n, n))).map(lambda t: t[0] * t[1])

            def near_degenerate(a):
                a = a.copy()
                a[1] = a[0] + 1e-9  # two rows 1e-9 apart
                return a

            return st.one_of(integer, sparse, floats.map(near_degenerate))

        def strategy(n):
            weights = hnp.arrays(np.float64, n, elements=st.floats(0, 1))
            return weights.map(lambda w: project_to_simplex(w) or uniform_pair(n).row)

        @st.composite
        def instances(draw):
            n = draw(st.integers(2, 8))
            a = draw(matrices(n))
            delta = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-2, 2)))
            pair = StrategyPair(row=draw(strategy(n)), col=draw(strategy(n)))
            return a, a + delta, pair

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(instances())
        def check(instance):
            a, b, pair = instance
            gap = abs(raw_exploit(PayoffMatrix(a), pair) - raw_exploit(PayoffMatrix(b), pair))
            assert gap <= 2.0 * float(np.max(np.abs(a - b))) + LIPSCHITZ_SLACK

        check()


class TestDiscontinuity:
    def test_jump_never_shrinks_with_eps(self):
        rep = selector_discontinuity_demo()
        assert rep.ok
        assert rep.min_jump >= 1.0
        assert rep.zero_degenerate
        assert rep.zero_pair["row"] == [1.0, 0.0]
        for row in rep.rows:
            assert row["matrix_distance"] == row["eps"]
            # scaled matching pennies keeps the interior equilibrium, so
            # the l1 gap to the vertex solution stays at 2
            assert row["strategy_jump"] == pytest.approx(2.0, abs=1e-6)
            assert row["value"] == pytest.approx(0.0, abs=1e-9)
            assert row["row"] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_distance_shrinks_eight_orders(self):
        rep = selector_discontinuity_demo()
        eps = [row["eps"] for row in rep.rows]
        assert max(eps) / min(eps) >= 1e7
        assert all(a > b for a, b in zip(eps, eps[1:]))


class TestAdvantages:
    def test_cooperative_known_group(self):
        out = grpo_advantages([1.0, 2.0, 3.0, 6.0], "cooperative")
        r = np.array([1.0, 2.0, 3.0, 6.0])
        expected = (r - r.mean()) / r.std()
        assert out.mean == 3.0
        assert out.std == pytest.approx(math.sqrt(3.5), abs=1e-15)
        assert np.array_equal(np.array(out.advantages), expected)
        assert out.per_output_coefficient is None
        assert sum(out.advantages) == pytest.approx(0.0, abs=1e-12)

    def test_cooperative_zero_spread_gives_zeros(self):
        out = grpo_advantages([2.0, 2.0, 2.0], "cooperative")
        assert out.std == 0.0
        assert out.advantages == (0.0, 0.0, 0.0)

    def test_role_merged_structure(self):
        r = [1.0, -2.0, 0.5]
        out = grpo_advantages(r, "role_merged")
        assert out.mean == 0.0
        assert out.std == pytest.approx(math.sqrt(5.25 / 3), abs=1e-15)
        assert out.rewards == (1.0, -2.0, 0.5, -1.0, 2.0, -0.5)
        adv = np.array(out.advantages)
        # antisymmetric half-pairs, bitwise
        assert np.array_equal(adv[3:], -adv[:3])

    def test_role_merged_coefficients_exactly_zero(self):
        out = grpo_advantages([0.3, -1.7, 2.2, 0.0], "role_merged")
        for c in out.per_output_coefficient:
            assert c == 0.0
            # x + (-x) rounds to +0.0, never -0.0
            assert math.copysign(1.0, c) == 1.0

    def test_role_merged_all_zero_rewards(self):
        out = grpo_advantages([0.0, 0.0], "role_merged")
        assert out.std == 0.0
        assert out.advantages == (0.0, 0.0, 0.0, 0.0)
        assert all(c == 0.0 for c in out.per_output_coefficient)

    def test_rejects_bad_input(self):
        with pytest.raises(ContractViolation):
            grpo_advantages([], "cooperative")
        with pytest.raises(ContractViolation):
            grpo_advantages([1.0, float("nan")], "cooperative")
        with pytest.raises(ContractViolation):
            grpo_advantages([1.0], "selfish")

    def test_cancellation_sweep(self):
        rep = grpo_cancellation_check(trials=200, seed=0)
        assert rep.ok
        assert rep.max_abs_coefficient == 0.0
        assert rep.to_json_dict()["kind"] == "cancellation"


class TestToyPolicy:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            ToyPolicy(grid_m=1)
        with pytest.raises(ContractViolation):
            ToyPolicy(learning_rate=0.0)
        with pytest.raises(ContractViolation):
            ToyPolicy(group_size=0)
        with pytest.raises(ContractViolation):
            ToyPolicy(kl_coef=-0.1)
        with pytest.raises(ContractViolation):
            ToyPolicy(grid_m=5, init_logits=(0.0, 0.0))

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("kl_coef", math.nan), ("kl_coef", math.inf),
    ])
    def test_non_finite_rates_are_refused(self, field, value):
        # a nan kl_coef once ran as 0, since the update tests kl_coef > 0
        with pytest.raises(ContractViolation, match="must be finite"):
            ToyPolicy(**{field: value})


class TestToyTrainer:
    def test_cooperative_converges_on_matching_pennies(self):
        res = toy_grpo_train(MP, mode="cooperative", steps=500, seed=99)
        assert not res.aborted
        assert res.steps_run == 500
        assert res.logits_changed
        assert res.converged
        assert res.final_window_mean_exploit < 0.05
        # training moved the policy a long way from its starting quality
        assert res.trace[0].mean_exploit > 0.1
        assert res.final_window_mean_exploit < res.trace[0].mean_exploit
        # after the first window every 50-step window stays near zero
        chunks = [
            float(np.mean([t.mean_exploit for t in res.trace[i : i + 50]]))
            for i in range(50, 500, 50)
        ]
        assert all(c < 0.05 for c in chunks)

    def test_role_merged_leaves_logits_bitwise_unchanged(self):
        res = toy_grpo_train(MP, mode="role_merged", steps=100, seed=99)
        assert not res.aborted
        assert res.steps_run == 100
        assert not res.logits_changed
        assert res.final_logits == res.initial_logits
        assert not res.converged

    def test_modes_consume_identical_draws(self):
        a = toy_grpo_train(MP, mode="cooperative", steps=1, seed=7)
        b = toy_grpo_train(MP, mode="role_merged", steps=1, seed=7)
        assert a.trace[0].mean_exploit == b.trace[0].mean_exploit

    def test_single_sample_group_is_a_no_op(self):
        res = toy_grpo_train(
            MP, policy=ToyPolicy(group_size=1), mode="cooperative", steps=20, seed=3
        )
        assert not res.logits_changed

    def test_group_accumulation_runs(self):
        res = toy_grpo_train(
            MP, mode="cooperative", steps=30, seed=5, accumulate_groups=2
        )
        assert res.steps_run == 30
        assert not res.aborted
        assert res.logits_changed

    def test_divergence_aborts_and_keeps_finite_logits(self):
        policy = ToyPolicy(kl_coef=1.0, init_logits=(800.0,) + (0.0,) * 10)
        res = toy_grpo_train(MP, policy=policy, mode="cooperative", steps=50, seed=1)
        assert res.aborted
        assert res.steps_run == 1
        assert res.final_logits == res.initial_logits
        assert all(math.isfinite(x) for x in res.final_logits)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_frozen_training_check(self, seed):
        rep = frozen_training_check(seed)
        assert isinstance(rep, CheckReport)
        assert rep.to_json_dict() == {"kind": "frozen_training", "logits_changed": False,
                                      "steps": 25, "ok": True}
        moved = FrozenTrainingReport(logits_changed=True, steps=25)
        assert moved.to_json_dict()["ok"] is False

    def test_the_one_matching_pennies_game(self):
        # normalizing a span-2 matrix multiplies by exactly 1.0
        assert MATCHING_PENNIES.matrix.entries.tolist() == MP.matrix.entries.tolist()
        assert MATCHING_PENNIES.matrix.span == 2.0
        assert (MATCHING_PENNIES.n, MATCHING_PENNIES.id) == (2, "matching-pennies")

    def test_validation(self):
        game3 = SimpleNamespace(n=3, id="g3", matrix=PayoffMatrix(np.zeros((3, 3)) + np.eye(3)))
        with pytest.raises(ContractViolation):
            toy_grpo_train(game3, mode="cooperative", steps=1)
        with pytest.raises(ContractViolation):
            toy_grpo_train(MP, mode="greedy", steps=1)
        with pytest.raises(ContractViolation):
            toy_grpo_train(MP, mode="cooperative", steps=0)
        with pytest.raises(ContractViolation):
            toy_grpo_train(MP, mode="cooperative", steps=1, accumulate_groups=0)


@pytest.mark.parametrize("seed", [0, 2])
def test_no_two_checks_share_a_stream(seed, monkeypatch, capsys):
    """Each stream of one verify-theorems run is keyed once: the toy trainer's
    steps 3 and 5 once drew the streams of the Lipschitz and cancellation
    checks' trial 0."""
    keys = []
    draw = theory.generator

    def recording(key):
        keys.append(key)
        return draw(key)

    monkeypatch.setattr(theory, "generator", recording)
    assert cli.main(["verify-theorems", "--trials", "40", "--seed", str(seed)]) == 0
    capsys.readouterr()
    assert len(keys) == 40 + 40 + 25  # two checks' trials, then the frozen check's steps
    assert len(set(keys)) == len(keys)
