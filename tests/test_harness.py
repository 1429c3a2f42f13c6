"""Best-of-k scoring, aggregation, rescoring, metric audits, and the
padding-cliff experiment harness."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from zerosum import gen, harness, solver
from zerosum import (
    BlockSolverAgent,
    ContractViolation,
    EvalResult,
    GameResult,
    GameSpec,
    NoisyOracleAgent,
    OracleAgent,
    PaddingCliffReport,
    PayoffMatrix,
    UniformAgent,
    binomial_se,
    evaluate,
    invariance_audit,
    make_eval_set,
    padding_cliff_experiment,
    parse_response,
    rescore,
    sample_game,
    score_responses,
)
from zerosum.core import canonical_json

# On matching pennies with p = (a, 1-a), q = (b, 1-b) the normalized
# reward reduces to 1 - (|2a-1| + |2b-1|) / 4, which makes scoring
# fixtures easy to write down in closed form.
MP = SimpleNamespace(
    n=2,
    id="mp-fixture",
    matrix=PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]])),
)

T_085 = '{"row": [0.5, 0.5], "col": [0.8, 0.2]}'
T_093 = '{"row": [0.5, 0.5], "col": [0.64, 0.36]}'
T_050 = '{"row": [1, 0], "col": [1, 0]}'
T_BAD = "no answer"


def mp_responses(*texts):
    return [parse_response(t, 2) for t in texts]


class ScriptedAgent:
    """Replays a fixed list of raw texts for every game."""

    name = "scripted"

    def __init__(self, texts):
        self.texts = texts

    def propose(self, game, k):
        assert k == len(self.texts)
        return [parse_response(t, game.n) for t in self.texts]


class TestBinomialSE:
    def test_frozen_values(self):
        assert binomial_se(0.5, 50) == pytest.approx(0.0707, abs=5e-5)
        assert binomial_se(0.5, 30) == pytest.approx(0.0913, abs=5e-5)
        assert binomial_se(0.0, 10) == 0.0
        assert binomial_se(1.0, 10) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractViolation):
            binomial_se(0.5, 0)
        with pytest.raises(ContractViolation):
            binomial_se(1.2, 10)
        with pytest.raises(ContractViolation):
            binomial_se(-0.1, 10)


class TestScoreResponses:
    def test_best_of_picks_max_valid(self):
        res = score_responses(MP, mp_responses(T_085, T_093, T_050, T_BAD), tau=0.10)
        assert res.rewards == pytest.approx((0.85, 0.93, 0.5, 0.0), abs=1e-12)
        assert res.invalid == (False, False, False, True)
        assert res.best_sample_index == 1
        assert res.best_reward == pytest.approx(0.93, abs=1e-12)
        assert res.first_reward == pytest.approx(0.85, abs=1e-12)
        assert res.success  # 0.93 > 0.90
        assert not res.first_success  # 0.85 <= 0.90

    def test_no_valid_sample(self):
        res = score_responses(MP, mp_responses(T_BAD, T_BAD), tau=0.10)
        assert res.best_reward == 0.0
        assert res.best_sample_index is None
        assert not res.success
        assert res.rewards == (0.0, 0.0)

    def test_threshold_is_strict(self):
        # (0.5, 0.5) vs (1, 0) scores exactly 0.75; at tau = 0.25 the
        # threshold is exactly 0.75 and equality must NOT count.
        res = score_responses(MP, mp_responses('{"row": [0.5, 0.5], "col": [1, 0]}'), tau=0.25)
        assert res.best_reward == 0.75
        assert not res.success

    def test_invalid_scores_zero_but_is_kept(self):
        res = score_responses(MP, mp_responses(T_BAD, T_093), tau=0.10)
        assert res.rewards[0] == 0.0
        assert res.invalid[0]
        assert len(res.raw_texts) == 2
        assert res.raw_texts[0] == T_BAD

    def test_json_round_trip(self):
        res = score_responses(MP, mp_responses(T_085, T_BAD), tau=0.10)
        assert GameResult.from_json_dict(res.to_json_dict()) == res


    def test_repeated_response_object_is_scored_once(self, monkeypatch):
        game = make_eval_set(n=3, count=1, eval_seed=13)[0]
        resp = OracleAgent().propose(game, 1)[0]
        fresh = [parse_response(resp.raw_text, game.n) for _ in range(4)]
        expected = score_responses(game, fresh, tau=0.10)
        calls = []
        original = harness.exploitability

        def counting(matrix, pair):
            calls.append(pair)
            return original(matrix, pair)

        monkeypatch.setattr(harness, "exploitability", counting)
        res = score_responses(game, [resp] * 4, tau=0.10)
        assert len(calls) == 1
        assert res.rewards == expected.rewards
        assert res == expected

    def test_rescore_of_repeated_responses_is_byte_identical(self):
        games = make_eval_set(n=4, count=5, eval_seed=13)
        res = evaluate(OracleAgent(), games, k=4, tau=0.10)
        again = rescore(res, games)
        assert canonical_json(again.to_json_dict()) == canonical_json(res.to_json_dict())


class TestEvaluate:
    def games(self, count=3):
        return [
            SimpleNamespace(n=2, id=f"mp{i}", matrix=MP.matrix) for i in range(count)
        ]

    def test_aggregates_fixture(self):
        agent = ScriptedAgent([T_085, T_093, T_050, T_BAD])
        res = evaluate(agent, self.games(3), k=4, tau=0.10)
        assert res.agent == "scripted"
        assert res.n == 2
        assert res.count == 3
        assert res.s_at_tau == 1.0
        assert res.pass_at_1 == 0.0
        assert res.valid_rate == 0.75
        assert res.mean_best_reward == pytest.approx(0.93, abs=1e-12)
        assert res.se_s == 0.0
        assert res.se_pass == 0.0

    def test_success_rate_dominates_pass_at_1(self):
        games = make_eval_set(n=3, count=12, eval_seed=5)
        res = evaluate(NoisyOracleAgent(sigma=0.25, seed=1), games, k=4, tau=0.10)
        assert res.s_at_tau >= res.pass_at_1
        assert res.valid_rate == 1.0

    def test_mixed_sizes_report_n_zero(self):
        games = make_eval_set(2, 2, eval_seed=0) + make_eval_set(3, 2, eval_seed=0)
        res = evaluate(UniformAgent(), games, k=1, tau=0.10)
        assert res.n == 0
        assert res.count == 4

    def test_parallel_matches_serial(self):
        games = make_eval_set(n=3, count=10, eval_seed=7)
        agent = NoisyOracleAgent(sigma=0.3, seed=2)
        serial = evaluate(agent, games, k=3, tau=0.10, jobs=1)
        parallel = evaluate(agent, games, k=3, tau=0.10, jobs=4)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_validates_arguments(self):
        games = self.games(1)
        with pytest.raises(ContractViolation):
            evaluate(UniformAgent(), [], k=1, tau=0.10)
        with pytest.raises(ContractViolation):
            evaluate(UniformAgent(), games, k=0, tau=0.10)
        with pytest.raises(ContractViolation):
            evaluate(UniformAgent(), games, k=1, tau=0.0)
        with pytest.raises(ContractViolation):
            evaluate(UniformAgent(), games, k=1, tau=1.0)
        for jobs in (0, -3):
            with pytest.raises(ContractViolation):
                evaluate(UniformAgent(), games, k=1, tau=0.10, jobs=jobs)

    def test_result_json_round_trip(self):
        games = make_eval_set(n=2, count=4, eval_seed=3)
        res = evaluate(NoisyOracleAgent(sigma=0.2, seed=4), games, k=2, tau=0.10)
        back = EvalResult.from_json_dict(res.to_json_dict())
        assert back == res

    def test_rejects_unknown_schema(self):
        games = make_eval_set(n=2, count=1, eval_seed=3)
        d = evaluate(UniformAgent(), games, k=1, tau=0.10).to_json_dict()
        d["schema"] = "evalres/9"
        with pytest.raises(ContractViolation):
            EvalResult.from_json_dict(d)


class TestRescore:
    def test_reproduces_bitwise(self):
        games = make_eval_set(n=3, count=8, eval_seed=11)
        res = evaluate(NoisyOracleAgent(sigma=0.3, seed=5), games, k=3, tau=0.10)
        again = rescore(res, games)
        assert again.to_json_dict() == res.to_json_dict()

    def test_order_of_provided_games_is_irrelevant(self):
        games = make_eval_set(n=3, count=6, eval_seed=11)
        res = evaluate(NoisyOracleAgent(sigma=0.3, seed=5), games, k=2, tau=0.10)
        again = rescore(res, list(reversed(games)))
        assert again.to_json_dict() == res.to_json_dict()

    def test_missing_game_is_an_error(self):
        games = make_eval_set(n=3, count=4, eval_seed=11)
        res = evaluate(UniformAgent(), games, k=1, tau=0.10)
        with pytest.raises(ContractViolation):
            rescore(res, games[1:])


class TestAudits:
    def test_permutation_exact_for_oracle(self):
        games = make_eval_set(n=4, count=10, eval_seed=21)
        [rep] = invariance_audit(OracleAgent(), games, kinds=("permutation",), seed=0)
        assert rep.kind == "permutation"
        assert rep.tol == 0.0
        assert rep.max_abs_diff == 0.0
        assert rep.ok
        assert rep.trials == 10
        assert rep.invalid == 0

    def test_affine_within_rounding(self):
        games = make_eval_set(n=4, count=10, eval_seed=22)
        [rep] = invariance_audit(NoisyOracleAgent(sigma=0.3, seed=3), games, kinds=("affine",))
        assert rep.kind == "affine"
        assert rep.max_abs_diff <= 1e-12
        assert rep.ok

    def test_all_invalid_raises(self):
        games = make_eval_set(n=3, count=3, eval_seed=23)
        with pytest.raises(ContractViolation):
            invariance_audit(ScriptedAgent([T_BAD]), games, kinds=("permutation",))

    def test_report_json(self):
        games = make_eval_set(n=3, count=5, eval_seed=24)
        [rep] = invariance_audit(OracleAgent(), games, kinds=("permutation",))
        d = rep.to_json_dict()
        assert d["ok"] is True
        assert d["per_size_max"] == {"3": 0.0}

    def test_kinds_share_one_proposal_per_game(self):
        games = make_eval_set(n=3, count=6, eval_seed=25)
        proposed = []

        class CountingOracle(OracleAgent):
            def propose(self, game, k):
                proposed.append(game.id)
                return super().propose(game, k)

        reports = invariance_audit(CountingOracle(), games, seed=4)
        assert proposed == [g.id for g in games]
        # each kind's report is the one it gives when audited alone
        alone = [invariance_audit(OracleAgent(), games, kinds=(r.kind,), seed=4)[0]
                 for r in reports]
        assert [r.kind for r in reports] == ["permutation", "affine"]
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in alone]

    def test_unknown_kind_raises(self):
        games = make_eval_set(n=3, count=2, eval_seed=26)
        with pytest.raises(ContractViolation):
            invariance_audit(OracleAgent(), games, kinds=("rotation",))


class TestPaddingCliff:
    def test_structure_and_block_agent_signature(self):
        rep = padding_cliff_experiment(
            BlockSolverAgent(block_n=2),
            base_n=2,
            targets=(4, 6),
            count=3,
            k=1,
            seed=13,
        )
        assert rep.base_n == 2
        assert rep.targets == (4, 6)
        # one row per condition at the base point plus each target
        assert len(rep.rows) == 9
        dom = rep.curve("dominated")
        assert [n for n, _ in dom] == [2, 4, 6]
        # the block solver nails every dominated pad of its own block size
        assert all(s == 1.0 for _, s in dom)
        for cond in ("dense", "random"):
            curve = rep.curve(cond)
            assert [n for n, _ in curve] == [2, 4, 6]
            assert all(0.0 <= s <= 1.0 for _, s in curve)
        # shared base point: all three conditions start from the same row
        base_rows = [r for r in rep.rows if r.n == 2]
        assert len({r.s_at_tau for r in base_rows}) == 1

    def test_solves_each_base_game_once(self, monkeypatch):
        original = solver.solve_zero_sum_lp
        sizes = []

        def counting(matrix):
            sizes.append(matrix.n)
            return original(matrix)

        monkeypatch.setattr(solver, "solve_zero_sum_lp", counting)
        monkeypatch.setattr(gen, "solve_zero_sum_lp", counting)
        padding_cliff_experiment(
            UniformAgent(), base_n=2, targets=(4, 6), count=3, k=1, seed=13
        )
        # each base game once, then each dominated pad once to check its value
        assert sorted(sizes) == [2] * 3 + [4] * 3 + [6] * 3

    def test_rejects_target_not_above_base(self):
        with pytest.raises(ContractViolation):
            padding_cliff_experiment(UniformAgent(), base_n=3, targets=(3,), count=2)

    @pytest.mark.parametrize("targets", [(4, 4), (4, 6, 4)])
    def test_rejects_a_repeated_target(self, targets):
        # (4, 4) once ran size 4 twice and wrote its three rows twice
        with pytest.raises(ContractViolation, match="target size 4 repeats"):
            padding_cliff_experiment(UniformAgent(), base_n=2, targets=targets, count=2)

    def test_report_json_schema(self):
        rep = padding_cliff_experiment(
            UniformAgent(), base_n=2, targets=(4,), count=2, k=1, seed=1
        )
        d = rep.to_json_dict()
        assert d["schema"] == "padexp/1"
        assert len(d["rows"]) == 6
        assert PaddingCliffReport.from_json_dict(json.loads(canonical_json(d))) == rep
