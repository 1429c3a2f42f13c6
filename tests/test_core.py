"""Payoff matrices, strategies, the exploitability metric, and the
transforms it must respect."""

import json
import warnings

import numpy as np
import pytest

from zerosum import (
    ContractViolation,
    DegenerateMatrixError,
    GameSpec,
    MixedStrategy,
    PayoffMatrix,
    StrategyPair,
    apply_affine,
    apply_permutation,
    exploitability,
    normalize_payoffs,
    permute_pair,
    project_to_simplex,
    sample_game,
)
from zerosum.gen import DISTRIBUTIONS

MP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def pair_of(row, col):
    return StrategyPair(row=MixedStrategy(np.asarray(row, dtype=float)),
                        col=MixedStrategy(np.asarray(col, dtype=float)))


class TestPayoffMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ContractViolation):
            PayoffMatrix(np.zeros((2, 3)))

    def test_rejects_tiny_and_non_finite(self):
        with pytest.raises(ContractViolation):
            PayoffMatrix(np.zeros((1, 1)))
        with pytest.raises(ContractViolation):
            PayoffMatrix(np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_entries_are_read_only(self):
        m = PayoffMatrix(MP)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestMixedStrategy:
    def test_validates_simplex_membership(self):
        with pytest.raises(ContractViolation):
            MixedStrategy(np.array([0.6, 0.6]))
        with pytest.raises(ContractViolation):
            MixedStrategy(np.array([-0.1, 1.1]))
        with pytest.raises(ContractViolation):
            MixedStrategy(np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("weights, error", [
        ([1e308, 1e308, 0.0], "strategy weights sum to inf, not 1"),
        ([0.25, 0.25, 1e307], "strategy weights sum to 1e+307, not 1"),
        ([float("inf"), -float("inf")], "strategy weights must be finite"),
    ])
    def test_rejected_without_a_warning(self, weights, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation) as info:
                MixedStrategy(weights)
        assert str(info.value) == error

    def test_uniform_and_one_hot(self):
        u = MixedStrategy.uniform(4)
        assert np.array_equal(u.probs, np.full(4, 0.25))
        e = MixedStrategy.one_hot(3, 2)
        assert np.array_equal(e.probs, np.array([0.0, 0.0, 1.0]))


class TestNormalize:
    def test_scales_to_span_two(self):
        m = normalize_payoffs(PayoffMatrix(np.array([[-9.0, 9.0], [0.0, 0.0]])))
        assert np.array_equal(m.entries, np.array([[-1.0, 1.0], [0.0, 0.0]]))
        assert m.span == 2.0

    def test_constant_matrix_gets_corner_bump(self):
        m = normalize_payoffs(PayoffMatrix(np.array([[3.0, 3.0], [3.0, 3.0]])))
        assert np.array_equal(m.entries, np.array([[8.0, 6.0], [6.0, 6.0]]))

    def test_span_is_two_up_to_rounding(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            m = normalize_payoffs(PayoffMatrix(rng.normal(size=(n, n)) * 40))
            assert m.span == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("entries, error", [
        ([[1e308, -1e308], [0.0, 0.0]], "overflows float range; cannot normalize"),
        ([[5e-324, 0.0], [0.0, 0.0]], "span 5e-324 is too small"),
        ([[1e20, 1e20], [1e20, 1e20]], "span 0.0 is too small"),  # the +1 bump rounds away
    ])
    def test_span_beyond_float_range_is_rejected_without_a_warning(self, entries, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match=error):
                normalize_payoffs(PayoffMatrix(np.array(entries)))
            tiny = normalize_payoffs(PayoffMatrix(np.array([[2.2250738585072014e-308, 0.0],
                                                            [0.0, 0.0]])))
        assert tiny.entries[0, 0] == 2.0

    def test_fixed_point_on_span_two_matrices(self):
        m = normalize_payoffs(PayoffMatrix(MP))
        assert np.array_equal(m.entries, MP)


class TestExploitability:
    def test_matching_pennies_vertex_pair(self):
        m = PayoffMatrix(MP)
        rep = exploitability(m, pair_of([1, 0], [1, 0]))
        assert rep.row_regret == 0.0
        assert rep.col_regret == 2.0
        assert rep.exploit == 2.0
        assert rep.normalized == 0.5
        assert rep.reward == 0.5
        assert rep.value == 1.0

    def test_matching_pennies_equilibrium_scores_zero(self):
        rep = exploitability(PayoffMatrix(MP), pair_of([0.5, 0.5], [0.5, 0.5]))
        assert rep.exploit == 0.0
        assert rep.reward == 1.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ContractViolation):
            exploitability(PayoffMatrix(MP), pair_of([1, 0, 0], [1, 0, 0]))

    def test_constant_matrix_needs_normalization_first(self):
        with pytest.raises(DegenerateMatrixError):
            exploitability(PayoffMatrix(np.zeros((2, 2))), pair_of([1, 0], [1, 0]))

    def test_regrets_are_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = PayoffMatrix(rng.normal(size=(n, n)))
            rep = exploitability(m, pair_of(rng.dirichlet(np.ones(n)),
                                            rng.dirichlet(np.ones(n))))
            assert rep.row_regret >= 0.0
            assert rep.col_regret >= 0.0
            assert 0.0 <= rep.normalized <= 1.0
            assert rep.reward == 1.0 - rep.normalized

    def test_residual_lipschitz_in_the_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            b = a + rng.normal(size=(n, n)) * rng.uniform(0.0, 0.5)
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            ea = exploitability(PayoffMatrix(a), pair_of(p, q)).exploit
            eb = exploitability(PayoffMatrix(b), pair_of(p, q)).exploit
            assert abs(ea - eb) <= 2.0 * np.abs(a - b).max() + 1e-9


class TestTransforms:
    def test_permutation_equivariance_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = PayoffMatrix(rng.normal(size=(n, n)) * rng.uniform(0.5, 20))
            pair = pair_of(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            rp = rng.permutation(n)
            cp = rng.permutation(n)
            base = exploitability(m, pair)
            moved = exploitability(apply_permutation(m, rp, cp),
                                   permute_pair(pair, rp, cp))
            assert base.exploit == moved.exploit
            assert base.reward == moved.reward

    def test_permutation_equivariance_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        entries = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-10, 10),
            st.integers(-9, 9).map(float),
            st.just(-0.0),
        )

        def strategies(n):
            pure = st.integers(0, n - 1).map(lambda i: MixedStrategy.one_hot(n, i))
            weights = hnp.arrays(np.float64, n, elements=st.floats(0, 1))
            mixed = weights.map(project_to_simplex).filter(lambda s: s is not None)
            return st.one_of(pure, mixed)

        @st.composite
        def instances(draw):
            n = draw(st.integers(2, 12))
            a = draw(hnp.arrays(np.float64, (n, n), elements=entries))
            pair = StrategyPair(row=draw(strategies(n)), col=draw(strategies(n)))
            rp = draw(st.permutations(range(n)))
            cp = draw(st.permutations(range(n)))
            return PayoffMatrix(a), pair, rp, cp

        # no shrink phase: shrinking a failing 12 x 12 example ran for minutes
        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
        @hypothesis.given(instances())
        def check(instance):
            m, pair, rp, cp = instance
            hypothesis.assume(m.span > 0.0)
            base = exploitability(m, pair)
            base_again = exploitability(m, pair)  # reads the cached span
            moved = exploitability(apply_permutation(m, rp, cp), permute_pair(pair, rp, cp))
            # repr tells -0.0 from 0.0; every field, the reward included, is bitwise equal
            assert repr(base) == repr(base_again) == repr(moved)

        with np.errstate(over="ignore", invalid="ignore"):  # entries near float max
            check()

    def test_permutation_layout(self):
        m = PayoffMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = apply_permutation(m, [1, 0], [0, 1])
        assert np.array_equal(out.entries, np.array([[3.0, 4.0], [1.0, 2.0]]))

    def test_bad_permutation_rejected(self):
        m = PayoffMatrix(MP)
        with pytest.raises(ContractViolation):
            apply_permutation(m, [0, 0], [0, 1])

    def test_affine_invariance_of_normalized_reward(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = PayoffMatrix(rng.normal(size=(n, n)))
            pair = pair_of(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            c = rng.uniform(0.5, 2.0)
            d = rng.uniform(-1.0, 1.0)
            base = exploitability(m, pair).reward
            moved = exploitability(apply_affine(m, c, d), pair).reward
            assert moved == pytest.approx(base, abs=1e-12)

    def test_affine_invariance_property(self):
        """The seeded test above on generated games: every distribution, sizes
        2..10, normalized and raw, pure, sparse-support and mixed strategies,
        and the invariance audit's c in [0.5, 2] and d in [-1, 1]."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        def strategies(n):
            pure = st.integers(0, n - 1).map(lambda i: MixedStrategy.one_hot(n, i))
            weights = hnp.arrays(np.float64, n, elements=st.floats(0, 1))
            mixed = weights.map(project_to_simplex).filter(lambda s: s is not None)
            support = hnp.arrays(np.bool_, n).filter(np.any)
            positive = hnp.arrays(np.float64, n, elements=st.floats(0.01, 1))
            sparse = st.tuples(support, positive).map(
                lambda sw: project_to_simplex(np.where(sw[0], sw[1], 0.0)))
            return st.one_of(pure, sparse, mixed)

        @st.composite
        def instances(draw):
            spec = GameSpec(n=draw(st.integers(2, 10)),
                            distribution=draw(st.sampled_from(DISTRIBUTIONS)),
                            seed=draw(st.integers(0, 2 ** 32)),
                            normalize=draw(st.booleans()))
            game = sample_game(spec)
            pair = StrategyPair(row=draw(strategies(spec.n)), col=draw(strategies(spec.n)))
            return game.matrix, pair, draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0))

        # no shrink phase, as in the permutation property above
        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                             phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
        @hypothesis.given(instances())
        def check(instance):
            m, pair, c, d = instance
            hypothesis.assume(m.span > 0.0)  # a raw sparse draw can be all zeros
            base = exploitability(m, pair).reward
            moved = exploitability(apply_affine(m, c, d), pair).reward
            assert abs(moved - base) <= 1e-12

        check()

    def test_affine_requires_positive_scale(self):
        with pytest.raises(ContractViolation):
            apply_affine(PayoffMatrix(MP), 0.0, 1.0)
        with pytest.raises(ContractViolation):
            apply_affine(PayoffMatrix(MP), -2.0, 0.0)


class TestProjection:
    def test_valid_input_returned_unchanged(self):
        w = np.array([0.3, 0.7])
        out = project_to_simplex(w)
        assert np.array_equal(out.probs, w)

    def test_clamps_and_renormalizes(self):
        out = project_to_simplex(np.array([-0.2, 0.4, 0.8]))
        clamped = np.array([0.0, 0.4, 0.8])
        assert np.array_equal(out.probs, clamped / clamped.sum())
        assert out.probs[0] == 0.0
        assert out.probs == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-15)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w = rng.normal(size=int(rng.integers(2, 9)))
            first = project_to_simplex(w)
            if first is None:
                continue
            second = project_to_simplex(first.probs)
            assert np.array_equal(first.probs, second.probs)

    def test_degenerate_inputs_rejected(self):
        assert project_to_simplex(np.array([0.0, 0.0])) is None
        assert project_to_simplex(np.array([-1.0, -2.0])) is None
        assert project_to_simplex(np.array([np.nan, 1.0])) is None
        assert project_to_simplex(np.array([np.inf, 1.0])) is None
        with warnings.catch_warnings():  # finite weights whose mass overflows
            warnings.simplefilter("error")
            assert project_to_simplex(np.array([1e308, 1e308, 1e308])) is None
            assert project_to_simplex(np.array([1e308, 1e308, -1.0])) is None

    def test_serialize_parse_round_trip_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            w = rng.dirichlet(np.ones(int(rng.integers(2, 7))))
            s = project_to_simplex(w)
            back = np.array(json.loads(json.dumps(s.probs.tolist())))
            again = project_to_simplex(back)
            assert np.array_equal(s.probs, again.probs)
