"""Padding constructions: dominated surrounds must preserve the base
equilibrium, random surrounds must not."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from zerosum import (
    ConstructionError,
    ContractViolation,
    GameSpec,
    PaddedGameRecord,
    dominated_pad,
    random_pad,
    raw_exploit,
    sample_game,
    solve_zero_sum_lp,
    support_enumeration,
    uniform_pair,
)
from zerosum import agents, cli, gen, harness, solver
from zerosum.agents import NoisyOracleAgent
from zerosum.core import canonical_json, content_digest
from zerosum.gen import DISTRIBUTIONS
from zerosum.solver import CERT_TOL


def base_game(seed=0, n=3):
    return sample_game(GameSpec(n=n, distribution="integer", seed=seed))


class TestDominatedPad:
    def test_base_block_intact(self):
        base = base_game(seed=3)
        rec = dominated_pad(base, 8)
        block = rec.padded.entries[np.ix_(rec.row_map, rec.col_map)]
        assert np.array_equal(block, base.matrix.entries)

    def test_new_actions_strictly_dominated(self):
        base = base_game(seed=5)
        rec = dominated_pad(base, 10)
        a = base.matrix.entries
        lo, hi = a.min(), a.max()
        padded = rec.padded.entries
        new_rows = [i for i in range(10) if i not in rec.row_map]
        new_cols = [j for j in range(10) if j not in rec.col_map]
        # New rows lie strictly below every base entry, across all columns.
        assert (padded[new_rows, :] < lo).all()
        # New columns lie strictly above every base entry on original rows.
        assert (padded[np.ix_(rec.row_map, new_cols)] > hi).all()

    def test_reference_pair_certifies(self):
        for seed in range(10):
            rec = dominated_pad(base_game(seed=seed), 12)
            assert rec.certificate["reference_exploit"] <= 1e-8
            assert raw_exploit(rec.padded, rec.reference_pair) <= 1e-8

    def test_value_preserved(self):
        for seed in range(10):
            base = base_game(seed=seed)
            rec = dominated_pad(base, 9)
            padded_eq = solve_zero_sum_lp(rec.padded)
            base_eq = solve_zero_sum_lp(base.matrix)
            assert abs(padded_eq.value - base_eq.value) <= 1e-8
            assert rec.certificate["base_value"] == pytest.approx(
                base_eq.value, abs=1e-12
            )
            assert rec.certificate["padded_value"] == pytest.approx(
                padded_eq.value, abs=1e-12
            )

    def test_deterministic(self):
        base = base_game(seed=2)
        a = dominated_pad(base, 8)
        b = dominated_pad(base, 8)
        assert a.id == b.id
        assert np.array_equal(a.padded.entries, b.padded.entries)

    def test_shuffle_moves_base_block(self):
        base = base_game(seed=4)
        rec = dominated_pad(base, 8, shuffle=True)
        # Maps must still locate the base block exactly.
        block = rec.padded.entries[np.ix_(rec.row_map, rec.col_map)]
        assert np.array_equal(block, base.matrix.entries)
        assert raw_exploit(rec.padded, rec.reference_pair) <= 1e-8
        # Pinned placement for this seed; the unshuffled layout is the
        # identity prefix and must give a different record.
        assert rec.row_map == (4, 2, 7)
        assert rec.col_map == (5, 0, 6)
        plain = dominated_pad(base, 8, shuffle=False)
        assert plain.row_map == (0, 1, 2)
        assert rec.id != plain.id

    def test_value_and_certificate_preserved_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(
            st.sampled_from((2, 3)),
            st.sampled_from(DISTRIBUTIONS),
            st.integers(0, 2 ** 64 - 1),
            st.integers(4, 5),
            st.booleans(),
        )
        def check(n, distribution, seed, target, shuffle):
            base = sample_game(GameSpec(n=n, distribution=distribution, seed=seed))
            base_value = solve_zero_sum_lp(base.matrix).value
            rec = dominated_pad(base, target, shuffle=shuffle)
            # support enumeration shares no code with the LP that built the record
            assert raw_exploit(rec.padded, rec.reference_pair) <= CERT_TOL
            assert abs(support_enumeration(rec.padded).value - base_value) <= CERT_TOL
            assert abs(rec.certificate["padded_value"] - base_value) <= CERT_TOL

        check()

    def test_rejects_non_growing_target(self):
        base = base_game(seed=0)
        with pytest.raises(ContractViolation):
            dominated_pad(base, 3)
        with pytest.raises(ContractViolation):
            dominated_pad(base, 2)

    @pytest.mark.parametrize("wrong", [
        lambda eq: replace(eq, value=eq.value + 1e-6),
        lambda eq: replace(eq, pair=uniform_pair(3)),
    ], ids=["value", "pair"])
    def test_wrong_base_solution_fails_verification(self, wrong):
        base = base_game(seed=4)
        padded = dominated_pad(base, 8, shuffle=True).padded.entries
        vars(base)["equilibrium"] = wrong(base.equilibrium)  # seed the record's cache
        with pytest.raises(ConstructionError) as info:
            dominated_pad(base, 8, shuffle=True)
        assert np.array_equal(info.value.instance, padded)


class TestRandomPad:
    def test_corner_holds_base(self):
        base = base_game(seed=6)
        rec = random_pad(base, 8)
        assert rec.kind == "random"
        assert rec.row_map == tuple(range(3))
        assert rec.col_map == tuple(range(3))
        assert np.array_equal(rec.padded.entries[:3, :3], base.matrix.entries)

    def test_certificate_reports_reference_exploit(self):
        base = base_game(seed=7)
        rec = random_pad(base, 12)
        resid = raw_exploit(rec.padded, rec.reference_pair)
        assert rec.certificate["reference_exploit"] == resid
        assert "padded_value" not in rec.certificate

    def test_certifies_once_when_first_read(self, monkeypatch):
        # counted where the record looks raw_exploit up, on the gen module
        calls = []
        exploit = gen.raw_exploit
        monkeypatch.setattr(gen, "raw_exploit",
                            lambda matrix, pair: calls.append(matrix.n) or exploit(matrix, pair))
        rec = random_pad(base_game(seed=4), 6)
        assert calls == []
        cert = rec.certificate
        assert calls == [6]
        rec.to_json_dict()
        assert rec.certificate is cert
        assert calls == [6]

    def test_rejects_non_growing_target(self):
        base = base_game(seed=0)
        for target in (3, 2):
            with pytest.raises(ContractViolation):
                random_pad(base, target)

    def test_random_surround_usually_breaks_the_equilibrium(self):
        # The control would be useless if the old equilibrium still held.
        resids = [
            random_pad(base_game(seed=s), 12).certificate["reference_exploit"]
            for s in range(20)
        ]
        assert float(np.median(resids)) > 0.10

    def test_distinct_ids_from_dominated(self):
        base = base_game(seed=8)
        assert random_pad(base, 8).id != dominated_pad(base, 8).id

    def test_deterministic(self):
        base = base_game(seed=9)
        a = random_pad(base, 10)
        b = random_pad(base, 10)
        assert a.id == b.id
        assert np.array_equal(a.padded.entries, b.padded.entries)


@pytest.mark.parametrize("target", [65, 10 ** 12])
@pytest.mark.parametrize("pad", [dominated_pad, random_pad])
def test_rejects_a_target_above_the_size_limit(pad, target):
    # checked before any array is built; numpy refuses 10**12 without allocating
    with pytest.raises(ContractViolation, match=f"target size {target} must be at most 64"):
        pad(base_game(seed=0), target)


class TestBaseSolution:
    """A game record solves its own LP once, on first use, and every pad of it
    reads that solution; a dominated pad's own solve is the one that verified
    it. Solves are counted by matrix size where the record looks them up, on
    the gen module."""

    @pytest.fixture
    def solves(self, monkeypatch):
        sizes = Counter()
        solve = gen.solve_zero_sum_lp

        def counted(matrix):
            sizes[matrix.n] += 1
            return solve(matrix)

        monkeypatch.setattr(gen, "solve_zero_sum_lp", counted)
        return sizes

    def test_is_the_lp_solution_of_the_matrix(self, solves):
        base = base_game(seed=3)
        eq = base.equilibrium
        assert base.equilibrium is eq
        lp = solve_zero_sum_lp(base.matrix)
        assert (eq.value, eq.iterations, eq.degenerate) == (lp.value, lp.iterations, lp.degenerate)
        assert np.array_equal(eq.pair.row.probs, lp.pair.row.probs)
        assert np.array_equal(eq.pair.col.probs, lp.pair.col.probs)
        assert solves == {3: 1}

    def test_padding_one_base_at_several_sizes_solves_it_once(self, solves):
        base = base_game(seed=2)
        for target in (5, 7, 9):
            dominated_pad(base, target)
            dominated_pad(base, target, shuffle=True)
            random_pad(base, target)
        # each dominated pad still solves its padded game once, to check the value
        assert solves == {3: 1, 5: 2, 7: 2, 9: 2}

    def test_reading_a_dominated_record_solves_its_base_once(self, solves):
        # shuffled, yet both maps are the identity: the id names the shuffle,
        # so the reader rebuilds one pad and solves its padded game once
        rec = dominated_pad(sample_game(GameSpec(n=2, seed=394)), 4, shuffle=True)
        assert rec.row_map == rec.col_map == (0, 1)
        d = json.loads(canonical_json(rec.to_json_dict()))
        solves.clear()
        back = PaddedGameRecord.from_json_dict(d)
        assert back.id == rec.id
        assert solves == {2: 1, 4: 1}
        dominated_pad(back.base, 6)
        assert solves == {2: 1, 4: 1, 6: 1}

    def test_a_read_dominated_record_answers_its_equilibrium_unsolved(self, solves):
        # the solve that verified the pad is the record's own equilibrium
        rec = dominated_pad(base_game(seed=5), 8, shuffle=True)
        back = PaddedGameRecord.from_json_dict(json.loads(canonical_json(rec.to_json_dict())))
        solves.clear()
        eq = back.equilibrium
        assert solves == {}
        assert eq.value == back.certificate["padded_value"]
        assert eq.value == solve_zero_sum_lp(back.padded).value


class TestOneSolvePerMatrix:
    """Only a record's own equilibrium solves a record's matrix: the agents,
    `solve` and the pad check read it, so each distinct matrix is solved once.
    Solves are counted by matrix bytes under every module name the solver is
    looked up by."""

    @pytest.fixture
    def solved(self, monkeypatch):
        counts = Counter()
        solve = solver.solve_zero_sum_lp

        def counted(matrix):
            counts[matrix.entries.tobytes()] += 1
            return solve(matrix)

        for module in (solver, gen, agents, cli):
            if "solve_zero_sum_lp" in vars(module):
                monkeypatch.setattr(module, "solve_zero_sum_lp", counted)
        return counts

    @pytest.mark.parametrize("argv", [["solve", "--in", "p.jsonl"],
                                      ["eval", "--in", "p.jsonl", "--agent", "oracle"]],
                             ids=["solve", "eval oracle"])
    def test_a_command_on_dominated_pads_solves_each_pad_once(self, argv, solved, tmp_path,
                                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen", "--n", "3", "--count", "4", "--seed", "3",
                         "--out", "g.jsonl"]) == 0
        assert cli.main(["pad", "--in", "g.jsonl", "--kind", "dominated", "--target-n", "12",
                         "--out", "p.jsonl"]) == 0
        solved.clear()
        assert cli.main(argv) == 0
        capsys.readouterr()
        padded = [c for key, c in solved.items() if len(key) == 12 * 12 * 8]
        assert padded == [1] * 4  # the reader's verification solve, read again

    def test_the_padding_experiment_solves_each_matrix_once(self, solved):
        count, targets = 4, (5, 8)
        harness.padding_cliff_experiment(NoisyOracleAgent(0.3, seed=1), base_n=3,
                                         targets=targets, count=count, k=2, seed=99)
        assert sum(solved.values()) == count * (1 + 3 * len(targets))
        assert set(solved.values()) == {1}


class TestRecipeId:
    """A padded record's id is the digest of (kind, base id, padded size, shuffle)."""

    @pytest.mark.parametrize("pad, kind, shuffle", [
        (lambda b: dominated_pad(b, 6), "dominated", False),
        (lambda b: dominated_pad(b, 6, shuffle=True), "dominated", True),
        (lambda b: random_pad(b, 6), "random", False),
    ], ids=["dominated", "dominated shuffle", "random"])
    def test_is_the_digest_of_the_recipe(self, pad, kind, shuffle):
        base = base_game(seed=1)
        recipe = {"kind": kind, "base": base.id, "n": 6, "shuffle": shuffle}
        assert pad(base).id == content_digest(recipe)

    def test_each_part_of_the_recipe_moves_it(self):
        a, b = base_game(seed=1), base_game(seed=2)
        ids = {dominated_pad(a, 6).id, dominated_pad(a, 6, shuffle=True).id,
               dominated_pad(a, 7).id, dominated_pad(b, 6).id, random_pad(a, 6).id}
        assert len(ids) == 5

    def test_the_entries_do_not_enter_it(self):
        base = base_game(seed=1)
        rec = random_pad(base, 6)
        other = gen._padded_record(base, np.zeros((6, 6)), "random", range(3), range(3), False)
        assert other.id == rec.id


class TestPaddedSerialization:
    def test_round_trip_exact(self):
        rec = dominated_pad(base_game(seed=1), 8, shuffle=True)
        back = PaddedGameRecord.from_json_dict(rec.to_json_dict())
        assert back.id == rec.id
        assert back.kind == rec.kind
        assert back.row_map == rec.row_map
        assert back.col_map == rec.col_map
        assert np.array_equal(back.padded.entries, rec.padded.entries)
        assert np.array_equal(
            back.reference_pair.row.probs, rec.reference_pair.row.probs
        )
        assert back.certificate == rec.certificate

    def test_shuffled_pad_with_identity_maps_reads_back_shuffled(self):
        base = sample_game(GameSpec(n=2, seed=394))
        rec = dominated_pad(base, 4, shuffle=True)
        plain = dominated_pad(base, 4)
        assert rec.row_map == rec.col_map == plain.row_map == plain.col_map == (0, 1)
        assert rec.id != plain.id
        for r in (rec, plain):
            text = canonical_json(r.to_json_dict())
            back = PaddedGameRecord.from_json_dict(json.loads(text))
            assert canonical_json(back.to_json_dict()) == text

    @pytest.mark.parametrize("pad", [lambda b: dominated_pad(b, 6, shuffle=True),
                                     lambda b: random_pad(b, 6)], ids=["dominated", "random"])
    def test_signed_zero_weight_reads_back_as_written(self, pad):
        rec = pad(base_game(seed=1))
        text = canonical_json(rec.to_json_dict())
        d = json.loads(text)
        row = d["reference_pair"]["row"]
        row[row.index(0.0)] = -0.0
        back = PaddedGameRecord.from_json_dict(d)
        assert canonical_json(back.to_json_dict()) == text

    @pytest.mark.parametrize("pad", [lambda b: dominated_pad(b, 6), lambda b: random_pad(b, 6)],
                             ids=["dominated", "random"])
    def test_editing_the_json_form_leaves_the_record(self, pad):
        rec = pad(base_game(seed=1))
        before = dict(rec.certificate)
        rec.to_json_dict()["certificate"]["extra"] = 1.0
        assert rec.certificate == before

    def test_the_certificate_is_read_only(self):
        rec = random_pad(sample_game(GameSpec(n=3, seed=4)), 6)
        with pytest.raises(TypeError):
            rec.certificate["base_value"] = 99.0
        assert rec.to_json_dict()["certificate"]["base_value"] == rec.base.equilibrium.value

    def test_rejects_unknown_schema(self):
        d = random_pad(base_game(seed=1), 8).to_json_dict()
        d["schema"] = "padrec/0"
        with pytest.raises(ContractViolation):
            PaddedGameRecord.from_json_dict(d)
