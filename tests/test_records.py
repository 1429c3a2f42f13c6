"""The JSON form of every record type, pinned byte for byte, and a round trip
through JSON text for every type that has a reader.

Each pin is the SHA-256 of canonical_json(record.to_json_dict()). A change
to how a record serializes (a key, a value's type, a float's bits) moves its
pin, and with it the bytes that `eval --rescore` must reproduce."""

import ast
import hashlib
import json
import pathlib
from dataclasses import dataclass

import pytest

import zerosum
from zerosum import (
    BlockSolverAgent,
    ContractViolation,
    EvalResult,
    GameRecord,
    GameResult,
    GameSpec,
    PaddedGameRecord,
    UniformAgent,
    check_residual_lipschitz,
    dominated_pad,
    evaluate,
    grpo_cancellation_check,
    invariance_audit,
    make_eval_set,
    padding_cliff_experiment,
    parse_response,
    random_pad,
    sample_game,
    selector_discontinuity_demo,
    serialize_pair,
)
from zerosum.core import canonical_json, field_dict, from_fields
from zerosum.solver import uniform_pair


class _MixedAgent:
    """One valid reply and one of each invalid class per game."""

    name = "mixed"

    def propose(self, game, k):
        n = game.n
        texts = [
            serialize_pair(uniform_pair(n)),
            "no object here",
            '{"row": [1.0]}',
            json.dumps({"row": [1.0] * (n + 1), "col": [1.0] * n}),
            json.dumps({"row": [0.0] * n, "col": [1.0] * n}),
        ]
        return [parse_response(t, n) for t in texts[:k]]


def _records():
    games = {d: sample_game(GameSpec(n=4, distribution=d, seed=11))
             for d in ("integer", "gaussian", "sparse")}
    base = sample_game(GameSpec(n=3, seed=5))
    gaussian_base = sample_game(GameSpec(n=3, distribution="gaussian", seed=5))
    eval_games = make_eval_set(n=3, count=4, eval_seed=2)
    audits = invariance_audit(UniformAgent(), eval_games, seed=3)
    return {
        "gamerec_integer": games["integer"],
        "gamerec_gaussian": games["gaussian"],
        "gamerec_sparse": games["sparse"],
        "gamerec_unnormalized": sample_game(GameSpec(n=4, normalize=False, seed=11)),
        "padrec_dominated_shuffled": dominated_pad(base, 6, shuffle=True),
        "padrec_dominated_gaussian": dominated_pad(gaussian_base, 6),
        "padrec_random": random_pad(base, 6),
        "evalres_invalid": evaluate(_MixedAgent(), eval_games, k=5, tau=0.10,
                                    condition="pinned", distribution="integer"),
        "audit_permutation": audits[0],
        "audit_affine": audits[1],
        "padexp": padding_cliff_experiment(BlockSolverAgent(2), base_n=2, targets=(4,),
                                           count=3, k=2, seed=13),
        "lipschitz": check_residual_lipschitz(trials=20, seed=3),
        "discontinuity": selector_discontinuity_demo(),
        "cancellation": grpo_cancellation_check(trials=20, seed=3),
    }


PINNED = {
    "gamerec_integer":
        "03e47ae1629ad1f26eefa8cf50a087d9ae17097d99ea81151a66834b21735afe",
    "gamerec_gaussian":
        "fb0394e33eba9e3f0a60e84192f6d9914385940f97f8302669a55e2858f86ed3",
    "gamerec_sparse":
        "617ab55ccacf557f3b7bb627f45ac77d3cc40edf44a8f2eff06be304b4718e8d",
    "gamerec_unnormalized":
        "a3d4ee574f3b07c976acc085e1956e5905aede963ddaad903fd606c50d87db41",
    "padrec_dominated_shuffled":
        "b4fe74b3f85f10c0aa6ff9564345aeb1105c2de442bf51c39f9e81807a3cf4fa",
    "padrec_dominated_gaussian":
        "dfe5b52b140d5eb444965a9427a4b60599e3f3751c6b889a9659a3ae796c8868",
    "padrec_random":
        "67fc797eac723978c6c35cfe09bee57b5293518dd360d75111c0665e601dc328",
    "evalres_invalid":
        "660894da174fa161e58ffa43ae412ff7a4a4674fd700fd9d751855a273a4e4fc",
    "audit_permutation":
        "89d5025d3a489d1d20422db7799b013a72f9dce08b859bf1d8840fb1243d102c",
    "audit_affine":
        "f3d0bbf365221177addf22f7701ab9352e554ec6ef9847b8d93c42e6aaa7314d",
    "padexp":
        "31a04d04a4eca22307d1d0ab52b34a2b89a8b38b6d4c4d08f390dd95fae2688f",
    "lipschitz":
        "dd37fa90fba18d9af90f0d11c0cf26960403bae01ac3eadb649787aab732bf0e",
    "discontinuity":
        "b721064bb5d0a5f22622b1f3632c7a7bf6405b081d63e597945d59eca0fc8b2d",
    "cancellation":
        "8b14db404df2d077a76a217bbbe1149588b169529452e6f75e3205048a2f8e3e",
}


@pytest.fixture(scope="module")
def records():
    return _records()


def _sha(record) -> str:
    return hashlib.sha256(canonical_json(record.to_json_dict()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_json_bytes_are_pinned(records, name):
    assert _sha(records[name]) == PINNED[name]


def test_evalres_fixture_has_every_invalid_class(records):
    res = records["evalres_invalid"]
    errors = {parse_response(t, res.n).parse_error
              for g in res.games for t in g.raw_texts}
    assert errors == {None, "malformed", "missing_field", "length_mismatch",
                      "degenerate_weights"}


def _readable(records):
    padded = records["padrec_dominated_shuffled"]
    res = records["evalres_invalid"]
    game = records["gamerec_sparse"]
    return [
        game.spec,
        records["gamerec_integer"],
        records["gamerec_gaussian"],
        game,
        padded,
        records["padrec_random"],
        res.games[0],
        res,
    ]


def test_round_trip_through_json_text(records):
    for rec in _readable(records):
        text = canonical_json(rec.to_json_dict())
        back = type(rec).from_json_dict(json.loads(text))
        assert canonical_json(back.to_json_dict()) == text, type(rec).__name__
        if type(rec) in (GameSpec, GameResult, EvalResult):
            assert back == rec


def test_readable_types_are_covered(records):
    covered = {type(r) for r in _readable(records)}
    assert covered == {GameSpec, GameRecord, PaddedGameRecord, GameResult, EvalResult}


def test_reader_rejects_missing_unknown_and_wrongly_typed_keys(records):
    spec = records["gamerec_integer"].spec.to_json_dict()
    res = records["evalres_invalid"].to_json_dict()
    game = res["games"][0]
    bad = [
        (GameSpec, {**spec, "n": "4"}),
        (GameSpec, {**spec, "shape": "square"}),
        (GameSpec, {k: v for k, v in spec.items() if k != "n"}),
        (EvalResult, {**res, "k": "5"}),
        (EvalResult, {**res, "tau": None}),
        (EvalResult, {**res, "games": 3}),
        (EvalResult, {"schema": "evalres/1", "agent": "x"}),
        (EvalResult, [res]),
        (GameResult, {**game, "raw_texts": "abc"}),
        (GameResult, {**game, "success": 1}),
    ]
    for cls, d in bad:
        with pytest.raises(ContractViolation):
            cls.from_json_dict(d)


def test_reader_checks_an_optional_field_as_its_type_or_null(records):
    game = records["evalres_invalid"].to_json_dict()["games"][0]
    for index in (None, 0, 3):
        assert GameResult.from_json_dict({**game, "best_sample_index": index}).best_sample_index == index
    for index in ("0", True, 0.0, [0]):
        with pytest.raises(ContractViolation, match="best_sample_index has the wrong type"):
            GameResult.from_json_dict({**game, "best_sample_index": index})


@dataclass(frozen=True)
class _Tagged:
    schema = "tagged/1"

    x: "int"

    to_json_dict = field_dict
    from_json_dict = classmethod(from_fields)


def test_the_schema_tag_is_read_from_the_class():
    assert list(field_dict(_Tagged(1)).items()) == [("schema", "tagged/1"), ("x", 1)]
    assert "schema" not in field_dict(GameSpec(n=3))
    assert from_fields(_Tagged, {"schema": "tagged/1", "x": 1}) == _Tagged(1)
    for d in ({"x": 1}, {"schema": "tagged/2", "x": 1}):
        with pytest.raises(ContractViolation, match="expected schema tagged/1"):
            from_fields(_Tagged, d)


@dataclass(frozen=True)
class _Nested:
    items: "tuple[_Tagged, ...]"
    sizes: "tuple[int, ...] | None"
    table: "dict"


def test_nested_records_tuples_and_dicts_are_read_by_their_annotation():
    rec = _Nested(items=(_Tagged(1), _Tagged(2)), sizes=(3, 4), table={"a": 1})
    d = field_dict(rec)
    assert d == json.loads(canonical_json(d)) == {
        "items": [{"schema": "tagged/1", "x": 1}, {"schema": "tagged/1", "x": 2}],
        "sizes": [3, 4], "table": {"a": 1}}
    assert d["table"] is not rec.table
    assert from_fields(_Nested, d) == rec
    assert from_fields(_Nested, {**d, "sizes": None}).sizes is None
    for edit, error in (({"items": [{"x": 1}]}, "expected schema tagged/1"),
                        ({"items": {"x": 1}}, "items has the wrong type"),
                        ({"sizes": [3, "4"]}, "sizes has an item of the wrong type")):
        with pytest.raises(ContractViolation, match=error):
            from_fields(_Nested, {**d, **edit})


# every JSON form written or read by hand in src/zerosum/, keyed (module,
# class, method), with the format difference that field_dict or from_fields
# cannot express; every other record says to_json_dict = field_dict and
# from_json_dict = classmethod(from_fields)
HAND_WRITTEN = {
    ("core", "PayoffMatrix", "to_json_dict"): "writes n and an ndarray's entries as lists",
    ("core", "StrategyPair", "to_json_dict"): "writes each strategy as its list of weights",
    ("core", "CheckReport", "to_json_dict"): "writes each check's kind and its derived ok",
    ("gen", "GameRecord", "to_json_dict"): "writes each matrix's meta from the spec",
    ("gen", "GameRecord", "from_json_dict"): "rebuilds the record from its spec and raw entries",
    ("gen", "PaddedGameRecord", "to_json_dict"):
        "writes the padded matrix's meta from the base's spec, and the derived reference "
        "pair and certificate",
    ("gen", "PaddedGameRecord", "from_json_dict"):
        "rebuilds the record from its base, kind and padded size",
    ("agents", "RemoteModelConfig", "from_json_dict"): "raises ConfigError, not ContractViolation",
}


def test_only_real_format_differences_are_hand_written():
    found = set()
    for path in pathlib.Path(zerosum.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owners = [(None, tree.body)] + [(node.name, node.body) for node in ast.walk(tree)
                                        if isinstance(node, ast.ClassDef)]
        for owner, body in owners:
            found |= {(path.stem, owner, item.name) for item in body
                      if isinstance(item, ast.FunctionDef)
                      and item.name in ("to_json_dict", "from_json_dict")}
    assert found == set(HAND_WRITTEN)
