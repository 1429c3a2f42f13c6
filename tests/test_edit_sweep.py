"""Readers accept only what writers write (ROADMAP item 2), by a seeded sweep.

Each written ``gamerec/1`` and ``padrec/2`` line gets every single edit at
every key and list element: drop it, set it to null, stringify it, flip a
bool, nudge a float by one ulp, negate or add 1 to a number, switch its int
or float spelling, add a key to an object, append to or pop from a list.
Every edited line must either be rejected with ValueError or KeyError (the
CLI maps both to exit 2) or equal the written line as JSON values and read
back to the writer's exact line. A number
spelled as a string, anywhere, and a padded ``n`` spelled as a float must
be rejected, not read back.

``evalres/1`` and ``padexp/1`` results hold what a run measured, which no
reader can rebuild, so their edits are held to a no-crash rule: each is
rejected with ValueError or KeyError or read, and a read eval result is
rescored against its games, which raises a ZeroSumError or returns.
"""

import json
import math

import pytest

from zerosum import ZeroSumError, cli
from zerosum.agents import BlockSolverAgent, parse_response, serialize_pair
from zerosum.core import canonical_json
from zerosum.gen import (
    GameRecord,
    GameSpec,
    dominated_pad,
    make_eval_set,
    random_pad,
    sample_game,
)
from zerosum.harness import EvalResult, evaluate, padding_cliff_experiment, rescore
from zerosum.solver import uniform_pair

_DROP = object()


def _edits(value):
    """(label, replacement) for each single edit of one JSON value."""
    out = [("drop", _DROP), ("null", None), ("stringify", json.dumps(value))]
    if isinstance(value, bool):
        out.append(("flip", not value))
    elif isinstance(value, int):
        out += [("negate", -value), ("add 1", value + 1), ("float spelling", float(value))]
    elif isinstance(value, float):
        out += [("ulp", math.nextafter(value, math.inf)), ("negate", -value),
                ("add 1", value + 1)]
        if value.is_integer():
            out.append(("int spelling", int(value)))
    elif isinstance(value, dict):
        out.append(("add key", {**value, "extra": 1}))
    elif isinstance(value, list):
        out += [("append", value + value[-1:]), ("pop", value[:-1])]
    return out


def _edited(line: str):
    """(path, label, edited record) for every edit at every key and element."""
    def walk(node, path):
        for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
            for label, new in _edits(value):
                d = json.loads(line)
                parent = d
                for step in path:
                    parent = parent[step]
                if new is _DROP:
                    del parent[key]
                else:
                    parent[key] = new
                yield path + (key,), label, d
            if isinstance(value, (dict, list)):
                yield from walk(value, path + (key,))
    yield from walk(json.loads(line), ())


_read = cli._read_record  # a record read as cli._load_records reads one line


def _value_at(line: str, path):
    node = json.loads(line)
    for step in path:
        node = node[step]
    return node


def _must_reject(line: str, path, label) -> bool:
    if label == "stringify":
        value = _value_at(line, path)
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return label == "float spelling" and path == ("padded", "n")


def _game(dist: str, normalize: bool) -> GameRecord:
    return sample_game(GameSpec(n=3, distribution=dist, seed=1, normalize=normalize))


RECORDS = {
    **{f"{dist} normalize={normalize}": (lambda d=dist, z=normalize: _game(d, z))
       for dist in ("integer", "gaussian", "sparse") for normalize in (True, False)},
    "dominated shuffle": lambda: dominated_pad(_game("integer", True), 5, shuffle=True),
    "dominated": lambda: dominated_pad(_game("sparse", False), 5),
    # shuffled, yet both maps are the identity prefix
    "dominated shuffle, identity maps":
        lambda: dominated_pad(sample_game(GameSpec(n=2, seed=394)), 4, shuffle=True),
    "random": lambda: random_pad(_game("gaussian", True), 5),
}


def sweep(line: str) -> tuple[int, list[str]]:
    """(edits made, edits wrongly accepted) over every single edit of line.

    An accepted edit must equal line as JSON values (5.0 for 5 and 0.0 for
    -0.0 are equal) and read back to line's exact bytes, so a reader that
    ignores a key it does not rebuild from is caught.
    """
    written = json.loads(line)
    edits = 0
    violations = []
    for path, label, d in _edited(line):
        edits += 1
        try:
            rec = _read(d)
        except (ValueError, KeyError):
            continue
        if (_must_reject(line, path, label) or d != written
                or canonical_json(rec.to_json_dict()) != line):
            violations.append(f"{label} at {'/'.join(map(str, path))}")
    return edits, violations


@pytest.mark.parametrize("name", list(RECORDS))
def test_every_single_edit_is_rejected_or_reads_back_as_written(name):
    line = canonical_json(RECORDS[name]().to_json_dict())
    assert canonical_json(_read(json.loads(line)).to_json_dict()) == line
    edits, violations = sweep(line)
    assert edits >= 200
    assert violations == []


class _MixedAgent:
    """A valid reply, then a reply with no JSON, per game."""

    name = "mixed"

    def propose(self, game, k):
        texts = [serialize_pair(uniform_pair(game.n)), "no object here"]
        return [parse_response(t, game.n) for t in texts[:k]]


_GAMES = make_eval_set(3, 2, eval_seed=1)
RESULTS = {
    "evalres": lambda: evaluate(_MixedAgent(), _GAMES, k=2),
    "padexp": lambda: padding_cliff_experiment(BlockSolverAgent(2), base_n=2, targets=(4,),
                                               count=2, k=1, seed=13),
}


@pytest.mark.parametrize("name", list(RESULTS))
def test_every_single_edit_of_a_result_is_rejected_or_read_without_a_crash(name):
    rec = RESULTS[name]()
    line = canonical_json(rec.to_json_dict())
    reader = type(rec).from_json_dict
    assert canonical_json(reader(json.loads(line)).to_json_dict()) == line
    edits = 0
    for _, _, d in _edited(line):
        edits += 1
        try:
            back = reader(d)
        except (ValueError, KeyError):
            continue
        if isinstance(back, EvalResult):
            try:
                rescore(back, _GAMES)
            except ZeroSumError:
                pass
    assert edits >= 200
