"""Readers accept only what writers write (ROADMAP item 2), by a seeded sweep.

Each written ``gamerec/1`` and ``padrec/1`` line gets every single edit at
every key and list element: drop it, set it to null, stringify it, flip a
bool, nudge a float by one ulp, negate or add 1 to a number, switch its int
or float spelling, add a key to an object, append to or pop from a list.
Every edited line must either be rejected with ValueError or KeyError (the
CLI maps both to exit 2) or read back to the writer's exact line.

Without an LP the padded reader can only bound the numbers of the
reference pair and the certificate to CERT_TOL, so numeric edits there are
exempt from the read-back rule; they must still be rejected cleanly or read.
"""

import json
import math

import pytest

from zerosum.core import canonical_json
from zerosum.gen import (
    GameRecord,
    GameSpec,
    PaddedGameRecord,
    dominated_pad,
    random_pad,
    sample_game,
)

_DROP = object()
_NUMERIC = {"ulp", "negate", "add 1", "int spelling", "float spelling"}


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


def _read(d):
    """A record read as cli._load_records reads one line."""
    padded = isinstance(d, dict) and d.get("schema") == PaddedGameRecord.schema
    return (PaddedGameRecord if padded else GameRecord).from_json_dict(d)


def _exempt(path, label) -> bool:
    return label in _NUMERIC and (
        (path[0] == "reference_pair" and len(path) == 3)
        or (path[0] == "certificate" and len(path) == 2)
    )


def _game(dist: str, normalize: bool) -> GameRecord:
    return sample_game(GameSpec(n=3, distribution=dist, seed=1, normalize=normalize))


RECORDS = {
    **{f"{dist} normalize={normalize}": (lambda d=dist, z=normalize: _game(d, z))
       for dist in ("integer", "gaussian", "sparse") for normalize in (True, False)},
    "dominated shuffle": lambda: dominated_pad(_game("integer", True), 5, shuffle=True),
    "random": lambda: random_pad(_game("gaussian", True), 5),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_every_single_edit_is_rejected_or_reads_back_as_written(name):
    line = canonical_json(RECORDS[name]().to_json_dict())
    assert canonical_json(_read(json.loads(line)).to_json_dict()) == line
    edits = 0
    violations = []
    for path, label, d in _edited(line):
        edits += 1
        try:
            rec = _read(d)
        except (ValueError, KeyError):
            continue
        if canonical_json(rec.to_json_dict()) != line and not _exempt(path, label):
            violations.append(f"{label} at {'/'.join(map(str, path))}")
    assert edits >= 200
    assert violations == []
