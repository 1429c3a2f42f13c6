"""The record file reader builds game lines a size group at a time and must
read every file exactly as reading one line at a time does.

``cli._read_record`` is the one-line reader and the reference here:
``cli._load_records`` must give records equal to it in JSON form, id, and
matrix and raw bytes, and, on a file with bad lines, report the first bad
line with the message the one-line reader gives for it."""

import json
import math

import pytest

from zerosum import ConfigError, cli, gen
from zerosum.core import canonical_json, content_digest
from zerosum.gen import GameSpec, dominated_pad, random_pad, sample_game

CHUNK = cli._READ_CHUNK


def _constant(n: int, value: float, normalize: bool = True) -> gen.GameRecord:
    """A game whose raw entries all equal value: normalizing bumps entry (0, 0)."""
    return gen._game_records([GameSpec(n=n, seed=n, normalize=normalize)],
                             [[[value] * n] * n])[0]


def _line(rec) -> str:
    return canonical_json(rec.to_json_dict())


def _games(count: int, start: int = 0):
    """count games over every distribution, three sizes and both normalize flags."""
    dists = gen.DISTRIBUTIONS
    return [sample_game(GameSpec(n=(3, 5, 8)[i % 3], distribution=dists[i // 3 % len(dists)],
                                 seed=start + i, normalize=i % 4 != 3))
            for i in range(count)]


FILES = {
    "one size, two chunks": lambda: [sample_game(GameSpec(n=4, seed=i)) for i in range(2 * CHUNK + 3)],
    "mixed sizes, distributions and normalize flags": lambda: _games(3 * CHUNK),
    "constant matrices among others": lambda: [
        *_games(5), _constant(3, 3.0), _constant(3, -0.0), _constant(5, 7.5, normalize=False),
        *_games(5, start=50), _constant(5, 1e6 / 3), *_games(4, start=90)],
    "sparse games at n = 2, often all zero": lambda: [
        sample_game(GameSpec(n=2, distribution="sparse", seed=i)) for i in range(40)],
    "game and padded lines": lambda: [
        rec for i, base in enumerate(_games(45))
        for rec in ((base, dominated_pad(base, base.n + 2, shuffle=i % 2 == 0)) if i % 9 == 0
                    else (base, random_pad(base, base.n + 1)) if i % 9 == 4 else (base,))],
}


def _write(tmp_path, lines, name="records.jsonl"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def _state(rec) -> tuple:
    return (rec.id, _line(rec), rec.matrix.entries.tobytes(),
            getattr(rec, "raw", rec.matrix).entries.tobytes())


@pytest.mark.parametrize("name", list(FILES))
def test_the_reader_reads_as_one_line_at_a_time(name, tmp_path):
    lines = [_line(rec) for rec in FILES[name]()]
    read = cli._load_records(_write(tmp_path, lines))
    alone = [cli._read_record(json.loads(line)) for line in lines]
    assert [type(r) for r in read] == [type(r) for r in alone]
    assert [_state(r) for r in read] == [_state(r) for r in alone]
    assert [_line(r) for r in read] == lines


def test_a_file_of_valid_games_is_built_by_size_group(tmp_path, monkeypatch):
    lines = [_line(rec) for rec in _games(2 * CHUNK)]
    alone = []
    built = gen._game_record
    monkeypatch.setattr(gen, "_game_record", lambda *a: alone.append(a) or built(*a))
    assert len(cli._load_records(_write(tmp_path, lines))) == len(lines)
    assert alone == []


def _edited_id(line: str) -> str:
    d = json.loads(line)
    d["id"] = "x"
    return json.dumps(d)


def _edited_entry(line: str) -> str:
    d = json.loads(line)
    d["matrix"]["entries"][1][1] = math.nextafter(d["matrix"]["entries"][1][1], math.inf)
    return json.dumps(d)


def _ragged(line: str) -> str:
    d = json.loads(line)
    d["raw"]["entries"][0].pop()
    return json.dumps(d)


def _infinite(line: str) -> str:
    """The line with raw and matrix entry (0, 0) infinite and the id to match."""
    d = json.loads(line)
    d["spec"]["normalize"] = False
    d["matrix"]["meta"]["normalized"] = False
    d["raw"]["entries"][0][0] = math.inf
    d["matrix"]["entries"] = d["raw"]["entries"]
    d["id"] = content_digest({"spec": d["spec"], "raw": d["raw"]["entries"]})
    return json.dumps(d)


def _message(line: str) -> str:
    """The error the one-line reader gives for line."""
    try:
        cli._read_record(json.loads(line))
    except (ValueError, KeyError) as exc:
        return str(exc)
    raise AssertionError(f"read: {line[:80]}")


# (first bad line, its edit, second bad line, its edit); line i holds a game
# of size (3, 5, 8)[i % 3], so line 6's size group is built before line 4's
BAD_PAIRS = {
    "record then not JSON, one chunk": (3, _edited_id, 10, lambda line: line[:-1]),
    "record then not JSON, two chunks": (CHUNK - 2, _edited_entry, CHUNK + 4, lambda line: "{"),
    "not JSON then record": (5, lambda line: "not json", 6, _edited_id),
    "two records, the later one's size group built first": (4, _ragged, 6, _ragged),
    "two records, one size": (4, _edited_entry, 7, _ragged),
    "an infinite entry, then a record": (6, _infinite, 9, _edited_entry),
}


@pytest.mark.parametrize("name", list(BAD_PAIRS))
def test_the_first_bad_line_is_reported(name, tmp_path):
    first, edit, second, other = BAD_PAIRS[name]
    lines = [_line(rec) for rec in _games(2 * CHUNK)]
    lines[first] = edit(lines[first])
    lines[second] = other(lines[second])
    path = _write(tmp_path, lines)
    try:
        json.loads(lines[first])
    except ValueError as exc:
        want = str(exc)
    else:
        want = _message(lines[first])
    with pytest.raises(ConfigError) as caught:
        cli._load_records(path)
    assert str(caught.value) == f"{path}: bad record: {want}"
