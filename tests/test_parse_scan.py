"""Parse scan parity: ``parse_response`` must choose the same candidate as
the scan it replaced, which tried ``raw_decode`` at every "{".

``_ref_iter_json_objects`` and ``_ref_parse`` below are that scan and the
candidate loop of ``parse_response`` as they stood. The weight checks and
the projection after the loop call the module's own helpers, so only the
scan is compared. Each text must give the same parse class, the same
strategy bytes, or the same raised exception type on both sides."""

import json
import random

import pytest

from zerosum.agents import AgentResponse, _as_weights, parse_response
from zerosum.core import StrategyPair, project_to_simplex


def _ref_iter_json_objects(text: str):
    dec = json.JSONDecoder()
    idx = 0
    while True:
        start = text.find("{", idx)
        if start < 0:
            return
        try:
            obj, _ = dec.raw_decode(text, start)
        except ValueError:
            idx = start + 1
            continue
        yield obj
        idx = start + 1


def _ref_parse(text: str, n: int) -> AgentResponse:
    candidate = None
    saw_partial = False
    for obj in _ref_iter_json_objects(text):
        if not isinstance(obj, dict):
            continue
        has_row = "row" in obj
        has_col = "col" in obj
        if has_row and has_col:
            candidate = obj
            break
        if has_row or has_col:
            saw_partial = True
    if candidate is None:
        reason = "missing_field" if saw_partial else "malformed"
        return AgentResponse(raw_text=text, parsed=None, parse_error=reason)
    row_raw, row_err = _as_weights(candidate["row"], n)
    col_raw, col_err = _as_weights(candidate["col"], n)
    for err in ("length_mismatch", "malformed"):
        if row_err == err or col_err == err:
            return AgentResponse(raw_text=text, parsed=None, parse_error=err)
    row = project_to_simplex(row_raw)
    col = project_to_simplex(col_raw)
    if row is None or col is None:
        return AgentResponse(raw_text=text, parsed=None, parse_error="degenerate_weights")
    return AgentResponse(
        raw_text=text, parsed=StrategyPair(row=row, col=col), parse_error=None
    )


def _outcome(parse, text: str, n: int):
    try:
        r = parse(text, n)
    except Exception as exc:  # both sides raise RecursionError on deep nesting
        return ("raised", type(exc))
    if r.parse_error is not None:
        return ("error", r.parse_error)
    return ("ok", r.parsed.row.probs.tobytes(), r.parsed.col.probs.tobytes())


def _assert_same(text: str, n: int):
    assert _outcome(parse_response, text, n) == _outcome(_ref_parse, text, n), text[:200]


# Fragments a reply can be cut from: braces, quotes, the four JSON
# whitespace characters and one that is not, "{}", both keys, weight
# vectors of every parse class, NaN and overflowing numbers.
_FRAGMENTS = (
    "{", "}", "[", "]", '"', ":", ",", "\\", "{}", "{ }", "{\n\t\r }",
    " ", "\t", "\n", "\r", "\f", "x",
    '"row"', '"col"', '"x"', '"row": ', '"col": ', '{"row": ', '{"col": ', '{ "row":',
    "[1, 0]", "[0.5, 0.5]", "[2, 6]", "[-1, 3]", "[0, 0]", "[1, 0, 0]", '["a", 1]',
    "[NaN, 1]", "[1e999, 0]", "[-Infinity, 1]", "[1e308, 1e308]",
    "0", "1", "-1", "0.25", "2e-3", "NaN", "1e999", "true", "null",
)
_VALUES = ("[1, 0]", "[0.5, 0.5]", "[2, 6]", "[-1, 3]", "[0, 0]", "[1, 0, 0]",
           '["a", 1]', "[NaN, 1]", "[1e999, 0]", "[1e308, 1e308]", "0.5", "{}")


def _ws(rng: random.Random) -> str:
    return "".join(rng.choice(" \t\n\r") for _ in range(rng.randint(0, 2)))


def _seeded_object(rng: random.Random, depth: int = 0) -> str:
    """An object over the keys row, col and x, often cut or spliced."""
    items = []
    for key in rng.sample(("row", "col", "x"), rng.randint(0, 3)):
        value = _seeded_object(rng, depth + 1) if depth < 2 and rng.random() < 0.2 \
            else rng.choice(_VALUES)
        items.append(f'{_ws(rng)}"{key}"{_ws(rng)}:{_ws(rng)}{value}')
    text = "{" + ",".join(items) + _ws(rng) + "}"
    if rng.random() < 0.3:
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(_FRAGMENTS) + text[cut + rng.randint(0, 2):]
    return text


def _seeded_text(rng: random.Random) -> str:
    return "".join(
        _seeded_object(rng) if rng.random() < 0.5 else rng.choice(_FRAGMENTS)
        for _ in range(rng.randint(1, 6))
    )


def test_seeded_fragment_texts_parse_as_before():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(50_000):
        text = _seeded_text(rng)
        out = _outcome(parse_response, text, 2)
        assert out == _outcome(_ref_parse, text, 2), text
        seen.add(out[1] if out[0] == "error" else out[0])
    # the fuzz reaches every parse outcome, so a parity pass means something
    assert seen == {"ok", "malformed", "missing_field", "length_mismatch",
                    "degenerate_weights"}


def test_hypothesis_finds_no_text_that_parses_differently():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    texts = st.one_of(
        st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join),
        st.text(alphabet='{}[]":, \t\n\r\f0123456789.-eNaIfinityrowcl', max_size=60),
    )

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(texts, st.integers(1, 3))
    def check(text, n):
        _assert_same(text, n)

    check()


def _long_reply(n: int) -> str:
    steps = " ".join(
        f"Step {i}: compare rows {{r{i % n}}} and [c{i % n}] giving {i % 19 - 9}."
        for i in range(80)
    )
    return steps + '\nFinal: {"row": [0.2, 0.3, 0.5], "col": [0.6, 0.4, 0.0]}'


_HOSTILE = [
    "{" * 16_000 + " no answer",
    '{"x": {' * 1000,
    '{"x": ' * 1000,
    '{"' * 4000,
    "{ " * 8000 + '"row": [1, 0, 0], "col": [0, 1, 0]}',
    "{" + " \t\n\r" * 2500 + '"row": [1, 0, 0], "col": [0, 1, 0]}',
    '{\f"row": [1, 0, 0], "col": [0, 1, 0]}',
    '{\u00a0"row": [1, 0, 0], "col": [0, 1, 0]}',
    '{ "row": [1, 0, 0], "col": [0, 1, 0]}',
    '"{\\"row\\": [1, 0, 0], \\"col\\": [0, 1, 0]}"',
    '{"note": "{\\"row\\": [1]}", "inner": {"row": [1, 0, 0], "col": [0, 0, 1]}}',
    '{"row": ' + "[" * 1500 + "1" + "]" * 1500 + ', "col": [0.5, 0.25, 0.25]}',
    '{"row": [1, 0, 0]} {} {"col": [0, 1, 0]} {"row": [1, 0, 0], "col": [0, 1, 0]}',
    _long_reply(3),
]


@pytest.mark.parametrize("text", _HOSTILE, ids=range(len(_HOSTILE)))
def test_hostile_texts_parse_as_before(text):
    _assert_same(text, 3)


def test_scan_decodes_only_where_a_key_can_start(monkeypatch):
    starts = []
    real = json.JSONDecoder.raw_decode

    def counting(self, s, idx=0):
        starts.append(idx)
        return real(self, s, idx)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
    assert parse_response("{" * 100_000 + " x", 3).parse_error == "malformed"
    assert starts == []
    long = _long_reply(3)
    assert parse_response(long, 3).parse_error is None
    assert starts == [long.index('{"row"')]
