"""Every option refuses what it cannot honour (ROADMAP item 7), by a seeded sweep.

The sweep is built from ``cli._COMMANDS``. Starting from one small valid
run per command, it changes one option at a time and calls ``cli.main`` in
process; argparse's ``SystemExit(2)`` counts as exit 2.

- Each option with a cast, and each agent spec's parameter (``noisy:``,
  ``block:``), gets ``EDGE_VALUES``. A non-finite float must exit 2.
- The options that size work get only the values their cast or check
  refuses, plus one small valid value: an accepted ``--count 10**12`` runs
  for hours, and a large ``--jobs`` starts that many threads.
- The path options get a file in a missing directory, a directory, and "";
  ``--config`` also gets a file whose bytes are not UTF-8, which must exit 2.
- Each command that reads ``--in`` gets a run with ``--out`` equal to it
  (``train-toy`` on a file of 2x2 games), which must exit 2.
- Each built-in agent has one spelling, its name: ``AGENT_ALIASES`` (a bare
  ``noisy`` or ``block``, ``kind:``, a parameter on a plain agent, a
  numeral the name does not spell) must exit 2, and each of
  ``CANONICAL_AGENTS`` must exit 0.

Every run must exit 0, 2 or 3, never 1, and leave the input files' bytes as
they were.

Each command's valid run, and ``report`` to stdout, also runs in a
subprocess under an ASCII locale (``LC_ALL=C``, no UTF-8 mode or locale
coercion), since the locale is read at start-up: each must exit 0, and what
it writes to ``--out`` must be the bytes it writes under the test's locale.
"""

import os
import subprocess
import sys

import pytest

from zerosum import cli

EDGE_VALUES = ("nan", "inf", "-inf", "-1", "0", str(2 ** 64), str(10 ** 400), "", "1e3", "true")
NON_FINITE = ("nan", "inf", "-inf", str(10 ** 400))  # float() reads 10**400 as inf
# values that every integer cast refuses
NOT_INTEGERS = ("nan", "inf", "-inf", "", "1e3", "true")

# each option that sizes work -> one small valid value; a key in BOUNDED also
# gets 2**64 and 10**400, which its check refuses (a size above 64, a base
# size above every target, an --index without --in)
SIZING = {"count": "1", "n": "2", "target_n": "5", "base_n": "2", "targets": "4",
          "steps": "1", "trials": "1", "group_size": "1", "grid_m": "2",
          "accumulate_groups": "1", "k": "1", "jobs": "2", "index": "0"}
BOUNDED = ("n", "target_n", "base_n", "targets", "index")
PATHS = ("in", "out", "audit_log", "rescore", "config")
# options without a cast that name a choice or a label, not a number or a path
WORDS = ("dist", "kind", "method", "mode", "condition", "agent")
AGENT_PARAMETERS = ("noisy", "block")
CANONICAL_AGENTS = ("uniform", "maximin", "oracle", "noisy:0.3", "block:3")
AGENT_ALIASES = ("uniform:", "uniform:x", "maximin:", "maximin:x", "oracle:", "oracle:x",
                 "noisy", "noisy:", "noisy:0.30", "noisy:3e-1",
                 "block", "block:", "block:03", "block:+3")

# one small valid run per command; g.jsonl, g2.jsonl (2x2 games), r0.json and
# not_utf8.cfg are written first
BASE = {
    "gen": {"n": "3", "count": "2", "seed": "1", "out": "x.jsonl"},
    "pad": {"in": "g.jsonl", "kind": "dominated", "target_n": "5", "out": "p.jsonl"},
    "solve": {"in": "g.jsonl", "out": "s.jsonl"},
    "eval": {"in": "g.jsonl", "agent": "noisy:0.3", "k": "2", "seed": "1", "out": "r.json"},
    "audit": {"in": "g.jsonl", "seed": "1", "out": "a.json"},
    "pad-exp": {"agent": "block:2", "base_n": "2", "targets": "4", "count": "2", "k": "1",
                "seed": "1", "out": "c.json"},
    "verify-theorems": {"trials": "2", "seed": "1", "out": "t.json"},
    "train-toy": {"steps": "2", "seed": "1", "out": "tt.json"},
    "report": {"in": "r0.json", "out": "rep.md"},
}


def _argv(command: str, options: dict) -> list:
    # --flag=value keeps a value such as -1 from reading as a flag
    return [command, *(f"{cli._flag(key)}={value}" for key, value in options.items())]


def _values(key: str, cast) -> tuple:
    if key in PATHS:
        return (os.path.join("missing", "f"), "a_directory", "")
    if key in SIZING:
        large = (str(2 ** 64), str(10 ** 400)) if key in BOUNDED else ()
        return (*NOT_INTEGERS, "-1", "0", SIZING[key], *large)
    return EDGE_VALUES if cast is not None else ()


def _sweep(command: str):
    """(argv, the exit codes it may give) for every value of every option."""
    base = BASE[command]
    for key, cast, _, _, _ in cli._COMMANDS[command][2]:
        non_finite_exits_2 = cast is cli._as_float
        for value in _values(key, cast):
            codes = (2,) if non_finite_exits_2 and value in NON_FINITE else (0, 2, 3)
            yield _argv(command, {**base, key: value}), codes
        if key == "agent":
            for kind in AGENT_PARAMETERS:
                for value in EDGE_VALUES:
                    codes = (2,) if kind == "noisy" and value in NON_FINITE else (0, 2, 3)
                    yield _argv(command, {**base, key: f"{kind}:{value}"}), codes
            for spec in CANONICAL_AGENTS:
                yield _argv(command, {**base, key: spec}), (0,)
            for spec in AGENT_ALIASES:
                yield _argv(command, {**base, key: spec}), (2,)
    for value in _values("config", None):
        yield _argv(command, {**base, "config": value}), (0, 2, 3)
    yield _argv(command, {**base, "config": "not_utf8.cfg"}), (2,)
    if any(key == "in" for key, *_ in cli._COMMANDS[command][2]):
        src = base.get("in", "g2.jsonl")
        yield _argv(command, {**base, "in": src, "out": src}), (2,)


def _exit_code(argv: list):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refuses a flag
        return exc.code
    except Exception as exc:  # the CLI would exit 1 on its traceback
        return f"1: {exc!r}"


def test_every_option_is_classified():
    """A new option must say how it is swept: no large value reaches it unseen."""
    for command, (_, _, options) in cli._COMMANDS.items():
        for key, cast, *_ in options:
            if cast is cli._as_int:
                assert key in SIZING, (command, key)
            elif cast is None:
                assert key in PATHS + WORDS + tuple(SIZING), (command, key)
    assert set(BASE) == set(cli._COMMANDS)


def write_inputs(tmp_path) -> dict:
    """Write the sweep's input files into tmp_path, the working directory;
    return each one's bytes by name."""
    (tmp_path / "a_directory").mkdir()
    assert cli.main(["gen", "--n", "3", "--count", "2", "--seed", "7", "--out", "g.jsonl"]) == 0
    assert cli.main(["gen", "--n", "2", "--count", "2", "--seed", "7", "--out", "g2.jsonl"]) == 0
    assert cli.main(["eval", "--in", "g.jsonl", "--agent", "uniform", "--out", "r0.json"]) == 0
    (tmp_path / "not_utf8.cfg").write_bytes(b"count=2\n\xff\xfe\n")
    return {name: (tmp_path / name).read_bytes()
            for name in ("g.jsonl", "g2.jsonl", "r0.json", "not_utf8.cfg")}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_no_option_value_exits_1(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inputs = write_inputs(tmp_path)
    assert _exit_code(_argv(command, BASE[command])) == 0, capsys.readouterr().err
    wrong = []
    runs = list(_sweep(command))
    for argv, codes in runs:
        code = _exit_code(argv)
        capsys.readouterr()
        changed = [name for name, data in inputs.items() if (tmp_path / name).read_bytes() != data]
        if code not in codes or changed:
            wrong.append((argv, code, changed))
    assert wrong == []
    assert len(runs) >= 3 * len(cli._COMMANDS[command][2])


ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("command", [*cli._COMMANDS, "report to stdout"])
def test_no_command_exits_1_under_an_ascii_locale(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "--n", "3", "--count", "2", "--seed", "7", "--out", "g.jsonl"]) == 0
    assert cli.main(["eval", "--in", "g.jsonl", "--agent", "uniform", "--out", "r0.json"]) == 0
    options = dict(BASE[command]) if command in BASE else {"in": "r0.json"}
    argv = _argv(command.split()[0], options)
    assert cli.main(argv) == 0
    written = (tmp_path / options["out"]).read_bytes() if "out" in options else None
    capsys.readouterr()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIOENCODING"))}
    env.update(ASCII_LOCALE, PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, "-m", "zerosum.cli", *argv], env=env,
                         capture_output=True, timeout=300)
    assert res.returncode == 0, res.stderr.decode("ascii", "backslashreplace")
    if written is not None:
        assert (tmp_path / options["out"]).read_bytes() == written
