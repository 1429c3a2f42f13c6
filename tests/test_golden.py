"""A golden table of CLI outputs: the bytes of every command's output, pinned.

Each row is a ``cli.main`` argv, run in order in one directory, so later
rows read what earlier rows wrote. A row whose first word is ``join``
instead writes its first file from the lines of the others, taken in turn
(a file of mixed sizes, or of game and padded records). ``golden.json``
holds, per row, the exit status, the SHA-256 of the captured stdout and of
each file the row writes. A manifest is hashed without ``created_unix``, the
only field that changes between runs.

A row moves when any byte it writes moves. A change that moves one on
purpose rewrites the table with

    PYTHONPATH=src python tests/test_golden.py --write

and lists each moved row, its old and new digest and the reason. A numpy
that draws other bits moves rows, as it moves the record pins.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np

from zerosum import cli

GOLDEN = pathlib.Path(__file__).with_name("golden.json")


def _gen(n, dist, count, seed, out, *extra):
    return ["gen", "--n", n, "--dist", dist, "--count", count, "--seed", seed, *extra, "--out", out]


def _eval(agent, src, out, *extra):
    return ["eval", "--in", src, "--agent", agent, "--k", 2, *extra, "--out", out]


AGENTS = ("uniform", "maximin", "oracle", "noisy:0.3", "block:3")
EVAL_INPUTS = ("g3.jsonl", "g5s.jsonl", "pd3_7.jsonl", "pr3_6.jsonl")

ROWS = {
    **{f"gen {dist} n={n}": _gen(n, dist, 6, seed, f"g{n}{dist[0]}.jsonl")
       for seed, (dist, n) in enumerate(((d, n) for d in ("integer", "gaussian", "sparse")
                                         for n in (3, 5, 8)), 1)},
    "gen integer n=3, two read chunks": _gen(3, "integer", 40, 20, "g3.jsonl"),
    "gen unnormalized": _gen(4, "gaussian", 5, 21, "u4.jsonl", "--normalize", "false"),
    "gen sparse n=2, constant games": _gen(2, "sparse", 12, 22, "s2.jsonl", "--density", "0.2"),
    "pad dominated 3->5": ["pad", "--in", "g3i.jsonl", "--kind", "dominated", "--target-n", 5,
                           "--out", "pd3_5.jsonl"],
    "pad dominated shuffled 3->7": ["pad", "--in", "g3i.jsonl", "--kind", "dominated",
                                    "--target-n", 7, "--shuffle", "true", "--out", "pd3_7.jsonl"],
    "pad random 3->6": ["pad", "--in", "g3g.jsonl", "--kind", "random", "--target-n", 6,
                        "--out", "pr3_6.jsonl"],
    "pad dominated 5->8": ["pad", "--in", "g5s.jsonl", "--kind", "dominated", "--target-n", 8,
                           "--out", "pd5_8.jsonl"],
    "pad dominated shuffled 5->9": ["pad", "--in", "g5g.jsonl", "--kind", "dominated",
                                    "--target-n", 9, "--shuffle", "true", "--out", "pd5_9.jsonl"],
    "pad random 5->9": ["pad", "--in", "g5i.jsonl", "--kind", "random", "--target-n", 9,
                        "--out", "pr5_9.jsonl"],
    "join mixed sizes": ["join", "sizes.jsonl", "g3.jsonl", "g5g.jsonl", "g8s.jsonl",
                         "s2.jsonl", "u4.jsonl"],
    "join mixed kinds": ["join", "kinds.jsonl", "g3.jsonl", "pd3_5.jsonl", "g8i.jsonl",
                         "pr5_9.jsonl", "pd5_9.jsonl"],
    "solve lp": ["solve", "--in", "g8g.jsonl", "--out", "sol_g8g.jsonl"],
    "solve both": ["solve", "--in", "g5i.jsonl", "--method", "both", "--out", "sol_g5i.jsonl"],
    "solve lp, mixed sizes": ["solve", "--in", "sizes.jsonl", "--out", "sol_sizes.jsonl"],
    "solve lp, mixed kinds": ["solve", "--in", "kinds.jsonl", "--out", "sol_kinds.jsonl"],
    **{f"eval {agent} on {src}": _eval(agent, src, f"ev_{agent.split(':')[0]}_{src}.json",
                                       *(("--seed", 5) if agent.startswith("noisy") else ()))
       for src in EVAL_INPUTS for agent in AGENTS},
    "eval noisy, mixed sizes and kinds": _eval("noisy:0.3", "kinds.jsonl", "ev_kinds.json",
                                               "--seed", 6),
    "rescore": ["eval", "--in", "kinds.jsonl", "--agent", "noisy:0.3", "--seed", 6,
                "--rescore", "ev_kinds.json", "--out", "rescored.json"],
    "audit": ["audit", "--in", "g5g.jsonl", "--agent", "oracle", "--seed", 5,
              "--out", "audit.json"],
    "pad-exp": ["pad-exp", "--agent", "block:2", "--base-n", 2, "--targets", "4,6",
                "--count", 3, "--k", 1, "--seed", 13, "--out", "cliff.json"],
    "verify-theorems": ["verify-theorems", "--trials", 20, "--seed", 3, "--out", "thm.json"],
    "train-toy": ["train-toy", "--mode", "role_merged", "--steps", 5, "--seed", 9,
                  "--out", "train.json"],
    "report": ["report", "--in", "ev_uniform_g3.jsonl.json,ev_oracle_g5s.jsonl.json,cliff.json",
               "--out", "report.md"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _join(out: str, *sources: str) -> None:
    """Write out from the lines of sources, one line of each in turn."""
    files = [pathlib.Path(src).read_text().splitlines() for src in sources]
    lines = [line for row in zip(*files) for line in row]
    lines += [line for f in files for line in f[min(map(len, files)):]]
    pathlib.Path(out).write_text("".join(line + "\n" for line in lines))


def _file_digest(path: str) -> str:
    data = pathlib.Path(path).read_bytes()
    if path.endswith(".manifest.json"):
        manifest = json.loads(data)
        del manifest["created_unix"]
        data = json.dumps(manifest, sort_keys=True).encode()
    return _sha(data)


def run_table(workdir) -> dict:
    """Each row's exit status and digests, running the table in workdir."""
    digests = {}
    with contextlib.chdir(workdir):
        for name, argv in ROWS.items():
            argv = [str(a) for a in argv]
            if argv[0] == "join":
                _join(*argv[1:])
                digests[name] = {"exit": 0, "files": {argv[1]: _file_digest(argv[1])}}
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            written = argv[argv.index("--out") + 1] if "--out" in argv else None
            files = [written, written + ".manifest.json"] if written else []
            digests[name] = {"exit": code, "stdout": _sha(out.getvalue().encode()),
                             "files": {f: _file_digest(f) for f in files}}
    return digests


def mismatches(got: dict, want: dict) -> list[str]:
    """One line per row output whose digest differs from want's."""
    lines = []
    for name in ROWS.keys() | want.keys():
        g, w = got.get(name, {}), want.get(name, {})
        outputs = {"exit": (g.get("exit"), w.get("exit")),
                   "stdout": (g.get("stdout"), w.get("stdout"))}
        for f in g.get("files", {}).keys() | w.get("files", {}).keys():
            outputs[f] = (g.get("files", {}).get(f), w.get("files", {}).get(f))
        lines += [f"{name!r} {what}: got {a}, golden {b}"
                  for what, (a, b) in sorted(outputs.items()) if a != b]
    return lines


def test_every_row_writes_its_golden_bytes(tmp_path):
    bad = mismatches(run_table(tmp_path), json.loads(GOLDEN.read_text()))
    assert not bad, (f"Python {platform.python_version()}, numpy {np.__version__}; "
                     "if the move is intended, rerun with --write and list it in CHANGES.md:\n"
                     + "\n".join(bad))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as workdir:
        table = run_table(workdir)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    failed = [name for name, row in table.items() if row["exit"] != 0]
    print(f"wrote {len(table)} rows to {GOLDEN}" + (f"; nonzero exits: {failed}" if failed else ""))
    sys.exit(1 if failed else 0)
