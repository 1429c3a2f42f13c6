"""End-to-end command-line checks through real subprocesses: artifact
formats, manifests, reruns, exit codes. The `run` helper puts the repo's
absolute `src/` first on the child's PYTHONPATH, so the CLI under test is
this checkout's, with or without an installed zerosum. The checks at the end
call `cli.main` in process: pinned manifest ids and option resolution."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from zerosum import ConfigError, cli


CLI = [sys.executable, "-m", "zerosum.cli"]


def run(*args, cwd, env=None):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(repo, "src")
    merged = os.environ.copy()
    merged["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, merged.get("PYTHONPATH")) if p)
    if env:
        merged.update(env)
    return subprocess.run(
        [*CLI, *[str(a) for a in args]],
        cwd=cwd,
        env=merged,
        capture_output=True,
        text=True,
        timeout=300,
    )


def gen_games(tmp_path, name="games.jsonl", n=3, count=5, seed=7):
    res = run("gen", "--n", n, "--count", count, "--seed", seed, "--out", name,
              cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    return tmp_path / name


class TestGen:
    def test_writes_records_and_manifest(self, tmp_path):
        out = gen_games(tmp_path)
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            d = json.loads(line)
            assert d["schema"] == "gamerec/1"
            assert d["spec"]["n"] == 3
        manifest = json.loads((tmp_path / "games.jsonl.manifest.json").read_text())
        assert manifest["schema"] == "manifest/1"
        assert manifest["command"] == "gen"
        assert manifest["seeds"] == {"seed": 7}
        assert "games.jsonl" in manifest["outputs"]

    def test_rerun_is_byte_identical_with_shared_run_id(self, tmp_path):
        a = gen_games(tmp_path, "a.jsonl")
        b = gen_games(tmp_path, "b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.jsonl.manifest.json").read_text())
        # the run id hashes the logical run, not the output location
        assert ma["id"] == mb["id"]
        assert list(ma["outputs"].values()) == list(mb["outputs"].values())

    def test_missing_seed_is_config_error(self, tmp_path):
        res = run("gen", "--n", 3, "--count", 2, "--out", "x.jsonl", cwd=tmp_path)
        assert res.returncode == 2
        assert "seed" in res.stderr

    def test_unknown_distribution_is_config_error(self, tmp_path):
        res = run("gen", "--n", 3, "--count", 2, "--seed", 1, "--dist", "cauchy",
                  "--out", "x.jsonl", cwd=tmp_path)
        assert res.returncode == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        res = run("gen", "--n", 3, "--frobnicate", 1, cwd=tmp_path)
        assert res.returncode == 2

    def test_config_file_merge_and_flag_override(self, tmp_path):
        (tmp_path / "gen.cfg").write_text("n=3\ncount=4\nseed=9\n")
        res = run("gen", "--config", "gen.cfg", "--count", 6, "--out", "c.jsonl",
                  cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        assert len(lines) == 6  # flag wins over config
        assert json.loads(lines[0])["spec"]["n"] == 3  # config fills the rest


class TestSolveAndPad:
    def test_solve_both_routes_agree(self, tmp_path):
        games = gen_games(tmp_path)
        res = run("solve", "--in", games.name, "--method", "both",
                  "--out", "sol.jsonl", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "routes agree" in res.stdout
        rows = [json.loads(l) for l in (tmp_path / "sol.jsonl").read_text().splitlines()]
        assert len(rows) == 5
        for row in rows:
            assert row["value_gap"] <= 1e-6
            assert row["worst_certificate"] <= 1e-8

    def test_solve_support_rejects_large_games(self, tmp_path):
        games = gen_games(tmp_path, n=6)
        res = run("solve", "--in", games.name, "--method", "support", cwd=tmp_path)
        assert res.returncode == 2
        assert "n <= 5" in res.stderr

    def test_pad_then_eval_block_agent(self, tmp_path):
        games = gen_games(tmp_path, count=3)
        res = run("pad", "--in", games.name, "--kind", "dominated", "--target-n", 8,
                  "--out", "padded.jsonl", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        rows = [json.loads(l) for l in (tmp_path / "padded.jsonl").read_text().splitlines()]
        assert all(r["schema"] == "padrec/1" for r in rows)
        ev = run("eval", "--in", "padded.jsonl", "--agent", "block:3",
                 "--k", 1, "--out", "block.json", cwd=tmp_path)
        assert ev.returncode == 0, ev.stderr
        result = json.loads((tmp_path / "block.json").read_text())
        assert result["s_at_tau"] == 1.0


class TestEval:
    def test_oracle_and_report(self, tmp_path):
        games = gen_games(tmp_path)
        res = run("eval", "--in", games.name, "--agent", "oracle",
                  "--out", "oracle.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        result = json.loads((tmp_path / "oracle.json").read_text())
        assert result["schema"] == "evalres/1"
        assert result["s_at_tau"] == 1.0
        assert result["valid_rate"] == 1.0
        assert result["distribution"] == "integer"
        rep = run("report", "--in", "oracle.json", "--out", "report.md", cwd=tmp_path)
        assert rep.returncode == 0, rep.stderr
        text = (tmp_path / "report.md").read_text()
        assert "| oracle |" in text
        assert "±" in text
        assert "n=3" in text

    def test_stochastic_agent_requires_seed(self, tmp_path):
        games = gen_games(tmp_path)
        res = run("eval", "--in", games.name, "--agent", "noisy:0.3", cwd=tmp_path)
        assert res.returncode == 2
        assert "seed" in res.stderr

    def test_rescore_reproduces(self, tmp_path):
        games = gen_games(tmp_path)
        first = run("eval", "--in", games.name, "--agent", "noisy:0.3", "--seed", 5,
                    "--out", "r.json", cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        again = run("eval", "--in", games.name, "--agent", "noisy:0.3", "--seed", 5,
                    "--rescore", "r.json", "--out", "r2.json", cwd=tmp_path)
        assert again.returncode == 0, again.stderr
        assert "reproduced" in again.stdout
        assert json.loads((tmp_path / "r2.json").read_text()) == json.loads(
            (tmp_path / "r.json").read_text()
        )

    def test_rescore_detects_tampering(self, tmp_path):
        games = gen_games(tmp_path)
        first = run("eval", "--in", games.name, "--agent", "oracle",
                    "--out", "r.json", cwd=tmp_path)
        assert first.returncode == 0
        stored = json.loads((tmp_path / "r.json").read_text())
        stored["games"][0]["rewards"][0] = 0.123
        (tmp_path / "r.json").write_text(json.dumps(stored))
        res = run("eval", "--in", games.name, "--agent", "oracle",
                  "--rescore", "r.json", cwd=tmp_path)
        assert res.returncode == 3
        assert "rescore" in res.stderr

    def test_remote_transport_exhaustion_exits_4(self, tmp_path):
        games = gen_games(tmp_path, count=2)
        cfg = {"endpoint": "http://127.0.0.1:1", "model": "m",
               "retries": 0, "timeout": 0.25}
        (tmp_path / "remote.json").write_text(json.dumps(cfg))
        res = run("eval", "--in", games.name, "--agent", "remote:remote.json",
                  "--seed", 1, "--k", 1, "--out", "r.json", cwd=tmp_path)
        assert res.returncode == 4
        assert "transport" in res.stderr
        # outputs still written before the failure is raised
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["valid_rate"] == 0.0
        # an unreachable endpoint is a transport failure for every command
        res = run("audit", "--in", games.name, "--agent", "remote:remote.json",
                  "--seed", 1, cwd=tmp_path)
        assert res.returncode == 4
        assert "transport" in res.stderr
        res = run("pad-exp", "--agent", "remote:remote.json", "--count", 1,
                  "--targets", 4, "--k", 1, "--seed", 1, cwd=tmp_path)
        assert res.returncode == 4
        assert "transport" in res.stderr


class TestAuditAndTheorems:
    def test_audit_both_kinds(self, tmp_path):
        games = gen_games(tmp_path)
        res = run("audit", "--in", games.name, "--agent", "oracle", "--seed", 5,
                  "--out", "audit.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.count("PASS") == 2
        payload = json.loads((tmp_path / "audit.json").read_text())
        kinds = [r["kind"] for r in payload["reports"]]
        assert kinds == ["permutation", "affine"]
        assert all(r["ok"] for r in payload["reports"])

    def test_verify_theorems(self, tmp_path):
        res = run("verify-theorems", "--trials", 60, "--seed", 3,
                  "--out", "thm.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.count("PASS") == 4
        assert "FAIL" not in res.stdout
        payload = json.loads((tmp_path / "thm.json").read_text())
        assert payload["all_ok"] is True
        assert len(payload["checks"]) == 4

    def test_train_toy_role_merged_is_frozen(self, tmp_path):
        res = run("train-toy", "--mode", "role_merged", "--steps", 25, "--seed", 9,
                  "--out", "train.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "bitwise unchanged" in res.stdout
        payload = json.loads((tmp_path / "train.json").read_text())
        assert payload["schema"] == "traintoy/1"
        assert payload["logits_changed"] is False
        assert payload["aborted"] is False
        assert len(payload["trace"]) == 25


class TestPadExp:
    def test_small_cliff_run(self, tmp_path):
        res = run("pad-exp", "--agent", "block:2", "--base-n", 2, "--targets", "4,6",
                  "--count", 3, "--k", 1, "--seed", 13, "--out", "cliff.json",
                  cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "cliff.json").read_text())
        assert payload["schema"] == "padexp/1"
        assert payload["targets"] == [4, 6]
        dom = [r["s_at_tau"] for r in payload["rows"] if r["condition"] == "dominated"]
        assert all(s == 1.0 for s in dom)
        assert "| condition |" in res.stdout


class TestVersionAndInput:
    def test_version_flag(self, tmp_path):
        res = run("--version", cwd=tmp_path)
        assert res.returncode == 0
        assert "0.1.0" in res.stdout

    def test_missing_input_file(self, tmp_path):
        res = run("solve", "--in", "nope.jsonl", cwd=tmp_path)
        assert res.returncode == 2
        assert "cannot read" in res.stderr

    def test_corrupt_record(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text('{"schema": "gamerec/1", "id": "x"}\n')
        res = run("solve", "--in", "bad.jsonl", cwd=tmp_path)
        assert res.returncode == 2


# In-process checks of option resolution and of the manifest id. The id
# hashes (command, resolved config, seeds, version), so these pins fail if a
# command records a different key, value, default or seed set.

PINNED_RUNS = [
    (["gen", "--n", 3, "--count", 4, "--seed", 7, "--out", "g.jsonl"],
     "cc2892d6c74a2087",
     {"count": 4, "density": 0.2, "dist": "integer", "n": 3, "normalize": True,
      "seed": 7}),
    (["gen", "--config", "gen.cfg", "--out", "g_cfg.jsonl"],
     "cc2892d6c74a2087",
     {"count": 4, "density": 0.2, "dist": "integer", "n": 3, "normalize": True,
      "seed": 7}),
    (["pad", "--in", "g.jsonl", "--kind", "dominated", "--target-n", 5,
      "--out", "padded.jsonl"],
     "0ba7dfb399c8f797",
     {"in": "g.jsonl", "kind": "dominated", "shuffle": False, "target_n": 5}),
    (["solve", "--in", "g.jsonl", "--method", "both", "--out", "sol.jsonl"],
     "3890c7c53d3e642c",
     {"in": "g.jsonl", "method": "both"}),
    (["eval", "--in", "g.jsonl", "--agent", "noisy:0.3", "--seed", 5,
      "--out", "noisy.json"],
     "cdad70d95aec6de9",
     {"agent": "noisy:0.3", "audit_log": None, "condition": "", "in": "g.jsonl",
      "jobs": 1, "k": 4, "rescore": None, "seed": 5, "tau": 0.1}),
    (["eval", "--in", "g.jsonl", "--agent", "oracle", "--out", "oracle.json"],
     "21336eda31e16b50",
     {"agent": "oracle", "audit_log": None, "condition": "", "in": "g.jsonl",
      "jobs": 1, "k": 4, "rescore": None, "seed": None, "tau": 0.1}),
    (["eval", "--in", "g.jsonl", "--agent", "noisy:0.3", "--seed", 5,
      "--rescore", "noisy.json", "--out", "rescored.json"],
     "ee229ae5e384a81d",
     {"agent": "noisy:0.3", "audit_log": None, "condition": "", "in": "g.jsonl",
      "jobs": 1, "k": 4, "rescore": "noisy.json", "seed": 5, "tau": 0.1}),
    (["audit", "--in", "g.jsonl", "--agent", "oracle", "--seed", 5,
      "--out", "audit.json"],
     "6a5bd75f2655fb8d",
     {"agent": "oracle", "in": "g.jsonl", "kind": "both", "seed": 5}),
    (["pad-exp", "--agent", "block:2", "--base-n", 2, "--targets", "4,6",
      "--count", 3, "--k", 1, "--seed", 13, "--out", "cliff.json"],
     "32ae2f01bc092332",
     {"agent": "block:2", "base_n": 2, "count": 3, "jobs": 1, "k": 1, "seed": 13,
      "targets": "4,6", "tau": 0.1}),
    (["verify-theorems", "--trials", 20, "--seed", 3, "--out", "thm.json"],
     "02d3851d4827d430",
     {"seed": 3, "trials": 20}),
    (["train-toy", "--mode", "role_merged", "--steps", 5, "--seed", 9,
      "--out", "train.json"],
     "679d0b35626667b2",
     {"accumulate_groups": 1, "grid_m": 11, "group_size": 8, "in": None,
      "index": 0, "kl_coef": 0.0, "lr": 1.0, "mode": "role_merged", "seed": 9,
      "steps": 5}),
    (["report", "--in", "oracle.json,cliff.json", "--out", "report.md"],
     "56c6715d02e5fb8a",
     {"in": "oracle.json,cliff.json"}),
]


def cli_main(*args):
    return cli.main([str(a) for a in args])


def read_manifest(path):
    with open(str(path) + ".manifest.json") as fh:
        return json.load(fh)


def test_manifest_ids_and_configs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gen.cfg").write_text("n=3\ncount=4\nseed=7\n")
    for argv, want_id, want_config in PINNED_RUNS:
        assert cli_main(*argv) == 0, capsys.readouterr().err
        manifest = read_manifest(argv[argv.index("--out") + 1])
        assert (manifest["command"], manifest["id"]) == (argv[0], want_id)
        assert manifest["config"] == want_config
        seed = want_config.get("seed")
        assert manifest["seeds"] == ({} if seed is None else {"seed": seed})


@pytest.mark.parametrize("agent", ["noisy:0.3", "remote:missing.json"])
def test_rescore_builds_no_agent(agent, tmp_path, monkeypatch, capsys):
    """A rescore reads only the stored texts, so an agent spec that would
    need a seed or a config file does not stop it."""
    monkeypatch.chdir(tmp_path)
    assert cli_main("gen", "--n", 3, "--count", 4, "--seed", 7, "--out", "g.jsonl") == 0
    assert cli_main("eval", "--in", "g.jsonl", "--agent", "noisy:0.3", "--seed", 5,
                    "--out", "r.json") == 0
    capsys.readouterr()
    rc = cli_main("eval", "--in", "g.jsonl", "--agent", agent, "--rescore", "r.json",
                  "--out", "again.json")
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert "reproduced" in out
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "r.json").read_bytes()
    assert read_manifest("again.json")["config"]["agent"] == agent


class TestAgentFromSpec:
    def test_names(self):
        assert cli._agent_from_spec("uniform", None).name == "uniform"
        assert cli._agent_from_spec("maximin", None).name == "maximin"
        assert cli._agent_from_spec("oracle", None).name == "oracle"
        assert cli._agent_from_spec("noisy", 1).name == "noisy:0.1"
        assert cli._agent_from_spec("noisy:0.25", 1).name == "noisy:0.25"
        assert cli._agent_from_spec("noisy_oracle:0.25", 1).name == "noisy:0.25"
        assert cli._agent_from_spec("block", None).name == "block:3"

    def test_rejects(self):
        for spec, seed in (("psychic", 1), ("noisy:0.3", None)):
            with pytest.raises(ConfigError):
                cli._agent_from_spec(spec, seed)


class TestOptionResolution:
    """Each bad or missing value fails the same way from a flag and from a
    config file."""

    def gen(self, tmp_path, flags, config_lines=()):
        (tmp_path / "opts.cfg").write_text("".join(f"{l}\n" for l in config_lines))
        return cli_main("gen", "--n", 3, "--seed", 1, "--out", "x.jsonl",
                        "--config", "opts.cfg", *flags)

    def test_count_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for flags, lines in ((["--count", "abc"], []), ([], ["count=abc"])):
            assert self.gen(tmp_path, flags, lines) == 2
            assert "count must be an integer" in capsys.readouterr().err

    def test_normalize_no_records_false(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for flags, lines in ((["--normalize", "no"], []), ([], ["normalize=no"])):
            assert self.gen(tmp_path, ["--count", 2, *flags], lines) == 0, \
                capsys.readouterr().err
            assert read_manifest("x.jsonl")["config"]["normalize"] is False

    def test_normalize_maybe_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for flags, lines in ((["--normalize", "maybe"], []), ([], ["normalize=maybe"])):
            assert self.gen(tmp_path, ["--count", 2, *flags], lines) == 2
            assert "normalize must be a boolean" in capsys.readouterr().err

    def test_empty_set_still_checks_the_spec(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert self.gen(tmp_path, ["--count", 0]) == 0
        assert (tmp_path / "x.jsonl").read_text() == ""
        assert self.gen(tmp_path, ["--count", 0, "--dist", "cauchy"]) == 2
        assert "unknown distribution" in capsys.readouterr().err

    def test_pad_without_target_n(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert self.gen(tmp_path, ["--count", 2]) == 0
        (tmp_path / "pad.cfg").write_text("in=x.jsonl\nkind=dominated\nout=p.jsonl\n")
        for argv in (["pad", "--in", "x.jsonl", "--kind", "dominated", "--out", "p.jsonl"],
                     ["pad", "--config", "pad.cfg"]):
            assert cli_main(*argv) == 2
            assert "missing required option --target-n" in capsys.readouterr().err


def test_parser_is_built_once_and_answers_like_a_fresh_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = [
        (["gen", "--n", "3", "--count", "2", "--seed", "1", "--out", "g.jsonl"], 0),
        (["eval", "--in", "g.jsonl", "--agent", "uniform", "--out", "r.json"], 0),
        (["eval", "--in", "g.jsonl", "--bogus", "1"], 2),
        (["--help"], 0),
        (["eval", "--help"], 0),
    ]

    def parse(parser, argv):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
        out = capsys.readouterr()
        return result, out.out, out.err

    for argv, code in runs:
        try:
            assert cli.main(argv) == code
        except SystemExit as exc:  # argparse exits on --help and on a bad flag
            assert exc.code == code
        ran = capsys.readouterr()
        cached = parse(cli._build_parser(), argv)
        assert cached == parse(cli._build_parser.__wrapped__(), argv)
        if not isinstance(cached[0], argparse.Namespace):  # main printed the parser's words
            assert (ran.out, ran.err) == cached[1:]
    assert cli._build_parser() is cli._build_parser()


class TestMalformedInput:
    """Input that cannot be read as the record it claims to be, and counts
    below their floor, are input errors: exit 2, never a traceback."""

    @pytest.fixture
    def games(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main("gen", "--n", 3, "--count", 2, "--seed", 1, "--out", "g.jsonl") == 0
        return tmp_path

    @pytest.mark.parametrize("text, error", [
        ("not json", "not JSON"),
        ('{"schema": "evalres/1", "agent": "x"}', "bad EvalResult"),
        ('{"schema": "evalres/1", "agent": "x", "n": 3, "count": 0, "k": 1, "tau": 0.1, '
         '"s_at_tau": 0.0, "pass_at_1": 0.0, "valid_rate": 0.0, "mean_best_reward": 0.0, '
         '"se_s": 0.0, "se_pass": 0.0, "games": []}', "no games"),
    ])
    def test_rescore_of_a_malformed_result(self, games, capsys, text, error):
        (games / "r.json").write_text(text + "\n")
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform",
                        "--rescore", "r.json") == 2
        assert error in capsys.readouterr().err

    def test_solve_on_a_spec_with_a_string_size(self, games, capsys):
        record = json.loads((games / "g.jsonl").read_text().splitlines()[0])
        record["spec"]["n"] = "3"
        (games / "bad.jsonl").write_text(json.dumps(record) + "\n")
        assert cli_main("solve", "--in", "bad.jsonl") == 2
        assert "bad GameSpec" in capsys.readouterr().err

    @pytest.mark.parametrize("path, edit, error", [
        ("g.jsonl", lambda r: r["matrix"].update(n=7), "matrix does not match its contents"),
        ("g.jsonl", lambda r: r["spec"].update(n=4), "spec n=4, raw n=3"),
        ("g.jsonl", lambda r: r.update(id="x"), "record x: id does not match"),
        ("p.jsonl", lambda r: r.update(id="x"), "padded record x: id does not match"),
    ], ids=["matrix n", "spec n", "game id", "padded id"])
    def test_solve_on_an_edited_record(self, games, capsys, path, edit, error):
        assert cli_main("pad", "--in", "g.jsonl", "--kind", "random", "--target-n", 5,
                        "--out", "p.jsonl") == 0
        record = json.loads((games / path).read_text().splitlines()[0])
        edit(record)
        (games / "bad.jsonl").write_text(json.dumps(record) + "\n")
        assert cli_main("solve", "--in", "bad.jsonl") == 2
        assert error in capsys.readouterr().err

    def test_solve_on_an_unnormalized_record_with_an_edited_matrix(self, games, capsys):
        assert cli_main("gen", "--n", 3, "--count", 1, "--seed", 1, "--normalize", "false",
                        "--out", "u.jsonl") == 0
        record = json.loads((games / "u.jsonl").read_text())
        record["matrix"]["entries"] = [[-x for x in row] for row in record["matrix"]["entries"]]
        (games / "bad.jsonl").write_text(json.dumps(record) + "\n")
        assert cli_main("solve", "--in", "bad.jsonl") == 2
        assert "matrix does not match its contents" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, error", [
        (lambda r: r["raw"]["entries"][0].__setitem__(0, 10 ** 400),
         "payoff entries must be finite, got an int beyond float range"),
        (lambda r: r["raw"]["entries"][0].__setitem__(slice(0, 2), [1e308, -1e308]),
         "overflows float range; cannot normalize"),
    ], ids=["int beyond float range", "span beyond float range"])
    def test_solve_on_a_record_with_an_overflowing_payoff(self, games, capsys, edit, error):
        record = json.loads((games / "g.jsonl").read_text().splitlines()[0])
        edit(record)
        (games / "bad.jsonl").write_text(json.dumps(record) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main("solve", "--in", "bad.jsonl") == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("kind, edit, error", [
        ("dominated", lambda r: r["certificate"].update(padded_value=99.0),
         "does not certify the padded game at padded_value"),
        ("dominated", lambda r: r.update(row_map=[4, 3, 2]),
         "padded entries at the maps differ from the base matrix"),
        ("dominated", lambda r: r.update(col_map=[0, 0, 1]), "is not 3 distinct indices below 5"),
        ("random", lambda r: r.update(row_map=[0, 1, 5]), "is not 3 distinct indices below 5"),
        ("random", lambda r: r.update(kind="shifted"), "id does not match"),
        ("random", lambda r: r["certificate"].update(extra=1.0), "is not the random certificate"),
        ("dominated", lambda r: r["certificate"].pop("padded_value"),
         "is not the dominated certificate"),
        ("random", lambda r: r["certificate"].update(base_value=1), "is not the random certificate"),
        ("random", lambda r: r["certificate"].update(base_value=r["certificate"]["base_value"] + 1e-6),
         "does not certify the base game at base_value"),
        ("random", lambda r: r["certificate"].update(
            reference_exploit=math.nextafter(r["certificate"]["reference_exploit"], 1.0)),
         "reference_exploit"),
        ("random", lambda r: r["reference_pair"].update(row=[0.0, 0.0, 0.0, 0.0, 1.0]),
         "reference pair is nonzero outside the maps"),
        ("dominated", lambda r: r["reference_pair"].update(col=[1.0, 0.0, 0.0, 0.0, 0.0]),
         "does not certify the base game at base_value"),
        ("random", lambda r: r["reference_pair"].update(row=[10 ** 400, 0, 0, 0, 0]),
         "strategy weights must be finite, got an int beyond float range"),
    ], ids=["padded_value", "row_map moved", "col_map repeats", "row_map out of range",
            "kind", "extra certificate key", "missing certificate key", "int certificate value",
            "base_value", "reference_exploit", "pair outside the maps", "pair off equilibrium",
            "pair weight beyond float range"])
    def test_solve_on_an_edited_padded_record(self, games, capsys, kind, edit, error):
        assert cli_main("pad", "--in", "g.jsonl", "--kind", kind, "--target-n", 5,
                        "--out", "p.jsonl") == 0
        record = json.loads((games / "p.jsonl").read_text().splitlines()[0])
        assert cli_main("solve", "--in", "p.jsonl") == 0
        edit(record)
        (games / "bad.jsonl").write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        assert cli_main("solve", "--in", "bad.jsonl") == 2
        assert error in capsys.readouterr().err

    def test_solve_on_a_padded_record_whose_pair_overflows(self, games):
        assert cli_main("pad", "--in", "g.jsonl", "--kind", "random", "--target-n", 5,
                        "--out", "p.jsonl") == 0
        record = json.loads((games / "p.jsonl").read_text().splitlines()[0])
        record["reference_pair"]["row"] = [1e308, 1e308, 0.0, 0.0, 0.0]
        (games / "bad.jsonl").write_text(json.dumps(record) + "\n")
        res = run("solve", "--in", "bad.jsonl", cwd=games)
        assert res.returncode == 2
        assert res.stderr == ("configuration error: bad.jsonl: bad record: "
                              "strategy weights sum to inf, not 1\n")

    def test_eval_with_a_wrongly_typed_remote_config(self, games, capsys):
        config = {"endpoint": "http://127.0.0.1:1", "model": "m", "retries": 1.5}
        (games / "remote.json").write_text(json.dumps(config))
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "remote:remote.json",
                        "--seed", 1, "--k", 1) == 2
        assert "bad RemoteModelConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        '{"schema": "evalres/1", "tau": 0.1}',
        '{"schema": "padexp/1", "tau": 0.1}',
        '{"schema": "padexp/1", "base_n": 2, "targets": [4], "count": 1, "k": 1, '
        '"tau": 0.1, "rows": [{}]}',
        '[1, 2]',
    ])
    def test_report_on_a_partial_result(self, games, capsys, payload):
        (games / "r.json").write_text(payload + "\n")
        assert cli_main("report", "--in", "r.json") == 2
        assert "configuration error" in capsys.readouterr().err

    def test_negative_count(self, games, capsys):
        assert cli_main("gen", "--n", 3, "--count", -2, "--seed", 1, "--out", "x.jsonl") == 2
        assert "count must be >= 0" in capsys.readouterr().err
        assert not (games / "x.jsonl").exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one(self, games, capsys, jobs):
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform",
                        "--jobs", jobs) == 2
        assert cli_main("pad-exp", "--agent", "block:2", "--base-n", 2, "--targets", 4,
                        "--count", 2, "--k", 1, "--seed", 1, "--jobs", jobs) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_unknown_audit_kind(self, games, capsys):
        assert cli_main("audit", "--in", "g.jsonl", "--seed", 1, "--kind", "bogus") == 2
        assert "unknown audit kind 'bogus'" in capsys.readouterr().err
