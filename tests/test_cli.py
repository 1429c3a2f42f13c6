"""End-to-end command-line checks through real subprocesses: artifact
formats, manifests, reruns, exit codes. The `run` helper puts the repo's
absolute `src/` first on the child's PYTHONPATH, so the CLI under test is
this checkout's, with or without an installed zerosum. The checks at the end
call `cli.main` in process: pinned manifest ids and option resolution."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from test_agents import scripted_server
from zerosum import ConfigError, cli
from zerosum.core import content_digest


CLI = [sys.executable, "-m", "zerosum.cli"]


def _child_env(env=None) -> dict:
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(repo, "src")
    merged = os.environ.copy()
    merged["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, merged.get("PYTHONPATH")) if p)
    if env:
        merged.update(env)
    return merged


def run(*args, cwd, env=None):
    return subprocess.run(
        [*CLI, *[str(a) for a in args]],
        cwd=cwd,
        env=_child_env(env),
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_reading_lines(lines, *args, cwd):
    """Run the CLI, read `lines` lines of its stdout, then close the pipe, as
    `| head -{lines}` does; return (exit code, stderr)."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as Python sets up a pipe
    proc = subprocess.Popen([*CLI, *[str(a) for a in args]], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=300), err


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
        assert all(r["schema"] == "padrec/2" for r in rows)
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


class TestRemoteConcurrency:
    @pytest.mark.parametrize("jobs", [1, 4, 8])
    def test_jobs_sets_the_requests_in_flight(self, tmp_path, monkeypatch, jobs):
        # a remote agent once held at most 4 requests in flight, whatever --jobs asked
        monkeypatch.chdir(tmp_path)
        assert cli_main("gen", "--n", 3, "--count", 16, "--seed", 1, "--out", "g.jsonl") == 0
        with scripted_server(hold=jobs) as (url, server):
            (tmp_path / "remote.json").write_text(json.dumps({"endpoint": url, "model": "m"}))
            assert cli_main("eval", "--in", "g.jsonl", "--agent", "remote:remote.json",
                            "--seed", 1, "--k", 1, "--jobs", jobs) == 0
        assert len(server.requests) == 16
        assert server.peak == jobs


class TestClosedStdout:
    """A reader that goes away early drops the rest of stdout and changes no
    exit status. Each result JSON outgrows a 64 KiB pipe buffer (200 KiB for
    uniform, 170 KiB for the remote agent's 400 games at k = 4)."""

    def test_uniform_exits_0(self, tmp_path):
        games = gen_games(tmp_path, n=8, count=200)
        code, err = run_reading_lines(1, "eval", "--in", games.name, "--agent", "uniform",
                                      cwd=tmp_path)
        assert (code, err) == (0, "")

    def test_a_reader_gone_before_any_output(self, tmp_path):
        # the output stays in stdout's buffer to the end, so only the last flush meets the
        # closed pipe; at the interpreter's exit flush it made the run exit 120
        games = gen_games(tmp_path)
        code, err = run_reading_lines(0, "eval", "--in", games.name, "--agent", "uniform",
                                      cwd=tmp_path)
        assert (code, err) == (0, "")

    def test_exhausted_transport_exits_4(self, tmp_path):
        games = gen_games(tmp_path, n=8, count=400)
        cfg = {"endpoint": "http://127.0.0.1:1", "model": "m",
               "retries": 0, "timeout": 0.25}
        (tmp_path / "remote.json").write_text(json.dumps(cfg))
        code, err = run_reading_lines(1, "eval", "--in", games.name, "--agent",
                                      "remote:remote.json", "--seed", 1, "--k", 4,
                                      cwd=tmp_path)
        assert code == 4
        assert err == "transport exhausted: every remote sample failed transport\n"


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


# the SHA-256 of each run's traintoy/1 --out file; "g2.jsonl" is written by
# gen --n 2 --count 3 --seed 4 first
TRAIN_TOY_PINS = [
    (["--mode", "cooperative", "--steps", 60, "--seed", 3],
     "ceca612b5a6f90f0393d460625cfcb316bb2aebf14818e98d532f56d35d18f9e"),
    (["--mode", "role_merged", "--steps", 25, "--seed", 3],
     "8300cf58a190b315e79fbb52db0a5e4def13d71a22ce0efd2b80059ae2a3b6fc"),
    (["--in", "g2.jsonl", "--index", 2, "--steps", 40, "--seed", 5,
      "--accumulate-groups", 2],
     "75407a7344f3e88e110a7323daf2998265e2a2320e755bcc5d6c7da31efd3d44"),
]


@pytest.mark.parametrize("argv, want", TRAIN_TOY_PINS, ids=["cooperative", "role_merged", "in"])
def test_train_toy_bytes_are_pinned(argv, want, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main("gen", "--n", 2, "--count", 3, "--seed", 4, "--out", "g2.jsonl") == 0
    assert cli_main("train-toy", *argv, "--out", "t.json") == 0, capsys.readouterr().err
    assert hashlib.sha256((tmp_path / "t.json").read_bytes()).hexdigest() == want


# the SHA-256 of each check report's --out file; gmix.jsonl holds n = 3 and
# n = 12 games, so the audit's per_size_max keys sort as text, "12" before "3"
CHECK_REPORT_PINS = [
    (["audit", "--in", "gmix.jsonl", "--agent", "maximin", "--seed", 5, "--out", "a.json"],
     "11844cfc9e2068ff823df4481c8ae03de0ef69aff481f4d7c9ea1bfbf1b3c504"),
    (["verify-theorems", "--trials", 40, "--seed", 2, "--out", "thm.json"],
     "f3f014a4a5f50e2c3a9603344aadd19f3c0c28efb1bb5d06f4c0ecc4968c34d8"),
]


@pytest.mark.parametrize("argv, want", CHECK_REPORT_PINS, ids=["audit", "verify-theorems"])
def test_check_report_bytes_are_pinned(argv, want, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main("gen", "--n", 3, "--count", 6, "--seed", 7, "--out", "g3.jsonl") == 0
    assert cli_main("gen", "--n", 12, "--count", 4, "--seed", 8, "--dist", "gaussian",
                    "--out", "g12.jsonl") == 0
    (tmp_path / "gmix.jsonl").write_bytes(
        (tmp_path / "g3.jsonl").read_bytes() + (tmp_path / "g12.jsonl").read_bytes())
    assert cli_main(*argv) == 0, capsys.readouterr().err
    out = tmp_path / argv[argv.index("--out") + 1]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


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
        assert cli._agent_from_spec("noisy:0.25", 1).name == "noisy:0.25"

    def test_rejects(self):
        for spec, seed in (("psychic", 1), ("noisy:0.3", None), ("noisy_oracle:0.25", 1),
                           ("noisy", 1), ("block", None)):
            with pytest.raises(ConfigError):
                cli._agent_from_spec(spec, seed)

    @pytest.mark.parametrize("spec", [
        "uniform", "maximin", "oracle", "noisy:0.0", "noisy:0.1", "noisy:0.25", "noisy:1.0",
        "noisy:1e-05", "noisy:0.1234567", "noisy:0.1234568", "block:2", "block:3", "block:12",
    ])
    def test_a_built_in_spec_is_its_agents_name(self, spec):
        assert cli._agent_from_spec(spec, 1).name == spec

    @pytest.mark.parametrize("spec, missing", [
        ("noisy:", "sigma must be a number, got ''"),
        ("block:", "block must be an integer, got ''"),
    ])
    def test_a_missing_parameter_is_named(self, spec, missing):
        with pytest.raises(ConfigError, match=missing):
            cli._agent_from_spec(spec, 1)

    @pytest.mark.parametrize("spec, name", [
        ("uniform:junk", "uniform"), ("uniform:", "uniform"), ("maximin:x", "maximin"),
        ("oracle:x", "oracle"), ("noisy:0.10", "noisy:0.1"), ("noisy:3e-1", "noisy:0.3"),
        ("noisy:1", "noisy:1.0"), ("noisy:0", "noisy:0.0"), ("noisy:-0.0", "noisy:0.0"),
        ("noisy: 0.1", "noisy:0.1"), ("block:03", "block:3"), ("block:+3", "block:3"),
    ])
    def test_an_alias_names_the_spelling_to_use(self, spec, name):
        with pytest.raises(ConfigError) as err:
            cli._agent_from_spec(spec, 1)
        assert str(err.value) == f"agent spec {spec!r} is spelt {name!r}"

    def test_close_noise_scales_report_as_two_rows(self, tmp_path, monkeypatch, capsys):
        # both were once named noisy:0.123457, and report refused them as one cell
        monkeypatch.chdir(tmp_path)
        assert cli_main("gen", "--n", 3, "--count", 2, "--seed", 1, "--out", "g.jsonl") == 0
        for sigma in ("0.1234567", "0.1234568"):
            assert cli_main("eval", "--in", "g.jsonl", "--agent", f"noisy:{sigma}",
                            "--seed", 1, "--out", f"r{sigma}.json") == 0
        assert cli_main("report", "--in", "r0.1234567.json,r0.1234568.json") == 0
        out = capsys.readouterr().out
        assert "| noisy:0.1234567 |" in out and "| noisy:0.1234568 |" in out


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


def _resize_samples(result, size):
    """Cut or repeat the first game's stored samples to size items."""
    game = result["games"][0]
    for key in ("raw_texts", "rewards", "invalid"):
        game[key] = (game[key] * 3)[:size]


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
         "certificate does not match its contents"),
        # the id names the unshuffled pad, so that pad is rebuilt and its row_map differs
        ("dominated", lambda r: r.update(row_map=[4, 3, 2]), "row_map does not match its contents"),
        ("dominated", lambda r: r.update(col_map=[0, 0, 1]), "col_map does not match its contents"),
        ("random", lambda r: r.update(row_map=[0, 1, 5]), "row_map does not match its contents"),
        ("random", lambda r: r.update(kind="shifted"), "unknown kind 'shifted'"),
        ("random", lambda r: r["certificate"].update(extra=1.0),
         "certificate does not match its contents"),
        ("dominated", lambda r: r["certificate"].pop("padded_value"),
         "certificate does not match its contents"),
        ("random", lambda r: r["certificate"].update(base_value=1),
         "certificate does not match its contents"),
        ("random", lambda r: r["certificate"].update(base_value=r["certificate"]["base_value"] + 1e-6),
         "certificate does not match its contents"),
        ("random", lambda r: r["certificate"].update(
            reference_exploit=math.nextafter(r["certificate"]["reference_exploit"], 1.0)),
         "certificate does not match its contents"),
        ("random", lambda r: r["reference_pair"].update(row=[0.0, 0.0, 0.0, 0.0, 1.0]),
         "reference_pair does not match its contents"),
        ("dominated", lambda r: r["reference_pair"].update(col=[1.0, 0.0, 0.0, 0.0, 0.0]),
         "reference_pair does not match its contents"),
        ("random", lambda r: r["reference_pair"].update(row=[10 ** 400, 0, 0, 0, 0]),
         "reference_pair does not match its contents"),
        ("random", lambda r: r["certificate"].update(
            base_value=math.nextafter(r["certificate"]["base_value"], math.inf)),
         "certificate does not match its contents"),
        ("dominated", lambda r: r["certificate"].update(
            base_value=math.nextafter(r["certificate"]["base_value"], math.inf)),
         "certificate does not match its contents"),
        ("dominated", lambda r: r["padded"].update(n=65), "target size 65 must be at most 64"),
        # the id is the recipe's, not the entries', so the rebuilt entries are compared
        ("dominated", lambda r: r["padded"]["entries"][4].__setitem__(
            4, math.nextafter(r["padded"]["entries"][4][4], math.inf)),
         "padded does not match its contents"),
        ("random", lambda r: r["padded"]["entries"][4].__setitem__(
            4, math.nextafter(r["padded"]["entries"][4][4], math.inf)),
         "padded does not match its contents"),
    ], ids=["padded_value", "row_map moved", "col_map repeats", "row_map out of range",
            "kind", "extra certificate key", "missing certificate key", "int certificate value",
            "base_value", "reference_exploit", "pair outside the maps", "pair off equilibrium",
            "pair weight beyond float range", "random base_value one ulp up",
            "dominated base_value one ulp up", "padded n above the size limit",
            "dominated entry one ulp up", "random entry one ulp up"])
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

    def test_a_padrec_1_record_asks_to_pad_again(self, games):
        # written before padded ids named their recipe: the id was the digest of the entries
        assert cli_main("pad", "--in", "g.jsonl", "--kind", "dominated", "--target-n", 5,
                        "--out", "p.jsonl") == 0
        record = json.loads((games / "p.jsonl").read_text().splitlines()[0])
        record["schema"] = "padrec/1"
        record["id"] = content_digest({"kind": "dominated", "base": record["base"]["id"],
                                       "padded": record["padded"]["entries"]})
        (games / "old.jsonl").write_text(json.dumps(record) + "\n")
        res = run("eval", "--in", "old.jsonl", "--agent", "uniform", cwd=games)
        assert res.returncode == 2
        assert res.stderr == (
            f"configuration error: old.jsonl: bad record: padded record {record['id']}: "
            "schema 'padrec/1' is not padrec/2; run `pad` again on its base games\n")

    def test_solve_on_a_padded_record_whose_pair_overflows(self, games):
        assert cli_main("pad", "--in", "g.jsonl", "--kind", "random", "--target-n", 5,
                        "--out", "p.jsonl") == 0
        record = json.loads((games / "p.jsonl").read_text().splitlines()[0])
        record["reference_pair"]["row"] = [1e308, 1e308, 0.0, 0.0, 0.0]
        (games / "bad.jsonl").write_text(json.dumps(record) + "\n")
        res = run("solve", "--in", "bad.jsonl", cwd=games)
        assert res.returncode == 2
        assert res.stderr == ("configuration error: bad.jsonl: bad record: padded record "
                              f"{record['id']}: reference_pair does not match its contents\n")

    @pytest.mark.parametrize("target", [65, 10 ** 12])
    @pytest.mark.parametrize("kind", ["dominated", "random"])
    def test_pad_beyond_the_size_limit(self, games, capsys, kind, target):
        # numpy refuses 10**12 without allocating; below that the arrays would be built
        assert cli_main("pad", "--in", "g.jsonl", "--kind", kind, "--target-n", target,
                        "--out", "p.jsonl") == 2
        assert f"target size {target} must be at most 64" in capsys.readouterr().err
        assert not (games / "p.jsonl").exists()

    @pytest.mark.parametrize("edit, error", [
        (lambda r: r["games"][0]["raw_texts"].__setitem__(0, None),
         "raw_texts has an item of the wrong type: None"),
        (lambda r: r["games"][0]["raw_texts"].__setitem__(0, 7),
         "raw_texts has an item of the wrong type: 7"),
        (lambda r: r.update(k=0), "sample count k must be >= 1, got 0"),
        (lambda r: r.update(tau=1.5), "tau must be in (0, 1), got 1.5"),
        (lambda r: r["games"][0].update(best_sample_index="0"),
         "bad GameResult: best_sample_index has the wrong type: '0'"),
        # a cut game once rescored "exactly", an empty one raised IndexError,
        # and a tripled one wrote valid_rate 3.0 before it exited 3
        (lambda r: _resize_samples(r, 1), "raw_texts holds 1 samples, not k = 2"),
        (lambda r: _resize_samples(r, 0), "raw_texts holds 0 samples, not k = 2"),
        (lambda r: _resize_samples(r, 6), "raw_texts holds 6 samples, not k = 2"),
    ], ids=["null raw text", "int raw text", "k zero", "tau above 1", "string sample index",
            "one sample", "no samples", "tripled samples"])
    def test_rescore_of_an_edited_result(self, games, capsys, edit, error):
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform", "--k", 2,
                        "--out", "r.json") == 0
        result = json.loads((games / "r.json").read_text())
        edit(result)
        (games / "r.json").write_text(json.dumps(result))
        capsys.readouterr()
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform",
                        "--rescore", "r.json") == 2
        assert error in capsys.readouterr().err

    def test_eval_with_a_wrongly_typed_remote_config(self, games, capsys):
        config = {"endpoint": "http://127.0.0.1:1", "model": "m", "retries": 1.5}
        (games / "remote.json").write_text(json.dumps(config))
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "remote:remote.json",
                        "--seed", 1, "--k", 1) == 2
        assert "bad RemoteModelConfig" in capsys.readouterr().err

    def test_eval_with_a_remote_config_naming_max_inflight(self, games, capsys):
        # the key once capped --jobs; a config that asks for it is refused
        config = {"endpoint": "http://127.0.0.1:1", "model": "m", "max_inflight": 8}
        (games / "remote.json").write_text(json.dumps(config))
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "remote:remote.json",
                        "--seed", 1, "--k", 1, "--jobs", 8) == 2
        assert "unexpected keyword argument 'max_inflight'" in capsys.readouterr().err

    def test_eval_with_a_bool_in_a_numeric_remote_field(self, games, capsys):
        config = {"endpoint": "http://127.0.0.1:1", "model": "m",
                  "retries": True, "max_tokens": True, "temperature": False}
        (games / "remote.json").write_text(json.dumps(config))
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "remote:remote.json",
                        "--seed", 1, "--k", 1) == 2
        # the first bool field in declaration order is named
        assert "bad RemoteModelConfig: temperature has the wrong type: False" in capsys.readouterr().err

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

    @pytest.mark.parametrize("seed", [-1, 2 ** 65 - 1], ids=["-1", "2**65-1"])
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", 3, "--count", 2, "--out", "x.jsonl"],
        ["eval", "--in", "g.jsonl", "--agent", "uniform", "--out", "r.json"],
        ["eval", "--in", "g.jsonl", "--agent", "noisy:0.3", "--out", "r.json"],
        ["audit", "--in", "g.jsonl", "--out", "a.json"],
        ["pad-exp", "--agent", "block:2", "--base-n", 2, "--targets", 4, "--count", 2,
         "--k", 1, "--out", "c.json"],
        ["verify-theorems", "--trials", 2, "--out", "t.json"],
        ["train-toy", "--steps", 2, "--out", "t.json"],
    ], ids=["gen", "eval uniform", "eval noisy", "audit", "pad-exp", "verify-theorems",
            "train-toy"])
    def test_seed_outside_64_bits(self, games, capsys, argv, seed):
        # such seeds once aliased the stream of seed mod 2**64
        assert cli_main(*argv, "--seed", seed) == 2
        assert f"seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not any((games / name).exists() for name in ("x.jsonl", "r.json", "a.json",
                                                            "c.json", "t.json"))

    def test_top_seed_writes_what_it_always_wrote(self, games):
        assert cli_main("gen", "--n", 3, "--count", 2, "--seed", 2 ** 64 - 1,
                        "--out", "top.jsonl") == 0
        manifest = read_manifest("top.jsonl")
        assert (manifest["id"], manifest["outputs"]) == (
            "f3f2c2a85193c345", {"top.jsonl": "3e9d7392fa4d523e"})

    @pytest.mark.parametrize("agent", ["noisy:nan", "noisy:inf", "noisy:-1"])
    def test_noise_scale_must_be_finite_and_nonnegative(self, games, capsys, agent):
        assert cli_main("eval", "--in", "g.jsonl", "--agent", agent, "--seed", 1,
                        "--out", "r.json") == 2
        assert "noise scale must be finite and >= 0" in capsys.readouterr().err
        assert not (games / "r.json").exists()

    @pytest.mark.parametrize("flag, value, error", [
        ("--lr", "nan", "learning rate must be finite and > 0, got nan"),
        ("--lr", "inf", "learning rate must be finite and > 0, got inf"),
        ("--kl-coef", "nan", "kl_coef must be finite and >= 0, got nan"),
        ("--kl-coef", "inf", "kl_coef must be finite and >= 0, got inf"),
    ])
    def test_train_toy_refuses_non_finite_rates(self, games, capsys, flag, value, error):
        assert cli_main("train-toy", "--steps", 2, "--seed", 1, flag, value,
                        "--out", "t.json") == 2
        assert error in capsys.readouterr().err
        assert not (games / "t.json").exists()

    @pytest.mark.parametrize("edit, error", [
        ({"temperature": float("nan")}, "temperature must be finite and >= 0, got nan"),
        ({"temperature": float("inf")}, "temperature must be finite and >= 0, got inf"),
        ({"timeout": 0}, "timeout must be finite and > 0, got 0"),
        ({"timeout": float("nan")}, "timeout must be finite and > 0, got nan"),
        ({"timeout": float("inf")}, "timeout must be finite and > 0, got inf"),
        ({"endpoint": "x"}, "endpoint must be an http:// or https:// URL, got 'x'"),
        ({"max_tokens": -5}, "max_tokens must be >= 1, got -5"),
    ], ids=["nan temperature", "inf temperature", "zero timeout", "nan timeout", "inf timeout",
            "endpoint without a scheme", "negative max_tokens"])
    def test_eval_with_a_remote_config_out_of_range(self, games, capsys, edit, error):
        # json writes and reads NaN and Infinity, so a config file can hold them
        config = {"endpoint": "http://127.0.0.1:1", "model": "m", **edit}
        (games / "remote.json").write_text(json.dumps(config))
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "remote:remote.json",
                        "--seed", 1, "--k", 1) == 2
        assert error in capsys.readouterr().err

    def test_shuffled_random_pad(self, games, capsys):
        # a random pad has no shuffle, so the flag cannot be honoured or recorded
        assert cli_main("pad", "--in", "g.jsonl", "--kind", "random", "--target-n", 5,
                        "--shuffle", "true", "--out", "p.jsonl") == 2
        assert "--shuffle applies to dominated padding only" in capsys.readouterr().err
        assert not (games / "p.jsonl").exists()
        assert cli_main("pad", "--in", "g.jsonl", "--kind", "random", "--target-n", 5,
                        "--shuffle", "false", "--out", "p.jsonl") == 0

    @pytest.mark.parametrize("line, key", [
        ("cout=50", "'cout'"),
        ("target-n=5", "'target_n'"),
        ("config=other.cfg", "'config'"),
    ], ids=["typo", "another command's option", "config"])
    def test_config_key_that_names_no_option(self, games, capsys, line, key):
        # a misspelt count once left the default of 100 games in force
        (games / "c.cfg").write_text(f"n=3\nseed=1\n{line}\n")
        assert cli_main("gen", "--config", "c.cfg", "--out", "x.jsonl") == 2
        assert f"c.cfg:3: {key} names no option of this command" in capsys.readouterr().err
        assert not (games / "x.jsonl").exists()

    @pytest.mark.parametrize("paths", [",", " , "])
    def test_report_without_a_result_path(self, games, capsys, paths):
        assert cli_main("report", "--in", paths, "--out", "r.md") == 2
        assert f"--in names no result file: {paths!r}" in capsys.readouterr().err
        assert not (games / "r.md").exists()

    @pytest.mark.parametrize("argv", [
        ["--agent", "uniform"],
        ["--agent", "noisy:0.3", "--seed", 1],
        ["--agent", "uniform", "--rescore", "r.json"],
    ], ids=["uniform", "noisy", "rescore"])
    def test_audit_log_without_a_remote_agent(self, games, capsys, argv):
        # the log is written by a remote agent only, so the path would be recorded unused
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform", "--out", "r.json") == 0
        capsys.readouterr()
        assert cli_main("eval", "--in", "g.jsonl", *argv, "--audit-log", "log.jsonl",
                        "--out", "s.json") == 2
        assert "--audit-log applies only to a run that asks a remote agent" in \
            capsys.readouterr().err
        assert not any((games / name).exists() for name in ("log.jsonl", "s.json"))

    @pytest.mark.parametrize("lines, key", [
        (["count=2", "count=5"], "'count' repeats line 3"),
        (["count=2", "count = 5"], "'count' repeats line 3"),
    ], ids=["same", "spaced"])
    def test_repeated_config_key(self, games, capsys, lines, key):
        # the later line used to win: count=2 then count=5 wrote 5 games
        (games / "c.cfg").write_text("".join(f"{line}\n" for line in ["n=3", "seed=1", *lines]))
        assert cli_main("gen", "--config", "c.cfg", "--out", "x.jsonl") == 2
        assert f"c.cfg:4: {key}" in capsys.readouterr().err
        assert not (games / "x.jsonl").exists()

    @pytest.mark.parametrize("lines", [["target-n=5", "target_n=6"], ["target_n=5", "target-n=5"]])
    def test_repeated_config_key_in_two_spellings(self, games, capsys, lines):
        (games / "p.cfg").write_text("".join(f"{line}\n" for line in ["kind=random", *lines]))
        assert cli_main("pad", "--in", "g.jsonl", "--config", "p.cfg", "--out", "p.jsonl") == 2
        assert "p.cfg:3: 'target_n' repeats line 2" in capsys.readouterr().err
        assert not (games / "p.jsonl").exists()

    @pytest.fixture
    def two_distributions(self, games, capsys):
        # the same agent on integer and on gaussian n = 3 games, and one tau
        for dist in ("integer", "gaussian"):
            assert cli_main("gen", "--n", 3, "--count", 20, "--seed", 2, "--dist", dist,
                            "--out", f"{dist}.jsonl") == 0
            assert cli_main("eval", "--in", f"{dist}.jsonl", "--agent", "noisy:0.3",
                            "--seed", 5, "--out", f"r_{dist}.json") == 0
        capsys.readouterr()
        return games

    @pytest.mark.parametrize("order", [("integer", "gaussian"), ("gaussian", "integer")])
    def test_report_on_results_that_fill_one_cell(self, two_distributions, capsys, order):
        # each order once printed one row, read from whichever result came last
        first, second = (f"r_{dist}.json" for dist in order)
        assert cli_main("report", "--in", f"{first},{second}", "--out", "rep.md") == 2
        assert f"{first} and {second} both report 'noisy:0.3' at n=3" in \
            capsys.readouterr().err
        assert not (two_distributions / "rep.md").exists()

    @pytest.mark.parametrize("order", [(0.1, 0.2), (0.2, 0.1)])
    def test_report_on_results_with_two_taus(self, games, capsys, order):
        # the title once took its tau from the first result alone
        for agent, tau in zip(("uniform", "oracle"), order):
            assert cli_main("eval", "--in", "g.jsonl", "--agent", agent, "--tau", tau,
                            "--out", f"{agent}.json") == 0
        capsys.readouterr()
        assert cli_main("report", "--in", "uniform.json,oracle.json", "--out", "rep.md") == 2
        assert (f"uniform.json has tau {order[0]!r}, oracle.json tau {order[1]!r}"
                in capsys.readouterr().err)
        assert not (games / "rep.md").exists()
        assert cli_main("report", "--in", "uniform.json", "--out", "rep.md") == 0

    @pytest.mark.parametrize("order", [(1, 8), (8, 1)])
    def test_report_on_results_with_two_ks(self, games, capsys, order):
        # a best-of-1 cell once sat beside best-of-8 cells under one title
        for agent, k in zip(("uniform", "oracle"), order):
            assert cli_main("eval", "--in", "g.jsonl", "--agent", agent, "--k", k,
                            "--out", f"{agent}.json") == 0
        capsys.readouterr()
        assert cli_main("report", "--in", "uniform.json,oracle.json", "--out", "rep.md") == 2
        assert (f"uniform.json has k {order[0]!r}, oracle.json k {order[1]!r}"
                in capsys.readouterr().err)
        assert not (games / "rep.md").exists()
        assert cli_main("report", "--in", "uniform.json", "--out", "rep.md") == 0

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", 3, "--count", 2, "--seed", 1],
        ["eval", "--in", "g.jsonl", "--agent", "uniform"],
        ["solve", "--in", "g.jsonl"],
        ["report", "--in", "r.json"],
    ], ids=["gen", "eval", "solve", "report"])
    def test_out_in_a_missing_directory(self, games, capsys, argv):
        # each once ran to its end, then exited 1 on a traceback
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform", "--out", "r.json") == 0
        capsys.readouterr()
        path = os.path.join("missing", "x")
        assert cli_main(*argv, "--out", path) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before any work
        assert f"--out {path!r}: no directory 'missing'" in err
        assert not (games / "missing").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", 3, "--count", 2, "--seed", 1],
        ["eval", "--in", "g.jsonl", "--agent", "uniform"],
    ], ids=["gen", "eval"])
    def test_out_that_is_a_directory(self, games, capsys, argv):
        (games / "d").mkdir()
        assert cli_main(*argv, "--out", "d") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--out 'd' is a directory" in err
        assert list((games / "d").iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", 3, "--count", 2, "--seed", 1],
        ["pad", "--in", "g.jsonl", "--kind", "random", "--target-n", 5],
    ], ids=["gen", "pad"])
    def test_required_out_that_is_empty(self, games, capsys, argv):
        # each once printed "wrote N games to " and exited 0, writing nothing
        assert cli_main(*argv, "--out", "") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--out names no file: ''" in err

    def test_out_whose_manifest_cannot_be_written(self, games, capsys):
        # the path check passes; the write itself fails, as on a full disk
        (games / "x.jsonl.manifest.json").mkdir()
        assert cli_main("gen", "--n", 3, "--count", 2, "--seed", 1, "--out", "x.jsonl") == 2
        assert "cannot write --out 'x.jsonl'" in capsys.readouterr().err

    def test_audit_log_in_a_missing_directory(self, games, capsys):
        # the run once exited 1 on its first sample, after asking the endpoint
        path = os.path.join("missing", "a.jsonl")
        argv = ["eval", "--in", "g.jsonl", "--agent", "remote:remote.json", "--seed", 1,
                "--k", 1]
        with scripted_server() as (url, server):
            (games / "remote.json").write_text(json.dumps({"endpoint": url, "model": "m"}))
            assert cli_main(*argv, "--audit-log", path) == 2
            assert server.requests == []
            assert cli_main(*argv, "--audit-log", "a.jsonl") == 0
            assert len(server.requests) == 2
        assert f"--audit-log {path!r}: no directory 'missing'" in capsys.readouterr().err

    def test_pad_exp_with_a_repeated_target(self, games, capsys):
        # --targets 4,4 once ran size 4 twice: 9 rows under | n=2 | n=4 | n=4 |
        assert cli_main("pad-exp", "--agent", "block:2", "--base-n", 2, "--targets", "4,4",
                        "--count", 2, "--k", 1, "--seed", 1, "--out", "c.json") == 2
        assert "target size 4 repeats" in capsys.readouterr().err
        assert not (games / "c.json").exists()

    def test_noisy_oracle_spelling(self, games, capsys):
        # it once wrote noisy:0.2's bytes under a second manifest id
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "noisy_oracle:0.2", "--seed", 1,
                        "--out", "r.json") == 2
        assert "unknown agent spec 'noisy_oracle:0.2'" in capsys.readouterr().err
        assert not (games / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", 3, "--seed", 1, "--out", "x.jsonl", "--config", "bad"],
        ["solve", "--in", "bad"],
        ["eval", "--in", "g.jsonl", "--agent", "uniform", "--rescore", "bad"],
        ["eval", "--in", "g.jsonl", "--agent", "remote:bad", "--seed", 1],
        ["report", "--in", "bad"],
    ], ids=["config", "games", "rescore", "remote config", "report"])
    def test_a_file_that_is_not_utf8(self, games, capsys, argv):
        # a config once exited 1 on a UnicodeDecodeError traceback
        (games / "bad").write_bytes(b"count=2\n\xff\xfe\n")
        assert cli_main(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot read bad: not UTF-8 text (invalid start byte)" in err
        assert not (games / "x.jsonl").exists()

    def test_a_path_that_holds_a_nul_byte(self, games, capsys):
        # a config file can name one; the command line cannot
        (games / "in.cfg").write_text("in=g\0.jsonl\n")
        (games / "out.cfg").write_text("in=g.jsonl\nout=s\0.jsonl\n")
        assert cli_main("solve", "--config", "in.cfg") == 2
        assert "cannot read g\0.jsonl: embedded null byte" in capsys.readouterr().err
        assert cli_main("solve", "--config", "out.cfg") == 2
        assert "--out 's\\x00.jsonl' holds a NUL byte" in capsys.readouterr().err

    def test_train_toy_index_without_records(self, games, capsys):
        assert cli_main("train-toy", "--steps", 2, "--seed", 1, "--index", 1,
                        "--out", "t.json") == 2
        assert "--index applies only to a record of --in" in capsys.readouterr().err
        assert not (games / "t.json").exists()
        assert cli_main("train-toy", "--steps", 2, "--seed", 1, "--index", 0,
                        "--out", "t.json") == 0


class TestOutputsApart:
    """No output (--out, its manifest, --audit-log) may be a file the run reads
    or another output: exit 2 before any work, every file left as it was."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main("gen", "--n", 3, "--count", 2, "--seed", 1, "--out", "g.jsonl") == 0
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform", "--out", "r.json") == 0
        (tmp_path / "c.manifest.json").write_text("# an empty config\n")
        (tmp_path / "remote.json").write_text(
            json.dumps({"endpoint": "http://127.0.0.1:1", "model": "m"}))
        os.link("g.jsonl", "hard.jsonl")
        os.symlink("g.jsonl", "soft.jsonl")
        return tmp_path

    @pytest.mark.parametrize("argv, error", [
        (["pad", "--in", "g.jsonl", "--kind", "dominated", "--target-n", 5, "--out", "g.jsonl"],
         "--out 'g.jsonl' would overwrite --in 'g.jsonl'"),
        (["solve", "--in", "g.jsonl", "--out", "./g.jsonl"],
         "--out './g.jsonl' would overwrite --in 'g.jsonl'"),
        (["solve", "--in", "hard.jsonl", "--out", "g.jsonl"],
         "--out 'g.jsonl' would overwrite --in 'hard.jsonl'"),
        (["solve", "--in", "soft.jsonl", "--out", "g.jsonl"],
         "--out 'g.jsonl' would overwrite --in 'soft.jsonl'"),
        (["eval", "--in", "g.jsonl", "--agent", "uniform", "--rescore", "r.json",
          "--out", "r.json"], "--out 'r.json' would overwrite --rescore 'r.json'"),
        (["eval", "--in", "g.jsonl", "--agent", "remote:remote.json", "--seed", 1,
          "--out", "remote.json"], "--out 'remote.json' would overwrite --agent remote: "
                                   "'remote.json'"),
        (["eval", "--in", "g.jsonl", "--agent", "remote:remote.json", "--seed", 1,
          "--out", "x.json", "--audit-log", "x.json"],
         "--audit-log 'x.json' would overwrite --out 'x.json'"),
        (["eval", "--in", "g.jsonl", "--agent", "remote:remote.json", "--seed", 1,
          "--audit-log", "g.jsonl"], "--audit-log 'g.jsonl' would overwrite --in 'g.jsonl'"),
        (["report", "--in", "r.json, g.jsonl.manifest.json", "--out", "g.jsonl"],
         "--out's manifest 'g.jsonl.manifest.json' would overwrite --in "
         "'g.jsonl.manifest.json'"),
        (["report", "--in", "r.json", "--out", "c", "--config", "c.manifest.json"],
         "--out's manifest 'c.manifest.json' would overwrite --config 'c.manifest.json'"),
        (["gen", "--n", 3, "--seed", 1, "--config", "c.manifest.json",
          "--out", "c.manifest.json"],
         "--out 'c.manifest.json' would overwrite --config 'c.manifest.json'"),
    ], ids=["pad", "another spelling", "a hard link", "a symbolic link", "rescore",
            "remote config", "audit log and out", "audit log and in", "manifest and in",
            "manifest and config", "config"])
    def test_an_output_that_is_an_input(self, files, capsys, argv, error):
        # pad once replaced its input, and a failed rescore its stored result
        before = {p.name: p.read_bytes() for p in files.iterdir()}
        assert cli_main(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert error in err
        assert {p.name: p.read_bytes() for p in files.iterdir()} == before

    def test_a_rescore_that_fails_keeps_the_stored_result(self, files, capsys):
        # it once wrote the recomputed result over the stored one, then exited 3
        stored = json.loads((files / "r.json").read_text())
        stored["s_at_tau"] = 0.5
        (files / "r.json").write_text(json.dumps(stored))
        before = (files / "r.json").read_bytes()
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform",
                        "--rescore", "r.json", "--out", "r.json") == 2
        assert (files / "r.json").read_bytes() == before
        assert cli_main("eval", "--in", "g.jsonl", "--agent", "uniform",
                        "--rescore", "r.json", "--out", "s.json") == 3
        assert (files / "r.json").read_bytes() == before
