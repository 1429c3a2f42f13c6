"""Command-line front end.

Subcommands: gen, pad, solve, eval, audit, pad-exp, verify-theorems,
train-toy, report. Each accepts --config FILE holding key=value lines whose
keys mirror the long flags; explicit flags win over config values.

Commands with randomness (gen, audit, pad-exp, verify-theorems, train-toy,
and eval with a stochastic agent) require a seed, from the flag or config.

Whenever --out is given, a sibling <out>.manifest.json records the command,
the fully resolved config, seeds, package version, and input/output
digests. The manifest id hashes only (command, config, seeds, version), so
rerunning a generation command reproduces both the output bytes and the id.

Exit codes: 0 success; 1 unexpected error; 2 configuration or input
problem; 3 verification failure (solver disagreement, failed audit or
theorem check, rescore mismatch); 4 every remote sample failed transport.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import types

import numpy as np

from . import __version__ as VERSION
from .agents import (
    BlockSolverAgent,
    NoisyOracleAgent,
    RemoteModelAgent,
    RemoteModelConfig,
    builtin_agent,
)
from .core import PayoffMatrix, canonical_json, content_digest, normalize_payoffs
from .errors import (
    ConfigError,
    ContractViolation,
    DegenerateMatrixError,
    TransportExhausted,
    VerificationError,
    ZeroSumError,
)
from .gen import GameRecord, GameSpec, PaddedGameRecord, dominated_pad, random_pad, sample_game
from .harness import (
    EvalResult,
    affine_invariance_audit,
    evaluate,
    padding_cliff_experiment,
    permutation_equivariance_audit,
    rescore,
)
from .rng import child_seed
from .solver import CERT_TOL, raw_exploit, solve_zero_sum_lp, support_enumeration
from .theory import (
    ToyPolicy,
    check_residual_lipschitz,
    grpo_cancellation_check,
    selector_discontinuity_demo,
    toy_grpo_train,
)

SOLVE_AGREE_TOL = 1e-6


def _as_int(value, key):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _as_float(value, key):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _as_bool(value, key):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
                key, _, value = text.partition("=")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return out


class Resolved:
    """Merges CLI flags over config-file values and records the result."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}
        self.values: dict = {}

    def get(self, key, default=None, cast=None, required=False):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.config.get(key)
        if value is None:
            value = default
        if value is None and required:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        if value is not None and cast is not None:
            value = cast(value, key)
        self.values[key] = value
        return value


def _digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _write_manifest(command: str, res: Resolved, seeds: dict, inputs, outputs):
    out = res.values.get("out")
    if not out:
        return
    # the id names the logical run: it hashes everything except where the
    # output happened to be written, so reruns share an id
    core_config = {k: v for k, v in res.values.items() if k != "out"}
    core = {"command": command, "config": core_config, "seeds": seeds, "version": VERSION}
    manifest = {
        "schema": "manifest/1",
        "id": content_digest(core),
        **core,
        "out": out,
        "inputs": {p: _digest_file(p) for p in inputs},
        "outputs": {p: _digest_file(p) for p in outputs},
        "created_unix": time.time(),
    }
    with open(out + ".manifest.json", "w") as fh:
        fh.write(canonical_json(manifest) + "\n")


def _emit(res: Resolved, payload: dict) -> list:
    """Write payload JSON to --out, or pretty-print when --out is absent."""
    out = res.values.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(canonical_json(payload) + "\n")
        return [out]
    print(json.dumps(payload, indent=2, sort_keys=True))
    return []


def _load_records(path: str) -> list:
    records = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                d = json.loads(line)
                schema = d.get("schema")
                if schema == "gamerec/1":
                    records.append(GameRecord.from_json_dict(d))
                elif schema == "padrec/1":
                    records.append(PaddedGameRecord.from_json_dict(d))
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown record schema {schema!r}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, ContractViolation, KeyError) as exc:
        raise ConfigError(f"{path}: bad record: {exc}") from None
    if not records:
        raise ConfigError(f"{path}: no records")
    return records


def _agent_from_spec(spec: str, seed, audit_log=None):
    kind, _, rest = spec.partition(":")
    if kind in ("uniform", "maximin", "oracle"):
        return builtin_agent(kind)
    if kind in ("noisy", "noisy_oracle"):
        if seed is None:
            raise ConfigError("a stochastic agent needs --seed")
        return NoisyOracleAgent(sigma=_as_float(rest or "0.1", "sigma"), seed=seed)
    if kind == "block":
        return BlockSolverAgent(block_n=_as_int(rest or "3", "block"))
    if kind == "remote":
        if not rest:
            raise ConfigError("remote agent needs a config path: remote:CONFIG.json")
        try:
            with open(rest) as fh:
                cfg = RemoteModelConfig.from_json_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read remote config {rest}: {exc}") from None
        except (json.JSONDecodeError, TypeError) as exc:
            raise ConfigError(f"bad remote config {rest}: {exc}") from None
        if seed is None:
            raise ConfigError("a stochastic agent needs --seed")
        return RemoteModelAgent(cfg, audit_path=audit_log)
    raise ConfigError(f"unknown agent spec {spec!r}")


def _matching_pennies_record():
    matrix = normalize_payoffs(PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    return types.SimpleNamespace(n=2, matrix=matrix, id="matching-pennies")


def cmd_gen(res: Resolved) -> int:
    n = res.get("n", cast=_as_int, required=True)
    count = res.get("count", default=100, cast=_as_int)
    dist = res.get("dist", default="integer")
    seed = res.get("seed", cast=_as_int, required=True)
    density = res.get("density", default=0.2, cast=_as_float)
    normalize = res.get("normalize", default=True, cast=_as_bool)
    out = res.get("out", required=True)
    records = []
    for i in range(count):
        spec = GameSpec(
            n=n, distribution=dist, seed=child_seed(seed, n, i),
            normalize=normalize, sparse_density=density,
        )
        records.append(sample_game(spec))
    with open(out, "w") as fh:
        for rec in records:
            fh.write(canonical_json(rec.to_json_dict()) + "\n")
    _write_manifest("gen", res, {"seed": seed}, [], [out])
    print(f"wrote {count} games (n={n}, {dist}) to {out}")
    return 0


def cmd_pad(res: Resolved) -> int:
    src = res.get("in", required=True)
    kind = res.get("kind", required=True)
    target = res.get("target_n", cast=_as_int, required=True)
    shuffle = res.get("shuffle", default=False, cast=_as_bool)
    out = res.get("out", required=True)
    if kind not in ("dominated", "random"):
        raise ConfigError(f"pad kind must be dominated or random, got {kind!r}")
    bases = _load_records(src)
    padded = []
    for rec in bases:
        if not isinstance(rec, GameRecord):
            raise ConfigError("pad input must contain plain game records")
        if kind == "dominated":
            padded.append(dominated_pad(rec, target, shuffle=shuffle))
        else:
            padded.append(random_pad(rec, target))
    with open(out, "w") as fh:
        for rec in padded:
            fh.write(canonical_json(rec.to_json_dict()) + "\n")
    _write_manifest("pad", res, {}, [src], [out])
    print(f"wrote {len(padded)} {kind}-padded games (n={target}) to {out}")
    return 0


def cmd_solve(res: Resolved) -> int:
    src = res.get("in", required=True)
    method = res.get("method", default="lp")
    out = res.get("out")
    if method not in ("lp", "support", "both"):
        raise ConfigError(f"method must be lp, support or both, got {method!r}")
    records = _load_records(src)
    if method in ("support", "both"):
        oversized = [r.id for r in records if r.n > 5]
        if oversized:
            raise ConfigError(
                f"support enumeration handles n <= 5; oversized games: {oversized[:3]}"
            )
    rows = []
    worst_gap = 0.0
    for rec in records:
        row = {"game_id": rec.id, "n": rec.n, "method": method}
        if method in ("lp", "both"):
            eq = solve_zero_sum_lp(rec.matrix)
            row.update(
                value=eq.value,
                row_strategy=eq.pair.row.probs.tolist(),
                col_strategy=eq.pair.col.probs.tolist(),
                iterations=eq.iterations,
                degenerate=eq.degenerate,
            )
        if method in ("support", "both"):
            se = support_enumeration(rec.matrix)
            row["support_value"] = se.value
            row["support_row"] = se.pair.row.probs.tolist()
            row["support_col"] = se.pair.col.probs.tolist()
            if method == "support":
                row.update(
                    value=se.value,
                    row_strategy=se.pair.row.probs.tolist(),
                    col_strategy=se.pair.col.probs.tolist(),
                    iterations=se.iterations,
                    degenerate=se.degenerate,
                )
        if method == "both":
            gap = abs(row["value"] - row["support_value"])
            cross = max(
                raw_exploit(rec.matrix, eq.pair),
                raw_exploit(rec.matrix, se.pair),
            )
            row["value_gap"] = gap
            row["worst_certificate"] = cross
            worst_gap = max(worst_gap, gap)
            if gap > SOLVE_AGREE_TOL or cross > CERT_TOL:
                raise VerificationError(
                    f"game {rec.id}: solver routes disagree "
                    f"(value gap {gap:.3e}, certificate {cross:.3e})"
                )
        rows.append(row)
        print(f"{rec.id}  n={rec.n}  value={row['value']:+.6f}")
    outputs = []
    if out:
        with open(out, "w") as fh:
            for row in rows:
                fh.write(canonical_json(row) + "\n")
        outputs = [out]
    if method == "both":
        print(f"routes agree on {len(rows)} games (worst value gap {worst_gap:.3e})")
    _write_manifest("solve", res, {}, [src], outputs)
    return 0


def cmd_eval(res: Resolved) -> int:
    src = res.get("in", required=True)
    agent_spec = res.get("agent", required=True)
    k = res.get("k", default=4, cast=_as_int)
    tau = res.get("tau", default=0.10, cast=_as_float)
    seed = res.get("seed", cast=_as_int)
    jobs = res.get("jobs", default=1, cast=_as_int)
    audit_log = res.get("audit_log")
    rescore_path = res.get("rescore")
    condition = res.get("condition", default="")
    res.get("out")
    games = _load_records(src)
    dists = {g.spec.distribution for g in games if isinstance(g, GameRecord)}
    dist_label = dists.pop() if len(dists) == 1 else ""
    agent = _agent_from_spec(agent_spec, seed, audit_log=audit_log)
    if rescore_path:
        try:
            with open(rescore_path) as fh:
                prior = EvalResult.from_json_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read {rescore_path}: {exc}") from None
        result = rescore(prior, games)
        identical = result.to_json_dict() == prior.to_json_dict()
        outputs = _emit(res, result.to_json_dict())
        _write_manifest("eval", res, {"seed": seed} if seed is not None else {},
                        [src, rescore_path], outputs)
        if not identical:
            raise VerificationError("rescore does not reproduce the stored result")
        print("rescore reproduced the stored result exactly")
        return 0
    result = evaluate(agent, games, k=k, tau=tau, jobs=jobs,
                      condition=condition, distribution=dist_label)
    outputs = _emit(res, result.to_json_dict())
    _write_manifest("eval", res, {"seed": seed} if seed is not None else {}, [src], outputs)
    print(
        f"{result.agent} on {result.count} games (n={result.n}): "
        f"s@{tau:g}={result.s_at_tau:.3f} ±{result.se_s:.3f} "
        f"pass@1={result.pass_at_1:.3f} valid={result.valid_rate:.3f}"
    )
    if isinstance(agent, RemoteModelAgent):
        print(
            f"transport: {agent.transport_failures}/{agent.samples_attempted} samples failed"
        )
        if agent.samples_attempted and agent.transport_failures == agent.samples_attempted:
            raise TransportExhausted("every remote sample failed transport")
    return 0


def cmd_audit(res: Resolved) -> int:
    src = res.get("in", required=True)
    agent_spec = res.get("agent", default="uniform")
    kind = res.get("kind", default="both")
    seed = res.get("seed", cast=_as_int, required=True)
    res.get("out")
    if kind not in ("permutation", "affine", "both"):
        raise ConfigError(f"audit kind must be permutation, affine or both, got {kind!r}")
    games = _load_records(src)
    agent = _agent_from_spec(agent_spec, seed)
    reports = []
    if kind in ("permutation", "both"):
        reports.append(permutation_equivariance_audit(agent, games, seed=seed))
    if kind in ("affine", "both"):
        reports.append(affine_invariance_audit(agent, games, seed=seed))
    payload = {"schema": "audit/1", "reports": [r.to_json_dict() for r in reports]}
    outputs = _emit(res, payload)
    _write_manifest("audit", res, {"seed": seed}, [src], outputs)
    for r in reports:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.kind}: max |diff| = {r.max_abs_diff:.3e} "
              f"over {r.trials} games ({r.invalid} invalid, tol {r.tol:g})")
    if not all(r.ok for r in reports):
        raise VerificationError("metric invariance audit failed")
    return 0


def cmd_pad_exp(res: Resolved) -> int:
    agent_spec = res.get("agent", required=True)
    base_n = res.get("base_n", default=3, cast=_as_int)
    targets_raw = res.get("targets", default="8,12,15,20")
    count = res.get("count", default=50, cast=_as_int)
    k = res.get("k", default=4, cast=_as_int)
    tau = res.get("tau", default=0.10, cast=_as_float)
    seed = res.get("seed", cast=_as_int, required=True)
    jobs = res.get("jobs", default=1, cast=_as_int)
    res.get("out")
    targets = tuple(_as_int(t.strip(), "targets") for t in str(targets_raw).split(","))
    agent = _agent_from_spec(agent_spec, seed)
    report = padding_cliff_experiment(
        agent, base_n=base_n, targets=targets, count=count, k=k, tau=tau,
        seed=seed, jobs=jobs,
    )
    outputs = _emit(res, report.to_json_dict())
    _write_manifest("pad-exp", res, {"seed": seed}, [], outputs)
    print(_render_padexp_table(report.to_json_dict()))
    return 0


def cmd_verify_theorems(res: Resolved) -> int:
    trials = res.get("trials", default=400, cast=_as_int)
    seed = res.get("seed", cast=_as_int, required=True)
    res.get("out")
    checks = []
    lip = check_residual_lipschitz(trials=trials, seed=seed)
    checks.append(("residual bound", lip.ok,
                   f"max ratio {lip.max_ratio:.3f}, {lip.violations} violations", lip.to_json_dict()))
    disc = selector_discontinuity_demo()
    checks.append(("selector discontinuity", disc.ok,
                   f"min strategy jump {disc.min_jump:.3f} as matrix distance -> 0",
                   disc.to_json_dict()))
    canc = grpo_cancellation_check(trials=trials, seed=seed)
    checks.append(("advantage cancellation", canc.ok,
                   f"max |coefficient| = {canc.max_abs_coefficient:g}", canc.to_json_dict()))
    merged = toy_grpo_train(_matching_pennies_record(), ToyPolicy(), mode="role_merged",
                            steps=25, seed=seed)
    frozen_ok = not merged.logits_changed
    checks.append(("role-merged training is frozen", frozen_ok,
                   "logits bitwise unchanged after 25 steps" if frozen_ok
                   else "logits moved under role-merged updates",
                   {"kind": "frozen_training", "logits_changed": merged.logits_changed,
                    "steps": merged.steps_run, "ok": frozen_ok}))
    payload = {
        "schema": "theorems/1",
        "all_ok": all(ok for _, ok, _, _ in checks),
        "checks": [c[3] for c in checks],
    }
    outputs = _emit(res, payload)
    _write_manifest("verify-theorems", res, {"seed": seed}, [], outputs)
    for name, ok, detail, _ in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not payload["all_ok"]:
        raise VerificationError("theorem verification failed")
    return 0


def cmd_train_toy(res: Resolved) -> int:
    mode = res.get("mode", default="cooperative")
    steps = res.get("steps", default=500, cast=_as_int)
    seed = res.get("seed", cast=_as_int, required=True)
    lr = res.get("lr", default=1.0, cast=_as_float)
    group_size = res.get("group_size", default=8, cast=_as_int)
    grid_m = res.get("grid_m", default=11, cast=_as_int)
    kl_coef = res.get("kl_coef", default=0.0, cast=_as_float)
    accumulate = res.get("accumulate_groups", default=1, cast=_as_int)
    src = res.get("in")
    index = res.get("index", default=0, cast=_as_int)
    res.get("out")
    if src:
        records = _load_records(src)
        if not 0 <= index < len(records):
            raise ConfigError(f"--index {index} out of range for {len(records)} records")
        game = records[index]
    else:
        game = _matching_pennies_record()
    policy = ToyPolicy(grid_m=grid_m, learning_rate=lr, group_size=group_size,
                       kl_coef=kl_coef)
    result = toy_grpo_train(game, policy, mode=mode, steps=steps, seed=seed,
                            accumulate_groups=accumulate)
    payload = {
        "schema": "traintoy/1",
        "mode": result.mode,
        "game_id": game.id,
        "steps_run": result.steps_run,
        "aborted": result.aborted,
        "logits_changed": result.logits_changed,
        "converged": result.converged,
        "window": result.window,
        "first_window_mean_exploit": result.first_window_mean_exploit,
        "final_window_mean_exploit": result.final_window_mean_exploit,
        "final_logits": list(result.final_logits),
        "trace": [
            {"step": t.step, "mean_reward": t.mean_reward,
             "mean_exploit": t.mean_exploit, "grad_norm": t.grad_norm}
            for t in result.trace
        ],
    }
    outputs = _emit(res, payload)
    _write_manifest("train-toy", res, {"seed": seed}, [src] if src else [], outputs)
    print(
        f"{mode}: {result.steps_run} steps, window exploit "
        f"{result.first_window_mean_exploit:.4f} -> {result.final_window_mean_exploit:.4f}, "
        f"logits {'moved' if result.logits_changed else 'bitwise unchanged'}"
    )
    return 0


def _fmt_cell(value, se) -> str:
    if value is None:
        return "--"
    return f"{value:.2f} ±{se:.2f}"


def _render_eval_table(results: list) -> str:
    sizes = sorted({r["n"] for r in results})
    agents = []
    for r in results:
        if r["agent"] not in agents:
            agents.append(r["agent"])
    cells = {}
    for r in results:
        cells[(r["agent"], r["n"])] = (r["s_at_tau"], r["se_s"])
    tau = results[0]["tau"]
    lines = [
        f"success rate s@{tau:g} (± one standard error)",
        "",
        "| agent | " + " | ".join(f"n={n}" for n in sizes) + " |",
        "|" + "---|" * (len(sizes) + 1),
    ]
    for agent in agents:
        row = [agent]
        for n in sizes:
            got = cells.get((agent, n))
            row.append(_fmt_cell(*got) if got else "--")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _render_padexp_table(report: dict) -> str:
    sizes = [report["base_n"], *report["targets"]]
    conditions = []
    for row in report["rows"]:
        if row["condition"] not in conditions:
            conditions.append(row["condition"])
    cells = {(r["condition"], r["n"]): (r["s_at_tau"], r["se"]) for r in report["rows"]}
    lines = [
        f"s@{report['tau']:g} by padding condition "
        f"({report['count']} games, best of {report['k']})",
        "",
        "| condition | " + " | ".join(f"n={n}" for n in sizes) + " |",
        "|" + "---|" * (len(sizes) + 1),
    ]
    for cond in conditions:
        row = [cond]
        for n in sizes:
            got = cells.get((cond, n))
            row.append(_fmt_cell(*got) if got else "--")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def cmd_report(res: Resolved) -> int:
    raw = res.get("in", required=True)
    paths = [p.strip() for p in str(raw).split(",") if p.strip()]
    res.get("out")
    eval_rows = []
    blocks = []
    for path in paths:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not JSON: {exc}") from None
        schema = payload.get("schema")
        if schema == "evalres/1":
            eval_rows.append(payload)
        elif schema == "padexp/1":
            blocks.append(_render_padexp_table(payload))
        else:
            raise ConfigError(f"{path}: cannot report on schema {schema!r}")
    if eval_rows:
        blocks.insert(0, _render_eval_table(eval_rows))
    text = "\n\n".join(blocks) + "\n"
    out = res.values.get("out")
    outputs = []
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        outputs = [out]
        _write_manifest("report", res, {}, paths, outputs)
    print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Matrix-game benchmark: generation, solving, evaluation, checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        return p

    add("gen", "generate a game set", [
        ("--n", {"help": "matrix size"}),
        ("--count", {"help": "number of games (default 100)"}),
        ("--dist", {"help": "integer|gaussian|sparse (default integer)"}),
        ("--seed", {"help": "root seed (required)"}),
        ("--density", {"help": "sparse nonzero rate (default 0.2)"}),
        ("--normalize", {"help": "true|false (default true)"}),
        ("--out", {"help": "output JSONL path (required)"}),
    ])
    add("pad", "embed games in larger matrices", [
        ("--in", {"dest": "in", "help": "base games JSONL"}),
        ("--kind", {"help": "dominated|random"}),
        ("--target-n", {"dest": "target_n", "help": "padded size"}),
        ("--shuffle", {"help": "true|false: permute padded positions (dominated)"}),
        ("--out", {"help": "output JSONL path (required)"}),
    ])
    add("solve", "solve games and cross-check routes", [
        ("--in", {"dest": "in", "help": "games JSONL"}),
        ("--method", {"help": "lp|support|both (default lp)"}),
        ("--out", {"help": "optional solutions JSONL"}),
    ])
    add("eval", "score an agent on a game set", [
        ("--in", {"dest": "in", "help": "games JSONL"}),
        ("--agent", {"help": "uniform|maximin|oracle|noisy:SIGMA|block:K|remote:CFG"}),
        ("--k", {"help": "samples per game (default 4)"}),
        ("--tau", {"help": "success threshold (default 0.10)"}),
        ("--seed", {"help": "seed for stochastic agents"}),
        ("--jobs", {"help": "parallel games (default 1)"}),
        ("--audit-log", {"dest": "audit_log", "help": "remote I/O JSONL path"}),
        ("--rescore", {"help": "recompute a stored result from raw texts"}),
        ("--condition", {"help": "label recorded in the result"}),
        ("--out", {"help": "result JSON path"}),
    ])
    add("audit", "metric invariance audits", [
        ("--in", {"dest": "in", "help": "games JSONL"}),
        ("--agent", {"help": "probe agent (default uniform)"}),
        ("--kind", {"help": "permutation|affine|both (default both)"}),
        ("--seed", {"help": "root seed (required)"}),
        ("--out", {"help": "report JSON path"}),
    ])
    add("pad-exp", "padding-cliff experiment", [
        ("--agent", {"help": "agent spec"}),
        ("--base-n", {"dest": "base_n", "help": "base size (default 3)"}),
        ("--targets", {"help": "comma list of padded sizes (default 8,12,15,20)"}),
        ("--count", {"help": "games per condition (default 50)"}),
        ("--k", {"help": "samples per game (default 4)"}),
        ("--tau", {"help": "success threshold (default 0.10)"}),
        ("--seed", {"help": "root seed (required)"}),
        ("--jobs", {"help": "parallel games (default 1)"}),
        ("--out", {"help": "report JSON path"}),
    ])
    add("verify-theorems", "run the structural checks", [
        ("--trials", {"help": "random trials per check (default 400)"}),
        ("--seed", {"help": "root seed (required)"}),
        ("--out", {"help": "report JSON path"}),
    ])
    add("train-toy", "toy self-play trainer", [
        ("--mode", {"help": "cooperative|role_merged (default cooperative)"}),
        ("--steps", {"help": "training steps (default 500)"}),
        ("--seed", {"help": "root seed (required)"}),
        ("--lr", {"help": "learning rate (default 1.0)"}),
        ("--group-size", {"dest": "group_size", "help": "episodes per group (default 8)"}),
        ("--grid-m", {"dest": "grid_m", "help": "strategy grid points (default 11)"}),
        ("--kl-coef", {"dest": "kl_coef", "help": "pull toward the initial policy"}),
        ("--accumulate-groups", {"dest": "accumulate_groups",
                                 "help": "groups per update (default 1)"}),
        ("--in", {"dest": "in", "help": "optional games JSONL (2x2 only)"}),
        ("--index", {"help": "record index within --in (default 0)"}),
        ("--out", {"help": "trace JSON path"}),
    ])
    add("report", "render results as markdown tables", [
        ("--in", {"dest": "in", "help": "comma list of result JSON files"}),
        ("--out", {"help": "markdown output path"}),
    ])
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "pad": cmd_pad,
    "solve": cmd_solve,
    "eval": cmd_eval,
    "audit": cmd_audit,
    "pad-exp": cmd_pad_exp,
    "verify-theorems": cmd_verify_theorems,
    "train-toy": cmd_train_toy,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](Resolved(args))
    except TransportExhausted as exc:
        print(f"transport exhausted: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ContractViolation, DegenerateMatrixError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ZeroSumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
