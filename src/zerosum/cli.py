"""Command-line front end.

Subcommands: gen, pad, solve, eval, audit, pad-exp, verify-theorems,
train-toy, report. Each command's options are declared once, as rows of the
`_COMMANDS` table (key, cast, default, required, help); the parser, the help
text, the config-file merge and the recorded config are all built from it.
Each command accepts --config FILE holding key=value lines whose keys mirror
the long flags; explicit flags win over config values, and config values win
over defaults.

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
import functools
import hashlib
import json
import sys
import time
import types

import numpy as np

from . import __version__ as VERSION
from .agents import (
    BlockSolverAgent,
    MaximinAgent,
    NoisyOracleAgent,
    OracleAgent,
    RemoteModelAgent,
    RemoteModelConfig,
    UniformAgent,
)
from .core import (
    PayoffMatrix,
    canonical_json,
    content_digest,
    field_dict,
    normalize_payoffs,
    raw_exploit,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DegenerateMatrixError,
    TransportExhausted,
    VerificationError,
    ZeroSumError,
)
from .gen import (
    DISTRIBUTIONS,
    GameRecord,
    GameSpec,
    PaddedGameRecord,
    dominated_pad,
    eval_game_spec,
    random_pad,
    sample_game,
)
from .harness import (
    AUDIT_KINDS,
    DEFAULT_K,
    DEFAULT_TAU,
    PAD_BASE_N,
    PAD_COUNT,
    PAD_TARGETS,
    EvalResult,
    PaddingCliffReport,
    evaluate,
    invariance_audit,
    padding_cliff_experiment,
    rescore,
)
from .solver import (
    CERT_TOL,
    SUPPORT_ENUM_MAX_N,
    solve_zero_sum_lp,
    support_enumeration,
)
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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _resolve(args: argparse.Namespace, options) -> dict:
    """Each option from its flag, else the config file, else its default;
    then the required check and the cast, in table order."""
    config = _read_config(args.config) if args.config else {}
    cfg = {}
    for key, cast, default, required, _ in options:
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
        if value is None and required:
            raise ConfigError(f"missing required option {_flag(key)}")
        if value is not None and cast is not None:
            value = cast(value, key)
        cfg[key] = value
    return cfg


def _digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _write(command: str, cfg: dict, inputs, lines) -> None:
    """Write lines to --out, each ended by a newline, then its manifest; without --out, nothing."""
    out = cfg["out"]
    if not out:
        return
    with open(out, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    # the id names the logical run: it hashes everything except where the
    # output happened to be written, so reruns share an id
    core_config = {k: v for k, v in cfg.items() if k != "out"}
    seeds = {} if cfg.get("seed") is None else {"seed": cfg["seed"]}
    core = {"command": command, "config": core_config, "seeds": seeds, "version": VERSION}
    manifest = {
        "schema": "manifest/1",
        "id": content_digest(core),
        **core,
        "out": out,
        "inputs": {p: _digest_file(p) for p in inputs},
        "outputs": {out: _digest_file(out)},
        "created_unix": time.time(),
    }
    with open(out + ".manifest.json", "w") as fh:
        fh.write(canonical_json(manifest) + "\n")


def _emit(command: str, cfg: dict, inputs, payload: dict) -> None:
    """Write payload JSON as the one line of --out, or pretty-print it when --out is absent."""
    if cfg["out"]:
        _write(command, cfg, inputs, [canonical_json(payload)])
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _schema(payload):
    return payload.get("schema") if isinstance(payload, dict) else None


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: not JSON: {exc}") from None


def _load_records(path: str) -> list:
    records = []
    try:
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                d = json.loads(line)
                padded = _schema(d) == PaddedGameRecord.schema
                records.append((PaddedGameRecord if padded else GameRecord).from_json_dict(d))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (ValueError, KeyError) as exc:  # not JSON, or not a valid record
        raise ConfigError(f"{path}: bad record: {exc}") from None
    if not records:
        raise ConfigError(f"{path}: no records")
    return records


_PLAIN_AGENTS = {"uniform": UniformAgent, "maximin": MaximinAgent, "oracle": OracleAgent}


def _agent_from_spec(spec: str, seed, audit_log=None):
    kind, _, rest = spec.partition(":")
    if kind in _PLAIN_AGENTS:
        return _PLAIN_AGENTS[kind]()
    if kind in ("noisy", "noisy_oracle"):
        if seed is None:
            raise ConfigError("a stochastic agent needs --seed")
        return NoisyOracleAgent(sigma=_as_float(rest or "0.1", "sigma"), seed=seed)
    if kind == "block":
        return BlockSolverAgent(_as_int(rest, "block")) if rest else BlockSolverAgent()
    if kind == "remote":
        if not rest:
            raise ConfigError("remote agent needs a config path: remote:CONFIG.json")
        cfg = RemoteModelConfig.from_json_dict(_read_json(rest))
        if seed is None:
            raise ConfigError("a stochastic agent needs --seed")
        return RemoteModelAgent(cfg, audit_path=audit_log)
    raise ConfigError(f"unknown agent spec {spec!r}")


def _matching_pennies_record():
    matrix = normalize_payoffs(PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    return types.SimpleNamespace(n=2, matrix=matrix, id="matching-pennies")


def cmd_gen(cfg: dict) -> int:
    n, count, dist, out = cfg["n"], cfg["count"], cfg["dist"], cfg["out"]
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    template = GameSpec(n=n, distribution=dist, normalize=cfg["normalize"],
                        sparse_density=cfg["density"])
    records = [sample_game(eval_game_spec(template, n, cfg["seed"], i)) for i in range(count)]
    _write("gen", cfg, [], (canonical_json(rec.to_json_dict()) for rec in records))
    print(f"wrote {count} games (n={n}, {dist}) to {out}")
    return 0


def cmd_pad(cfg: dict) -> int:
    src, kind, target, out = cfg["in"], cfg["kind"], cfg["target_n"], cfg["out"]
    if kind not in ("dominated", "random"):
        raise ConfigError(f"pad kind must be dominated or random, got {kind!r}")
    bases = _load_records(src)
    padded = []
    for rec in bases:
        if not isinstance(rec, GameRecord):
            raise ConfigError("pad input must contain plain game records")
        if kind == "dominated":
            padded.append(dominated_pad(rec, target, shuffle=cfg["shuffle"]))
        else:
            padded.append(random_pad(rec, target))
    _write("pad", cfg, [src], (canonical_json(rec.to_json_dict()) for rec in padded))
    print(f"wrote {len(padded)} {kind}-padded games (n={target}) to {out}")
    return 0


def _solution(eq) -> dict:
    return {
        "value": eq.value,
        "row_strategy": eq.pair.row.probs.tolist(),
        "col_strategy": eq.pair.col.probs.tolist(),
        "iterations": eq.iterations,
        "degenerate": eq.degenerate,
    }


def cmd_solve(cfg: dict) -> int:
    src, method = cfg["in"], cfg["method"]
    if method not in ("lp", "support", "both"):
        raise ConfigError(f"method must be lp, support or both, got {method!r}")
    records = _load_records(src)
    if method in ("support", "both"):
        oversized = [r.id for r in records if r.n > SUPPORT_ENUM_MAX_N]
        if oversized:
            raise ConfigError(
                f"support enumeration handles n <= {SUPPORT_ENUM_MAX_N}; "
                f"oversized games: {oversized[:3]}"
            )
    rows = []
    worst_gap = 0.0
    for rec in records:
        row = {"game_id": rec.id, "n": rec.n, "method": method}
        if method in ("lp", "both"):
            eq = solve_zero_sum_lp(rec.matrix)
            row.update(_solution(eq))
        if method in ("support", "both"):
            se = support_enumeration(rec.matrix)
            row["support_value"] = se.value
            row["support_row"] = se.pair.row.probs.tolist()
            row["support_col"] = se.pair.col.probs.tolist()
            if method == "support":
                row.update(_solution(se))
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
    _write("solve", cfg, [src], (canonical_json(row) for row in rows))
    if method == "both":
        print(f"routes agree on {len(rows)} games (worst value gap {worst_gap:.3e})")
    return 0


def _check_transport(agent) -> None:
    """Report a remote agent's transport failures; raise if every sample failed."""
    if not isinstance(agent, RemoteModelAgent):
        return
    print(f"transport: {agent.transport_failures}/{agent.samples_attempted} samples failed")
    if agent.samples_attempted and agent.transport_failures == agent.samples_attempted:
        raise TransportExhausted("every remote sample failed transport")


def cmd_eval(cfg: dict) -> int:
    src, tau, rescore_path = cfg["in"], cfg["tau"], cfg["rescore"]
    games = _load_records(src)
    dists = {g.spec.distribution for g in games if isinstance(g, GameRecord)}
    dist_label = dists.pop() if len(dists) == 1 else ""
    if rescore_path:
        prior = EvalResult.from_json_dict(_read_json(rescore_path))
        result = rescore(prior, games)
        identical = result.to_json_dict() == prior.to_json_dict()
        _emit("eval", cfg, [src, rescore_path], result.to_json_dict())
        if not identical:
            raise VerificationError("rescore does not reproduce the stored result")
        print("rescore reproduced the stored result exactly")
        return 0
    agent = _agent_from_spec(cfg["agent"], cfg["seed"], audit_log=cfg["audit_log"])
    result = evaluate(agent, games, k=cfg["k"], tau=tau, jobs=cfg["jobs"],
                      condition=cfg["condition"], distribution=dist_label)
    _emit("eval", cfg, [src], result.to_json_dict())
    print(
        f"{result.agent} on {result.count} games (n={result.n}): "
        f"s@{tau:g}={result.s_at_tau:.3f} ±{result.se_s:.3f} "
        f"pass@1={result.pass_at_1:.3f} valid={result.valid_rate:.3f}"
    )
    _check_transport(agent)
    return 0


def cmd_audit(cfg: dict) -> int:
    src, kind, seed = cfg["in"], cfg["kind"], cfg["seed"]
    games = _load_records(src)
    agent = _agent_from_spec(cfg["agent"], seed)
    kinds = AUDIT_KINDS if kind == "both" else (kind,)
    try:
        reports = invariance_audit(agent, games, kinds=kinds, seed=seed)
    except ContractViolation:
        _check_transport(agent)  # an unreachable endpoint is not a config error
        raise
    payload = {"schema": "audit/1", "reports": [r.to_json_dict() for r in reports]}
    _emit("audit", cfg, [src], payload)
    for r in reports:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.kind}: max |diff| = {r.max_abs_diff:.3e} "
              f"over {r.trials} games ({r.invalid} invalid, tol {r.tol:g})")
    _check_transport(agent)
    if not all(r.ok for r in reports):
        raise VerificationError("metric invariance audit failed")
    return 0


def cmd_pad_exp(cfg: dict) -> int:
    targets = tuple(_as_int(t.strip(), "targets") for t in str(cfg["targets"]).split(","))
    agent = _agent_from_spec(cfg["agent"], cfg["seed"])
    report = padding_cliff_experiment(
        agent, base_n=cfg["base_n"], targets=targets, count=cfg["count"], k=cfg["k"],
        tau=cfg["tau"], seed=cfg["seed"], jobs=cfg["jobs"],
    )
    _emit("pad-exp", cfg, [], report.to_json_dict())
    print(_padexp_table(report))
    _check_transport(agent)
    return 0


def cmd_verify_theorems(cfg: dict) -> int:
    trials, seed = cfg["trials"], cfg["seed"]
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
    _emit("verify-theorems", cfg, [], payload)
    for name, ok, detail, _ in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not payload["all_ok"]:
        raise VerificationError("theorem verification failed")
    return 0


def cmd_train_toy(cfg: dict) -> int:
    mode, src, index = cfg["mode"], cfg["in"], cfg["index"]
    if src:
        records = _load_records(src)
        if not 0 <= index < len(records):
            raise ConfigError(f"--index {index} out of range for {len(records)} records")
        game = records[index]
    else:
        game = _matching_pennies_record()
    policy = ToyPolicy(grid_m=cfg["grid_m"], learning_rate=cfg["lr"],
                       group_size=cfg["group_size"], kl_coef=cfg["kl_coef"])
    result = toy_grpo_train(game, policy, mode=mode, steps=cfg["steps"], seed=cfg["seed"],
                            accumulate_groups=cfg["accumulate_groups"])
    payload = {
        "schema": "traintoy/1",
        "game_id": game.id,
        **field_dict(result),
        "converged": result.converged,
        "trace": [field_dict(t) for t in result.trace],
    }
    del payload["initial_logits"]  # not part of the traintoy/1 format
    _emit("train-toy", cfg, [src] if src else [], payload)
    print(
        f"{mode}: {result.steps_run} steps, window exploit "
        f"{result.first_window_mean_exploit:.4f} -> {result.final_window_mean_exploit:.4f}, "
        f"logits {'moved' if result.logits_changed else 'bitwise unchanged'}"
    )
    return 0


def _markdown_table(title: str, label: str, sizes, cells: dict) -> str:
    """One row per name, in first-seen order, of cells keyed (name, n)."""
    lines = [
        title,
        "",
        f"| {label} | " + " | ".join(f"n={n}" for n in sizes) + " |",
        "|" + "---|" * (len(sizes) + 1),
    ]
    for name in dict.fromkeys(name for name, _ in cells):
        row = [name]
        for n in sizes:
            value, se = cells.get((name, n), (None, None))
            row.append("--" if value is None else f"{value:.2f} ±{se:.2f}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _padexp_table(report: PaddingCliffReport) -> str:
    return _markdown_table(
        f"s@{report.tau:g} by padding condition ({report.count} games, best of {report.k})",
        "condition",
        [report.base_n, *report.targets],
        {(r.condition, r.n): (r.s_at_tau, r.se) for r in report.rows},
    )


def cmd_report(cfg: dict) -> int:
    paths = [p.strip() for p in str(cfg["in"]).split(",") if p.strip()]
    eval_rows = []
    blocks = []
    for path in paths:
        payload = _read_json(path)
        schema = _schema(payload)
        if schema == EvalResult.schema:
            eval_rows.append(EvalResult.from_json_dict(payload))
        elif schema == PaddingCliffReport.schema:
            blocks.append(_padexp_table(PaddingCliffReport.from_json_dict(payload)))
        else:
            raise ConfigError(f"{path}: cannot report on schema {schema!r}")
    if eval_rows:
        blocks.insert(0, _markdown_table(
            f"success rate s@{eval_rows[0].tau:g} (± one standard error)",
            "agent",
            sorted({r.n for r in eval_rows}),
            {(r.agent, r.n): (r.s_at_tau, r.se_s) for r in eval_rows},
        ))
    text = "\n\n".join(blocks)
    _write("report", cfg, paths, [text])
    print(text)
    return 0


# one row per option: (key, cast, default, required, help); the flag is
# --key with "_" written as "-", and the help gains "(required)" or "(default X)"
_SEED = ("seed", _as_int, None, True, "root seed")
_K = ("k", _as_int, DEFAULT_K, False, "samples per game")
_TAU = ("tau", _as_float, DEFAULT_TAU, False, "success threshold")
_JOBS = ("jobs", _as_int, 1, False, "parallel games")

_COMMANDS = {
    "gen": (cmd_gen, "generate a game set", [
        ("n", _as_int, None, True, "matrix size"),
        ("count", _as_int, 100, False, "number of games"),
        ("dist", None, GameSpec.distribution, False, "|".join(DISTRIBUTIONS)),
        _SEED,
        ("density", _as_float, GameSpec.sparse_density, False, "sparse nonzero rate"),
        ("normalize", _as_bool, GameSpec.normalize, False, "true|false"),
        ("out", None, None, True, "output JSONL path"),
    ]),
    "pad": (cmd_pad, "embed games in larger matrices", [
        ("in", None, None, True, "base games JSONL"),
        ("kind", None, None, True, "dominated|random"),
        ("target_n", _as_int, None, True, "padded size"),
        ("shuffle", _as_bool, False, False, "true|false: permute padded positions (dominated)"),
        ("out", None, None, True, "output JSONL path"),
    ]),
    "solve": (cmd_solve, "solve games and cross-check routes", [
        ("in", None, None, True, "games JSONL"),
        ("method", None, "lp", False, "lp|support|both"),
        ("out", None, None, False, "optional solutions JSONL"),
    ]),
    "eval": (cmd_eval, "score an agent on a game set", [
        ("in", None, None, True, "games JSONL"),
        ("agent", None, None, True, "uniform|maximin|oracle|noisy:SIGMA|block:K|remote:CFG"),
        _K,
        _TAU,
        ("seed", _as_int, None, False, "seed for stochastic agents"),
        _JOBS,
        ("audit_log", None, None, False, "remote I/O JSONL path"),
        ("rescore", None, None, False, "recompute a stored result from raw texts"),
        ("condition", None, "", False, "label recorded in the result"),
        ("out", None, None, False, "result JSON path"),
    ]),
    "audit": (cmd_audit, "metric invariance audits", [
        ("in", None, None, True, "games JSONL"),
        ("agent", None, "uniform", False, "probe agent"),
        ("kind", None, "both", False, "|".join((*AUDIT_KINDS, "both"))),
        _SEED,
        ("out", None, None, False, "report JSON path"),
    ]),
    "pad-exp": (cmd_pad_exp, "padding-cliff experiment", [
        ("agent", None, None, True, "agent spec"),
        ("base_n", _as_int, PAD_BASE_N, False, "base size"),
        ("targets", None, ",".join(map(str, PAD_TARGETS)), False, "comma list of padded sizes"),
        ("count", _as_int, PAD_COUNT, False, "games per condition"),
        _K,
        _TAU,
        _SEED,
        _JOBS,
        ("out", None, None, False, "report JSON path"),
    ]),
    "verify-theorems": (cmd_verify_theorems, "run the structural checks", [
        ("trials", _as_int, 400, False, "random trials per check"),
        _SEED,
        ("out", None, None, False, "report JSON path"),
    ]),
    "train-toy": (cmd_train_toy, "toy self-play trainer", [
        ("mode", None, "cooperative", False, "cooperative|role_merged"),
        ("steps", _as_int, 500, False, "training steps"),
        _SEED,
        ("lr", _as_float, ToyPolicy.learning_rate, False, "learning rate"),
        ("group_size", _as_int, ToyPolicy.group_size, False, "episodes per group"),
        ("grid_m", _as_int, ToyPolicy.grid_m, False, "strategy grid points"),
        ("kl_coef", _as_float, ToyPolicy.kl_coef, False, "pull toward the initial policy"),
        ("accumulate_groups", _as_int, 1, False, "groups per update"),
        ("in", None, None, False, "optional games JSONL (2x2 only)"),
        ("index", _as_int, 0, False, "record index within --in"),
        ("out", None, None, False, "trace JSON path"),
    ]),
    "report": (cmd_report, "render results as markdown tables", [
        ("in", None, None, True, "comma list of result JSON files"),
        ("out", None, None, False, "markdown output path"),
    ]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Matrix-game benchmark: generation, solving, evaluation, checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, _, default, required, text in options:
            if required:
                text += " (required)"
            elif default not in (None, ""):
                shown = str(default).lower() if isinstance(default, bool) else default
                text += f" (default {shown})"
            p.add_argument(_flag(key), dest=key, help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, options = _COMMANDS[args.command]
    try:
        return handler(_resolve(args, options))
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
