"""Command-line front end.

Subcommands: gen, pad, solve, eval, audit, pad-exp, verify-theorems,
train-toy, report. Each command's options are declared once, as rows of the
`_COMMANDS` table (key, cast, default, required, help); the parser, the help
text, the config-file merge and the recorded config are all built from it.
Each command accepts --config FILE holding key=value lines whose keys mirror
the long flags (a key that names no option of the command exits 2); explicit
flags win over config values, and config values win over defaults.

Commands with randomness (gen, audit, pad-exp, verify-theorems, train-toy,
and eval with a stochastic agent) require a seed, from the flag or config.

Whenever --out is given, a sibling <out>.manifest.json records the command,
the fully resolved config, seeds, package version, and input/output
digests. The manifest id hashes only (command, config, seeds, version), so
rerunning a generation command reproduces both the output bytes and the id.

Exit codes: 0 success; 1 unexpected error; 2 configuration or input
problem; 3 verification failure (solver disagreement, failed audit or
theorem check, rescore mismatch); 4 every remote sample failed transport.
A reader that closes stdout early drops the rest of the output and changes
no exit status.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

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
from .core import canonical_json, content_digest, field_dict, raw_exploit
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
    PAD_KINDS,
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
from .rng import root_seed
from .solver import (
    CERT_TOL,
    SUPPORT_ENUM_MAX_N,
    support_enumeration,
)
from .theory import (
    CHECK_TRIALS,
    MATCHING_PENNIES,
    TRAIN_ACCUMULATE_GROUPS,
    TRAIN_STEPS,
    ToyPolicy,
    check_residual_lipschitz,
    frozen_training_check,
    grpo_cancellation_check,
    selector_discontinuity_demo,
    toy_grpo_train,
)

SOLVE_AGREE_TOL = 1e-6
SOLVE_METHODS = ("lp", "support", "both")  # the first is the default


def _as_int(value, key):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _as_seed(value, key):
    return root_seed(_as_int(value, key))


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


def _lines(path: str):
    """The lines of a UTF-8 text file, read one at a time with universal
    newlines. A file that cannot be opened or read, or whose bytes are not
    UTF-8, is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _read_config(path: str, keys) -> dict:
    out = {}
    lines = {}  # key -> the line that set it
    for lineno, line in enumerate(_lines(path), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: {key!r} names no option of this command")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        out[key] = value.strip()
    return out


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _check_writable(key: str, path: str, required: bool) -> None:
    """Refuse a path the run cannot write: an empty one (an optional --out ""
    writes no file, as no --out), a directory, or one in a missing directory."""
    parent = os.path.dirname(path) or "."
    if not path:
        if required or key != "out":
            raise ConfigError(f"{_flag(key)} names no file: ''")
    elif "\0" in path:
        raise ConfigError(f"{_flag(key)} {path!r} holds a NUL byte")
    elif os.path.isdir(path):
        raise ConfigError(f"{_flag(key)} {path!r} is a directory")
    elif not os.path.isdir(parent):
        raise ConfigError(f"{_flag(key)} {path!r}: no directory {parent!r}")


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: by device and inode where both exist,
    so a hard link counts, else by real path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    try:
        return os.path.realpath(a) == os.path.realpath(b)
    except ValueError:  # a NUL byte, so a path that names no file
        return False


def _report_paths(value) -> list:
    """The result files of a report --in comma list."""
    return [p.strip() for p in str(value).split(",") if p.strip()]


def _check_outputs_apart(command: str, cfg: dict, config_path) -> None:
    """Refuse a run whose output (--out, its manifest, --audit-log) is a file
    it reads (--config, --in, --rescore, a remote: agent's config) or another
    of its outputs, before anything is overwritten."""
    ins = _report_paths(cfg["in"]) if command == "report" else [cfg.get("in")]
    kind, _, remote_config = str(cfg.get("agent")).partition(":")
    out = cfg["out"]
    named = [  # (flag, path, written), the files read first
        ("--config", config_path, False),
        *(("--in", path, False) for path in ins),
        ("--rescore", cfg.get("rescore"), False),
        ("--agent remote:", remote_config if kind == "remote" else None, False),
        ("--out", out, True),
        ("--out's manifest", out and out + ".manifest.json", True),
        ("--audit-log", cfg.get("audit_log"), True),
    ]
    named = [(flag, path, written) for flag, path, written in named if path]
    for i, (flag, path, _) in enumerate(named):
        for other_flag, other, written in named[i + 1:]:
            if written and _same_file(path, other):
                raise ConfigError(f"{other_flag} {other!r} would overwrite {flag} {path!r}")


def _resolve(args: argparse.Namespace, options) -> dict:
    """Each option from its flag, else the config file, else its default;
    then the required check and the cast, in table order. A path the run
    writes (--out, --audit-log) is checked here, before any work: it must
    be writable and no file the run reads."""
    config = _read_config(args.config, [key for key, *_ in options]) if args.config else {}
    cfg = {}
    for key, cast, default, required, _ in options:
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
        if value is None and required:
            raise ConfigError(f"missing required option {_flag(key)}")
        if value is not None and cast is not None:
            value = cast(value, key)
        if value is not None and key in ("out", "audit_log"):
            _check_writable(key, value, required)
        cfg[key] = value
    _check_outputs_apart(args.command, cfg, args.config)
    return cfg


def _digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _write(command: str, cfg: dict, inputs, lines) -> None:
    """Write lines to --out, each ended by a newline, then its manifest, both as
    UTF-8 whatever the locale, as every reader reads them; without --out, nothing."""
    out = cfg["out"]
    if not out:
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
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
        with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(canonical_json(manifest) + "\n")
    except OSError as exc:  # a path that passed _check_writable: permissions, a full disk
        raise ConfigError(f"cannot write --out {out!r}: {exc}") from None


def _drop_stdout() -> None:
    """Point fd 1 at os.devnull once stdout's reader has gone: later output is
    dropped, and neither a later print nor the exit flush raises again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _say(text: str) -> None:
    """Print a line to stdout; a closed stdout drops it and changes no exit status."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _emit(command: str, cfg: dict, inputs, payload: dict) -> None:
    """Write payload JSON as the one line of --out, or pretty-print it when --out is absent."""
    if cfg["out"]:
        _write(command, cfg, inputs, [canonical_json(payload)])
    else:
        _say(json.dumps(payload, indent=2, sort_keys=True))


def _schema(payload):
    return payload.get("schema") if isinstance(payload, dict) else None


def _read_json(path: str):
    text = "".join(_lines(path))
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: not JSON: {exc}") from None


def _read_record(d):
    """The game or padded record of one JSON line. Any padrec tag goes to the
    padded reader, so a line of an older padrec schema is told to pad again."""
    padded = str(_schema(d)).startswith("padrec/")
    return (PaddedGameRecord if padded else GameRecord).from_json_dict(d)


def _load_records(path: str) -> list:
    records = []
    for line in _lines(path):
        if not line.strip():
            continue
        try:
            records.append(_read_record(json.loads(line)))
        except (ValueError, KeyError) as exc:  # not JSON, or not a valid record
            raise ConfigError(f"{path}: bad record: {exc}") from None
    if not records:
        raise ConfigError(f"{path}: no records")
    return records


_PLAIN_AGENTS = {agent.name: agent for agent in (UniformAgent, MaximinAgent, OracleAgent)}


def _agent_from_spec(spec: str, seed, audit_log=None):
    """The agent a spec names. A built-in agent has one spelling, its name;
    a remote agent's spec names its config file instead."""
    kind, _, rest = spec.partition(":")
    if kind in _PLAIN_AGENTS:
        agent = _PLAIN_AGENTS[kind]()
    elif kind == "noisy":
        if seed is None:
            raise ConfigError("a stochastic agent needs --seed")
        agent = NoisyOracleAgent(sigma=_as_float(rest, "sigma"), seed=seed)
    elif kind == "block":
        agent = BlockSolverAgent(_as_int(rest, "block"))
    elif kind == "remote":
        if not rest:
            raise ConfigError("remote agent needs a config path: remote:CONFIG.json")
        cfg = RemoteModelConfig.from_json_dict(_read_json(rest))
        if seed is None:
            raise ConfigError("a stochastic agent needs --seed")
        return RemoteModelAgent(cfg, audit_path=audit_log)
    else:
        raise ConfigError(f"unknown agent spec {spec!r}")
    if agent.name != spec:
        raise ConfigError(f"agent spec {spec!r} is spelt {agent.name!r}")
    return agent


def cmd_gen(cfg: dict) -> int:
    n, count, dist, out = cfg["n"], cfg["count"], cfg["dist"], cfg["out"]
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    template = GameSpec(n=n, distribution=dist, normalize=cfg["normalize"],
                        sparse_density=cfg["density"])
    records = [sample_game(eval_game_spec(template, n, cfg["seed"], i)) for i in range(count)]
    _write("gen", cfg, [], (canonical_json(rec.to_json_dict()) for rec in records))
    _say(f"wrote {count} games (n={n}, {dist}) to {out}")
    return 0


def cmd_pad(cfg: dict) -> int:
    src, kind, target, out = cfg["in"], cfg["kind"], cfg["target_n"], cfg["out"]
    if kind not in PAD_KINDS:
        raise ConfigError(f"pad kind must be {' or '.join(PAD_KINDS)}, got {kind!r}")
    if kind == "random" and cfg["shuffle"]:
        raise ConfigError("--shuffle applies to dominated padding only")
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
    _say(f"wrote {len(padded)} {kind}-padded games (n={target}) to {out}")
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
    if method not in SOLVE_METHODS:
        *others, last = SOLVE_METHODS
        raise ConfigError(f"method must be {', '.join(others)} or {last}, got {method!r}")
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
            eq = rec.equilibrium
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
        _say(f"{rec.id}  n={rec.n}  value={row['value']:+.6f}")
    _write("solve", cfg, [src], (canonical_json(row) for row in rows))
    if method == "both":
        _say(f"routes agree on {len(rows)} games (worst value gap {worst_gap:.3e})")
    return 0


def _check_transport(agent) -> None:
    """Report a remote agent's transport failures; raise if every sample failed."""
    if not isinstance(agent, RemoteModelAgent):
        return
    _say(f"transport: {agent.transport_failures}/{agent.samples_attempted} samples failed")
    if agent.samples_attempted and agent.transport_failures == agent.samples_attempted:
        raise TransportExhausted("every remote sample failed transport")


def cmd_eval(cfg: dict) -> int:
    src, tau, rescore_path = cfg["in"], cfg["tau"], cfg["rescore"]
    if cfg["audit_log"] and (rescore_path or cfg["agent"].partition(":")[0] != "remote"):
        raise ConfigError("--audit-log applies only to a run that asks a remote agent")
    games = _load_records(src)
    dists = {g.spec.distribution for g in games if isinstance(g, GameRecord)}
    dist_label = dists.pop() if len(dists) == 1 else ""
    if rescore_path:
        prior = EvalResult.from_json_dict(_read_json(rescore_path))
        again = rescore(prior, games)
        _emit("eval", cfg, [src, rescore_path], again.to_json_dict())
        if again != prior:  # field by field, as their JSON forms would compare
            raise VerificationError("rescore does not reproduce the stored result")
        _say("rescore reproduced the stored result exactly")
        return 0
    agent = _agent_from_spec(cfg["agent"], cfg["seed"], audit_log=cfg["audit_log"])
    result = evaluate(agent, games, k=cfg["k"], tau=tau, jobs=cfg["jobs"],
                      condition=cfg["condition"], distribution=dist_label)
    _emit("eval", cfg, [src], result.to_json_dict())
    _say(
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
        _say(f"{'PASS' if r.ok else 'FAIL'} {r.kind}: max |diff| = {r.max_abs_diff:.3e} "
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
    _say(_padexp_table(report))
    _check_transport(agent)
    return 0


def cmd_verify_theorems(cfg: dict) -> int:
    trials, seed = cfg["trials"], cfg["seed"]
    lip = check_residual_lipschitz(trials=trials, seed=seed)
    disc = selector_discontinuity_demo()
    canc = grpo_cancellation_check(trials=trials, seed=seed)
    frozen = frozen_training_check(seed)
    checks = [  # (name, report, detail)
        ("residual bound", lip, f"max ratio {lip.max_ratio:.3f}, {lip.violations} violations"),
        ("selector discontinuity", disc,
         f"min strategy jump {disc.min_jump:.3f} as matrix distance -> 0"),
        ("advantage cancellation", canc, f"max |coefficient| = {canc.max_abs_coefficient:g}"),
        ("role-merged training is frozen", frozen,
         f"logits bitwise unchanged after {frozen.steps} steps" if frozen.ok
         else "logits moved under role-merged updates"),
    ]
    payload = {"schema": "theorems/1", "all_ok": all(report.ok for _, report, _ in checks),
               "checks": [report.to_json_dict() for _, report, _ in checks]}
    _emit("verify-theorems", cfg, [], payload)
    for name, report, detail in checks:
        _say(f"{'PASS' if report.ok else 'FAIL'} {name}: {detail}")
    if not payload["all_ok"]:
        raise VerificationError("theorem verification failed")
    return 0


def cmd_train_toy(cfg: dict) -> int:
    mode, src, index = cfg["mode"], cfg["in"], cfg["index"]
    if not src and index != 0:
        raise ConfigError("--index applies only to a record of --in")
    if src:
        records = _load_records(src)
        if not 0 <= index < len(records):
            raise ConfigError(f"--index {index} out of range for {len(records)} records")
        game = records[index]
    else:
        game = MATCHING_PENNIES
    policy = ToyPolicy(grid_m=cfg["grid_m"], learning_rate=cfg["lr"],
                       group_size=cfg["group_size"], kl_coef=cfg["kl_coef"])
    result = toy_grpo_train(game, policy, mode=mode, steps=cfg["steps"], seed=cfg["seed"],
                            accumulate_groups=cfg["accumulate_groups"])
    payload = {
        "schema": "traintoy/1",
        "game_id": game.id,
        **field_dict(result),
        "converged": result.converged,
    }
    del payload["initial_logits"]  # not part of the traintoy/1 format
    _emit("train-toy", cfg, [src] if src else [], payload)
    _say(
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
    paths = _report_paths(cfg["in"])
    if not paths:
        raise ConfigError(f"--in names no result file: {cfg['in']!r}")
    eval_rows = []  # (path, eval result)
    blocks = []
    for path in paths:
        payload = _read_json(path)
        schema = _schema(payload)
        if schema == EvalResult.schema:
            res = EvalResult.from_json_dict(payload)
            for seen, prior in eval_rows:
                if (prior.agent, prior.n) == (res.agent, res.n):
                    raise ConfigError(f"{seen} and {path} both report {res.agent!r} at n={res.n}")
                for key in ("tau", "k"):  # one table holds one threshold and one best-of-k
                    old, new = getattr(prior, key), getattr(res, key)
                    if old != new:
                        raise ConfigError(f"{seen} has {key} {old!r}, {path} {key} {new!r}")
            eval_rows.append((path, res))
        elif schema == PaddingCliffReport.schema:
            blocks.append(_padexp_table(PaddingCliffReport.from_json_dict(payload)))
        else:
            raise ConfigError(f"{path}: cannot report on schema {schema!r}")
    if eval_rows:
        blocks.insert(0, _markdown_table(
            f"success rate s@{eval_rows[0][1].tau:g} (± one standard error)",
            "agent",
            sorted({r.n for _, r in eval_rows}),
            {(r.agent, r.n): (r.s_at_tau, r.se_s) for _, r in eval_rows},
        ))
    text = "\n\n".join(blocks)
    _write("report", cfg, paths, [text])
    _say(text)
    return 0


# one row per option: (key, cast, default, required, help); the flag is
# --key with "_" written as "-", and the help gains "(required)" or "(default X)"
_SEED = ("seed", _as_seed, None, True, "root seed")
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
        ("kind", None, None, True, "|".join(PAD_KINDS)),
        ("target_n", _as_int, None, True, "padded size"),
        ("shuffle", _as_bool, False, False, "true|false: permute padded positions (dominated)"),
        ("out", None, None, True, "output JSONL path"),
    ]),
    "solve": (cmd_solve, "solve games and cross-check routes", [
        ("in", None, None, True, "games JSONL"),
        ("method", None, SOLVE_METHODS[0], False, "|".join(SOLVE_METHODS)),
        ("out", None, None, False, "optional solutions JSONL"),
    ]),
    "eval": (cmd_eval, "score an agent on a game set", [
        ("in", None, None, True, "games JSONL"),
        ("agent", None, None, True, "uniform|maximin|oracle|noisy:SIGMA|block:K|remote:CFG"),
        _K,
        _TAU,
        ("seed", _as_seed, None, False, "seed for stochastic agents"),
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
        ("trials", _as_int, CHECK_TRIALS, False, "random trials per check"),
        _SEED,
        ("out", None, None, False, "report JSON path"),
    ]),
    "train-toy": (cmd_train_toy, "toy self-play trainer", [
        ("mode", None, "cooperative", False, "cooperative|role_merged"),
        ("steps", _as_int, TRAIN_STEPS, False, "training steps"),
        _SEED,
        ("lr", _as_float, ToyPolicy.learning_rate, False, "learning rate"),
        ("group_size", _as_int, ToyPolicy.group_size, False, "episodes per group"),
        ("grid_m", _as_int, ToyPolicy.grid_m, False, "strategy grid points"),
        ("kl_coef", _as_float, ToyPolicy.kl_coef, False, "pull toward the initial policy"),
        ("accumulate_groups", _as_int, TRAIN_ACCUMULATE_GROUPS, False, "groups per update"),
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
    # stdout keeps the locale's encoding; what it cannot encode (report's ±
    # on an ASCII terminal) is printed escaped instead of raising
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
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
    finally:
        try:  # flushed here, so the exit flush cannot meet a closed stdout
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()


if __name__ == "__main__":
    sys.exit(main())
