"""The four benchmark workloads: seeded inputs, timed passes, output digests.

A workload builds its inputs once from the workload seed (the set-up), then
runs passes over those inputs. A workload has ``cycle`` input sets and each
pass works on one of them; passes over the same input set must produce the
same SHA-256 digest. A pass counts the
games it completed and every operation it attempted; each operation is
caught on its own, and a failed one is listed by id with its exception,
never dropped.

The program is only ever reached through module attributes looked up at
call time (``gen.sample_game``, ``cli.main``, ...), so the tracer in
``tracing.py`` can wrap those attributes from outside.

Workloads and why each was chosen:

solve_corpus  C05-shaped: integer games at every n in 2..20, LP solve, 1e-8
              certificate, support enumeration cross-check at n <= 4. LP
              and support enumeration do most of the work; agents, harness
              and cli do none.
cli_eval      gen -> eval --agent noisy:0.3 --k 4 -> report through
              zerosum.cli.main on JSONL. The user-facing write path: parse,
              score and one small LP per game. Every sample is distinct.
cli_rescore   eval --rescore of stored results whose texts mix noisy replies
              with every parse-error class, prose-wrapped and long replies,
              plus a shard of hostile replies. The read path: no LP, no
              propose. The hostile shard holds texts that crash the parser
              today (RecursionError); its operation fails and is counted.
              The reply-class shares are assumed (see _REPLY_MIX).
pad_cliff     padding_cliff_experiment(block:3, base_n=3, targets
              8/12/15/20, count=50, k=4), the C09 setting, one per pass,
              rotating through four derived seeds. The only workload that
              pads; its agent returns k identical responses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field

from zerosum import agents, cli, gen, harness, solver
from zerosum.core import canonical_json
from zerosum.gen import GameSpec
from zerosum.rng import child_seed, generator
from zerosum.solver import CERT_TOL

K = 4
TAU = 0.10
NOISE = 0.3
PAD_TARGETS = (8, 12, 15, 20)

# Stream tags that keep each workload's draws apart.
_TAG_RESCORE_GAMES = 61
_TAG_REPLY_MIX = 62
_TAG_HOSTILE = 63


@dataclass
class PassResult:
    """What one pass over a workload's inputs did."""

    games: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)   # [op id, "Type: message"]
    problems: list = field(default_factory=list)   # output checks that failed
    digest: str = ""


class Pass:
    """Runs the operations of one pass; hashes outputs and counts failures.

    ``verify`` turns on the output checks. They run on the first pass over
    each input set only: later passes must reproduce its digest, so they
    produced the same outputs. ``tracer`` (or None) receives the spans this
    file opens itself. ``input_set`` (0 to cycle - 1) is the input set the
    pass works on.
    """

    def __init__(self, verify: bool, tracer=None, input_set: int = 0):
        self.verify = verify
        self.tracer = tracer
        self.input_set = input_set
        self.result = PassResult()
        self._hash = hashlib.sha256()

    def feed(self, *parts) -> None:
        self._hash.update(("|".join(str(p) for p in parts) + "\n").encode())

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.result.problems.append(message)

    def op(self, op_id: str, fn):
        """Run one operation; on any exception count it, list it, return None."""
        self.result.attempted += 1
        try:
            return fn()
        except Exception as exc:  # the benchmark must keep going and report it
            self.result.failures.append([op_id, f"{type(exc).__name__}: {exc}"[:300]])
            self.feed("FAILED", op_id, type(exc).__name__)
            return None

    def cli(self, op_id: str, span: str, argv) -> bool:
        """One zerosum.cli.main call; a non-zero exit is a failed operation."""

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is None:
                    rc = cli.main([str(a) for a in argv])
                else:
                    with self.tracer.span(span):
                        rc = cli.main([str(a) for a in argv])
            if rc != 0:
                raise RuntimeError(f"exit {rc}: {sink.getvalue().strip()[-200:]}")
            return True

        return bool(self.op(op_id, call))

    def finish(self) -> PassResult:
        self.result.digest = self._hash.hexdigest()
        return self.result


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _remove(*paths) -> None:
    for p in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(p)


class SolveCorpus:
    name = "solve_corpus"
    cycle = 1
    per_n = {"full": 40, "smoke": 2}

    def __init__(self, seed: int, size: str, workdir: str):
        self.specs = [
            GameSpec(n=n, distribution="integer", seed=child_seed(seed, n, i))
            for n in range(2, 21)
            for i in range(self.per_n[size])
        ]

    def _one(self, spec: GameSpec, p: Pass):
        g = gen.sample_game(spec)
        eq = solver.solve_zero_sum_lp(g.matrix)
        cert = solver.raw_exploit(g.matrix, eq.pair)
        p.check(cert <= CERT_TOL, f"{g.id}: LP certificate {cert!r} > {CERT_TOL}")
        parts = [g.id, repr(eq.value), eq.iterations, eq.degenerate]
        if spec.n <= 4:
            se = solver.support_enumeration(g.matrix)
            gap = abs(se.value - eq.value)
            p.check(gap <= CERT_TOL, f"{g.id}: routes disagree by {gap!r}")
            parts.append(repr(se.value))
        p.feed(*parts)
        return True

    def run_pass(self, p: Pass) -> PassResult:
        for spec in self.specs:
            if p.op(f"n{spec.n}/{spec.seed:016x}", lambda: self._one(spec, p)):
                p.result.games += 1
        return p.finish()


class CliEval:
    name = "cli_eval"
    cycle = 1
    shape = {"full": (150, (3, 5, 8)), "smoke": (4, (3, 5))}

    def __init__(self, seed: int, size: str, workdir: str):
        self.count, self.sizes = self.shape[size]
        self.seed = seed
        self.dir = workdir

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def run_pass(self, p: Pass) -> PassResult:
        results = []
        for n in self.sizes:
            games = self._path(f"games_n{n}.jsonl")
            res = self._path(f"eval_n{n}.json")
            _remove(games, res)
            ok = p.cli(f"gen/n{n}", "cli.gen", [
                "gen", "--n", n, "--count", self.count, "--seed", self.seed, "--out", games,
            ])
            ok = ok and p.cli(f"eval/n{n}", "cli.eval", [
                "eval", "--in", games, "--agent", f"noisy:{NOISE}", "--k", K,
                "--seed", self.seed, "--out", res,
            ])
            if not ok:
                continue
            p.result.games += self.count
            game_bytes, res_bytes = _read(games), _read(res)
            p.feed(f"n{n}", hashlib.sha256(game_bytes).hexdigest(),
                   hashlib.sha256(res_bytes).hexdigest())
            results.append(res)
            if p.verify:
                self._check(p, n, game_bytes, res_bytes)
        if results:
            report = self._path("report.md")
            _remove(report)
            if p.cli("report", "cli.report", ["report", "--in", ",".join(results), "--out", report]):
                text = _read(report)
                p.feed("report", hashlib.sha256(text).hexdigest())
                for n in self.sizes:
                    p.check(f"n={n}".encode() in text, f"report lacks a column for n={n}")
        return p.finish()

    def _check(self, p: Pass, n: int, game_bytes: bytes, res_bytes: bytes) -> None:
        ids = [json.loads(line)["id"] for line in game_bytes.decode().splitlines()]
        res = json.loads(res_bytes)
        p.check(len(ids) == self.count, f"n={n}: gen wrote {len(ids)} games")
        p.check(res["count"] == self.count and res["k"] == K, f"n={n}: result shape")
        p.check([g["game_id"] for g in res["games"]] == ids, f"n={n}: result game order")
        p.check(0.0 <= res["valid_rate"] <= 1.0, f"n={n}: valid_rate out of range")
        p.check(res["s_at_tau"] >= res["pass_at_1"], f"n={n}: s@tau below pass@1")


def _classify(text: str, n: int):
    """Parse as the harness does; text that crashes the parser is malformed.

    Stored results are built with the classification the parse taxonomy
    prescribes, so a rescore reproduces them once the parser stops crashing.
    """
    try:
        return agents.parse_response(text, n)
    except RecursionError:
        return agents.AgentResponse(raw_text=text, parsed=None, parse_error="malformed")


class _ScriptedAgent:
    """Replays fixed raw texts per game id through the normal parse path."""

    name = f"noisy:{NOISE:g}+mixed"

    def __init__(self, texts: dict):
        self.texts = texts

    def propose(self, game, k: int):
        return [_classify(t, game.n) for t in self.texts[game.id]]


def _vec(values) -> str:
    return json.dumps([float(v) for v in values])


# Reply classes of the regular shards and the share of replies drawn from
# each. The shares are assumed, not measured: the repository holds no
# recorded agent replies to derive them from. A run's record lists the
# realized count of every class (``reply_classes``), and the traced run the
# parse time spent on each, so a claim can say what share of the workload
# has the property it helps.
_REPLY_MIX = (
    ("clean", 0.50),
    ("prose", 0.10),
    ("long", 0.08),
    ("malformed", 0.08),
    ("missing_field", 0.08),
    ("length_mismatch", 0.08),
    ("degenerate_weights", 0.08),
)


def _reply_mix(rng, reply: str, n: int):
    """One seeded reply as (class, text): the noisy agent's text, rewrapped or broken."""
    u = rng.random()
    for kind, share in _REPLY_MIX:
        if u < share:
            break
        u -= share
    obj = json.loads(reply)
    row, col = obj["row"], obj["col"]
    if kind == "clean":
        return kind, reply
    if kind == "prose":
        return kind, f"Let me work through the payoffs first.\nMy answer: {reply}\nThat should be an equilibrium."
    if kind == "long":
        steps = " ".join(
            f"Step {i}: compare rows {{r{i % n}}} and [c{i % n}] giving {rng.integers(-9, 10)}."
            for i in range(80)
        )
        return kind, f"{steps}\nFinal: {reply}"
    if kind == "malformed":
        return kind, str(rng.choice([
            "I cannot determine an equilibrium for this game.",
            '{"row": [0.5, "half"], "col": ' + _vec(col) + "}",
            '{"row": 0.5, "col": ' + _vec(col) + "}",
            '{"row": [' + ", ".join("0.1" for _ in range(n)) + "], 'col': oops",
        ]))
    if kind == "missing_field":
        return kind, '{"row": ' + _vec(row) + "}"
    if kind == "length_mismatch":
        return kind, json.dumps({"row": row + [0.0], "col": col})
    return kind, json.dumps({"row": [-abs(float(x)) - 0.01 for x in row], "col": col})


# Hostile replies that parse today, slowly: the scan restarts at every "{".
_HOSTILE_SLOW = ("{" * 16_000 + " no answer", '{"x": {' * 1000)


def _hostile_crash(rng, n: int) -> str:
    """A "row" nested deeper than the recursion limit: the parser raises RecursionError."""
    depth = int(rng.integers(1200, 1600))
    return '{"row": ' + "[" * depth + "1" + "]" * depth + ', "col": ' + _vec([1.0 / n] * n) + "}"


class CliRescore:
    name = "cli_rescore"
    cycle = 1
    # games per regular shard, regular shard sizes, games in the hostile shard
    shape = {"full": (150, (3, 5, 8), 24), "smoke": (4, (3,), 3)}
    hostile_n = 5

    def __init__(self, seed: int, size: str, workdir: str):
        count, sizes, hostile = self.shape[size]
        self.dir = workdir
        self.shards = []
        self.reply_class = {}  # raw text -> reply class
        self.reply_classes = Counter()  # reply class -> stored replies
        noisy = agents.NoisyOracleAgent(sigma=NOISE, seed=seed)
        for n in sizes:
            games = self._games(seed, n, n, count)
            texts = {}
            for i, g in enumerate(games):
                texts[g.id] = []
                for s, r in enumerate(noisy.propose(g, K)):
                    rng = generator(child_seed(seed, _TAG_REPLY_MIX, n, i, s))
                    kind, text = _reply_mix(rng, r.raw_text, n)
                    self.reply_class[text] = kind
                    texts[g.id].append(text)
            self._write_shard(f"n{n}", games, texts)
        # Hostile shard: the slow texts sit at seeded places among the first
        # games; the crashing texts sit in the last game, so every seed
        # scans the same amount of text before the crash.
        n = self.hostile_n
        games = self._games(seed, 0, n, hostile)
        rng = generator(child_seed(seed, _TAG_HOSTILE))
        texts = {g.id: [r.raw_text for r in noisy.propose(g, K)] for g in games}
        for replies in texts.values():
            self.reply_class.update(dict.fromkeys(replies, "clean"))
        slow_at = rng.choice((hostile - 1) * K, size=len(_HOSTILE_SLOW), replace=False)
        for pos, text in zip(slow_at, _HOSTILE_SLOW):
            texts[games[pos // K].id][pos % K] = text
            self.reply_class[text] = "hostile_slow"
        last = texts[games[-1].id]
        for s in rng.choice(K, size=2, replace=False):
            last[s] = _hostile_crash(rng, n)
            self.reply_class[last[s]] = "hostile_crash"
        self._write_shard("hostile", games, texts)

    @staticmethod
    def _games(seed: int, shard: int, n: int, count: int):
        return [
            gen.sample_game(GameSpec(n=n, distribution="integer",
                                     seed=child_seed(seed, _TAG_RESCORE_GAMES, shard, i)))
            for i in range(count)
        ]

    def _write_shard(self, name: str, games, texts) -> None:
        games_path = os.path.join(self.dir, f"games_{name}.jsonl")
        stored_path = os.path.join(self.dir, f"stored_{name}.json")
        with open(games_path, "w") as fh:
            for g in games:
                fh.write(canonical_json(g.to_json_dict()) + "\n")
        self.reply_classes.update(self.reply_class[t] for replies in texts.values() for t in replies)
        stored = harness.evaluate(_ScriptedAgent(texts), games, k=K, tau=TAU)
        with open(stored_path, "w") as fh:
            fh.write(canonical_json(stored.to_json_dict()) + "\n")
        self.shards.append((name, len(games), games_path, stored_path))

    def run_pass(self, p: Pass) -> PassResult:
        for name, count, games_path, stored_path in self.shards:
            out = os.path.join(self.dir, f"rescored_{name}.json")
            _remove(out)
            if not p.cli(f"rescore/{name}", "cli.rescore", [
                "eval", "--in", games_path, "--agent", "uniform",
                "--rescore", stored_path, "--out", out,
            ]):
                continue
            p.result.games += count
            data = _read(out)
            p.feed(name, hashlib.sha256(data).hexdigest())
            if p.verify:
                p.check(data == _read(stored_path), f"rescore of {name} differs from the stored bytes")
        return p.finish()


class PadCliff:
    name = "pad_cliff"
    # (games per condition and size, input sets). One C09-sized experiment's
    # work varies by ~6% from seed to seed, and a pass must stay short for
    # its median to be steady on a noisy machine: a pass runs one
    # experiment, and passes rotate through four derived seeds.
    shape = {"full": (50, 4), "smoke": (2, 2)}

    def __init__(self, seed: int, size: str, workdir: str):
        self.count, self.cycle = self.shape[size]
        self.seeds = [child_seed(seed, j) for j in range(self.cycle)]

    def run_pass(self, p: Pass) -> PassResult:
        j = p.input_set
        report = p.op(f"pad-exp/{j}", lambda: harness.padding_cliff_experiment(
            agents.BlockSolverAgent(3), base_n=3, targets=PAD_TARGETS,
            count=self.count, k=K, tau=TAU, seed=self.seeds[j],
        ))
        if report is not None:
            p.result.games += self.count * (1 + 3 * len(PAD_TARGETS))
            payload = report.to_json_dict()
            p.feed(canonical_json(payload))
            if p.verify:
                p.check(len(payload["rows"]) == 3 * (1 + len(PAD_TARGETS)), "pad-exp row count")
                dominated = [r["s_at_tau"] for r in payload["rows"] if r["condition"] == "dominated"]
                p.check(all(s == 1.0 for s in dominated),
                        f"block solver lost s@tau on dominated pads: {dominated}")
        return p.finish()


WORKLOADS = {w.name: w for w in (SolveCorpus, CliEval, CliRescore, PadCliff)}
