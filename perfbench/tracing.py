"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces each layer's public functions at the module
attribute their caller looks up (``zerosum.gen.solve_zero_sum_lp``,
``zerosum.harness.parse_response``, ...) with a wrapper that records a span:
name, parent span, start and end. ``uninstall`` puts the originals back.
Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the time its child spans cover.

Counts (pivots, supports examined, parse outcomes, bytes through the CLI's
files) are read from the arguments and return values at the same
boundaries. Given the workload's map from raw text to reply class, the
tracer also adds up the parse time spent on each class.
"""

from __future__ import annotations

import builtins
import contextlib
import gzip
import hashlib
import json
import statistics
import time
from collections import Counter

import numpy as np

from zerosum import agents, cli, core, gen, harness, solver
from zerosum.agents import PARSE_ERRORS
from zerosum.gen import GameSpec
from zerosum.rng import child_seed

LP_SIZES = (3, 8, 20)
_MISSING = object()


def _nbytes(data) -> int:
    if isinstance(data, str):
        return len(data) if data.isascii() else len(data.encode())
    return len(data)


class _CountingFile:
    """File proxy that adds the bytes read and written to the tracer."""

    def __init__(self, fh, tracer):
        self._fh = fh
        self._tracer = tracer

    def read(self, *args):
        data = self._fh.read(*args)
        self._tracer.counts["cli.bytes_read"] += _nbytes(data)
        return data

    def write(self, data):
        self._tracer.counts["cli.bytes_written"] += _nbytes(data)
        return self._fh.write(data)

    def __iter__(self):
        for line in self._fh:
            self._tracer.counts["cli.bytes_read"] += _nbytes(line)
            yield line

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """Spans and counters for the traced passes of one run."""

    def __init__(self, text_class: dict | None = None):
        # one entry per span: [name, parent index or -1, start_ns, end_ns, n]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.text_class = text_class or {}
        self.parse_ns_by_class: Counter = Counter()
        self.lp_matrices: set = set()
        self.scored_pairs: set = set()
        self._stack: list = []
        self._saved: list = []
        self._pass = 0  # distinct ratios count repeats within one pass only

    # -- spans ---------------------------------------------------------

    def _open(self, name: str, n: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0, n])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, n: int = 0):
        idx = self._open(name, n)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, size=None, after=None, by_class=False):
        def traced(*args, **kwargs):
            idx = self._open(name, size(args) if size else 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                self._close(idx)
                if by_class:
                    _, _, start, end, _ = self.spans[idx]
                    self.parse_ns_by_class[self.text_class.get(args[0], "other")] += end - start
            if after:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters read at the boundaries -------------------------------

    def _after_lp(self, args, eq):
        self.counts["solver.lp.pivots"] += eq.iterations
        self.counts["solver.lp.degenerate"] += int(eq.degenerate)
        self.lp_matrices.add((self._pass, hashlib.sha1(args[0].entries.tobytes()).digest()))

    def _after_kernel(self, args, out):
        n = args[0].shape[0]
        self.counts["kernels.lp_kernel.flops_computed"] += out[4] * 2 * (n + 1) * (2 * n + 1)

    def _after_support(self, args, eq):
        self.counts["solver.support_enum.supports_examined"] += eq.iterations

    def _after_parse(self, args, resp):
        self.counts[f"agents.parse.errors.{resp.parse_error or 'none'}"] += 1

    def _after_score(self, args, result):
        game, responses = args[0], args[1]
        for resp in responses:
            self.scored_pairs.add((self._pass, game.id, hash(resp.raw_text)))
        self.counts["harness.score.responses"] += len(responses)

    # -- patching --------------------------------------------------------

    def _targets(self):
        def mat_n(args):
            return args[0].n

        lp = ("solver.lp", mat_n, self._after_lp)
        raw = ("solver.raw_exploit", None, None)
        terms = ("kernels.exploit_terms", None, None)
        parse = ("agents.parse", lambda a: a[1], self._after_parse)
        return [
            (gen, "sample_game", ("gen.sample_game", None, None)),
            (harness, "sample_game", ("gen.sample_game", None, None)),
            (cli, "sample_game", ("gen.sample_game", None, None)),
            (harness, "dominated_pad", ("gen.dominated_pad", None, None)),
            (harness, "random_pad", ("gen.random_pad", None, None)),
            (solver, "solve_zero_sum_lp", lp),
            (gen, "solve_zero_sum_lp", lp),
            (agents, "solve_zero_sum_lp", lp),
            (solver, "support_enumeration",
             ("solver.support_enum", mat_n, self._after_support)),
            (solver, "raw_exploit", raw),
            (gen, "raw_exploit", raw),
            (solver, "lp_kernel", ("kernels.lp_kernel", None, self._after_kernel)),
            (solver, "exploit_terms", terms),
            (core, "exploit_terms", terms),
            (harness, "exploitability", ("core.exploitability", None, None)),
            (agents.NoisyOracleAgent, "propose", ("agents.propose", None, None)),
            (agents.BlockSolverAgent, "propose", ("agents.propose", None, None)),
            (agents, "parse_response", parse),
            (harness, "parse_response", parse),
            (harness, "score_responses",
             ("harness.score_responses", None, self._after_score)),
            (harness, "evaluate", ("harness.evaluate", None, None)),
            (cli, "evaluate", ("harness.evaluate", None, None)),
            (cli, "rescore", ("harness.rescore", None, None)),
            (harness, "padding_cliff_experiment",
             ("harness.padding_cliff_experiment", None, None)),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._pass += 1
        for owner, attr, (name, size, after) in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            by_class = bool(self.text_class) and name == "agents.parse"
            setattr(owner, attr, self._wrap(name, original, size, after, by_class))
        # zerosum.cli has no `open` of its own; a module global shadows the builtin
        self._saved.append((cli, "open", cli.__dict__.get("open", _MISSING)))
        cli.open = lambda *a, **kw: _CountingFile(builtins.open(*a, **kw), self)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = []

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, start, end, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_ns": start - t0, "end_ns": end - t0, "n": n}) + "\n")

    def parse_share_by_class(self) -> dict:
        """Share of all parse time spent on each reply class."""
        total = sum(self.parse_ns_by_class.values())
        return {k: v / total for k, v in sorted(self.parse_ns_by_class.items())} if total else {}

    def metrics(self, passes: int, traced_wall_s: float) -> dict:
        """Per-layer metrics, each a per-pass value over the traced passes.

        The ``wall_share`` metrics are a layer's busy time over the traced
        passes' wall time.
        """
        busy: Counter = Counter()
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        child_ns = [0] * len(self.spans)
        root_ns = 0
        for i in range(len(self.spans) - 1, -1, -1):
            name, parent, start, end, _ = self.spans[i]
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            self_ns[name] += dur - child_ns[i]
            if parent >= 0:
                child_ns[parent] += dur
            else:
                root_ns += dur

        def per_pass(value):
            return value / passes

        def secs(counter, name):
            return per_pass(counter[name] / 1e9)

        def call_us(name, n=None):
            durs = [s[3] - s[2] for s in self.spans if s[0] == name and (n is None or s[4] == n)]
            if not durs:
                return 0.0, 0.0
            p50, p99 = np.percentile(np.array(durs, dtype=np.float64) / 1e3, [50, 99])
            return float(p50), float(p99)

        c = self.counts
        m = {}
        m["gen.sample_game.calls"] = per_pass(calls["gen.sample_game"])
        m["gen.sample_game.busy_s"] = secs(busy, "gen.sample_game")
        for name in ("gen.dominated_pad", "gen.random_pad"):
            m[f"{name}.calls"] = per_pass(calls[name])
            m[f"{name}.self_s"] = secs(self_ns, name)
        m["solver.lp.calls"] = per_pass(calls["solver.lp"])
        m["solver.lp.busy_s"] = secs(busy, "solver.lp")
        m["solver.lp.pivots"] = per_pass(c["solver.lp.pivots"])
        m["solver.lp.degenerate"] = per_pass(c["solver.lp.degenerate"])
        for n in LP_SIZES:
            m[f"solver.lp.call_us.n{n}.p50"], m[f"solver.lp.call_us.n{n}.p99"] = call_us("solver.lp", n)
        m["solver.lp.distinct_ratio"] = (
            len(self.lp_matrices) / calls["solver.lp"] if calls["solver.lp"] else 0.0
        )
        m["solver.support_enum.calls"] = per_pass(calls["solver.support_enum"])
        m["solver.support_enum.busy_s"] = secs(busy, "solver.support_enum")
        m["solver.support_enum.supports_examined"] = per_pass(c["solver.support_enum.supports_examined"])
        for name in ("solver.raw_exploit", "kernels.lp_kernel", "kernels.exploit_terms",
                     "core.exploitability"):
            m[f"{name}.calls"] = per_pass(calls[name])
            m[f"{name}.busy_s"] = secs(busy, name)
        m["kernels.lp_kernel.flops_computed"] = per_pass(c["kernels.lp_kernel.flops_computed"])
        m["agents.propose.calls"] = per_pass(calls["agents.propose"])
        m["agents.propose.self_s"] = secs(self_ns, "agents.propose")
        parses = calls["agents.parse"]
        m["agents.parse.calls"] = per_pass(parses)
        m["agents.parse.busy_s"] = secs(busy, "agents.parse")
        m["agents.parse.wall_share"] = busy["agents.parse"] / 1e9 / traced_wall_s
        m["agents.parse.valid_ratio"] = c["agents.parse.errors.none"] / parses if parses else 0.0
        m["agents.parse.call_us.p50"], m["agents.parse.call_us.p99"] = call_us("agents.parse")
        for err in PARSE_ERRORS:
            m[f"agents.parse.errors.{err}"] = per_pass(c[f"agents.parse.errors.{err}"])
        m["agents.parse.raised"] = per_pass(c["agents.parse.raised"])
        m["harness.score_responses.calls"] = per_pass(calls["harness.score_responses"])
        m["harness.score_responses.self_s"] = secs(self_ns, "harness.score_responses")
        m["harness.score_responses.wall_share"] = busy["harness.score_responses"] / 1e9 / traced_wall_s
        scored = c["harness.score.responses"]
        m["harness.score.distinct_ratio"] = len(self.scored_pairs) / scored if scored else 0.0
        m["harness.evaluate.self_s"] = secs(self_ns, "harness.evaluate")
        m["harness.rescore.self_s"] = secs(self_ns, "harness.rescore")
        for cmd in ("gen", "eval", "rescore", "report"):
            m[f"cli.{cmd}.busy_s"] = secs(busy, f"cli.{cmd}")
        m["cli.bytes_read"] = per_pass(c["cli.bytes_read"])
        m["cli.bytes_written"] = per_pass(c["cli.bytes_written"])
        m["trace.uncovered_frac"] = max(0.0, 1.0 - root_ns / 1e9 / traced_wall_s)
        return m


def _per_call_us(fn, items, repeats: int) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        samples.append((time.perf_counter() - t0) / len(items) * 1e6)
    return statistics.median(samples)


def baseline_probes(seed: int, calls: int, repeats: int = 5) -> dict:
    """Per-call times of single layer functions at n = 3, 8 and 20, untraced.

    The inputs are seeded like the workloads: integer games, and the noisy
    oracle's replies as parse and scoring inputs.
    """
    out = {}
    noisy = agents.NoisyOracleAgent(sigma=0.3, seed=seed)
    for n in LP_SIZES:
        specs = [GameSpec(n=n, distribution="integer", seed=child_seed(seed, 71, n, i))
                 for i in range(calls)]
        games = [gen.sample_game(s) for s in specs]
        texts = [noisy.propose(g, 1)[0].raw_text for g in games]
        scored = [(g.matrix, r.parsed) for g, r in
                  ((g, agents.parse_response(t, n)) for g, t in zip(games, texts))
                  if r.parsed is not None]
        out[f"probe.sample_game.n{n}_us"] = _per_call_us(gen.sample_game, specs, repeats)
        out[f"probe.lp.n{n}_us"] = _per_call_us(
            lambda g: solver.solve_zero_sum_lp(g.matrix), games, repeats)
        out[f"probe.parse.n{n}_us"] = _per_call_us(
            lambda t: agents.parse_response(t, n), texts, repeats)
        out[f"probe.exploitability.n{n}_us"] = _per_call_us(
            lambda mp: core.exploitability(*mp), scored, repeats)
        if n == 3:
            out["probe.support_enum.n3_us"] = _per_call_us(
                lambda g: solver.support_enumeration(g.matrix), games, repeats)
    return out

