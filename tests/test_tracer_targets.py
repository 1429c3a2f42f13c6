"""The benchmark's tracer patches module attributes by name, so a refactor
that moves or renames one of them breaks ``perfbench/run.py --trace 1``.
This checks every name it patches, and the kernel call ``perfbench/run.py``
makes, against the package as it is, and that a traced evaluation still
passes through every traced name once per game or per response: a faster
path that routes around one would hide its calls from the benchmark. The
block agent answers each distinct block once, so a traced padding
experiment counts one LP and one parse per distinct block, not per game,
and one certificate per dominated pad, since nothing reads a random pad's."""

import importlib.util
import os
from collections import Counter

from zerosum import _kernels, harness
from zerosum.agents import BlockSolverAgent, NoisyOracleAgent
from zerosum.gen import make_eval_set

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists_where_it_is_patched():
    targets = _load_tracing().Tracer()._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in owner.__dict__]
    assert missing == []


def test_run_reads_the_kernel_backend_name():
    assert _kernels.backend_name() == "numpy"


def test_a_traced_evaluation_reaches_every_layer_once_per_call():
    games = make_eval_set(3, 6, eval_seed=1)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        harness.evaluate(NoisyOracleAgent(0.3, seed=1), games, k=2)
    finally:
        tracer.uninstall()
    calls = Counter(span[0] for span in tracer.spans)
    # each game's replies, regenerated untraced: a repeated reply is scored once
    replies = [NoisyOracleAgent(0.3, seed=1).propose(g, 2) for g in games]
    distinct = sum(len({r.raw_text for r in rs if r.parse_error is None}) for rs in replies)
    assert distinct > 6
    assert {name: calls[name] for name in (
        "solver.lp", "kernels.lp_kernel", "agents.propose", "agents.parse",
        "core.exploitability", "kernels.exploit_terms")} == {
        "solver.lp": 6, "kernels.lp_kernel": 6, "agents.propose": 6, "agents.parse": 12,
        "core.exploitability": distinct, "kernels.exploit_terms": 6 + distinct}


class _RecordingBlockAgent(BlockSolverAgent):
    """The block agent, keeping every game it is asked about."""

    def __init__(self, block_n):
        super().__init__(block_n)
        self.games = []

    def propose(self, game, k):
        self.games.append(game)
        return super().propose(game, k)


def test_a_traced_padding_experiment_solves_and_parses_each_block_once():
    base_n, targets, count = 2, (4, 6), 3
    agent = _RecordingBlockAgent(2)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        harness.padding_cliff_experiment(agent, base_n=base_n, targets=targets, count=count,
                                         k=2, seed=1)
    finally:
        tracer.uninstall()
    calls = Counter(span[0] for span in tracer.spans)
    blocks = {g.matrix.entries[:2, :2].tobytes() for g in agent.games}
    answers = {(g.n, g.matrix.entries[:2, :2].tobytes()) for g in agent.games}
    # a dominated pad and a random pad of one base share their top-left block
    assert len(blocks) < len(answers) < len(agent.games) == count * (1 + 3 * len(targets))
    base_solves, padded_checks = count, count * len(targets)
    assert {name: calls[name] for name in (
        "solver.lp", "solver.raw_exploit", "agents.propose", "agents.parse")} == {
        "solver.lp": base_solves + padded_checks + len(blocks),
        "solver.raw_exploit": padded_checks,
        "agents.propose": len(agent.games), "agents.parse": len(answers)}
