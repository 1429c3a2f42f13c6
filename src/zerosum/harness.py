"""Best-of-k evaluation of agents on game sets, plus metric audits.

Every reward is recomputed from the response's raw text, so any persisted
run can be rescored bit-for-bit later. Invalid responses score 0 and are
flagged, never dropped: valid_rate and the success metrics move together.

success for a game means best valid reward STRICTLY exceeds 1 - tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .agents import parse_response
from .core import (
    CheckReport,
    apply_affine,
    apply_permutation,
    exploitability,
    field_dict,
    from_fields,
    permute_pair,
)
from .errors import ContractViolation
from .gen import GameSpec, dominated_pad, random_pad, sample_game
from .rng import child_seed, generator

DEFAULT_K = 4
DEFAULT_TAU = 0.10
PAD_BASE_N = 3
PAD_TARGETS = (8, 12, 15, 20)
PAD_COUNT = 50


def binomial_se(p: float, n: int) -> float:
    """Standard error of a proportion: sqrt(p(1-p)/n)."""
    if n <= 0:
        raise ContractViolation(f"sample count must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ContractViolation(f"proportion must be in [0, 1], got {p}")
    return math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class GameResult:
    """Scores for one game: k sampled responses, best-of aggregation."""

    game_id: str
    rewards: tuple[float, ...]
    invalid: tuple[bool, ...]
    raw_texts: tuple[str, ...]
    best_reward: float
    first_reward: float
    best_sample_index: int | None
    success: bool
    first_success: bool

    to_json_dict = field_dict
    from_json_dict = classmethod(from_fields)


@dataclass(frozen=True)
class EvalResult:
    """Aggregate metrics over a game set for one agent."""

    schema = "evalres/1"

    agent: str
    n: int
    count: int
    k: int
    tau: float
    s_at_tau: float
    pass_at_1: float
    valid_rate: float
    mean_best_reward: float
    se_s: float
    se_pass: float
    condition: str = ""
    distribution: str = ""
    games: tuple[GameResult, ...] = field(default_factory=tuple)

    to_json_dict = field_dict
    from_json_dict = classmethod(from_fields)


def score_responses(game, responses, tau: float) -> GameResult:
    """Reward each response against the game; best-of over valid samples.

    A response object repeated in the list (agents that return
    ``[resp] * k``) is scored once and its reward reused.
    """
    rewards = []
    invalid = []
    raw_texts = []
    scored = {}  # id(resp) -> reward; responses stay alive for the call
    for resp in responses:
        raw_texts.append(resp.raw_text)
        if resp.parsed is None:
            invalid.append(True)
            rewards.append(0.0)
        else:
            invalid.append(False)
            key = id(resp)
            if key not in scored:
                scored[key] = exploitability(game.matrix, resp.parsed).reward
            rewards.append(scored[key])
    best_reward = 0.0
    best_index = None
    for i, (r, bad) in enumerate(zip(rewards, invalid)):
        if not bad and (best_index is None or r > best_reward):
            best_reward = r
            best_index = i
    threshold = 1.0 - tau
    return GameResult(
        game_id=game.id,
        rewards=tuple(rewards),
        invalid=tuple(invalid),
        raw_texts=tuple(raw_texts),
        best_reward=best_reward,
        first_reward=rewards[0],
        best_sample_index=best_index,
        success=best_reward > threshold,
        first_success=rewards[0] > threshold,
    )


def _propose(agent, games, k, jobs) -> list:
    """Each game's k responses, in game order.

    jobs > 1 fans games out over a thread pool; results are collected in
    game order, so scoring does not depend on completion order.
    """
    if jobs > 1:
        # imported here: it loads logging and queue, which no serial run needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda g: agent.propose(g, k), games))
    return [agent.propose(g, k) for g in games]


def _score(name, games, responses, k, tau, condition, distribution) -> EvalResult:
    """Score each game's responses and aggregate them into one EvalResult."""
    results = [score_responses(g, r, tau) for g, r in zip(games, responses)]
    count = len(results)
    s_at = sum(1 for g in results if g.success) / count
    p_at = sum(1 for g in results if g.first_success) / count
    valid = sum(sum(0 if b else 1 for b in g.invalid) for g in results)
    valid_rate = valid / (count * k)
    mean_best = sum(g.best_reward for g in results) / count
    sizes = {g.n for g in games}
    n = sizes.pop() if len(sizes) == 1 else 0
    return EvalResult(
        agent=name,
        n=n,
        count=count,
        k=k,
        tau=tau,
        s_at_tau=s_at,
        pass_at_1=p_at,
        valid_rate=valid_rate,
        mean_best_reward=mean_best,
        se_s=binomial_se(s_at, count),
        se_pass=binomial_se(p_at, count),
        condition=condition,
        distribution=distribution,
        games=tuple(results),
    )


def evaluate(
    agent,
    games,
    k: int = DEFAULT_K,
    tau: float = DEFAULT_TAU,
    jobs: int = 1,
    condition: str = "",
    distribution: str = "",
) -> EvalResult:
    """Best-of-k evaluation of one agent over a list of game records.

    jobs > 1 proposes for several games at once on a thread pool.
    """
    if not games:
        raise ContractViolation("cannot evaluate an empty game set")
    if jobs < 1:
        raise ContractViolation(f"jobs must be >= 1, got {jobs}")
    _check_k_tau(k, tau)
    responses = _propose(agent, games, k, jobs)
    return _score(agent.name, games, responses, k, tau, condition, distribution)


def _check_k_tau(k: int, tau: float) -> None:
    if k < 1:
        raise ContractViolation(f"sample count k must be >= 1, got {k}")
    if not 0.0 < tau < 1.0:
        raise ContractViolation(f"tau must be in (0, 1), got {tau}")


def rescore(result: EvalResult, games) -> EvalResult:
    """Recompute an EvalResult from its persisted raw texts alone.

    Parsing and scoring reuse the exact evaluation path, so the output
    matches the original run bit for bit. A stored game must hold k samples.
    """
    if not result.games:
        raise ContractViolation("the stored result holds no games to rescore")
    _check_k_tau(result.k, result.tau)
    for gr in result.games:
        for name in ("raw_texts", "rewards", "invalid"):
            count = len(getattr(gr, name))
            if count != result.k:
                raise ContractViolation(
                    f"game {gr.game_id}: {name} holds {count} samples, not k = {result.k}")
    by_id = {g.id: g for g in games}
    try:
        ordered = [by_id[gr.game_id] for gr in result.games]
    except KeyError as exc:
        raise ContractViolation(f"game {exc.args[0]} not in the provided set") from None
    responses = [
        [parse_response(t, g.n) for t in gr.raw_texts] for g, gr in zip(ordered, result.games)
    ]
    return _score(result.agent, ordered, responses, result.k, result.tau,
                  result.condition, result.distribution)


@dataclass(frozen=True)
class InvarianceReport(CheckReport):
    """Outcome of a metric-invariance audit; per_size_max is keyed by str(n), as JSON writes it."""

    kind: str
    trials: int
    invalid: int
    max_abs_diff: float
    mean_abs_diff: float
    per_size_max: dict
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_abs_diff <= self.tol


def _permute(game, pair, rng):
    rp = rng.permutation(game.n)
    cp = rng.permutation(game.n)
    return apply_permutation(game.matrix, rp, cp), permute_pair(pair, rp, cp)


def _rescale(game, pair, rng):
    c = 0.5 + 1.5 * rng.random()
    d = -1.0 + 2.0 * rng.random()
    return apply_affine(game.matrix, c, d), pair


# kind -> (child_seed tag, tolerance, transform(game, pair, rng) -> (matrix, pair))
_AUDITS = {
    "permutation": (7, 0.0, _permute),
    "affine": (11, 1e-12, _rescale),
}
AUDIT_KINDS = tuple(_AUDITS)


def invariance_audit(agent, games, kinds=AUDIT_KINDS, seed: int = 0) -> list[InvarianceReport]:
    """One report per kind: is the reward unchanged under that transform?

    permutation: game and strategies jointly permuted. The sorted-
                 accumulation scoring kernel makes this exact, so the
                 tolerance is 0.0: any nonzero difference is a defect.
    affine:      payoffs A -> c*A + d with c in [0.5, 2] and d in [-1, 1]
                 drawn per game. Agreement is to rounding (1e-12), since
                 the two computations divide by different spans.

    The agent proposes once per game; every kind audits that response.
    """
    unknown = [kind for kind in kinds if kind not in _AUDITS]
    if unknown:
        raise ContractViolation(f"unknown audit kind {unknown[0]!r}")
    usable = []
    invalid = 0
    for game in games:
        resp = agent.propose(game, 1)[0]
        if resp.parsed is None:
            invalid += 1
        else:
            usable.append((game, resp.parsed, exploitability(game.matrix, resp.parsed).reward))
    if not usable:
        raise ContractViolation("no valid responses to audit")
    reports = []
    for kind in kinds:
        tag, tol, transform = _AUDITS[kind]
        diffs = []
        per_size: dict[str, float] = {}
        for idx, (game, pair, base) in enumerate(usable):
            matrix, moved = transform(game, pair, generator(child_seed(seed, tag, idx)))
            diff = abs(base - exploitability(matrix, moved).reward)
            diffs.append(diff)
            per_size[str(game.n)] = max(per_size.get(str(game.n), 0.0), diff)
        reports.append(InvarianceReport(
            kind=kind,
            trials=len(diffs),
            invalid=invalid,
            max_abs_diff=max(diffs),
            mean_abs_diff=sum(diffs) / len(diffs),
            per_size_max=per_size,
            tol=tol,
        ))
    return reports


@dataclass(frozen=True)
class CliffRow:
    """One point of a padding-cliff curve: a condition at one size."""

    condition: str
    n: int
    s_at_tau: float
    pass_at_1: float
    valid_rate: float
    mean_best_reward: float
    se: float

    to_json_dict = field_dict
    from_json_dict = classmethod(from_fields)

    @classmethod
    def of(cls, condition: str, n: int, res: EvalResult) -> "CliffRow":
        return cls(condition=condition, n=n, s_at_tau=res.s_at_tau, pass_at_1=res.pass_at_1,
                   valid_rate=res.valid_rate, mean_best_reward=res.mean_best_reward, se=res.se_s)


@dataclass(frozen=True)
class PaddingCliffReport:
    """s@tau curves over target sizes for three padding conditions."""

    schema = "padexp/1"

    base_n: int
    targets: tuple[int, ...]
    count: int
    k: int
    tau: float
    rows: tuple[CliffRow, ...]

    to_json_dict = field_dict
    from_json_dict = classmethod(from_fields)

    def curve(self, condition: str) -> list[tuple[int, float]]:
        return [(r.n, r.s_at_tau) for r in self.rows if r.condition == condition]


def padding_cliff_experiment(
    agent,
    base_n: int = PAD_BASE_N,
    targets: tuple[int, ...] = PAD_TARGETS,
    count: int = PAD_COUNT,
    k: int = DEFAULT_K,
    tau: float = DEFAULT_TAU,
    seed: int = 0,
    jobs: int = 1,
) -> PaddingCliffReport:
    """Compare difficulty growth under three ways of reaching size n.

    dense:      fresh integer games drawn at the target size
    dominated:  base games padded with strictly dominated actions
                (equilibrium and value preserved by construction)
    random:     base games embedded in random payoffs (control)

    The shared base point at base_n starts all three curves.
    """
    if any(t <= base_n for t in targets):
        raise ContractViolation("every target size must exceed the base size")
    repeated = next((t for i, t in enumerate(targets) if t in targets[:i]), None)
    if repeated is not None:
        raise ContractViolation(f"target size {repeated} repeats")

    def draw(n, *parts):
        return sample_game(GameSpec(n=n, distribution="integer", seed=child_seed(seed, *parts)))

    bases = [draw(base_n, 1, i) for i in range(count)]
    base_res = evaluate(agent, bases, k=k, tau=tau, jobs=jobs,
                        condition="base", distribution="integer")
    rows = [CliffRow.of(cond, base_n, base_res) for cond in ("dense", "dominated", "random")]
    for t in targets:
        dense = [draw(t, 2, t, i) for i in range(count)]
        dom = [dominated_pad(b, t) for b in bases]
        rand = [random_pad(b, t) for b in bases]
        for cond, games in (("dense", dense), ("dominated", dom), ("random", rand)):
            res = evaluate(agent, games, k=k, tau=tau, jobs=jobs,
                           condition=cond, distribution="integer")
            rows.append(CliffRow.of(cond, t, res))
    return PaddingCliffReport(
        base_n=base_n, targets=tuple(targets), count=count, k=k, tau=tau,
        rows=tuple(rows),
    )
