"""Executable checks for the metric's structural properties.

Four checks, each a core.CheckReport:
  * residual Lipschitz bound: |Exploit(A,p,q) - Exploit(B,p,q)| is at most
    2 * max|A - B| for any fixed strategies, checked on random instances;
  * solver-selector discontinuity: the equilibrium map has no continuous
    selection at the zero matrix, demonstrated with a scaled
    matching-pennies path whose limit disagrees with the solution at 0;
  * group-normalized advantage cancellation: merging the two roles of a
    zero-sum game into one advantage group makes every per-output
    gradient coefficient exactly zero;
  * frozen training: in the toy trainer on matching pennies, the merged
    mode leaves policy logits bitwise unchanged.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field

import numpy as np

from .core import (CheckReport, MixedStrategy, PayoffMatrix, StrategyPair, exploitability,
                   field_dict, normalize_payoffs, raw_exploit)
from .errors import ContractViolation
from .rng import child_seed, generator, standard_normal
from .solver import solve_zero_sum_lp

LIPSCHITZ_SLACK = 1e-9
CHECK_TRIALS = 400  # random trials per Lipschitz or cancellation check
TRAIN_STEPS = 500  # toy trainer updates
TRAIN_ACCUMULATE_GROUPS = 1  # toy trainer groups per update
# child_seed tags under a check's root seed, one per stream family, so that no
# two checks of one verify-theorems run draw from the same stream
_LIPSCHITZ_TAG = 3
_CANCELLATION_TAG = 5
_TRAIN_TAG = 13
DISCONTINUITY_EPS = tuple(10.0 ** -k for k in range(1, 9))  # the scaled-pennies path
# the one matching-pennies game: the selector path scales it; the frozen-training
# check and train-toy without --in train on it
MATCHING_PENNIES = types.SimpleNamespace(n=2, id="matching-pennies", matrix=normalize_payoffs(
    PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))))


def _random_simplex(rng, n: int) -> np.ndarray:
    # exponential spacings, normalized; strictly positive with prob. 1
    e = -np.log1p(-rng.random(n))
    return e / e.sum()


@dataclass(frozen=True)
class LipschitzReport(CheckReport):
    kind = "lipschitz"

    trials: int
    violations: int
    max_ratio: float
    max_abs_delta: float
    slack: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_residual_lipschitz(trials: int = CHECK_TRIALS, seed: int = 0) -> LipschitzReport:
    """Check |Exploit(A,p,q) - Exploit(B,p,q)| <= 2 max|A-B| + slack.

    Alternates between independent perturbations and single-entry bumps;
    sizes cycle through 2..10. The ratio delta / (2 max|A-B|) can approach
    1 but must not exceed it beyond rounding slack.
    """
    if trials < 1:
        raise ContractViolation("need at least one trial")
    violations = 0
    max_ratio = 0.0
    max_delta = 0.0
    for t in range(trials):
        rng = generator(child_seed(seed, _LIPSCHITZ_TAG, t))
        n = 2 + t % 9
        a = standard_normal(rng, n * n).reshape(n, n)
        if t % 2 == 0:
            b = a + 0.5 * standard_normal(rng, n * n).reshape(n, n)
        else:
            b = a.copy()
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            b[i, j] += -2.0 + 4.0 * rng.random()
        pair = StrategyPair(
            row=MixedStrategy(_random_simplex(rng, n)),
            col=MixedStrategy(_random_simplex(rng, n)),
        )
        ea = raw_exploit(PayoffMatrix(a), pair)
        eb = raw_exploit(PayoffMatrix(b), pair)
        delta = abs(ea - eb)
        bound = 2.0 * float(np.max(np.abs(a - b)))
        if delta > bound + LIPSCHITZ_SLACK:
            violations += 1
        if bound > 0:
            max_ratio = max(max_ratio, delta / bound)
        max_delta = max(max_delta, delta)
    return LipschitzReport(
        trials=trials, violations=violations, max_ratio=max_ratio,
        max_abs_delta=max_delta, slack=LIPSCHITZ_SLACK,
    )


@dataclass(frozen=True)
class DiscontinuityReport(CheckReport):
    """Equilibria along eps * matching-pennies vs the all-zeros solution."""

    kind = "discontinuity"

    rows: tuple[dict, ...]
    zero_pair: dict
    zero_degenerate: bool
    min_jump: float

    @property
    def ok(self) -> bool:
        return self.min_jump >= 1.0


def selector_discontinuity_demo() -> DiscontinuityReport:
    """No continuous equilibrium selection exists at the zero matrix.

    For every eps > 0 the game eps * [[1,-1],[-1,1]] has the unique
    equilibrium ((1/2,1/2),(1/2,1/2)), yet the deterministic solver maps
    the zero matrix itself to a vertex pair. The strategy jump therefore
    stays >= 1 in l1 norm while the matrix perturbation shrinks to 0:
    the selector's discontinuity is forced, not an implementation choice.
    """
    zero_eq = solve_zero_sum_lp(PayoffMatrix(np.zeros((2, 2))))
    rows = []
    min_jump = math.inf
    for eps in DISCONTINUITY_EPS:
        eq = solve_zero_sum_lp(PayoffMatrix(eps * MATCHING_PENNIES.matrix.entries))
        jump = float(np.abs(eq.pair.row.probs - zero_eq.pair.row.probs).sum()
                     + np.abs(eq.pair.col.probs - zero_eq.pair.col.probs).sum())
        min_jump = min(min_jump, jump)
        rows.append({"eps": eps, "matrix_distance": eps, "strategy_jump": jump,
                     "value": eq.value, **eq.pair.to_json_dict()})
    return DiscontinuityReport(
        rows=tuple(rows),
        zero_pair=zero_eq.pair.to_json_dict(),
        zero_degenerate=zero_eq.degenerate,
        min_jump=min_jump,
    )


@dataclass(frozen=True)
class GroupAdvantages:
    """Advantages for one reward group under a normalization mode."""

    mode: str
    rewards: tuple[float, ...]
    advantages: tuple[float, ...]
    mean: float
    std: float
    per_output_coefficient: tuple[float, ...] | None


def grpo_advantages(rewards, mode: str) -> GroupAdvantages:
    """Group-normalized advantages, cooperative or role-merged.

    cooperative: a_i = (r_i - mean) / std over the group (population std);
    a zero-spread group gets all-zero advantages.

    role_merged: the group holds both roles' rewards {r_i} and {-r_i}.
    Its mean is identically zero and its std is sqrt(sum(r_i^2)/G), so
    the advantages are +r_i/std and -(r_i/std). Each output carries both
    role rewards, and its summed coefficient a_i + a_{G+i} is exactly
    +0.0 in floating point, not merely small: x + (-x) == 0 for finite x.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise ContractViolation("rewards must be a nonempty vector")
    if not np.all(np.isfinite(r)):
        raise ContractViolation("rewards must be finite")
    if mode == "cooperative":
        mean = float(r.mean())
        std = float(r.std())
        if std == 0.0:
            adv = np.zeros_like(r)
        else:
            adv = (r - mean) / std
        return GroupAdvantages(
            mode=mode,
            rewards=tuple(r.tolist()),
            advantages=tuple(adv.tolist()),
            mean=mean,
            std=std,
            per_output_coefficient=None,
        )
    if mode == "role_merged":
        g = r.size
        std = math.sqrt(float(np.sum(r * r)) / g)
        if std == 0.0:
            half = np.zeros_like(r)
        else:
            half = r / std
        adv = np.concatenate([half, -half])
        coeff = half + (-half)
        return GroupAdvantages(
            mode=mode,
            rewards=tuple(np.concatenate([r, -r]).tolist()),
            advantages=tuple(adv.tolist()),
            mean=0.0,
            std=std,
            per_output_coefficient=tuple(coeff.tolist()),
        )
    raise ContractViolation(f"unknown advantage mode {mode!r}")


@dataclass(frozen=True)
class CancellationReport(CheckReport):
    kind = "cancellation"

    trials: int
    max_abs_coefficient: float

    @property
    def ok(self) -> bool:
        return self.max_abs_coefficient == 0.0


def grpo_cancellation_check(trials: int = CHECK_TRIALS, seed: int = 0) -> CancellationReport:
    """Role-merged coefficients are exactly zero on random reward groups."""
    if trials < 1:
        raise ContractViolation("need at least one trial")
    worst = 0.0
    for t in range(trials):
        rng = generator(child_seed(seed, _CANCELLATION_TAG, t))
        g = int(rng.integers(1, 17))
        if t % 2 == 0:
            r = standard_normal(rng, g)
        else:
            r = rng.integers(-9, 10, size=g).astype(np.float64)
        out = grpo_advantages(r, "role_merged")
        coeff = np.asarray(out.per_output_coefficient)
        worst = max(worst, float(np.max(np.abs(coeff))) if coeff.size else 0.0)
    return CancellationReport(trials=trials, max_abs_coefficient=worst)


@dataclass(frozen=True)
class ToyPolicy:
    """Softmax policy over a strategy grid for 2x2 games.

    Grid point t of m represents the mixed strategy (w, 1-w) with
    w = t/(m-1); the policy is a softmax over the m grid logits and is
    shared by both roles (self-play).
    """

    grid_m: int = 11
    learning_rate: float = 1.0
    group_size: int = 8
    kl_coef: float = 0.0
    init_logits: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.grid_m < 2:
            raise ContractViolation("grid needs at least 2 points")
        if not 0 < self.learning_rate < math.inf:
            raise ContractViolation(
                f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.group_size < 1:
            raise ContractViolation("group size must be >= 1")
        if not 0 <= self.kl_coef < math.inf:
            raise ContractViolation(f"kl_coef must be finite and >= 0, got {self.kl_coef}")
        if self.init_logits is not None and len(self.init_logits) != self.grid_m:
            raise ContractViolation("init_logits length must equal grid_m")


@dataclass(frozen=True)
class TraceStep:
    step: int
    mean_reward: float
    mean_exploit: float
    grad_norm: float

    to_json_dict = field_dict


@dataclass(frozen=True)
class TrainResult:
    mode: str
    steps_run: int
    aborted: bool
    initial_logits: tuple[float, ...]
    final_logits: tuple[float, ...]
    logits_changed: bool
    trace: tuple[TraceStep, ...] = field(repr=False)
    window: int
    first_window_mean_exploit: float
    final_window_mean_exploit: float

    @property
    def converged(self) -> bool:
        return self.final_window_mean_exploit < 0.05


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _sample_indices(rng, probs: np.ndarray, count: int) -> np.ndarray:
    cdf = np.cumsum(probs)
    u = rng.random(count)
    return np.minimum(np.searchsorted(cdf, u, side="right"), probs.size - 1)


def toy_grpo_train(
    game,
    policy: ToyPolicy = ToyPolicy(),
    mode: str = "cooperative",
    steps: int = TRAIN_STEPS,
    seed: int = 0,
    accumulate_groups: int = TRAIN_ACCUMULATE_GROUPS,
) -> TrainResult:
    """Self-play REINFORCE on a grid policy, grouped-advantage weighting.

    Each episode samples a grid point for each role from the shared
    policy; the pair is scored once. cooperative mode gives both roles
    the shared unexploitability reward and normalizes within the group;
    role_merged gives the roles r and -r and merges them into one group,
    which Theorem-2 algebra collapses to an exactly zero update. A zero
    update is skipped outright rather than added, so signed zeros in the
    logits survive and "bitwise unchanged" holds literally.

    Both modes consume identical random draws, so their trajectories are
    comparable step by step: group g of step s draws from the stream keyed
    child_seed(seed, _TRAIN_TAG, s, g).
    """
    if mode not in ("cooperative", "role_merged"):
        raise ContractViolation(f"unknown training mode {mode!r}")
    if game.n != 2:
        raise ContractViolation("the toy trainer is restricted to 2x2 games")
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    if accumulate_groups < 1:
        raise ContractViolation("accumulate_groups must be >= 1")
    m = policy.grid_m
    grid = [MixedStrategy(np.array([w, 1.0 - w])) for w in np.linspace(0.0, 1.0, m)]
    # every episode plays a grid pair, so each pair is scored once up front
    table = [[exploitability(game.matrix, StrategyPair(row=row, col=col)) for col in grid]
             for row in grid]
    if policy.init_logits is None:
        logits = np.zeros(m)
    else:
        logits = np.array(policy.init_logits, dtype=np.float64)
    init_bytes = logits.tobytes()
    ref_probs = _softmax(logits)
    g = policy.group_size
    trace = []
    aborted = False
    steps_run = 0
    for step in range(steps):
        probs = _softmax(logits)
        update = np.zeros(m)
        rewards_seen = []
        exploits_seen = []
        for group in range(accumulate_groups):
            rng = generator(child_seed(seed, _TRAIN_TAG, step, group))
            rows = _sample_indices(rng, probs, g)
            cols = _sample_indices(rng, probs, g)
            payoffs = np.empty(g)
            coop = np.empty(g)
            for e in range(g):
                rep = table[rows[e]][cols[e]]
                payoffs[e] = rep.value
                coop[e] = rep.reward
                exploits_seen.append(rep.normalized)
            if mode == "cooperative":
                out = grpo_advantages(coop, "cooperative")
                coeffs = np.asarray(out.advantages)
                rewards_seen.extend(coop.tolist())
            else:
                out = grpo_advantages(payoffs, "role_merged")
                coeffs = np.asarray(out.per_output_coefficient)
                rewards_seen.extend(payoffs.tolist())
            for e in range(g):
                c = coeffs[e]
                if c == 0.0:
                    continue
                score = -2.0 * probs
                score[rows[e]] += 1.0
                score[cols[e]] += 1.0
                update += c * score
        update /= accumulate_groups * g
        if policy.kl_coef > 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                log_ratio = np.log(probs) - np.log(ref_probs)
                kl = float(np.sum(probs * log_ratio))
                update -= policy.kl_coef * probs * (log_ratio - kl)
        delta = policy.learning_rate * update
        grad_norm = float(np.linalg.norm(delta))
        diverged = not np.all(np.isfinite(delta))
        if not diverged and grad_norm > 0.0:
            logits = logits + delta
        diverged = diverged or not np.all(np.isfinite(logits))
        trace.append(
            TraceStep(step=step, mean_reward=float(np.mean(rewards_seen)),
                      mean_exploit=float(np.mean(exploits_seen)),
                      grad_norm=grad_norm)
        )
        steps_run = step + 1
        if diverged:
            # keep the last finite logits; the flag marks the run unusable
            aborted = True
            break
    window = min(50, steps_run)
    head = [t.mean_exploit for t in trace[:window]]
    tail = [t.mean_exploit for t in trace[-window:]]
    return TrainResult(
        mode=mode,
        steps_run=steps_run,
        aborted=aborted,
        initial_logits=tuple(np.frombuffer(init_bytes).tolist()),
        final_logits=tuple(logits.tolist()),
        logits_changed=logits.tobytes() != init_bytes,
        trace=tuple(trace),
        window=window,
        first_window_mean_exploit=float(np.mean(head)),
        final_window_mean_exploit=float(np.mean(tail)),
    )


@dataclass(frozen=True)
class FrozenTrainingReport(CheckReport):
    kind = "frozen_training"

    logits_changed: bool
    steps: int

    @property
    def ok(self) -> bool:
        return not self.logits_changed


def frozen_training_check(seed: int = 0) -> FrozenTrainingReport:
    """Role-merged ToyPolicy() training on matching pennies leaves the logits unchanged."""
    merged = toy_grpo_train(MATCHING_PENNIES, mode="role_merged", steps=25, seed=seed)
    return FrozenTrainingReport(logits_changed=merged.logits_changed, steps=merged.steps_run)
