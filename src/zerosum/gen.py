"""Seeded game generation, evaluation sets, and padding constructions.

Determinism contract: every draw comes from a Philox stream keyed by a
documented splitmix64 child derivation (see rng.py).

- ``sample_game`` keys its stream with child_seed(spec.seed, dist_code, n)
  where dist_code is 1/2/3 for integer/gaussian/sparse.
- ``make_eval_set`` gives game i at size n the seed
  child_seed(eval_seed, n, i), so any single game can be regenerated alone
  via ``eval_game_spec``.
- Padding streams are keyed with child_seed(base.spec.seed, tag, target_n),
  tag 101 for dominated margins, 102 for random surrounds, and the draw
  order within each construction is fixed (see the function docstrings).

Draw rules per distribution (row-major fills):

- integer: entries uniform on {-9, ..., 9}.
- gaussian: standard normals via the package Box-Muller transform.
- sparse: a keep-mask (entry nonzero with probability sparse_density) is
  drawn first as one (n, n) uniform block, then one (n, n) block of values
  uniform on {-9..9} minus {0}; masked-off cells are exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    MatrixMeta,
    MixedStrategy,
    PayoffMatrix,
    StrategyPair,
    content_digest,
    field_dict,
    from_fields,
    normalize_payoffs,
    regrets,
)
from .errors import ConstructionError, ContractViolation
from .rng import child_seed, generator, standard_normal
from .solver import CERT_TOL, Equilibrium, raw_exploit, solve_zero_sum_lp

DISTRIBUTIONS = ("integer", "gaussian", "sparse")
_DIST_CODE = {"integer": 1, "gaussian": 2, "sparse": 3}
_DOMINATED_TAG = 101
_RANDOM_PAD_TAG = 102
PAD_MARGIN_MAX = 5  # dominated margins drawn integer-uniform from {1..5}


@dataclass(frozen=True)
class GameSpec:
    """Everything needed to regenerate one game."""

    n: int
    distribution: str = "integer"
    seed: int = 0
    normalize: bool = True
    sparse_density: float = 0.2

    def __post_init__(self):
        if not 2 <= self.n <= 64:
            raise ContractViolation(f"game size must be in [2, 64], got {self.n}")
        if self.distribution not in DISTRIBUTIONS:
            raise ContractViolation(
                f"unknown distribution {self.distribution!r}; choose from {DISTRIBUTIONS}"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ContractViolation("seed must fit in 64 bits")
        if not 0.0 < self.sparse_density <= 1.0:
            raise ContractViolation(
                f"sparse_density must be in (0, 1], got {self.sparse_density}"
            )

    to_json_dict = field_dict
    from_json_dict = classmethod(from_fields)


DEFAULT_TEMPLATE = GameSpec(n=2)


@dataclass(frozen=True, eq=False)
class GameRecord:
    """A generated game: spec, raw draw, and the matrix agents are scored on."""

    schema = "gamerec/1"

    spec: GameSpec
    matrix: PayoffMatrix
    raw: PayoffMatrix
    id: str

    @property
    def n(self) -> int:
        return self.spec.n

    def to_json_dict(self) -> dict:
        return {"schema": self.schema, **field_dict(self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GameRecord":
        rec = from_fields(cls, d, cls.schema, spec=GameSpec.from_json_dict,
                          matrix=PayoffMatrix.from_json_dict, raw=PayoffMatrix.from_json_dict)
        if rec.spec.n != rec.raw.n:
            raise ContractViolation(f"record {rec.id}: spec n={rec.spec.n}, raw n={rec.raw.n}")
        if rec.spec.normalize:
            if not np.array_equal(normalize_payoffs(rec.raw).entries, rec.matrix.entries):
                raise ContractViolation(f"record {rec.id}: matrix != normalize(raw)")
        elif rec.matrix.entries.tobytes() != rec.raw.entries.tobytes():
            raise ContractViolation(f"record {rec.id}: matrix != raw")
        if rec.id != _game_id(rec.spec, rec.raw.entries):
            raise ContractViolation(f"record {rec.id}: id does not match its spec and raw entries")
        return rec


def _game_id(spec: GameSpec, raw: np.ndarray) -> str:
    return content_digest({"spec": spec.to_json_dict(), "raw": raw.tolist()})


def _draw_raw(spec: GameSpec) -> np.ndarray:
    rng = generator(child_seed(spec.seed, _DIST_CODE[spec.distribution], spec.n))
    n = spec.n
    if spec.distribution == "integer":
        return rng.integers(-9, 10, size=(n, n)).astype(np.float64)
    if spec.distribution == "gaussian":
        return standard_normal(rng, n * n).reshape(n, n)
    mask = rng.random((n, n)) < spec.sparse_density
    draws = rng.integers(0, 18, size=(n, n))
    values = np.where(draws < 9, draws - 9, draws - 8).astype(np.float64)
    return np.where(mask, values, 0.0)


def sample_game(spec: GameSpec) -> GameRecord:
    """Draw one game; identical spec gives an identical record."""
    raw_entries = _draw_raw(spec)
    meta = MatrixMeta(seed=spec.seed, distribution=spec.distribution, normalized=False)
    raw = PayoffMatrix(raw_entries, meta=meta)
    matrix = normalize_payoffs(raw) if spec.normalize else raw
    return GameRecord(spec=spec, matrix=matrix, raw=raw, id=_game_id(spec, raw_entries))


def eval_game_spec(template: GameSpec, n: int, eval_seed: int, index: int) -> GameSpec:
    """Spec of game `index` in the size-n eval set for eval_seed."""
    return replace(template, n=n, seed=child_seed(eval_seed, n, index))


def make_eval_set(
    n: int, count: int, template: GameSpec = DEFAULT_TEMPLATE, eval_seed: int = 0
) -> list[GameRecord]:
    """Generate `count` games at size n with per-game child seeds."""
    if count < 1:
        raise ContractViolation(f"count must be >= 1, got {count}")
    return [sample_game(eval_game_spec(template, n, eval_seed, i)) for i in range(count)]


@dataclass(frozen=True, eq=False)
class PaddedGameRecord:
    """A base game embedded in a larger matrix, with placement maps."""

    schema = "padrec/1"

    base: GameRecord
    padded: PayoffMatrix
    kind: str
    row_map: tuple[int, ...]
    col_map: tuple[int, ...]
    reference_pair: StrategyPair
    certificate: dict
    id: str

    @property
    def matrix(self) -> PayoffMatrix:
        return self.padded

    @property
    def n(self) -> int:
        return self.padded.n

    def to_json_dict(self) -> dict:
        return {"schema": self.schema, **field_dict(self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PaddedGameRecord":
        rec = from_fields(cls, d, cls.schema, base=GameRecord.from_json_dict,
                          padded=PayoffMatrix.from_json_dict,
                          reference_pair=StrategyPair.from_json_dict)
        if rec.id != _padded_id(rec.kind, rec.base, rec.padded.entries):
            raise ContractViolation(f"padded record {rec.id}: id does not match its contents")
        problem = _padded_problem(rec)
        if problem:
            raise ContractViolation(f"padded record {rec.id}: {problem}")
        return rec


# the certificate keys each kind of padded record is written with
_CERTIFICATE_KEYS = {
    "dominated": {"base_value", "reference_exploit", "padded_value"},
    "random": {"base_value", "reference_exploit"},
}


def _padded_problem(rec: PaddedGameRecord) -> str | None:
    """What a padded record read from JSON gets wrong, or None.

    The id covers only the kind, the base id and the padded entries, so the
    rest is re-checked here without an LP: the maps place the base matrix
    in the padded one, the reference pair is zero outside them and
    certifies the base game at base_value, the stored reference_exploit is
    the pair's raw exploitability on the padded game bit for bit, and a
    dominated pad's pair certifies the padded game at padded_value.
    """
    cert = rec.certificate
    if rec.kind not in _CERTIFICATE_KEYS:
        return f"unknown kind {rec.kind!r}"
    if set(cert) != _CERTIFICATE_KEYS[rec.kind] or not all(type(v) is float for v in cert.values()):
        return f"certificate is not the {rec.kind} certificate: {cert!r}"
    big, k = rec.n, rec.base.n
    if big <= k:
        return f"padded size {big} does not exceed the base size {k}"
    for name, index in (("row_map", rec.row_map), ("col_map", rec.col_map)):
        if len(index) != k or len(set(index)) != k or not all(
            type(i) is int and 0 <= i < big for i in index
        ):
            return f"{name} {index!r} is not {k} distinct indices below {big}"
    rows, cols = list(rec.row_map), list(rec.col_map)
    if rec.padded.entries[np.ix_(rows, cols)].tobytes() != rec.base.matrix.entries.tobytes():
        return "padded entries at the maps differ from the base matrix"
    row, col = rec.reference_pair.row.probs, rec.reference_pair.col.probs
    if row.shape != (big,) or col.shape != (big,):
        return f"reference pair does not have {big} weights per player"
    if np.delete(row, rows).any() or np.delete(col, cols).any():
        return "reference pair is nonzero outside the maps"
    base_pair = StrategyPair(row=MixedStrategy(row[rows]), col=MixedStrategy(col[cols]))
    row_regret, col_regret, value = regrets(rec.base.matrix, base_pair)
    if row_regret + col_regret > CERT_TOL or abs(value - cert["base_value"]) > CERT_TOL:
        return "reference pair does not certify the base game at base_value"
    row_regret, col_regret, value = regrets(rec.padded, rec.reference_pair)
    exploit = row_regret + col_regret  # raw_exploit(padded, reference_pair)
    if cert["reference_exploit"].hex() != exploit.hex():
        return f"reference_exploit {cert['reference_exploit']!r} is not the pair's {exploit!r}"
    if rec.kind == "dominated" and (
        exploit > CERT_TOL or abs(value - cert["padded_value"]) > CERT_TOL
    ):
        return "reference pair does not certify the padded game at padded_value"
    return None


def _padded_id(kind: str, base: GameRecord, padded: np.ndarray) -> str:
    return content_digest({"kind": kind, "base": base.id, "padded": padded.tolist()})


def _pad_base_n(base: GameRecord, target_n: int) -> int:
    if target_n <= base.n:
        raise ContractViolation(f"target size {target_n} must exceed base size {base.n}")
    return base.n


def _padded_record(
    base: GameRecord, padded: np.ndarray, kind: str, row_map, col_map,
    base_eq: Equilibrium | None,
) -> PaddedGameRecord:
    """The record of padded entries that hold base at (row_map, col_map).

    The reference pair is base_eq's pair zero-extended to the padded size;
    the certificate holds base_eq's value and the reference pair's raw
    exploitability on the padded game. base_eq is solved when not given.
    """
    if base_eq is None:
        base_eq = solve_zero_sum_lp(base.matrix)
    matrix = PayoffMatrix(padded, meta=replace(base.matrix.meta, normalized=False))
    row_map = tuple(int(i) for i in row_map)
    col_map = tuple(int(j) for j in col_map)
    row = np.zeros(matrix.n)
    row[list(row_map)] = base_eq.pair.row.probs
    col = np.zeros(matrix.n)
    col[list(col_map)] = base_eq.pair.col.probs
    reference = StrategyPair(row=MixedStrategy(row), col=MixedStrategy(col))
    return PaddedGameRecord(
        base=base,
        padded=matrix,
        kind=kind,
        row_map=row_map,
        col_map=col_map,
        reference_pair=reference,
        certificate={"base_value": base_eq.value,
                     "reference_exploit": raw_exploit(matrix, reference)},
        id=_padded_id(kind, base, padded),
    )


def dominated_pad(
    base: GameRecord, target_n: int, shuffle: bool = False, *, base_eq: Equilibrium | None = None
) -> PaddedGameRecord:
    """Pad with strictly dominated actions; the equilibrium is preserved.

    New rows sit strictly below the base minimum (base_min - u) everywhere,
    including at new-column intersections; new columns sit strictly above
    the base maximum (base_max + u) on original rows; u is integer-uniform
    on {1..5} per entry. Draw order: the new-column block (k x (N-k)), then
    the new-row block ((N-k) x N), then, when shuffle is set, the row and
    column position permutations. Every record is re-verified: the
    zero-extended base equilibrium must certify on the padded game and the
    padded LP value must match the base LP value at 1e-8, else
    ConstructionError. ``base_eq`` is the base game's LP solution; it is
    solved here when not given.
    """
    k = _pad_base_n(base, target_n)
    rng = generator(child_seed(base.spec.seed, _DOMINATED_TAG, target_n))
    a = base.matrix.entries
    lo = float(a.min())
    hi = float(a.max())
    extra = target_n - k
    padded = np.empty((target_n, target_n))
    padded[:k, :k] = a
    padded[:k, k:] = hi + rng.integers(1, PAD_MARGIN_MAX + 1, size=(k, extra))
    padded[k:, :] = lo - rng.integers(1, PAD_MARGIN_MAX + 1, size=(extra, target_n))
    row_pos = np.arange(target_n)
    col_pos = np.arange(target_n)
    if shuffle:
        row_pos = rng.permutation(target_n)
        col_pos = rng.permutation(target_n)
        shuffled = np.empty_like(padded)
        shuffled[np.ix_(row_pos, col_pos)] = padded
        padded = shuffled
    rec = _padded_record(base, padded, "dominated", row_pos[:k], col_pos[:k], base_eq)
    cert = rec.certificate
    padded_eq = solve_zero_sum_lp(rec.padded)
    value_gap = abs(padded_eq.value - cert["base_value"])
    if cert["reference_exploit"] > CERT_TOL or value_gap > CERT_TOL:
        raise ConstructionError(
            f"dominated pad failed verification (exploit {cert['reference_exploit']:.3e}, "
            f"value gap {value_gap:.3e})",
            instance=padded,
        )
    return replace(rec, certificate={**cert, "padded_value": padded_eq.value})


def random_pad(
    base: GameRecord, target_n: int, *, base_eq: Equilibrium | None = None
) -> PaddedGameRecord:
    """Negative control: same base block, random surround, no preservation.

    The base block occupies the top-left k x k corner; every other entry is
    drawn from the base spec's distribution (one full (N, N) block is drawn
    and the corner overwritten, so the surround is a fixed function of the
    stream). The reference pair is still the zero-extended base equilibrium,
    but nothing certifies it here; its exploitability on the padded game is
    recorded in the certificate for inspection. ``base_eq`` is the base
    game's LP solution; it is solved here when not given.
    """
    k = _pad_base_n(base, target_n)
    surround_spec = replace(
        base.spec,
        n=target_n,
        seed=child_seed(base.spec.seed, _RANDOM_PAD_TAG, target_n),
        normalize=False,
    )
    padded = _draw_raw(surround_spec)
    padded[:k, :k] = base.matrix.entries
    return _padded_record(base, padded, "random", range(k), range(k), base_eq)
