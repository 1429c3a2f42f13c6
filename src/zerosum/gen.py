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

A matrix is only its entries: a record writes each matrix's ``meta`` (the
seed and distribution its game was drawn from, and the normalized flag)
from its own spec.

Readers rebuild what they read with the writer and accept a line only if it
equals the rebuilt record's JSON form, so whatever they accept reads back
as written:

- a game record is rebuilt from its ``spec`` and ``raw.entries``;
- a padded record from its ``base`` (read as a game record), ``kind``,
  ``padded.n`` and the shuffle flag its ``id`` names. A padded record's id
  is the digest of its recipe (kind, base id, padded size, shuffle flag),
  so the reader rebuilds only the pad whose recipe id matches the line's
  id; when none matches, the pad its maps imply (shuffled unless both are
  the identity prefix [0..k-1]), so the error names the first key that
  differs. Either way every entry is compared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .core import (
    MixedStrategy,
    PayoffMatrix,
    StrategyPair,
    _float_array,
    content_digest,
    field_dict,
    from_fields,
    normalized_stack,
)
from .errors import ConstructionError, ContractViolation
from .rng import child_seed, generator, root_seed, standard_normal
from .solver import CERT_TOL, MAX_N, Equilibrium, raw_exploit, solve_zero_sum_lp

_DIST_CODE = {"integer": 1, "gaussian": 2, "sparse": 3}
DISTRIBUTIONS = tuple(_DIST_CODE)
_DOMINATED_TAG = 101
_RANDOM_PAD_TAG = 102
PAD_KINDS = ("dominated", "random")
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
        if not 2 <= self.n <= MAX_N:
            raise ContractViolation(f"game size must be in [2, {MAX_N}], got {self.n}")
        if self.distribution not in DISTRIBUTIONS:
            raise ContractViolation(
                f"unknown distribution {self.distribution!r}; choose from {DISTRIBUTIONS}"
            )
        root_seed(self.seed)
        if not 0.0 < self.sparse_density <= 1.0:
            raise ContractViolation(
                f"sparse_density must be in (0, 1], got {self.sparse_density}"
            )

    to_json_dict = field_dict
    from_json_dict = classmethod(from_fields)


DEFAULT_TEMPLATE = GameSpec(n=2)


class _SolvesItsLP:
    """A record that owns its LP solution (both record classes)."""

    @functools.cached_property
    def equilibrium(self) -> Equilibrium:
        """The LP solution of matrix, solved once on first use: the record is
        immutable and the LP selector a fixed function of its matrix."""
        return solve_zero_sum_lp(self.matrix)


@dataclass(frozen=True, eq=False)
class GameRecord(_SolvesItsLP):
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
        """The fields' JSON form, each matrix's provenance written from spec."""
        d = field_dict(self)
        d["matrix"]["meta"] = _provenance(self.spec, self.spec.normalize)
        d["raw"]["meta"] = _provenance(self.spec, False)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "GameRecord":
        """The record rebuilt from d's spec and raw entries, if d equals its JSON
        form: a record reads back only as gen writes it."""
        return _read_game_records([d])[0]

    @classmethod
    def from_json_dicts(cls, ds: list) -> list["GameRecord"]:
        """The records of JSON dicts ds, in order, each read as from_json_dict
        reads it but built a size group at a time. If any d is bad, ds are read
        again one at a time, so the first bad one raises its own error."""
        try:
            return _read_game_records(ds)
        except (ValueError, KeyError):
            if len(ds) < 2:
                raise
        return [_read_game_records([d])[0] for d in ds]


def _provenance(spec: GameSpec, normalized: bool) -> dict:
    """The "meta" written beside a matrix drawn for spec."""
    return {"seed": spec.seed, "distribution": spec.distribution, "normalized": normalized}


def _rebuilt(what: str, d: dict, rec):
    """rec, if its JSON form equals d as JSON values (5 for 5.0 and -0.0 for
    0.0 are equal); else ContractViolation naming the first top-level key
    where d differs from it."""
    expected = rec.to_json_dict()
    if d == expected:
        return rec
    key = next(k for k in sorted(d.keys() | expected.keys())
               if k not in d or k not in expected or d[k] != expected[k])
    raise ContractViolation(f"{what} {d.get('id')}: {key} does not match its contents")


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


def _read_game_records(ds: list) -> list[GameRecord]:
    """The records of JSON dicts ds: each one's spec parsed, the records built
    from the specs and raw entries, and each accepted only if its d equals
    its JSON form."""
    try:
        specs = [GameSpec.from_json_dict(d["spec"]) for d in ds]
        records = _game_records(specs, [d["raw"]["entries"] for d in ds])
    except TypeError as exc:  # a d or its raw is not a JSON object
        raise ContractViolation(f"bad GameRecord: {exc}") from None
    return [_rebuilt("record", d, rec) for d, rec in zip(ds, records)]


def _game_records(specs: list, raws: list) -> list[GameRecord]:
    """The one builder of game records: each spec with its raw entries as its draw.

    The readers pass the specs and entries they read; sample_game builds its
    draw, a group of one, with _size_group directly. Records are built a
    size group at a time (_size_group): one float conversion with its
    item-type scan, one shape and finiteness check and one normalization
    pass per group, then each record's id. A lone record, or a group whose
    entries fail a check, is built by _game_record, from a checked
    PayoffMatrix, so a bad record raises the error it raises alone.
    """
    groups = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.n, []).append(i)
    records = [None] * len(specs)
    for n, group in groups.items():
        stack = _raw_stack(n, [raws[i] for i in group]) if len(group) > 1 else None
        if stack is None:
            built = [_game_record(specs[i], raws[i]) for i in group]
        else:
            built = _size_group([specs[i] for i in group], stack,
                                [PayoffMatrix._owning(entries) for entries in stack])
        for i, rec in zip(group, built):
            records[i] = rec
    return records


def _raw_stack(n: int, raws: list) -> np.ndarray | None:
    """The read-only (G, n, n) float64 stack of G raw entry lists, converted
    and type-scanned once and checked square and finite once; None if any
    check fails."""
    try:
        stack = _float_array(raws, "payoff entries")
    except (ValueError, TypeError):  # a ContractViolation, or lists numpy cannot stack
        return None
    if stack.shape != (len(raws), n, n) or not np.isfinite(stack).all():
        return None
    stack.flags.writeable = False
    return stack


def _game_record(spec: GameSpec, raw_entries) -> GameRecord:
    """The record of one spec, its raw entries checked as a PayoffMatrix alone."""
    raw = PayoffMatrix(raw_entries)
    if raw.n != spec.n:
        raise ContractViolation(f"spec n={spec.n}, raw n={raw.n}")
    return _size_group([spec], raw.entries[None], [raw])[0]


def _size_group(specs: list, stack: np.ndarray, raws: list) -> list[GameRecord]:
    """The records of specs, all of one size, whose raw matrices raws hold
    the checked stack's entries."""
    matrices = list(raws)
    scaled = [i for i, spec in enumerate(specs) if spec.normalize]
    if scaled:
        picked = stack if len(scaled) == len(specs) else stack[scaled]
        for i, entries in zip(scaled, normalized_stack(picked)):
            matrices[i] = PayoffMatrix._owning(entries)
    return [
        GameRecord(spec=spec, matrix=matrix, raw=raw,
                   id=content_digest({"spec": spec.to_json_dict(), "raw": entries}))
        for spec, matrix, raw, entries in zip(specs, matrices, raws, stack.tolist())
    ]


def sample_game(spec: GameSpec) -> GameRecord:
    """Draw one game; identical spec gives an identical record."""
    raw = _draw_raw(spec)  # a finite float64 n x n draw: nothing to check or copy
    raw.flags.writeable = False
    return _size_group([spec], raw[None], [PayoffMatrix._owning(raw)])[0]


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
class PaddedGameRecord(_SolvesItsLP):
    """A base game embedded in a larger matrix, with placement maps. Like its
    equilibrium, its reference pair and certificate are derived on first read."""

    schema = "padrec/2"

    base: GameRecord
    padded: PayoffMatrix
    kind: str
    row_map: tuple[int, ...]
    col_map: tuple[int, ...]
    id: str

    @property
    def matrix(self) -> PayoffMatrix:
        return self.padded

    @property
    def n(self) -> int:
        return self.padded.n

    @functools.cached_property
    def reference_pair(self) -> StrategyPair:
        """base.equilibrium's pair zero-extended through row_map and col_map."""
        pair = self.base.equilibrium.pair
        row = np.zeros(self.n)
        row[list(self.row_map)] = pair.row.probs
        col = np.zeros(self.n)
        col[list(self.col_map)] = pair.col.probs
        return StrategyPair(row=MixedStrategy._checked(row), col=MixedStrategy._checked(col))

    @functools.cached_property
    def certificate(self) -> MappingProxyType:
        """base.equilibrium's value and the reference pair's raw exploitability
        on the padded game, and a dominated pad's own equilibrium value; read-only."""
        cert = {"base_value": self.base.equilibrium.value,
                "reference_exploit": raw_exploit(self.padded, self.reference_pair)}
        if self.kind == "dominated":
            cert["padded_value"] = self.equilibrium.value
        return MappingProxyType(cert)

    def to_json_dict(self) -> dict:
        """The fields' JSON form, the padded matrix's meta, the reference pair and certificate."""
        d = field_dict(self)
        d["padded"]["meta"] = _provenance(self.base.spec, False)
        d["reference_pair"] = self.reference_pair.to_json_dict()
        d["certificate"] = dict(self.certificate)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PaddedGameRecord":
        """The record its writer rebuilds from d's base, kind, padded size and
        the shuffle flag its id names, if d equals its JSON form: a padded
        record reads back only as pad writes it (see the module docstring)."""
        try:
            base = GameRecord.from_json_dict(d["base"])
            kind, target_n, rid = d.get("kind"), d["padded"]["n"], d.get("id")
            identity = d.get("row_map") == d.get("col_map") == list(range(base.n))
        except TypeError as exc:  # d or its padded is not a JSON object
            raise ContractViolation(f"bad {cls.__name__}: {exc}") from None
        if d.get("schema") != cls.schema:
            raise ContractViolation(f"padded record {rid}: schema {d.get('schema')!r} is not "
                                    f"{cls.schema}; run `pad` again on its base games")
        if kind not in PAD_KINDS:
            raise ContractViolation(f"padded record {rid}: unknown kind {kind!r}")
        if type(target_n) is not int:
            raise ContractViolation(f"padded record {rid}: padded n {target_n!r} is not an int")
        if kind == "random":
            return _rebuilt("padded record", d, random_pad(base, target_n))
        shuffle = next((s for s in (False, True)
                        if _padded_id(kind, base, target_n, s) == rid), not identity)
        return _rebuilt("padded record", d, dominated_pad(base, target_n, shuffle))


def _pad_base_n(base: GameRecord, target_n: int) -> int:
    """base.n, once target_n is checked before any array of that size is built."""
    if target_n <= base.n:
        raise ContractViolation(f"target size {target_n} must exceed base size {base.n}")
    if target_n > MAX_N:
        raise ContractViolation(f"target size {target_n} must be at most {MAX_N}")
    return base.n


def _padded_id(kind: str, base: GameRecord, target_n: int, shuffle: bool) -> str:
    """A padded record's id: the digest of the recipe its entries are a pure function of."""
    return content_digest({"kind": kind, "base": base.id, "n": target_n,
                           "shuffle": bool(shuffle)})


def _padded_record(base: GameRecord, padded: np.ndarray, kind: str,
                   row_map, col_map, shuffle: bool) -> PaddedGameRecord:
    """The record of padded entries that hold base at (row_map, col_map)."""
    return PaddedGameRecord(
        base=base,
        padded=PayoffMatrix(padded),
        kind=kind,
        row_map=tuple(int(i) for i in row_map),
        col_map=tuple(int(j) for j in col_map),
        id=_padded_id(kind, base, len(padded), shuffle),
    )


def dominated_pad(base: GameRecord, target_n: int, shuffle: bool = False) -> PaddedGameRecord:
    """Pad with strictly dominated actions; the equilibrium is preserved.

    New rows sit strictly below the base minimum (base_min - u) everywhere,
    including at new-column intersections; new columns sit strictly above
    the base maximum (base_max + u) on original rows; u is integer-uniform
    on {1..5} per entry. Draw order: the new-column block (k x (N-k)), then
    the new-row block ((N-k) x N), then, when shuffle is set, the row and
    column position permutations. Every record is re-verified before it is
    returned, by reading its certificate: the zero-extended
    ``base.equilibrium`` must certify on the padded game and the record's
    own ``equilibrium`` value (``padded_value``) must match its value at
    1e-8, else ConstructionError. That solve stays cached on the record.
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
    rec = _padded_record(base, padded, "dominated", row_pos[:k], col_pos[:k], shuffle)
    cert = rec.certificate
    value_gap = abs(cert["padded_value"] - cert["base_value"])
    if cert["reference_exploit"] > CERT_TOL or value_gap > CERT_TOL:
        raise ConstructionError(
            f"dominated pad failed verification (exploit {cert['reference_exploit']:.3e}, "
            f"value gap {value_gap:.3e})",
            instance=padded,
        )
    return rec


def random_pad(base: GameRecord, target_n: int) -> PaddedGameRecord:
    """Negative control: same base block, random surround, no preservation.

    The base block occupies the top-left k x k corner; every other entry is
    drawn from the base spec's distribution (one full (N, N) block is drawn
    and the corner overwritten, so the surround is a fixed function of the
    stream). The reference pair is still the zero-extended
    ``base.equilibrium``, but nothing certifies it here: both it and its
    exploitability on the padded game (the certificate) are derived only
    when read.
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
    return _padded_record(base, padded, "random", range(k), range(k), False)
