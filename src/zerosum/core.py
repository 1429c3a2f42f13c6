"""Core types and the exploitability certificate for zero-sum matrix games.

A game is an n x n real matrix A: the row player receives A[i, j], the
column player -A[i, j]. For mixed strategies p (row) and q (column) the
exploitability certificate is

    row_regret = max_i (Aq)_i - p'Aq        (best row deviation)
    col_regret = p'Aq - min_j (p'A)_j       (best column deviation)
    exploit    = row_regret + col_regret

which is zero exactly at Nash equilibria. The normalized form divides by
2 * (max A - min A) and the scalar reward is 1 - normalized, so rewards
live in [0, 1] and are invariant under positive affine payoff changes.

All value types are immutable after construction; arrays are stored
read-only.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

from ._kernels import exploit_terms
from .errors import ContractViolation, DegenerateMatrixError

SIMPLEX_SUM_TOL = 1e-9    # |sum - 1| allowed for a valid mixed strategy
PROJECT_MIN_MASS = 1e-12  # post-clamp mass below this cannot be renormalized
_HALF_FLOAT_MAX = sys.float_info.max / 2


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no whitespace; floats via repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_digest(obj) -> str:
    """Stable 16-hex-char content hash of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


# the values a field accepts, keyed by its annotation's text up to any "["
# (modules defer annotations, so a field's type is a string), and for
# "tuple[T, ...]" the values its items accept, keyed by T; "T | None" accepts
# what T accepts and None; other fields, such as a nested record, are not
# checked here
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str,
               "tuple": tuple, "dict": dict}


@functools.cache
def _json_fields(cls) -> tuple:
    """(name, accepted types or None, accepted item types or None, item record
    class or None, writer or None) for each field of dataclass cls. A field
    whose annotation is no JSON type holds a record, and a "tuple[R, ...]"
    whose R names a class of cls's module holds records of R."""
    module = vars(sys.modules[cls.__module__])
    out = []
    for f in fields(cls):
        scalar = f.type.removesuffix(" | None")
        head, _, items = scalar.partition("[")
        want = _JSON_TYPES.get(head)
        if want and scalar != f.type:
            want = (want, type(None))  # isinstance reads nested tuples
        item = items.partition(",")[0] if head == "tuple" else ""
        record = module.get(item) if item not in _JSON_TYPES else None
        write = {"tuple": _record_forms if record else list, "dict": dict}.get(
            head, None if head in _JSON_TYPES else operator.methodcaller("to_json_dict"))
        out.append((f.name, want, _JSON_TYPES.get(item), record, write))
    return tuple(out)


def _record_forms(records) -> list:
    return [record.to_json_dict() for record in records]


def _check_items(name: str, values: tuple, want) -> None:
    """TypeError naming the first of values whose type is not one of want."""
    bad = {kind for kind in set(map(type, values))
           if not issubclass(kind, want) or (kind is bool and want is not bool)}
    if bad:
        item = next(v for v in values if type(v) in bad)
        raise TypeError(f"{name} has an item of the wrong type: {item!r}")


def field_dict(obj) -> dict:
    """A dataclass's JSON form: its class's schema tag, if any, then each field by name.

    How a value is written is chosen by its field's annotation: a record as
    its ``to_json_dict()``, a tuple as a list (of its items' JSON forms when
    they are records), a dict as a copy, so that the form equals its JSON
    text read back, and a bool, int, float, str or None as it is.
    """
    schema = getattr(type(obj), "schema", None)
    out = {} if schema is None else {"schema": schema}
    for name, _, _, _, write in _json_fields(type(obj)):
        value = getattr(obj, name)
        out[name] = write(value) if write and value is not None else value
    return out


class CheckReport:
    """A check's JSON form: kind, fields, then the verdict ok. A check report is a
    frozen dataclass that sets kind (as a class attribute or a field) and ok."""

    kind: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **field_dict(self), "ok": self.ok}


def from_fields(cls, d):
    """Build dataclass cls from its JSON form d, the inverse of field_dict.

    When cls declares a schema, d must carry it as its "schema" tag. Every
    JSON array becomes a tuple, and each item of a "tuple[R, ...]" field of
    records is read by R.from_json_dict. A missing, unknown or wrongly typed
    key, or a wrongly typed item of a "tuple[T, ...]" field, raises
    ContractViolation.
    """
    if not isinstance(d, dict):
        raise ContractViolation(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    schema = getattr(cls, "schema", None)
    if schema is not None:
        if d.get("schema") != schema:
            raise ContractViolation(f"expected schema {schema}, got {d.get('schema')!r}")
        d = {k: v for k, v in d.items() if k != "schema"}
    kwargs = {key: tuple(value) if isinstance(value, list) else value for key, value in d.items()}
    try:
        for name, want, item_want, record, _ in _json_fields(cls):
            if want and name in kwargs:
                value = kwargs[name]
                # bool is an int subclass, but true is no number in a record
                if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
                    raise TypeError(f"{name} has the wrong type: {value!r}")
                if record is not None and value is not None:
                    kwargs[name] = tuple(map(record.from_json_dict, value))
                elif item_want and value is not None:
                    _check_items(name, value, item_want)
        return cls(**kwargs)
    except TypeError as exc:
        raise ContractViolation(f"bad {cls.__name__}: {exc}") from None


def _float_array(values, what: str) -> np.ndarray:
    """np.asarray(values, float64) of an array or of (nested) lists of numbers.

    An int beyond float range is a ContractViolation, and so is a str or a
    bool among the list items: numpy would convert "0.5" and true, but a
    JSON record holds numbers there. An ndarray is converted unchecked.
    """
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ContractViolation(f"{what} must be finite, got an int beyond float range") from None
    if not isinstance(values, np.ndarray):
        items = [values]
        for _ in range(arr.ndim):  # the conversion proved the nesting depth
            items = itertools.chain.from_iterable(items)
        bad = next((k for k in set(map(type, items)) if issubclass(k, (str, bool))), None)
        if bad is not None:
            raise ContractViolation(f"{what} must be numbers, got a {bad.__name__}")
    return arr


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PayoffMatrix:
    """Immutable n x n payoff matrix for the row player: its checked entries."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _float_array(self.entries, "payoff entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ContractViolation(f"payoff matrix must be square 2-D, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ContractViolation("payoff matrix needs n >= 2")
        if not np.isfinite(arr).all():
            raise ContractViolation("payoff entries must be finite")
        object.__setattr__(self, "entries", _frozen_array(arr))

    @classmethod
    def _owning(cls, entries: np.ndarray) -> "PayoffMatrix":
        """The matrix of entries, a read-only float64 square array (n >= 2, all
        finite) that its caller has checked; it is not checked or copied again.
        Only the game-record builder and normalized_stack's callers build this way."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", entries)
        return matrix

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def span(self) -> float:
        """max - min of the entries, computed once: the matrix is immutable."""
        return float(self.entries.max() - self.entries.min())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "entries": self.entries.tolist()}


def is_strategy(arr: np.ndarray) -> np.ndarray:
    """Whether MixedStrategy's rules hold for each vector along the last axis
    of arr: all weights finite and nonnegative, summing within
    SIMPLEX_SUM_TOL of 1. A boolean array over the leading axes (a scalar
    for a single vector)."""
    finite = np.isfinite(arr).all(axis=-1)
    nonnegative = (arr >= 0.0).all(axis=-1)
    return finite & nonnegative & (np.abs(arr.sum(axis=-1) - 1.0) <= SIMPLEX_SUM_TOL)


def _check_weights(arr: np.ndarray) -> None:
    """ContractViolation unless float64 arr is a nonempty vector of finite,
    nonnegative weights summing within SIMPLEX_SUM_TOL of 1: the one rule
    every MixedStrategy is checked by."""
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ContractViolation(f"strategy must be a nonempty vector, got shape {arr.shape}")
    values = arr.tolist()  # checked on Python floats, as project_to_simplex does
    if not all(map(math.isfinite, values)):
        raise ContractViolation("strategy weights must be finite")
    if not min(values) >= 0.0:
        raise ContractViolation("strategy weights must be nonnegative")
    mass = _mass(arr, max(values))
    if not abs(mass - 1.0) <= SIMPLEX_SUM_TOL:
        raise ContractViolation(f"strategy weights sum to {mass!r}, not 1")


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability vector on the action simplex."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _float_array(self.probs, "strategy weights")
        _check_weights(arr)
        object.__setattr__(self, "probs", _frozen_array(arr))

    @classmethod
    def _checked(cls, probs: np.ndarray) -> "MixedStrategy":
        """The strategy of probs, a new float64 vector its caller owns: checked
        by the rule __post_init__ applies, then frozen in place, not copied."""
        _check_weights(probs)
        return cls._owning(probs)

    @classmethod
    def _owning(cls, probs: np.ndarray) -> "MixedStrategy":
        """The strategy of probs, a new float64 vector its caller has checked.

        probs is frozen in place and not checked again; only
        project_to_simplex, which checks its vector once, and _checked build
        this way.
        """
        probs.setflags(write=False)
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "probs", probs)
        return strategy

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "MixedStrategy":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def one_hot(cls, n: int, index: int) -> "MixedStrategy":
        v = np.zeros(n)
        v[index] = 1.0
        return cls(v)


@dataclass(frozen=True, eq=False)
class StrategyPair:
    """Row and column mixed strategies proposed together."""

    row: MixedStrategy
    col: MixedStrategy

    def to_json_dict(self) -> dict:
        return {"row": self.row.probs.tolist(), "col": self.col.probs.tolist()}


@dataclass(frozen=True)
class ExploitReport:
    """Exploitability certificate for one (matrix, pair) evaluation."""

    row_regret: float
    col_regret: float
    exploit: float
    normalized: float
    reward: float
    value: float


def normalize_payoffs(matrix: PayoffMatrix) -> PayoffMatrix:
    """Rescale payoffs to A <- 2A / (max A - min A): normalized_stack on a stack of one."""
    return PayoffMatrix._owning(normalized_stack(matrix.entries[None])[0])


def normalized_stack(stack: np.ndarray) -> np.ndarray:
    """Each matrix of a (G, n, n) stack of finite float64 matrices rescaled to
    A <- 2A / (max A - min A), as a new read-only stack.

    A constant matrix has no scale to normalize, so entry (0, 0) is bumped
    by +1 first; the result has span 2 up to a few units of rounding. A
    span that overflows float range (entries near +-1e308), or one so small
    that 2 / span does (a subnormal span, or a constant matrix whose bump
    is lost to rounding), raises ContractViolation naming the first such
    matrix. The spans are checked on Python floats, so no check warns, and
    each matrix is scaled elementwise: its bits do not depend on the stack.
    A scaled entry is at most 2 max|A| / span, and the span of two distinct
    floats keeps that far below float max, so every result is finite.
    """
    arr = np.array(stack)
    rows = arr.reshape(len(arr), -1)
    scales = []
    for g, (top, bottom) in enumerate(zip(np.maximum.reduce(rows, axis=1).tolist(),
                                          np.minimum.reduce(rows, axis=1).tolist())):
        if top == bottom:
            rows[g, 0] += 1.0
            top, bottom = float(rows[g].max()), float(rows[g].min())
        span = top - bottom
        if not math.isfinite(span):
            raise ContractViolation(
                f"payoff span {top!r} - {bottom!r} overflows float range; cannot normalize"
            )
        if not (span > 0.0 and math.isfinite(2.0 / span)):
            raise ContractViolation(
                f"payoff span {span!r} is too small: 2 / span overflows float range")
        scales.append(2.0 / span)
    rows *= np.array(scales)[:, None]
    arr.flags.writeable = False
    return arr


def regrets(matrix: PayoffMatrix, pair: StrategyPair) -> tuple[float, float, float]:
    """(row_regret, col_regret, value) of a pair, from one exploit_terms pass.

    The one exploitability residual: the reward, the solver certificates
    and the theorem checks all read it. Each regret is clamped at 0, a NaN
    term included. Raises ContractViolation on dimension mismatch.
    """
    n = matrix.n
    if pair.row.n != n or pair.col.n != n:
        raise ContractViolation(
            f"strategy lengths ({pair.row.n}, {pair.col.n}) do not match matrix size {n}"
        )
    max_aq, min_pa, value = exploit_terms(matrix.entries, pair.row.probs, pair.col.probs)
    return max(0.0, max_aq - value), max(0.0, value - min_pa), value


def raw_exploit(matrix: PayoffMatrix, pair: StrategyPair) -> float:
    """Unnormalized exploitability row_regret + col_regret, constant matrices included."""
    row_regret, col_regret, _ = regrets(matrix, pair)
    return row_regret + col_regret


def exploitability(matrix: PayoffMatrix, pair: StrategyPair) -> ExploitReport:
    """Score a strategy pair against a game.

    Raises DegenerateMatrixError on a constant matrix (the normalized form
    divides by the payoff span; normalize_payoffs first) and
    ContractViolation on dimension mismatch.
    """
    row_regret, col_regret, value = regrets(matrix, pair)
    span = matrix.span
    if span <= 0.0:
        raise DegenerateMatrixError(
            "exploitability of a constant matrix is undefined; apply normalize_payoffs first"
        )
    exploit = row_regret + col_regret
    normalized = exploit / (2.0 * span)
    return ExploitReport(
        row_regret=row_regret,
        col_regret=col_regret,
        exploit=exploit,
        normalized=normalized,
        reward=1.0 - normalized,
        value=value,
    )


def _check_permutation(perm, n: int) -> np.ndarray:
    arr = np.asarray(perm, dtype=np.int64)
    if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
        raise ContractViolation(f"not a permutation of range({n}): {perm!r}")
    return arr


def apply_permutation(matrix: PayoffMatrix, row_perm, col_perm) -> PayoffMatrix:
    """Relabel actions: result[i, j] = A[row_perm[i], col_perm[j]]."""
    rp = _check_permutation(row_perm, matrix.n)
    cp = _check_permutation(col_perm, matrix.n)
    return PayoffMatrix(matrix.entries[np.ix_(rp, cp)])


def permute_pair(pair: StrategyPair, row_perm, col_perm) -> StrategyPair:
    """Relabel a strategy pair consistently with apply_permutation."""
    rp = _check_permutation(row_perm, pair.row.n)
    cp = _check_permutation(col_perm, pair.col.n)
    return StrategyPair(
        row=MixedStrategy(pair.row.probs[rp]),
        col=MixedStrategy(pair.col.probs[cp]),
    )


def apply_affine(matrix: PayoffMatrix, scale: float, shift: float) -> PayoffMatrix:
    """Map payoffs to scale * A + shift with scale > 0.

    Positive affine maps preserve best responses, equilibria, and the
    normalized exploitability of any fixed pair.
    """
    if not (scale > 0.0) or not np.isfinite(scale) or not np.isfinite(shift):
        raise ContractViolation(f"affine map needs finite scale > 0, got ({scale}, {shift})")
    return PayoffMatrix(matrix.entries * scale + shift)


def _mass(arr: np.ndarray, top: float) -> float:
    """float(arr.sum()) of weights none above top; a sum past float max is inf without a warning."""
    # no partial sum of n weights each below max / 2n reaches float max
    if top * arr.shape[0] < _HALF_FLOAT_MAX:
        return float(arr.sum())
    with np.errstate(over="ignore"):
        return float(arr.sum())


def project_to_simplex(weights) -> MixedStrategy | None:
    """Clamp negatives to zero and renormalize; None if nothing remains.

    Vectors that are already valid simplex points (nonnegative, sum within
    1e-9 of 1) are returned unchanged, making projection idempotent and
    serialize/parse round trips exact. Non-finite weights, and finite ones
    whose clamped mass overflows to inf, give None.

    The weights are checked once, on the Python floats of one tolist():
    finiteness by math.isfinite and the sign by min() >= 0.0. Sums are
    numpy's arr.sum(), so the tolerance decision and the divisor keep the
    bits MixedStrategy's own check would see; np.errstate is entered only
    when max * n could overflow. The strategy is built without MixedStrategy
    repeating the checks: it owns a read-only copy of a valid vector, or
    the clamped vector over its mass. That quotient is finite, nonnegative
    and sums to 1 within a few ulps times log n, far inside SIMPLEX_SUM_TOL.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        return None
    values = arr.tolist()
    if not all(map(math.isfinite, values)):
        return None
    top = max(values)
    if min(values) >= 0.0 and abs(_mass(arr, top) - 1.0) <= SIMPLEX_SUM_TOL:
        return MixedStrategy._owning(np.array(arr))
    clamped = np.maximum(arr, 0.0)  # also turns -0.0 into +0.0
    mass = _mass(clamped, top)
    if not PROJECT_MIN_MASS < mass < math.inf:
        return None
    return MixedStrategy._owning(clamped / mass)
