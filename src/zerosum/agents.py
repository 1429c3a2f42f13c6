"""Agents that propose strategy pairs, and the text interface around them.

An agent is anything with a ``name`` and ``propose(game, k) ->
list[AgentResponse]``. The oracle and noisy agents take a game record (a
``GameRecord`` or ``PaddedGameRecord``) and answer its own ``equilibrium``,
and so does the block solver when its block is the whole game; the others
read only its ``n``, ``matrix`` and ``id``. Built-in agents
(uniform, maximin, oracle, noisy, block solver) are deterministic given
(game, seed) and emit their pair through the same serialize -> parse path
used for model output, so every reward in the system is computed from raw
text.

The remote agent sends one fixed prompt (``build_prompt``): the game size,
the normalized payoff matrix as a nested JSON list of repr floats, and the
requested reply shape.

Parsing contract: the first JSON object literal in the text containing both
"row" and "col" keys is the candidate. The scan tries, in text order, each
"{" whose next character other than JSON whitespace (space, tab, newline,
carriage return) is '"': at any other "{" a JSON object either fails to
decode or is "{}", which holds neither key. It stops at the last '"row"',
'"col"' or backslash of the text, since an object holds either key only if
the key follows its "{", written literally or through a \\u escape.
Failures are classified as one of
  malformed          no parseable object with the keys / non-numeric weights
  missing_field      an object had exactly one of the two keys
  length_mismatch    vector lengths differ from the game size
  degenerate_weights projection failed (nonpositive or non-finite mass)
Weights may be negative or unnormalized; they are clamped to zero and
renormalized (core.project_to_simplex).
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass

import numpy as np

from .core import PayoffMatrix, StrategyPair, content_digest, from_fields, project_to_simplex
from .errors import ConfigError, ContractViolation
from .rng import child_seed, generator
from .solver import maximin_pure, solve_zero_sum_lp, uniform_pair

PARSE_ERRORS = ("malformed", "missing_field", "length_mismatch", "degenerate_weights")


@dataclass(frozen=True)
class AgentResponse:
    """One proposed answer: raw text plus its parse outcome."""

    raw_text: str
    parsed: StrategyPair | None
    parse_error: str | None

    def __post_init__(self):
        if (self.parsed is None) == (self.parse_error is None):
            raise ContractViolation("exactly one of parsed/parse_error must be set")
        if self.parse_error is not None and self.parse_error not in PARSE_ERRORS:
            raise ContractViolation(f"unknown parse error {self.parse_error!r}")


_PROMPT = (
    "You are playing a two-player zero-sum matrix game.\n"
    "The row player's payoff matrix has {n} rows and {n} columns:\n"
    "{matrix}\n"
    "Row entries are the row player's payoffs; the column player receives "
    "their negation.\n"
    'Reply with a JSON object {{"row": [...], "col": [...]}} giving mixed '
    "strategies for the row and column players.\n"
)


def build_prompt(game) -> str:
    """The fixed prompt: the game size and its matrix as a nested JSON list."""
    return _PROMPT.format(n=game.n, matrix=json.dumps(game.matrix.entries.tolist()))


_DECODER = json.JSONDecoder()
# "{", the whitespace the json scanner skips, then the quote opening a key
_KEYED_OBJECT_START = re.compile(r'\{[ \t\n\r]*"')


def _iter_json_objects(text: str):
    # an object can hold "row" or "col" only if that key follows its "{",
    # written literally or through a \u escape: no "{" after the last such
    # text can give the candidate or a partial object, so none is tried
    last = max(text.rfind('"row"'), text.rfind('"col"'), text.rfind("\\"))
    for match in _KEYED_OBJECT_START.finditer(text, 0, last + 1):
        try:
            obj, _ = _DECODER.raw_decode(text, match.start())
        except ValueError:
            continue
        yield obj


def _as_float(x) -> float:
    """float(x), or +-inf for an int beyond float range, as json reads 1e999."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


# the types json decodes a number to; bool, a subclass of int, is not one
_NUMBER_TYPES = frozenset((int, float))


def _as_weights(value, n: int):
    """(weights, error) for one strategy field, as json decoded it."""
    if not isinstance(value, list):
        return None, "malformed"
    if len(value) != n:
        return None, "length_mismatch"
    if not _NUMBER_TYPES.issuperset(map(type, value)):
        return None, "malformed"
    try:
        return np.array(value, dtype=np.float64), None
    except OverflowError:
        return np.array([_as_float(x) for x in value], dtype=np.float64), None


def parse_response(text: str, n: int) -> AgentResponse:
    """Extract and project the first {"row": ..., "col": ...} object."""
    candidate = None
    saw_partial = False
    for obj in _iter_json_objects(text):
        if not isinstance(obj, dict):
            continue
        has_row = "row" in obj
        has_col = "col" in obj
        if has_row and has_col:
            candidate = obj
            break
        if has_row or has_col:
            saw_partial = True
    if candidate is None:
        reason = "missing_field" if saw_partial else "malformed"
        return AgentResponse(raw_text=text, parsed=None, parse_error=reason)
    row_raw, row_err = _as_weights(candidate["row"], n)
    col_raw, col_err = _as_weights(candidate["col"], n)
    for err in ("length_mismatch", "malformed"):
        if row_err == err or col_err == err:
            return AgentResponse(raw_text=text, parsed=None, parse_error=err)
    row = project_to_simplex(row_raw)
    col = project_to_simplex(col_raw)
    if row is None or col is None:
        return AgentResponse(raw_text=text, parsed=None, parse_error="degenerate_weights")
    return AgentResponse(
        raw_text=text, parsed=StrategyPair(row=row, col=col), parse_error=None
    )


def _reply(row: np.ndarray, col: np.ndarray) -> str:
    """The text of a {"row", "col"} reply, each weight vector as a JSON list."""
    return json.dumps({"row": row.tolist(), "col": col.tolist()})


def serialize_pair(pair: StrategyPair) -> str:
    return _reply(pair.row.probs, pair.col.probs)


def _answer(pair: StrategyPair, n: int, k: int) -> list[AgentResponse]:
    """k copies of one pair's answer, read back through the text path."""
    return [parse_response(serialize_pair(pair), n)] * k


class UniformAgent:
    name = "uniform"

    def propose(self, game, k: int) -> list[AgentResponse]:
        return _answer(uniform_pair(game.n), game.n, k)


class MaximinAgent:
    name = "maximin"

    def propose(self, game, k: int) -> list[AgentResponse]:
        return _answer(maximin_pure(game.matrix), game.n, k)


class OracleAgent:
    """Answers a game record's own LP solution (``game.equilibrium``)."""

    name = "oracle"

    def propose(self, game, k: int) -> list[AgentResponse]:
        return _answer(game.equilibrium.pair, game.n, k)


class NoisyOracleAgent:
    """Oracle pair plus seeded gaussian noise of scale sigma, re-projected.

    The oracle pair is the game record's own LP solution (``game.equilibrium``).
    Sample s of game g perturbs with the stream keyed by
    child_seed(seed, int(game.id, 16), s); the raw (unprojected) weights are
    serialized so parsing does the projection, like model output.
    """

    def __init__(self, sigma: float, seed: int = 0):
        if not 0 <= sigma < math.inf:
            raise ContractViolation(f"noise scale must be finite and >= 0, got {sigma}")
        self.sigma = float(sigma) + 0.0  # -0.0 reads as 0.0, so one scale has one name
        self.seed = int(seed)
        self.name = f"noisy:{self.sigma!r}"

    def propose(self, game, k: int) -> list[AgentResponse]:
        pair = game.equilibrium.pair
        if self.sigma == 0.0:
            return _answer(pair, game.n, k)
        out = []
        gid = int(game.id, 16)
        for s in range(k):
            rng = generator(child_seed(self.seed, gid, s))
            row = pair.row.probs + self.sigma * rng.standard_normal(game.n)
            col = pair.col.probs + self.sigma * rng.standard_normal(game.n)
            out.append(parse_response(_reply(row, col), game.n))
        return out


class BlockSolverAgent:
    """Diagnostic fixture: solves the top-left block, zero-extends the pair.

    Emits an exact equilibrium whenever the game is a dominated pad of its
    top-left block and near-arbitrary strategies otherwise; used to show the
    padding-cliff harness separates its three conditions.

    A block that is the whole game (block_n >= n) is the game record's own
    matrix, so its pair is the record's ``equilibrium`` pair, solved once by
    the record for every reader; any smaller block is solved here. Each
    instance answers each distinct block once: it keeps the LP pair of every
    block it has solved or read, keyed by the block's raw bytes, and the
    parsed answer for every (game size, block) it has answered. A padded
    game whose top-left block is a base game it already saw reuses that
    pair. The answer is a fixed function of those bytes, so the cache
    changes no output bit; it lives and grows with the instance, and two
    instances share nothing. Two threads that miss on one block at once
    both solve it, or both read the record's equilibrium, which the record
    may then solve twice; either way to the same result.
    """

    def __init__(self, block_n: int = 3):
        if block_n < 2:
            raise ContractViolation(f"block size must be >= 2, got {block_n}")
        self.block_n = block_n
        self.name = f"block:{block_n}"
        self._pairs: dict = {}  # (b, block bytes) -> the block's LP pair
        self._answers: dict = {}  # (n, b, block bytes) -> the parsed answer

    def propose(self, game, k: int) -> list[AgentResponse]:
        n = game.n
        b = min(self.block_n, n)
        entries = game.matrix.entries[:b, :b]
        # the raw bytes are the LP's whole input; they keep -0.0 and 0.0 apart
        key = (b, entries.tobytes())
        resp = self._answers.get((n, *key))
        if resp is None:
            pair = self._pairs.get(key)
            if pair is None:
                # a block that is the whole game is the record's own matrix
                eq = game.equilibrium if b == n else solve_zero_sum_lp(PayoffMatrix(entries))
                pair = self._pairs[key] = eq.pair
            row = np.zeros(n)
            row[:b] = pair.row.probs
            col = np.zeros(n)
            col[:b] = pair.col.probs
            resp = self._answers[(n, *key)] = parse_response(_reply(row, col), n)
        return [resp] * k


# remote retry r (1-based) waits min(_BACKOFF_MAX_S, _BACKOFF_FIRST_S * 2 ** (r - 1)) seconds,
# or, after a 429 or 503 naming a Retry-After in seconds, min(_BACKOFF_MAX_S, that)
_BACKOFF_FIRST_S = 0.5
_BACKOFF_MAX_S = 8.0
_sleep = time.sleep  # every wait goes through this name, so tests can record the waits


def _retry_after(exc) -> float | None:
    """The wait, capped at _BACKOFF_MAX_S, that a 429 or 503 reply's Retry-After
    header names in whole seconds; None for any other reply or header form (an
    HTTP date is not read)."""
    if exc.code not in (429, 503) or exc.headers is None:
        return None
    value = (exc.headers.get("Retry-After") or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), _BACKOFF_MAX_S)  # float: no digit limit, a huge value is inf


@dataclass(frozen=True)
class RemoteModelConfig:
    """Chat-completion endpoint settings for a remote model agent."""

    endpoint: str
    model: str
    temperature: float = 0.7
    max_tokens: int = 1024
    timeout: float = 30.0
    retries: int = 2
    auth_env: str = "ZEROSUM_API_TOKEN"

    def __post_init__(self):
        if not self.endpoint:
            raise ConfigError("remote config needs an endpoint URL")
        if not self.endpoint.lower().startswith(("http://", "https://")):
            raise ConfigError(f"endpoint must be an http:// or https:// URL, got {self.endpoint!r}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.timeout < math.inf:
            raise ConfigError(f"timeout must be finite and > 0, got {self.timeout}")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")

    @classmethod
    def from_json_dict(cls, d: dict) -> "RemoteModelConfig":
        try:
            return from_fields(cls, d)
        except ContractViolation as exc:  # a missing, unknown or wrongly typed key
            raise ConfigError(str(exc)) from None


class RemoteModelAgent:
    """POSTs chat completions over urllib; retries, audits, never aborts a run.

    Each sample issues {model, messages, temperature, max_tokens, n: 1};
    the bearer token is read from the env var named by config.auth_env.
    Each retry first backs off (see _BACKOFF_FIRST_S), or waits what a 429
    or 503 reply's Retry-After asks, capped the same way. A 4xx reply other
    than 429 is not retried. A reply without a string message content is
    retried like a transport error. Samples that exhaust their retry
    budget, or stop on a 4xx reply, become invalid (malformed) responses
    and count toward transport_failures.
    """

    def __init__(self, config: RemoteModelConfig, audit_path: str | None = None):
        self.config = config
        self.audit_path = audit_path
        self.name = f"remote:{config.model}"
        self.transport_failures = 0
        self.samples_attempted = 0
        self._lock = threading.Lock()

    def _audit(self, record: dict):
        if self.audit_path is None:
            return
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            try:
                with open(self.audit_path, "a") as fh:
                    fh.write(line + "\n")
            except OSError as exc:  # permissions or a full disk
                raise ConfigError(f"cannot write audit log {self.audit_path!r}: {exc}") from None

    def _request(self, prompt: str) -> str:
        # imported on first use: urllib.request loads ssl, which runs
        # without a remote agent do not need
        import urllib.error
        import urllib.request
        from http.client import HTTPException

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
            "n": 1,
        }
        request = urllib.request.Request(
            self.config.endpoint, data=json.dumps(body).encode(), headers=headers
        )
        last_error = None
        wait = _BACKOFF_FIRST_S
        asked = None  # the wait the last reply's Retry-After named, if any
        for attempt in range(self.config.retries + 1):
            if attempt:
                _sleep(wait if asked is None else asked)
                wait = min(2 * wait, _BACKOFF_MAX_S)
                asked = None
            try:
                with urllib.request.urlopen(request, timeout=self.config.timeout) as resp:
                    status, payload = resp.status, resp.read()
                if status == 200:
                    content = json.loads(payload)["choices"][0]["message"]["content"]
                    if isinstance(content, str):
                        return content
                    last_error = f"non-string content {type(content).__name__}"
                else:
                    last_error = f"http {status}"
            except urllib.error.HTTPError as exc:  # urlopen raises on 4xx/5xx
                exc.close()
                last_error = f"http {exc.code}"
                asked = _retry_after(exc)
                if 400 <= exc.code < 500 and exc.code != 429:
                    break  # a client error repeats on every retry
            except (OSError, HTTPException, ValueError, KeyError, IndexError, TypeError) as exc:
                last_error = repr(exc)
        raise OSError(last_error or "transport failed")

    def propose(self, game, k: int) -> list[AgentResponse]:
        prompt = build_prompt(game)
        psha = content_digest(prompt)
        out = []
        for s in range(k):
            start = time.perf_counter()
            with self._lock:
                self.samples_attempted += 1
            try:
                text = self._request(prompt)
                resp = parse_response(text, game.n)
            except OSError:
                with self._lock:
                    self.transport_failures += 1
                resp = AgentResponse(raw_text="", parsed=None, parse_error="malformed")
            latency = time.perf_counter() - start
            self._audit(
                {
                    "game_id": game.id,
                    "sample_index": s,
                    "prompt_sha": psha,
                    "raw_text": resp.raw_text,
                    "parse_error": resp.parse_error,
                    "latency": latency,
                }
            )
            out.append(resp)
        return out

