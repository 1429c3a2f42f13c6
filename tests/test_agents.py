"""Agents: response parsing taxonomy, prompt construction, built-in
strategies, and the remote HTTP agent against a scripted local server."""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from zerosum import (
    AgentResponse,
    BlockSolverAgent,
    ConfigError,
    ContractViolation,
    GameSpec,
    MaximinAgent,
    NoisyOracleAgent,
    OracleAgent,
    PayoffMatrix,
    RemoteModelAgent,
    RemoteModelConfig,
    UniformAgent,
    agents,
    build_prompt,
    dominated_pad,
    padding_cliff_experiment,
    parse_response,
    project_to_simplex,
    random_pad,
    raw_exploit,
    sample_game,
    serialize_pair,
    solve_zero_sum_lp,
    uniform_pair,
)
from zerosum import gen
from zerosum.core import MixedStrategy, StrategyPair, content_digest

GAME = sample_game(GameSpec(n=2, distribution="integer", seed=0))


@pytest.fixture(autouse=True)
def waits(monkeypatch) -> list:
    """The remote agent's backoff waits, recorded instead of slept."""
    recorded = []
    monkeypatch.setattr(agents, "_sleep", recorded.append)
    return recorded
GAME3 = sample_game(GameSpec(n=3, distribution="integer", seed=1))


class TestAgentResponse:
    def test_requires_exactly_one_outcome(self):
        with pytest.raises(ContractViolation):
            AgentResponse(raw_text="x", parsed=None, parse_error=None)
        ok = parse_response('{"row": [1, 0], "col": [0, 1]}', 2)
        with pytest.raises(ContractViolation):
            AgentResponse(raw_text="x", parsed=ok.parsed, parse_error="malformed")

    def test_rejects_unknown_error_label(self):
        with pytest.raises(ContractViolation):
            AgentResponse(raw_text="x", parsed=None, parse_error="timeout")


class TestParseTaxonomy:
    def test_clean_object(self):
        r = parse_response('{"row": [0.5, 0.5], "col": [0.25, 0.75]}', 2)
        assert r.parse_error is None
        assert np.array_equal(r.parsed.row.probs, np.array([0.5, 0.5]))
        assert np.array_equal(r.parsed.col.probs, np.array([0.25, 0.75]))

    def test_object_wrapped_in_prose(self):
        text = 'Sure! Here is my answer:\n{"row": [1, 0], "col": [0, 1]}\nGood luck.'
        r = parse_response(text, 2)
        assert r.parse_error is None
        assert r.raw_text == text

    def test_object_nested_inside_wrapper(self):
        text = '{"thoughts": "hmm", "answer": {"row": [1, 0], "col": [0, 1]}}'
        r = parse_response(text, 2)
        assert r.parse_error is None

    def test_no_json_is_malformed(self):
        assert parse_response("I refuse to answer.", 2).parse_error == "malformed"

    def test_only_row_is_missing_field(self):
        assert parse_response('{"row": [0.5, 0.5]}', 2).parse_error == "missing_field"

    def test_only_col_is_missing_field(self):
        assert parse_response('{"col": [0.5, 0.5]}', 2).parse_error == "missing_field"

    def test_wrong_length(self):
        t = '{"row": [0.3, 0.3, 0.4], "col": [0.5, 0.5]}'
        assert parse_response(t, 2).parse_error == "length_mismatch"

    def test_non_list_weights_malformed(self):
        assert parse_response('{"row": "half", "col": [1, 0]}', 2).parse_error == "malformed"

    def test_string_entries_malformed(self):
        t = '{"row": ["0.5", "0.5"], "col": [1, 0]}'
        assert parse_response(t, 2).parse_error == "malformed"

    def test_bool_entries_malformed(self):
        t = '{"row": [true, false], "col": [1, 0]}'
        assert parse_response(t, 2).parse_error == "malformed"

    def test_all_zero_weights_degenerate(self):
        t = '{"row": [0, 0], "col": [1, 0]}'
        assert parse_response(t, 2).parse_error == "degenerate_weights"

    def test_all_negative_weights_degenerate(self):
        t = '{"row": [-1, -2], "col": [1, 0]}'
        assert parse_response(t, 2).parse_error == "degenerate_weights"

    def test_nan_weights_degenerate(self):
        t = '{"row": [NaN, 1], "col": [1, 0]}'
        assert parse_response(t, 2).parse_error == "degenerate_weights"

    def test_overflowing_mass_degenerate_without_warning(self):
        for row in ("[1e308, 1e308, 1e308]", "[1e308, 1e308, -1]"):
            t = '{"row": ' + row + ', "col": [1, 0, 0]}'
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert parse_response(t, 3).parse_error == "degenerate_weights"

    def test_int_beyond_float_range_degenerate(self):
        # the smallest int float() rounds to 2**1024, a 401-digit power of
        # ten, and their negations are read as +-inf, as json reads 1e999
        for big in (2 ** 1024 - 2 ** 970, 10 ** 400, -(10 ** 400)):
            t = json.dumps({"row": [big, 1, 0], "col": [1, 0, 0]})
            assert parse_response(t, 3).parse_error == "degenerate_weights"

    def test_large_ints_keep_their_bits(self):
        for row in ([2 ** 1024 - 2 ** 970 - 1, 0, 0], [10 ** 300, 3, 2 ** 53 + 1]):
            r = parse_response(json.dumps({"row": row, "col": [1, 0, 0]}), 3)
            want = project_to_simplex(np.array(row, dtype=np.float64)).probs
            assert r.parsed.row.probs.tobytes() == want.tobytes()

    def test_negative_entries_clamped_then_renormalized(self):
        t = '{"row": [-0.2, 0.4, 0.8], "col": [1, 0, 0]}'
        r = parse_response(t, 3)
        assert r.parse_error is None
        assert r.parsed.row.probs[0] == 0.0
        assert r.parsed.row.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_weights_rescaled(self):
        r = parse_response('{"row": [2, 6], "col": [3, 1]}', 2)
        assert r.parse_error is None
        assert r.parsed.row.probs == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_first_candidate_gets_no_second_chance(self):
        # The first object carrying both keys is THE answer, even when a
        # later object would have parsed cleanly.
        t = '{"row": [1, 0, 0], "col": [1, 0, 0]} {"row": [1, 0], "col": [0, 1]}'
        assert parse_response(t, 2).parse_error == "length_mismatch"

    def test_error_precedence_length_over_malformed(self):
        t = '{"row": [1, 0, 0], "col": "x"}'
        assert parse_response(t, 2).parse_error == "length_mismatch"

    def test_serialize_parse_round_trip_exact(self):
        pair = solve_zero_sum_lp(GAME3.matrix).pair
        r = parse_response(serialize_pair(pair), 3)
        assert r.parse_error is None
        assert np.array_equal(r.parsed.row.probs, pair.row.probs)
        assert np.array_equal(r.parsed.col.probs, pair.col.probs)

    def test_serialize_parse_round_trip_property(self):
        # every valid pair reads back bytewise, -0.0 weights included
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        def valid(weights):
            try:
                return MixedStrategy(weights)
            except ContractViolation:
                return None

        def strategies(n):
            pure = st.integers(0, n - 1).map(lambda i: MixedStrategy.one_hot(n, i))
            weights = hnp.arrays(np.float64, n, elements=st.one_of(st.floats(0, 1), st.just(-0.0)))
            projected = weights.map(project_to_simplex)
            scaled = weights.map(lambda w: valid(w / w.sum()) if w.sum() > 0.0 else None)
            return st.one_of(pure, projected, scaled).filter(lambda s: s is not None)

        @st.composite
        def pairs(draw):
            n = draw(st.integers(2, 12))
            return StrategyPair(row=draw(strategies(n)), col=draw(strategies(n)))

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                             phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
        @hypothesis.given(pairs())
        def check(pair):
            r = parse_response(serialize_pair(pair), pair.row.n)
            assert r.parse_error is None
            assert r.parsed.row.probs.tobytes() == pair.row.probs.tobytes()
            assert r.parsed.col.probs.tobytes() == pair.col.probs.tobytes()

        check()


class TestPrompts:
    def test_contains_size_and_matrix(self):
        p = build_prompt(GAME3)
        assert "3 rows and 3 columns" in p
        assert json.dumps(GAME3.matrix.entries.tolist()) in p

    def test_digest_is_stable(self):
        assert content_digest(build_prompt(GAME)) == content_digest(build_prompt(GAME))

    def test_prompt_bytes_are_pinned(self):
        # remote audit logs record prompt_sha, so the prompt text must not drift
        pins = [
            (GameSpec(n=2, distribution="integer", seed=0),
             "74f1b7fc412dbb36b48c74ce4703fda5d95debc7f07d5e50402059bdb30f5fbc"),
            (GameSpec(n=5, distribution="gaussian", seed=7),
             "703bd3975f9b9a5578caff4e36b5adbe4db6cf4e99650d5146ef7c19515de902"),
        ]
        for spec, sha in pins:
            prompt = build_prompt(sample_game(spec))
            assert hashlib.sha256(prompt.encode()).hexdigest() == sha, spec


class TestBuiltinAgents:
    def test_uniform_agent(self):
        agent = UniformAgent()
        out = agent.propose(GAME3, 4)
        assert len(out) == 4
        assert all(r.parse_error is None for r in out)
        assert np.array_equal(out[0].parsed.row.probs, uniform_pair(3).row.probs)

    def test_maximin_agent_plays_pure(self):
        out = MaximinAgent().propose(GAME3, 2)
        assert out[0].parse_error is None
        assert sorted(out[0].parsed.row.probs.tolist()) == [0.0, 0.0, 1.0]

    def test_oracle_agent_is_exact(self):
        out = OracleAgent().propose(GAME3, 1)
        assert raw_exploit(GAME3.matrix, out[0].parsed) <= 1e-8

    def test_noisy_sigma_zero_matches_oracle(self):
        a = NoisyOracleAgent(sigma=0.0).propose(GAME3, 3)
        b = OracleAgent().propose(GAME3, 3)
        assert [r.raw_text for r in a] == [r.raw_text for r in b]

    def test_noisy_deterministic_per_seed(self):
        a = NoisyOracleAgent(sigma=0.3, seed=5).propose(GAME3, 4)
        b = NoisyOracleAgent(sigma=0.3, seed=5).propose(GAME3, 4)
        assert [r.raw_text for r in a] == [r.raw_text for r in b]
        c = NoisyOracleAgent(sigma=0.3, seed=6).propose(GAME3, 4)
        assert [r.raw_text for r in a] != [r.raw_text for r in c]

    def test_noisy_samples_differ_within_call(self):
        out = NoisyOracleAgent(sigma=0.3, seed=5).propose(GAME3, 4)
        assert len({r.raw_text for r in out}) == 4

    def test_noisy_rejects_negative_sigma(self):
        with pytest.raises(ContractViolation):
            NoisyOracleAgent(sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_noisy_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ContractViolation, match="noise scale must be finite"):
            NoisyOracleAgent(sigma=sigma)

    def test_block_agent_exact_on_dominated_pad(self):
        rec = dominated_pad(GAME3, 8)
        out = BlockSolverAgent(block_n=3).propose(rec, 1)
        assert raw_exploit(rec.padded, out[0].parsed) <= 1e-8


def _counting_lp(monkeypatch) -> list:
    """Patch the agents module's LP; return the list of block bytes it solves."""
    solved = []

    def counting(matrix):
        solved.append(matrix.entries.tobytes())
        return solve_zero_sum_lp(matrix)

    monkeypatch.setattr(agents, "solve_zero_sum_lp", counting)
    return solved


def _signed_zero_games():
    # rock-paper-scissors, once with +0.0 on the diagonal and once with -0.0:
    # equal values, different bytes. Each is the top-left block of a 4 x 4
    # record, so the block agent solves it rather than reading a record's
    # equilibrium, and the records are unnormalized, so the -0.0 bytes survive
    rps = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    signed = np.where(rps == 0, -0.0, rps)
    raws = [np.pad(block, (0, 1), constant_values=2.0).tolist() for block in (rps, signed)]
    return gen._game_records([GameSpec(n=4, seed=4, normalize=False)] * 2, raws)


class TestBlockAgentCache:
    def _games(self):
        bases = [sample_game(GameSpec(n=3, distribution="integer", seed=s)) for s in range(3)]
        dense = [sample_game(GameSpec(n=n, distribution="integer", seed=9)) for n in (5, 7)]
        pads = [pad for b in bases for pad in (
            dominated_pad(b, 5), dominated_pad(b, 5, shuffle=True), dominated_pad(b, 7),
            random_pad(b, 5), random_pad(b, 7))]
        # every base and pad seen twice, and the bases again after their pads
        return bases + pads + dense + _signed_zero_games() + pads + bases

    def test_a_shared_agent_answers_as_a_fresh_one(self, monkeypatch):
        games = self._games()
        assert len({g.matrix.entries[:3, :3].tobytes() for g in _signed_zero_games()}) == 2
        fresh = [BlockSolverAgent(3).propose(g, 2) for g in games]
        solved = _counting_lp(monkeypatch)
        shared = BlockSolverAgent(3)
        for game, want in zip(games, fresh):
            got = shared.propose(game, 2)
            assert [r.raw_text for r in got] == [r.raw_text for r in want]
            for a, b in zip(got, want):
                assert a.parsed.row.probs.tobytes() == b.parsed.row.probs.tobytes()
                assert a.parsed.col.probs.tobytes() == b.parsed.col.probs.tobytes()
        blocks = {g.matrix.entries[:3, :3].tobytes() for g in games}
        whole = {g.matrix.entries.tobytes() for g in games if g.n == 3}
        # each distinct block once, the -0.0 block apart from the +0.0 one;
        # a block that is a whole game is read from its record, not solved
        assert sorted(solved) == sorted(blocks - whole)
        assert whole < blocks and len(blocks) < len(games)

    def test_two_instances_share_nothing(self, monkeypatch):
        # games larger than the block, whose block the agent itself solves
        small, large = dominated_pad(GAME3, 6), dominated_pad(GAME3, 8)
        solved = _counting_lp(monkeypatch)
        first, second = BlockSolverAgent(3), BlockSolverAgent(3)
        first.propose(small, 1)
        first.propose(large, 1)
        assert len(solved) == 1
        second.propose(small, 1)
        assert len(solved) == 2

    def test_a_thread_pool_gives_the_serial_report(self):
        def run(jobs):
            return padding_cliff_experiment(
                BlockSolverAgent(2), base_n=2, targets=(4, 6), count=4, k=2, seed=5, jobs=jobs
            ).to_json_dict()

        assert run(2) == run(1)


class TestRemoteConfig:
    def test_defaults(self):
        cfg = RemoteModelConfig(endpoint="http://x", model="m")
        assert cfg.temperature == 0.7
        assert cfg.retries == 2
        assert cfg.auth_env == "ZEROSUM_API_TOKEN"
        # urllib reads the scheme in any case
        assert RemoteModelConfig(endpoint="HTTPS://x", model="m").endpoint == "HTTPS://x"

    def test_validation(self):
        with pytest.raises(ConfigError):
            RemoteModelConfig(endpoint="", model="m")
        with pytest.raises(ConfigError):
            RemoteModelConfig(endpoint="http://x", model="m", temperature=-1)
        with pytest.raises(ConfigError):
            RemoteModelConfig(endpoint="http://x", model="m", retries=-1)

    @pytest.mark.parametrize("edit", [
        {"temperature": math.nan}, {"temperature": math.inf},
        {"timeout": 0.0}, {"timeout": -1.0}, {"timeout": math.nan}, {"timeout": math.inf},
    ], ids=["nan temperature", "inf temperature", "zero timeout", "negative timeout",
            "nan timeout", "inf timeout"])
    def test_validation_refuses_what_a_request_cannot_use(self, edit):
        with pytest.raises(ConfigError, match="must be finite"):
            RemoteModelConfig(endpoint="http://x", model="m", **edit)

    @pytest.mark.parametrize("edit, error", [
        ({"max_tokens": 0}, "max_tokens must be >= 1, got 0"),
        ({"max_tokens": -5}, "max_tokens must be >= 1, got -5"),
        ({"endpoint": "x"}, "endpoint must be an http:// or https:// URL, got 'x'"),
        ({"endpoint": "ftp://x"}, "endpoint must be an http:// or https:// URL, got 'ftp://x'"),
    ], ids=["zero max_tokens", "negative max_tokens", "no scheme", "ftp scheme"])
    def test_validation_refuses_a_bad_endpoint_or_token_budget(self, edit, error):
        with pytest.raises(ConfigError, match=re.escape(error)):
            RemoteModelConfig(**{"endpoint": "http://x", "model": "m", **edit})

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            RemoteModelConfig.from_json_dict(
                {"endpoint": "http://x", "model": "m", "api_key": "nope"}
            )

    def test_the_readme_shows_every_key(self):
        # max_inflight once capped --jobs unseen: a key the README does not
        # show is a setting no user knows of
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        assert [f.name for f in dataclasses.fields(RemoteModelConfig)
                if f"`{f.name}`" not in text] == []

    @pytest.mark.parametrize("edit", [
        {"retries": 1.5}, {"timeout": None}, {"max_tokens": "10"}, {"model": 3},
    ], ids=["float retries", "null timeout", "string max_tokens", "int model"])
    def test_from_json_rejects_wrongly_typed_values(self, edit):
        with pytest.raises(ConfigError, match="has the wrong type"):
            RemoteModelConfig.from_json_dict({"endpoint": "http://x", "model": "m", **edit})


    @pytest.mark.parametrize("edit", [
        {"retries": True}, {"max_tokens": False},
        {"temperature": False}, {"timeout": True},
        {"retries": True, "max_tokens": True, "temperature": False},
    ], ids=["retries", "max_tokens", "temperature", "timeout", "three"])
    def test_from_json_rejects_bools_for_numbers(self, edit):
        # bool is an int subclass in Python, but a JSON true is no number
        with pytest.raises(ConfigError, match="has the wrong type: (True|False)"):
            RemoteModelConfig.from_json_dict({"endpoint": "http://x", "model": "m", **edit})


def _chat(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        with self.server.lock:
            self.server.requests.append(
                {"auth": self.headers.get("Authorization"), "body": body}
            )
            status, payload, *headers = (
                self.server.script.pop(0) if self.server.script else self.server.fallback
            )
            self.server.in_flight += 1
            self.server.peak = max(self.server.peak, self.server.in_flight)
            self.server.lock.notify_all()
            # held until `hold` requests were in flight at once, or 2 s pass
            self.server.lock.wait_for(lambda: self.server.peak >= self.server.hold, timeout=2)
            self.server.in_flight -= 1  # before the reply, so the client's next request comes later
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def scripted_server(script=None, fallback_content='{"row": [1, 0], "col": [0, 1]}', hold=1):
    """A local chat endpoint answering from script, then with fallback_content.
    A script entry is (status, payload) or (status, payload, {header: value}).

    server.peak is the most requests it held at once. Each request is held
    until the peak reaches `hold` (at most about 2 s), so a client that can
    send `hold` requests at once shows it.
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = list(script or [])
    server.fallback = (200, _chat(fallback_content))
    server.requests = []
    server.hold = hold
    server.in_flight = server.peak = 0
    server.lock = threading.Condition()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", server
    finally:
        server.shutdown()
        server.server_close()


class TestRemoteAgent:
    def test_happy_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZEROSUM_API_TOKEN", "sekret")
        audit = tmp_path / "audit.jsonl"
        with scripted_server() as (url, server):
            cfg = RemoteModelConfig(endpoint=url, model="test-model", retries=0)
            agent = RemoteModelAgent(cfg, audit_path=str(audit))
            out = agent.propose(GAME, 3)
        assert agent.name == "remote:test-model"
        assert len(out) == 3
        assert all(r.parse_error is None for r in out)
        assert agent.samples_attempted == 3
        assert agent.transport_failures == 0
        assert len(server.requests) == 3
        req = server.requests[0]
        assert req["auth"] == "Bearer sekret"
        assert req["body"]["model"] == "test-model"
        assert req["body"]["n"] == 1
        assert req["body"]["temperature"] == 0.7
        assert req["body"]["messages"][0]["content"] == build_prompt(GAME)

        rows = [json.loads(line) for line in audit.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["game_id"] == GAME.id
        assert rows[0]["prompt_sha"] == content_digest(build_prompt(GAME))
        assert [r["sample_index"] for r in rows] == [0, 1, 2]
        assert all(r["parse_error"] is None for r in rows)
        assert all(r["latency"] >= 0 for r in rows)

    def test_no_token_sends_no_auth_header(self, monkeypatch):
        monkeypatch.delenv("ZEROSUM_API_TOKEN", raising=False)
        with scripted_server() as (url, server):
            cfg = RemoteModelConfig(endpoint=url, model="m", retries=0)
            RemoteModelAgent(cfg).propose(GAME, 1)
        assert server.requests[0]["auth"] is None

    def test_retry_recovers_from_one_failure(self):
        for status in (500, 429):
            with scripted_server(script=[(status, {"error": "boom"})]) as (url, server):
                cfg = RemoteModelConfig(endpoint=url, model="m", retries=2)
                agent = RemoteModelAgent(cfg)
                out = agent.propose(GAME, 1)
            assert out[0].parse_error is None
            assert agent.transport_failures == 0
            assert len(server.requests) == 2

    def test_client_error_is_not_retried(self):
        for status in (400, 401, 404):
            with scripted_server(script=[(status, {"error": "bad request"})]) as (url, server):
                cfg = RemoteModelConfig(endpoint=url, model="m", retries=2)
                agent = RemoteModelAgent(cfg)
                out = agent.propose(GAME, 1)
            assert out[0].parse_error == "malformed"
            assert agent.transport_failures == 1
            assert len(server.requests) == 1

    def test_exhaustion_yields_invalid_not_crash(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        script = [(500, {"error": "down"})] * 4
        with scripted_server(script=script) as (url, server):
            cfg = RemoteModelConfig(endpoint=url, model="m", retries=1)
            agent = RemoteModelAgent(cfg, audit_path=str(audit))
            out = agent.propose(GAME, 2)
        assert len(out) == 2
        assert all(r.parse_error == "malformed" for r in out)
        assert all(r.raw_text == "" for r in out)
        assert agent.samples_attempted == 2
        assert agent.transport_failures == 2
        assert len(server.requests) == 4  # retries+1 per sample
        rows = [json.loads(line) for line in audit.read_text().splitlines()]
        assert all(r["parse_error"] == "malformed" for r in rows)

    @pytest.mark.parametrize("content", [None, 7, {"row": [1, 0], "col": [0, 1]}])
    def test_non_string_content_is_a_transport_failure(self, content):
        with scripted_server(fallback_content=content) as (url, server):
            cfg = RemoteModelConfig(endpoint=url, model="m", retries=1)
            agent = RemoteModelAgent(cfg)
            out = agent.propose(GAME, 2)
        assert all(r.parse_error == "malformed" for r in out)
        assert all(r.raw_text == "" for r in out)
        assert agent.transport_failures == 2
        assert len(server.requests) == 4  # retried like a transport error

    def test_an_audit_log_that_cannot_be_written_is_a_config_error(self, tmp_path):
        # a directory passes for a file until it is opened
        with scripted_server() as (url, _):
            cfg = RemoteModelConfig(endpoint=url, model="m", retries=0)
            agent = RemoteModelAgent(cfg, audit_path=str(tmp_path))
            with pytest.raises(ConfigError, match="cannot write audit log"):
                agent.propose(GAME, 1)

    def test_unparseable_content_is_invalid_but_not_transport(self):
        with scripted_server(fallback_content="no strategy here") as (url, _):
            cfg = RemoteModelConfig(endpoint=url, model="m", retries=0)
            agent = RemoteModelAgent(cfg)
            out = agent.propose(GAME, 2)
        assert all(r.parse_error == "malformed" for r in out)
        assert all(r.raw_text == "no strategy here" for r in out)
        assert agent.transport_failures == 0


class TestBackoff:
    """Retry r waits min(8, 0.5 * 2 ** (r - 1)) seconds; nothing waits before the
    first attempt, after the last, or after a 4xx other than 429."""

    def ask(self, script, retries):
        with scripted_server(script=script) as (url, server):
            agent = RemoteModelAgent(RemoteModelConfig(endpoint=url, model="m", retries=retries))
            agent.propose(GAME, 1)
        return agent.transport_failures, len(server.requests)

    def test_one_server_error_then_a_reply(self, waits):
        assert self.ask([(500, {"error": "boom"})], retries=2) == (0, 2)
        assert waits == [0.5]

    def test_exhausted_retries(self, waits):
        assert self.ask([(503, {"error": "busy"})] * 3, retries=2) == (1, 3)
        assert waits == [0.5, 1.0]

    def test_a_client_error_waits_for_nothing(self, waits):
        assert self.ask([(400, {"error": "bad request"})], retries=2) == (1, 1)
        assert waits == []

    def test_no_retries_no_waits(self, waits):
        assert self.ask([(500, {"error": "boom"})], retries=0) == (1, 1)
        assert waits == []

    def test_the_wait_is_capped(self, waits):
        assert self.ask([(500, {"error": "down"})] * 7, retries=6) == (1, 7)
        assert waits == [0.5, 1, 2, 4, 8, 8]


class TestRetryAfter:
    """A 429 or 503 whose Retry-After is whole seconds waits that long, capped at
    8 s, for that retry only; any other reply or header form keeps the schedule."""

    def ask(self, script, retries=2):
        with scripted_server(script=script) as (url, server):
            agent = RemoteModelAgent(RemoteModelConfig(endpoint=url, model="m", retries=retries))
            agent.propose(GAME, 1)
        return agent.transport_failures, len(server.requests)

    @pytest.mark.parametrize("status", [429, 503])
    def test_seconds_are_waited(self, waits, status):
        assert self.ask([(status, {"error": "busy"}, {"Retry-After": "3"})]) == (0, 2)
        assert waits == [3]

    def test_zero_seconds(self, waits):
        assert self.ask([(429, {"error": "busy"}, {"Retry-After": "0"})]) == (0, 2)
        assert waits == [0]

    @pytest.mark.parametrize("seconds", ["20", "9" * 5000], ids=["20", "5000 digits"])
    def test_the_wait_is_capped(self, waits, seconds):
        assert self.ask([(503, {"error": "busy"}, {"Retry-After": seconds})]) == (0, 2)
        assert waits == [8]

    def test_the_schedule_resumes_after_it(self, waits):
        script = [(503, {"error": "busy"}, {"Retry-After": "3"}), (500, {"error": "boom"}),
                  (429, {"error": "busy"})]
        assert self.ask(script, retries=3) == (0, 4)
        assert waits == [3, 1, 2]

    @pytest.mark.parametrize("value", ["Wed, 21 Oct 2015 07:28:00 GMT", "1.5", "-1", " ", "x"])
    def test_other_forms_keep_the_schedule(self, waits, value):
        assert self.ask([(429, {"error": "busy"}, {"Retry-After": value})]) == (0, 2)
        assert waits == [0.5]

    def test_other_statuses_keep_the_schedule(self, waits):
        assert self.ask([(500, {"error": "boom"}, {"Retry-After": "3"})]) == (0, 2)
        assert waits == [0.5]

    def test_a_client_error_still_stops(self, waits):
        assert self.ask([(400, {"error": "bad"}, {"Retry-After": "3"})]) == (1, 1)
        assert waits == []
