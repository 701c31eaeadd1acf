from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.backends.protocol import (
    ENV_AUTH_TOKEN,
    GenerateRequest,
    GenerateResponse,
    MaskProbsRequest,
    MaskProbsResponse,
    RemoteBackend,
)
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.errors import ProtocolError, TransportError

from stub_server import expected_probs, expected_text, run_stub


# ---------------------------------------------------------------------------
# message validation

def test_mask_probs_request_requires_exactly_one_mask():
    with pytest.raises(ProtocolError):
        MaskProbsRequest(prompt="no mask here", candidates=("a",))
    with pytest.raises(ProtocolError):
        MaskProbsRequest(prompt="[MASK] and [MASK]", candidates=("a",))
    ok = MaskProbsRequest(prompt="one [MASK] slot", candidates=("a", "b"))
    assert ok.to_json() == {"prompt": "one [MASK] slot", "candidates": ["a", "b"]}


def test_mask_probs_request_requires_candidates():
    with pytest.raises(ProtocolError):
        MaskProbsRequest(prompt="a [MASK] b", candidates=())


@pytest.mark.parametrize("payload", [
    {},
    {"prompt": "x [MASK]"},
    {"prompt": 7, "candidates": ["a"]},
    {"prompt": "x [MASK]", "candidates": "a"},
    {"prompt": "x [MASK]", "candidates": ["a", 3]},
])
def test_mask_probs_request_from_json_rejects_bad_payloads(payload):
    with pytest.raises(ProtocolError):
        MaskProbsRequest.from_json(payload)


@pytest.mark.parametrize("probs", [[-0.1], [1.5], [float("nan")], [float("inf")]])
def test_mask_probs_response_rejects_out_of_range(probs):
    with pytest.raises(ProtocolError):
        MaskProbsResponse(probs=tuple(probs))


@pytest.mark.parametrize("payload", [
    {},
    {"probs": "high"},
    {"probs": [0.5, "x"]},
    {"probs": [0.5, True]},
])
def test_mask_probs_response_from_json_rejects_bad_payloads(payload):
    with pytest.raises(ProtocolError):
        MaskProbsResponse.from_json(payload)


def test_generate_request_validates_max_tokens():
    with pytest.raises(ProtocolError):
        GenerateRequest(prompt="x", max_tokens=0)
    with pytest.raises(ProtocolError):
        GenerateRequest.from_json({"prompt": "x", "max_tokens": True})
    with pytest.raises(ProtocolError):
        GenerateRequest.from_json({"prompt": "x", "max_tokens": "many"})
    assert GenerateRequest.from_json({"prompt": "x", "max_tokens": 4}).max_tokens == 4


def test_generate_response_requires_text():
    with pytest.raises(ProtocolError):
        GenerateResponse.from_json({"output": "x"})
    assert GenerateResponse.from_json({"text": "ok"}).text == "ok"


@settings(max_examples=100, deadline=None)
@given(
    prefix=st.text(max_size=30).filter(lambda t: "[MASK]" not in t),
    suffix=st.text(max_size=30).filter(lambda t: "[MASK]" not in t),
    candidates=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6),
)
def test_mask_probs_request_round_trips_through_json(prefix, suffix, candidates):
    original = MaskProbsRequest(prompt=f"{prefix}[MASK]{suffix}",
                                candidates=tuple(candidates))
    assert MaskProbsRequest.from_json(json.loads(json.dumps(original.to_json()))) == original


@settings(max_examples=100, deadline=None)
@given(probs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=14))
def test_mask_probs_response_round_trips_through_json(probs):
    original = MaskProbsResponse(probs=tuple(probs))
    parsed = MaskProbsResponse.from_json(json.loads(json.dumps(original.to_json())))
    assert parsed == original


# ---------------------------------------------------------------------------
# remote backend against the stub server

def test_remote_backend_round_trips():
    with run_stub() as server:
        backend = RemoteBackend(server.url)
        prompt = "is [MASK] related"
        probs = backend.mask_probs(prompt, ("yes", "no"))
        assert list(probs) == expected_probs(prompt, 2)
        text = backend.generate("continue this", max_tokens=4)
        assert text == expected_text("continue this")


def test_remote_backend_transport_error_on_500():
    with run_stub() as server:
        server.failure_mode = "status-500"
        backend = RemoteBackend(server.url)
        with pytest.raises(TransportError):
            backend.mask_probs("a [MASK] b", ("x",))


def test_remote_backend_transport_error_on_unreachable_host():
    backend = RemoteBackend("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(TransportError):
        backend.generate("hello")


@pytest.mark.parametrize("mode,failing", [
    ("non-json", "mask_probs"),
    ("missing-field", "mask_probs"),
    ("wrong-length", "mask_probs"),
    ("out-of-range", "mask_probs"),
    ("non-json", "generate"),
    ("missing-field", "generate"),
])
def test_remote_backend_protocol_error_on_malformed_response(mode, failing):
    with run_stub() as server:
        server.failure_mode = mode
        backend = RemoteBackend(server.url)
        with pytest.raises(ProtocolError):
            if failing == "mask_probs":
                backend.mask_probs("a [MASK] b", ("x", "y"))
            else:
                backend.generate("go")


def test_remote_backend_sends_configured_bearer_token(monkeypatch):
    monkeypatch.delenv(ENV_AUTH_TOKEN, raising=False)
    with run_stub() as server:
        RemoteBackend(server.url, auth_token="cfg-token").generate("x")
        _, headers, _ = server.requests[-1]
        assert headers.get("Authorization") == "Bearer cfg-token"


def test_remote_backend_env_token_overrides_config(monkeypatch):
    monkeypatch.setenv(ENV_AUTH_TOKEN, "env-token")
    with run_stub() as server:
        RemoteBackend(server.url, auth_token="cfg-token").generate("x")
        _, headers, _ = server.requests[-1]
        assert headers.get("Authorization") == "Bearer env-token"


def test_remote_backend_omits_header_without_token(monkeypatch):
    monkeypatch.delenv(ENV_AUTH_TOKEN, raising=False)
    with run_stub() as server:
        RemoteBackend(server.url).generate("x")
        _, headers, _ = server.requests[-1]
        assert "Authorization" not in headers


def test_remote_backend_validates_request_before_sending():
    backend = RemoteBackend("http://127.0.0.1:9")  # would fail if contacted
    with pytest.raises(ProtocolError):
        backend.mask_probs("no mask", ("x",))


# ---------------------------------------------------------------------------
# scripted backend

def _script() -> dict:
    return {
        "mask_probs": {
            "rules": [
                {"contains": "alpha", "probs": [0.9, 0.1]},
                {"contains": ["beta", "gamma"], "probs": [0.2, 0.8]},
                {"sha256": hashlib.sha256(b"exact [MASK] prompt").hexdigest(),
                 "probs": [0.5, 0.5]},
            ],
            "default": {"probs": [0.0, 0.0]},
        },
        "generate": {
            "rules": [{"contains": "pair one", "text": "supporting"}],
            "default": {"text": "unrelated"},
        },
    }


def test_scripted_backend_matches_rules_in_order():
    backend = ScriptedBackend(_script())
    assert backend.mask_probs("has alpha inside", ("a", "b")) == (0.9, 0.1)
    assert backend.mask_probs("beta then gamma", ("a", "b")) == (0.2, 0.8)
    assert backend.mask_probs("gamma alone", ("a", "b")) == (0.0, 0.0)
    assert backend.mask_probs("exact [MASK] prompt", ("a", "b")) == (0.5, 0.5)
    assert backend.generate("about pair one here") == "supporting"
    assert backend.generate("anything else") == "unrelated"
    assert [c[0] for c in backend.calls] == ["mask_probs"] * 4 + ["generate"] * 2


def test_scripted_backend_errors_without_matching_rule_or_default():
    backend = ScriptedBackend({"mask_probs": {"rules": []}})
    with pytest.raises(ProtocolError):
        backend.mask_probs("anything", ("a",))


def test_scripted_backend_rejects_wrong_probs_length():
    backend = ScriptedBackend(_script())
    with pytest.raises(ProtocolError):
        backend.mask_probs("has alpha inside", ("a", "b", "c"))


def test_scripted_backend_rejects_out_of_range_probs():
    backend = ScriptedBackend({"mask_probs": {"default": {"probs": [1.2]}}})
    with pytest.raises(ProtocolError):
        backend.mask_probs("x", ("a",))


def test_scripted_backend_rejects_non_string_generation():
    backend = ScriptedBackend({"generate": {"default": {"text": 3}}})
    with pytest.raises(ProtocolError):
        backend.generate("x")


def test_scripted_backend_rejects_rule_without_matcher():
    backend = ScriptedBackend({"generate": {"rules": [{"text": "hi"}]}})
    with pytest.raises(ProtocolError):
        backend.generate("x")


def test_scripted_backend_rejects_rule_missing_payload():
    backend = ScriptedBackend({"generate": {"rules": [{"contains": "x"}]}})
    with pytest.raises(ProtocolError):
        backend.generate("x marks the spot")


def test_scripted_backend_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(_script()), encoding="utf-8")
    backend = ScriptedBackend.from_file(path)
    assert backend.generate("no match") == "unrelated"
