from __future__ import annotations

import base64
import hashlib
import json
import re
import socket
import ssl
import time
from http.client import HTTPSConnection

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.backends.protocol import (
    ENV_AUTH_TOKEN,
    RemoteBackend,
    checked_probs,
    checked_text,
    generate_body,
    mask_probs_body,
)
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.errors import ConfigError, ProtocolError, TransportError

from recording import Recording
from stub_server import expected_probs, expected_text, run_socket_stub, run_stub


# ---------------------------------------------------------------------------
# message validation

def test_mask_probs_request_requires_exactly_one_mask():
    with pytest.raises(ProtocolError, match="exactly once"):
        mask_probs_body("no mask here", ("a",))
    with pytest.raises(ProtocolError, match="exactly once"):
        mask_probs_body("[MASK] and [MASK]", ("a",))
    ok = mask_probs_body("one [MASK] slot", ("a", "b"))
    assert ok == {"prompt": "one [MASK] slot", "candidates": ["a", "b"]}


def test_mask_probs_request_requires_candidates():
    with pytest.raises(ProtocolError, match="at least one candidate"):
        mask_probs_body("a [MASK] b", ())


@pytest.mark.parametrize("probs", [[-0.1], [1.5], [float("nan")], [float("inf")],
                                   [10 ** 400], [0.5, 2]])
def test_mask_probs_response_rejects_out_of_range(probs):
    # the value is shown as sent: a huge integer is never made a float
    with pytest.raises(ProtocolError, match=f"out of range: {re.escape(repr(probs[-1]))}$"):
        checked_probs(["w"] * len(probs), {"probs": probs})


@pytest.mark.parametrize("payload,message", [
    ({}, "missing field 'probs'"),
    ({"probs": "high"}, "field 'probs' must be list"),
    ({"probs": [0.5, "x"]}, "probs must be numbers"),
    ({"probs": [0.5, True]}, "probs must be numbers"),
    ([0.5], "payload must be an object"),
    ({"probs": [0.5, 0.5, 0.5]}, "3 probs for 2 candidates"),
], ids=[f"payload{n}" for n in range(6)])
def test_mask_probs_response_from_json_rejects_bad_payloads(payload, message):
    with pytest.raises(ProtocolError, match=message):
        checked_probs(("a", "b"), payload)


def test_generate_request_validates_max_tokens():
    with pytest.raises(ProtocolError, match="max_tokens >= 1"):
        generate_body("x", 0)
    assert generate_body("x", 4) == {"prompt": "x", "max_tokens": 4}


def test_generate_response_requires_text():
    with pytest.raises(ProtocolError, match="missing field 'text'"):
        checked_text({"output": "x"})
    with pytest.raises(ProtocolError, match="field 'text' must be str"):
        checked_text({"text": 3})
    with pytest.raises(ProtocolError, match="payload must be an object"):
        checked_text("ok")
    assert checked_text({"text": "ok"}) == "ok"


@settings(max_examples=100, deadline=None)
@given(probs=st.lists(st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0, 1]),
                      max_size=14))
def test_mask_probs_response_round_trips_through_json(probs):
    payload = json.loads(json.dumps({"probs": probs}))
    parsed = checked_probs(["w"] * len(probs), payload)
    assert parsed == tuple(probs)
    assert all(type(p) is float for p in parsed)


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


def test_remote_backend_rejects_a_probability_too_large_for_a_float(monkeypatch):
    backend = RemoteBackend("http://127.0.0.1:9")  # would fail if contacted
    reply = b'{"probs": [1' + b"0" * 400 + b', 0.5]}'
    monkeypatch.setattr(backend, "_round_trip", lambda *args: (200, reply))
    with pytest.raises(ProtocolError, match="out of range: 1000"):
        backend.mask_probs("a [MASK] b", ("x", "y"))


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


def test_remote_backend_sends_json_dumps_bytes():
    with run_stub() as server:
        backend = RemoteBackend(server.url)
        backend.mask_probs("is [MASK] related", ("yes", "no"))
        backend.generate("caf\u00e9 continues", max_tokens=4)
        sent = [mask_probs_body("is [MASK] related", ("yes", "no")),
                generate_body("caf\u00e9 continues", 4)]
        assert [body for _, _, body in server.requests] == [
            json.dumps(payload).encode() for payload in sent]
        assert all(headers["Content-Type"] == "application/json"
                   for _, headers, _ in server.requests)


def test_remote_backend_reuses_a_kept_alive_connection():
    with run_stub(keep_alive=True) as server:
        backend = RemoteBackend(server.url)
        for n in range(3):
            assert backend.generate(f"prompt {n}") == expected_text(f"prompt {n}")
        assert server.connections == 1
        backend.close()


def test_remote_backend_close_closes_its_idle_connections():
    with run_stub(keep_alive=True) as server:
        backend = RemoteBackend(server.url)
        backend.generate("first")
        backend.close()
        assert server.all_closed()
        # a closed backend still works: the next call opens a new connection
        assert backend.generate("second") == expected_text("second")
        assert server.connections == 2
        backend.close()
        assert server.all_closed()


def test_remote_backend_opens_a_connection_per_reply_that_closes_it():
    with run_stub() as server:  # HTTP/1.0: every reply closes its connection
        backend = RemoteBackend(server.url)
        for n in range(3):
            backend.generate(f"prompt {n}")
        assert server.connections == 3


def test_remote_backend_resends_once_when_the_server_closed_an_idle_connection():
    with run_socket_stub(["ok-close", "ok"]) as stub:
        backend = RemoteBackend(stub.url)
        assert backend.generate("first") == "ok"
        assert stub.closed.wait(timeout=5)
        assert backend.generate("second") == "ok"
        assert stub.connections == 2
        backend.close()


def test_remote_backend_resends_once_when_a_reused_connection_closes_unanswered():
    with run_socket_stub(["ok", "drop", "ok"]) as stub:
        backend = RemoteBackend(stub.url)
        assert backend.generate("first") == "ok"
        assert backend.generate("second") == "ok"
        assert stub.connections == 2
        backend.close()


@pytest.mark.parametrize("script,connections", [
    (["drop"], 1),  # a new connection is never resent on
    (["ok", "drop", "drop"], 2),  # the one resend also failed
    (["ok", "partial"], 1),  # the reply had started
    (["close", "drop"], 2),  # the second connection was new, not reused
])
def test_remote_backend_does_not_resend_otherwise(script, connections):
    with run_socket_stub(script) as stub:
        backend = RemoteBackend(stub.url)
        if len(script) > 1:
            assert backend.generate("first") == "ok"
        with pytest.raises(TransportError, match=f"POST {stub.url}/v1/generate failed: "):
            backend.generate("second")
        assert stub.connections == connections


def test_remote_backend_unreachable_host_is_one_attempt(monkeypatch):
    with socket.create_server(("127.0.0.1", 0)) as free:
        port = free.getsockname()[1]  # refuses connections once closed
    attempts = []
    create_connection = socket.create_connection

    def counted(*args, **kwargs):
        attempts.append(args[0])
        return create_connection(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    backend = RemoteBackend(f"http://127.0.0.1:{port}", timeout=0.5)
    with pytest.raises(TransportError, match=f"POST http://127.0.0.1:{port}/v1/generate "
                                             "failed: "):
        backend.generate("hello")
    assert attempts == [("127.0.0.1", port)]


def test_remote_backend_read_timeout_is_a_transport_error():
    with run_stub() as server:
        server.delay = 1.0
        backend = RemoteBackend(server.url, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            backend.generate("slow")
        assert time.monotonic() - start < 0.8


def test_remote_backend_keeps_the_base_url_path():
    with run_stub() as server:
        backend = RemoteBackend(server.url + "/models/v2/")
        assert backend.generate("x") == expected_text("x")
        assert server.requests[-1][0] == "/models/v2/v1/generate"


def _clear_proxies(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "HTTP_PROXY", "HTTPS_PROXY",
                 "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)


def test_remote_backend_goes_through_the_environment_proxy(monkeypatch):
    _clear_proxies(monkeypatch)
    with run_stub() as origin, run_stub() as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.url.replace("//", "//ann:p%40ss@"))
        assert RemoteBackend(origin.url + "/api").generate("x") == expected_text("x")
        assert [path for path, _, _ in proxy.requests] == [f"{origin.url}/api/v1/generate"]
        headers = proxy.requests[0][1]
        assert headers["Host"] == origin.url.removeprefix("http://")
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"ann:p@ss").decode()
        assert origin.requests == []

        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        assert RemoteBackend(origin.url).generate("y") == expected_text("y")
        assert [path for path, _, _ in origin.requests] == ["/v1/generate"]
        assert len(proxy.requests) == 1


def test_remote_backend_reads_the_proxy_once(monkeypatch):
    _clear_proxies(monkeypatch)
    with run_stub() as origin:
        backend = RemoteBackend(origin.url)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        assert backend.generate("x") == expected_text("x")


def test_remote_backend_rejects_a_proxy_it_cannot_use(monkeypatch):
    _clear_proxies(monkeypatch)
    monkeypatch.setenv("HTTPS_PROXY", "socks5://127.0.0.1:1080")
    with pytest.raises(ConfigError, match="only http:// proxies are supported"):
        RemoteBackend("https://models.example")


def test_remote_backend_https_verifies_certificate_and_host(monkeypatch):
    _clear_proxies(monkeypatch)
    backend = RemoteBackend("https://models.example:8443")
    context = backend.ssl_context
    assert context.verify_mode == ssl.CERT_REQUIRED
    assert context.check_hostname
    conn = backend._connect()
    assert isinstance(conn, HTTPSConnection)
    assert (conn.host, conn.port) == ("models.example", 8443)
    assert RemoteBackend("http://models.example").ssl_context is None


@pytest.mark.parametrize("url", ["localhost:8080", "ftp://models.example", "http://"])
def test_remote_backend_rejects_a_malformed_base_url(url):
    with pytest.raises(ConfigError, match="backend_url must be an http:// or https:// URL"):
        RemoteBackend(url)


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
    backend = Recording(ScriptedBackend(_script()))
    assert backend.mask_probs("has alpha [MASK] inside", ("a", "b")) == (0.9, 0.1)
    assert backend.mask_probs("beta then [MASK] gamma", ("a", "b")) == (0.2, 0.8)
    assert backend.mask_probs("gamma [MASK] alone", ("a", "b")) == (0.0, 0.0)
    assert backend.mask_probs("exact [MASK] prompt", ("a", "b")) == (0.5, 0.5)
    assert backend.generate("about pair one here") == "supporting"
    assert backend.generate("anything else") == "unrelated"
    assert [c[0] for c in backend.calls] == ["mask_probs"] * 4 + ["generate"] * 2


def test_scripted_backend_errors_without_matching_rule_or_default():
    backend = ScriptedBackend({"mask_probs": {"rules": []}})
    with pytest.raises(ProtocolError, match="no mask_probs rule matching"):
        backend.mask_probs("anything [MASK]", ("a",))


def test_scripted_backend_rejects_wrong_probs_length():
    backend = ScriptedBackend(_script())
    with pytest.raises(ProtocolError, match="2 probs for 3 candidates"):
        backend.mask_probs("has alpha [MASK] inside", ("a", "b", "c"))


def test_scripted_backend_rejects_out_of_range_probs():
    backend = ScriptedBackend({"mask_probs": {"default": {"probs": [1.2]}}})
    with pytest.raises(ProtocolError, match="out of range"):
        backend.mask_probs("x [MASK]", ("a",))


def test_scripted_backend_rejects_non_string_generation():
    backend = ScriptedBackend({"generate": {"default": {"text": 3}}})
    with pytest.raises(ProtocolError):
        backend.generate("x")


@pytest.mark.parametrize("probs,call", [
    ([0.5, 0.5], lambda b: b.mask_probs("no mask here", ("a", "b"))),
    ([0.5, 0.5], lambda b: b.mask_probs("[MASK] and [MASK]", ("a", "b"))),
    ([], lambda b: b.mask_probs("one [MASK] slot", ())),
    ([True, "0.5"], lambda b: b.mask_probs("one [MASK] slot", ("a", "b"))),
    ([0.5, 0.5], lambda b: b.generate("x", max_tokens=0)),
    ([10 ** 400, 0.5], lambda b: b.mask_probs("one [MASK] slot", ("a", "b"))),
], ids=["no-mask", "two-masks", "no-candidates", "non-number-probs", "no-tokens",
        "huge-int-probs"])
def test_scripted_backend_rejects_what_a_server_is_held_to(probs, call):
    backend = ScriptedBackend({"mask_probs": {"default": {"probs": probs}},
                               "generate": {"default": {"text": "unrelated"}}})
    with pytest.raises(ProtocolError):
        call(backend)


def test_scripted_backend_rejects_rule_without_matcher():
    backend = ScriptedBackend({"generate": {"rules": [{"text": "hi"}]}})
    with pytest.raises(ProtocolError):
        backend.generate("x")


def test_scripted_backend_rejects_rule_missing_payload():
    backend = ScriptedBackend({"generate": {"rules": [{"contains": "x"}]}})
    with pytest.raises(ProtocolError):
        backend.generate("x marks the spot")


@pytest.mark.parametrize("section", [
    [],
    {"rules": {"contains": "x", "text": "hi"}},
    {"rules": ["x"]},
    {"rules": [{"contains": 5, "text": "hi"}]},
    {"rules": [{"contains": ["x", 5], "text": "hi"}]},
    {"default": "hi"},
], ids=["section-not-object", "rules-not-list", "rule-not-object", "contains-number",
        "contains-non-string", "default-not-object"])
def test_scripted_backend_rejects_a_script_of_the_wrong_shape(section):
    backend = ScriptedBackend({"generate": section})
    with pytest.raises(ProtocolError):
        backend.generate("x marks the spot")


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", '"text"'],
                         ids=["missing", "not-json", "list", "string"])
def test_scripted_backend_from_a_file_it_cannot_use_is_a_config_error(tmp_path, content):
    path = tmp_path / "script.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError, match="script"):
        ScriptedBackend.from_file(path)


def test_scripted_backend_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(_script()), encoding="utf-8")
    backend = ScriptedBackend.from_file(path)
    assert backend.generate("no match") == "unrelated"
