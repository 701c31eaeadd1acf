"""In-process HTTP stub implementing the model backend wire protocol.

The stub answers deterministically (probabilities derived from prompt and
candidate lengths, generations echoing a fixed label) so tests can predict
every response.  A ``failure_mode`` attribute switches the next responses to
various malformed shapes to exercise client-side error handling, and a
``gate`` barrier, when set, holds each request until that many are open.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def expected_probs(prompt: str, count: int) -> list[float]:
    return [round(((len(prompt) + i) % 10) / 10.0, 6) for i in range(count)]


def expected_text(prompt: str) -> str:
    return f"echo:{len(prompt)}"


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep test output quiet
        pass

    def _reply(self, status: int, body: bytes, content_type: str = "application/json"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        server: StubServer = self.server  # type: ignore[assignment]
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        server.requests.append((self.path, dict(self.headers), raw))
        if server.gate is not None:
            server.gate.wait()
        mode = server.failure_mode

        if mode == "status-500":
            self._reply(500, b'{"error": "boom"}')
            return
        if mode == "non-json":
            self._reply(200, b"<html>not json</html>", content_type="text/html")
            return

        try:
            payload = json.loads(raw)
        except ValueError:
            self._reply(400, b'{"error": "bad request"}')
            return

        if self.path == "/v1/mask-probs":
            prompt = payload.get("prompt", "")
            count = len(payload.get("candidates", []))
            probs = expected_probs(prompt, count)
            if mode == "wrong-length":
                probs = probs + [0.5]
            if mode == "out-of-range":
                probs = [2.5] * count
            if mode == "missing-field":
                self._reply(200, json.dumps({"values": probs}).encode())
                return
            self._reply(200, json.dumps({"probs": probs}).encode())
        elif self.path == "/v1/generate":
            if mode == "missing-field":
                self._reply(200, b'{"output": "text"}')
                return
            text = expected_text(payload.get("prompt", ""))
            self._reply(200, json.dumps({"text": text}).encode())
        else:
            self._reply(404, b'{"error": "no such endpoint"}')


class StubServer(ThreadingHTTPServer):
    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.failure_mode: str | None = None
        self.gate: threading.Barrier | None = None
        self.requests: list[tuple[str, dict, bytes]] = []

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


@contextmanager
def run_stub():
    server = StubServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
