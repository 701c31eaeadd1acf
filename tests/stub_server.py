"""In-process HTTP stub implementing the model backend wire protocol.

The stub answers deterministically (probabilities derived from prompt and
candidate lengths, generations echoing a fixed label) so tests can predict
every response.  A ``failure_mode`` attribute switches the next responses to
various malformed shapes to exercise client-side error handling, a ``gate``
barrier, when set, holds each request until that many are open, and a
``delay`` holds each reply that many seconds (a reply still held when the
stub closes is not sent).

By default each reply closes its connection (HTTP/1.0); ``keep_alive=True``
serves HTTP/1.1 with kept-alive connections.  ``connections`` counts the
accepted connections, and ``all_closed`` waits for the client to close them.  Endpoints are matched on the end of the request
target, so the stub also answers under a path prefix and, as a forward proxy
receives them, absolute-form targets; ``requests`` records each target as
sent.

``run_socket_stub`` is a bare HTTP/1.1 server for the connection handling
itself: it answers each request in a scripted way, such as closing the
connection without a reply.
"""

from __future__ import annotations

import json
import re
import socket
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

    def setup(self):
        super().setup()
        # Headers and body go out in two writes; without this the body would
        # wait for the client's delayed ACK on a kept-alive connection.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.server.keep_alive:
            self.protocol_version = "HTTP/1.1"

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
        if server.closing.wait(server.delay):
            return  # the stub is closing; the client has most likely gone
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

        if self.path.endswith("/v1/mask-probs"):
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
        elif self.path.endswith("/v1/generate"):
            if mode == "missing-field":
                self._reply(200, b'{"output": "text"}')
                return
            text = expected_text(payload.get("prompt", ""))
            self._reply(200, json.dumps({"text": text}).encode())
        else:
            self._reply(404, b'{"error": "no such endpoint"}')


class StubServer(ThreadingHTTPServer):
    def __init__(self, keep_alive: bool = False):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.keep_alive = keep_alive
        self.failure_mode: str | None = None
        self.gate: threading.Barrier | None = None
        self.delay = 0.0
        self.closing = threading.Event()
        self.requests: list[tuple[str, dict, bytes]] = []
        self.connections = 0
        self._open: set[socket.socket] = set()
        self._handlers: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = threading.Condition(self._lock)

    def process_request(self, request, client_address):
        """Handle the request on a thread of its own, as ThreadingMixIn
        does, but keep the thread so that ``run_stub`` can wait for it."""
        handler = threading.Thread(target=self.process_request_thread,
                                   args=(request, client_address), daemon=True)
        with self._lock:
            self.connections += 1
            self._open.add(request)
            self._handlers.append(handler)
        handler.start()

    def shutdown_request(self, request):
        with self._closed:
            self._open.discard(request)
            self._closed.notify_all()
        super().shutdown_request(request)

    def all_closed(self, timeout: float = 5.0) -> bool:
        """Whether every accepted connection is closed, or gets closed
        within ``timeout`` seconds."""
        with self._closed:
            return self._closed.wait_for(lambda: not self._open, timeout)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


@contextmanager
def run_stub(keep_alive: bool = False):
    server = StubServer(keep_alive)
    # shutdown() waits for the serve loop's next poll, 0.5 s by default.
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.closing.set()  # ends delays
        if server.gate is not None:
            server.gate.abort()  # ends waits on a gate that will never fill
        server.shutdown()
        with server._lock:
            for request in server._open:  # ends handlers waiting on kept-alive reads
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        server.server_close()
        thread.join(timeout=5)
        # A handler left running could write into a later test's stderr.
        for handler in server._handlers:
            handler.join(timeout=5)


class SocketStub:
    """What ``run_socket_stub`` yields: the base URL, the accepted connection
    count, and ``closed``, set when an ``ok-close`` connection is closed."""

    def __init__(self, port: int):
        self.url = f"http://127.0.0.1:{port}"
        self.connections = 0
        self.closed = threading.Event()


_REPLY_BODY = json.dumps({"text": "ok"}).encode()
_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b"Content-Length: %d\r\n\r\n%s" % (len(_REPLY_BODY), _REPLY_BODY))
_REPLIES = {"partial": _REPLY[:-3],
            "close": _REPLY.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1)}


def _read_request(conn: socket.socket, buffer: bytes) -> bytes | None:
    """Reads one request off ``conn``; the bytes after it, or None at EOF."""
    while b"\r\n\r\n" not in buffer:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        buffer += chunk
    head, buffer = buffer.split(b"\r\n\r\n", 1)
    length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
    while len(buffer) < length:
        buffer += conn.recv(65536)
    return buffer[length:]


@contextmanager
def run_socket_stub(script: list[str]):
    """Serve requests in the ways ``script`` lists, one per request in
    arrival order: ``ok`` answers ``{"text": "ok"}`` and keeps the
    connection, ``ok-close`` answers and then closes it without saying so,
    ``close`` answers with ``Connection: close`` and closes it, ``drop``
    closes it without a reply, ``partial`` sends a reply cut short and
    closes."""
    listener = socket.create_server(("127.0.0.1", 0))
    stub = SocketStub(listener.getsockname()[1])

    def serve(conn: socket.socket) -> None:
        buffer, step = b"", "ok"
        with conn:
            while step == "ok" and script:
                buffer = _read_request(conn, buffer)
                if buffer is None:
                    return
                step = script.pop(0)
                if step != "drop":
                    conn.sendall(_REPLIES.get(step, _REPLY))
        if step == "ok-close":
            stub.closed.set()

    def accept() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # the listener was shut down
                return
            stub.connections += 1
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    try:
        yield stub
    finally:
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=5)
