"""In-process HTTP stub implementing the model backend wire protocol.

The stub answers deterministically (probabilities derived from prompt and
candidate lengths, generations echoing a fixed label) so tests can predict
every response.  ``script`` says how to answer the next requests, one step
per request in arrival order; once it is used up, ``failure_mode`` answers
each request (None: the deterministic answer).  A step is a malformed answer
(``status-500``, ``non-json``, ``wrong-length``, ``out-of-range``,
``missing-field``) or a raw one, for the client's connection handling:
``ok`` answers ``{"text": "ok"}`` and keeps the connection, ``ok-chunked``
answers the same in chunks, with a chunk extension and a trailer, and keeps
it, ``ok-close`` answers and then closes it without saying so (``closed``
is set once it is closed), ``close`` answers with ``Connection: close`` and
closes it, ``drop`` closes it without a reply, ``partial`` sends a reply cut
short and closes, and ``long`` and ``long-chunked`` send a body one byte
over MAX_REPLY_BYTES, with a Content-Length or in chunks, and close.

A ``gate`` barrier, when set, holds each request until that many are open,
and a ``delay`` holds each reply that many seconds (a reply still held when
the stub closes is not sent).  By default each reply closes its connection
(HTTP/1.0); ``keep_alive=True`` serves HTTP/1.1 with kept-alive connections.
``connections`` counts the accepted connections, and ``all_closed`` waits
for the client to close them.  Endpoints are matched on the end of the
request target, so the stub also answers under a path prefix and, as a
forward proxy receives them, absolute-form targets; ``requests`` records
each target as sent.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import contextmanager, suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from rationale_miner.backends.protocol import MAX_REPLY_BYTES


def expected_probs(prompt: str, count: int) -> list[float]:
    return [round(((len(prompt) + i) % 10) / 10.0, 6) for i in range(count)]


def expected_text(prompt: str) -> str:
    return f"echo:{len(prompt)}"


_OK_BODY = json.dumps({"text": "ok"}).encode()
_OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       b"Content-Length: %d\r\n\r\n%s" % (len(_OK_BODY), _OK_BODY))
# _OK_BODY in 5-byte chunks, the first with a chunk extension, and a trailer.
_OK_CHUNKS = [_OK_BODY[i:i + 5] for i in range(0, len(_OK_BODY), 5)]
_OK_CHUNKED = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n"
               + b"%x;part=1\r\n%s\r\n" % (len(_OK_CHUNKS[0]), _OK_CHUNKS[0])
               + b"".join(b"%x\r\n%s\r\n" % (len(chunk), chunk) for chunk in _OK_CHUNKS[1:])
               + b"0\r\nX-Checksum: none\r\n\r\n")
# A body one byte over the client's cap, whole and in 64 KiB chunks.
_LONG_BODY = b"x" * (MAX_REPLY_BYTES + 1)
_LONG_CHUNKS = (_LONG_BODY[i:i + 65536] for i in range(0, len(_LONG_BODY), 65536))
# The bytes that each raw step sends.
_RAW = {"ok": _OK, "ok-chunked": _OK_CHUNKED, "ok-close": _OK, "drop": b"",
        "partial": _OK[:-3],
        "close": _OK.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1),
        "long": b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(_LONG_BODY)
                + _LONG_BODY,
        "long-chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                        + b"".join(b"%x\r\n%s\r\n" % (len(chunk), chunk)
                                   for chunk in _LONG_CHUNKS) + b"0\r\n\r\n"}


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
        with server._lock:
            server.requests.append((self.path, dict(self.headers), raw))
            mode = server.script.pop(0) if server.script else server.failure_mode
        if server.gate is not None:
            server.gate.wait()
        if server.closing.wait(server.delay):
            return  # the stub is closing; the client has most likely gone
        if mode in _RAW:
            if mode not in ("ok", "ok-chunked"):
                self.close_connection = True
            if mode == "ok-close":
                with server._lock:
                    server._quiet.add(self.request)
            with suppress(OSError):  # the client closed it mid-reply
                self.wfile.write(_RAW[mode])
            return

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
    def __init__(self, keep_alive: bool = False, script: list[str] = ()):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.keep_alive = keep_alive
        self.script = list(script)
        self.failure_mode: str | None = None
        self.gate: threading.Barrier | None = None
        self.delay = 0.0
        self.closing = threading.Event()
        self.closed = threading.Event()
        self.requests: list[tuple[str, dict, bytes]] = []
        self.connections = 0
        self._open: set[socket.socket] = set()
        self._quiet: set[socket.socket] = set()  # ok-close connections
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
        super().shutdown_request(request)
        with self._closed:
            self._open.discard(request)
            if request in self._quiet:
                self.closed.set()
            self._closed.notify_all()

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
def run_stub(keep_alive: bool = False, script: list[str] = ()):
    server = StubServer(keep_alive, script)
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
