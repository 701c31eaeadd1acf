"""Wire protocol for remote model backends.

Two endpoints, both JSON over POST:

* ``/v1/mask-probs``: ``{"prompt", "candidates"}`` in, ``{"probs"}`` out.
  The prompt must contain the mask token exactly once and probs must line up
  with the candidate list, each in [0, 1].
* ``/v1/generate``: ``{"prompt", "max_tokens"}`` in, ``{"text"}`` out.

Transport failures (unreachable host, non-200 status, a reply that breaks
HTTP/1.1 framing) raise TransportError; structurally invalid payloads in
either direction raise ProtocolError.  The two request-body builders and two
reply checks here are the one definition of a valid call: the scripted
backend checks its requests and canned replies through them too.

The transport is a small HTTP/1.1 client on ``socket``.  ``socket`` loads
with the first connection, ``ssl`` only for an https:// backend and
``urllib.request`` only when a ``*_proxy`` variable is set, so a command
that sends nothing over plain HTTP pays for none of them at start-up.  The
host is resolved as ASCII bytes, so the IDNA codec never loads.
"""

from __future__ import annotations

import json
import os
import re
from abc import ABC, abstractmethod
from collections.abc import Sequence
from urllib.parse import SplitResult, unquote, urlsplit

from ..errors import ConfigError, ProtocolError, TransportError, shown

MASK_TOKEN = "[MASK]"
ENV_AUTH_TOKEN = "RATIONALE_MINER_AUTH_TOKEN"
DEFAULT_MAX_TOKENS = 8
# The most bytes of a reply body read.  A valid reply (14 probabilities, or a
# text of at most max_tokens tokens) is far shorter; the cap keeps a server or
# proxy that sends a huge or endless body from filling memory.
MAX_REPLY_BYTES = 1 << 20
# http.client's bounds on a reply's head, kept for the same reason: the bytes
# of one line, and the header lines after the status line.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100


def mask_probs_body(prompt: str, candidates: Sequence[str]) -> dict:
    """The body of a mask-probs request: a ProtocolError unless ``prompt``
    holds the mask token exactly once and there is a candidate."""
    if prompt.count(MASK_TOKEN) != 1:
        raise ProtocolError("mask-probs prompt must contain the mask token exactly once")
    if not candidates:
        raise ProtocolError("mask-probs request needs at least one candidate")
    return {"prompt": prompt, "candidates": list(candidates)}


def generate_body(prompt: str, max_tokens: int) -> dict:
    """The body of a generate request: a ProtocolError unless
    ``max_tokens`` >= 1."""
    if max_tokens < 1:
        raise ProtocolError("generate request needs max_tokens >= 1")
    return {"prompt": prompt, "max_tokens": max_tokens}


def checked_probs(candidates: Sequence[str], payload) -> tuple[float, ...]:
    """The probabilities of ``payload``, a reply to a mask-probs request over
    ``candidates``: a ProtocolError unless it holds one number in [0, 1] per
    candidate."""
    if not isinstance(payload, dict):
        raise ProtocolError("mask-probs response: payload must be an object")
    if "probs" not in payload:
        raise ProtocolError("mask-probs response: missing field 'probs'")
    probs = payload["probs"]
    if not isinstance(probs, list):
        raise ProtocolError("mask-probs response: field 'probs' must be list")
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs):
        raise ProtocolError("mask-probs response: probs must be numbers")
    for p in probs:
        # Compared as sent: nan fails, and an integer too large for a float
        # is never converted.
        if not 0.0 <= p <= 1.0:
            raise ProtocolError(f"mask probability out of range: {shown(p)}")
    if len(probs) != len(candidates):
        raise ProtocolError(f"mask-probs response has {len(probs)} probs for "
                            f"{len(candidates)} candidates")
    return tuple(float(p) for p in probs)


def checked_text(payload) -> str:
    """The text of ``payload``, a reply to a generate request: a
    ProtocolError unless it holds a string ``text``."""
    if not isinstance(payload, dict):
        raise ProtocolError("generate response: payload must be an object")
    if "text" not in payload:
        raise ProtocolError("generate response: missing field 'text'")
    if not isinstance(payload["text"], str):
        raise ProtocolError("generate response: field 'text' must be str")
    return payload["text"]


class Backend(ABC):
    """A model capable of mask-filling probabilities and free generation."""

    @abstractmethod
    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        """Probability of each candidate filling the mask slot of ``prompt``."""

    @abstractmethod
    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        """Free-form continuation of ``prompt``."""

    def close(self) -> None:
        """Release what the backend holds between calls; by default nothing."""


# Any character but printable ASCII: the host and path go into the request
# head as they are, and ``urlsplit`` would delete tab, CR and LF and strip
# the ends without a word.
_NOT_PRINTABLE_ASCII = re.compile(r"[^!-~]")


def _split_url(url: str, key: str) -> SplitResult:
    """``url`` split into parts if it is printable ASCII with no space, its
    port, if any, is 1 to 65535 and the labels of its host, if any, are 1-63
    characters long (the last may be empty: a trailing dot); otherwise a
    ConfigError that names ``key``.  That is all the IDNA codec checks on an
    ASCII name, so the host can be resolved as ASCII bytes, and the codec
    never loads."""
    if _NOT_PRINTABLE_ASCII.search(url):
        raise ConfigError(f"{key} must be printable ASCII with no space, got {shown(url)}")
    try:
        parts = urlsplit(url)
        port = parts.port  # raises ValueError on a malformed port
    except ValueError as exc:
        raise ConfigError(f"{key} is not a valid URL: {shown(url)} "
                          f"({shown(str(exc))})") from exc
    if port == 0:
        raise ConfigError(f"{key} port must be 1 to 65535, got {shown(url)}")
    *labels, last = (parts.hostname or "").split(".")
    if not all(0 < len(label) < 64 for label in labels) or len(last) > 63:
        raise ConfigError(f"{key} host must be made of labels of 1 to 63 characters, "
                          f"got {shown(url)}")
    return parts


def split_base_url(url: str) -> SplitResult:
    """``url`` split into parts, if it is an http:// or https:// URL that
    ``_split_url`` takes, with a host and no query or fragment; otherwise a
    ConfigError.  The endpoint paths are appended to the URL's path, so a
    query or fragment would be dropped or end up before them."""
    parts = _split_url(url, "backend_url")
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"backend_url must be an http:// or https:// URL with a host, "
                          f"got {shown(url)}")
    if "?" in url or "#" in url:
        raise ConfigError(f"backend_url must hold no query or fragment, got {shown(url)}")
    return parts


def _environment_proxy(url: SplitResult) -> SplitResult | None:
    """The proxy that ``http_proxy``/``https_proxy`` name for ``url``, unless
    ``no_proxy`` exempts its host, checked as ``backend_url`` is for its port
    and host.  urllib.request, which reads them, loads only when some
    environment variable is named ``*_proxy`` in any case: it reads no other
    variable on this platform."""
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    from urllib.request import getproxies, proxy_bypass

    proxy = getproxies().get(url.scheme)
    if not proxy or proxy_bypass(url.hostname):
        return None
    parts = _split_url(proxy if "://" in proxy else f"http://{proxy}", f"{url.scheme} proxy")
    if parts.scheme != "http" or not parts.hostname:
        raise ConfigError(f"unsupported {url.scheme} proxy {shown(proxy)}: "
                          "only http:// proxies are supported")
    return parts


_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) (\d{3})(?: ([^\r\n]*))?\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")


class _Unanswered(ConnectionError):
    """The connection was found closed before any response byte arrived."""


class _Malformed(Exception):
    """A reply that breaks HTTP/1.1 framing or the bounds on its head."""


class _Connection:
    """A connected socket and the buffered reader of its replies."""

    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _read_line(reader, what: str) -> bytes:
    """The next line of ``reader``, read no further than MAX_LINE_BYTES."""
    line = reader.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise _Malformed(f"{what} longer than {MAX_LINE_BYTES} bytes")
    return line


def _read_headers(reader) -> dict[bytes, bytes]:
    """The fields of a header section or a chunked trailer, up to its blank
    line, by lower-case name; the first of a repeated name counts."""
    headers: dict[bytes, bytes] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise _Malformed("connection closed inside the reply head")
        name, colon, value = line.partition(b":")
        if colon:  # a line without one (an obsolete folded value) is skipped
            headers.setdefault(name.strip().lower(), value.strip())
    raise _Malformed(f"more than {MAX_HEADERS} header lines")


def _read_head(reader) -> tuple[bytes, int, bytes, dict[bytes, bytes]]:
    """The minor HTTP version, status, reason phrase and headers of the next
    reply on ``reader``, past any interim 1xx one.  A connection closed
    before its first byte is an _Unanswered."""
    line = _read_line(reader, "status line")
    if not line:
        raise _Unanswered("Remote end closed connection without response")
    while True:
        status_line = _STATUS_LINE.fullmatch(line)
        if status_line is None:
            raise _Malformed(f"bad status line {shown(line)}")
        minor, status, reason = status_line.groups()
        headers = _read_headers(reader)
        if not 100 <= int(status) < 200:
            return minor, int(status), reason or b"", headers
        line = _read_line(reader, "status line")


def _read_body(reader, status: int, headers: dict[bytes, bytes]) -> tuple[bytes | None, bool]:
    """The body of a reply with ``status`` and ``headers``, read by its
    chunks, by its Content-Length or to the end of the connection, and
    whether its end was framed, so that the connection can carry another
    reply.  The body is None, and the rest of it unread, when it is longer
    than MAX_REPLY_BYTES."""
    if status in (204, 304):
        return b"", True
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks, size = [], 0
        while True:
            line = _read_line(reader, "chunk size line")
            chunk_line = _CHUNK_SIZE.fullmatch(line)
            if chunk_line is None:
                raise _Malformed(f"bad chunk size line {shown(line)}")
            chunk_size = int(chunk_line[1], 16)
            if not chunk_size:
                _read_headers(reader)  # the trailer
                return b"".join(chunks), True
            size += chunk_size
            if size > MAX_REPLY_BYTES:
                return None, False
            chunk = reader.read(chunk_size)
            if len(chunk) < chunk_size or reader.read(2) != b"\r\n":
                raise _Malformed("chunk cut short or not ended by CRLF")
            chunks.append(chunk)
    length = headers.get(b"content-length")
    if length is None:
        body = reader.read(MAX_REPLY_BYTES + 1)
        return (body if len(body) <= MAX_REPLY_BYTES else None), False
    if not length.isdigit():
        raise _Malformed(f"bad Content-Length {shown(length)}")
    digits = length.lstrip(b"0") or b"0"
    # Leading zeros count for nothing, and more digits than the cap has are
    # over it: int() would refuse a length of thousands of digits.
    size = int(digits) if len(digits) <= len(str(MAX_REPLY_BYTES)) else MAX_REPLY_BYTES + 1
    if size > MAX_REPLY_BYTES:
        return None, False
    body = reader.read(size)
    if len(body) < size:
        raise _Malformed(f"reply cut short: {len(body)} of {size} bytes")
    return body, True


def _exchange(conn: _Connection, target: str, request: bytes) -> tuple[int, bytes, bool]:
    """Status and body of one request on ``conn``, read in full, and whether
    ``conn`` can carry another.  A failure closes ``conn``: one before any
    reply byte is an _Unanswered, a reply that breaks HTTP/1.1 framing a
    _Malformed, and a body longer than MAX_REPLY_BYTES a ProtocolError."""
    try:
        try:
            conn.sock.sendall(request)
        except ConnectionError as exc:
            raise _Unanswered(*exc.args) from exc
        minor, status, _, headers = _read_head(conn.reader)
        body, framed = _read_body(conn.reader, status, headers)
        if body is None:
            raise ProtocolError(f"POST {target}: reply body over {MAX_REPLY_BYTES} bytes")
        options = {option.strip()
                   for option in headers.get(b"connection", b"").lower().split(b",")}
        keep = b"keep-alive" in options if minor == b"0" else b"close" not in options
        return status, body, framed and keep
    except BaseException:
        conn.close()
        raise


class RemoteBackend(Backend):
    """Backend served over HTTP/1.1 with kept-alive connections.

    Calls share one stack of idle connections: a call takes the last one put
    back, or opens a new one, reads the whole response and puts the
    connection back unless the reply closes it.  So a run holds as many
    connections as it had calls open at once.  When a kept-alive connection
    turns out closed by the server before any response byte arrives, the
    request goes once more, on a new connection; nothing else is resent.
    Each request goes out in one write: headers and body in two would wait
    on the peer's delayed ACK.

    An ``http_proxy``/``https_proxy``/``no_proxy`` setting in the environment
    is read once, here.  HTTPS uses the default SSL context: the system CA
    store, with the certificate and the hostname checked.  The bearer token
    comes from the environment variable named by ENV_AUTH_TOKEN when set at
    call time, falling back to the configured value.
    """

    def __init__(self, base_url: str, auth_token: str | None = None,
                 timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.auth_token = auth_token
        self.timeout = timeout
        url = split_base_url(self.base_url)
        https = url.scheme == "https"
        if https:
            import ssl

            self.ssl_context = ssl.create_default_context()
        else:
            self.ssl_context = None
        self._hostname = url.hostname
        default_port = 443 if https else 80
        port = url.port or default_port
        host = f"[{url.hostname}]" if ":" in url.hostname else url.hostname
        authority = host if port == default_port else f"{host}:{port}"
        headers = f"Host: {authority}\r\nAccept-Encoding: identity\r\n" \
                  "Content-Type: application/json\r\n"
        proxy = _environment_proxy(url)
        self._tunnel = None
        self._target = url.path
        # As bytes, so that getaddrinfo does not load the IDNA codec to check
        # what _split_url checked.
        if proxy is None:
            self._address = (url.hostname.encode("ascii"), port)
        else:
            self._address = (proxy.hostname.encode("ascii"), proxy.port or 80)
            proxy_headers = ""
            if proxy.username is not None:
                from base64 import b64encode

                credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                proxy_headers = "Proxy-Authorization: Basic " \
                                f"{b64encode(credentials.encode()).decode('ascii')}\r\n"
            if https:
                self._tunnel = (f"CONNECT {host}:{port} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                                f"{proxy_headers}\r\n").encode("latin-1")
            else:
                # A plain-HTTP proxy takes the absolute URL as the target.
                self._target = f"http://{authority}{url.path}"
                headers += proxy_headers
        self._headers = headers
        self._idle: list[_Connection] = []

    def _connect(self) -> _Connection:
        import socket  # loaded with the first connection, not at start-up

        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                sock.sendall(self._tunnel)
                with sock.makefile("rb") as reader:
                    _, status, reason, _ = _read_head(reader)
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status} "
                                  f"{reason.decode('latin-1').strip()}")
            if self.ssl_context is not None:
                sock = self.ssl_context.wrap_socket(sock, server_hostname=self._hostname)
            return _Connection(sock)
        except BaseException:
            sock.close()
            raise

    def _round_trip(self, target: str, request: bytes) -> tuple[int, bytes]:
        try:
            conn = self._idle.pop()  # list.pop and append are atomic
        except IndexError:
            conn = None
        if conn is not None:
            try:
                status, body, keep = _exchange(conn, target, request)
            except _Unanswered:
                conn = None  # the server had closed it: once more, on a new one
        if conn is None:
            conn = self._connect()
            status, body, keep = _exchange(conn, target, request)
        if keep:
            self._idle.append(conn)
        else:
            conn.close()
        return status, body

    def _post(self, path: str, payload: dict) -> dict:
        url = f"{self.base_url}{path}"
        token = os.environ.get(ENV_AUTH_TOKEN) or self.auth_token
        if token and ("\r" in token or "\n" in token):  # it would end the header early
            raise TransportError(f"POST {url} failed: the auth token holds a line break")
        if token and max(token) > "\xff":  # the head goes out as Latin-1
            raise TransportError(f"POST {url} failed: the auth token holds a character "
                                 "outside Latin-1")
        authorization = f"Authorization: Bearer {token}\r\n" if token else ""
        body = json.dumps(payload).encode()
        target = self._target + path
        head = (f"POST {target} HTTP/1.1\r\n{self._headers}{authorization}"
                f"Content-Length: {len(body)}\r\n\r\n")
        try:
            status, reply = self._round_trip(target, head.encode("latin-1") + body)
        except (OSError, _Malformed) as exc:
            raise TransportError(f"POST {url} failed: {exc}") from exc
        if status != 200:
            raise TransportError(f"POST {url} returned status {status}")
        try:
            return json.loads(reply)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"POST {url} returned non-JSON body") from exc

    def close(self) -> None:
        """Close the idle kept-alive connections; a later call opens a new one."""
        while self._idle:
            self._idle.pop().close()

    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        body = mask_probs_body(prompt, candidates)
        return checked_probs(candidates, self._post("/v1/mask-probs", body))

    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        return checked_text(self._post("/v1/generate", generate_body(prompt, max_tokens)))
