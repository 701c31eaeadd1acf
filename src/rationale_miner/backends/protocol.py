"""Wire protocol for remote model backends.

Two endpoints, both JSON over POST:

* ``/v1/mask-probs``: ``{"prompt", "candidates"}`` in, ``{"probs"}`` out.
  The prompt must contain the mask token exactly once and probs must line up
  with the candidate list, each in [0, 1].
* ``/v1/generate``: ``{"prompt", "max_tokens"}`` in, ``{"text"}`` out.

Transport failures (unreachable host, non-200 status) raise TransportError;
structurally invalid payloads in either direction raise ProtocolError.  The
two request-body builders and two reply checks here are the one definition
of a valid call: the scripted backend checks its requests and canned replies
through them too.
"""

from __future__ import annotations

import json
import os
import ssl
from abc import ABC, abstractmethod
from base64 import b64encode
from collections.abc import Sequence
from http.client import HTTPConnection, HTTPException, HTTPSConnection, RemoteDisconnected
from urllib.parse import SplitResult, unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

from ..errors import ConfigError, ProtocolError, TransportError

MASK_TOKEN = "[MASK]"
ENV_AUTH_TOKEN = "RATIONALE_MINER_AUTH_TOKEN"
DEFAULT_MAX_TOKENS = 8


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
            raise ProtocolError(f"mask probability out of range: {p!r}")
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


def split_base_url(url: str) -> SplitResult:
    """``url`` split into parts, if it is an http:// or https:// URL with a
    host and a valid port; otherwise a ConfigError."""
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError on a malformed port
    except ValueError as exc:
        raise ConfigError(f"backend_url is not a valid URL: {url!r} ({exc})") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"backend_url must be an http:// or https:// URL with a host, "
                          f"got {url!r}")
    return parts


def _environment_proxy(url: SplitResult) -> SplitResult | None:
    """The proxy that ``http_proxy``/``https_proxy`` name for ``url``, unless
    ``no_proxy`` exempts its host."""
    proxy = getproxies().get(url.scheme)
    if not proxy or proxy_bypass(url.hostname):
        return None
    parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if parts.scheme != "http" or not parts.hostname:
        raise ConfigError(f"unsupported {url.scheme} proxy {proxy!r}: "
                          "only http:// proxies are supported")
    return parts


class _Unanswered(ConnectionError):
    """The connection was found closed before any response byte arrived."""


def _exchange(conn: HTTPConnection, target: str, body: bytes,
              headers: dict) -> tuple[int, bytes]:
    """Status and body of one POST on ``conn``, read in full.  A failure
    closes ``conn``; one before any response byte is an _Unanswered."""
    try:
        try:
            conn.request("POST", target, body, headers)
        except ConnectionError as exc:
            raise _Unanswered(*exc.args) from exc
        try:
            response = conn.getresponse()
        except RemoteDisconnected as exc:  # closed with no status line byte
            raise _Unanswered(*exc.args) from exc
        return response.status, response.read()
    except BaseException:
        conn.close()
        raise


class RemoteBackend(Backend):
    """Backend served over HTTP/1.1 with kept-alive connections.

    Calls share one stack of idle connections: a call takes the last one put
    back, or opens a new one, reads the whole response and puts the
    connection back.  So a run holds as many connections as it had calls
    open at once.  When a kept-alive connection turns out closed by the
    server before any response byte arrives, the request goes once more, on
    a new connection; nothing else is resent.

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
        self.ssl_context = ssl.create_default_context() if https else None
        origin = (url.hostname, url.port or (443 if https else 80))
        proxy = _environment_proxy(url)
        self._headers = {"Content-Type": "application/json"}
        self._tunnel = None
        self._target = url.path
        if proxy is None:
            self._address = origin
        else:
            self._address = (proxy.hostname, proxy.port or 80)
            proxy_headers = {}
            if proxy.username is not None:
                credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                proxy_headers["Proxy-Authorization"] = \
                    "Basic " + b64encode(credentials.encode()).decode("ascii")
            if https:
                self._tunnel = (origin, proxy_headers)
            else:
                # A plain-HTTP proxy takes the absolute URL as the target.
                self._target = f"http://{url.netloc.rpartition('@')[2]}{url.path}"
                self._headers.update(proxy_headers)
        self._idle: list[HTTPConnection] = []

    def _connect(self) -> HTTPConnection:
        host, port = self._address
        if self.ssl_context is None:
            return HTTPConnection(host, port, timeout=self.timeout)
        conn = HTTPSConnection(host, port, timeout=self.timeout, context=self.ssl_context)
        if self._tunnel is not None:
            (origin_host, origin_port), headers = self._tunnel
            conn.set_tunnel(origin_host, origin_port, headers)
        return conn

    def _round_trip(self, path: str, body: bytes, headers: dict) -> tuple[int, bytes]:
        target = self._target + path
        try:
            conn = self._idle.pop()  # list.pop and append are atomic
        except IndexError:
            conn = None
        if conn is not None:
            try:
                reply = _exchange(conn, target, body, headers)
            except _Unanswered:
                conn = None  # the server had closed it: once more, on a new one
        if conn is None:
            conn = self._connect()
            reply = _exchange(conn, target, body, headers)
        if conn.sock is not None:  # not closed by a Connection: close reply
            self._idle.append(conn)
        return reply

    def _post(self, path: str, payload: dict) -> dict:
        headers = dict(self._headers)
        token = os.environ.get(ENV_AUTH_TOKEN) or self.auth_token
        if token:
            headers["Authorization"] = f"Bearer {token}"
        url = f"{self.base_url}{path}"
        try:
            status, body = self._round_trip(path, json.dumps(payload).encode(), headers)
        except (OSError, HTTPException) as exc:
            raise TransportError(f"POST {url} failed: {exc}") from exc
        if status != 200:
            raise TransportError(f"POST {url} returned status {status}")
        try:
            return json.loads(body)
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
