"""Wire protocol for remote model backends.

Two endpoints, both JSON over POST:

* ``/v1/mask-probs``: ``{"prompt", "candidates"}`` in, ``{"probs"}`` out.
  The prompt must contain the mask token exactly once and probs must line up
  with the candidate list, each in [0, 1].
* ``/v1/generate``: ``{"prompt", "max_tokens"}`` in, ``{"text"}`` out.

Transport failures (unreachable host, non-200 status) raise TransportError;
structurally invalid payloads in either direction raise ProtocolError.  The
request and response classes here are the one definition of a valid call:
the scripted backend checks its requests and canned replies through them too.
"""

from __future__ import annotations

import json
import math
import os
import ssl
from abc import ABC, abstractmethod
from base64 import b64encode
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection, RemoteDisconnected
from urllib.parse import SplitResult, unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

from ..errors import ConfigError, ProtocolError, TransportError

MASK_TOKEN = "[MASK]"
ENV_AUTH_TOKEN = "RATIONALE_MINER_AUTH_TOKEN"
DEFAULT_MAX_TOKENS = 8


def _require(payload: dict, key: str, kind: type, context: str):
    if not isinstance(payload, dict):
        raise ProtocolError(f"{context}: payload must be an object")
    if key not in payload:
        raise ProtocolError(f"{context}: missing field {key!r}")
    value = payload[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(f"{context}: field {key!r} must be a number")
        return float(value)
    if not isinstance(value, kind):
        raise ProtocolError(f"{context}: field {key!r} must be {kind.__name__}")
    return value


@dataclass(frozen=True)
class MaskProbsRequest:
    prompt: str
    candidates: tuple[str, ...]

    def __post_init__(self):
        if self.prompt.count(MASK_TOKEN) != 1:
            raise ProtocolError("mask-probs prompt must contain the mask token exactly once")
        if not self.candidates:
            raise ProtocolError("mask-probs request needs at least one candidate")

    def to_json(self) -> dict:
        return {"prompt": self.prompt, "candidates": list(self.candidates)}

    @classmethod
    def from_json(cls, payload: dict) -> "MaskProbsRequest":
        prompt = _require(payload, "prompt", str, "mask-probs request")
        candidates = _require(payload, "candidates", list, "mask-probs request")
        if not all(isinstance(c, str) for c in candidates):
            raise ProtocolError("mask-probs request: candidates must be strings")
        return cls(prompt=prompt, candidates=tuple(candidates))


@dataclass(frozen=True)
class MaskProbsResponse:
    probs: tuple[float, ...]

    def __post_init__(self):
        for p in self.probs:
            if not math.isfinite(p) or not 0.0 <= p <= 1.0:
                raise ProtocolError(f"mask probability out of range: {p!r}")

    def to_json(self) -> dict:
        return {"probs": list(self.probs)}

    @classmethod
    def from_json(cls, payload: dict) -> "MaskProbsResponse":
        probs = _require(payload, "probs", list, "mask-probs response")
        values = []
        for p in probs:
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise ProtocolError("mask-probs response: probs must be numbers")
            values.append(float(p))
        return cls(probs=tuple(values))


def checked_probs(request: MaskProbsRequest, payload) -> tuple[float, ...]:
    """The probabilities of ``payload``, a reply to ``request``: a
    ProtocolError unless it holds one valid probability per candidate."""
    probs = MaskProbsResponse.from_json(payload).probs
    if len(probs) != len(request.candidates):
        raise ProtocolError(f"mask-probs response has {len(probs)} probs for "
                            f"{len(request.candidates)} candidates")
    return probs


@dataclass(frozen=True)
class GenerateRequest:
    prompt: str
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ProtocolError("generate request needs max_tokens >= 1")

    def to_json(self) -> dict:
        return {"prompt": self.prompt, "max_tokens": self.max_tokens}

    @classmethod
    def from_json(cls, payload: dict) -> "GenerateRequest":
        prompt = _require(payload, "prompt", str, "generate request")
        max_tokens = _require(payload, "max_tokens", int, "generate request")
        if isinstance(payload.get("max_tokens"), bool):
            raise ProtocolError("generate request: max_tokens must be an integer")
        return cls(prompt=prompt, max_tokens=max_tokens)


@dataclass(frozen=True)
class GenerateResponse:
    text: str

    def to_json(self) -> dict:
        return {"text": self.text}

    @classmethod
    def from_json(cls, payload: dict) -> "GenerateResponse":
        return cls(text=_require(payload, "text", str, "generate response"))


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
        except ValueError as exc:
            raise ProtocolError(f"POST {url} returned non-JSON body") from exc

    def close(self) -> None:
        """Close the idle kept-alive connections; a later call opens a new one."""
        while self._idle:
            self._idle.pop().close()

    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        request = MaskProbsRequest(prompt=prompt, candidates=tuple(candidates))
        return checked_probs(request, self._post("/v1/mask-probs", request.to_json()))

    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        request = GenerateRequest(prompt=prompt, max_tokens=max_tokens)
        body = self._post("/v1/generate", request.to_json())
        return GenerateResponse.from_json(body).text

