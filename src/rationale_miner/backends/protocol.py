"""Wire protocol for remote model backends.

Two endpoints, both JSON over POST:

* ``/v1/mask-probs``: ``{"prompt", "candidates"}`` in, ``{"probs"}`` out.
  The prompt must contain the mask token exactly once and probs must line up
  with the candidate list, each in [0, 1].
* ``/v1/generate``: ``{"prompt", "max_tokens"}`` in, ``{"text"}`` out.

Transport failures (unreachable host, non-200 status) raise TransportError;
structurally invalid payloads in either direction raise ProtocolError.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass

import requests

from ..errors import ProtocolError, TransportError

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


class RemoteBackend(Backend):
    """Backend served over HTTP.

    The bearer token comes from the environment variable named by
    ENV_AUTH_TOKEN when set, falling back to the configured value.
    """

    def __init__(self, base_url: str, auth_token: str | None = None,
                 timeout: float = 30.0, session: requests.Session | None = None):
        self.base_url = base_url.rstrip("/")
        self.auth_token = auth_token
        self.timeout = timeout
        self.session = session or requests.Session()

    def _post(self, path: str, payload: dict) -> dict:
        headers = {}
        token = os.environ.get(ENV_AUTH_TOKEN) or self.auth_token
        if token:
            headers["Authorization"] = f"Bearer {token}"
        url = f"{self.base_url}{path}"
        try:
            response = self.session.post(url, json=payload, headers=headers,
                                         timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransportError(f"POST {url} failed: {exc}") from exc
        if response.status_code != 200:
            raise TransportError(f"POST {url} returned status {response.status_code}")
        try:
            body = response.json()
        except ValueError as exc:
            raise ProtocolError(f"POST {url} returned non-JSON body") from exc
        return body

    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        request = MaskProbsRequest(prompt=prompt, candidates=tuple(candidates))
        body = self._post("/v1/mask-probs", request.to_json())
        parsed = MaskProbsResponse.from_json(body)
        if len(parsed.probs) != len(request.candidates):
            raise ProtocolError(
                f"mask-probs response has {len(parsed.probs)} probs for "
                f"{len(request.candidates)} candidates"
            )
        return parsed.probs

    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        request = GenerateRequest(prompt=prompt, max_tokens=max_tokens)
        body = self._post("/v1/generate", request.to_json())
        return GenerateResponse.from_json(body).text

