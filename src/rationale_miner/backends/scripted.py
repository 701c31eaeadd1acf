"""Deterministic scripted backend for tests, demos, and offline golden runs.

A script is a JSON object with ``mask_probs`` and ``generate`` sections.
Each section holds ordered ``rules`` plus an optional ``default``; the first
rule whose matcher hits the prompt wins.  Matchers are either ``contains`` (a
substring or list of substrings that must all occur) or ``sha256`` (hex digest
of the exact prompt bytes, for byte-sensitive fixtures).  Requests and canned
replies pass the same protocol checks as a model server's.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..errors import ProtocolError
from .protocol import (
    DEFAULT_MAX_TOKENS,
    Backend,
    GenerateRequest,
    GenerateResponse,
    MaskProbsRequest,
    checked_probs,
)


def _matches(rule: dict, prompt: str) -> bool:
    if "sha256" in rule:
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest() == rule["sha256"]
    needles = rule.get("contains")
    if needles is None:
        raise ProtocolError(f"script rule has no matcher: {rule!r}")
    if isinstance(needles, str):
        needles = [needles]
    return all(needle in prompt for needle in needles)


class ScriptedBackend(Backend):
    """Replays canned responses."""

    def __init__(self, script: dict):
        self.script = script

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def _lookup(self, section_name: str, prompt: str, payload_key: str):
        section = self.script.get(section_name, {})
        for rule in section.get("rules", []):
            if _matches(rule, prompt):
                break
        else:
            if "default" not in section:
                raise ProtocolError(
                    f"scripted backend has no {section_name} rule matching "
                    f"prompt: {prompt[:80]!r}"
                )
            rule = section["default"]
        if payload_key not in rule:
            raise ProtocolError(f"script rule lacks {payload_key!r}: {rule!r}")
        return rule[payload_key]

    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        request = MaskProbsRequest(prompt=prompt, candidates=tuple(candidates))
        probs = self._lookup("mask_probs", request.prompt, "probs")
        return checked_probs(request, {"probs": probs})

    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        request = GenerateRequest(prompt=prompt, max_tokens=max_tokens)
        text = self._lookup("generate", request.prompt, "text")
        return GenerateResponse.from_json({"text": text}).text
