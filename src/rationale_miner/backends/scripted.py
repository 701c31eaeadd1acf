"""Deterministic scripted backend for tests, demos, and offline golden runs.

A script is a JSON object with ``mask_probs`` and ``generate`` sections.
Each section holds ordered ``rules`` plus an optional ``default``; the first
rule whose ``contains`` matcher hits the prompt wins: a substring, or a list
of substrings that must all occur.  Requests and canned replies pass the same
protocol checks as a model server's.  A script that cannot be read or is not
a JSON object is a ConfigError; a section, rule or matcher of the wrong shape
is a ProtocolError when a call reaches it.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import ConfigError, ProtocolError, shown
from .protocol import (
    DEFAULT_MAX_TOKENS,
    Backend,
    checked_probs,
    checked_text,
    generate_body,
    mask_probs_body,
)


def _matches(rule, prompt: str) -> bool:
    if not isinstance(rule, dict):
        raise ProtocolError(f"script rule is not an object: {shown(rule)}")
    needles = rule.get("contains")
    if needles is None:
        raise ProtocolError(f"script rule has no matcher: {shown(rule)}")
    if isinstance(needles, str):
        needles = [needles]
    if not isinstance(needles, list) or not all(isinstance(n, str) for n in needles):
        raise ProtocolError(f"script rule's contains must be a string or a list of "
                            f"strings: {shown(rule)}")
    return all(needle in prompt for needle in needles)


class ScriptedBackend(Backend):
    """Replays canned responses."""

    def __init__(self, script: dict):
        self.script = script

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        try:
            with open(path, encoding="utf-8") as handle:
                script = json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:
            # an OSError's strerror leaves out the path it carries
            raise ConfigError(f"cannot read script {shown(str(path))}: "
                              f"{getattr(exc, 'strerror', None) or exc}") from exc
        if not isinstance(script, dict):
            raise ConfigError(f"script {shown(str(path))} must hold a JSON object")
        return cls(script)

    def _lookup(self, section_name: str, prompt: str, payload_key: str):
        section = self.script.get(section_name, {})
        if not isinstance(section, dict):
            raise ProtocolError(f"script section {section_name!r} must be an object")
        rules = section.get("rules", [])
        if not isinstance(rules, list):
            raise ProtocolError(f"script {section_name} rules must be a list")
        for rule in rules:
            if _matches(rule, prompt):
                break
        else:
            if "default" not in section:
                raise ProtocolError(
                    f"scripted backend has no {section_name} rule matching "
                    f"prompt: {prompt[:80]!r}"
                )
            rule = section["default"]
        if not isinstance(rule, dict) or payload_key not in rule:
            raise ProtocolError(f"script rule lacks {payload_key!r}: {shown(rule)}")
        return rule[payload_key]

    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        mask_probs_body(prompt, candidates)
        return checked_probs(candidates, {"probs": self._lookup("mask_probs", prompt, "probs")})

    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        generate_body(prompt, max_tokens)
        return checked_text({"text": self._lookup("generate", prompt, "text")})
