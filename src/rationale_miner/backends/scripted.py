"""Deterministic scripted backend for tests, demos, and offline golden runs.

A script is a JSON object with ``mask_probs`` and ``generate`` sections.
Each section holds ordered ``rules`` plus an optional ``default``; the first
rule whose ``contains`` matcher hits the prompt wins: a substring, or a list
of substrings that must all occur.  The whole script is checked when the
backend is built: one that cannot be read, or any part of the wrong shape, is
a ConfigError.  Each call's request and canned reply pass the same protocol
checks as a model server's; a prompt that nothing answers is a ProtocolError.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..corpus import read_regular_file
from ..errors import ConfigError, ProtocolError, shown
from .protocol import (DEFAULT_MAX_TOKENS, Backend, checked_probs, checked_text, generate_body,
                       mask_probs_body)


def _reply(rule, payload_key: str):
    if not isinstance(rule, dict) or payload_key not in rule:
        raise ConfigError(f"script rule lacks {payload_key!r}: {shown(rule)}")
    return rule[payload_key]


def _rows(script: dict, section_name: str, payload_key: str) -> tuple:
    """The section's ``(needles, reply)`` rows: its rules, then its default."""
    section = script.get(section_name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"script section {section_name!r} must be an object")
    rules = section.get("rules", [])
    if not isinstance(rules, list):
        raise ConfigError(f"script {section_name} rules must be a list")
    rows = []
    for rule in rules:
        needles = rule.get("contains") if isinstance(rule, dict) else None
        if needles is None:
            raise ConfigError(f"script rule has no matcher: {shown(rule)}")
        needles = [needles] if isinstance(needles, str) else needles
        if not isinstance(needles, list) or not all(isinstance(n, str) for n in needles):
            raise ConfigError(f"script rule's contains must be a string or a list of "
                              f"strings: {shown(rule)}")
        rows.append((tuple(needles), _reply(rule, payload_key)))
    if "default" in section:
        rows.append(((), _reply(section["default"], payload_key)))
    return tuple(rows)


class ScriptedBackend(Backend):
    """Replays canned responses."""

    def __init__(self, script: dict):
        self.rows = {"mask_probs": _rows(script, "mask_probs", "probs"),
                     "generate": _rows(script, "generate", "text")}

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        try:
            script = json.loads(read_regular_file(path).decode("utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            # an OSError's strerror leaves out the path it carries
            raise ConfigError(f"cannot read script {shown(str(path))}: "
                              f"{getattr(exc, 'strerror', None) or exc}") from exc
        if not isinstance(script, dict):
            raise ConfigError(f"script {shown(str(path))} must hold a JSON object")
        return cls(script)

    def _lookup(self, section_name: str, prompt: str):
        for needles, reply in self.rows[section_name]:
            for needle in needles:
                if needle not in prompt:
                    break
            else:
                return reply
        raise ProtocolError(f"scripted backend has no {section_name} rule matching "
                            f"prompt: {prompt[:80]!r}")

    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        mask_probs_body(prompt, candidates)
        return checked_probs(candidates, {"probs": self._lookup("mask_probs", prompt)})

    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        generate_body(prompt, max_tokens)
        return checked_text({"text": self._lookup("generate", prompt)})
