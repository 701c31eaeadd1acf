"""Test doubles that keep what a run did: a backend wrapper that keeps the
calls it passes on, a stand-in for the backends that runs build, and a
runner of one command in this process."""

from __future__ import annotations

import contextlib
import io
import threading
import time

from rationale_miner import cli
from rationale_miner.backends.protocol import DEFAULT_MAX_TOKENS, Backend
from rationale_miner.config import build_backend


class Recording(Backend):
    """Passes each call on to ``inner``, ``delay`` seconds late, and keeps
    its ``(kind, prompt)`` in ``calls``, in the order the calls were made,
    and the most calls it had in flight at once in ``peak``."""

    def __init__(self, inner: Backend, delay: float = 0.0):
        self.inner = inner
        self.delay = delay
        self.calls: list[tuple[str, str]] = []
        self.peak = 0
        self.lock = threading.Lock()
        self._in_flight = 0

    def before(self, prompt: str) -> None:
        """Runs on the calling thread before each call is recorded; a test
        overrides it to hold or fail a call."""

    def _call(self, kind: str, call, prompt: str, *args):
        self.before(prompt)
        with self.lock:
            self.calls.append((kind, prompt))
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        try:
            if self.delay:
                time.sleep(self.delay)
            return call(prompt, *args)
        finally:
            with self.lock:
                self._in_flight -= 1

    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        return self._call("mask_probs", self.inner.mask_probs, prompt, candidates)

    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        return self._call("generate", self.inner.generate, prompt, max_tokens)


def recorded(monkeypatch, make=Recording) -> list:
    """The ``make`` wrappers (Recording by default) around the configured
    backends that runs build from now on, in build order."""
    built = []

    def build(cfg):
        built.append(make(build_backend(cfg)))
        return built[-1]

    monkeypatch.setattr(cli, "build_backend", build)
    return built


def run_command(command: str, config, out, *flags: str) -> tuple[int, str, str, dict]:
    """Exit code, stdout, stderr and output files (name -> bytes, a directory
    among them left out) of ``command`` with ``--out out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([command, "-c", str(config), "--out", str(out), *flags])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    # Output paths name the output directory; compare them without it.
    return rc, stdout.getvalue().replace(str(out), "<out>"), stderr.getvalue(), files
