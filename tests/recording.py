"""A backend wrapper for tests that keeps the calls it passes on."""

from __future__ import annotations

from rationale_miner.backends.protocol import DEFAULT_MAX_TOKENS, Backend


class Recording(Backend):
    """Passes each call on to ``inner`` and keeps its ``(kind, prompt)`` in
    ``calls``, in the order the calls were made."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.calls: list[tuple[str, str]] = []

    def mask_probs(self, prompt: str, candidates: tuple[str, ...]) -> tuple[float, ...]:
        self.calls.append(("mask_probs", prompt))
        return self.inner.mask_probs(prompt, candidates)

    def generate(self, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        self.calls.append(("generate", prompt))
        return self.inner.generate(prompt, max_tokens)
