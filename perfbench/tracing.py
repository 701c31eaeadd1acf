"""Spans around the pipeline's layer calls, and the per-layer figures they give.

A span has a name, start, end, the span open on the driving thread when it
began (its parent) and the key of the issue being mined.  Backend calls run
on the pipeline's worker threads while the driving thread waits inside the
stage that issued them, so they take that stage as parent.  Spans stay in
memory until the traced run ends.  A span's self time is its duration minus
the part of it that its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from rationale_miner.backends.protocol import Backend


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, issue, error)
        self.stack: list[int] = []  # open spans of the driving thread
        self.issue: str | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _record(self, name: str, start: float, end: float, parent, error: bool = False,
                span_id: int | None = None) -> None:
        with self._lock:
            if span_id is None:
                span_id = next(self._ids)
            self.spans.append((span_id, name, start, end, parent, self.issue, error))

    @contextmanager
    def span(self, name: str):
        with self._lock:
            span_id = next(self._ids)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self._record(name, start, end, parent, span_id=span_id)

    def leaf(self, name: str, start: float, end: float, error: bool = False) -> None:
        """A span with no children, possibly recorded from a worker thread."""
        self._record(name, start, end, self.stack[-1] if self.stack else None, error)

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "issue", "error")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class TracedBackend(Backend):
    """Times and counts every call to the wrapped backend."""

    def __init__(self, inner: Backend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def _call(self, name: str, func, *args):
        start = perf_counter()
        error = True
        try:
            result = func(*args)
            error = False
            return result
        finally:
            self.tracer.leaf(name, start, perf_counter(), error)

    def mask_probs(self, prompt, candidates):
        return self._call("backend.mask_probs", self.inner.mask_probs, prompt, candidates)

    def generate(self, prompt, max_tokens=8):
        return self._call("backend.generate", self.inner.generate, prompt, max_tokens)


class TracedAnalyzer:
    """Times every sentiment call of the wrapped ``SentimentAnalyzer``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def scores(self, text):
        start = perf_counter()
        try:
            return self.inner.scores(text)
        finally:
            self.tracer.leaf("sentiment", start, perf_counter())


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    result = {}
    for span_id, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span_id] = (end - start) - covered
    return result


def layer_metrics(spans: list[tuple], counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``counts`` holds what the pass counted at the layer boundaries:
    issues, sentences, design pairs (forward probes), unparsable answers,
    graph nodes, supporting edges and output bytes.
    """
    own = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    number = defaultdict(int)
    calls, errors = [], 0
    for span in spans:
        span_id, name, start, end, _, _, error = span
        total[name] += end - start
        self_total[name] += own[span_id]
        number[name] += 1
        if name.startswith("backend."):
            calls.append(end - start)
            errors += error
    forward = counts["forward"]
    reverse = number["backend.generate"] - forward
    stage_wall = total["extract"] + total["pairs"]
    wait = sum(calls)
    return {
        "features.us_per_sentence": 1e6 * total["features"] / max(counts["sentences"], 1),
        "sentiment.calls": number["sentiment"],
        "sentiment.self_s": self_total["sentiment"],
        "extract.self_s": self_total["extract"],
        "pairs.self_s": self_total["pairs"],
        "backend.mask_probs.calls": number["backend.mask_probs"],
        "backend.generate.calls": number["backend.generate"],
        "backend.wait_s": wait,
        "backend.call_p50_ms": 1e3 * float(np.percentile(calls, 50)) if calls else 0.0,
        "backend.call_p90_ms": 1e3 * float(np.percentile(calls, 90)) if calls else 0.0,
        "backend.errors": errors,
        "backend.inflight_mean": wait / stage_wall if stage_wall else 0.0,
        "pairs.forward": forward,
        "pairs.reverse": reverse,
        "pairs.reverse_share": reverse / forward if forward else 0.0,
        "pairs.unparsable": counts["unparsable"],
        "construct.s": total["construct"],
        "construct.nodes": counts["nodes"],
        "construct.supporting_edges": counts["supporting"],
        "output.s": total["output"],
        "output.bytes": counts["output_bytes"],
        "corpus.load_s": total["corpus.load"],
        "corpus.us_per_sentence": 1e6 * total["corpus.load"] / max(counts["sentences"], 1),
    }
