"""Synthetic issue corpus with known design labels, for offline benchmarks.

Design sentences draw from proposal-flavored templates that all carry the
keyword "solution", and non-design sentences from status-noise templates with
disjoint content words, so a text baseline can separate them; positions and
authors are still randomized to keep the handcrafted features non-trivial.
"""

from __future__ import annotations

import datetime as _dt
import random
from itertools import groupby

from .corpus import Comment, IssueLog
from .evaluation import CATEGORY_NONE, Annotation
from .miner import SOLUTION, Rationale

PROJECTS = ("ALPHA", "BRAVO", "CHARLIE")
# The share of sentences drawn from the design templates.
DESIGN_RATE = 0.4

_VERBS = ("refactor", "redesign", "split", "cache", "batch", "isolate")
_COMPONENTS = ("scheduler", "parser", "router", "allocator", "resolver")
_ARTIFACTS = ("interface", "pipeline", "registry", "protocol")

_DESIGN_TEMPLATES = (
    "Proposed solution is to {v} the {c} {a}.",
    "My solution would be to {v} the {c} so the {a} stays simple.",
    "A cleaner solution is to {v} the {c} first.",
    "The solution should {v} the {a} behind a flag.",
)

_NOISE_TEMPLATES = (
    "The nightly run finished on {n} executors.",
    "Attached the trace from run {n}.",
    "Closing as duplicate after triage.",
    "The release train left at noon.",
    "Merged to master in revision {n}.",
)


def _design_sentence(rng: random.Random) -> str:
    template = rng.choice(_DESIGN_TEMPLATES)
    return template.format(v=rng.choice(_VERBS), c=rng.choice(_COMPONENTS),
                           a=rng.choice(_ARTIFACTS))


def _noise_sentence(rng: random.Random) -> str:
    template = rng.choice(_NOISE_TEMPLATES)
    return template.format(n=rng.randrange(2, 40))


def _block_rationales(labels: dict[str, str]) -> list[Rationale]:
    """One argument-less rationale per block that holds design sentences."""
    design = [sid for sid, label in labels.items() if label == SOLUTION]
    return [Rationale(solution=list(ids), arguments=[])
            for _, ids in groupby(design, key=lambda sid: sid.rsplit("-s", 1)[0])]


def make_design_corpus(seed: int = 0, min_sentences: int = 200
                       ) -> tuple[list[IssueLog], list[Annotation]]:
    """Generate labeled issues totalling at least ``min_sentences`` sentences.

    Issues are spread over three projects.  The returned annotations label
    every sentence, design ones as solutions, and make the design sentences
    of each block (the description, or one comment) one rationale's solution:
    pairs inside a block are complementary, pairs across blocks unrelated.
    """
    rng = random.Random(seed)
    base = _dt.datetime(2020, 1, 1, tzinfo=_dt.timezone.utc)
    issues: list[IssueLog] = []
    annotations: list[Annotation] = []
    total_sentences = 0
    number = 0
    while total_sentences < min_sentences:
        number += 1
        project = PROJECTS[number % len(PROJECTS)]
        key = f"{project}-{100 + number}"
        labels: dict[str, str] = {}

        def sample(sid: str) -> str:
            if rng.random() < DESIGN_RATE:
                labels[sid] = SOLUTION
                return _design_sentence(rng)
            labels[sid] = CATEGORY_NONE
            return _noise_sentence(rng)

        summary = f"Ticket {number} for the {rng.choice(_COMPONENTS)}"
        labels["sum-s0"] = CATEGORY_NONE
        description = " ".join(
            sample(f"des-s{j}") for j in range(rng.randrange(1, 3))
        )
        comments = []
        for k in range(rng.randrange(2, 5)):
            body = " ".join(
                sample(f"c{k}-s{j}") for j in range(rng.randrange(1, 4))
            )
            comments.append(Comment(
                author=f"dev{rng.randrange(2, 5)}",
                body=body,
                created=base + _dt.timedelta(days=number, minutes=k),
            ))
        issues.append(IssueLog(key=key, summary=summary, description=description,
                               reporter="dev1", comments=comments))
        annotations.append(Annotation(issue=key, annotator="synthetic",
                                      labels=labels, rationales=_block_rationales(labels)))
        total_sentences += len(labels)
    return issues, annotations
