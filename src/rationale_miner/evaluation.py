"""Scoring, gold annotations, dataset splitting and corpus counts.

Rationale-level credit is deliberately loose: a predicted rationale counts as
a true positive when its solution shares at least one sentence with some gold
solution.  Sentence-level credit first maps each predicted rationale to the
gold rationale with the largest solution overlap and then checks category
membership inside that gold rationale.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from .corpus import IssueLog, enumerate_sentences, is_path_component
from .errors import ConfigError, DegenerateData, MalformedExport, UnknownSentence, shown
from .features import FEATURE_BLOCKS, FEATURE_NAMES
from .miner import ARGUMENT, COMPLEMENTARY, SOLUTION, SUPPORTING, UNRELATED, Rationale

CATEGORY_NONE = "none"
CATEGORIES = (CATEGORY_NONE, ARGUMENT, SOLUTION)


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def _safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _f1(precision: float, recall: float) -> float:
    return _safe_div(2 * precision * recall, precision + recall)


def eval_binary(predicted: Iterable, gold: Iterable) -> PRF:
    """Plain binary precision/recall/F1 over two id sets: sentence ids, or
    the positions of the 1s in two aligned 0/1 label sequences."""
    predicted, gold = set(predicted), set(gold)
    tp = len(predicted & gold)
    precision = _safe_div(tp, len(predicted))
    recall = _safe_div(tp, len(gold))
    return PRF(precision, recall, _f1(precision, recall))


def _solutions_overlap(a: Rationale, b: Rationale) -> bool:
    return bool(set(a.solution) & set(b.solution))


def eval_rationales(predicted: list[Rationale], gold: list[Rationale]) -> PRF:
    """Rationale-level PRF under the shared-solution-sentence matching rule.

    Empty versus empty scores perfect; empty versus non-empty scores zero.
    """
    if not predicted and not gold:
        return PRF(1.0, 1.0, 1.0)
    if not predicted or not gold:
        return PRF(0.0, 0.0, 0.0)
    matched_pred = sum(1 for p in predicted if any(_solutions_overlap(p, g) for g in gold))
    matched_gold = sum(1 for g in gold if any(_solutions_overlap(g, p) for p in predicted))
    precision = matched_pred / len(predicted)
    recall = matched_gold / len(gold)
    return PRF(precision, recall, _f1(precision, recall))


def map_to_gold(predicted: list[Rationale], gold: list[Rationale],
                order: dict[str, int]) -> list[int | None]:
    """Index of the gold rationale each prediction maps to, or None.

    The map maximizes solution overlap; ties go to the gold rationale whose
    solution holds the earliest sentence; zero overlap leaves the prediction
    unmapped.  A gold solution sentence missing from ``order`` is an
    UnknownSentence.
    """
    for g in gold:
        for sid in g.solution:
            if sid not in order:
                raise UnknownSentence(
                    f"gold names solution sentence {sid}, which the corpus does not hold")
    assignments: list[int | None] = []
    for pred in predicted:
        scored = [(-overlap, min(order[s] for s in g.solution), gi)
                  for gi, g in enumerate(gold)
                  if (overlap := len(set(pred.solution) & set(g.solution)))]
        assignments.append(min(scored)[2] if scored else None)
    return assignments


def eval_sentences(predicted: list[Rationale], gold: list[Rationale],
                   order: dict[str, int]) -> dict[str, PRF]:
    """Per-category sentence PRF after mapping predictions onto gold.

    A predicted solution (or argument) sentence is correct only when its
    rationale maps to a gold rationale listing that sentence in the same
    category; argument group boundaries do not matter here.  A category with
    no sentence on either side scores 0, unlike ``eval_rationales``.
    """
    assignments = map_to_gold(predicted, gold, order)
    results = {}
    for category in (SOLUTION, ARGUMENT):
        def members(r: Rationale) -> list[str]:
            if category == SOLUTION:
                return list(r.solution)
            return [sid for group in r.arguments for sid in group]

        tp = 0
        for pred, target in zip(predicted, assignments):
            if target is None:
                continue
            tp += len(set(members(pred)) & set(members(gold[target])))
        pred_total = sum(len(members(p)) for p in predicted)
        gold_total = sum(len(members(g)) for g in gold)
        precision = _safe_div(tp, pred_total)
        recall = _safe_div(tp, gold_total)
        results[category] = PRF(precision, recall, _f1(precision, recall))
    return results


@dataclass
class Annotation:
    """One annotator's labels for one issue: a category per sentence id plus
    the rationale groupings implied by those labels."""

    issue: str
    annotator: str
    labels: dict[str, str]
    rationales: list[Rationale] = field(default_factory=list)

    def design_label(self, sentence_id: str) -> int:
        """1 for a design sentence, else 0: an omitted sentence is ``none``."""
        return int(self.labels.get(sentence_id, CATEGORY_NONE) != CATEGORY_NONE)

    def design_ids(self) -> list[str]:
        return [sid for sid in self.labels if self.design_label(sid)]

    @classmethod
    def from_json(cls, payload: dict) -> "Annotation":
        if not isinstance(payload, dict):
            raise MalformedExport("annotation must be a JSON object")
        for key in ("issue", "annotator", "labels"):
            if key not in payload:
                raise MalformedExport(f"annotation missing field {key!r}")
        for key in ("issue", "annotator"):
            if not isinstance(payload[key], str):
                raise MalformedExport(f"annotation {key} must be a string")
        if not is_path_component(payload["issue"]):
            # eval reads the mined file named after it
            raise MalformedExport(f"annotation issue {shown(payload['issue'])} is not a "
                                  "single path component")
        labels = payload["labels"]
        if not isinstance(labels, dict):
            raise MalformedExport("annotation labels must be an object")
        for sid, label in labels.items():
            if label not in CATEGORIES:
                raise MalformedExport(f"annotation label for {sid} is {shown(label)}")
        rationales = payload.get("rationales", [])
        if not isinstance(rationales, list):
            raise MalformedExport("annotation rationales must be a list")
        return cls(issue=payload["issue"], annotator=payload["annotator"],
                   labels=dict(labels),
                   rationales=[Rationale.from_json(r) for r in rationales])


def load_annotations(path: str | Path) -> list[Annotation]:
    """Read one annotation per line from a JSONL file, at most one per issue.
    A missing file (or too long a name to be one) is a ConfigError; a line
    that is not an annotation, or that annotates an issue an earlier line
    holds, is a MalformedExport naming the file and line."""
    if not os.path.isfile(path):
        raise ConfigError(f"annotations file not found: {shown(str(path))}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedExport(f"{path}: {exc}") from exc
    records = []
    line_of: dict[str, int] = {}  # issue -> the line annotating it
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = Annotation.from_json(json.loads(line))
        except (ValueError, RecursionError, MalformedExport) as exc:
            raise MalformedExport(f"{path}:{number}: {exc}") from exc
        if record.issue in line_of:
            raise MalformedExport(f"{path}:{number}: issue {record.issue} is already "
                                  f"annotated on line {line_of[record.issue]}")
        line_of[record.issue] = number
        records.append(record)
    return records


def save_annotations(annotations: list[Annotation], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in annotations:
            handle.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def pair_labels_from_annotation(annotation: Annotation,
                                order: dict[str, int]) -> list[tuple[str, str, str]]:
    """Relation label per unordered design pair, derived from the groupings.

    Two sentences in the same solution, or in the same argument group, are
    complementary; an argument and a solution sentence of the same rationale
    are supporting; everything else is unrelated.  Design sentences missing
    from ``order`` are left out.
    """
    design = sorted((sid for sid in annotation.design_ids() if sid in order),
                    key=order.__getitem__)
    member_of: dict[str, tuple[int, str, int]] = {}
    for ri, rationale in enumerate(annotation.rationales):
        for sid in rationale.solution:
            member_of[sid] = (ri, SOLUTION, -1)
        for gi, group in enumerate(rationale.arguments):
            for sid in group:
                member_of[sid] = (ri, ARGUMENT, gi)
    labeled = []
    for sid1, sid2 in itertools.combinations(design, 2):
        a, b = member_of.get(sid1), member_of.get(sid2)
        if a is None or b is None or a[0] != b[0]:
            label = UNRELATED
        elif a[1] == b[1] and a[2] == b[2]:
            label = COMPLEMENTARY
        elif a[1] != b[1]:
            label = SUPPORTING
        else:
            label = UNRELATED
        labeled.append((sid1, sid2, label))
    return labeled


def split_dataset(issues: list[IssueLog], seed: int) -> tuple[list[IssueLog], list[IssueLog]]:
    """Hold out one uniformly drawn issue per project.

    Projects are visited in sorted order with issues sorted by key, so a seed
    fully determines the split.  A project with fewer than two issues raises
    DegenerateData.
    """
    by_project: dict[str, list[IssueLog]] = {}
    for issue in issues:
        by_project.setdefault(issue.project, []).append(issue)
    rng = random.Random(seed)
    test_keys = set()
    for project in sorted(by_project):
        members = sorted(by_project[project], key=lambda i: i.key)
        if len(members) < 2:
            raise DegenerateData(
                f"project {project} has {len(members)} issue(s); need at least 2"
            )
        test_keys.add(members[rng.randrange(len(members))].key)
    ordered = sorted(issues, key=lambda i: i.key)
    train = [i for i in ordered if i.key not in test_keys]
    test = [i for i in ordered if i.key in test_keys]
    return train, test


def dimension_slots(dimension: str) -> list[int]:
    """Feature indices zeroed when ablating a named dimension."""
    return [FEATURE_NAMES.index(name) for name in FEATURE_BLOCKS[dimension]]


def corpus_stats(issues: list[IssueLog],
                 annotations: list[Annotation] | None = None) -> list[dict]:
    """Per-project issue/comment/sentence counts, plus design counts if
    annotations are given; ends with a total row."""
    design_by_issue = {record.issue: len(record.design_ids()) for record in annotations or []}
    counts = ("issues", "comments", "sentences", "design_sentences")
    rows: dict[str, dict] = {}
    for issue in issues:
        row = rows.setdefault(issue.project, {"project": issue.project,
                                              **dict.fromkeys(counts, 0)})
        for name, value in zip(counts, (1, len(issue.comments), len(enumerate_sentences(issue)),
                                        design_by_issue.get(issue.key, 0))):
            row[name] += value
    ordered = [rows[p] for p in sorted(rows)]
    return ordered + [{"project": "total",
                       **{name: sum(row[name] for row in ordered) for name in counts}}]
