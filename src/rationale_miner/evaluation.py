"""Scoring, gold annotations, dataset splitting, and feature ablations.

Rationale-level credit is deliberately loose: a predicted rationale counts as
a true positive when its solution shares at least one sentence with some gold
solution.  Sentence-level credit first maps each predicted rationale to the
gold rationale with the largest solution overlap and then checks category
membership inside that gold rationale.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .backends.baseline import PAIR_FEATURE_NAMES, pair_features, train_baseline
from .corpus import IssueLog, Sentence, enumerate_sentences, is_path_component, sentence_order
from .errors import (
    ConfigError,
    CoverageMismatch,
    MalformedExport,
    TooFewIssues,
    UnknownDimension,
    UnknownSentence,
    shown,
)
from .features import FEATURE_DIM, FEATURE_GROUPS, compute_feature_matrix
from .miner import COMPLEMENTARY, SUPPORTING, UNRELATED, Rationale
from .prompts import RELATION_LABELS

CATEGORY_NONE = "none"
CATEGORY_ARGUMENT = "argument"
CATEGORY_SOLUTION = "solution"
CATEGORIES = (CATEGORY_NONE, CATEGORY_ARGUMENT, CATEGORY_SOLUTION)


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
    the ``np.flatnonzero`` positions of aligned 0/1 arrays."""
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
        best: int | None = None
        best_overlap = 0
        for gi, g in enumerate(gold):
            overlap = len(set(pred.solution) & set(g.solution))
            if overlap == 0:
                continue
            if best is None or overlap > best_overlap:
                best, best_overlap = gi, overlap
            elif overlap == best_overlap:
                current = min(order[s] for s in gold[best].solution)
                challenger = min(order[s] for s in g.solution)
                if challenger < current:
                    best = gi
        assignments.append(best)
    return assignments


def eval_sentences(predicted: list[Rationale], gold: list[Rationale],
                   order: dict[str, int]) -> dict[str, PRF]:
    """Per-category sentence PRF after mapping predictions onto gold.

    A predicted solution (or argument) sentence is correct only when its
    rationale maps to a gold rationale listing that sentence in the same
    category; argument group boundaries do not matter here.
    """
    assignments = map_to_gold(predicted, gold, order)
    results = {}
    for category in (CATEGORY_SOLUTION, CATEGORY_ARGUMENT):
        def members(r: Rationale) -> list[str]:
            if category == CATEGORY_SOLUTION:
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

    def design_ids(self) -> list[str]:
        return [sid for sid, label in self.labels.items() if label != CATEGORY_NONE]

    def to_json(self) -> dict:
        return {
            "issue": self.issue,
            "annotator": self.annotator,
            "labels": self.labels,
            "rationales": [r.to_json() for r in self.rationales],
        }

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
    """Read one annotation per line from a JSONL file.  A missing file is a
    ConfigError; a line that is not an annotation is a MalformedExport naming
    the file and line."""
    if not Path(path).is_file():
        raise ConfigError(f"annotations file not found: {path}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedExport(f"{path}: {exc}") from exc
    records = []
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(Annotation.from_json(json.loads(line)))
        except (ValueError, RecursionError, MalformedExport) as exc:
            raise MalformedExport(f"{path}:{number}: {exc}") from exc
    return records


def save_annotations(annotations: list[Annotation], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in annotations:
            handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")


def _filter_rationales(rationales: list[Rationale], keep: set[str]) -> list[Rationale]:
    filtered = []
    for r in rationales:
        solution = [sid for sid in r.solution if sid in keep]
        arguments = [[sid for sid in g if sid in keep] for g in r.arguments]
        arguments = [g for g in arguments if g]
        if solution:
            filtered.append(Rationale(solution=solution, arguments=arguments))
    return filtered


def adjudicate(stream_a: Annotation, stream_b: Annotation,
               expert: Annotation) -> Annotation:
    """Merge two annotator streams with an expert tie-breaker.

    All three must label exactly the same sentence ids (CoverageMismatch
    otherwise).  Each sentence takes the majority label, and a three-way split
    takes the expert's.  Rationale groupings come from the first stream whose
    labels agree with the adjudicated ones, preferring the expert, then
    stream A; if nobody matches, the expert's groupings are filtered down to
    the adjudicated design sentences.
    """
    streams = (expert, stream_a, stream_b)
    coverage = set(stream_a.labels)
    for stream in (stream_b, expert):
        if set(stream.labels) != coverage:
            raise CoverageMismatch(
                f"annotators cover different sentences for {stream_a.issue}: "
                f"{sorted(coverage ^ set(stream.labels))}"
            )
    final: dict[str, str] = {}
    for sid in sorted(coverage):
        votes = [s.labels[sid] for s in (stream_a, stream_b, expert)]
        counts = {label: votes.count(label) for label in set(votes)}
        majority = [label for label, count in counts.items() if count >= 2]
        final[sid] = majority[0] if majority else expert.labels[sid]
    for stream in streams:
        if stream.labels == final:
            rationales = stream.rationales
            break
    else:
        keep = {sid for sid, label in final.items() if label != CATEGORY_NONE}
        rationales = _filter_rationales(expert.rationales, keep)
    return Annotation(issue=stream_a.issue, annotator="adjudicated",
                      labels=final, rationales=rationales)


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
            member_of[sid] = (ri, CATEGORY_SOLUTION, -1)
        for gi, group in enumerate(rationale.arguments):
            for sid in group:
                member_of[sid] = (ri, CATEGORY_ARGUMENT, gi)
    labeled = []
    for i, sid1 in enumerate(design):
        for sid2 in design[i + 1:]:
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
    TooFewIssues.
    """
    by_project: dict[str, list[IssueLog]] = {}
    for issue in issues:
        by_project.setdefault(issue.project, []).append(issue)
    rng = random.Random(seed)
    test_keys = set()
    for project in sorted(by_project):
        members = sorted(by_project[project], key=lambda i: i.key)
        if len(members) < 2:
            raise TooFewIssues(
                f"project {project} has {len(members)} issue(s); need at least 2"
            )
        test_keys.add(members[rng.randrange(len(members))].key)
    ordered = sorted(issues, key=lambda i: i.key)
    train = [i for i in ordered if i.key not in test_keys]
    test = [i for i in ordered if i.key in test_keys]
    return train, test


@dataclass
class AblationResult:
    dimension: str
    masked_slots: list[int]
    precision: float
    recall: float
    f1: float


def dimension_slots(dimension: str) -> list[int]:
    """Feature indices zeroed when ablating a named dimension."""
    if dimension not in FEATURE_GROUPS:
        raise UnknownDimension(
            f"unknown feature dimension {dimension!r}; "
            f"expected one of {sorted(FEATURE_GROUPS)}"
        )
    start, stop = FEATURE_GROUPS[dimension]
    return list(range(start, stop))


def mask_features(features: np.ndarray, slots: list[int]) -> np.ndarray:
    masked = np.array(features, dtype=np.float64, copy=True)
    if slots:
        masked[:, slots] = 0.0
    return masked


def run_ablation(train_texts: list[str], train_features: np.ndarray,
                 train_labels: np.ndarray, test_texts: list[str],
                 test_features: np.ndarray, test_labels: np.ndarray,
                 dimension: str | None) -> AblationResult:
    """Retrain the design-sentence baseline with one feature block zeroed."""
    slots = dimension_slots(dimension) if dimension else []
    model = train_baseline(train_texts, mask_features(train_features, slots),
                           np.asarray(train_labels))
    predictions = model.predict(test_texts, mask_features(test_features, slots))
    prf = eval_binary(np.flatnonzero(predictions), np.flatnonzero(test_labels))
    return AblationResult(dimension=dimension or "full", masked_slots=slots,
                          precision=prf.precision, recall=prf.recall, f1=prf.f1)


def annotated_issues(issues: list[IssueLog], annotations: list[Annotation],
                     analyzer=None
                     ) -> Iterator[tuple[IssueLog, list[Sentence], np.ndarray, list[int]]]:
    """Each annotated issue with its sentences, their feature matrix and
    their design labels (1 design, 0 not), in corpus order.  Sentences
    missing from an annotation count as non-design."""
    by_issue = {a.issue: a for a in annotations}
    for issue in issues:
        annotation = by_issue.get(issue.key)
        if annotation is None:
            continue
        sentences, matrix = compute_feature_matrix(issue, analyzer)
        labels = [0 if annotation.labels.get(s.id, CATEGORY_NONE) == CATEGORY_NONE else 1
                  for s in sentences]
        yield issue, sentences, matrix, labels


def collect_extraction_data(issues: list[IssueLog],
                            annotations: list[Annotation],
                            analyzer=None):
    """Flatten ``annotated_issues`` into (texts, features, labels, ids) for
    training the design-sentence classifiers."""
    texts: list[str] = []
    rows: list[np.ndarray] = []
    labels: list[int] = []
    ids: list[tuple[str, str]] = []
    for issue, sentences, matrix, design in annotated_issues(issues, annotations, analyzer):
        texts.extend(s.text for s in sentences)
        rows.extend(matrix)
        labels.extend(design)
        ids.extend((issue.key, s.id) for s in sentences)
    features = np.array(rows) if rows else np.zeros((0, FEATURE_DIM))
    return texts, features, np.array(labels, dtype=np.int64), ids


def collect_pair_data(issues: list[IssueLog], annotations: list[Annotation]):
    """Pair feature matrix and relation labels derived from annotations."""
    by_issue = {a.issue: a for a in annotations}
    rows: list[np.ndarray] = []
    labels: list[int] = []
    for issue in issues:
        annotation = by_issue.get(issue.key)
        if annotation is None:
            continue
        sentences = enumerate_sentences(issue)
        by_id = {s.id: s for s in sentences}
        for sid1, sid2, label in pair_labels_from_annotation(annotation,
                                                            sentence_order(sentences)):
            rows.append(pair_features(by_id[sid1], by_id[sid2]))
            labels.append(RELATION_LABELS.index(label))
    matrix = np.array(rows) if rows else np.zeros((0, len(PAIR_FEATURE_NAMES)))
    return matrix, np.array(labels, dtype=np.int64)


def corpus_stats(issues: list[IssueLog],
                 annotations: list[Annotation] | None = None) -> list[dict]:
    """Per-project issue/comment/sentence counts, plus design counts if
    annotations are given; ends with a total row."""
    design_by_issue = {}
    for record in annotations or []:
        design_by_issue[record.issue] = len(record.design_ids())
    rows: dict[str, dict] = {}
    for issue in issues:
        row = rows.setdefault(issue.project, {
            "project": issue.project, "issues": 0, "comments": 0,
            "sentences": 0, "design_sentences": 0,
        })
        row["issues"] += 1
        row["comments"] += len(issue.comments)
        row["sentences"] += len(enumerate_sentences(issue))
        row["design_sentences"] += design_by_issue.get(issue.key, 0)
    ordered = [rows[p] for p in sorted(rows)]
    total = {
        "project": "total",
        "issues": sum(r["issues"] for r in ordered),
        "comments": sum(r["comments"] for r in ordered),
        "sentences": sum(r["sentences"] for r in ordered),
        "design_sentences": sum(r["design_sentences"] for r in ordered),
    }
    return ordered + [total]
