"""Head training, the prompt-free baselines and the feature ablation.

The design-sentence baseline concatenates a TF-IDF bag of words with the
29-dimensional feature block and fits a logistic head on top.  The pair
baseline scores sentence pairs from six structural features with a ternary
softmax head.  Dense feature blocks are standardized with statistics from the
training split; constant (or ablated) columns stay at zero.  Baseline mode
mines with the two models as its classifiers.  Training is deterministic
full-batch gradient descent from zero weights, so the same data always
yields byte-identical saved models.

This is the one module that imports numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..corpus import IssueLog, Sentence, enumerate_sentences, pair_structure, sentence_order
from ..errors import DegenerateData
from ..evaluation import Annotation, dimension_slots, eval_binary, pair_labels_from_annotation
from ..features import (
    FEATURE_DIM,
    FEATURE_NAMES,
    compute_feature_matrix,
    keyword_flags,
    word_tokens,
)
from ..miner import DESIGN_THRESHOLD, SUPPORTING, Edge, design_pairs, pair_edge
from ..prompts import RELATION_LABELS
from ..sentiment import SentimentAnalyzer
from .heads import (
    LogisticHead,
    feature_fingerprint,
    finite_numbers,
    logistic_of,
    read_model,
    write_model,
)

DEFAULT_LR = 0.1
DEFAULT_EPOCHS = 500
DEFAULT_L2 = 1e-4


def expit(z: np.ndarray) -> np.ndarray:
    """The logistic ``1 / (1 + exp(-z))`` of each element, as float64.

    It goes through ``math.exp`` (the C library's), which rounds every value
    as ``scipy.special.expit`` does; numpy's SIMD ``exp`` does not.
    """
    z = np.asarray(z, dtype=np.float64)
    return np.fromiter(map(logistic_of, z.ravel().tolist()), dtype=np.float64,
                       count=z.size).reshape(z.shape)


def float_array(payload: dict, key: str, *shape: int) -> np.ndarray:
    """``payload[key]`` as a float64 array of ``shape``; a ValueError unless
    it holds finite numbers of that shape."""
    return np.array(finite_numbers(payload, key, *shape), dtype=np.float64).reshape(shape)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


@dataclass
class SoftmaxHead:
    weights: np.ndarray  # (num_classes, dim)
    bias: np.ndarray  # (num_classes,)
    fingerprint: str = ""
    meta: dict = field(default_factory=dict)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        z = np.asarray(X, dtype=np.float64) @ self.weights.T + self.bias
        return _softmax(z)

    def to_json(self) -> dict:
        return {"kind": "softmax", "weights": self.weights.tolist(),
                "bias": self.bias.tolist(), "fingerprint": self.fingerprint,
                "meta": self.meta}

    @classmethod
    def from_json(cls, payload: dict, classes: int, width: int) -> "SoftmaxHead":
        return cls(weights=float_array(payload, "weights", classes, width),
                   bias=float_array(payload, "bias", classes),
                   fingerprint=payload.get("fingerprint", ""),
                   meta=payload.get("meta", {}))


def train_head(X: np.ndarray, y: np.ndarray, num_classes: int = 2,
               fingerprint: str = "") -> LogisticHead | SoftmaxHead:
    """Fit a head on integer labels; raises DegenerateData on a single class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise DegenerateData("training data contains a single class")
    n, dim = X.shape
    meta = {"lr": DEFAULT_LR, "epochs": DEFAULT_EPOCHS, "l2": DEFAULT_L2,
            "num_classes": num_classes}

    if num_classes == 2:
        w = np.zeros(dim)
        b = 0.0
        target = y.astype(np.float64)
        for _ in range(DEFAULT_EPOCHS):
            p = expit(X @ w + b)
            delta = p - target
            w -= DEFAULT_LR * (X.T @ delta / n + DEFAULT_L2 * w)
            b -= DEFAULT_LR * float(delta.mean())
        return LogisticHead(weights=w, bias=b, fingerprint=fingerprint, meta=meta)

    W = np.zeros((num_classes, dim))
    b = np.zeros(num_classes)
    onehot = np.eye(num_classes)[y]
    for _ in range(DEFAULT_EPOCHS):
        P = _softmax(X @ W.T + b)
        delta = P - onehot
        W -= DEFAULT_LR * (delta.T @ X / n + DEFAULT_L2 * W)
        b -= DEFAULT_LR * delta.mean(axis=0)
    return SoftmaxHead(weights=W, bias=b, fingerprint=fingerprint, meta=meta)


MIN_DOC_FREQ = 2

PAIR_FEATURE_NAMES: tuple[str, ...] = (
    "in_same_comment", "distance", "token_jaccard",
    "word_count_1", "word_count_2", "shared_keyword",
)

BASELINE_FINGERPRINT = feature_fingerprint(("tfidf",) + FEATURE_NAMES)
PAIR_FINGERPRINT = feature_fingerprint(PAIR_FEATURE_NAMES)


def _tokenize(text: str) -> list[str]:
    return text.lower().split()


@dataclass
class TfidfVectorizer:
    """Bag-of-words with smoothed idf; vocabulary needs document frequency >= 2."""

    vocabulary: list[str]
    idf: np.ndarray

    @classmethod
    def fit(cls, documents: list[str]) -> "TfidfVectorizer":
        doc_freq: Counter[str] = Counter()
        for doc in documents:
            doc_freq.update(set(_tokenize(doc)))
        vocabulary = sorted(t for t, df in doc_freq.items() if df >= MIN_DOC_FREQ)
        n = len(documents)
        idf = np.array(
            [math.log((1 + n) / (1 + doc_freq[t])) + 1.0 for t in vocabulary],
            dtype=np.float64,
        )
        return cls(vocabulary=vocabulary, idf=idf)

    def transform(self, documents: list[str]) -> np.ndarray:
        index = {t: i for i, t in enumerate(self.vocabulary)}
        matrix = np.zeros((len(documents), len(self.vocabulary)))
        for row, doc in enumerate(documents):
            for token, count in Counter(_tokenize(doc)).items():
                col = index.get(token)
                if col is not None:
                    matrix[row, col] = count * self.idf[col]
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        np.divide(matrix, norms, out=matrix, where=norms > 0)
        return matrix


@dataclass
class _Scaler:
    mean: np.ndarray
    scale: np.ndarray  # zero where the training column was constant

    @classmethod
    def fit(cls, X: np.ndarray) -> "_Scaler":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        scale = np.where(std > 1e-12, 1.0 / np.where(std > 1e-12, std, 1.0), 0.0)
        return cls(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) * self.scale

    def to_json(self) -> dict:
        return {"scaler_mean": self.mean.tolist(), "scaler_scale": self.scale.tolist()}

    @classmethod
    def from_json(cls, payload: dict, width: int) -> "_Scaler":
        return cls(mean=float_array(payload, "scaler_mean", width),
                   scale=float_array(payload, "scaler_scale", width))


@dataclass
class BaselineModel:
    vectorizer: TfidfVectorizer
    scaler: _Scaler
    head: LogisticHead

    def _design_matrix(self, texts: list[str], features) -> np.ndarray:
        """The TF-IDF row of each text beside its scaled feature row."""
        dense = np.asarray(features, dtype=np.float64).reshape(len(texts), FEATURE_DIM)
        return np.hstack([self.vectorizer.transform(texts), self.scaler.transform(dense)])

    def predict_proba(self, texts: list[str], features) -> np.ndarray:
        X = self._design_matrix(texts, features)
        return expit(X @ np.array(self.head.weights) + self.head.bias)

    def predict(self, texts: list[str], features) -> np.ndarray:
        return (self.predict_proba(texts, features) >= DESIGN_THRESHOLD).astype(np.int64)

    def scores(self, sentences: list[Sentence], features, summary: str) -> list[float]:
        return self.predict_proba([s.text for s in sentences], features).tolist()

    def to_json(self) -> dict:
        return {
            **self.head.to_json(), **self.scaler.to_json(),
            "kind": "design_baseline",
            "vocabulary": self.vectorizer.vocabulary,
            "idf": self.vectorizer.idf.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BaselineModel":
        vocabulary = payload["vocabulary"]
        if not (isinstance(vocabulary, list) and all(isinstance(w, str) for w in vocabulary)
                and len(set(vocabulary)) == len(vocabulary)):
            raise ValueError("vocabulary must be a list of distinct strings")
        vectorizer = TfidfVectorizer(vocabulary=vocabulary,
                                     idf=float_array(payload, "idf", len(vocabulary)))
        return cls(vectorizer=vectorizer, scaler=_Scaler.from_json(payload, FEATURE_DIM),
                   head=LogisticHead.from_json(payload, len(vocabulary) + FEATURE_DIM))

    def save(self, path: str | Path) -> None:
        write_model(self.to_json(), path)

    @classmethod
    def load(cls, path: str | Path) -> "BaselineModel":
        return read_model(path, "baseline", "design_baseline", cls.from_json,
                          BASELINE_FINGERPRINT)


def train_baseline(texts: list[str], features: np.ndarray, labels: np.ndarray) -> BaselineModel:
    """Fit the TF-IDF + features baseline; deterministic for fixed inputs."""
    vectorizer = TfidfVectorizer.fit(texts)
    features = np.asarray(features, dtype=np.float64)
    scaler = _Scaler.fit(features)
    X = np.hstack([vectorizer.transform(texts), scaler.transform(features)])
    head = train_head(X, labels, num_classes=2, fingerprint=BASELINE_FINGERPRINT)
    return BaselineModel(vectorizer=vectorizer, scaler=scaler, head=head)


def pair_features(s1: Sentence, s2: Sentence) -> np.ndarray:
    """Six structural features of an ordered sentence pair."""
    tokens1, tokens2 = set(word_tokens(s1.text)), set(word_tokens(s2.text))
    union = tokens1 | tokens2
    jaccard = len(tokens1 & tokens2) / len(union) if union else 0.0
    same_comment, distance = pair_structure(s1, s2)
    flags1, flags2 = keyword_flags(s1.text), keyword_flags(s2.text)
    shared = any(a == 1.0 and b == 1.0 for a, b in zip(flags1, flags2))
    return np.array([
        1.0 if same_comment else 0.0,
        float(distance),
        jaccard,
        float(len(s1.text.split())),
        float(len(s2.text.split())),
        1.0 if shared else 0.0,
    ])


@dataclass
class PairBaselineModel:
    scaler: _Scaler
    head: SoftmaxHead

    def predict_proba(self, pair_matrix: np.ndarray) -> np.ndarray:
        return self.head.predict_proba(self.scaler.transform(pair_matrix))

    def predict(self, pair_matrix: np.ndarray) -> np.ndarray:
        return self.predict_proba(pair_matrix).argmax(axis=1)

    def relations(self, design: list[Sentence]) -> tuple[list[Edge], list[str]]:
        """One label per design pair, read by ``pair_edge`` as if the reverse
        query said supporting too: a supporting pair takes the earlier
        sentence as its solution."""
        pairs = design_pairs(design)
        rows = np.array([pair_features(s1, s2) for s1, s2 in pairs])
        labels = self.predict(rows.reshape(len(pairs), len(PAIR_FEATURE_NAMES)))
        return [edge for (s1, s2), label in zip(pairs, labels)
                if (edge := pair_edge(s1, s2, RELATION_LABELS[label], SUPPORTING))], []

    def to_json(self) -> dict:
        return {**self.head.to_json(), **self.scaler.to_json(), "kind": "pair_baseline"}

    @classmethod
    def from_json(cls, payload: dict) -> "PairBaselineModel":
        width = len(PAIR_FEATURE_NAMES)
        return cls(scaler=_Scaler.from_json(payload, width),
                   head=SoftmaxHead.from_json(payload, len(RELATION_LABELS), width))

    def save(self, path: str | Path) -> None:
        write_model(self.to_json(), path)

    @classmethod
    def load(cls, path: str | Path) -> "PairBaselineModel":
        return read_model(path, "pair baseline", "pair_baseline", cls.from_json,
                          PAIR_FINGERPRINT)


def train_pair_baseline(pair_matrix: np.ndarray, labels: np.ndarray) -> PairBaselineModel:
    """Fit the ternary pair-relation baseline on pair feature vectors."""
    pair_matrix = np.asarray(pair_matrix, dtype=np.float64)
    scaler = _Scaler.fit(pair_matrix)
    head = train_head(scaler.transform(pair_matrix), labels, len(RELATION_LABELS),
                      fingerprint=PAIR_FINGERPRINT)
    return PairBaselineModel(scaler=scaler, head=head)


def collect_extraction_data(issues: list[IssueLog],
                            annotations: list[Annotation],
                            analyzer: SentimentAnalyzer):
    """(texts, features, labels) over the sentences of each annotated issue,
    in corpus order, for training the design-sentence classifiers."""
    by_issue = {a.issue: a for a in annotations}
    texts: list[str] = []
    rows: list[list[float]] = []
    labels: list[int] = []
    for issue in issues:
        if issue.key in by_issue:
            sentences, matrix = compute_feature_matrix(issue, analyzer)
            texts.extend(s.text for s in sentences)
            rows.extend(matrix)
            labels.extend(by_issue[issue.key].design_label(s.id) for s in sentences)
    features = np.array(rows).reshape(len(rows), FEATURE_DIM)
    return texts, features, np.array(labels, dtype=np.int64)


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
    matrix = np.array(rows).reshape(len(rows), len(PAIR_FEATURE_NAMES))
    return matrix, np.array(labels, dtype=np.int64)


def mask_features(features: np.ndarray, slots: list[int]) -> np.ndarray:
    masked = np.array(features, dtype=np.float64, copy=True)
    if slots:
        masked[:, slots] = 0.0
    return masked


@dataclass
class AblationResult:
    dimension: str
    masked_slots: list[int]
    precision: float
    recall: float
    f1: float


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
