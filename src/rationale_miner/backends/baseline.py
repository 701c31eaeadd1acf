"""Prompt-free baselines: TF-IDF text vectors plus the handcrafted features.

The design-sentence baseline concatenates a TF-IDF bag of words with the
29-dimensional feature block and fits a logistic head on top.  The pair
baseline scores sentence pairs from six structural features with a ternary
softmax head.  Dense feature blocks are standardized with statistics from the
training split; constant (or ablated) columns stay at zero.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..corpus import Sentence, pair_structure
from ..features import FEATURE_NAMES, keyword_flags, word_tokens
from .heads import (
    DEFAULT_EPOCHS,
    DEFAULT_L2,
    DEFAULT_LR,
    LogisticHead,
    SoftmaxHead,
    feature_fingerprint,
    read_model,
    train_head,
    write_model,
)

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
    def from_json(cls, payload: dict) -> "_Scaler":
        return cls(mean=np.asarray(payload["scaler_mean"], dtype=np.float64),
                   scale=np.asarray(payload["scaler_scale"], dtype=np.float64))


@dataclass
class BaselineModel:
    vectorizer: TfidfVectorizer
    scaler: _Scaler
    head: LogisticHead
    fingerprint: str = BASELINE_FINGERPRINT

    def _design_matrix(self, texts: list[str], features: np.ndarray) -> np.ndarray:
        dense = self.scaler.transform(np.asarray(features, dtype=np.float64))
        return np.hstack([self.vectorizer.transform(texts), dense])

    def predict_proba(self, texts: list[str], features: np.ndarray) -> np.ndarray:
        return self.head.predict_proba(self._design_matrix(texts, features))

    def predict(self, texts: list[str], features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(texts, features) >= 0.5).astype(np.int64)

    def to_json(self) -> dict:
        return {
            **self.head.to_json(), **self.scaler.to_json(),
            "kind": "design_baseline",
            "vocabulary": self.vectorizer.vocabulary,
            "idf": self.vectorizer.idf.tolist(),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BaselineModel":
        vectorizer = TfidfVectorizer(
            vocabulary=list(payload["vocabulary"]),
            idf=np.asarray(payload["idf"], dtype=np.float64),
        )
        return cls(vectorizer=vectorizer, scaler=_Scaler.from_json(payload),
                   head=LogisticHead.from_json(payload),
                   fingerprint=payload.get("fingerprint", ""))

    def save(self, path: str | Path) -> None:
        write_model(self.to_json(), path)

    @classmethod
    def load(cls, path: str | Path, expected_fingerprint: str | None = None
             ) -> "BaselineModel":
        return read_model(path, "baseline", {"design_baseline": cls.from_json},
                          expected_fingerprint)


def train_baseline(texts: list[str], features: np.ndarray, labels: np.ndarray,
                   lr: float = DEFAULT_LR, epochs: int = DEFAULT_EPOCHS,
                   l2: float = DEFAULT_L2) -> BaselineModel:
    """Fit the TF-IDF + features baseline; deterministic for fixed inputs."""
    vectorizer = TfidfVectorizer.fit(texts)
    features = np.asarray(features, dtype=np.float64)
    scaler = _Scaler.fit(features)
    X = np.hstack([vectorizer.transform(texts), scaler.transform(features)])
    head = train_head(X, labels, num_classes=2, lr=lr, epochs=epochs, l2=l2,
                      fingerprint=BASELINE_FINGERPRINT)
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
    fingerprint: str = PAIR_FINGERPRINT

    def predict_proba(self, pair_matrix: np.ndarray) -> np.ndarray:
        return self.head.predict_proba(self.scaler.transform(pair_matrix))

    def predict(self, pair_matrix: np.ndarray) -> np.ndarray:
        return self.predict_proba(pair_matrix).argmax(axis=1)

    def to_json(self) -> dict:
        return {**self.head.to_json(), **self.scaler.to_json(),
                "kind": "pair_baseline", "fingerprint": self.fingerprint}

    @classmethod
    def from_json(cls, payload: dict) -> "PairBaselineModel":
        return cls(scaler=_Scaler.from_json(payload), head=SoftmaxHead.from_json(payload),
                   fingerprint=payload.get("fingerprint", ""))

    def save(self, path: str | Path) -> None:
        write_model(self.to_json(), path)

    @classmethod
    def load(cls, path: str | Path, expected_fingerprint: str | None = None
             ) -> "PairBaselineModel":
        return read_model(path, "pair baseline", {"pair_baseline": cls.from_json},
                          expected_fingerprint)


def train_pair_baseline(pair_matrix: np.ndarray, labels: np.ndarray,
                        lr: float = DEFAULT_LR, epochs: int = DEFAULT_EPOCHS,
                        l2: float = DEFAULT_L2) -> PairBaselineModel:
    """Fit the ternary pair-relation baseline on pair feature vectors."""
    pair_matrix = np.asarray(pair_matrix, dtype=np.float64)
    scaler = _Scaler.fit(pair_matrix)
    head = train_head(scaler.transform(pair_matrix), labels, num_classes=3,
                      lr=lr, epochs=epochs, l2=l2, fingerprint=PAIR_FINGERPRINT)
    return PairBaselineModel(scaler=scaler, head=head)
