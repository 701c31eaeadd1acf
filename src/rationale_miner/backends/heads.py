"""Small trained heads: binary logistic and ternary softmax classifiers.

Training is deterministic full-batch gradient descent from zero weights, so
the same data always yields byte-identical saved models.  Saved heads carry a
fingerprint of the feature order they were trained on and refuse to load
against a different layout.  ``write_model``/``read_model`` own the model-file
format for every saved model, heads and baselines alike.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..errors import DegenerateData, FingerprintMismatch, ModelMissing, shown

DEFAULT_LR = 0.1
DEFAULT_EPOCHS = 500
DEFAULT_L2 = 1e-4


def _logistic_of(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) above the largest float: 1 / inf
        return 0.0


def expit(z: np.ndarray) -> np.ndarray:
    """The logistic ``1 / (1 + exp(-z))`` of each element, as float64.

    It goes through ``math.exp`` (the C library's), which rounds every value
    as ``scipy.special.expit`` does; numpy's SIMD ``exp`` does not.
    """
    z = np.asarray(z, dtype=np.float64)
    return np.fromiter(map(_logistic_of, z.ravel().tolist()), dtype=np.float64,
                       count=z.size).reshape(z.shape)


def feature_fingerprint(names: tuple[str, ...] | list[str]) -> str:
    """Short stable digest of an ordered feature-name list."""
    joined = ";".join(names)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


@dataclass
class LogisticHead:
    weights: np.ndarray
    bias: float
    fingerprint: str = ""
    meta: dict = field(default_factory=dict)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return expit(np.asarray(X, dtype=np.float64) @ self.weights + self.bias)

    def to_json(self) -> dict:
        return {"kind": "logistic", "weights": self.weights.tolist(),
                "bias": float(self.bias), "fingerprint": self.fingerprint,
                "meta": self.meta}

    @classmethod
    def from_json(cls, payload: dict) -> "LogisticHead":
        return cls(weights=np.asarray(payload["weights"], dtype=np.float64),
                   bias=float(payload["bias"]),
                   fingerprint=payload.get("fingerprint", ""),
                   meta=payload.get("meta", {}))


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
    def from_json(cls, payload: dict) -> "SoftmaxHead":
        return cls(weights=np.asarray(payload["weights"], dtype=np.float64),
                   bias=np.asarray(payload["bias"], dtype=np.float64),
                   fingerprint=payload.get("fingerprint", ""),
                   meta=payload.get("meta", {}))


def train_head(X: np.ndarray, y: np.ndarray, num_classes: int = 2,
               fingerprint: str = "") -> LogisticHead | SoftmaxHead:
    """Fit a head on integer labels; raises DegenerateData on a single class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError(f"bad training shapes: X {X.shape}, y {y.shape}")
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


def write_model(payload: dict, path: str | Path) -> None:
    """Write a model file: indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def read_model(path: str | Path, name: str, builders: dict[str, Callable[[dict], Any]],
               expected_fingerprint: str | None = None) -> Any:
    """Build the model held in a file written by ``write_model``.

    ``builders`` maps each accepted ``kind`` to the constructor of that model.
    A missing or unreadable file, content that is not a JSON object, another
    kind and a missing or malformed field raise ModelMissing.  A fingerprint
    other than ``expected_fingerprint`` (when given) raises FingerprintMismatch.
    """
    file = Path(path)
    if not file.exists():
        raise ModelMissing(f"no {name} model at {file}")
    try:
        payload = json.loads(file.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ModelMissing(f"{name} at {file} is not a readable JSON file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelMissing(f"{name} at {file} is not a JSON object")
    fingerprint = payload.get("fingerprint", "")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise FingerprintMismatch(
            f"{name} at {file} was trained on feature order {shown(fingerprint)}, "
            f"expected {expected_fingerprint!r}"
        )
    kind = payload.get("kind")
    build = builders.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise ModelMissing(f"{name} at {file} has unknown kind {shown(kind)}")
    try:
        return build(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelMissing(f"{name} at {file} has a missing or malformed field: "
                           f"{exc!r}") from exc


def save_head(head: LogisticHead | SoftmaxHead, path: str | Path) -> None:
    write_model(head.to_json(), path)


def load_head(path: str | Path,
              expected_fingerprint: str | None = None) -> LogisticHead | SoftmaxHead:
    """Load a saved head, checking its feature-order fingerprint if given."""
    return read_model(path, "head",
                      {"logistic": LogisticHead.from_json, "softmax": SoftmaxHead.from_json},
                      expected_fingerprint)
