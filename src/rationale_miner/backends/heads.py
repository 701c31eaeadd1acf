"""Small trained heads: binary logistic and ternary softmax classifiers.

Training is deterministic full-batch gradient descent from zero weights, so
the same data always yields byte-identical saved models.  Saved heads carry a
fingerprint of the feature order they were trained on and refuse to load
against a different layout.  ``write_model``/``read_model`` own the model-file
format for every saved model, heads and baselines alike.

Loading and running a ``LogisticHead`` takes the standard library alone, so
prompt-head mining never loads numpy.  Training, ``expit``, ``float_array``
and ``SoftmaxHead`` import numpy where they run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..errors import DegenerateData, FingerprintMismatch, ModelMissing, shown

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    return np.fromiter(map(_logistic_of, z.ravel().tolist()), dtype=np.float64,
                       count=z.size).reshape(z.shape)


def _finite(value) -> bool:
    """Whether ``value`` is a JSON number, not a bool, that a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _finite_numbers(payload: dict, key: str, *shape: int) -> list:
    """The numbers that ``payload[key]`` nests to ``shape``, in row-major
    order; a ValueError unless it holds finite numbers of that shape.

    The shape is the one numpy gives the value as an object array: each
    level of lists that are all as long as each other adds a dimension.
    """
    found: list[int] = []
    leaves = [payload[key]]
    while leaves and all(isinstance(v, list) for v in leaves) \
            and len({len(v) for v in leaves}) == 1:
        found.append(len(leaves[0]))
        leaves = [item for v in leaves for item in v]
    if tuple(found) != shape:
        raise ValueError(f"{key} has shape {tuple(found)}, expected {shape}")
    if not all(map(_finite, leaves)):
        raise ValueError(f"{key} holds a value that is not a finite number")
    return leaves


def float_array(payload: dict, key: str, *shape: int) -> np.ndarray:
    """``payload[key]`` as a float64 array of ``shape``; a ValueError unless
    it holds finite numbers of that shape."""
    import numpy as np

    return np.array(_finite_numbers(payload, key, *shape), dtype=np.float64).reshape(shape)


def feature_fingerprint(names: tuple[str, ...] | list[str]) -> str:
    """Short stable digest of an ordered feature-name list."""
    joined = ";".join(names)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


@dataclass
class LogisticHead:
    """A binary head: the logistic of each row's dot product with
    ``weights``, plus ``bias``.  The weights, given as any sequence of
    numbers (an ndarray too), are kept as a tuple of floats."""

    weights: tuple[float, ...]
    bias: float
    fingerprint: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = tuple(map(float, self.weights))

    def predict_proba(self, X) -> list[float]:
        """The probability of each row of ``X``, a row being as long as the
        weights.  The dot product is rounded once (``math.fsum``), so a head
        with one nonzero weight scores each row as numpy would."""
        return [_logistic_of(math.fsum(x * w for x, w in zip(row, self.weights, strict=True))
                             + self.bias) for row in X]

    def to_json(self) -> dict:
        return {"kind": "logistic", "weights": list(self.weights),
                "bias": float(self.bias), "fingerprint": self.fingerprint,
                "meta": self.meta}

    @classmethod
    def from_json(cls, payload: dict, width: int) -> "LogisticHead":
        return cls(weights=_finite_numbers(payload, "weights", width),
                   bias=float(_finite_numbers(payload, "bias")[0]),
                   fingerprint=payload.get("fingerprint", ""),
                   meta=payload.get("meta", {}))


def _softmax(z: np.ndarray) -> np.ndarray:
    import numpy as np

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
        import numpy as np

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
    import numpy as np

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
    """Write a model file, and its directory if missing: indented JSON with
    sorted keys and a final newline."""
    file = Path(path)
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_model(path: str | Path, name: str, kind: str, build: Callable[[dict], Any],
               expected_fingerprint: str) -> Any:
    """Build the model held in a file written by ``write_model``.

    ``build`` is the constructor of a model of ``kind``, which checks the
    shape of each field against the widths its reader needs.  A missing or
    unreadable file (a name too long to exist among them), content that is
    not a JSON object, another kind and a missing or malformed field raise
    ModelMissing.  A fingerprint other than ``expected_fingerprint`` raises
    FingerprintMismatch.
    """
    where = shown(str(path))
    if not os.path.exists(path):
        raise ModelMissing(f"no {name} model at {where}")
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ModelMissing(f"{name} at {where} is not a readable JSON file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelMissing(f"{name} at {where} is not a JSON object")
    fingerprint = payload.get("fingerprint", "")
    if fingerprint != expected_fingerprint:
        raise FingerprintMismatch(
            f"{name} at {where} was trained on feature order {shown(fingerprint)}, "
            f"expected {expected_fingerprint!r}"
        )
    if payload.get("kind") != kind:
        raise ModelMissing(f"{name} at {where} has unknown kind {shown(payload.get('kind'))}")
    try:
        return build(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelMissing(f"{name} at {where} has a missing or malformed field: "
                           f"{shown(exc)}") from exc


def save_head(head: LogisticHead | SoftmaxHead, path: str | Path) -> None:
    write_model(head.to_json(), path)


def load_head(path: str | Path, expected_fingerprint: str, width: int) -> LogisticHead:
    """Load a saved logistic head, checking its feature-order fingerprint and
    its number of weights."""
    return read_model(path, "head", "logistic",
                      lambda payload: LogisticHead.from_json(payload, width),
                      expected_fingerprint)
