"""The prompt head and the model-file format.

A ``LogisticHead`` is a binary head: the logistic of a dot product plus a
bias.  Saved heads carry a fingerprint of the feature order they were trained
on and refuse to load against a different layout.  ``write_model``/
``read_model`` own the model-file format for every saved model, heads and
baselines alike.

This module takes the standard library alone, so prompt-head mining never
loads numpy.  Training, the softmax head and the baselines live in
``baseline``, the one module that imports numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..corpus import read_regular_file
from ..errors import ModelMissing, shown


def logistic_of(x: float) -> float:
    """``1 / (1 + exp(-x))``, rounded as ``scipy.special.expit`` rounds it."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) above the largest float: 1 / inf
        return 0.0


def _finite(value) -> bool:
    """Whether ``value`` is a JSON number, not a bool, that a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def finite_numbers(payload: dict, key: str, *shape: int) -> list:
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
        return [logistic_of(math.fsum(x * w for x, w in zip(row, self.weights, strict=True))
                            + self.bias) for row in X]

    def to_json(self) -> dict:
        return {"kind": "logistic", "weights": list(self.weights),
                "bias": float(self.bias), "fingerprint": self.fingerprint,
                "meta": self.meta}

    @classmethod
    def from_json(cls, payload: dict, width: int) -> "LogisticHead":
        return cls(weights=finite_numbers(payload, "weights", width),
                   bias=float(finite_numbers(payload, "bias")[0]),
                   fingerprint=payload.get("fingerprint", ""),
                   meta=payload.get("meta", {}))


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
    unreadable file (a name too long to exist, or no regular file, among
    them), content that is not a JSON object, a fingerprint other than
    ``expected_fingerprint``, another kind and a missing or malformed field
    raise ModelMissing.
    """
    where = shown(str(path))
    if not os.path.exists(path):
        raise ModelMissing(f"no {name} model at {where}")
    try:
        payload = json.loads(read_regular_file(path).decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ModelMissing(f"{name} at {where} is not a readable JSON file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelMissing(f"{name} at {where} is not a JSON object")
    fingerprint = payload.get("fingerprint", "")
    if fingerprint != expected_fingerprint:
        raise ModelMissing(
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


def save_head(head, path: str | Path) -> None:
    """Write a head, a ``LogisticHead`` or ``baseline.SoftmaxHead``, to ``path``."""
    write_model(head.to_json(), path)


def load_head(path: str | Path, expected_fingerprint: str, width: int) -> LogisticHead:
    """Load a saved logistic head, checking its feature-order fingerprint and
    its number of weights."""
    return read_model(path, "head", "logistic",
                      lambda payload: LogisticHead.from_json(payload, width),
                      expected_fingerprint)
