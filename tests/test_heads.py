from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.backends import heads
from rationale_miner.backends.heads import (
    LogisticHead,
    SoftmaxHead,
    expit,
    feature_fingerprint,
    load_head,
    save_head,
    train_head,
)
from rationale_miner.errors import DegenerateData, FingerprintMismatch, ModelMissing
from rationale_miner.miner import SP_FEATURE_NAMES

# (x, scipy.special.expit(x)) as float.hex, recorded once from scipy 1.17.1:
# the ends of the float range, the edges where exp(-x) overflows, and the
# decisions 8*p0 - 4 of the benchmark's fixed head for p0 in 0.92, 0.87,
# 0.83, 0.71 and 0.08.
SCIPY_EXPIT = [
    ("inf", "0x1.0000000000000p+0"),
    ("-inf", "0x0.0p+0"),
    ("0x0.0p+0", "0x1.0000000000000p-1"),
    ("-0x0.0p+0", "0x1.0000000000000p-1"),
    ("0x1.56e1fc2f8f359p-997", "0x1.0000000000000p-1"),  # 1e-300
    ("-0x1.56e1fc2f8f359p-997", "0x1.0000000000000p-1"),
    ("0x1.0000000000000p-1", "0x1.3eb2fd4d34391p-1"),  # 0.5
    ("-0x1.0000000000000p-1", "0x1.829a0565978dep-2"),
    ("0x1.2000000000000p+5", "0x1.ffffffffffffep-1"),  # 36
    ("-0x1.2000000000000p+5", "0x1.0b6c3afdde063p-52"),
    ("0x1.2800000000000p+5", "0x1.0000000000000p+0"),  # 37
    ("-0x1.2800000000000p+5", "0x1.898471fca6055p-54"),
    ("0x1.62e3d70a3d70ap+9", "0x1.0000000000000p+0"),  # 709.78
    ("-0x1.62e3d70a3d70ap+9", "0x0.402c8225ec681p-1022"),
    ("0x1.62e51eb851eb8p+9", "0x1.0000000000000p+0"),  # 709.79
    ("-0x1.62e51eb851eb8p+9", "0x0.0p+0"),
    ("0x1.7480000000000p+9", "0x1.0000000000000p+0"),  # 745
    ("-0x1.7480000000000p+9", "0x0.0p+0"),
    ("0x1.7500000000000p+9", "0x1.0000000000000p+0"),  # 746
    ("-0x1.7500000000000p+9", "0x0.0p+0"),
    ("0x1.ae147ae147ae2p+1", "0x1.eed003c7b533dp-1"),  # 8*0.92 - 4
    ("0x1.7ae147ae147aep+1", "0x1.e6c69b26210f1p-1"),  # 8*0.87 - 4
    ("0x1.51eb851eb851ep+1", "0x1.dde58d331bbdap-1"),  # 8*0.83 - 4
    ("0x1.ae147ae147ae0p+0", "0x1.af912ec5930b3p-1"),  # 8*0.71 - 4
    ("-0x1.ae147ae147ae1p+1", "0x1.12ffc384acc35p-5"),  # 8*0.08 - 4
]


def test_unit_head_fixture_scores_expected_probability(fixtures_dir):
    head = load_head(fixtures_dir / "head-unit.json")
    probs = head.predict_proba(np.array([[0.5, 0.5]]))
    # w.x + b = 1.0*0.5 + 0.5*0.5 - 0.25 = 0.5
    assert probs[0] == pytest.approx(0.6224593312018546, abs=1e-12)
    assert float(probs[0]).hex() == dict(SCIPY_EXPIT)[(0.5).hex()]


def test_expit_reproduces_the_recorded_scipy_values():
    inputs = np.array([float.fromhex(x) for x, _ in SCIPY_EXPIT])
    assert [float(p).hex() for p in expit(inputs)] == [p for _, p in SCIPY_EXPIT]
    assert np.isnan(expit(np.array([np.nan]))).all()
    assert expit(inputs.reshape(5, 5)).shape == (5, 5)
    assert expit(0.5).shape == ()


def test_expit_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(scale=scale, size=20_000)
                        for scale in (0.5, 2.0, 8.0, 40.0, 400.0)] +
                       [rng.uniform(-750.0, 750.0, size=20_000),
                        [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324]])
    assert z.size >= 100_000
    assert np.array_equal(expit(z).view(np.int64), special.expit(z).view(np.int64))


def test_trained_head_is_the_one_scipy_would_train(tmp_path, monkeypatch):
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(3)
    X = rng.normal(size=(300, 43))
    y = (X[:, 0] + 0.3 * rng.normal(size=300) > 0).astype(int)
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    save_head(train_head(X, y), ours)
    monkeypatch.setattr(heads, "expit", special.expit)
    save_head(train_head(X, y), theirs)
    assert ours.read_bytes() == theirs.read_bytes()


def test_golden_head_fixture_matches_feature_fingerprint(fixtures_dir):
    head = load_head(fixtures_dir / "golden-head.json",
                     expected_fingerprint=feature_fingerprint(SP_FEATURE_NAMES))
    assert head.fingerprint == "ec8e1042f1f993ae"
    design = np.zeros(43)
    design[0] = 0.9
    assert head.predict_proba(design[None, :])[0] == pytest.approx(
        0.9168273035060777, abs=1e-12)


def test_feature_fingerprint_is_order_sensitive():
    a = feature_fingerprint(("x", "y"))
    b = feature_fingerprint(("y", "x"))
    assert a != b
    assert len(a) == 16
    assert a == feature_fingerprint(["x", "y"])


def test_train_head_is_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 5))
    y = (X[:, 0] > 0).astype(int)
    head1 = train_head(X, y, fingerprint="abc")
    head2 = train_head(X, y, fingerprint="abc")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_head(head1, p1)
    save_head(head2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_head_separates_easy_data():
    X = np.array([[0.0], [0.1], [0.2], [0.8], [0.9], [1.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    head = train_head(X, y)
    assert isinstance(head, LogisticHead)
    assert (head.predict_proba(X) >= 0.5).tolist() == (y == 1).tolist()
    assert head.meta == {"lr": 0.1, "epochs": 500, "l2": 1e-4, "num_classes": 2}


def test_train_head_single_class_raises():
    X = np.ones((5, 3))
    y = np.zeros(5, dtype=int)
    with pytest.raises(DegenerateData):
        train_head(X, y)


def test_train_head_rejects_bad_shapes():
    with pytest.raises(ValueError):
        train_head(np.ones(4), np.array([0, 1]))
    with pytest.raises(ValueError):
        train_head(np.ones((4, 2)), np.array([0, 1]))


def test_train_softmax_head_on_three_classes():
    X = np.array([[1.0, 0.0, 0.0]] * 4 + [[0.0, 1.0, 0.0]] * 4 + [[0.0, 0.0, 1.0]] * 4)
    y = np.array([0] * 4 + [1] * 4 + [2] * 4)
    head = train_head(X, y, num_classes=3)
    assert isinstance(head, SoftmaxHead)
    assert head.weights.shape == (3, 3)
    probs = head.predict_proba(X)
    assert probs.argmax(axis=1).tolist() == y.tolist()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_save_load_round_trip_logistic(tmp_path):
    head = LogisticHead(weights=np.array([0.5, -1.5]), bias=0.25,
                        fingerprint="f" * 16, meta={"note": "unit"})
    path = tmp_path / "head.json"
    save_head(head, path)
    loaded = load_head(path, expected_fingerprint="f" * 16)
    assert isinstance(loaded, LogisticHead)
    assert np.array_equal(loaded.weights, head.weights)
    assert loaded.bias == head.bias
    assert loaded.meta == {"note": "unit"}
    assert path.read_text(encoding="utf-8").endswith("\n")


def test_save_load_round_trip_softmax(tmp_path):
    head = SoftmaxHead(weights=np.arange(6, dtype=np.float64).reshape(3, 2),
                       bias=np.array([0.1, 0.2, 0.3]), fingerprint="aa")
    path = tmp_path / "head.json"
    save_head(head, path)
    loaded = load_head(path)
    assert isinstance(loaded, SoftmaxHead)
    assert np.array_equal(loaded.weights, head.weights)
    assert np.array_equal(loaded.bias, head.bias)


def test_load_head_fingerprint_mismatch(tmp_path):
    path = tmp_path / "head.json"
    save_head(LogisticHead(weights=np.zeros(2), bias=0.0, fingerprint="old"), path)
    with pytest.raises(FingerprintMismatch):
        load_head(path, expected_fingerprint="new")
    # omitting the expectation skips the check entirely
    assert load_head(path).fingerprint == "old"


def test_load_head_missing_file(tmp_path):
    with pytest.raises(ModelMissing):
        load_head(tmp_path / "nope.json")


def test_load_head_unknown_kind(tmp_path):
    path = tmp_path / "head.json"
    path.write_text('{"kind": "tree", "weights": [], "bias": 0}', encoding="utf-8")
    with pytest.raises(ModelMissing):
        load_head(path)


@pytest.mark.parametrize("field,error", [("kind", ModelMissing),
                                         ("fingerprint", FingerprintMismatch)])
def test_a_huge_kind_or_fingerprint_is_cut_in_the_message(tmp_path, field, error):
    path = tmp_path / "head.json"
    save_head(LogisticHead(weights=np.zeros(2), bias=0.0, fingerprint="new"), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[field] = "x" * 100_000
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(error) as raised:
        load_head(path, expected_fingerprint="new")
    message = str(raised.value)
    assert f"'{'x' * 199}… (100002 chars)" in message
    assert len(message) < 400 + len(str(path))


@settings(max_examples=50, deadline=None)
@given(
    features=st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
    weights=st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
    bias=st.floats(min_value=-5, max_value=5),
)
def test_logistic_probabilities_stay_in_unit_interval(features, weights, bias):
    head = LogisticHead(weights=np.array(weights), bias=bias)
    p = float(head.predict_proba(np.array([features]))[0])
    assert 0.0 <= p <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    row=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=2),
)
def test_softmax_probabilities_form_distribution(row):
    head = SoftmaxHead(weights=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                       bias=np.zeros(3))
    probs = head.predict_proba(np.array([row]))[0]
    assert probs.shape == (3,)
    assert np.all(probs >= 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
