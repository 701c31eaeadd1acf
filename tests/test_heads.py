from __future__ import annotations

import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.backends import baseline
from rationale_miner.backends.baseline import (
    PairBaselineModel,
    SoftmaxHead,
    expit,
    train_head,
    train_pair_baseline,
)
from rationale_miner.backends.heads import LogisticHead, feature_fingerprint, load_head, save_head
from rationale_miner.errors import DegenerateData, ModelMissing
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
    head = load_head(fixtures_dir / "head-unit.json", "", 2)
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
    monkeypatch.setattr(baseline, "expit", special.expit)
    save_head(train_head(X, y), theirs)
    assert ours.read_bytes() == theirs.read_bytes()


def test_golden_head_fixture_matches_feature_fingerprint(fixtures_dir):
    head = load_head(fixtures_dir / "golden-head.json",
                     expected_fingerprint=feature_fingerprint(SP_FEATURE_NAMES), width=43)
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
    assert [p >= 0.5 for p in head.predict_proba(X)] == (y == 1).tolist()
    assert head.meta == {"lr": 0.1, "epochs": 500, "l2": 1e-4, "num_classes": 2}


def test_train_head_single_class_raises():
    X = np.ones((5, 3))
    y = np.zeros(5, dtype=int)
    with pytest.raises(DegenerateData):
        train_head(X, y)


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
    loaded = load_head(path, expected_fingerprint="f" * 16, width=2)
    assert isinstance(loaded, LogisticHead)
    assert np.array_equal(loaded.weights, head.weights)
    assert loaded.bias == head.bias
    assert loaded.meta == {"note": "unit"}
    assert path.read_text(encoding="utf-8").endswith("\n")


def test_save_load_round_trip_softmax(tmp_path):
    # A softmax head is saved and loaded only as the pair baseline's head.
    model = train_pair_baseline(np.repeat(np.eye(3, 6), 4, axis=0), np.repeat([0, 1, 2], 4))
    path = tmp_path / "pair.json"
    model.save(path)
    loaded = PairBaselineModel.load(path).head
    assert isinstance(loaded, SoftmaxHead)
    assert np.array_equal(loaded.weights, model.head.weights)
    assert np.array_equal(loaded.bias, model.head.bias)
    assert loaded.meta == model.head.meta
    save_head(model.head, tmp_path / "head.json")
    with pytest.raises(ModelMissing, match="unknown kind 'softmax'"):
        load_head(tmp_path / "head.json", model.head.fingerprint, 6)


def test_load_head_fingerprint_mismatch(tmp_path):
    path = tmp_path / "head.json"
    save_head(LogisticHead(weights=np.zeros(2), bias=0.0, fingerprint="old"), path)
    with pytest.raises(ModelMissing, match="was trained on feature order 'old'"):
        load_head(path, expected_fingerprint="new", width=2)
    # the saved fingerprint itself passes the check
    assert load_head(path, "old", 2).fingerprint == "old"


def test_load_head_missing_file(tmp_path):
    with pytest.raises(ModelMissing):
        load_head(tmp_path / "nope.json", "", 2)


def test_load_head_unknown_kind(tmp_path):
    path = tmp_path / "head.json"
    path.write_text('{"kind": "tree", "weights": [], "bias": 0}', encoding="utf-8")
    with pytest.raises(ModelMissing):
        load_head(path, "", 0)


def test_load_head_refuses_json_that_is_not_an_object(tmp_path):
    path = tmp_path / "head.json"
    path.write_text("[0.5, -1.5]", encoding="utf-8")
    with pytest.raises(ModelMissing, match="is not a JSON object"):
        load_head(path, "", 2)


@pytest.mark.parametrize("field,value", [
    ("weights", [float("nan"), 0.0]),
    ("weights", [float("inf"), 0.0]),
    ("weights", ["0.1", "0.2"]),
    ("weights", [True, 0.0]),
    ("weights", [10 ** 400, 0.0]),  # an int too large for a float
    ("bias", float("nan")),
    ("bias", "0.5"),
    ("bias", True),
], ids=["nan-weight", "inf-weight", "string-weights", "bool-weight", "huge-int-weight",
        "nan-bias", "string-bias", "bool-bias"])
def test_a_head_holding_anything_but_finite_numbers_is_refused(tmp_path, field, value):
    path = tmp_path / "head.json"
    save_head(LogisticHead(weights=np.zeros(2), bias=0.0, fingerprint="f"), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**payload, field: value}), encoding="utf-8")
    with pytest.raises(ModelMissing, match=f"malformed field: ValueError\\('{field} "):
        load_head(path, "f", 2)


@pytest.mark.parametrize("field,error,cut", [
    ("kind", ModelMissing, f"'{'x' * 199}… (100002 chars)"),
    ("fingerprint", ModelMissing, f"'{'x' * 199}… (100002 chars)"),
    # the builder's exception, which names the shape and not the value
    ("weights", ModelMissing, "ValueError('weights has shape (), expected (2,)')"),
], ids=["kind-ModelMissing", "fingerprint-ModelMissing", "weights-ModelMissing"])
def test_a_huge_kind_or_fingerprint_is_cut_in_the_message(tmp_path, field, error, cut):
    path = tmp_path / "head.json"
    save_head(LogisticHead(weights=np.zeros(2), bias=0.0, fingerprint="new"), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[field] = "x" * 100_000
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(error) as raised:
        load_head(path, expected_fingerprint="new", width=2)
    message = str(raised.value)
    assert cut in message
    assert len(message) < 400 + len(str(path))


@pytest.mark.parametrize("value", [
    5, "x" * 10, None, {"a": 1}, [], [[]], [0.5], [[0.5, 1.0]], [[1, 2], [3, 4]],
    [[1, 2], [3], [4]], [[1, [2]], [3, 4]], [[[1, 2]], [[3, 4, 5]]],
], ids=repr)
def test_a_head_of_another_shape_is_refused_as_numpy_words_it(tmp_path, value):
    """The weights' shape in the message is the one numpy gives the value as
    an object array."""
    path = tmp_path / "head.json"
    path.write_text(json.dumps({"kind": "logistic", "weights": value, "bias": 0.0,
                                "fingerprint": "f"}), encoding="utf-8")
    shape = np.array(value, dtype=object).shape
    with pytest.raises(ModelMissing) as raised:
        load_head(path, "f", 2)
    assert str(raised.value).endswith(
        f"ValueError('weights has shape {shape}, expected (2,)')")


# The largest gap allowed between the head's probabilities and numpy's
# ``expit(X @ w + b)`` on a dense head: the two round the dot product in
# different orders, so they may differ in the last bits.
DENSE_TOLERANCE = 1_000 * np.finfo(np.float64).eps


def _reference(head: LogisticHead, X: np.ndarray) -> np.ndarray:
    return expit(X @ np.array(head.weights) + head.bias)


def _rows(rng: np.random.Generator, width: int) -> np.ndarray:
    """Rows of polarity-like values in [0, 1], counts, and signed values."""
    return np.hstack([rng.uniform(size=(300, width // 3)),
                      rng.integers(0, 2_000, size=(300, width // 3)).astype(np.float64),
                      rng.normal(scale=5.0, size=(300, width - 2 * (width // 3)))])


def test_a_head_of_one_nonzero_weight_scores_as_numpy_bit_for_bit(fixtures_dir, tmp_path,
                                                                   monkeypatch):
    monkeypatch.syspath_prepend(str(fixtures_dir.parents[1] / "perfbench"))
    workload = importlib.import_module("workload")
    weights = [0.0] * len(SP_FEATURE_NAMES)
    weights[0] = workload.HEAD_WEIGHT
    save_head(LogisticHead(weights=np.asarray(weights), bias=workload.HEAD_BIAS,
                           fingerprint="f"), tmp_path / "bench-head.json")
    heads_of = {
        "golden": load_head(fixtures_dir / "golden-head.json",
                            feature_fingerprint(SP_FEATURE_NAMES), 43),
        "unit": load_head(fixtures_dir / "head-unit.json", "", 2),
        "bench": load_head(tmp_path / "bench-head.json", "f", 43),
    }
    rng = np.random.default_rng(5)
    for name, head in heads_of.items():
        X = _rows(rng, len(head.weights))
        if name == "bench":  # the polarity probabilities that its script sends
            X[:5, 0] = [0.92, 0.87, 0.83, 0.71, 0.08]
        ours = np.array(head.predict_proba(X))
        assert np.array_equal(ours.view(np.int64), _reference(head, X).view(np.int64)), name
        assert head.predict_proba(X.tolist()) == ours.tolist(), name


@pytest.mark.parametrize("width", [43, 200, 1_000])
def test_a_dense_head_scores_as_numpy_within_the_tolerance(width):
    rng = np.random.default_rng(width)
    head = LogisticHead(weights=rng.normal(scale=0.05, size=width), bias=rng.normal())
    X = _rows(rng, width)
    X[:, width // 3: 2 * (width // 3)] /= 1_000  # counts scaled to the other columns
    ours = np.array(head.predict_proba(X))
    assert np.abs(ours - _reference(head, X)).max() <= DENSE_TOLERANCE
    assert 0.05 < ours.mean() < 0.95  # the decisions are not all saturated


def test_a_head_scores_zero_rows_as_none():
    head = LogisticHead(weights=[1.0, 0.5], bias=-0.25)
    assert head.predict_proba([]) == []
    assert head.predict_proba(np.zeros((0, 2))) == []


def test_a_row_of_another_width_is_refused():
    head = LogisticHead(weights=[1.0, 0.5], bias=-0.25)
    with pytest.raises(ValueError):
        head.predict_proba([[1.0, 2.0, 3.0]])


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
