from __future__ import annotations

import json
import math

import numpy as np
import pytest

from rationale_miner.backends.baseline import (
    BASELINE_FINGERPRINT,
    PAIR_FEATURE_NAMES,
    PAIR_FINGERPRINT,
    BaselineModel,
    PairBaselineModel,
    TfidfVectorizer,
    pair_features,
    train_baseline,
    train_pair_baseline,
)
from rationale_miner.corpus import Sentence
from rationale_miner.errors import ModelMissing
from rationale_miner.features import FEATURE_DIM


def _refingerprint(path, fingerprint: str) -> None:
    """Rewrite the feature-order fingerprint a saved model carries."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**payload, "fingerprint": fingerprint}), encoding="utf-8")


def _sentence(sid: str, text: str, kind: str = "comment",
              comment_index: int | None = 0, block_index: int = 0,
              global_index: int = 0) -> Sentence:
    return Sentence(id=sid, text=text, kind=kind, comment_index=comment_index,
                    block_index=block_index, global_index=global_index,
                    author="alice")


# ---------------------------------------------------------------------------
# tf-idf vectorizer

def test_tfidf_vocabulary_requires_document_frequency_two():
    vec = TfidfVectorizer.fit(["solo one", "duo two", "shared word", "shared token"])
    assert vec.vocabulary == ["shared"]


def test_tfidf_idf_values_match_smoothed_formula():
    docs = ["red blue", "red blue", "red green", "green blue"]
    vec = TfidfVectorizer.fit(docs)
    assert vec.vocabulary == ["blue", "green", "red"]
    expected = {
        "blue": math.log((1 + 4) / (1 + 3)) + 1.0,
        "green": math.log((1 + 4) / (1 + 2)) + 1.0,
        "red": math.log((1 + 4) / (1 + 3)) + 1.0,
    }
    for term, idf in zip(vec.vocabulary, vec.idf):
        assert idf == pytest.approx(expected[term], abs=1e-12)


def test_tfidf_rows_are_unit_norm():
    docs = ["apple banana apple", "banana cherry", "apple cherry cherry"]
    vec = TfidfVectorizer.fit(docs)
    assert vec.vocabulary == ["apple", "banana", "cherry"]
    matrix = vec.transform(docs)
    # every term has df == 2, so idf is uniform and cancels on normalization:
    # "apple banana apple" -> counts (2, 1, 0) -> (2, 1, 0) / sqrt(5)
    assert matrix[0] == pytest.approx(
        [2 / math.sqrt(5), 1 / math.sqrt(5), 0.0], abs=1e-12)
    norms = np.linalg.norm(matrix, axis=1)
    assert norms == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_tfidf_unseen_tokens_yield_zero_row():
    vec = TfidfVectorizer.fit(["apple apple banana", "apple banana"])
    matrix = vec.transform(["orchid nobody knows"])
    assert matrix.shape == (1, 2)
    assert np.all(matrix == 0.0)


def test_tfidf_empty_vocabulary_is_harmless():
    vec = TfidfVectorizer.fit(["unique everywhere", "nothing repeats"])
    assert vec.vocabulary == []
    assert vec.transform(["whatever"]).shape == (1, 0)


# ---------------------------------------------------------------------------
# design-sentence baseline

def _toy_design_data():
    positives = [f"we should cache the flamingo index {i}" for i in range(10)]
    negatives = [f"thanks for the quick report number {i}" for i in range(10)]
    texts = positives + negatives
    labels = np.array([1] * 10 + [0] * 10)
    features = np.zeros((20, FEATURE_DIM))
    features[:, 0] = labels  # one informative dense column
    return texts, features, labels


def test_train_baseline_separates_toy_corpus():
    texts, features, labels = _toy_design_data()
    model = train_baseline(texts, features, labels)
    assert model.predict(texts, features).tolist() == labels.tolist()
    probs = model.predict_proba(texts, features)
    assert np.all((probs >= 0) & (probs <= 1))


def test_train_baseline_is_byte_deterministic(tmp_path):
    texts, features, labels = _toy_design_data()
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    train_baseline(texts, features, labels).save(p1)
    train_baseline(texts, features, labels).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_baseline_round_trip_preserves_predictions(tmp_path):
    texts, features, labels = _toy_design_data()
    model = train_baseline(texts, features, labels)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = BaselineModel.load(path)
    assert np.array_equal(loaded.predict_proba(texts, features),
                          model.predict_proba(texts, features))


@pytest.mark.parametrize("replace", [
    lambda n: "abcdefghijklmnopqrstuvwxyz"[:n],  # a string of as many letters
    lambda n: ["cache"] * n,
    lambda n: list(range(n)),
], ids=["string", "repeated-word", "numbers"])
def test_a_baseline_vocabulary_must_be_a_list_of_distinct_strings(tmp_path, replace):
    texts, features, labels = _toy_design_data()
    path = tmp_path / "model.json"
    train_baseline(texts, features, labels).save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    # every width still fits: only the vocabulary's shape is wrong
    payload["vocabulary"] = replace(len(payload["vocabulary"]))
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelMissing, match="vocabulary must be a list of distinct strings"):
        BaselineModel.load(path)


def test_baseline_fingerprint_checks(tmp_path):
    texts, features, labels = _toy_design_data()
    path = tmp_path / "model.json"
    train_baseline(texts, features, labels).save(path)
    _refingerprint(path, PAIR_FINGERPRINT)
    with pytest.raises(ModelMissing, match="was trained on feature order"):
        BaselineModel.load(path)
    with pytest.raises(ModelMissing):
        BaselineModel.load(tmp_path / "absent.json")


def test_baseline_constant_feature_columns_are_ignored():
    texts, features, labels = _toy_design_data()
    features = features.copy()
    features[:, 1] = 42.0  # constant column must not shift anything
    model = train_baseline(texts, features, labels)
    assert model.scaler.scale[1] == 0.0
    shifted = features.copy()
    shifted[:, 1] = -7.0
    assert np.array_equal(model.predict_proba(texts, features),
                          model.predict_proba(texts, shifted))


def test_frozen_fingerprints():
    assert BASELINE_FINGERPRINT == "542963759bafe3c5"
    assert PAIR_FINGERPRINT == "874923968ac4d2d9"
    assert len(PAIR_FEATURE_NAMES) == 6


# ---------------------------------------------------------------------------
# pair features

def test_pair_features_hand_computed():
    s1 = _sentence("c0-s0", "We should cache results here.",
                   comment_index=0, global_index=3)
    s2 = _sentence("c1-s0", "Caching may break eviction, should we guard it?",
                   comment_index=1, global_index=5)
    vec = pair_features(s1, s2)
    # tokens1 = {we, should, cache, results, here}
    # tokens2 = {caching, may, break, eviction, should, we, guard, it}
    # intersection {we, should} = 2; union has 11 members
    assert vec[0] == 0.0  # different comments
    assert vec[1] == 2.0  # |5 - 3|
    assert vec[2] == pytest.approx(2 / 11, abs=1e-12)
    assert vec[3] == 5.0
    assert vec[4] == 8.0
    assert vec[5] == 1.0  # both trip the should/shall modal flag


def test_pair_features_same_comment_flag():
    s1 = _sentence("c2-s0", "First point.", comment_index=2, global_index=7)
    s2 = _sentence("c2-s1", "Second point.", comment_index=2, global_index=8)
    vec = pair_features(s1, s2)
    assert vec[0] == 1.0
    assert vec[1] == 1.0
    assert vec[5] == 0.0


def test_pair_features_description_pair_not_same_comment():
    s1 = _sentence("des-s0", "One.", kind="description", comment_index=None,
                   global_index=1)
    s2 = _sentence("des-s1", "Two.", kind="description", comment_index=None,
                   global_index=2)
    assert pair_features(s1, s2)[0] == 0.0


def test_pair_features_empty_texts():
    s1 = _sentence("c0-s0", "", global_index=0)
    s2 = _sentence("c0-s1", "", global_index=1)
    vec = pair_features(s1, s2)
    assert vec[2] == 0.0  # empty union -> zero jaccard, not NaN
    assert vec[3] == 0.0 and vec[4] == 0.0


# ---------------------------------------------------------------------------
# pair baseline

def _toy_pair_data():
    rng = np.random.default_rng(11)
    rows, labels = [], []
    for label in (0, 1, 2):
        for _ in range(12):
            base = np.zeros(6)
            base[label] = 5.0
            rows.append(base + rng.normal(scale=0.05, size=6))
            labels.append(label)
    return np.array(rows), np.array(labels)


def test_train_pair_baseline_separates_toy_classes():
    X, y = _toy_pair_data()
    model = train_pair_baseline(X, y)
    assert model.predict(X).tolist() == y.tolist()
    probs = model.predict_proba(X)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_pair_baseline_round_trip(tmp_path):
    X, y = _toy_pair_data()
    model = train_pair_baseline(X, y)
    path = tmp_path / "pair.json"
    model.save(path)
    loaded = PairBaselineModel.load(path)
    assert np.array_equal(loaded.predict(X), model.predict(X))
    _refingerprint(path, BASELINE_FINGERPRINT)
    with pytest.raises(ModelMissing, match="was trained on feature order"):
        PairBaselineModel.load(path)
    with pytest.raises(ModelMissing):
        PairBaselineModel.load(tmp_path / "absent.json")
