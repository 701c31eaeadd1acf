"""The exact bytes of saved models, pinned by digest.

Training is deterministic, so equal inputs give equal files; these tests
also pin what those files are, so a change to the training code that keeps
it deterministic but moves a weight, a default or a meta field shows here.
The digests were recorded with numpy 2.4 on x86-64, under the AVX-512
(``SkylakeX``) kernel that numpy's OpenBLAS picks at run time on a CPU that
has AVX-512.  They depend on that kernel: another one sums ``X @ w`` and
``X.T @ delta`` in another order and moves the last bits, so all four tests
fail under ``OPENBLAS_CORETYPE=Haswell``, as do three digest tests in
``test_cli.py``.  Training without BLAS (ROADMAP item 19) would make the
bytes the same on every host.
"""

from __future__ import annotations

import hashlib

import numpy as np

from rationale_miner.backends.baseline import (
    collect_extraction_data,
    train_baseline,
    train_head,
    train_pair_baseline,
)
from rationale_miner.backends.heads import save_head
from rationale_miner.evaluation import split_dataset
from rationale_miner.sentiment import SentimentAnalyzer
from rationale_miner.synthetic import make_design_corpus


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _binary_problem():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 5))
    return X, (X[:, 0] > 0).astype(int)


def _ternary_problem():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 4))
    return X, X[:, :3].argmax(axis=1)


def test_saved_logistic_head_bytes(tmp_path):
    X, y = _binary_problem()
    save_head(train_head(X, y, fingerprint="binary"), tmp_path / "head.json")
    assert _sha256(tmp_path / "head.json") == \
        "599b6cfecacd2752d392237d71a23ef9c854cbd4ddef263942c162eecf3d280f"


def test_saved_softmax_head_bytes(tmp_path):
    X, y = _ternary_problem()
    save_head(train_head(X, y, num_classes=3, fingerprint="ternary"),
              tmp_path / "head.json")
    assert _sha256(tmp_path / "head.json") == \
        "95dcf9844d7102564932c8466342d81ce552ed3071244099af11c8c5572e4fd9"


def test_saved_pair_baseline_bytes(tmp_path):
    X, y = _ternary_problem()
    train_pair_baseline(X, y).save(tmp_path / "pair.json")
    assert _sha256(tmp_path / "pair.json") == \
        "cfeb9b1247412f2189997ccc9d43a7cc87efc259013494b48e855fbc04eb8517"


def test_saved_design_baseline_bytes_on_the_synthetic_split(tmp_path):
    issues, annotations = make_design_corpus(seed=0, min_sentences=200)
    train, _ = split_dataset(issues, seed=0)
    texts, features, labels = collect_extraction_data(train, annotations,
                                                         SentimentAnalyzer())
    train_baseline(texts, features, labels).save(tmp_path / "baseline.json")
    assert _sha256(tmp_path / "baseline.json") == \
        "038f221a66dab6d9cf80353fe64e51bada05ebe2110ddbd961f5459be10f0455"
