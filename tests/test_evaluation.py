from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from rationale_miner.backends.baseline import (
    collect_extraction_data,
    collect_pair_data,
    mask_features,
    run_ablation,
)
from rationale_miner.corpus import IssueLog, enumerate_sentences
from rationale_miner.errors import DegenerateData, MalformedExport, UnknownSentence
from rationale_miner.evaluation import (
    Annotation,
    PRF,
    corpus_stats,
    dimension_slots,
    eval_binary,
    eval_rationales,
    eval_sentences,
    load_annotations,
    map_to_gold,
    pair_labels_from_annotation,
    save_annotations,
    split_dataset,
)
from rationale_miner.miner import Rationale


def _r(solution, arguments=()):
    return Rationale(solution=list(solution), arguments=[list(g) for g in arguments])


# ---------------------------------------------------------------------------
# binary PRF

def test_eval_binary_hand_case():
    prf = eval_binary({"a", "b", "c"}, {"b", "c"})
    assert prf == PRF(2 / 3, 1.0, 0.8)


def test_eval_binary_no_overlap_and_empty_sides():
    assert eval_binary({"a"}, {"b"}) == PRF(0.0, 0.0, 0.0)
    assert eval_binary(set(), {"a"}) == PRF(0.0, 0.0, 0.0)
    assert eval_binary({"a"}, set()) == PRF(0.0, 0.0, 0.0)
    assert eval_binary(set(), set()) == PRF(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# rationale-level PRF

def test_eval_rationales_empty_conventions():
    assert eval_rationales([], []) == PRF(1.0, 1.0, 1.0)
    assert eval_rationales([], [_r(["a"])]) == PRF(0.0, 0.0, 0.0)
    assert eval_rationales([_r(["a"])], []) == PRF(0.0, 0.0, 0.0)


def test_eval_rationales_shared_solution_sentence_counts():
    predicted = [_r(["a"]), _r(["x"])]
    gold = [_r(["a", "b"])]
    prf = eval_rationales(predicted, gold)
    assert prf.precision == pytest.approx(0.5)
    assert prf.recall == pytest.approx(1.0)
    assert prf.f1 == pytest.approx(2 / 3)


def test_eval_rationales_two_thirds_precision_case():
    predicted = [_r(["a"]), _r(["b"]), _r(["x"])]
    gold = [_r(["a"]), _r(["b"])]
    assert eval_rationales(predicted, gold) == PRF(2 / 3, 1.0, pytest.approx(0.8))


def test_eval_rationales_split_prediction_gets_full_credit():
    predicted = [_r(["a"]), _r(["b"])]
    gold = [_r(["a", "b"])]
    assert eval_rationales(predicted, gold) == PRF(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# mapping predictions onto gold

def test_map_to_gold_prefers_larger_overlap():
    order = {"a": 0, "b": 1, "c": 2}
    gold = [_r(["a"]), _r(["b", "c"])]
    assert map_to_gold([_r(["a", "b", "c"])], gold, order) == [1]


def test_map_to_gold_tie_breaks_toward_earliest_solution_sentence():
    order = {"a": 0, "d": 3, "y": 9, "z": 10}
    gold = [_r(["d", "z"]), _r(["a", "y"])]
    assert map_to_gold([_r(["a", "d"])], gold, order) == [1]


def test_map_to_gold_zero_overlap_is_unmapped():
    order = {"a": 0, "q": 1}
    assert map_to_gold([_r(["q"])], [_r(["a"])], order) == [None]


def test_map_to_gold_rejects_a_gold_solution_sentence_missing_from_order():
    # the check does not wait for a tie that would need the missing sentence
    with pytest.raises(UnknownSentence, match="zz-s9"):
        map_to_gold([_r(["a"])], [_r(["a"]), _r(["b", "zz-s9"])], {"a": 0, "b": 1})


def test_eval_sentences_membership_ignores_group_boundaries():
    order = {"s1": 0, "s2": 1, "a1": 2, "a2": 3, "s3": 4, "x": 5}
    gold = [_r(["s1", "s2"], [["a1"], ["a2"]]), _r(["s3"])]
    predicted = [_r(["s1"], [["a1", "a2"]]), _r(["s3", "x"])]
    results = eval_sentences(predicted, gold, order)
    assert results["solution"].precision == pytest.approx(2 / 3)
    assert results["solution"].recall == pytest.approx(2 / 3)
    assert results["argument"] == PRF(1.0, 1.0, 1.0)


def test_eval_sentences_unmapped_prediction_counts_as_noise():
    order = {"a": 0, "q": 1}
    results = eval_sentences([_r(["q"])], [_r(["a"])], order)
    assert results["solution"] == PRF(0.0, 0.0, 0.0)
    assert results["argument"] == PRF(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# annotations

def test_annotation_round_trip_and_design_ids():
    record = Annotation(
        issue="DEMO-1", annotator="alice",
        labels={"s0": "solution", "s1": "argument", "s2": "none"},
        rationales=[_r(["s0"], [["s1"]])],
    )
    parsed = Annotation.from_json(json.loads(json.dumps(asdict(record))))
    assert parsed == record
    assert record.design_ids() == ["s0", "s1"]


@pytest.mark.parametrize("payload", [
    {"annotator": "a", "labels": {}},
    {"issue": "X-1", "labels": {}},
    {"issue": "X-1", "annotator": "a"},
    {"issue": "X-1", "annotator": "a", "labels": ["s0"]},
    {"issue": "X-1", "annotator": "a", "labels": {"s0": "maybe"}},
    {"issue": "X-\ud800", "annotator": "a", "labels": {}},  # names no file
])
def test_annotation_from_json_rejects_bad_payloads(payload):
    with pytest.raises(MalformedExport):
        Annotation.from_json(payload)


def test_annotations_jsonl_round_trip(tmp_path):
    records = [
        Annotation(issue="A-1", annotator="x", labels={"s0": "solution"},
                   rationales=[_r(["s0"])]),
        Annotation(issue="A-2", annotator="x", labels={"s0": "none"}),
    ]
    path = tmp_path / "gold.jsonl"
    save_annotations(records, path)
    assert load_annotations(path) == records
    # blank lines are tolerated
    path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
    assert load_annotations(path) == records


# ---------------------------------------------------------------------------
# pair labels from groupings

def _ann(annotator, labels, rationales=()):
    return Annotation(issue="DEMO-1", annotator=annotator, labels=dict(labels),
                      rationales=list(rationales))


def test_pair_labels_from_annotation():
    order = {"s1": 0, "s2": 1, "a1": 2, "a2": 3, "b1": 4, "s3": 5, "d0": 6}
    record = _ann(
        "e",
        {"s1": "solution", "s2": "solution", "a1": "argument", "a2": "argument",
         "b1": "argument", "s3": "solution", "d0": "argument"},
        [_r(["s1", "s2"], [["a1", "a2"], ["b1"]]), _r(["s3"])],
    )
    labeled = dict(((x, y), lab)
                   for x, y, lab in pair_labels_from_annotation(record, order))
    assert len(labeled) == 21  # 7 design sentences -> C(7,2) pairs
    assert labeled[("s1", "s2")] == "complementary"  # same solution
    assert labeled[("a1", "a2")] == "complementary"  # same argument group
    assert labeled[("a1", "b1")] == "unrelated"      # different argument groups
    assert labeled[("s1", "a1")] == "supporting"
    assert labeled[("s2", "b1")] == "supporting"
    assert labeled[("s1", "s3")] == "unrelated"      # different rationales
    assert labeled[("a1", "s3")] == "unrelated"
    assert labeled[("s1", "d0")] == "unrelated"  # labelled but never grouped


def test_pair_labels_skip_design_sentences_missing_from_order():
    record = _ann("e", {"s1": "solution", "zz": "argument", "a1": "argument"},
                  [_r(["s1"], [["zz", "a1"]])])
    assert pair_labels_from_annotation(record, {"s1": 0, "a1": 1}) == [
        ("s1", "a1", "supporting")]


# ---------------------------------------------------------------------------
# dataset splitting

def _issue(key: str) -> IssueLog:
    return IssueLog(key=key, summary="Summary.", description="Body.",
                    reporter="alice")


def test_split_dataset_one_test_issue_per_project():
    issues = [_issue(f"{p}-{n}") for p in ("ALPHA", "BETA", "GAMMA")
              for n in range(1, 4)]
    train, test = split_dataset(issues, seed=3)
    assert len(test) == 3 and len(train) == 6
    assert sorted(i.project for i in test) == ["ALPHA", "BETA", "GAMMA"]
    assert sorted(i.key for i in train + test) == sorted(i.key for i in issues)


def test_split_dataset_is_seed_deterministic():
    issues = [_issue(f"PROJ-{n}") for n in range(1, 11)]
    issues += [_issue(f"OTHER-{n}") for n in range(1, 11)]
    first = split_dataset(issues, seed=42)
    second = split_dataset(issues, seed=42)
    assert [i.key for i in first[1]] == [i.key for i in second[1]]
    assert [i.key for i in first[0]] == [i.key for i in second[0]]


def test_split_dataset_varies_with_seed():
    issues = [_issue(f"PROJ-{n}") for n in range(1, 11)]
    picks = {tuple(i.key for i in split_dataset(issues, seed)[1])
             for seed in range(100)}
    assert len(picks) > 1


def test_split_dataset_requires_two_issues_per_project():
    with pytest.raises(DegenerateData, match="project SOLO has 1 issue"):
        split_dataset([_issue("SOLO-1"), _issue("PAIR-1"), _issue("PAIR-2")], 0)


# ---------------------------------------------------------------------------
# ablations

def test_dimension_slots_layout():
    assert dimension_slots("process") == [0, 1, 2, 3, 4]
    assert dimension_slots("position") == [5, 6, 7]
    assert dimension_slots("keyword") == list(range(8, 22))
    assert dimension_slots("structure") == [22, 23, 24]
    assert dimension_slots("sentiment") == [25, 26, 27, 28]


def test_mask_features_zeroes_only_named_slots():
    features = np.ones((2, 29))
    masked = mask_features(features, [5, 6, 7])
    assert masked[:, 5:8].sum() == 0.0
    assert masked.sum() == 2 * 26
    assert features.sum() == 2 * 29  # input untouched


def _ablation_data():
    texts = [f"token{i}" for i in range(12)]  # df == 1 everywhere: empty vocab
    labels = np.array([i % 2 for i in range(12)])
    features = np.zeros((12, 29))
    features[:, 0] = labels  # the only signal sits in the process block
    return texts, features, labels


def test_run_ablation_zeroed_block_hurts():
    texts, features, labels = _ablation_data()
    full = run_ablation(texts, features, labels, texts, features, labels, None)
    assert full.dimension == "full" and full.masked_slots == []
    assert full.f1 == 1.0
    ablated = run_ablation(texts, features, labels, texts, features, labels,
                           "process")
    assert ablated.dimension == "process"
    assert ablated.masked_slots == [0, 1, 2, 3, 4]
    assert ablated.f1 < full.f1


# ---------------------------------------------------------------------------
# data collection and corpus stats

def test_collect_extraction_data_from_golden_issue(golden_issue, fixtures_dir, analyzer):
    gold = load_annotations(fixtures_dir / "flink-1320-gold.jsonl")
    texts, features, labels = collect_extraction_data([golden_issue], gold, analyzer)
    sentences = enumerate_sentences(golden_issue)
    assert texts == [s.text for s in sentences] and len(texts) == 10
    assert features.shape == (10, 29)
    assert labels.sum() == 6  # six design sentences in the gold labels
    by_id = {s.id: label for s, label in zip(sentences, labels)}
    assert by_id["c0-s0"] == 1 and by_id["sum-s0"] == 0


def test_collect_extraction_data_skips_unannotated_issues(golden_issue, analyzer):
    texts, features, labels = collect_extraction_data([golden_issue], [], analyzer)
    assert texts == []
    assert features.shape == (0, 29)
    assert labels.shape == (0,)


def test_collect_pair_data_from_golden_issue(golden_issue, fixtures_dir):
    gold = load_annotations(fixtures_dir / "flink-1320-gold.jsonl")
    matrix, labels = collect_pair_data([golden_issue], gold)
    assert matrix.shape == (15, 6)  # C(6, 2) design pairs
    # supporting=0, complementary=1, unrelated=2 in the label vocabulary
    assert (labels == 0).sum() == 6
    assert (labels == 1).sum() == 2
    assert (labels == 2).sum() == 7


def test_collect_pair_data_skips_unannotated_issues(golden_issue, fixtures_dir):
    gold = load_annotations(fixtures_dir / "flink-1320-gold.jsonl")
    matrix, labels = collect_pair_data([_issue("OTHER-1"), golden_issue], gold)
    expected_matrix, expected_labels = collect_pair_data([golden_issue], gold)
    assert np.array_equal(matrix, expected_matrix)
    assert np.array_equal(labels, expected_labels)


def test_corpus_stats_rows(golden_issue):
    other = IssueLog(key="SPARK-9", summary="Speed up shuffles.",
                     description="The shuffle path is slow.", reporter="dana")
    rows = corpus_stats([golden_issue, other])
    assert [r["project"] for r in rows] == ["FLINK", "SPARK", "total"]
    flink, spark, total = rows
    assert flink["issues"] == 1 and flink["comments"] == 3
    assert flink["sentences"] == 10
    assert spark["sentences"] == 2
    assert total["issues"] == 2 and total["sentences"] == 12
    assert total["design_sentences"] == 0


def test_corpus_stats_with_annotations(golden_issue, fixtures_dir):
    gold = load_annotations(fixtures_dir / "flink-1320-gold.jsonl")
    rows = corpus_stats([golden_issue], gold)
    assert rows[0]["design_sentences"] == 6
    assert rows[-1]["design_sentences"] == 6
