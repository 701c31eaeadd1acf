from __future__ import annotations

from rationale_miner.backends.baseline import collect_pair_data
from rationale_miner.corpus import enumerate_sentences
from rationale_miner.prompts import RELATION_LABELS
from rationale_miner.synthetic import DESIGN_RATE, PROJECTS, make_design_corpus

_DESIGN_MARKER = "solution"


def test_corpus_meets_requested_size():
    issues, annotations = make_design_corpus(seed=0, min_sentences=200)
    assert sum(len(a.labels) for a in annotations) >= 200
    assert len(issues) == len(annotations)


def test_corpus_is_seed_deterministic():
    first_issues, first_ann = make_design_corpus(seed=5, min_sentences=60)
    second_issues, second_ann = make_design_corpus(seed=5, min_sentences=60)
    assert first_issues == second_issues
    assert first_ann == second_ann


def test_different_seeds_differ():
    a, _ = make_design_corpus(seed=1, min_sentences=60)
    b, _ = make_design_corpus(seed=2, min_sentences=60)
    assert a != b


def test_labels_align_with_enumerated_sentences():
    issues, annotations = make_design_corpus(seed=3, min_sentences=120)
    for issue, annotation in zip(issues, annotations):
        assert annotation.issue == issue.key
        ids = {s.id for s in enumerate_sentences(issue)}
        assert set(annotation.labels) == ids
        assert annotation.labels["sum-s0"] == "none"
        assert set(annotation.labels.values()) <= {"none", "solution"}


def test_design_sentences_carry_the_solution_keyword():
    issues, annotations = make_design_corpus(seed=7, min_sentences=150)
    for issue, annotation in zip(issues, annotations):
        text_of = {s.id: s.text for s in enumerate_sentences(issue)}
        for sid, label in annotation.labels.items():
            if label == "solution":
                assert _DESIGN_MARKER in text_of[sid].lower()
            else:
                assert _DESIGN_MARKER not in text_of[sid].lower()


def test_corpus_spans_all_three_projects():
    issues, _ = make_design_corpus(seed=0, min_sentences=200)
    assert {i.project for i in issues} == set(PROJECTS)
    # every project has enough issues to survive a train/test split
    for project in PROJECTS:
        assert sum(1 for i in issues if i.project == project) >= 2


def test_the_share_of_design_sentences_is_near_the_design_rate():
    _, annotations = make_design_corpus(seed=0, min_sentences=2000)
    labels = [label for a in annotations for sid, label in a.labels.items()]
    assert [a.labels["sum-s0"] for a in annotations] == ["none"] * len(annotations)
    body = len(labels) - len(annotations)  # the summaries are never design
    assert abs(labels.count("solution") / body - DESIGN_RATE) < 0.05


def test_each_block_of_design_sentences_is_one_rationale():
    issues, annotations = make_design_corpus(seed=3, min_sentences=120)
    for issue, annotation in zip(issues, annotations):
        design = [s for s in enumerate_sentences(issue)
                  if annotation.labels[s.id] == "solution"]
        blocks: dict[tuple, list[str]] = {}
        for s in design:
            blocks.setdefault((s.kind, s.comment_index), []).append(s.id)
        assert [r.solution for r in annotation.rationales] == list(blocks.values())
        assert all(r.arguments == [] for r in annotation.rationales)


def test_seed_0_gives_the_pair_baseline_two_relation_classes():
    issues, annotations = make_design_corpus(seed=0, min_sentences=200)
    _, labels = collect_pair_data(issues, annotations)
    counts = {label: int((labels == RELATION_LABELS.index(label)).sum())
              for label in RELATION_LABELS}
    assert counts == {"supporting": 0, "complementary": 11, "unrelated": 66}
