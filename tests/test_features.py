from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.corpus import clean_issue, parse_issue
from rationale_miner.evaluation import dimension_slots
from rationale_miner.features import (
    FEATURE_BLOCKS,
    FEATURE_DIM,
    FEATURE_NAMES,
    POLARITY_WORDS,
    compute_feature_matrix,
    keyword_flags,
    word_tokens,
)
from rationale_miner.miner import SP_FEATURE_NAMES
from rationale_miner.sentiment import SentimentAnalyzer

FIXTURES = Path(__file__).parent / "fixtures"


def test_layout_constants():
    assert FEATURE_DIM == 29
    assert len(FEATURE_NAMES) == 29
    assert len(set(FEATURE_NAMES)) == 29
    assert len(POLARITY_WORDS) == 14
    assert len(SP_FEATURE_NAMES) == 43
    assert SP_FEATURE_NAMES[:14] == tuple(f"polarity_{w}" for w in POLARITY_WORDS)
    assert SP_FEATURE_NAMES[14:] == FEATURE_NAMES


def test_feature_groups_partition_the_vector():
    slots = sorted(slot for block in FEATURE_BLOCKS for slot in dimension_slots(block))
    assert slots == list(range(29))
    widths = {name: len(names) for name, names in FEATURE_BLOCKS.items()}
    assert widths == {"process": 5, "position": 3, "keyword": 14,
                      "structure": 3, "sentiment": 4}


def test_frozen_vectors_for_golden_issue(golden_issue, analyzer):
    fixture = json.loads(
        (FIXTURES / "features-flink-1320.json").read_text(encoding="utf-8"))
    sentences, matrix = compute_feature_matrix(golden_issue, analyzer)
    by_id = {s.id: i for i, s in enumerate(sentences)}
    for sid, expected in fixture["vectors"].items():
        np.testing.assert_allclose(matrix[by_id[sid]], np.array(expected),
                                   atol=1e-12, err_msg=sid)


def test_hand_computed_vectors_for_a_small_issue(analyzer):
    # bob writes 2 of the 3 comments; the comments hold 1, 2 and 3 sentences.
    issue = clean_issue(parse_issue({
        "key": "PLAN-7", "summary": "Plan cache", "reporter": "alice",
        "description": "Add a plan cache.",
        "comments": [
            {"author": "bob", "body": "Why here?", "created": "2020-01-01T00:00:00Z"},
            {"author": "carol", "body": "It could go in the planner. "
             "But the planner is shared.", "created": "2020-01-02T00:00:00Z"},
            {"author": "bob", "body": "So we keep it in the cache. The cache lives "
             "in {code}Plan p;{code} now. Done!", "created": "2020-01-03T00:00:00Z"},
        ],
    }))
    sentences, matrix = compute_feature_matrix(issue, analyzer)
    assert [s.id for s in sentences] == [
        "sum-s0", "des-s0", "c0-s0", "c1-s0", "c1-s1", "c2-s0", "c2-s1", "c2-s2"]
    # process and position blocks, row by row
    np.testing.assert_allclose([row[:8] for row in matrix], [
        [1, 1, 0, 3, 8, 0, 1, 0],
        [1, 1, 0, 3, 8, 0, 1, 1],
        [0, 0, 2, 3, 8, 1 / 3, 1, 2],
        [0, 0, 1, 3, 8, 2 / 3, 1 / 2, 3],
        [0, 0, 1, 3, 8, 2 / 3, 1, 4],
        [0, 0, 2, 3, 8, 1, 1 / 3, 5],
        [0, 0, 2, 3, 8, 1, 2 / 3, 6],
        [0, 0, 2, 3, 8, 1, 1, 7],
    ], rtol=0, atol=1e-15)
    keywords = dict.fromkeys(FEATURE_NAMES[8:22], 0.0)
    neutral = [0.0, 1.0, 0.0, 0.0]
    rows = {
        "des-s0": [1, 1, 0, 3, 8, 0, 1, 1, *keywords.values(), 0, 0, 4, *neutral],
        "c1-s0": [0, 0, 1, 3, 8, 2 / 3, 1 / 2, 3,
                  *{**keywords, "kw_modal_can_could": 1.0}.values(), 0, 0, 6, *neutral],
        "c2-s1": [0, 0, 2, 3, 8, 1, 2 / 3, 6, *keywords.values(), 1, 0, 6, *neutral],
    }
    for sid, expected in rows.items():
        row = matrix[[s.id for s in sentences].index(sid)]
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15, err_msg=sid)


def test_word_tokens_are_exact_lowercased_words():
    assert word_tokens("However, why can't WE retry?") == \
        ["however", "why", "can't", "we", "retry"]
    assert word_tokens("") == []


def test_keyword_flags_exact_word_match_only():
    # "showever" must not trigger the transition flag, "can't" is not "can".
    flags = dict(zip(FEATURE_NAMES[8:22], keyword_flags("showever can't")))
    assert flags["kw_transition"] == 0.0
    assert flags["kw_modal_can_could"] == 0.0
    flags = dict(zip(FEATURE_NAMES[8:22], keyword_flags("However, we can.")))
    assert flags["kw_transition"] == 1.0
    assert flags["kw_modal_can_could"] == 1.0


def test_keyword_flags_group_membership():
    flags = dict(zip(FEATURE_NAMES[8:22],
                     keyword_flags("Why should we? Thanks! So yet...")))
    assert flags["kw_why"] == 1.0
    assert flags["kw_modal_should_shall"] == 1.0
    assert flags["kw_question_mark"] == 1.0
    assert flags["kw_exclamation_mark"] == 1.0
    assert flags["kw_greeting"] == 1.0
    assert flags["kw_causal"] == 1.0
    assert flags["kw_transition"] == 1.0
    assert flags["kw_what"] == 0.0


def test_structure_flags_use_placeholders(golden_issue, analyzer):
    sentences, matrix = compute_feature_matrix(golden_issue, analyzer)
    by_id = {s.id: i for i, s in enumerate(sentences)}
    code_slot = FEATURE_NAMES.index("has_code")
    url_slot = FEATURE_NAMES.index("has_url")
    assert matrix[by_id["c0-s2"]][code_slot] == 1.0
    assert matrix[by_id["c0-s0"]][code_slot] == 0.0
    assert all(row[url_slot] == 0.0 for row in matrix)


def test_matrix_shape_and_order(golden_issue, analyzer):
    sentences, matrix = compute_feature_matrix(golden_issue, analyzer)
    assert len(matrix) == len(sentences)
    assert all(len(row) == FEATURE_DIM for row in matrix)
    assert all(type(value) is float for row in matrix for value in row)
    global_slot = FEATURE_NAMES.index("global_index")
    assert [row[global_slot] for row in matrix] == list(range(len(sentences)))


def test_empty_issue_yields_empty_matrix(analyzer):
    issue = parse_issue({"key": "A-1", "summary": "x"})
    issue.summary = ""
    sentences, matrix = compute_feature_matrix(issue, analyzer)
    assert sentences == []
    assert matrix == []


_TEXT = st.text(alphabet=st.sampled_from(list("abc Why?!.tHENso")), min_size=0,
                max_size=60)


@settings(max_examples=50, deadline=None)
@given(body=_TEXT, author_is_reporter=st.booleans())
def test_feature_ranges_hold_for_generated_issues(body, author_is_reporter):
    author = "alice" if author_is_reporter else "bob"
    issue = parse_issue({
        "key": "A-1", "summary": "A title", "reporter": "alice",
        "description": "First thing. Second thing.",
        "comments": [{"author": author, "body": body or "placeholder",
                      "created": "2020-01-01T00:00:00Z"}],
    })
    analyzer = SentimentAnalyzer()
    sentences, matrix = compute_feature_matrix(issue, analyzer)
    for sentence, vector in zip(sentences, matrix):
        named = dict(zip(FEATURE_NAMES, vector))
        assert named["is_description"] in (0.0, 1.0)
        assert named["is_creator"] in (0.0, 1.0)
        for flag in FEATURE_NAMES[8:24]:
            assert named[flag] in (0.0, 1.0)
        assert 0.0 <= named["comment_position"] <= 1.0
        assert 0.0 < named["sentence_position"] <= 1.0
        if sentence.kind != "comment":
            assert named["comment_position"] == 0.0
        assert named["word_count"] == float(len(sentence.text.split()))
        assert named["global_index"] == float(sentence.global_index)
        assert -1.0 <= named["sentiment_compound"] <= 1.0
        assert abs(named["sentiment_pos"] + named["sentiment_neu"]
                   + named["sentiment_neg"] - 1.0) < 1e-9
