from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.corpus import Sentence, enumerate_sentences, pair_structure
from rationale_miner.errors import BudgetExhausted, SameSentence
from rationale_miner.prompts import (
    CLOZE_MAX_SEQUENCE,
    FIXED_PROMPT_SLOTS,
    MASK_TOKEN,
    PAIR_MAX_SEQUENCE,
    build_cloze_prompt,
    build_pair_prompt,
    parse_relation_label,
)

FIXTURES = Path(__file__).parent / "fixtures"

_GOLDEN_PROMPTS = json.loads((FIXTURES / "prompts-golden.json").read_text(encoding="utf-8"))


def _sentence(text: str, global_index: int = 0, sid: str = "s", kind: str = "comment",
              comment_index: int | None = 0) -> Sentence:
    return Sentence(id=sid, text=text, kind=kind, comment_index=comment_index,
                    block_index=0, global_index=global_index, author="dev")


# ---------------------------------------------------------------------------
# golden byte layouts

def test_cloze_prompt_bytes_match_golden(golden_issue):
    sentences = enumerate_sentences(golden_issue)
    by_id = {s.id: s for s in sentences}
    prompt = build_cloze_prompt(by_id["des-s1"], golden_issue.summary)
    assert prompt.text == _GOLDEN_PROMPTS["cloze"]
    assert not prompt.truncated
    assert prompt.text.startswith(by_id["des-s1"].text + " is ")


def test_pair_prompt_bytes_match_golden(golden_issue):
    sentences = enumerate_sentences(golden_issue)
    by_id = {s.id: s for s in sentences}
    prompt = build_pair_prompt(by_id["des-s1"], by_id["c0-s0"])
    assert prompt == _GOLDEN_PROMPTS["pair"]
    assert pair_structure(by_id["des-s1"], by_id["c0-s0"]) == (False, 1)
    assert "are not in the same comment and their distance is 1." in prompt


def test_pair_prompt_same_comment_bytes_match_golden(golden_issue):
    sentences = enumerate_sentences(golden_issue)
    by_id = {s.id: s for s in sentences}
    prompt = build_pair_prompt(by_id["c0-s0"], by_id["c0-s1"])
    assert prompt == _GOLDEN_PROMPTS["pair_same_comment"]
    assert pair_structure(by_id["c0-s0"], by_id["c0-s1"]) == (True, 1)
    assert "are in the same comment and their distance is 1." in prompt


# ---------------------------------------------------------------------------
# budgets and truncation

def test_default_budgets():
    assert CLOZE_MAX_SEQUENCE == 384
    assert PAIR_MAX_SEQUENCE == 512
    assert FIXED_PROMPT_SLOTS == 8


def test_cloze_truncation_keeps_leading_tokens():
    sentence = _sentence(" ".join(f"w{i}" for i in range(50)))
    prompt = build_cloze_prompt(sentence, "title words here", 30)
    assert prompt.truncated
    cap = 30 - 3 - FIXED_PROMPT_SLOTS
    body = prompt.text.split(" is [MASK] related")[0]
    assert body.split() == [f"w{i}" for i in range(cap)]


def test_cloze_budget_exhausted_when_summary_fills_budget():
    sentence = _sentence("some sentence")
    summary = " ".join("t" for _ in range(5))  # 12 - 5 - 8 < 1
    with pytest.raises(BudgetExhausted):
        build_cloze_prompt(sentence, summary, 12)


def test_cloze_defuses_embedded_mask_tokens():
    sentence = _sentence("beware [MASK] in text")
    prompt = build_cloze_prompt(sentence, "title with [MASK] too")
    assert prompt.text.count(MASK_TOKEN) == 1
    assert "[mask]" in prompt.text


def test_pair_caps_are_independent():
    long_one = _sentence(" ".join(f"a{i}" for i in range(400)), global_index=0, sid="p")
    short_one = _sentence("short text", global_index=5, sid="q")
    prompt = build_pair_prompt(long_one, short_one)
    body1 = prompt.split("Sentence 1: ", 1)[1].split("\nSentence 2: ", 1)[0]
    body2 = prompt.split("\nSentence 2: ", 1)[1].split("\nTwo sentences", 1)[0]
    template_len = len(prompt.replace(body1, "", 1).replace(body2, "", 1).split())
    cap = (PAIR_MAX_SEQUENCE - template_len) // 2
    # The long sentence is clipped to the cap; the short one keeps its two
    # tokens and its unused allowance is not handed to the long one.
    assert len(body1.split()) == cap
    assert body2 == "short text"


def test_pair_rejects_self_pairs():
    a = _sentence("one", sid="a")
    with pytest.raises(SameSentence):
        build_pair_prompt(a, a)


def test_pair_budget_exhausted_on_tiny_budget():
    a = _sentence("one", sid="a")
    b = _sentence("two", sid="b", global_index=1)
    with pytest.raises(BudgetExhausted):
        build_pair_prompt(a, b, 10)


def test_pair_distance_and_same_comment_flags(golden_issue):
    by_id = {s.id: s for s in enumerate_sentences(golden_issue)}
    cross_comment = build_pair_prompt(by_id["c0-s0"], by_id["c1-s0"])
    assert pair_structure(by_id["c0-s0"], by_id["c1-s0"]) == (False, 3)
    assert "are not in the same comment and their distance is 3." in cross_comment
    description_pair = build_pair_prompt(by_id["des-s0"], by_id["des-s1"])
    # only comments share comments
    assert pair_structure(by_id["des-s0"], by_id["des-s1"]) == (False, 1)
    assert "are not in the same comment and their distance is 1." in description_pair


@settings(max_examples=100, deadline=None)
@given(
    sentence_len=st.integers(min_value=0, max_value=80),
    summary_len=st.integers(min_value=1, max_value=40),
    max_sequence=st.integers(min_value=1, max_value=120),
)
def test_cloze_truncation_law(sentence_len, summary_len, max_sequence):
    sentence = _sentence(" ".join(f"w{i}" for i in range(sentence_len)))
    summary = " ".join(f"t{i}" for i in range(summary_len))
    cap = max_sequence - summary_len - FIXED_PROMPT_SLOTS
    if cap < 1:
        with pytest.raises(BudgetExhausted):
            build_cloze_prompt(sentence, summary, max_sequence)
        return
    prompt = build_cloze_prompt(sentence, summary, max_sequence)
    body = prompt.text.split(" is [MASK] related", 1)[0]
    used = len(body.split())
    assert used == min(sentence_len, cap)
    assert body.split() == [f"w{i}" for i in range(used)]
    assert prompt.truncated == (sentence_len > cap)
    assert prompt.text.count(MASK_TOKEN) == 1
    # Whole-prompt accounting: everything but the mask word and two slack
    # slots stays within the budget.
    assert len(prompt.text.split()) <= max_sequence - 2


@settings(max_examples=100, deadline=None)
@given(
    len1=st.integers(min_value=1, max_value=300),
    len2=st.integers(min_value=1, max_value=300),
    max_sequence=st.integers(min_value=40, max_value=600),
)
def test_pair_truncation_law(len1, len2, max_sequence):
    s1 = _sentence(" ".join(f"a{i}" for i in range(len1)), sid="p", global_index=0)
    s2 = _sentence(" ".join(f"b{i}" for i in range(len2)), sid="q", global_index=3)
    empty = build_pair_prompt(_sentence("", sid="x"), _sentence("", sid="y", global_index=3),
                              600)
    template_len = len(empty.split())
    cap = (max_sequence - template_len) // 2
    if cap < 1:
        with pytest.raises(BudgetExhausted):
            build_pair_prompt(s1, s2, max_sequence)
        return
    prompt = build_pair_prompt(s1, s2, max_sequence)
    body1 = prompt.split("Sentence 1: ", 1)[1].split("\nSentence 2: ", 1)[0]
    body2 = prompt.split("\nSentence 2: ", 1)[1].split("\nTwo sentences", 1)[0]
    assert len(body1.split()) == min(len1, cap)
    assert len(body2.split()) == min(len2, cap)
    assert body1.split() == [f"a{i}" for i in range(min(len1, cap))]
    assert body2.split() == [f"b{i}" for i in range(min(len2, cap))]


# ---------------------------------------------------------------------------
# label parsing and token counters

@pytest.mark.parametrize("response,expected", [
    ("supporting", "supporting"),
    ("  Complementary.", "complementary"),
    ("I think they are UNRELATED here", "unrelated"),
    ("unrelated, though arguably complementary", "unrelated"),
    ("complementary... definitely not unrelated", "complementary"),
])
def test_parse_relation_label_first_occurrence_wins(response, expected):
    assert parse_relation_label(response) == expected


@pytest.mark.parametrize("response", ["", "no label here", "support", "ARG-SOL"])
def test_parse_relation_label_rejects_unlabeled_responses(response):
    assert parse_relation_label(response) is None
