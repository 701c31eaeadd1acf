from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.errors import MissingLexicon
from rationale_miner.sentiment import (
    NEUTRAL,
    SentimentAnalyzer,
    allcap_differential,
    load_lexicon,
    negated,
    normalize,
)

FIXTURES = Path(__file__).parent / "fixtures"

_SUITE = json.loads((FIXTURES / "sentiment-suite.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _SUITE, ids=[c["text"][:40] for c in _SUITE])
def test_recorded_suite_compound_matches_to_four_decimals(analyzer, case):
    got = analyzer.scores(case["text"])
    assert round(got.compound, 4) == pytest.approx(case["compound"], abs=1e-9)


@pytest.mark.parametrize("case", _SUITE, ids=[c["text"][:40] for c in _SUITE])
def test_recorded_suite_proportions_sum_to_one(analyzer, case):
    got = analyzer.scores(case["text"])
    assert abs(got.pos + got.neu + got.neg - 1.0) < 1e-9
    assert got.pos >= 0 and got.neu >= 0 and got.neg >= 0


@pytest.mark.parametrize("text", ["", "   ", "\t\n"])
def test_empty_and_whitespace_input_is_neutral(analyzer, text):
    assert analyzer.scores(text) == NEUTRAL


def test_text_without_lexicon_words_scores_zero(analyzer):
    got = analyzer.scores("The scheduler retries the request.")
    assert got.compound == 0.0
    assert got == (0.0, 1.0, 0.0, 0.0)


def test_negation_flips_polarity(analyzer):
    assert analyzer.scores("The design is good.").compound > 0
    assert analyzer.scores("The design is not good.").compound < 0


def test_booster_strengthens_valence(analyzer):
    plain = analyzer.scores("The design is good.").compound
    boosted = analyzer.scores("The design is very good.").compound
    dampened = analyzer.scores("The design is slightly good.").compound
    assert boosted > plain > dampened > 0


def test_allcaps_emphasis_requires_mixed_case(analyzer):
    plain = analyzer.scores("The book was good.").compound
    shouted = analyzer.scores("The book was GOOD.").compound
    all_shouted = analyzer.scores("THE BOOK WAS GOOD.").compound
    assert shouted > plain
    assert all_shouted == pytest.approx(plain)


def test_but_pivot_weights_the_later_clause(analyzer):
    ends_well = analyzer.scores("The start was slow but the ending was good.")
    ends_badly = analyzer.scores("The ending was good but the start was slow.")
    assert ends_well.compound > ends_badly.compound > 0


# The expected valences below are worked by hand from the rules of Hutto &
# Gilbert's VADER (ICWSM 2014) and the bundled lexicon (good 1.9, doubt -1.5,
# bad -2.5, useful 1.9; the boosters very and so add 0.293, times 0.95 two
# words back; a negation multiplies by -0.74).  With no punctuation the
# compound is the valence sum normalised as x / sqrt(x^2 + 15).
def _compound(valence_sum: float) -> float:
    return valence_sum / math.sqrt(valence_sum * valence_sum + 15.0)


@pytest.mark.parametrize("text,valence_sum", [
    # good: 1.9 + 0.293 (so) = 2.193; "never so" scales it by 1.25 instead
    # of negating it.
    ("never so good", 2.193 * 1.25),
    ("never this good", 1.9 * 1.25),
    # three words back: good 1.9 + 0.293 (very) + 0.95 * 0.293 (so), times 1.25
    ("never so very good", (1.9 + 0.293 + 0.95 * 0.293) * 1.25),
    ("never this very good", (1.9 + 0.293) * 1.25),
], ids=["never-so", "never-this", "never-so-3", "never-this-3"])
def test_never_so_intensifies_rather_than_negates(analyzer, text, valence_sum):
    assert analyzer.scores(text).compound == pytest.approx(_compound(valence_sum))


@pytest.mark.parametrize("text,valence_sum", [
    # doubt: -1.5 negated by "without" = 1.11; good two words after
    # "without" keeps its 1.9.
    ("without doubt good", 1.11 + 1.9),
    # good three words after "without", with "doubt" between: 1.9 + 0.293
    # (very), not negated.
    ("without doubt very good", 1.11 + 1.9 + 0.293),
    ("without a doubt good", 1.11 + 1.9),
], ids=["two-back", "three-back-doubt-second", "three-back-doubt-third"])
def test_without_doubt_does_not_negate(analyzer, text, valence_sum):
    assert analyzer.scores(text).compound == pytest.approx(_compound(valence_sum))


def test_idiom_overrides_word_valence(analyzer, tmp_path):
    literal = analyzer.scores("This tooling is shit.")
    idiom = analyzer.scores("This tooling is the shit!")
    assert literal.compound < 0 < idiom.compound
    # bad (-2.5) is the first word of "bad ass" (1.5); the idiom check runs
    # for a word with three words before it.
    assert analyzer.scores("this is a bad ass design").compound == pytest.approx(_compound(1.5))
    # kiss (1.8 in VADER's own lexicon) starts "kiss of death" (-1.5).
    path = tmp_path / "lexicon.txt"
    path.write_text("kiss\t1.8\n", encoding="utf-8")
    assert SentimentAnalyzer(path).scores("it was the kiss of death").compound == \
        pytest.approx(_compound(-1.5))


@pytest.mark.parametrize("text,valence_sum", [
    ("at least good", 1.9),
    # useful 1.9 + 0.95 * 0.293 (very, two words back)
    ("the very least useful", 1.9 + 0.95 * 0.293),
    ("the least useful", 1.9 * -0.74),
    ("least useful", 1.9 * -0.74),
], ids=["at-least", "very-least", "the-least", "least-first"])
def test_least_negates_unless_after_at_or_very(analyzer, text, valence_sum):
    assert analyzer.scores(text).compound == pytest.approx(_compound(valence_sum))


def test_least_negates_unless_at_least(analyzer):
    assert analyzer.scores("That was the least useful answer.").compound < 0
    assert analyzer.scores("At least it helps.").compound > 0


def test_no_before_lexicon_word_negates_it(analyzer):
    # "no" contributes nothing itself; the following word flips sign instead.
    assert analyzer.scores("No problem.").compound > 0
    assert analyzer.scores("There was a problem.").compound < 0


def test_exclamation_amplification_caps_at_four(analyzer):
    four = analyzer.scores("The design is good!!!!")
    six = analyzer.scores("The design is good!!!!!!")
    one = analyzer.scores("The design is good!")
    assert four.compound == pytest.approx(six.compound)
    assert four.compound > one.compound


def test_question_mark_amplification_plateaus(analyzer):
    four = analyzer.scores("Is the design good????")
    seven = analyzer.scores("Is the design good???????")
    two = analyzer.scores("Is the design good??")
    assert four.compound == pytest.approx(seven.compound)
    assert four.compound > two.compound


def test_negated_recognizes_contractions_and_words():
    assert negated(["isn't"])
    assert negated(["never"])
    assert negated(["despite"])
    assert not negated(["is", "fine"])


def test_allcap_differential():
    assert allcap_differential(["GOOD", "book"])
    assert not allcap_differential(["GOOD", "BOOK"])
    assert not allcap_differential(["good", "book"])
    assert not allcap_differential([])


def test_normalize_is_bounded_and_odd():
    assert normalize(0.0) == 0.0
    assert normalize(1000.0) <= 1.0
    assert normalize(-1000.0) >= -1.0
    assert normalize(2.5) == pytest.approx(-normalize(-2.5))


def test_custom_lexicon_file_is_used(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("zorp\t2.0\n", encoding="utf-8")
    custom = SentimentAnalyzer(path)
    assert custom.scores("This is zorp.").compound > 0
    assert custom.scores("This is good.").compound == 0.0


def test_a_lexicon_rewritten_in_place_is_read_again(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("cache\t2.0\n", encoding="utf-8")
    assert SentimentAnalyzer(path).scores("the cache works").compound > 0
    path.write_text("cache\t-2.0\n", encoding="utf-8")
    assert SentimentAnalyzer(path).scores("the cache works").compound < 0


def test_load_lexicon_ignores_comments_and_extra_columns(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# header line\nzorp\t1.5\t0.8\t[1, 2, 3]\n\nblah\t-2.0\n",
                    encoding="utf-8")
    lexicon = load_lexicon(path)
    assert lexicon == {"zorp": 1.5, "blah": -2.0}


def test_load_lexicon_missing_file_raises():
    with pytest.raises(MissingLexicon):
        load_lexicon("/nonexistent/lexicon.txt")


def test_load_lexicon_malformed_line_raises(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("justoneword\n", encoding="utf-8")
    with pytest.raises(MissingLexicon):
        load_lexicon(path)


def test_load_lexicon_non_numeric_valence_raises(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("word\tnotanumber\n", encoding="utf-8")
    with pytest.raises(MissingLexicon):
        load_lexicon(path)


@pytest.mark.parametrize("valence", ["nan", "inf", "-Infinity", "1e400"])
def test_load_lexicon_non_finite_valence_raises(tmp_path, valence):
    path = tmp_path / "lex.txt"
    path.write_text(f"good\t{valence}\n", encoding="utf-8")
    with pytest.raises(MissingLexicon, match="non-finite valence"):
        load_lexicon(path)


def test_load_lexicon_returns_a_private_copy():
    first = load_lexicon()
    first["mutated"] = 99.0
    assert "mutated" not in load_lexicon()


def test_bundled_lexicon_omits_common_neutral_words():
    lexicon = load_lexicon()
    for word in ("vader", "book", "cat", "sat", "mat", "analysis", "sentiment",
                 "tools", "movies", "reviews", "today", "propose", "cache"):
        assert word not in lexicon


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_scores_are_valid_for_arbitrary_text(text):
    got = SentimentAnalyzer().scores(text)
    assert -1.0 <= got.compound <= 1.0
    assert abs(got.pos + got.neu + got.neg - 1.0) < 1e-9
    assert min(got.pos, got.neu, got.neg) >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["good", "bad", "not", "very", "the", "book",
                                 "but", "no", "!", "GOOD", "never", "this"]),
                min_size=1, max_size=12))
def test_scores_are_valid_for_rule_heavy_text(tokens):
    got = SentimentAnalyzer().scores(" ".join(tokens))
    assert -1.0 <= got.compound <= 1.0
    assert abs(got.pos + got.neu + got.neg - 1.0) < 1e-9


@pytest.mark.parametrize("line", ["x" * 5000, "word\t" + "9" * 5000 + "z"],
                         ids=["malformed", "non-numeric"])
def test_a_long_bad_lexicon_line_is_cut_in_the_message(tmp_path, line):
    path = tmp_path / "lex.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(MissingLexicon) as error:
        load_lexicon(path)
    message = str(error.value)
    assert message.endswith(f"{repr(line)[:200]}… ({len(repr(line))} chars)")
    assert len(message) < 300 + len(str(path))
