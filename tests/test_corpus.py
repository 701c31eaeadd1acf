from __future__ import annotations

import datetime as dt
import json
import re
import time
import timeit
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rationale_miner.corpus import (
    DEFAULT_ABBREVIATIONS,
    clean_issue,
    clean_text,
    enumerate_sentences,
    load_corpus,
    parse_issue,
    sentence_order,
    split_sentences,
)
from rationale_miner.errors import MalformedExport

from oracles import oracle_clean_text, oracle_split_sentences

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# parsing

def test_parse_issue_reads_fixture(raw_issue):
    issue = parse_issue(raw_issue)
    assert issue.key == "FLINK-1320"
    assert issue.summary == "Add a pluggable cache for lookup requests"
    assert issue.reporter == "alice"
    assert issue.project == "FLINK"
    assert len(issue.comments) == 4
    created = [c.created for c in issue.comments]
    assert created == sorted(created)


def test_parse_issue_sorts_comments_by_timestamp(raw_issue):
    raw_issue["comments"] = list(reversed(raw_issue["comments"]))
    issue = parse_issue(raw_issue)
    authors = [c.author for c in issue.comments]
    assert authors == ["bob", "carol", "flink-build-bot", "alice"]


@pytest.mark.parametrize("broken", [
    {},
    {"key": "A-1"},
    {"key": "", "summary": "x"},
    {"key": "A-1", "summary": ""},
    {"key": "A-1", "summary": "x", "comments": "nope"},
    {"key": "A-1", "summary": "x", "comments": [{"author": "a", "body": "b"}]},
    {"key": "A-1", "summary": "x", "comments": [{"author": 3, "body": "b",
                                                 "created": "2020-01-01T00:00:00Z"}]},
    {"key": "A-1", "summary": "x", "description": 7},
])
def test_parse_issue_rejects_malformed_exports(broken):
    with pytest.raises(MalformedExport):
        parse_issue(broken)


_ABSENT = object()


@pytest.mark.parametrize("field", ["description", "reporter"])
@pytest.mark.parametrize("value,parsed", [
    (_ABSENT, ""), (None, ""), ("", ""), ("alice", "alice"),
    (0, None), (False, None), ([], None), ({}, None), (7, None), (["alice"], None),
], ids=["absent", "null", "empty", "string", "zero", "false", "empty-list", "empty-object",
        "number", "list"])
def test_parse_issue_takes_a_string_or_nothing_as_description_and_reporter(field, value,
                                                                          parsed):
    raw = {"key": "A-1", "summary": "x"}
    if value is not _ABSENT:
        raw[field] = value
    if parsed is None:
        with pytest.raises(MalformedExport, match=f"field '{field}' must be a string"):
            parse_issue(raw)
    else:
        assert getattr(parse_issue(raw), field) == parsed


@pytest.mark.parametrize("comment", [3, None, "author body created",
                                     ["author", "body", "created"]])
def test_parse_issue_rejects_a_comment_that_is_not_an_object(comment):
    with pytest.raises(MalformedExport, match="comment 0 must be an object"):
        parse_issue({"key": "A-1", "summary": "x", "comments": [comment]})


def test_parse_issue_rejects_bad_timestamps():
    raw = {"key": "A-1", "summary": "x",
           "comments": [{"author": "a", "body": "b", "created": "yesterday"}]}
    with pytest.raises(MalformedExport, match="unparseable timestamp: 'yesterday'"):
        parse_issue(raw)


@pytest.mark.parametrize("raw", [
    {"key": "A/" + "k" * 100_000, "summary": "x"},
    {"key": "A-1", "summary": "x",
     "comments": [{"author": "a", "body": "b", "created": ["t"] * 20_000}]},
    {"key": "A-1", "summary": "x",
     "comments": [{"author": "a", "body": "b", "created": "t" * 100_000}]},
], ids=["key", "timestamp-not-a-string", "timestamp-unparseable"])
def test_a_huge_key_or_timestamp_is_cut_in_the_skipping_line(tmp_path, raw):
    (tmp_path / "huge.json").write_text(json.dumps(raw), encoding="utf-8")
    issues, [line] = load_corpus(tmp_path)
    assert issues == []
    assert line.startswith("huge.json: ") and re.search(r"… \(\d+ chars\)", line)
    assert len(line) < 300


@pytest.mark.parametrize("stamp", [
    "2014-01-08T10:22:31.000+0000",
    "2014-01-08T10:22:31+00:00",
    "2014-01-08T10:22:31Z",
])
def test_parse_issue_accepts_common_timestamp_styles(stamp):
    raw = {"key": "A-1", "summary": "x",
           "comments": [{"author": "a", "body": "b", "created": stamp}]}
    issue = parse_issue(raw)
    assert issue.comments[0].created == dt.datetime(
        2014, 1, 8, 10, 22, 31, tzinfo=dt.timezone.utc)


_UTC = dt.timezone.utc


@pytest.mark.parametrize("stamp, created", [
    ("2014-01-08T10:22:31.000+0000", dt.datetime(2014, 1, 8, 10, 22, 31, tzinfo=_UTC)),
    ("2014-01-08T10:22:31+00:00", dt.datetime(2014, 1, 8, 10, 22, 31, tzinfo=_UTC)),
    ("2014-01-08T10:22:31Z", dt.datetime(2014, 1, 8, 10, 22, 31, tzinfo=_UTC)),
    ("2014-01-08T10:22:31z", dt.datetime(2014, 1, 8, 10, 22, 31, tzinfo=_UTC)),
    ("2014-01-08 10:22", dt.datetime(2014, 1, 8, 10, 22)),
    (" 2014-01-08T10:22:31 ", dt.datetime(2014, 1, 8, 10, 22, 31)),
    ("2014-01-08T10:22:31.5+0000", dt.datetime(2014, 1, 8, 10, 22, 31, 500000, tzinfo=_UTC)),
    ("2014-01-08T10:22:31.12345+00:00",
     dt.datetime(2014, 1, 8, 10, 22, 31, 123450, tzinfo=_UTC)),
    ("2014-01-08T10:22:31.123456-01:30", dt.datetime(
        2014, 1, 8, 10, 22, 31, 123456, tzinfo=dt.timezone(-dt.timedelta(hours=1, minutes=30)))),
    ("2020-01-01T00:00:00+00:00", dt.datetime(2020, 1, 1, tzinfo=_UTC)),  # isoformat()
    ("2014-01-08", None),
    ("20140108T102231Z", None),
    ("2014-01-08T10", None),
    ("2014-01-08t10:22:31", None),
    ("2014-01-08_10:22", None),
    ("2014-W02-3T10:22", None),
    ("2014-01-08T10:22:31,5", None),
    ("2014-01-08T10:22:31.1234567", None),
    ("2014-01-08T10:22:31+00", None),
    ("2014-01-08T10:22:31+00:00:00", None),
    ("2014-01-08T10:22:31+0099", None),
    ("2014-01-08T10:22:31+2400", None),
    ("2014-01-08T10:22:31 +0000", None),
    ("2014-13-08T10:22:31", None),
    ("2014-01-08T24:00", None),
    ("\u0662\u0660\u0661\u0664-01-08T10:22", None),  # digits outside ASCII
])
def test_the_timestamp_grammar_is_the_same_on_every_python(stamp, created):
    """A date, 'T' or a space, HH:MM with optional seconds and a 1-6 digit
    fraction, then an optional Z or +HH[:]MM offset; nothing else."""
    raw = {"key": "A-1", "summary": "x",
           "comments": [{"author": "a", "body": "b", "created": stamp}]}
    if created is None:
        with pytest.raises(MalformedExport, match="unparseable timestamp"):
            parse_issue(raw)
    else:
        assert parse_issue(raw).comments[0].created == created


def test_load_corpus_reads_files_sorted(tmp_path):
    for key in ("B-2", "A-1"):
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"key": key, "summary": "s"}), encoding="utf-8")
    issues, skipped = load_corpus(tmp_path)
    assert [i.key for i in issues] == ["A-1", "B-2"]
    assert skipped == []


def test_project_is_key_prefix_before_last_dash():
    issue = parse_issue({"key": "SPARK-SQL-100", "summary": "s"})
    assert issue.project == "SPARK-SQL"


# ---------------------------------------------------------------------------
# cleaning

def test_clean_text_deletes_quote_blocks():
    assert clean_text("keep {quote}drop this{quote} also keep") == "keep  also keep"


def test_clean_text_drops_stray_quote_markers_and_quoted_lines():
    text = "first\n> quoted reply\n{quote}\nsecond"
    assert clean_text(text) == "first\n\nsecond"


@pytest.mark.parametrize("markup", [
    "before {code}int x = 1;{code} after",
    "before {code:java}int x = 1;{code} after",
    "before {noformat}raw text{noformat} after",
    "before ```int x = 1;``` after",
])
def test_clean_text_replaces_code_blocks(markup):
    assert clean_text(markup) == "before [code] after"


def test_clean_text_swallows_unterminated_code_to_end():
    assert clean_text("before {code}dangling rest") == "before [code]"


def test_clean_text_replaces_urls_keeping_trailing_punctuation():
    text = "see https://example.org/a?b=1. next"
    assert clean_text(text) == "see [URL]. next"


def test_clean_text_url_without_trailing_punctuation():
    assert clean_text("ftp://host/file and more") == "[URL] and more"


def test_clean_text_filters_to_encoding():
    assert clean_text("café time", encoding="ascii") == "caf time"
    assert clean_text("café time", encoding="utf-8") == "café time"


def test_clean_text_url_inside_code_block_vanishes():
    assert clean_text("x {code}https://example.org{code} y") == "x [code] y"


@settings(max_examples=200, deadline=None)
@given(st.text(
    alphabet=st.characters(min_codepoint=9, max_codepoint=0x2FF),
    max_size=300,
))
def test_clean_text_is_idempotent(text):
    once = clean_text(text)
    assert clean_text(once) == once


_MARKUP = st.lists(st.sampled_from([
    "{code", "{code}", "{code:java}", "{code:x}", "}", "{noformat}", "```", "`",
    "{quote}", "\n", "\n> ", " ", "x", ".", ")", "http://a", "https://b.c/d",
    "\u00e9", "'", "]",
]), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(_MARKUP, st.text(max_size=200)),
       encoding=st.sampled_from(["ascii", "utf-8"]))
@example(text="{code\n{code}x{code} {code y\n{code:j}z", encoding="ascii")
# Block passes run before tail passes: the ``` block closes first and takes
# the {code:x} inside it along, so the tail stays.
@example(text="```{code:x}``` tail", encoding="ascii")
@example(text="{code:x}```{code} tail ```", encoding="ascii")
def test_clean_text_matches_the_regex_passes(text, encoding):
    assert clean_text(text, encoding) == oracle_clean_text(text, encoding)


_FLOODS = {
    "code-parameters": "{code:java} x " * 15_000,
    "code-opener": "{code x " * 25_000,
    "noformat": "{noformat} x " * 16_000,
    "backticks": "``` x " * 34_000,
    "quote": "{quote} x " * 20_000,
    "url-punctuation": "see http://a" + ")" * 500_000,
}


@pytest.mark.parametrize("flood", _FLOODS)
def test_clean_text_is_linear_on_floods(flood):
    started = time.perf_counter()
    clean_text(_FLOODS[flood])
    assert time.perf_counter() - started < 1.0


def test_clean_issue_drops_bot_comments_densely(raw_issue):
    issue = clean_issue(parse_issue(raw_issue))
    authors = [c.author for c in issue.comments]
    assert authors == ["bob", "carol", "alice"]


def test_clean_issue_respects_custom_bot_patterns(raw_issue):
    issue = clean_issue(parse_issue(raw_issue), bot_authors=("carol",))
    authors = [c.author for c in issue.comments]
    assert authors == ["bob", "flink-build-bot", "alice"]


# ---------------------------------------------------------------------------
# sentence splitting

def _load_segmentation_cases() -> list[tuple[str, str, list[str]]]:
    cases = []
    name, input_lines, expect_lines, section = None, [], [], None
    lines = (FIXTURES / "segmentation.txt").read_text(encoding="utf-8").splitlines()
    for line in lines + ["#### case: _end"]:
        if line.startswith("#### case: "):
            if name is not None:
                text = "\n".join(input_lines).strip("\n")
                expected = [e for e in expect_lines if e.strip()]
                cases.append((name, text, expected))
            name, input_lines, expect_lines, section = line[11:], [], [], None
        elif line == "-- input --":
            section = "input"
        elif line == "-- expect --":
            section = "expect"
        elif section == "input":
            input_lines.append(line)
        elif section == "expect":
            expect_lines.append(line)
    return cases


_SEGMENTATION_CASES = _load_segmentation_cases()


def test_segmentation_suite_is_big_enough():
    total = sum(len(expected) for _, _, expected in _SEGMENTATION_CASES)
    assert total >= 30


@pytest.mark.parametrize("name,text,expected",
                         _SEGMENTATION_CASES,
                         ids=[c[0] for c in _SEGMENTATION_CASES])
def test_segmentation_case(name, text, expected):
    assert split_sentences(text) == expected


@settings(max_examples=100, deadline=None)
@given(st.text(
    alphabet=st.sampled_from(list("aBc .!?\n\t'\"(e.g")),
    max_size=120,
))
def test_split_sentences_preserves_words(text):
    sentences = split_sentences(text)
    assert all(s == s.strip() and s for s in sentences)
    assert " ".join(" ".join(sentences).split()) == " ".join(text.split())


_PROSE = st.lists(st.sampled_from([
    "e.g.", "E.G.", "i.e.", "etc.", "(e.g.", "\"Dr.", "'cf.", "vs.", "x", "Word",
    ".", "..", "!", "?", "?!", " ", "  ", "\n", "\n\n", "\t", "(", "\"", "'", "a.b",
]), max_size=60).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(_PROSE, st.text(max_size=200)))
@example(text="See (e.g. this). And e.g. that")
def test_split_sentences_matches_the_rescanning_split(text):
    assert split_sentences(text) == oracle_split_sentences(text, DEFAULT_ABBREVIATIONS)


def _best_of_5(work) -> float:
    return min(timeit.repeat(work, number=1, repeat=5))


def test_split_sentences_is_linear_on_abbreviation_runs():
    # Timed against a linear pass over the same text, so that a busy host
    # slows both sides alike; a quadratic split takes over 70 times as long.
    text = "e.g. " * 64_000  # 320 KB
    assert split_sentences(text) == [text.strip()]
    assert _best_of_5(lambda: split_sentences(text)) < 10 * _best_of_5(
        lambda: [token.lower() for token in text.split()])


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_sentences_on_golden_issue(golden_issue):
    sentences = enumerate_sentences(golden_issue)
    assert [s.id for s in sentences] == [
        "sum-s0", "des-s0", "des-s1", "c0-s0", "c0-s1", "c0-s2",
        "c1-s0", "c1-s1", "c2-s0", "c2-s1",
    ]
    assert [s.global_index for s in sentences] == list(range(10))
    by_id = {s.id: s for s in sentences}
    assert by_id["sum-s0"].author == "alice"
    assert by_id["des-s0"].author == "alice"
    assert by_id["c0-s0"].author == "bob"
    assert by_id["c0-s2"].text == "See [code] for a starting point."
    assert by_id["c1-s0"].text == "A bounded LRU would keep memory stable."
    assert by_id["c2-s1"].text == "Thanks for looking into this!"
    assert by_id["c1-s1"].comment_index == 1
    assert by_id["sum-s0"].comment_index is None


def test_summary_is_never_segmented():
    issue = parse_issue({
        "key": "A-1", "reporter": "r",
        "summary": "One sentence. Two sentences? Still a single title!",
    })
    sentences = enumerate_sentences(issue)
    assert [s.id for s in sentences] == ["sum-s0"]
    assert sentences[0].text == "One sentence. Two sentences? Still a single title!"


def test_empty_summary_contributes_no_sentence():
    issue = parse_issue({"key": "A-1", "summary": "x", "description": "Hello there."})
    issue.summary = "   "
    sentences = enumerate_sentences(issue)
    assert [s.id for s in sentences] == ["des-s0"]
    assert sentences[0].global_index == 0


def test_sentence_order_maps_ids_to_global_indices(golden_issue):
    sentences = enumerate_sentences(golden_issue)
    order = sentence_order(sentences)
    assert order["sum-s0"] == 0
    assert order["c2-s1"] == 9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from(list("ab .!?")), min_size=1,
                        max_size=40), max_size=4))
def test_enumerate_global_indices_are_dense(bodies):
    base = dt.datetime(2020, 1, 1, tzinfo=dt.timezone.utc)
    issue = parse_issue({
        "key": "A-1", "summary": "title", "reporter": "r",
        "description": "Body one. Body two.",
        "comments": [
            {"author": f"dev{i}", "body": body,
             "created": (base + dt.timedelta(minutes=i)).isoformat()}
            for i, body in enumerate(bodies)
        ],
    })
    sentences = enumerate_sentences(issue)
    assert [s.global_index for s in sentences] == list(range(len(sentences)))
    assert len({s.id for s in sentences}) == len(sentences)
