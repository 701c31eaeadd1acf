from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from rationale_miner.corpus import clean_issue, enumerate_sentences, load_corpus, parse_issue
from rationale_miner.sentiment import SentimentAnalyzer

FIXTURES = Path(__file__).parent / "fixtures"

# The scheduling corpus: ``ISSUES`` generated issues, mined through SCRIPT.
ISSUES = 9
# Design tags per issue; every issue also has noise sentences.
_TAGS = ("Plan", "Reason", "Plan", "Bridge", "Plan", "Murky", "Reason", "Plan")
_NOISE = ("The nightly build ran on {n} executors.", "Attached the log of run {n}.")
_DESIGN = "{tag} q{j}z-{n} keeps the parser simple."
_DESIGN_P0 = [0.9] + [0.0] * 13
_NOISE_P0 = [0.1] + [0.0] * 13

# The golden head calls a sentence design when its first polarity slot is
# 0.9 and not when it is 0.1.  Pair answers depend on the tags alone: a
# "Murky" second sentence is unparsable (a warning), a "Bridge" is an
# argument complementary to an earlier plan (a construction warning), and a
# "Doomed" sentence's well-formed rule answers null, a reply that fails its
# check on every call (the issue fails).
SCRIPT = {
    "mask_probs": {
        "rules": [{"contains": tag + " q", "probs": _DESIGN_P0}
                  for tag in ("Plan", "Reason", "Bridge", "Murky", "Doomed")],
        "default": {"probs": _NOISE_P0},
    },
    "generate": {
        "rules": [
            {"contains": "Doomed", "text": None},
            {"contains": "Sentence 2: Murky", "text": "hard to say"},
            {"contains": ["Sentence 1: Reason", "Sentence 2: Plan"], "text": "supporting"},
            {"contains": ["Sentence 1: Bridge", "Sentence 2: Plan"], "text": "supporting"},
            {"contains": ["Sentence 1: Plan", "Sentence 2: Bridge"], "text": "complementary"},
            {"contains": ["Sentence 1: Plan", "Sentence 2: Plan"], "text": "complementary"},
            {"contains": ["Sentence 1: Reason", "Sentence 2: Reason"],
             "text": "complementary"},
        ],
        "default": {"text": "unrelated"},
    },
}


def sched_issue(j: int) -> dict:
    """Issue ``j``: j % 8 design sentences among noise, in three comments;
    issue 6 also holds a sentence that fails its pair probes."""
    design = [_DESIGN.format(tag=tag, j=j, n=n) for n, tag in enumerate(_TAGS[: j % 8])]
    if j == 6:
        design.insert(1, _DESIGN.format(tag="Doomed", j=j, n=9))
    texts = []
    for n, sentence in enumerate(design):
        texts.extend([sentence, _NOISE[n % 2].format(n=j + n + 2)])
    texts = texts or [_NOISE[0].format(n=j + 2)]
    thirds = [texts[i::3] for i in range(3)]
    return {
        "key": f"SCHED-{j}",
        "summary": f"Pick a parser design for q{j}z",
        "reporter": "alice",
        "description": " ".join(thirds[0]) or "No description.",
        "comments": [
            {"author": author, "created": f"2020-01-0{c + 2}T10:00:00.000+0000",
             "body": " ".join(part) or "Thanks."}
            for c, (author, part) in enumerate(zip(("bob", "carol"), thirds[1:]))
        ],
    }


# The design label of a sentence by its first word; an even-numbered
# sentence of any other word is labelled ``none``, an odd one left out.
_GOLD_LABELS = {"Plan": "solution", "Doomed": "solution", "Reason": "argument",
                "Bridge": "argument", "Murky": "argument"}


def write_gold(corpus_dir, keys):
    """An annotations file, next to ``corpus_dir``, for its issues ``keys``."""
    issues, _ = load_corpus(corpus_dir)
    gold = corpus_dir.parent / "gold.jsonl"
    with open(gold, "w", encoding="utf-8") as handle:
        for issue in issues:
            if issue.key in keys:
                labels = {s.id: _GOLD_LABELS.get(s.text.split()[0], "none")
                          for n, s in enumerate(enumerate_sentences(issue))
                          if s.text.split()[0] in _GOLD_LABELS or n % 2 == 0}
                handle.write(json.dumps({"issue": issue.key, "annotator": "a",
                                         "labels": labels}) + "\n")
    return gold


@pytest.fixture
def corpus(tmp_path, prompt_config):
    """A config over the ``ISSUES`` generated issues and SCRIPT."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for j in range(ISSUES):
        (corpus_dir / f"SCHED-{j}.json").write_text(json.dumps(sched_issue(j)),
                                                    encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps(SCRIPT), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**prompt_config, "corpus_dir": str(corpus_dir),
                                  "script_path": str(script)}), encoding="utf-8")
    return tmp_path, config


# A corpus with repeated requests.  SHARE-0 holds _PLAN twice, and SHARE-2
# shares its summary and its description (_PLAN, then REASON) with SHARE-0,
# so their cloze probes and the pair probe of that description are equal.
# SHARE-1 sits between them, so SHARE-2 starts only once SHARE-0 is done.
_SHARED_SUMMARY = "Pick a parser design for q0z"
_PLAN = "Plan q0z-0 keeps the parser simple."
REASON = "Reason q0z-1 keeps the parser simple."
SHARING = {
    "SHARE-0": (_SHARED_SUMMARY, f"{_PLAN} {REASON}",
                [f"{_PLAN} The nightly build ran on 3 executors.",
                 "Plan q0z-2 keeps the parser simple."]),
    "SHARE-1": ("Pick a cache design for q1z",
                "Plan q1z-0 keeps the parser simple. Attached the log of run 4.",
                ["Reason q1z-1 keeps the parser simple."]),
    "SHARE-2": (_SHARED_SUMMARY, f"{_PLAN} {REASON}",
                ["Bridge q2z-0 keeps the parser simple."]),
}


def write_sharing(directory, keys) -> None:
    directory.mkdir(exist_ok=True)
    for key in keys:
        summary, description, comments = SHARING[key]
        (directory / f"{key}.json").write_text(json.dumps({
            "key": key, "summary": summary, "reporter": "alice", "description": description,
            "comments": [{"author": "bob", "created": f"2020-01-0{c + 2}T10:00:00.000+0000",
                          "body": body} for c, body in enumerate(comments)],
        }), encoding="utf-8")


@pytest.fixture
def sharing(corpus):
    """The ``corpus`` config over the SHARING issues instead."""
    tmp_path, config = corpus
    for path in (tmp_path / "corpus").iterdir():
        path.unlink()
    write_sharing(tmp_path / "corpus", SHARING)
    return tmp_path, config


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session", autouse=True)
def fixtures_unchanged():
    """Fails the session when a test changed a byte under ``tests/fixtures``,
    which the golden tests read: its files' digests after the session differ."""
    def digests() -> dict[str, str]:
        return {str(path.relative_to(FIXTURES)): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in FIXTURES.rglob("*") if path.is_file()}
    before = digests()
    yield
    assert digests() == before


@pytest.fixture
def prompt_config(tmp_path) -> dict:
    """The config keys of prompt_head mode over the fixture issue: the
    scripted backend, and copies under ``tmp_path`` of the golden head and of
    the fixture's script, which a test may rewrite or train over."""
    for name in ("golden-head.json", "flink-1320-script.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return {"mode": "prompt_head", "backend": "scripted",
            "script_path": str(tmp_path / "flink-1320-script.json"),
            "head_path": str(tmp_path / "golden-head.json")}


@pytest.fixture(scope="session")
def analyzer() -> SentimentAnalyzer:
    """The sentiment analyzer over the packaged lexicon."""
    return SentimentAnalyzer()


@pytest.fixture(scope="session")
def xattrs(tmp_path_factory) -> None:
    """Skips a test that needs stage files to keep their user extended
    attribute, where the file system of the tests' temporary directories
    keeps none; probed once per session."""
    probe = tmp_path_factory.mktemp("xattrs") / "probe"
    probe.touch()
    try:
        os.setxattr(probe, "user.probe", b"1")
    except (AttributeError, OSError) as exc:
        pytest.skip(f"the temporary directory keeps no user xattrs: {exc}")


@pytest.fixture()
def raw_issue() -> dict:
    return json.loads((FIXTURES / "flink-1320.json").read_text(encoding="utf-8"))


@pytest.fixture()
def golden_issue(raw_issue):
    return clean_issue(parse_issue(raw_issue))


@pytest.fixture()
def golden_corpus(tmp_path) -> Path:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(FIXTURES / "flink-1320.json", corpus / "FLINK-1320.json")
    return corpus
