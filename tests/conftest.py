from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from rationale_miner.corpus import clean_issue, parse_issue
from rationale_miner.sentiment import SentimentAnalyzer

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


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
