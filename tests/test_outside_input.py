"""Input from outside the program gives a typed error, never a traceback.

Every JSON file the package reads (corpus exports, the config, scripts,
annotations, mined files, model files) and every model-server reply may be
malformed.  Each reader turns what it cannot use into its own typed error,
and ``cli.main`` turns those into exit codes 1 and 2.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.backends.heads import load_head
from rationale_miner.backends.protocol import RemoteBackend
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.cli import main
from rationale_miner.config import load_config
from rationale_miner.corpus import load_corpus
from rationale_miner.errors import ConfigError, MalformedExport, ModelMissing, ProtocolError
from rationale_miner.evaluation import load_annotations
from rationale_miner.miner import read_mined

FIXTURES = Path(__file__).parent / "fixtures"
DEEP = "[" * 200_000


def _raises(error, match, read):
    def check(path):
        with pytest.raises(error, match=match):
            read(path)
    return check


def _skipped_by_load_corpus(path):
    issues, skipped = load_corpus(path.parent)
    assert issues == [] and len(skipped) == 1
    assert skipped[0].startswith(f"{path.name}: maximum recursion depth exceeded")


def _rejected_as_a_reply(path):
    backend = RemoteBackend("http://127.0.0.1:9")  # would fail if contacted
    backend._round_trip = lambda *args: (200, path.read_bytes())
    with pytest.raises(ProtocolError, match="returned non-JSON body"):
        backend.generate("x")


@pytest.mark.parametrize("check", [
    _skipped_by_load_corpus,
    _raises(ConfigError, "config file is not valid JSON", load_config),
    _raises(MalformedExport, "not a JSON document", read_mined),
    _raises(MalformedExport, r"deep\.json:1: ", load_annotations),
    _raises(ModelMissing, "not a readable JSON file", load_head),
    _rejected_as_a_reply,
    _raises(ConfigError, "cannot read script", ScriptedBackend.from_file),
], ids=["load_corpus", "load_config", "read_mined", "load_annotations", "read_model",
        "remote-reply", "script"])
def test_deeply_nested_json_is_a_typed_error(tmp_path, check):
    path = tmp_path / "deep.json"
    path.write_text(DEEP, encoding="utf-8")
    check(path)


# ---------------------------------------------------------------------------
# any JSON value in place of part of a valid input

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=12),
    st.integers(10 ** 399, 10 ** 400 - 1), st.integers(-10 ** 400, -10 ** 399),
    st.sampled_from(["", ".", "..", "a/b", "[MASK]", "c0-s0", "solution", "supporting"]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


@st.composite
def _mutated(draw, document):
    """``document`` with the value at one place, at any depth, replaced by
    any JSON value."""
    if isinstance(document, (dict, list)) and document and draw(st.integers(0, 3)):
        copy = document.copy()
        place = draw(st.sampled_from(sorted(copy) if isinstance(copy, dict)
                                     else range(len(copy))))
        copy[place] = draw(_mutated(document[place]))
        return copy
    return draw(_VALUES)


def _fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


# Each kind of input: the valid document it is made from, the file it is
# written to, and the commands that read it.
_KINDS = {
    "script": (_fixture("flink-1320-script.json"), "script.json", ["mine"]),
    "annotation": (_fixture("flink-1320-gold.jsonl"), "gold.jsonl", ["stats", "eval"]),
    "mined": (_fixture("mined-expected.json"), "out/FLINK-1320.rationales.json",
              ["eval", "export"]),
    "corpus": (_fixture("flink-1320.json"), "corpus/FLINK-1320.json", ["ingest"]),
}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("outside-input")
    (root / "corpus").mkdir()
    (root / "out").mkdir()
    config = {
        "corpus_dir": str(root / "corpus"), "output_dir": str(root / "out"),
        "backend": "scripted", "script_path": str(root / "script.json"),
        "head_path": str(FIXTURES / "golden-head.json"),
        "annotations_path": str(root / "gold.jsonl"), "workers": 2,
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return root


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_outside_input_never_raises_past_main(root, kind, data):
    for other, (valid, name, _) in _KINDS.items():
        text = json.dumps(data.draw(_mutated(valid)) if other == kind else valid)
        (root / name).write_text(text, encoding="utf-8")
    for command in _KINDS[kind][2]:
        assert main([command, "-c", str(root / "config.json")]) in (0, 1, 2)
