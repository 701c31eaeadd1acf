"""Input from outside the program gives a typed error, never a traceback.

Every JSON file the package reads (corpus exports, the config, scripts,
annotations, mined files, model files) and every model-server reply may be
malformed, and so may the backend URL, the proxy settings and the auth
token.  Each reader turns what it cannot use into its own typed error, and
``cli.main`` turns those into exit codes 1 and 2.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import socket
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.backends.heads import load_head
from rationale_miner.backends.protocol import ENV_AUTH_TOKEN, RemoteBackend
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
    _raises(ModelMissing, "not a readable JSON file", lambda path: load_head(path, "", 2)),
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
    shutil.copy(FIXTURES / "golden-head.json", root)
    config = {
        "corpus_dir": str(root / "corpus"), "output_dir": str(root / "out"),
        "backend": "scripted", "script_path": str(root / "script.json"),
        "head_path": str(root / "golden-head.json"),
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


# ---------------------------------------------------------------------------
# any backend host, proxy setting and auth token

_LABELS = st.lists(st.text("ab-1", min_size=0, max_size=70), min_size=1, max_size=4)
_HOSTS = st.one_of(
    _LABELS.map(".".join),
    st.sampled_from(["127.0.0.1", "[::1]", "[::1", "café.example", "a..b", "x" * 64,
                     "hı.example", "user:pw@h", ""]),
    st.text(max_size=12).filter(lambda text: "\x00" not in text),
)
_PORTS = st.one_of(st.just(""), st.integers(-1, 70_000).map(lambda port: f":{port}"),
                   st.sampled_from([":", ":abc", ":١"]))


@st.composite
def _urls(draw, schemes):
    return f"{draw(st.sampled_from(schemes))}{draw(_HOSTS)}{draw(_PORTS)}/"


@pytest.fixture(scope="module")
def one_issue(tmp_path_factory):
    root = tmp_path_factory.mktemp("remote-settings")
    (root / "corpus").mkdir()
    shutil.copy(FIXTURES / "flink-1320.json", root / "corpus")
    return root


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(url=_urls(["http://", "https://"]),
       proxy=st.one_of(st.none(), _urls(["http://", "https://", "socks5://", ""])),
       token=st.one_of(st.none(), st.text(max_size=8)), token_from_env=st.booleans())
def test_a_remote_backend_setting_never_raises_past_main(one_issue, url, proxy, token,
                                                         token_from_env):
    """``mine`` ends in exit 0, 1 or 2 with no traceback, whatever the
    backend host, the proxy and the token are.  Every connection is refused
    before any lookup, so nothing leaves the process."""
    root = one_issue
    config = {"corpus_dir": str(root / "corpus"), "output_dir": str(root / "out"),
              "backend": "remote", "backend_url": url,
              "head_path": str(FIXTURES / "golden-head.json"), "workers": 2}
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy") and name != ENV_AUTH_TOKEN}
    if proxy is not None:
        env["http_proxy"] = env["https_proxy"] = proxy
    if token is not None and token_from_env and "\x00" not in token:
        env[ENV_AUTH_TOKEN] = token
    elif token is not None:
        config["auth_token"] = token
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")

    def refused(address, *args, **kwargs):
        raise ConnectionRefusedError(111, "Connection refused")

    stderr = io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch.object(socket, "create_connection", refused), \
            redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(["mine", "-c", str(root / "config.json")])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
