"""Input from outside the program gives a typed error, never a traceback or a hang.

Every JSON file the package reads (corpus exports, the config, scripts,
annotations, mined files, model files) and every model-server reply may be
malformed, and so may the backend URL, the proxy settings and the auth
token.  Each reader turns what it cannot use into its own typed error, and
``cli.main`` turns those into exit codes 1 and 2.  A FIFO or a device where
a file is read is such input too, and so is a reply's Content-Length of
thousands of digits.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager, redirect_stderr, redirect_stdout, suppress
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
from rationale_miner.corpus import load_corpus, read_regular_file
from rationale_miner.errors import ConfigError, MalformedExport, ModelMissing, ProtocolError
from rationale_miner.evaluation import load_annotations
from rationale_miner.miner import read_mined

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
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


# ---------------------------------------------------------------------------
# a FIFO or a device where a file is read

# Each reader that a FIFO in place of its file would block for good: the
# command that reads it, the FIFO's path, the flag that names it (None: the
# command finds it), and the exit code and the start of stderr.
_FIFOS = {
    "load_corpus": ("stats", "corpus/zz.json", None, 1,
                    "skipping zz.json: [Errno 22] Not a regular file: "),
    "read_mined": ("export", "out/A-1.rationales.json", None, 1,
                   "failed to export A-1.rationales.json: [Errno 22] Not a regular file: "),
    "read_model": ("extract", "fifo", "--head", 1, "error: head at "),
    "script": ("extract", "fifo", "--script", 2, "config error: cannot read script "),
    "load_lexicon": ("extract", "fifo", "--lexicon", 1,
                     "error: cannot read sentiment lexicon at "),
    # prompt_head mode reads no baseline, but the run stamp hashes its file
    "run-stamp": ("extract", "fifo", "--baseline", 0, ""),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("reader", list(_FIFOS))
def test_a_fifo_where_a_file_is_read_is_refused_without_a_hang(tmp_path, reader):
    """Each command runs in a child process with a time bound, so that a
    reader that blocks on the FIFO fails the test instead of stalling it."""
    command, name, flag, code, error = _FIFOS[reader]
    (tmp_path / "corpus").mkdir()
    (tmp_path / "out").mkdir()
    if reader != "read_mined":
        shutil.copy(FIXTURES / "flink-1320.json", tmp_path / "corpus")
    os.mkfifo(tmp_path / name)
    config = {"corpus_dir": str(tmp_path / "corpus"), "output_dir": str(tmp_path / "out"),
              "backend": "scripted", "script_path": str(FIXTURES / "flink-1320-script.json"),
              "head_path": str(FIXTURES / "golden-head.json")}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    args = [command, "-c", str(tmp_path / "config.json")]
    args += [flag, str(tmp_path / name)] if flag else []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "rationale_miner.cli", *args], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(error) and "Traceback" not in done.stderr, done.stderr


def test_a_device_is_no_file_to_read():
    if not os.path.exists(os.devnull) or os.path.isfile(os.devnull):
        pytest.skip("no device file to open here")
    with pytest.raises(OSError, match="Not a regular file"):
        read_regular_file(os.devnull)


# ---------------------------------------------------------------------------
# a reply's Content-Length of thousands of digits

@contextmanager
def _answering_each_request(reply: bytes):
    """The URL of a listener that answers each request, on any connection,
    with ``reply``, then closes that connection."""
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def serve() -> None:
            with suppress(OSError):  # the listener was shut down
                while True:
                    conn, _ = listener.accept()
                    with conn, suppress(OSError):
                        request = b""
                        while b"\r\n\r\n" not in request and (chunk := conn.recv(65536)):
                            request += chunk
                        conn.sendall(reply)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            yield f"http://127.0.0.1:{listener.getsockname()[1]}"
        finally:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
            server.join(timeout=5)
    assert not server.is_alive()


def test_a_content_length_of_thousands_of_digits_fails_the_issue(one_issue, capsys):
    """Python's int() refuses a string of over 4,300 digits; such a length
    is over the reply cap, and fails the issue as a too-long reply does."""
    root = one_issue
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n"
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy")}
    with _answering_each_request(reply) as url, mock.patch.dict(os.environ, env, clear=True):
        config = {"corpus_dir": str(root / "corpus"), "output_dir": str(root / "out"),
                  "backend": "remote", "backend_url": url, "workers": 1,
                  "head_path": str(FIXTURES / "golden-head.json")}
        (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["mine", "-c", str(root / "config.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("failed on FLINK-1320: POST ")
    assert captured.err.endswith(": reply body over 1048576 bytes\n")
    assert captured.err.count("\n") == 1 and captured.out == ""
