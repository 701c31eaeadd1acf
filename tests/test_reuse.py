"""Stage files reused across commands.

``pair`` takes its design sentences from the ``<KEY>.design.json`` that
``extract`` wrote, and ``mine`` its scores from it and its relation graph
from the ``<KEY>.relations.json`` that ``pair`` wrote, when the file's mark
says that it was written for the same inputs.  A missing, stale or damaged
file means the stage runs as if there were none.  Whatever a command reuses,
it writes the bytes, stdout and stderr that it writes alone.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from rationale_miner import cli
from rationale_miner.config import UNSTAMPED, RunConfig

from recording import recorded, run_command
from stub_server import run_stub

COMMANDS = ("extract", "pair", "mine")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fixture(tmp_path, golden_corpus, prompt_config):
    """A config over the fixture issue, with its own copies of the head and
    the script, which a test may rewrite."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**prompt_config, "corpus_dir": str(golden_corpus)}),
                      encoding="utf-8")
    return tmp_path, config


def _alone(config, tmp_path, built, *flags) -> dict:
    """Each command run alone into a fresh directory: command -> (its
    ``run_command`` result, the calls it sent)."""
    runs = {}
    for command in COMMANDS:
        result = run_command(command, config, tmp_path / f"alone-{command}", *flags)
        runs[command] = result, built[-1].calls
    return runs


@pytest.mark.parametrize("workers", ["1", "2", "4"])
@pytest.mark.parametrize("inputs", ["fixture", "sharing"])
def test_extract_pair_mine_send_each_distinct_request_once(request, monkeypatch, xattrs,
                                                            inputs, workers):
    tmp_path, config = request.getfixturevalue(inputs)
    built = recorded(monkeypatch)
    chain = [run_command(command, config, tmp_path / "chain", "--workers", workers)
             for command in COMMANDS]
    sent = [call for backend in built for call in backend.calls]
    alone = _alone(config, tmp_path, built, "--workers", workers)
    assert len(sent) == len(set(sent))
    assert set(sent) == set().union(*(calls for _, calls in alone.values()))
    assert {kind for kind, _ in built[1].calls} == {"generate"}
    assert built[2].calls == []
    for run, command in zip(chain, COMMANDS):
        assert run[0] == 0
        assert run[:3] == alone[command][0][:3]
    assert chain[-1][3] == {name: data for (run, _) in alone.values()
                            for name, data in run[3].items()}


def test_an_issue_that_pair_failed_is_related_again_by_mine(corpus, monkeypatch, xattrs):
    """``pair`` writes no relations file for SCHED-6, whose pair probe fails,
    so ``mine`` sends SCHED-6's pair probes again, and only those."""
    tmp_path, config = corpus
    built = recorded(monkeypatch)
    chain = [run_command(command, config, tmp_path / "chain") for command in COMMANDS]
    alone = _alone(config, tmp_path, built)
    assert [run[0] for run in chain] == [0, 1, 1]
    for run, command in zip(chain, COMMANDS):
        assert run[:3] == alone[command][0][:3]
    assert built[2].calls
    assert all(kind == "generate" and "q6z" in prompt for kind, prompt in built[2].calls)


def test_no_command_reuses_its_own_output(fixture, monkeypatch, xattrs):
    """A second ``extract`` sends every cloze probe again, and a second
    ``pair`` every pair probe."""
    tmp_path, config = fixture
    built = recorded(monkeypatch)
    for command in ("extract", "extract", "pair", "pair"):
        assert run_command(command, config, tmp_path / "out")[0] == 0
    extract, again, pair, pair_again = (backend.calls for backend in built)
    assert again == extract
    assert {kind for kind, _ in pair} == {"generate"}
    assert sorted(pair_again) == sorted(pair)


def _rewrite_json(path: Path, change) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    change(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("unreadable", ["missing file", "directory"])
def test_an_unreadable_file_that_the_mode_does_not_use_keeps_reuse(fixture, monkeypatch,
                                                                   xattrs, unreadable):
    """``pair_baseline_path``, which prompt_head mode does not read, naming
    a file that cannot be read still gives a run stamp: ``pair`` takes its
    design sentences from the file that ``extract`` wrote."""
    tmp_path, config = fixture
    path = tmp_path / "pair-baseline.json"
    if unreadable == "directory":
        path.mkdir()
    _rewrite_json(config, lambda values: values.update(pair_baseline_path=str(path)))
    built = recorded(monkeypatch)
    for command in ("extract", "pair"):
        assert run_command(command, config, tmp_path / "out")[0] == 0
    extract, pair = (backend.calls for backend in built)
    assert extract and {kind for kind, _ in extract} == {"mask_probs"}
    assert pair and {kind for kind, _ in pair} == {"generate"}


def _drop_a_design_sentence(script: dict) -> None:
    script["mask_probs"]["rules"][-1]["probs"][0] = 0.1


def _edit_the_issue(issue: dict) -> None:
    """Add a design sentence at the end of the description.  Every design
    sentence of the old design file is still the issue's sentence of that id
    and text, so only the inputs key tells that file stale."""
    issue["description"] += " A bounded LRU would keep memory stable."


# Each change of an input that the inputs key covers: (file under the test's
# directory, change of its JSON).
_CHANGES = {
    "head rewritten": ("golden-head.json", lambda head: head.update(bias=-2.0)),
    "script changed": ("flink-1320-script.json", _drop_a_design_sentence),
    "cloze_max_sequence changed": ("config.json",
                                   lambda config: config.update(cloze_max_sequence=24)),
    "issue text edited": ("corpus/FLINK-1320.json", _edit_the_issue),
}


@pytest.mark.parametrize("change", sorted(_CHANGES))
def test_a_changed_input_makes_the_stages_run_again(fixture, monkeypatch, xattrs, change):
    """After ``extract``, ``pair`` and ``mine``, an input changes.  ``mine`` then runs
    every stage, and ``pair`` extracts again (the design file is still the
    old one), each with the requests and bytes of a run alone."""
    tmp_path, config = fixture
    built = recorded(monkeypatch)
    before = {command: run_command(command, config, tmp_path / "out") for command in COMMANDS}
    name, edit = _CHANGES[change]
    _rewrite_json(tmp_path / name, edit)
    del built[:]
    mined = run_command("mine", config, tmp_path / "out")
    paired = run_command("pair", config, tmp_path / "out")
    mine_calls, pair_calls = (backend.calls for backend in built)
    alone = _alone(config, tmp_path, built)
    for run, calls, command in ((mined, mine_calls, "mine"), (paired, pair_calls, "pair")):
        alone_run, alone_calls = alone[command]
        assert run[:3] == alone_run[:3]
        assert sorted(calls) == sorted(alone_calls)
        for file, data in alone_run[3].items():
            assert run[3][file] == data
    # The change shows in what ``mine`` writes, so a stale file reused would.
    rationales = "FLINK-1320.rationales.json"
    assert mined[3][rationales] != before["mine"][3][rationales]


# A valid value of each config key other than the one in ``_config``.
_OTHER_VALUES = {"corpus_dir": "other", "output_dir": "other", "mode": "baseline",
                 "backend": "remote", "backend_url": "http://127.0.0.1:2",
                 "auth_token": "token", "cloze_max_sequence": 24, "pair_max_sequence": 24,
                 "seed": 1, "workers": 3, "encoding": "latin-1", "bot_authors": ["robot"]}


def _config(tmp_path: Path, **changes) -> RunConfig:
    """A config whose ``*_path`` keys name files of their own under
    ``tmp_path``, with ``changes``."""
    paths = {spec.name: tmp_path / spec.name for spec in fields(RunConfig)
             if spec.name.endswith("_path")}
    for path in paths.values():
        path.write_text(path.name, encoding="utf-8")
    values = {key: str(path) for key, path in paths.items()}
    return RunConfig(**{**values, "backend": "scripted", "backend_url": "http://127.0.0.1:1",
                        **changes}).validate()


@pytest.mark.parametrize("key", [spec.name for spec in fields(RunConfig)])
def test_every_config_key_but_the_unstamped_ones_changes_the_run_stamp(tmp_path, key):
    """A value of another key changes the run stamp, and so do other bytes in
    the file that a ``*_path`` key names, unless UNSTAMPED names the key; so
    a key added later is stamped unless someone says why not."""
    assert set(UNSTAMPED) <= {spec.name for spec in fields(RunConfig)}
    config = _config(tmp_path)
    stamp = cli._run_stamp(config)
    if key.endswith("_path"):
        Path(getattr(config, key)).write_text("other bytes", encoding="utf-8")
        changed = cli._run_stamp(config)
    else:
        changed = cli._run_stamp(_config(tmp_path, **{key: _OTHER_VALUES[key]}))
    assert (changed == stamp) == (key in UNSTAMPED)


def _edited(path: Path, key: bytes) -> None:
    """Rewrite the file in place, keeping its xattrs, with the first design
    sentence's score or the supporting edges changed."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "supporting" in payload:
        payload["supporting"] = []
    else:
        payload["design"][0]["score"] = 0.5
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _copied(path: Path, key: bytes) -> None:
    copy = path.with_name("copy")
    shutil.copyfile(path, copy)  # the data alone, no xattrs
    os.replace(copy, path)


def _emptied(path: Path, key: bytes) -> None:
    path.write_bytes(b"")


def _made_a_directory(path: Path, key: bytes) -> None:
    path.unlink()
    path.mkdir()


def _marked(data: bytes):
    """A damage that writes ``data`` under a mark that holds for it: the
    mark of the inputs ``key`` that the file was written for."""
    def damage(path: Path, key: bytes) -> None:
        path.write_bytes(data)
        os.setxattr(path, cli.SOURCE_MARK, cli._mark(key, data))
    return damage


# Each damage gets the stage file and its inputs key.
_DAMAGES = {"hand-edited": _edited, "copied": _copied, "emptied": _emptied,
            "replaced by a directory": _made_a_directory,
            "marked, not JSON": _marked(b'{"design": ['),
            "marked, nested too deeply": _marked(b"[" * 100_000 + b"]" * 100_000)}


@pytest.mark.parametrize("damage", sorted(_DAMAGES))
def test_a_damaged_stage_file_makes_its_stage_run_again(fixture, monkeypatch, xattrs, damage):
    """A damaged design file makes ``pair`` extract again, and then ``mine``
    too, which still reuses the relations that ``pair`` wrote.  A damaged
    relations file makes ``mine`` relate again, reusing the design file."""
    tmp_path, config = fixture
    built = recorded(monkeypatch)
    keys = []  # the inputs keys that the stage files are marked for
    mark = cli._mark
    monkeypatch.setattr(cli, "_mark", lambda key, data: keys.append(key) or mark(key, data))
    alone = _alone(config, tmp_path, built)
    cloze = alone["extract"][1]
    pairs = [call for call in alone["pair"][1] if call[0] == "generate"]
    for damaged, then, sent in (("design", ("pair", "mine"), (cloze + pairs, cloze)),
                                ("relations", ("mine",), (pairs,))):
        out = tmp_path / damaged
        for command in ("extract", "pair"):
            assert run_command(command, config, out)[0] == 0
        _DAMAGES[damage](out / f"FLINK-1320.{damaged}.json", keys[-1])
        for command, calls in zip(then, sent):
            run = run_command(command, config, out)
            assert sorted(built[-1].calls) == sorted(calls), (damaged, command)
            alone_run = alone[command][0]
            assert run[:3] == alone_run[:3]
            for file, data in alone_run[3].items():
                assert run[3][file] == data


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_at_a_stage_path_is_never_read(fixture, monkeypatch):
    """A FIFO at the design file's path, which a read would block on, is
    never read: ``pair`` extracts again, ``mine`` too, each with the
    requests and bytes of a run alone."""
    tmp_path, config = fixture
    built = recorded(monkeypatch)
    alone = _alone(config, tmp_path, built)
    cloze = alone["extract"][1]
    pairs = [call for call in alone["pair"][1] if call[0] == "generate"]
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / "FLINK-1320.design.json")
    fifos_read = []
    read_bytes = Path.read_bytes

    def spy(path: Path) -> bytes:
        if stat.S_ISFIFO(path.stat().st_mode):
            fifos_read.append(path)
            return b""  # what a read would block on
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    for command, calls in (("pair", cloze + pairs), ("mine", cloze)):
        run = run_command(command, config, out)
        assert sorted(built[-1].calls) == sorted(calls), command
        assert run[:3] == alone[command][0][:3]
        for file, data in alone[command][0][3].items():
            assert run[3][file] == data
    assert fifos_read == []


def _unknown_id(payload: dict) -> None:
    payload["design"][0]["id"] = "c9-s9"


def _other_text(payload: dict) -> None:
    payload["design"][0]["text"] += " Really."


def _no_score(payload: dict) -> None:
    payload["design"][0]["score"] = None


def _score_too_large(payload: dict) -> None:
    payload["design"][0]["score"] = 10**400  # beyond any float


def _not_a_list(payload: dict) -> None:
    payload["design"] = payload["design"][0]


def _edge_to_nowhere(payload: dict) -> None:
    payload["supporting"][0]["solution"] = "c9-s9"


def _a_node_less(payload: dict) -> None:
    payload["design"] = payload["design"][:-1]
    payload["supporting"] = payload["complementary"] = []


def _odd_warning(payload: dict) -> None:
    payload["warnings"] = [1]


# Contents that a file marked for the right inputs could not hold: which
# file, and the change to the payload read from it.
_FORGED = {
    "design id unknown": ("design", _unknown_id),
    "design text changed": ("design", _other_text),
    "design score missing": ("design", _no_score),
    "design score too large": ("design", _score_too_large),
    "design not a list": ("design", _not_a_list),
    "edge to an unknown node": ("relations", _edge_to_nowhere),
    "graph over other nodes": ("relations", _a_node_less),
    "warning not a string": ("relations", _odd_warning),
}


@pytest.mark.parametrize("forged", sorted(_FORGED))
def test_a_marked_file_that_does_not_fit_the_issue_is_not_reused(fixture, monkeypatch,
                                                                 xattrs, forged):
    """A stage file whose mark holds but whose content does not fit the
    issue's sentences, or does not read back to itself, is computed again."""
    tmp_path, config = fixture
    built = recorded(monkeypatch)
    alone = _alone(config, tmp_path, built)
    for command in ("extract", "pair"):
        assert run_command(command, config, tmp_path / "out")[0] == 0
    stage, change = _FORGED[forged]
    read_marked = cli._read_marked

    def forge(path: Path, key: bytes):
        payload = read_marked(path, key)
        if payload is not None and path.name.endswith(f".{stage}.json"):
            change(payload)
        return payload

    monkeypatch.setattr(cli, "_read_marked", forge)
    command = "pair" if stage == "design" else "mine"
    run = run_command(command, config, tmp_path / "out")
    expected = list(alone["extract"][1]) if stage == "design" else []
    expected += [call for call in alone["pair"][1] if call[0] == "generate"]
    assert sorted(built[-1].calls) == sorted(expected)
    assert run[:3] == alone[command][0][:3]
    for file, data in alone[command][0][3].items():
        assert run[3][file] == data


@pytest.mark.parametrize("without", ["setxattr failing", "no xattr functions"])
def test_without_xattrs_every_command_computes_every_stage(fixture, monkeypatch, without):
    """Where no mark can be written, or read, each command runs every stage
    before its own, and writes what it writes alone."""
    tmp_path, config = fixture
    if without == "setxattr failing":
        def refuse(*args, **kwargs):
            raise OSError(errno.ENOTSUP, os.strerror(errno.ENOTSUP))

        monkeypatch.setattr(os, "setxattr", refuse)
    else:
        monkeypatch.delattr(os, "setxattr", raising=False)
        monkeypatch.delattr(os, "getxattr", raising=False)
    built = recorded(monkeypatch)
    chain = [run_command(command, config, tmp_path / "chain") for command in COMMANDS]
    chain_calls = [backend.calls for backend in built]
    alone = _alone(config, tmp_path, built)
    for run, calls, command in zip(chain, chain_calls, COMMANDS):
        assert run[0] == 0
        assert run[:3] == alone[command][0][:3]
        assert calls == alone[command][1]
    assert chain[-1][3] == {name: data for (run, _) in alone.values()
                            for name, data in run[3].items()}


def test_three_processes_send_each_distinct_prompt_once(tmp_path, fixtures_dir, xattrs):
    """``extract``, ``pair`` and ``mine``, each in a process of its own
    against the stub server, send each distinct prompt once: as many
    requests as a ``mine`` alone sends distinct ones."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(fixtures_dir / "flink-1320.json", corpus_dir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with run_stub() as server:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus_dir": str(corpus_dir), "mode": "prompt_head", "backend": "remote",
            "backend_url": server.url, "head_path": str(fixtures_dir / "golden-head.json"),
            "output_dir": str(tmp_path / "chain"),
        }), encoding="utf-8")
        counts = []
        for command in COMMANDS:
            done = subprocess.run([sys.executable, "-m", "rationale_miner.cli", command,
                                   "-c", str(config)],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            counts.append(len(server.requests))
        chain = [(path, body) for path, _, body in server.requests]
        assert run_command("mine", config, tmp_path / "alone")[0] == 0
        alone = [(path, body) for path, _, body in server.requests[len(chain):]]
    assert len(chain) == len(set(alone))
    assert set(chain) == set(alone)
    assert {path for path, _ in alone} == {"/v1/mask-probs", "/v1/generate"}
    assert counts[2] == counts[1] > counts[0]
