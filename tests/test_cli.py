from __future__ import annotations

import ast
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import rationale_miner
from rationale_miner import cli
from rationale_miner.backends.baseline import (
    BASELINE_FINGERPRINT,
    PAIR_FINGERPRINT,
    BaselineModel,
    PairBaselineModel,
)
from rationale_miner.backends.heads import load_head
from rationale_miner.cli import main
from rationale_miner.config import SP_FINGERPRINT, build_backend, load_config

from stub_server import run_stub
from test_scheduling import ISSUES, corpus  # noqa: F401  (corpus is a fixture)


@pytest.fixture
def workspace(tmp_path, fixtures_dir):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(fixtures_dir / "flink-1320.json", corpus / "FLINK-1320.json")
    out = tmp_path / "out"
    config = {
        "corpus_dir": str(corpus),
        "output_dir": str(out),
        "mode": "prompt_head",
        "backend": "scripted",
        "script_path": str(fixtures_dir / "flink-1320-script.json"),
        "head_path": str(fixtures_dir / "golden-head.json"),
        "annotations_path": str(fixtures_dir / "flink-1320-gold.jsonl"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path, config, config_path


def _rewrite(workspace, **changes):
    tmp_path, config, config_path = workspace
    config = {**config, **changes}
    config = {k: v for k, v in config.items() if v is not None}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config


def _add_second_issue(workspace, fixtures_dir):
    """Clone the golden issue and its gold annotation under a second key."""
    tmp_path, config, _ = workspace
    raw = json.loads((fixtures_dir / "flink-1320.json").read_text(encoding="utf-8"))
    raw["key"] = "FLINK-1321"
    corpus = tmp_path / "corpus"
    (corpus / "FLINK-1321.json").write_text(json.dumps(raw), encoding="utf-8")
    gold_line = (fixtures_dir / "flink-1320-gold.jsonl").read_text(encoding="utf-8")
    record = json.loads(gold_line)
    clone = dict(record, issue="FLINK-1321")
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(json.dumps(record) + "\n" + json.dumps(clone) + "\n",
                         encoding="utf-8")
    return gold_path


# ---------------------------------------------------------------------------
# configuration errors exit with 2

def test_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text('{"bogus_key": 1}', encoding="utf-8")
    assert main(["stats", "-c", str(bad)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    # tokens are always whitespace-separated; there is no counter to choose
    bad.write_text('{"token_counter": "bpe"}', encoding="utf-8")
    assert main(["mine", "-c", str(bad)]) == 2
    assert "unknown config keys: ['token_counter']" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["stats", "-c", str(tmp_path / "absent.json")]) == 2


def test_a_config_path_that_names_a_directory_is_a_config_error(tmp_path, capsys):
    assert main(["stats", "-c", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: config file not found: {tmp_path}\n"


def test_config_not_json(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["stats", "-c", str(bad)]) == 2


def test_config_not_an_object(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("[]", encoding="utf-8")
    assert main(["stats", "-c", str(bad)]) == 2


@pytest.mark.parametrize("payload", [
    {"mode": "wizard"},
    {"backend": "quantum"},
    {"backend": "remote"},                 # no backend_url
    {"backend": "scripted"},               # no script_path
    {"workers": 0},
    {"cloze_max_sequence": 0},
    {"bot_authors": "bot"},
    {"bot_authors": ["bot", 3]},
    {"encoding": "bogus-enc"},
    {"encoding": "rot13"},                 # a codec, but not a text encoding
    {"corpus_dir": 3},
    {"corpus_dir": None},
    {"output_dir": ["out"]},
    {"head_path": 1.5},
    {"baseline_path": True},
    {"pair_baseline_path": {}},
    {"annotations_path": 7},
    {"lexicon_path": ["lexicon.txt"]},
    {"script_path": 0},
    {"backend": "remote", "backend_url": 8080},
    {"seed": [1]},
    {"seed": True},
    {"seed": 1.0},
    {"workers": "2"},
    {"workers": False},
    {"cloze_max_sequence": 128.0},
    {"pair_max_sequence": None},
])
def test_invalid_config_values(tmp_path, capsys, payload):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    for command in ("stats", "ingest", "split"):
        assert main([command, "-c", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


def test_corpus_dir_must_exist(workspace):
    _rewrite(workspace, corpus_dir=str(workspace[0] / "nowhere"))
    assert main(["ingest", "-c", str(workspace[2])]) == 2


def test_an_empty_bot_author_is_a_config_error(workspace, capsys):
    _rewrite(workspace, bot_authors=["bot", ""])  # "" would drop every comment
    assert main(["ingest", "-c", str(workspace[2])]) == 2
    assert capsys.readouterr().err == (
        "config error: bot_authors must be a list of non-empty author substrings\n")
    assert not (workspace[0] / "out").exists()


@pytest.mark.parametrize("command", ["ingest", "mine", "eval"])
def test_output_dir_that_names_a_file_is_a_config_error(workspace, capsys, command):
    tmp_path, config, config_path = workspace
    (tmp_path / "out").write_text("not a directory", encoding="utf-8")
    assert main([command, "-c", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: output_dir ")
    assert captured.out == ""


@pytest.mark.parametrize("content", [None, "{not json", "[]"],
                         ids=["missing", "not-json", "not-an-object"])
def test_a_script_that_cannot_be_used_is_a_config_error(workspace, capsys, content):
    tmp_path, config, config_path = workspace
    script = tmp_path / "script.json"
    if content is not None:
        script.write_text(content, encoding="utf-8")
    _rewrite(workspace, script_path=str(script))
    assert main(["mine", "-c", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert str(script) in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out" / "FLINK-1320.rationales.json").exists()


def test_a_probability_too_large_for_a_float_fails_the_issue(workspace, capsys):
    tmp_path, config, config_path = workspace
    script = tmp_path / "script.json"
    script.write_text('{"mask_probs": {"default": {"probs": [1%s, 0.5]}}}' % ("0" * 400),
                      encoding="utf-8")
    _rewrite(workspace, script_path=str(script))
    assert main(["mine", "-c", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "failed on FLINK-1320: mask probability out of range: 1000")


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def _main_on_a_fresh_stack(argv: list[str]) -> int:
    """``main(argv)`` in a thread of its own, whose stack starts as empty as
    a command's: 980 levels of JSON fit below the recursion limit there but
    not beneath pytest's frames."""
    with ThreadPoolExecutor(max_workers=1) as thread:
        return thread.submit(main, argv).result()


# Script rules nested 980 deep.
@pytest.mark.parametrize("rule", [_nested(980), '{"deep": %s}' % _nested(979),
                                  '{"contains": %s}' % _nested(979),
                                  '{"contains": "", "deep": %s}' % _nested(979)],
                         ids=["not-an-object", "no-matcher", "bad-contains", "lacks-probs"])
def test_a_deeply_nested_script_rule_gives_a_short_failed_on_line(workspace, capsys, rule):
    tmp_path, config, config_path = workspace
    script = tmp_path / "script.json"
    script.write_text('{"mask_probs": {"rules": [%s]}}' % rule, encoding="utf-8")
    _rewrite(workspace, script_path=str(script))
    assert _main_on_a_fresh_stack(["mine", "-c", str(config_path)]) == 1
    [line] = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("failed on FLINK-1320: script rule")]
    assert line.endswith(" chars)")
    assert len(line) < 400


def test_a_deeply_nested_annotation_label_gives_a_short_error_line(workspace, fixtures_dir,
                                                                    capsys):
    tmp_path, config, config_path = workspace
    record = json.loads((fixtures_dir / "flink-1320-gold.jsonl").read_text(encoding="utf-8"))
    sid = next(iter(record["labels"]))
    gold = tmp_path / "deep-gold.jsonl"
    gold.write_text(json.dumps(record)[:-1] + ', "labels": {"%s": %s}}\n' % (sid, _nested(980)),
                    encoding="utf-8")
    assert _main_on_a_fresh_stack(["stats", "-c", str(config_path),
                                   "--annotations", str(gold)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gold}:1: annotation label for {sid} is [[[")
    assert err.endswith(" chars)\n")
    assert len(err) < 400 + len(str(gold))


def test_train_requires_annotations(workspace):
    _rewrite(workspace, annotations_path=None, mode="baseline",
             baseline_path=str(workspace[0] / "model.json"))
    assert main(["train", "-c", str(workspace[2])]) == 2


def test_train_baseline_requires_model_path(workspace):
    _rewrite(workspace, mode="baseline")
    assert main(["train", "-c", str(workspace[2])]) == 2


def test_mine_requires_head_path(workspace):
    _rewrite(workspace, head_path=None)
    assert main(["mine", "-c", str(workspace[2])]) == 2


def test_flag_overrides_reach_the_config(workspace):
    # an invalid mode injected through a flag fails validation the same way
    assert main(["stats", "-c", str(workspace[2]), "--mode", "wizard"]) == 2


# ---------------------------------------------------------------------------
# happy paths over the golden issue

def test_ingest_writes_sentence_files(workspace, capsys):
    tmp_path, config, config_path = workspace
    assert main(["ingest", "-c", str(config_path)]) == 0
    lines = (tmp_path / "out" / "FLINK-1320.sentences.jsonl").read_text(
        encoding="utf-8").strip().splitlines()
    assert len(lines) == 10
    records = [json.loads(line) for line in lines]
    assert records[0]["id"] == "sum-s0"
    assert [r["global_index"] for r in records] == list(range(10))
    assert all("bot" not in r["author"] for r in records)
    assert "FLINK-1320: 10 sentences" in capsys.readouterr().out


def test_ingest_counts_broken_files(workspace, capsys):
    tmp_path, config, config_path = workspace
    (tmp_path / "corpus" / "broken.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "corpus" / "latin1.json").write_bytes(b'{"key": "caf\xe9"}')
    assert main(["ingest", "-c", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert "skipping broken.json" in captured.err
    assert "skipping latin1.json" in captured.err
    # the good issue is still processed
    assert (tmp_path / "out" / "FLINK-1320.sentences.jsonl").exists()


@pytest.mark.parametrize("key", ["../escaped-H-1", "sub/H-2", "..\\H-3", "..", ".",
                                 "nul\0H-4"])
def test_ingest_skips_a_key_that_is_not_one_path_component(workspace, raw_issue,
                                                           key, capsys):
    tmp_path, config, config_path = workspace
    (tmp_path / "corpus" / "escape.json").write_text(json.dumps(dict(raw_issue, key=key)),
                                                     encoding="utf-8")
    before = set(tmp_path.rglob("*"))
    assert main(["ingest", "-c", str(config_path)]) == 1
    assert "skipping escape.json: issue key" in capsys.readouterr().err
    written = set(tmp_path.rglob("*")) - before
    assert written == {tmp_path / "out", tmp_path / "out" / "FLINK-1320.sentences.jsonl"}


def test_ingest_skips_an_issue_mixing_naive_and_offset_timestamps(workspace, raw_issue,
                                                                  capsys):
    tmp_path, config, config_path = workspace
    comments = [dict(c) for c in raw_issue["comments"]]
    comments[0]["created"] = "2014-01-08T10:22:31"
    comments[1]["created"] = "2014-01-08T10:22:31.000+0000"
    mixed = dict(raw_issue, key="FLINK-1399", comments=comments)
    (tmp_path / "corpus" / "mixed.json").write_text(json.dumps(mixed), encoding="utf-8")
    assert main(["ingest", "-c", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "skipping mixed.json: issue FLINK-1399: cannot order comment timestamps" in err
    assert (tmp_path / "out" / "FLINK-1320.sentences.jsonl").exists()
    assert not (tmp_path / "out" / "FLINK-1399.sentences.jsonl").exists()


def test_mine_skips_a_later_file_holding_an_issue_key_already_read(workspace, raw_issue,
                                                                   capsys):
    # Both files would write FLINK-1320.rationales.*, so only the first is mined.
    tmp_path, config, config_path = workspace
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    (corpus / "FLINK-1320.json").rename(corpus / "a.json")
    shorter = dict(raw_issue, comments=raw_issue["comments"][:1])
    (corpus / "b.json").write_text(json.dumps(shorter), encoding="utf-8")
    assert main(["mine", "-c", str(config_path)]) == 1
    both = capsys.readouterr()
    written = {path.name: path.read_bytes() for path in out.iterdir()}

    (corpus / "b.json").unlink()
    shutil.rmtree(out)
    assert main(["mine", "-c", str(config_path)]) == 0
    alone = capsys.readouterr()
    assert both.out == alone.out and len(both.out.splitlines()) == 1
    assert both.err == ("skipping b.json: issue key FLINK-1320 is already in a.json\n"
                        + alone.err)
    assert written == {path.name: path.read_bytes() for path in out.iterdir()}


def test_mine_reproduces_golden_output(workspace, fixtures_dir):
    tmp_path, config, config_path = workspace
    assert main(["mine", "-c", str(config_path)]) == 0
    mined = (tmp_path / "out" / "FLINK-1320.rationales.json").read_bytes()
    assert mined == (fixtures_dir / "mined-expected.json").read_bytes()
    markdown = (tmp_path / "out" / "FLINK-1320.rationales.md").read_bytes()
    assert markdown == (fixtures_dir / "mined-expected.md").read_bytes()


def test_extract_writes_design_sentences(workspace, fixtures_dir):
    tmp_path, config, config_path = workspace
    assert main(["extract", "-c", str(config_path)]) == 0
    payload = json.loads((tmp_path / "out" / "FLINK-1320.design.json").read_text(
        encoding="utf-8"))
    expected = json.loads((fixtures_dir / "extraction-expected.json").read_text(
        encoding="utf-8"))
    assert payload["issue"] == "FLINK-1320"
    assert [d["id"] for d in payload["design"]] == [d["id"] for d in expected["design"]]
    for entry, want in zip(payload["design"], expected["design"]):
        assert entry["score"] == pytest.approx(want["score"], abs=1e-12)
        assert entry["text"] == expected["sentence_texts"][entry["id"]]


def test_pair_writes_relations(workspace, fixtures_dir):
    tmp_path, config, config_path = workspace
    assert main(["pair", "-c", str(config_path)]) == 0
    payload = json.loads((tmp_path / "out" / "FLINK-1320.relations.json").read_text(
        encoding="utf-8"))
    expected = json.loads((fixtures_dir / "mined-expected.json").read_text(
        encoding="utf-8"))
    assert payload["supporting"] == expected["relations"]["supporting"]
    assert payload["complementary"] == expected["relations"]["complementary"]
    assert payload["warnings"] == []


def test_eval_after_mine_writes_metrics(workspace, fixtures_dir, capsys):
    tmp_path, config, config_path = workspace
    assert main(["mine", "-c", str(config_path)]) == 0
    assert main(["eval", "-c", str(config_path)]) == 0
    metrics = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert metrics == (fixtures_dir / "metrics-expected.csv").read_bytes()
    assert "rationale" in capsys.readouterr().out


def test_eval_without_mined_output_fails(workspace, capsys):
    tmp_path, config, config_path = workspace
    assert main(["eval", "-c", str(config_path)]) == 1
    assert "no mined output for FLINK-1320" in capsys.readouterr().err


def test_eval_reports_a_corrupt_mined_file_and_scores_the_rest(workspace, fixtures_dir,
                                                               capsys):
    tmp_path, config, config_path = workspace
    gold_path = _add_second_issue(workspace, fixtures_dir)
    _rewrite(workspace, annotations_path=str(gold_path))
    assert main(["mine", "-c", str(config_path)]) == 0
    assert main(["eval", "-c", str(config_path)]) == 0
    both = (tmp_path / "out" / "metrics.csv").read_bytes()
    mined = tmp_path / "out" / "FLINK-1321.rationales.json"
    text = mined.read_text(encoding="utf-8")
    mined.write_text(text[: len(text) // 2], encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "-c", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("failed to evaluate FLINK-1321.rationales.json: ")
    assert "Traceback" not in err
    # the intact issue is still scored, and it scores as both did together
    assert (tmp_path / "out" / "metrics.csv").read_bytes() == both


@pytest.mark.parametrize("key,solutions,missing", [
    ("FLINK-1321", [["c0-s0"], ["c0-s1", "zz-s9"]], "zz-s9"),  # the issue lacks zz-s9
    ("FLINK-9999", [["c0-s0"], ["c0-s1"]], "c0-s0"),           # the corpus lacks the issue
])
def test_eval_reports_gold_sentences_the_corpus_lacks_and_scores_the_rest(
        workspace, fixtures_dir, capsys, key, solutions, missing):
    tmp_path, config, config_path = workspace
    _add_second_issue(workspace, fixtures_dir)
    assert main(["mine", "-c", str(config_path)]) == 0
    out = tmp_path / "out"
    if key == "FLINK-9999":
        shutil.copy(out / "FLINK-1321.rationales.json", out / f"{key}.rationales.json")
    record = json.loads((fixtures_dir / "flink-1320-gold.jsonl").read_text(encoding="utf-8"))
    # both gold rationales overlap the first mined one equally: the tie needs their order
    clone = dict(record, issue=key,
                 rationales=[{"solution": s, "arguments": []} for s in solutions])
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(json.dumps(record) + "\n" + json.dumps(clone) + "\n",
                         encoding="utf-8")
    _rewrite(workspace, annotations_path=str(gold_path))
    capsys.readouterr()
    assert main(["eval", "-c", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"failed to evaluate {key}: gold names solution sentence {missing}, "
        "which the corpus does not hold\n")
    assert (out / "metrics.csv").read_bytes() == (
        fixtures_dir / "metrics-expected.csv").read_bytes()


@pytest.mark.parametrize("mode", ["prompt_head", "baseline"])
def test_train_on_annotations_of_no_corpus_issue_is_a_typed_error(workspace, fixtures_dir,
                                                                  capsys, mode):
    tmp_path, config, config_path = workspace
    record = json.loads((fixtures_dir / "flink-1320-gold.jsonl").read_text(encoding="utf-8"))
    gold_path = tmp_path / "other-gold.jsonl"
    gold_path.write_text(json.dumps(dict(record, issue="OTHER-1")) + "\n", encoding="utf-8")
    _rewrite(workspace, mode=mode, annotations_path=str(gold_path),
             head_path=str(tmp_path / "head.json"),
             baseline_path=str(tmp_path / "baseline.json"))
    assert main(["train", "-c", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        "error: the annotations label no sentence of the corpus\n")
    assert not (tmp_path / "head.json").exists()
    assert not (tmp_path / "baseline.json").exists()


def test_train_baseline_writes_models(workspace, capsys):
    tmp_path, config, config_path = workspace
    baseline_path = tmp_path / "baseline.json"
    pair_path = tmp_path / "pair.json"
    _rewrite(workspace, mode="baseline", baseline_path=str(baseline_path),
             pair_baseline_path=str(pair_path))
    assert main(["train", "-c", str(config_path)]) == 0
    model = BaselineModel.load(baseline_path,
                               expected_fingerprint=BASELINE_FINGERPRINT)
    assert len(model.head.weights) == len(model.vectorizer.vocabulary) + 29
    pair_model = PairBaselineModel.load(pair_path,
                                        expected_fingerprint=PAIR_FINGERPRINT)
    assert pair_model.head.weights.shape[0] == 3
    out = capsys.readouterr().out
    assert "design baseline trained on 10 sentences" in out
    assert "pair baseline trained on 15 pairs" in out


def test_train_prompt_head_writes_head(workspace):
    tmp_path, config, config_path = workspace
    head_out = tmp_path / "trained-head.json"
    _rewrite(workspace, head_path=str(head_out))
    assert main(["train", "-c", str(config_path)]) == 0
    head = load_head(head_out, expected_fingerprint=SP_FINGERPRINT)
    assert head.weights.shape == (43,)


def test_train_prompt_head_is_independent_of_workers(workspace):
    tmp_path, config, config_path = workspace
    heads = [tmp_path / f"head-{workers}.json" for workers in (1, 4)]
    for workers, head in zip((1, 4), heads):
        assert main(["train", "-c", str(config_path), "--workers", str(workers),
                     "--head", str(head)]) == 0
    assert heads[0].read_bytes() == heads[1].read_bytes()


@pytest.mark.parametrize("command", ["extract", "pair", "mine", "train"])
def test_remote_runs_close_their_connections(workspace, monkeypatch, command):
    """A run against a kept-alive server closes its connections itself, not
    when its backend is collected."""
    tmp_path, config, config_path = workspace
    built = []  # keeps the backend alive past the run

    def build_and_keep(cfg):
        built.append(build_backend(cfg))
        return built[-1]

    monkeypatch.setattr(cli, "build_backend", build_and_keep)
    with run_stub(keep_alive=True) as server:
        _rewrite(workspace, backend="remote", backend_url=server.url, script_path=None,
                 workers=4)
        args = [command, "-c", str(config_path)]
        if command == "train":  # writes a head of its own
            args += ["--head", str(tmp_path / "trained-head.json")]
        assert main(args) == 0
        assert len(built) == 1 and server.requests
        assert server.all_closed()


def _corrupt(path, how: str) -> None:
    if how == "not_json":
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        return
    payload = json.loads(path.read_text(encoding="utf-8"))
    if how == "missing_keys":
        del payload["weights"]
    else:
        payload["kind"] = "random_forest"
    path.write_text(json.dumps(payload), encoding="utf-8")


_CORRUPTIONS = ("not_json", "missing_keys", "wrong_kind")


@pytest.mark.parametrize("how", _CORRUPTIONS)
@pytest.mark.parametrize("model", ["head", "baseline"])
def test_bad_model_file_is_a_typed_error(workspace, fixtures_dir, capsys, model, how):
    tmp_path, config, config_path = workspace
    path = tmp_path / f"{model}.json"
    if model == "head":
        shutil.copy(fixtures_dir / "golden-head.json", path)
        _rewrite(workspace, head_path=str(path))
    else:
        _rewrite(workspace, mode="baseline", baseline_path=str(path))
        assert main(["train", "-c", str(config_path)]) == 0
    _corrupt(path, how)
    capsys.readouterr()
    assert main(["extract", "-c", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("how", _CORRUPTIONS)
def test_bad_pair_baseline_file_is_a_typed_error(workspace, capsys, how):
    tmp_path, config, config_path = workspace
    path = tmp_path / "pair.json"
    _rewrite(workspace, mode="baseline", baseline_path=str(tmp_path / "baseline.json"),
             pair_baseline_path=str(path))
    assert main(["train", "-c", str(config_path)]) == 0
    _corrupt(path, how)
    capsys.readouterr()
    assert main(["mine", "-c", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


# ---------------------------------------------------------------------------
# baseline mode needs no backend; prompt_head mode does

@pytest.mark.parametrize("issues", [1, 2])
def test_baseline_mode_runs_end_to_end_without_a_backend(workspace, fixtures_dir, capsys,
                                                         issues):
    tmp_path, config, config_path = workspace
    gold = {}
    if issues == 2:
        gold = {"annotations_path": str(_add_second_issue(workspace, fixtures_dir))}
    config = _rewrite(workspace, mode="baseline", backend=None, script_path=None,
                      head_path=None, baseline_path=str(tmp_path / "baseline.json"),
                      pair_baseline_path=str(tmp_path / "pair.json"), **gold)
    assert "backend" not in config
    for command in ("train", "extract", "pair", "mine", "eval", "export"):
        assert main([command, "-c", str(config_path)]) == 0, command
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    for key in ("FLINK-1320", "FLINK-1321")[:issues]:
        relations = json.loads((out / f"{key}.relations.json").read_text(encoding="utf-8"))
        mined = json.loads((out / f"{key}.rationales.json").read_text(encoding="utf-8"))
        assert len(relations["design"]) >= 2
        assert mined["relations"] == {"supporting": relations["supporting"],
                                      "complementary": relations["complementary"]}
        assert (out / f"{key}.rationales.md").exists()
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("url", ["localhost:8080", "ftp://models.example/", "http://",
                                 "http://models.example:port/"])
def test_malformed_backend_url_is_a_config_error(workspace, capsys, url):
    tmp_path, config, config_path = workspace
    _rewrite(workspace, backend="remote", backend_url=url, script_path=None)
    assert main(["mine", "-c", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: backend_url ")
    assert repr(url) in captured.err
    assert captured.out == ""
    assert not list((tmp_path / "out").glob("FLINK-1320.*"))


def test_cli_import_loads_no_http_library_or_scipy():
    """The transport and the logistic are the standard library's: importing
    the CLI pulls in neither requests, urllib3 nor scipy, which would add to
    every run's set-up."""
    src = Path(rationale_miner.__file__).resolve().parents[1]
    probe = ("import sys, rationale_miner.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] in ('requests', 'urllib3', 'scipy')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


def test_every_third_party_import_is_a_declared_dependency():
    """Each top-level module that the package imports is in the standard
    library, is the package itself, or is listed in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(rationale_miner.__file__).resolve().parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(
        encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in pyproject["project"]["dependencies"]}
    imported = set()
    for source in package.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"rationale_miner"}
    assert third_party == declared == {"numpy"}


@pytest.mark.parametrize("command", ["pair", "mine"])
def test_warnings_are_bare_stderr_lines_before_their_issue(corpus, capsys, monkeypatch,
                                                           command):
    """Each issue's warnings reach stderr as they are, whatever handlers the
    host gave the logging system, and just before the issue's stdout line."""
    tmp_path, config = corpus
    out = tmp_path / "out"
    root_log = io.StringIO()
    handler = logging.StreamHandler(root_log)
    logging.getLogger().addHandler(handler)
    # One stream for both, so that it shows the order of stdout and stderr lines.
    monkeypatch.setattr(sys, "stderr", sys.stdout)
    try:
        assert main([command, "-c", str(config), "--out", str(out)]) == 1
    finally:
        logging.getLogger().removeHandler(handler)
    suffix = {"pair": "relations.json", "mine": "rationales.json"}[command]
    expected = []
    for j in range(ISSUES):
        key = f"SCHED-{j}"
        path = out / f"{key}.{suffix}"
        if path.exists():
            expected.extend(json.loads(path.read_text(encoding="utf-8"))["warnings"])
            expected.append(key)
        else:
            expected.append(f"failed on {key}")
    lines = [line.split(":")[0] if line.startswith(("SCHED-", "failed on ")) else line
             for line in capsys.readouterr().out.splitlines()]
    assert lines == expected
    assert any("unparsable response" in line for line in lines)
    assert any("crosses roles" in line for line in lines) == (command == "mine")
    assert root_log.getvalue() == ""


def test_the_library_does_not_log():
    """Warnings are part of each issue's result; no module reports them
    through the logging system as well."""
    package = Path(rationale_miner.__file__).parent
    for module in package.rglob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        assert "logging" not in imported, module.name


@pytest.mark.parametrize("command", ["extract", "pair", "mine", "train"])
def test_prompt_head_without_a_backend_is_a_config_error(workspace, capsys, command):
    tmp_path, config, config_path = workspace
    if command == "train":
        _rewrite(workspace, head_path=str(tmp_path / "head.json"))
    _rewrite(workspace, backend=None, script_path=None)
    assert main([command, "-c", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: backend is required in prompt_head mode: "
                            "one of ('remote', 'scripted')\n")
    assert captured.out == ""
    assert not (tmp_path / "head.json").exists()
    assert not list((tmp_path / "out").glob("FLINK-1320.*"))


# ---------------------------------------------------------------------------
# malformed mined files and annotations

@pytest.mark.parametrize("payload", [
    [],                                                    # not an object
    {"issue": "FLINK-1321", "rationales": ["c0-s0"]},      # rationale not an object
    {"issue": "FLINK-1321", "rationales": [{"solution": "c0-s0", "arguments": []}]},  # str
    {"issue": "FLINK-1321", "design_sentences": [{"id": "c0-s0"}]},  # no text
    {"rationales": []},                                    # no issue key
])
def test_eval_and_export_report_a_malformed_mined_file(workspace, fixtures_dir, capsys,
                                                       payload):
    tmp_path, config, config_path = workspace
    _rewrite(workspace, annotations_path=str(_add_second_issue(workspace, fixtures_dir)))
    assert main(["mine", "-c", str(config_path)]) == 0
    out = tmp_path / "out"
    (out / "FLINK-1321.rationales.json").write_text(json.dumps(payload), encoding="utf-8")
    (out / "FLINK-1320.rationales.md").unlink()
    capsys.readouterr()
    assert main(["export", "-c", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FLINK-1320.rationales.json -> FLINK-1320.rationales.md\n"
    assert captured.err.startswith("failed to export FLINK-1321.rationales.json: ")
    assert captured.err.count("\n") == 1
    assert (out / "FLINK-1320.rationales.md").read_bytes() == (
        fixtures_dir / "mined-expected.md").read_bytes()
    assert main(["eval", "-c", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("failed to evaluate FLINK-1321.rationales.json: ")
    assert captured.err.count("\n") == 1
    assert (out / "metrics.csv").read_bytes() == (
        fixtures_dir / "metrics-expected.csv").read_bytes()


def test_stats_reports_bad_annotation_lines(workspace, fixtures_dir, capsys):
    tmp_path, config, config_path = workspace
    record = json.loads((fixtures_dir / "flink-1320-gold.jsonl").read_text(encoding="utf-8"))
    gold = tmp_path / "bad-gold.jsonl"
    gold.write_text(json.dumps(record) + "\n{not json\n", encoding="utf-8")
    assert main(["stats", "-c", str(config_path), "--annotations", str(gold)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {gold}:2: ")
    broken = dict(record, rationales=[{"arguments": [["c1-s0"]]}])
    gold.write_text(json.dumps(broken) + "\n", encoding="utf-8")
    assert main(["stats", "-c", str(config_path), "--annotations", str(gold)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {gold}:1: a rationale must be ")
    gold.write_text(json.dumps(dict(record, rationales=5)) + "\n", encoding="utf-8")
    assert main(["stats", "-c", str(config_path), "--annotations", str(gold)]) == 1
    assert capsys.readouterr().err == (
        f"error: {gold}:1: annotation rationales must be a list\n")
    for bad, message in [({"issue": ["FLINK-1320"]}, "annotation issue must be a string"),
                         ({"annotator": 7}, "annotation annotator must be a string"),
                         ({"issue": "../FLINK-1320"}, "annotation issue '../FLINK-1320' "
                                                      "is not a single path component")]:
        gold.write_text(json.dumps(dict(record, **bad)) + "\n", encoding="utf-8")
        assert main(["stats", "-c", str(config_path), "--annotations", str(gold)]) == 1
        assert capsys.readouterr().err == f"error: {gold}:1: {message}\n"
    gold.write_bytes(b"\xff\n")
    assert main(["stats", "-c", str(config_path), "--annotations", str(gold)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {gold}: 'utf-8' codec")


@pytest.mark.parametrize("command", ["eval", "stats", "train", "ablate"])
def test_a_second_annotation_of_one_issue_is_an_error(workspace, fixtures_dir, capsys,
                                                       command):
    tmp_path, config, config_path = workspace
    record = json.loads((fixtures_dir / "flink-1320-gold.jsonl").read_text(encoding="utf-8"))
    again = dict(record, labels={sid: "none" for sid in record["labels"]}, rationales=[])
    gold = tmp_path / "twice-gold.jsonl"
    gold.write_text(json.dumps(record) + "\n" + json.dumps(again) + "\n", encoding="utf-8")
    assert main([command, "-c", str(config_path), "--annotations", str(gold)]) == 1
    assert capsys.readouterr().err == (
        f"error: {gold}:2: issue FLINK-1320 is already annotated on line 1\n")


def test_stats_with_missing_annotations_is_a_config_error(workspace, capsys):
    tmp_path, config, config_path = workspace
    gold = tmp_path / "absent.jsonl"
    assert main(["stats", "-c", str(config_path), "--annotations", str(gold)]) == 2
    assert capsys.readouterr().err == f"config error: annotations file not found: {gold}\n"


def test_split_holds_out_one_issue_per_project(workspace, fixtures_dir):
    tmp_path, config, config_path = workspace
    _add_second_issue(workspace, fixtures_dir)
    assert main(["split", "-c", str(config_path), "--seed", "9"]) == 0
    payload = json.loads((tmp_path / "out" / "split.json").read_text(
        encoding="utf-8"))
    assert payload["seed"] == 9
    assert sorted(payload["train"] + payload["test"]) == ["FLINK-1320", "FLINK-1321"]
    assert len(payload["test"]) == 1
    first = (tmp_path / "out" / "split.json").read_bytes()
    assert main(["split", "-c", str(config_path), "--seed", "9"]) == 0
    assert (tmp_path / "out" / "split.json").read_bytes() == first


def test_split_single_issue_project_fails(workspace):
    assert main(["split", "-c", str(workspace[2])]) == 1


def test_ablate_reports_every_dimension(workspace, fixtures_dir, capsys):
    tmp_path, config, config_path = workspace
    gold_path = _add_second_issue(workspace, fixtures_dir)
    _rewrite(workspace, annotations_path=str(gold_path))
    assert main(["ablate", "-c", str(config_path)]) == 0
    results = json.loads((tmp_path / "out" / "ablation.json").read_text(
        encoding="utf-8"))
    assert [r["dimension"] for r in results] == [
        "full", "keyword", "position", "process", "sentiment", "structure"]
    assert [len(r["masked_slots"]) for r in results] == [0, 14, 3, 5, 4, 3]
    assert "full" in capsys.readouterr().out


def test_ablate_single_dimension_flag(workspace, fixtures_dir):
    tmp_path, config, config_path = workspace
    gold_path = _add_second_issue(workspace, fixtures_dir)
    _rewrite(workspace, annotations_path=str(gold_path))
    assert main(["ablate", "-c", str(config_path),
                 "--dimension", "sentiment"]) == 0
    results = json.loads((tmp_path / "out" / "ablation.json").read_text(
        encoding="utf-8"))
    assert [r["dimension"] for r in results] == ["full", "sentiment"]


def test_stats_prints_table(workspace, capsys):
    assert main(["stats", "-c", str(workspace[2])]) == 0
    out = capsys.readouterr().out
    assert "FLINK" in out and "total" in out
    flink_row = next(line for line in out.splitlines()
                     if line.startswith("FLINK "))
    # 1 issue, 3 comments after bot filtering, 10 sentences, 6 design
    assert flink_row.split() == ["FLINK", "1", "3", "10", "6"]


def test_export_rebuilds_markdown(workspace, fixtures_dir, capsys):
    tmp_path, config, config_path = workspace
    assert main(["mine", "-c", str(config_path)]) == 0
    md_path = tmp_path / "out" / "FLINK-1320.rationales.md"
    md_path.unlink()
    assert main(["export", "-c", str(config_path)]) == 0
    assert "FLINK-1320.rationales.json -> FLINK-1320.rationales.md" in (
        capsys.readouterr().out)
    assert md_path.read_bytes() == (fixtures_dir / "mined-expected.md").read_bytes()


def test_mine_fails_only_the_issue_whose_output_cannot_be_written(workspace, fixtures_dir,
                                                                   capsys):
    tmp_path, config, config_path = workspace
    _add_second_issue(workspace, fixtures_dir)
    out = tmp_path / "out"
    assert main(["mine", "-c", str(config_path)]) == 0
    clean = {p.name: p.read_bytes() for p in out.glob("FLINK-1321.*")}
    shutil.rmtree(out)
    (out / "FLINK-1320.rationales.json").mkdir(parents=True)
    capsys.readouterr()
    assert main(["mine", "-c", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("failed on FLINK-1320: [Errno 21] Is a directory: ")
    assert captured.out == f"FLINK-1321: 2 rationale(s) -> {out / 'FLINK-1321.rationales.json'}\n"
    assert {p.name: p.read_bytes() for p in out.glob("FLINK-1321.*")} == clean


def test_export_reports_a_target_it_cannot_write_and_goes_on(workspace, fixtures_dir, capsys):
    tmp_path, config, config_path = workspace
    _add_second_issue(workspace, fixtures_dir)
    out = tmp_path / "out"
    assert main(["mine", "-c", str(config_path)]) == 0
    (out / "FLINK-1320.rationales.md").unlink()
    (out / "FLINK-1320.rationales.md").mkdir()
    markdown = (out / "FLINK-1321.rationales.md").read_bytes()
    (out / "FLINK-1321.rationales.md").unlink()
    capsys.readouterr()
    assert main(["export", "-c", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "failed to export FLINK-1320.rationales.json: [Errno 21] Is a directory: ")
    assert captured.out == "FLINK-1321.rationales.json -> FLINK-1321.rationales.md\n"
    assert (out / "FLINK-1321.rationales.md").read_bytes() == markdown


@pytest.mark.parametrize("command,target", [("eval", "metrics.csv"), ("split", "split.json")])
def test_a_command_whose_output_cannot_be_written_is_an_error(workspace, fixtures_dir,
                                                               capsys, command, target):
    tmp_path, config, config_path = workspace
    _add_second_issue(workspace, fixtures_dir)
    (tmp_path / "out" / target).mkdir(parents=True)
    assert main([command, "-c", str(config_path)]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: [Errno 21] Is a directory: '{tmp_path / 'out' / target}'\n")


def test_export_without_mined_output_fails(workspace, capsys):
    assert main(["export", "-c", str(workspace[2])]) == 1
    assert "no mined outputs" in capsys.readouterr().err


def test_load_config_defaults_are_valid():
    cfg = load_config()
    assert cfg.mode == "prompt_head"
    assert cfg.backend is None
    assert cfg.cloze_budget().max_sequence == 384
    assert cfg.pair_budget().max_sequence == 512


def test_eval_reports_an_unreadable_mined_file_and_scores_the_rest(workspace, fixtures_dir,
                                                                   capsys):
    tmp_path, config, config_path = workspace
    gold_path = _add_second_issue(workspace, fixtures_dir)
    _rewrite(workspace, annotations_path=str(gold_path))
    assert main(["mine", "-c", str(config_path)]) == 0
    mined = tmp_path / "out" / "FLINK-1321.rationales.json"
    mined.unlink()
    mined.mkdir()
    capsys.readouterr()
    assert main(["eval", "-c", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"failed to evaluate FLINK-1321.rationales.json: [Errno 21] Is a directory: '{mined}'\n")
    metrics = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert metrics == (fixtures_dir / "metrics-expected.csv").read_bytes()


def test_ablate_rejects_an_unknown_dimension_before_any_work(workspace, fixtures_dir, capsys):
    tmp_path, config, config_path = workspace
    gold_path = _add_second_issue(workspace, fixtures_dir)
    _rewrite(workspace, annotations_path=str(gold_path))
    with pytest.raises(SystemExit) as exit_:
        main(["ablate", "-c", str(config_path), "--dimension", "bogus"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --dimension: invalid choice: 'bogus'" in captured.err
    assert not (tmp_path / "out" / "ablation.json").exists()


def test_an_unreadable_config_file_is_a_config_error(tmp_path, monkeypatch, capsys):
    # Patched, since a chmod does not stop a superuser from reading.
    config = tmp_path / "config.json"
    config.write_text("{}", encoding="utf-8")
    read_text = Path.read_text

    def refuse(self, *args, **kwargs):
        if self == config:
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse)
    assert main(["stats", "-c", str(config)]) == 2
    assert capsys.readouterr().err == (f"config error: cannot read config file {config}: "
                                       f"[Errno 13] Permission denied: '{config}'\n")


def _written(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["ingest", "extract", "pair", "mine", "train", "eval",
                                     "split", "ablate", "stats"])
def test_a_skipped_corpus_file_is_reported_first_and_only_sets_the_exit_code(
        workspace, fixtures_dir, capsys, command):
    tmp_path, config, config_path = workspace
    gold_path = _add_second_issue(workspace, fixtures_dir)
    _rewrite(workspace, annotations_path=str(gold_path))
    outs = {name: tmp_path / name for name in ("clean", "broken")}
    if command == "eval":
        for out in outs.values():
            assert main(["mine", "-c", str(config_path), "--out", str(out)]) == 0
    runs = {}
    for name, out in outs.items():
        if name == "broken":
            (tmp_path / "corpus" / "broken.json").write_text("{not json", encoding="utf-8")
        head = ["--head", str(out / "head.json")] if command == "train" else []
        capsys.readouterr()
        code = main([command, "-c", str(config_path), "--out", str(out), *head])
        captured = capsys.readouterr()
        runs[name] = (code, captured.out.replace(str(out), "OUT"),
                      captured.err.replace(str(out), "OUT").splitlines(), _written(out))
    clean_code, clean_out, clean_err, clean_files = runs["clean"]
    code, out, [skipping, *err], files = runs["broken"]
    assert (clean_code, code) == (0, 1)
    assert skipping.startswith("skipping broken.json: ")
    assert (out, err, files) == (clean_out, clean_err, clean_files)


def test_export_reads_no_corpus(workspace, capsys):
    tmp_path, config, config_path = workspace
    assert main(["mine", "-c", str(config_path)]) == 0
    capsys.readouterr()
    assert main(["export", "-c", str(config_path), "--corpus", str(tmp_path / "absent")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "FLINK-1320.rationales.json -> FLINK-1320.rationales.md\n"


def test_readme_command_block_names_every_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^rationale-miner (\w+) +--config cfg\.json", readme, flags=re.M)
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if action.dest == "command")
    assert listed == list(subcommands)
