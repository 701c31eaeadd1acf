"""The library API the benchmark's traced pass is built from.

``perfbench/worker.py`` rebuilds ``mine`` from the pipeline's public
functions to time each layer; this keeps that rebuild running and writing
what the CLI writes.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from rationale_miner import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker"), importlib.import_module("tracing")


def test_traced_pass_writes_what_cli_mine_writes(perfbench, golden_corpus, prompt_config,
                                                 tmp_path):
    worker, tracing = perfbench
    config = tmp_path / "config.json"
    config.write_text(json.dumps(prompt_config), encoding="utf-8")
    cli_out, traced_out = tmp_path / "cli", tmp_path / "traced"
    assert cli.main(["mine", "--config", str(config), "--corpus", str(golden_corpus),
                     "--out", str(cli_out)]) == 0
    tracer = tracing.Tracer()
    counts = worker.traced_pass({"config": str(config), "commands": ["mine"]},
                                golden_corpus, traced_out, tracer)
    assert (counts["issues"], counts["failed"]) == (1, 0)
    assert worker.digest(traced_out) == \
        worker.digest(cli_out, (".rationales.json", ".rationales.md"))
    assert {span[1] for span in tracer.spans} >= {"features", "extract", "pairs", "output"}


def test_traced_pass_of_extract_pair_mine_over_an_issue_below_two_design_sentences(
        perfbench, golden_corpus, prompt_config, tmp_path):
    # The plan of the rerun workload; the second issue's only sentence is its
    # summary, so its traced pass builds a graph from no pair edges.
    worker, tracing = perfbench
    (golden_corpus / "FLINK-1321.json").write_text(json.dumps({
        "key": "FLINK-1321", "summary": "Document the cache", "reporter": "dave",
    }), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(prompt_config), encoding="utf-8")
    cli_out, traced_out = tmp_path / "cli", tmp_path / "traced"
    assert cli.main(["mine", "--config", str(config), "--corpus", str(golden_corpus),
                     "--out", str(cli_out)]) == 0
    counts = worker.traced_pass({"config": str(config),
                                 "commands": ["extract", "pair", "mine"]},
                                golden_corpus, traced_out, tracing.Tracer())
    assert (counts["issues"], counts["failed"]) == (6, 0)
    assert worker.digest(traced_out) == \
        worker.digest(cli_out, (".rationales.json", ".rationales.md"))
    assert "FLINK-1321.rationales.json" in {path.name for path in traced_out.iterdir()}
