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


def test_traced_pass_writes_what_cli_mine_writes(perfbench, golden_corpus, fixtures_dir,
                                                 tmp_path):
    worker, tracing = perfbench
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mode": "prompt_head", "backend": "scripted",
        "script_path": str(fixtures_dir / "flink-1320-script.json"),
        "head_path": str(fixtures_dir / "golden-head.json"),
    }), encoding="utf-8")
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
