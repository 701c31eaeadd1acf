"""Smoke tests: the scripts under ``scripts/`` run end to end."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))

    def run(module, *argv):
        monkeypatch.setattr(sys, "argv", [f"{module.__name__}.py", *map(str, argv)])
        module.main()

    return run


def test_scripts_run(scripts, tmp_path, fixtures_dir, monkeypatch, capsys):
    import make_synthetic_corpus
    import mine_fixture_demo
    import run_ablation_experiment

    scripts(mine_fixture_demo, "--out-dir", tmp_path / "demo")
    for suffix in ("json", "md"):
        mined = tmp_path / "demo" / f"FLINK-1320.rationales.{suffix}"
        assert mined.read_bytes() == (fixtures_dir / f"mined-expected.{suffix}").read_bytes()

    scripts(run_ablation_experiment, "--min-sentences", 200)
    assert "\nfull " in capsys.readouterr().out

    scripts(make_synthetic_corpus, "--out", tmp_path / "synthetic")
    corpus = tmp_path / "synthetic" / "corpus"
    first = sorted(corpus.glob("*.json"))[0]
    raw = json.loads(first.read_text(encoding="utf-8"))
    raw["comments"].append({"author": "ci-bot", "body": "Build passed.",
                            "created": "2030-01-01T00:00:00+00:00"})
    first.write_text(json.dumps(raw), encoding="utf-8")
    # the script loads through load_corpus, which cleans: bot comments go
    loaded, split = [], run_ablation_experiment.split_dataset
    monkeypatch.setattr(run_ablation_experiment, "split_dataset",
                        lambda issues, seed: split(loaded.extend(issues) or issues, seed))
    scripts(run_ablation_experiment, "--corpus", corpus,
            "--annotations", tmp_path / "synthetic" / "annotations.jsonl",
            "--json", tmp_path / "ablation.json")
    assert len(loaded) == len(list(corpus.glob("*.json")))
    assert all("bot" not in c.author for issue in loaded for c in issue.comments)
    assert json.loads((tmp_path / "ablation.json").read_text(encoding="utf-8"))[0][
        "dimension"] == "full"
