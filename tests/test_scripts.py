"""README's Example commands run as written and give the documented outputs."""

from __future__ import annotations

import json
import re
import runpy
import shlex
import shutil
import sys
from pathlib import Path

import pytest

from rationale_miner.cli import main

ROOT = Path(__file__).resolve().parent.parent


def example_commands() -> list[list[str]]:
    """The commands of the bash blocks in README's Example section, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Example\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip():
                commands.append(shlex.split(line))
    return commands


def test_scripts_run(tmp_path, fixtures_dir, monkeypatch, capsys):
    for name in ("tests", "scripts"):
        (tmp_path / name).symlink_to(ROOT / name)
    monkeypatch.chdir(tmp_path)
    commands = example_commands()
    assert [argv[:2] for argv in commands if argv[0] not in ("mkdir", "cp")] == [
        ["rationale-miner", "mine"],
        ["python", "scripts/make_synthetic_corpus.py"],
        ["rationale-miner", "stats"],
        ["rationale-miner", "ablate"],
        ["rationale-miner", "train"],
        ["rationale-miner", "mine"],
        ["rationale-miner", "eval"],
    ]
    printed = {}
    for argv in commands:
        match argv:
            case ["mkdir", "-p", path]:
                Path(path).mkdir(parents=True, exist_ok=True)
            case ["cp", source, target]:
                shutil.copy(source, target)
            case ["python", script, *args]:
                monkeypatch.setattr(sys, "argv", [script, *args])
                runpy.run_path(script, run_name="__main__")
            case ["rationale-miner", *args]:
                assert main(args) == 0, argv
            case _:
                pytest.fail(f"README runs a command this test does not know: {argv}")
        printed[argv[1]] = capsys.readouterr().out

    mined = sorted(tmp_path.glob("out/fixture/*.rationales.*"))
    assert [path.name for path in mined] == ["FLINK-1320.rationales.json",
                                             "FLINK-1320.rationales.md"]
    for path in mined:
        expected = fixtures_dir / f"mined-expected.{path.suffix[1:]}"
        assert path.read_bytes() == expected.read_bytes()

    assert printed["scripts/make_synthetic_corpus.py"] == (
        "wrote 24 issues to data/synthetic/corpus\n"
        "wrote 24 annotations to data/synthetic/annotations.jsonl\n")
    assert printed["stats"].splitlines()[-1].split() == ["total", "24", "76", "201", "67"]
    [ablation] = tmp_path.glob("out/**/ablation.json")
    records = json.loads(ablation.read_text(encoding="utf-8"))
    assert [r["dimension"] for r in records] == [
        "full", "keyword", "position", "process", "sentiment", "structure"]

    assert printed["train"] == (
        "design baseline trained on 201 sentences -> out/models/baseline.json\n"
        "pair baseline trained on 77 pairs -> out/models/pair-baseline.json\n")
    assert len(list(tmp_path.glob("out/baseline/*.rationales.json"))) == 24
    assert [line.split() for line in printed["eval"].splitlines()] == [
        ["rationale", "P=1.0000", "R=1.0000", "F1=1.0000"],
        ["sentence_solution", "P=1.0000", "R=1.0000", "F1=1.0000"],
        ["sentence_argument", "P=0.0000", "R=0.0000", "F1=0.0000"],
        ["extraction", "P=1.0000", "R=1.0000", "F1=1.0000"],
        ["metrics", "->", "out/baseline/metrics.csv"]]
