"""Every function under src/ is entered by some command.

The test runs every command of the CLI, and the script that makes a synthetic
corpus, in an interpreter of its own with a profiler on every thread.  It
fails with one ``path:line name`` line for each function under src/ that none
of them entered: code that no command reaches should go.  ALLOWED names the
functions that no command enters on purpose; one of them that a command does
enter fails the test too, so the list cannot go stale.

The inputs: prompt_head mode with the scripted backend on the fixture issue;
one ``mine`` through the remote backend against the stub server; baseline
mode on a small synthetic corpus, which also holds one guard issue whose text
has a URL, a negation and a booster word.

Run as a script, this file is that interpreter: ``python
tests/test_reachability.py ENTERED.json``, with ``src`` on PYTHONPATH, runs
the commands in the directory of ENTERED.json and writes the functions they
entered to it.
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import shutil
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"

# (path under src/, qualified name) of each function that no command enters,
# and why.
ALLOWED = {
    # abstract: every backend defines its own
    ("rationale_miner/backends/protocol.py", "Backend.mask_probs"),
    ("rationale_miner/backends/protocol.py", "Backend.generate"),
}

GUARD_ISSUE = {
    "key": "ALPHA-999",
    "summary": "Guard issue",
    "description": "This is not a very good idea, see https://x.org/a.",
    "reporter": "dev1",
    "comments": [{"author": "dev2", "body": "Agreed.", "created": "2020-01-01T00:00:00Z"}],
}


def _functions(node: ast.AST, prefix: str = ""):
    """Each function defined under ``node``, with its qualified name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, prefix + child.name
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _defined() -> dict[tuple[str, int], tuple[str, str]]:
    """(path under src/, first line of its code) -> (path, qualified name) of
    each function under src/.  A decorated function's code starts at its
    first decorator."""
    found = {}
    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        for node, name in _functions(ast.parse(file.read_text(encoding="utf-8"))):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[(path, first)] = (path, name)
    return found


def _run(config: Path, command: str, *extra: str) -> str:
    # imported once the profiler is on, so that calls made on import count
    from rationale_miner.cli import main

    code = main([command, "-c", str(config), *extra])
    assert code == 0, f"{command} -c {config} exited with {code}"
    return command


def _config(work: Path, name: str, **values) -> Path:
    path = work / f"config-{name}.json"
    path.write_text(json.dumps({"output_dir": str(work / f"out-{name}"), **values}),
                    encoding="utf-8")
    return path


def _every_command(work: Path) -> list[str]:
    """Run every command on the inputs above, in ``work``; the commands run."""
    from stub_server import run_stub

    ran = []
    fixture = work / "fixture"
    fixture.mkdir()
    shutil.copy(FIXTURES / "flink-1320.json", fixture)
    shutil.copy(FIXTURES / "golden-head.json", work)
    prompt = dict(corpus_dir=str(fixture), head_path=str(work / "golden-head.json"),
                  annotations_path=str(FIXTURES / "flink-1320-gold.jsonl"))
    scripted = _config(work, "scripted", **prompt, backend="scripted",
                       script_path=str(FIXTURES / "flink-1320-script.json"))
    for command in ("ingest", "extract", "pair", "mine", "eval", "export", "stats"):
        ran.append(_run(scripted, command))
    ran.append(_run(scripted, "train", "--head", str(work / "head.json")))
    with run_stub() as server:
        ran.append(_run(_config(work, "remote", **prompt, backend="remote",
                                backend_url=server.url), "mine"))

    synthetic = work / "synthetic"
    argv = sys.argv
    sys.argv = ["make_synthetic_corpus.py", "--out", str(synthetic), "--min-sentences", "45"]
    try:
        runpy.run_path(str(ROOT / "scripts" / "make_synthetic_corpus.py"), run_name="__main__")
    finally:
        sys.argv = argv
    (synthetic / "corpus" / "ALPHA-999.json").write_text(json.dumps(GUARD_ISSUE),
                                                         encoding="utf-8")
    baseline = _config(work, "baseline", mode="baseline",
                       corpus_dir=str(synthetic / "corpus"),
                       annotations_path=str(synthetic / "annotations.jsonl"),
                       baseline_path=str(work / "baseline.json"),
                       pair_baseline_path=str(work / "pair.json"))
    for command in ("train", "ingest", "extract", "pair", "mine", "eval", "export",
                    "split", "stats"):
        ran.append(_run(baseline, command))
    ran.append(_run(baseline, "ablate", "--dimension", "sentiment"))
    return sorted(set(ran))


def test_every_function_under_src_is_entered_by_a_command(tmp_path):
    from rationale_miner.cli import _COMMANDS

    report = tmp_path / "entered.json"
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, __file__, str(report)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-5000:]
    entered = json.loads(report.read_text(encoding="utf-8"))
    assert entered["commands"] == sorted(_COMMANDS)

    reached = {tuple(key) for key in entered["functions"]}
    defined = _defined()
    unreached = [f"src/{path}:{line} {name}" for (path, line), (_, name) in defined.items()
                 if (path, line) not in reached and (path, name) not in ALLOWED]
    assert not unreached, "entered by no command:\n" + "\n".join(unreached)
    stale = sorted((set(ALLOWED) - set(defined.values()))
                   | {defined[key] for key in reached & defined.keys()
                      if defined[key] in ALLOWED})
    assert not stale, f"allowed but entered, or not defined: {stale}"


if __name__ == "__main__":
    import numpy  # noqa: F401  (imported before the profiler starts: no part of src/)

    codes: dict = {}

    def _entered(frame, event, arg) -> None:
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    out = Path(sys.argv[1])
    sys.setprofile(_entered)
    threading.setprofile(_entered)
    try:
        commands = _every_command(out.parent)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    lines: dict[str, set[int]] = {}
    for code in list(codes.values()):
        lines.setdefault(code.co_filename, set()).add(code.co_firstlineno)
    functions = sorted((Path(name).resolve().relative_to(SRC).as_posix(), line)
                       for name, first_lines in lines.items() for line in first_lines
                       if Path(name).resolve().is_relative_to(SRC))
    out.write_text(json.dumps({"commands": commands, "functions": functions}),
                   encoding="utf-8")
