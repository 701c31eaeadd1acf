"""Record the reference output digests that ``run.py`` checks against.

    python3 perfbench/record.py --seeds 0-24

For every workload and seed: generate the workload, run its commands once
over every shard and over the trace subset through the CLI, check each issue
against the generator's oracle, and store the first 16 hex digits of each
output digest in ``reference.json``.  The remote workloads are recorded with
the scripted backend: their model server answers from the same script, so a
remote run that writes anything else is wrong.  Run from the root of a
source checkout, and only when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import workload  # noqa: E402
from report import parse_seeds  # noqa: E402
from run import check_issue  # noqa: E402
from worker import digest, run_command  # noqa: E402


def record(name: str, seed: int, work: Path) -> dict[str, str]:
    spec = workload.WORKLOADS[name]
    layout = workload.generate(name, seed, work)
    config = work / "config.json"
    config.write_text(json.dumps({
        "mode": "prompt_head", "backend": "scripted", "script_path": layout["script"],
        "head_path": layout["head"], "workers": len(os.sched_getaffinity(0))}),
        encoding="utf-8")
    expected = json.loads(Path(layout["expected"]).read_text(encoding="utf-8"))
    digests = {}
    for corpus in [Path(s) for s in layout["shards"]] + [Path(layout["trace"])]:
        out = work / "out" / corpus.name
        for command in spec.commands:
            result = run_command(command, str(config), corpus, out)
            if result["rc"] != 0 or result["failed"]:
                raise SystemExit(f"{name} seed {seed} {corpus.name}: {result['errors']}")
        for file in corpus.glob("*.json"):
            if not check_issue(file.stem, out, spec.commands, expected[file.stem]):
                raise SystemExit(f"{name} seed {seed}: {file.stem} differs from the oracle")
        if corpus.name == "trace":
            digests["trace"] = digest(out, (".rationales.json", ".rationales.md"))[:16]
        else:
            digests[corpus.name] = digest(out)[:16]
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-24", help="e.g. 0-24 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(workload.WORKLOADS))
    args = parser.parse_args()
    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    work = Path.cwd() / ".perfbench" / f"record-{os.getpid()}"
    try:
        for name in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                reference.setdefault(name, {})[str(seed)] = record(name, seed, work)
                shutil.rmtree(work)
                print(f"{name} seed {seed} recorded", flush=True)
                path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
