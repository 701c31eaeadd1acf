"""Benchmark of the rationale miner: one run of one workload.

    python3 perfbench/run.py --workload short-scripted --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates the workload from the seed, starts the model
server for remote workloads, times set-up in fresh processes, hands the
mining to ``worker.py`` and checks every output against the oracle the
generator wrote and, when one is recorded for this workload and seed,
against the digests in ``reference.json``.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).

All workloads run prompt_head mode with ``workers`` = the number of usable
CPUs, from one client process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
DEADLINE_S = 170.0
# Fresh-process set-ups timed before the worker, and as many again after it.
SETUP_RUNS = 4
SETUP_CODE = "import sys; from rationale_miner.cli import main; sys.exit(main(sys.argv[1:]))"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def start_server(script: str) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), "--script", script],
        stdout=subprocess.PIPE, text=True)
    port = proc.stdout.readline().strip()
    if not port.isdigit():
        stop(proc)
        raise RuntimeError("model server did not start")
    return proc, f"http://127.0.0.1:{port}"


def stop(proc: subprocess.Popen | None) -> None:
    if proc is not None and proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def time_setup(config: str, empty: str, out: Path, runs: int) -> list[float]:
    """Wall times of ``runs`` fresh processes each mining an empty corpus."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, "mine", "--config", config,
             "--corpus", empty, "--out", str(out)],
            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed: {done.stderr.strip()}")
    return times


def check_issue(key: str, out: Path, commands: tuple[str, ...], expected: dict) -> bool:
    """Does this issue's output match what the script implies?"""
    try:
        return _matches(key, out, commands, expected)
    except (OSError, KeyError, TypeError, ValueError):
        return False


def _matches(key: str, out: Path, commands: tuple[str, ...], expected: dict) -> bool:
    if "mine" in commands:
        mined = json.loads((out / f"{key}.rationales.json").read_text(encoding="utf-8"))
        got = {
            "design": [d["id"] for d in mined["design_sentences"]],
            "supporting": [[e["argument"], e["solution"]]
                           for e in mined["relations"]["supporting"]],
            "complementary": mined["relations"]["complementary"],
            "rationales": mined["rationales"],
        }
        if got != expected or not (out / f"{key}.rationales.md").is_file():
            return False
    if "extract" in commands:
        design = json.loads((out / f"{key}.design.json").read_text(encoding="utf-8"))
        if [d["id"] for d in design["design"]] != expected["design"]:
            return False
    if "pair" in commands:
        relations = json.loads((out / f"{key}.relations.json").read_text(encoding="utf-8"))
        got = [relations["design"],
               [[e["argument"], e["solution"]] for e in relations["supporting"]],
               relations["complementary"]]
        if got != [expected["design"], expected["supporting"], expected["complementary"]]:
            return False
    return True


def quality(out_dirs: list[Path], gold_path: str) -> tuple[float, float]:
    """Mean extraction and rationale F1 over the issues against gold."""
    from rationale_miner.evaluation import eval_binary, eval_rationales, load_annotations
    from rationale_miner.miner import Rationale

    extraction, rationale = [], []
    where = {p.name.split(".")[0]: p for d in out_dirs for p in d.glob("*.rationales.json")}
    for annotation in load_annotations(gold_path):
        if annotation.issue not in where:
            extraction.append(0.0)
            rationale.append(0.0)
            continue
        mined = json.loads(where[annotation.issue].read_text(encoding="utf-8"))
        predicted = [Rationale(solution=r["solution"], arguments=r["arguments"])
                     for r in mined["rationales"]]
        extraction.append(eval_binary([d["id"] for d in mined["design_sentences"]],
                                      annotation.design_ids()).f1)
        rationale.append(eval_rationales(predicted, annotation.rationales).f1)
    return statistics.fmean(extraction), statistics.fmean(rationale)


def corpus_rate(visits: list[dict]) -> float:
    """Issues of the whole corpus ÷ the time to mine it once, each shard's
    time being the median wall of its commands over the run's visits.  The
    corpus is the same set of issues on every run, whichever shards the run
    revisited."""
    walls: dict[str, list[float]] = {}
    issues: dict[str, int] = {}
    for visit in visits:
        walls.setdefault(visit["shard"], []).append(sum(c["wall"] for c in visit["commands"]))
        issues[visit["shard"]] = visit["issues"]
    return sum(issues.values()) / sum(statistics.median(w) for w in walls.values())


def issue_latencies(gaps: list[tuple[str, float]]) -> list[float]:
    """One latency per issue: the median of its gaps over the run's visits.

    Every issue of the corpus is timed at least once, except the first of
    each shard, which has no line before it.  So the percentiles are taken
    over all but a few of the same issues on every seed, each weighted once
    however often the run revisited its shard."""
    per_issue: dict[str, list[float]] = {}
    for key, gap in gaps:
        per_issue.setdefault(key, []).append(gap)
    return [statistics.median(g) for g in per_issue.values()]


def declared_units(kind: str) -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


def reference(workload: str, seed: int) -> dict:
    path = HERE / "reference.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed), {})


def evaluate(spec, layout: dict, result: dict, trace: bool,
             ref: dict) -> tuple[dict, int, int, list[str]]:
    """Correctness problems and metrics of a finished worker result."""
    expected = json.loads(Path(layout["expected"]).read_text(encoding="utf-8"))
    problems, checked = [], []
    commands = result["commands"] if trace else [c for v in result["visits"]
                                                 for c in v["commands"]]
    attempted = sum(c["issues"] for c in commands)
    failed = sum(c["failed"] for c in commands)
    problems += [f"{c['command']} exited {c['rc']}: {c['errors']}"
                 for c in commands if c["rc"] != 0]
    problems += [e for c in commands for e in c["errors"]]
    if trace:
        checked = [(Path(layout["trace"]), Path(result["cli_out"]))]
        if result["cli_digest"] != result["traced_digest"]:
            problems.append("traced pipeline output differs from the CLI output")
        if "trace" in ref and result["cli_digest"][:16] != ref["trace"]:
            problems.append("trace subset output differs from the recorded reference")
        for p in result["traced"]:
            attempted += p["attempted"]
            failed += p["failed"]
    else:
        first = {}
        for visit in result["visits"]:
            shard = visit["shard"]
            if shard in first:
                if first[shard] != visit["digest"]:
                    problems.append(f"{shard}: output changed between visits")
                continue
            first[shard] = visit["digest"]
            checked.append((Path(layout["shards"][0]).parent / shard, Path(visit["out"])))
            if shard in ref and visit["digest"][:16] != ref[shard]:
                problems.append(f"{shard}: output differs from the recorded reference")
    wrong = [f.stem for corpus, out in checked for f in sorted(corpus.glob("*.json"))
             if not check_issue(f.stem, out, spec.commands, expected[f.stem])]
    if wrong:
        problems.append(f"{len(wrong)} issue(s) differ from the oracle, e.g. {wrong[:3]}")
    failed += len(wrong)

    if trace:
        layered = result["traced"]
        metrics = {name: statistics.median(p["metrics"][name] for p in layered)
                   for name in layered[0]["metrics"]}
        metrics["process.cpu_ms_per_issue"] = result["cpu_ms_per_issue"]
        metrics["trace.overhead_share"] = result["overhead_share"]
        return metrics, attempted, failed, problems

    # Latency is read off the last command, ``mine``: on rerun-remote the
    # extract and pair lines would mix in two other gap distributions.
    latencies = issue_latencies(
        [g for v in result["visits"] for g in v["commands"][-1]["gaps"]])
    issues = sum(v["issues"] for v in result["visits"])
    extraction_f1, rationale_f1 = quality([out for _, out in checked], layout["gold"])
    print(f"{len(result['visits'])} shard visits, {issues} issues, "
          f"{len(latencies)} issue latencies", file=sys.stderr)
    metrics = {
        "issues_per_s": corpus_rate(result["visits"]),
        "issue_latency_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "issue_latency_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
        "peak_rss_mb": result["peak_rss_mb"],
        "extraction_f1": extraction_f1,
        "rationale_f1": rationale_f1,
    }
    return metrics, attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()
    if not (SRC / "rationale_miner" / "cli.py").is_file():
        print(f"no rationale_miner sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workload

    if args.workload not in workload.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workload.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = workload.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    server = None
    try:
        layout = workload.generate(args.workload, args.seed, work)
        config = {"mode": "prompt_head", "backend": spec.backend,
                  "head_path": layout["head"], "workers": len(os.sched_getaffinity(0))}
        if spec.backend == "remote":
            server, config["backend_url"] = start_server(layout["script"])
        else:
            config["script_path"] = layout["script"]
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_root = work / "out"
        plan = {"config": str(config_path), "shards": layout["shards"],
                "trace_corpus": layout["trace"], "empty": layout["empty"],
                "commands": list(spec.commands), "seconds": args.seconds,
                "trace": bool(args.trace), "out": str(out_root),
                "server": config.get("backend_url")}
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        setup_args = (str(config_path), layout["empty"], out_root / "setup")
        setup_times = []
        if not args.trace:
            # The first run is discarded: in a fresh checkout it compiles bytecode.
            time_setup(*setup_args, 1)
            setup_times = time_setup(*setup_args, SETUP_RUNS)
        remaining = DEADLINE_S - (time.perf_counter() - began)
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--plan", str(work / "plan.json"),
             "--result", str(work / "result.json")],
            env=_env(), timeout=max(remaining, 1.0))
        if done.returncode != 0:
            print(f"worker exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        metrics, attempted, failed, problems = evaluate(
            spec, layout, result, bool(args.trace), reference(args.workload, args.seed))
        if args.trace:
            shutil.copyfile(out_root / "spans.jsonl",
                            ROOT / ".perfbench" / f"spans-{args.workload}.jsonl")
        else:
            # Runs before and after the worker, so that host contention in
            # one stretch of the run does not decide the figure.
            setup_times += time_setup(*setup_args, SETUP_RUNS)
            metrics["setup_s"] = statistics.median(setup_times)
        for problem in problems:
            print(f"incorrect: {problem}", file=sys.stderr)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        if set(units) != set(metrics):
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": max(failed, 1) if problems else failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(metrics.items())},
        }))
        return 0
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop(server)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
