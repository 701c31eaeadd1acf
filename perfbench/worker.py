"""The mining process of one benchmark run.

It pays set-up once (a ``mine`` over an empty corpus), then runs the
workload's CLI commands through ``rationale_miner.cli.main``:

* untraced: shard after shard, cycling, until every shard ran once and the
  run's seconds are up.  Each command's stdout lines (one per finished
  issue, starting with its key) are timestamped as they are written, and
  each shard's outputs are digested after its commands.
* traced: the trace subset alternately through the CLI (untraced) and
  through the same public pipeline functions wrapped in spans, until the
  seconds are up.

Output files exist before a timed command writes them: each pass rewrites
the files of the pass before, and the first pass rewrites empty placeholders.
Creating files is left out of the timing because its cost depends on the
file system's recent history.  On ext4 in a 2-vCPU VM it rose from 18 us
to 290 us per file after about 100k creations and deletions, while
rewriting a file stayed near 30 us.

The plan comes from ``run.py`` as JSON; the result goes back as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from urllib.parse import urlparse

from rationale_miner.cli import main as cli_main
from rationale_miner.config import build_backend, build_classifier, load_config
from rationale_miner.corpus import clean_issue, parse_issue
from rationale_miner.errors import MiningError
from rationale_miner.features import compute_feature_matrix
from rationale_miner.miner import (
    MineResult,
    build_relation_graph,
    classify_pairs,
    construct_rationales,
    extract_design_sentences,
)
from rationale_miner.sentiment import SentimentAnalyzer

from tracing import TracedAnalyzer, TracedBackend, Tracer, layer_metrics


class LineClock(io.TextIOBase):
    """A stdout stand-in that keeps, for each finished line, the time it was
    finished and the issue key it starts with (``KEY: ...``)."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if "\n" in text:
            now = perf_counter()
            *done, self._partial = (self._partial + text).split("\n")
            self.lines.extend((now, line.partition(":")[0]) for line in done)
        else:
            self._partial += text
        return len(text)


# Files each CLI command writes per issue.
OUTPUTS = {"mine": (".rationales.json", ".rationales.md"),
           "extract": (".design.json",), "pair": (".relations.json",)}


def placeholders(corpus: Path, out: Path, commands: list[str]) -> Path:
    """Create empty files under the names the commands will write."""
    out.mkdir(parents=True, exist_ok=True)
    for file in corpus.glob("*.json"):
        for command in commands:
            for suffix in OUTPUTS[command]:
                (out / f"{file.stem}{suffix}").touch()
    return out


def run_command(command: str, config: str, corpus: Path, out: Path) -> dict:
    clock, errors = LineClock(), io.StringIO()
    with contextlib.redirect_stdout(clock), contextlib.redirect_stderr(errors):
        start = perf_counter()
        rc = cli_main([command, "--config", config, "--corpus", str(corpus), "--out", str(out)])
        wall = perf_counter() - start
    failed = [line for line in errors.getvalue().splitlines()
              if line.startswith(("failed on ", "skipping ", "error: ", "config error: "))]
    return {"command": command, "rc": rc, "wall": wall, "failed": len(failed),
            "issues": len(list(corpus.glob("*.json"))),
            "errors": failed[:5],
            # (issue key, time since the line before) for every line but the first
            "gaps": [(key, t - before) for (before, _), (t, key)
                     in zip(clock.lines, clock.lines[1:])]}


def digest(directory: Path, suffixes: tuple[str, ...] = ("",)) -> str:
    """sha256 over the names and bytes of the output files."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name.endswith(suffixes):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def server_stats(url: str | None) -> dict:
    if not url:
        return {"requests": 0, "connections": 0}
    parsed = urlparse(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=10)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def untraced(plan: dict) -> dict:
    shards = [Path(s) for s in plan["shards"]]
    outs = [placeholders(s, Path(plan["out"]) / s.name, plan["commands"]) for s in shards]
    visits = []
    start = perf_counter()
    while len(visits) < len(shards) or perf_counter() - start < plan["seconds"]:
        shard, out = shards[len(visits) % len(shards)], outs[len(visits) % len(shards)]
        commands = [run_command(c, plan["config"], shard, out) for c in plan["commands"]]
        visits.append({"shard": shard.name, "out": str(out), "issues": commands[0]["issues"],
                       "commands": commands, "digest": digest(out)})
    return {"visits": visits}


def traced_pass(plan: dict, corpus: Path, out: Path, tracer: Tracer) -> dict:
    """The CLI commands of the workload, rebuilt from the pipeline's public
    functions with a span around each layer call.  Only ``mine`` writes
    output, as ``cli mine`` does."""
    cfg = load_config(plan["config"])
    out.mkdir(parents=True, exist_ok=True)
    counts = dict.fromkeys(("issues", "failed", "sentences", "forward", "unparsable",
                            "nodes", "supporting", "output_bytes"), 0)
    for command in plan["commands"]:
        backend = TracedBackend(build_backend(cfg), tracer)
        classifier = build_classifier(cfg, backend)
        analyzer = TracedAnalyzer(SentimentAnalyzer(lexicon_path=cfg.lexicon_path), tracer)
        issues = []
        for file in sorted(corpus.glob("*.json")):
            tracer.issue = file.stem
            with tracer.span("corpus.load"):
                raw = json.loads(file.read_text(encoding="utf-8"))
                issues.append(clean_issue(parse_issue(raw), cfg.encoding,
                                          tuple(cfg.bot_authors)))
        for issue in issues:
            tracer.issue = issue.key
            counts["issues"] += 1
            try:
                with tracer.span("issue"):
                    _traced_issue(command, issue, cfg, backend, classifier, analyzer,
                                  out, tracer, counts)
            except MiningError:
                counts["failed"] += 1
    return counts


def _traced_issue(command, issue, cfg, backend, classifier, analyzer, out, tracer,
                  counts) -> None:
    with tracer.span("features"):
        sentences, matrix = compute_feature_matrix(issue, analyzer)
    counts["sentences"] += len(sentences)
    with tracer.span("extract"):
        design, scores = extract_design_sentences(sentences, matrix, issue.summary,
                                                  classifier)
    if command == "extract":
        return
    decisions, warnings = [], []
    if len(design) >= 2:
        counts["forward"] += len(design) * (len(design) - 1) // 2
        with tracer.span("pairs"):
            decisions, warnings = classify_pairs(design, backend, cfg.pair_budget(),
                                                 workers=cfg.workers)
    counts["unparsable"] += sum("unparsable" in w for w in warnings)
    with tracer.span("construct"):
        graph = build_relation_graph(design, decisions)
        construction = construct_rationales(graph) if command == "mine" else None
    counts["nodes"] += len(graph.nodes)
    counts["supporting"] += len(graph.supporting)
    if command != "mine":
        return
    with tracer.span("output"):
        result = MineResult(
            issue_key=issue.key, sentences=sentences, scores=scores,
            design_ids=[s.id for s in sorted(design, key=lambda s: s.global_index)],
            graph=graph, rationales=construction.rationales,
            warnings=warnings + construction.warnings)
        text = json.dumps(result.to_json(), indent=2) + "\n"
        markdown = result.to_markdown()
        (out / f"{issue.key}.rationales.json").write_text(text, encoding="utf-8")
        (out / f"{issue.key}.rationales.md").write_text(markdown, encoding="utf-8")
    counts["output_bytes"] += len(text.encode()) + len(markdown.encode())


def traced(plan: dict) -> dict:
    corpus = Path(plan["trace_corpus"])
    out_root = Path(plan["out"])
    cli_out = placeholders(corpus, out_root / "cli", plan["commands"])
    spans_out = placeholders(corpus, out_root / "traced", ["mine"])
    issues = len(list(corpus.glob("*.json")))
    plain, layered, commands = [], [], []
    start = perf_counter()
    while not layered or perf_counter() - start < plan["seconds"]:
        cpu = os.times()
        t0 = perf_counter()
        results = [run_command(c, plan["config"], corpus, cli_out) for c in plan["commands"]]
        wall = perf_counter() - t0
        cpu_after = os.times()
        commands.extend(results)
        cpu_s = (cpu_after.user - cpu.user) + (cpu_after.system - cpu.system)
        plain.append({"wall": wall, "cpu_ms_per_issue": 1e3 * cpu_s / issues})

        tracer = Tracer()
        before = server_stats(plan.get("server"))
        with contextlib.redirect_stderr(io.StringIO()):  # as run_command does
            t0 = perf_counter()
            counts = traced_pass(plan, corpus, spans_out, tracer)
            wall = perf_counter() - t0
        after = server_stats(plan.get("server"))
        metrics = layer_metrics(tracer.spans, counts)
        requests = after["requests"] - before["requests"]
        connections = after["connections"] - before["connections"]
        calls = metrics["backend.mask_probs.calls"] + metrics["backend.generate.calls"]
        metrics.update({
            "server.requests": requests,
            "server.connections": connections,
            "server.requests_per_connection": requests / connections if connections else 0.0,
            "model_requests_per_issue": (requests if plan.get("server") else calls) / issues,
            "failed_issue_share": counts["failed"] / max(counts["issues"], 1),
        })
        if not layered:
            tracer.write(out_root / "spans.jsonl")
        layered.append({"wall": wall, "metrics": metrics, "failed": counts["failed"],
                        "attempted": counts["issues"]})
    overhead = (statistics.median(p["wall"] for p in layered)
                / statistics.median(p["wall"] for p in plain) - 1)
    return {
        "commands": commands,
        "traced": layered,
        "cpu_ms_per_issue": statistics.median(p["cpu_ms_per_issue"] for p in plain),
        "overhead_share": overhead,
        "cli_out": str(cli_out),
        "cli_digest": digest(cli_out, (".rationales.json", ".rationales.md")),
        "traced_digest": digest(spans_out),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, help="plan JSON written by run.py")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    warm = run_command("mine", plan["config"], Path(plan["empty"]), Path(plan["out"]) / "warm")
    if warm["rc"] != 0:
        print(f"warm-up failed: {warm}", file=sys.stderr)
        return 1
    result = traced(plan) if plan["trace"] else untraced(plan)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
