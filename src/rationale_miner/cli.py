"""Command-line entry point.

Every command but ``export`` reads the corpus first.  Exit codes: 0 on
success, 1 when a corpus file was skipped or an item (an issue, an annotation,
a mined file) failed, or a runtime error or a failed write stopped the
command, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, nullcontext
from pathlib import Path
from typing import Any, Callable, ContextManager

import numpy as np

from .backends.baseline import train_baseline, train_pair_baseline
from .backends.heads import save_head, train_head
from .config import (
    SP_FINGERPRINT,
    RunConfig,
    build_backend,
    build_classifier,
    build_pair_classifier,
    load_config,
)
from .corpus import IssueLog, enumerate_sentences, load_corpus, sentence_order
from .errors import (
    ConfigError,
    DegenerateData,
    MalformedExport,
    MiningError,
    UnknownSentence,
)
from .evaluation import (
    Annotation,
    PRF,
    annotated_issues,
    collect_extraction_data,
    collect_pair_data,
    corpus_stats,
    eval_binary,
    eval_rationales,
    eval_sentences,
    load_annotations,
    run_ablation,
    split_dataset,
)
from .features import FEATURE_GROUPS
from .miner import (
    ISSUE_RANK,
    CallPool,
    design_entries,
    extract_stage,
    mine_issue,
    read_mined,
    relate_stage,
    render_markdown,
    sp_matrix,
)
from .sentiment import SentimentAnalyzer

# Each flag that overrides a config key: its option name (``--`` plus the
# name with dashes), the key, its help text and its type.
_OVERRIDE_FLAGS = {
    "corpus": ("corpus_dir", "directory of issue export JSON files", str),
    "out": ("output_dir", "output directory", str),
    "mode": ("mode", "prompt_head or baseline", str),
    "backend": ("backend", "remote or scripted; prompt_head mode needs one", str),
    "backend_url": ("backend_url", "remote backend base URL", str),
    "script": ("script_path", "scripted backend JSON file", str),
    "head": ("head_path", "cloze-head model path", str),
    "baseline": ("baseline_path", "design baseline model path", str),
    "pair_baseline": ("pair_baseline_path", "pair baseline model path", str),
    "annotations": ("annotations_path", "gold annotations JSONL path", str),
    "lexicon": ("lexicon_path", "sentiment lexicon path", str),
    "seed": ("seed", "random seed", int),
    "workers": ("workers", "worker threads for backend calls", int),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", help="JSON config file")
    for flag, (_, help_text, kind) in _OVERRIDE_FLAGS.items():
        parser.add_argument("--" + flag.replace("_", "-"), type=kind, help=help_text)


def _overrides(args: argparse.Namespace) -> dict:
    values = {}
    for flag, (key, _, _) in _OVERRIDE_FLAGS.items():
        if getattr(args, flag, None) is not None:
            values[key] = getattr(args, flag)
    return values


def _analyzer(cfg: RunConfig) -> SentimentAnalyzer:
    return SentimentAnalyzer(lexicon_path=cfg.lexicon_path)


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, say
        raise ConfigError(f"output_dir {cfg.output_dir!r} is not a usable directory: "
                          f"{exc}") from exc
    return out


def _ensure_parent(path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _require_annotations(cfg: RunConfig) -> list[Annotation]:
    if not cfg.annotations_path:
        raise ConfigError("annotations_path is required for this command")
    return load_annotations(cfg.annotations_path)


class _Pipeline:
    """What the extract, pair and mine steps share for one run, the run's one
    pool of backend calls included.  Only prompt_head mode builds a backend;
    ``pairs`` is None unless ``relate``.  Closing it stops the pool, then
    closes the backend."""

    def __init__(self, cfg: RunConfig, relate: bool = True):
        self.calls = CallPool(cfg.workers)
        self.backend = build_backend(cfg) if cfg.mode == "prompt_head" else None
        self.classifier = build_classifier(cfg, self.backend, self.calls)
        self.pairs = build_pair_classifier(cfg, self.backend, self.calls) if relate else None
        self.analyzer = _analyzer(cfg)
        self.out = _outdir(cfg)

    def __enter__(self) -> "_Pipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.calls.close()
        if self.backend is not None:
            self.backend.close()


_Step = Callable[[IssueLog, Any], tuple[str, list[str]]]
# A command: it gets the config, the cleaned corpus and the parsed flags, and
# returns the number of items (issues, annotations, mined files) it failed.
_Command = Callable[[RunConfig, list[IssueLog], argparse.Namespace], int]


def _run_step(step: _Step, issue: IssueLog, context: Any,
              rank: int) -> tuple[str, list[str]]:
    token = ISSUE_RANK.set(rank)
    try:
        return step(issue, context)
    finally:
        ISSUE_RANK.reset(token)


def _report(issue: IssueLog, job: Future) -> int:
    """Write a finished issue's warnings, then its stdout line, or only its
    ``failed on`` line; 1 if it failed, else 0.  A MiningError, or an
    OSError from writing the issue's outputs, fails that issue alone."""
    try:
        line, warnings = job.result()
    except (MiningError, OSError) as exc:
        print(f"failed on {issue.key}: {exc}", file=sys.stderr)
        return 1
    for warning in warnings:
        print(warning, file=sys.stderr)
    print(line)
    return 0


def _each_issue(build: Callable[[RunConfig], ContextManager[Any]], step: _Step) -> _Command:
    """The command that runs ``step(issue, context)`` on every issue,
    ``context`` being what ``build(cfg)`` enters; it is left once every
    issue is done.

    Two issues are mined at a time: issue k+1 starts while issue k runs, and
    its calls take only the slots that issue k leaves idle.  The step writes
    the issue's outputs and returns its stdout line and its warnings.
    Warnings, lines and ``failed on`` lines come out in corpus order.  A
    MiningError or OSError fails that issue alone; the command returns the
    number of failed issues.
    """
    def run(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
        failures = 0
        with build(cfg) as context, ThreadPoolExecutor(max_workers=2) as drivers:
            running: deque = deque()
            for rank, issue in enumerate(issues):
                running.append((issue, drivers.submit(_run_step, step, issue, context, rank)))
                if len(running) == 2:
                    failures += _report(*running.popleft())
            while running:
                failures += _report(*running.popleft())
        return failures

    return run


def _ingest(issue: IssueLog, out: Path) -> tuple[str, list[str]]:
    sentences = enumerate_sentences(issue)
    path = out / f"{issue.key}.sentences.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for s in sentences:
            handle.write(json.dumps({
                "id": s.id, "text": s.text, "kind": s.kind,
                "comment_index": s.comment_index,
                "block_index": s.block_index,
                "global_index": s.global_index, "author": s.author,
            }) + "\n")
    return f"{issue.key}: {len(sentences)} sentences -> {path}", []


def _extract(issue: IssueLog, run: _Pipeline) -> tuple[str, list[str]]:
    sentences, scores, design = extract_stage(issue, run.classifier, run.analyzer)
    path = _write_json(run.out / f"{issue.key}.design.json", {
        "issue": issue.key,
        "design": design_entries(sentences, scores, [s.id for s in design]),
    })
    return f"{issue.key}: {len(design)}/{len(sentences)} design sentences -> {path}", []


def _pair(issue: IssueLog, run: _Pipeline) -> tuple[str, list[str]]:
    _, _, design = extract_stage(issue, run.classifier, run.analyzer)
    graph, warnings = relate_stage(design, run.pairs)
    path = _write_json(run.out / f"{issue.key}.relations.json", {
        "issue": issue.key, "design": graph.nodes, **graph.to_json(), "warnings": warnings,
    })
    return (f"{issue.key}: {len(graph.supporting)} supporting, "
            f"{len(graph.complementary)} complementary -> {path}"), warnings


def _mine(issue: IssueLog, run: _Pipeline) -> tuple[str, list[str]]:
    result = mine_issue(issue, run.classifier, run.pairs, run.analyzer)
    json_path = _write_json(run.out / f"{issue.key}.rationales.json", result.to_json())
    (run.out / f"{issue.key}.rationales.md").write_text(result.to_markdown(),
                                                        encoding="utf-8")
    return f"{issue.key}: {len(result.rationales)} rationale(s) -> {json_path}", result.warnings


_NO_TRAINING_DATA = "the annotations label no sentence of the corpus"


def cmd_train(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    annotations = _require_annotations(cfg)
    analyzer = _analyzer(cfg)
    if cfg.mode == "baseline":
        if not cfg.baseline_path:
            raise ConfigError("baseline_path is required to train in baseline mode")
        texts, features, labels, _ = collect_extraction_data(issues, annotations, analyzer)
        if not texts:
            raise DegenerateData(_NO_TRAINING_DATA)
        model = train_baseline(texts, features, labels)
        _ensure_parent(cfg.baseline_path)
        model.save(cfg.baseline_path)
        print(f"design baseline trained on {len(texts)} sentences -> {cfg.baseline_path}")
        if cfg.pair_baseline_path:
            matrix, pair_labels = collect_pair_data(issues, annotations)
            if len(np.unique(pair_labels)) >= 2:
                pair_model = train_pair_baseline(matrix, pair_labels)
                _ensure_parent(cfg.pair_baseline_path)
                pair_model.save(cfg.pair_baseline_path)
                print(f"pair baseline trained on {len(pair_labels)} pairs "
                      f"-> {cfg.pair_baseline_path}")
            else:
                print("pair baseline skipped: annotations yield a single relation class")
    else:
        if not cfg.head_path:
            raise ConfigError("head_path is required to train in prompt_head mode")
        rows, labels = [], []
        # The pool stops before the backend closes.
        with closing(build_backend(cfg)) as backend, CallPool(cfg.workers) as calls:
            for issue, sentences, matrix, design in annotated_issues(issues, annotations,
                                                                     analyzer):
                if sentences:
                    rows.extend(sp_matrix(sentences, matrix, issue.summary, backend,
                                          cfg.cloze_budget(), pool=calls))
                labels.extend(design)
        if not rows:
            raise DegenerateData(_NO_TRAINING_DATA)
        head = train_head(np.asarray(rows), np.asarray(labels),
                          num_classes=2, fingerprint=SP_FINGERPRINT)
        _ensure_parent(cfg.head_path)
        save_head(head, cfg.head_path)
        print(f"cloze head trained on {len(rows)} sentences -> {cfg.head_path}")
    return 0


def cmd_eval(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    annotations = _require_annotations(cfg)
    out = _outdir(cfg)
    by_key = {issue.key: issue for issue in issues}
    failures = 0
    rows: dict[str, list[PRF]] = {
        "rationale": [], "sentence_solution": [], "sentence_argument": [],
        "extraction": [],
    }
    for annotation in annotations:
        mined_path = out / f"{annotation.issue}.rationales.json"
        if not mined_path.exists():
            failures += 1
            print(f"no mined output for {annotation.issue} at {mined_path}",
                  file=sys.stderr)
            continue
        try:
            mined = read_mined(mined_path)
        except (MalformedExport, OSError) as exc:
            failures += 1
            print(f"failed to evaluate {mined_path.name}: {exc}", file=sys.stderr)
            continue
        gold = annotation.rationales
        issue = by_key.get(annotation.issue)
        order = sentence_order(enumerate_sentences(issue)) if issue is not None else {}
        try:
            sentence_scores = eval_sentences(mined.rationales, gold, order)
        except UnknownSentence as exc:
            failures += 1
            print(f"failed to evaluate {annotation.issue}: {exc}", file=sys.stderr)
            continue
        rows["rationale"].append(eval_rationales(mined.rationales, gold))
        rows["sentence_solution"].append(sentence_scores["solution"])
        rows["sentence_argument"].append(sentence_scores["argument"])
        rows["extraction"].append(eval_binary(mined.text_of, annotation.design_ids()))

    csv_path = out / "metrics.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["metric", "precision", "recall", "f1"])
        for metric, values in rows.items():
            if values:
                mean = PRF(*(sum(v[i] for v in values) / len(values) for i in range(3)))
            else:
                mean = PRF(0.0, 0.0, 0.0)
            writer.writerow([metric, f"{mean.precision:.4f}", f"{mean.recall:.4f}",
                             f"{mean.f1:.4f}"])
            print(f"{metric:20s} P={mean.precision:.4f} R={mean.recall:.4f} "
                  f"F1={mean.f1:.4f}")
    print(f"metrics -> {csv_path}")
    return failures


def cmd_split(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    train, test = split_dataset(issues, cfg.seed)
    out = _outdir(cfg)
    payload = {
        "seed": cfg.seed,
        "train": [i.key for i in train],
        "test": [i.key for i in test],
    }
    _write_json(out / "split.json", payload)
    print(f"train ({len(train)}): {', '.join(payload['train'])}")
    print(f"test ({len(test)}): {', '.join(payload['test'])}")
    return 0


def cmd_ablate(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    annotations = _require_annotations(cfg)
    analyzer = _analyzer(cfg)
    train, test = split_dataset(issues, cfg.seed)
    train_texts, train_features, train_labels, _ = collect_extraction_data(
        train, annotations, analyzer)
    test_texts, test_features, test_labels, _ = collect_extraction_data(
        test, annotations, analyzer)
    dimensions: list[str | None] = [None]
    dimensions.extend(args.dimension or sorted(FEATURE_GROUPS))
    results = []
    for dimension in dimensions:
        result = run_ablation(train_texts, train_features, train_labels,
                              test_texts, test_features, test_labels, dimension)
        results.append(result)
        print(f"{result.dimension:10s} masked={len(result.masked_slots):2d} "
              f"P={result.precision:.4f} R={result.recall:.4f} F1={result.f1:.4f}")
    out = _outdir(cfg)
    path = _write_json(out / "ablation.json", [result.__dict__ for result in results])
    print(f"ablation -> {path}")
    return 0


def cmd_stats(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    annotations = load_annotations(cfg.annotations_path) if cfg.annotations_path else None
    table = corpus_stats(issues, annotations)
    header = f"{'project':12s} {'issues':>6s} {'comments':>8s} {'sentences':>9s} {'design':>6s}"
    print(header)
    for row in table:
        print(f"{row['project']:12s} {row['issues']:6d} {row['comments']:8d} "
              f"{row['sentences']:9d} {row['design_sentences']:6d}")
    return 0


def cmd_export(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    out = _outdir(cfg)
    failures = 0
    paths = sorted(out.glob("*.rationales.json"))
    if not paths:
        print(f"no mined outputs under {out}", file=sys.stderr)
        return 1
    for path in paths:
        target = path.with_name(path.name[: -len(".json")] + ".md")
        try:
            mined = read_mined(path)
            target.write_text(render_markdown(mined.issue, mined.rationales, mined.text_of),
                              encoding="utf-8")
        except (MalformedExport, OSError) as exc:
            failures += 1
            print(f"failed to export {path.name}: {exc}", file=sys.stderr)
            continue
        print(f"{path.name} -> {target.name}")
    return failures


# Each command: its help text and its function.
_COMMANDS: dict[str, tuple[str, _Command]] = {
    "ingest": ("parse, clean, and segment the corpus",
               _each_issue(lambda cfg: nullcontext(_outdir(cfg)), _ingest)),
    "extract": ("classify design sentences",
                _each_issue(lambda cfg: _Pipeline(cfg, relate=False), _extract)),
    "pair": ("classify relations between design sentences", _each_issue(_Pipeline, _pair)),
    "mine": ("run the full pipeline and write rationales", _each_issue(_Pipeline, _mine)),
    "train": ("train classifier heads from annotations", cmd_train),
    "eval": ("score mined output against gold annotations", cmd_eval),
    "split": ("hold out one issue per project", cmd_split),
    "ablate": ("retrain with feature blocks removed", cmd_ablate),
    "stats": ("print corpus statistics", cmd_stats),
    "export": ("render mined rationales to markdown", cmd_export),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rationale-miner",
        description="Mine design rationales from issue-tracker discussion logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        _add_common(command)
        if name == "ablate":
            command.add_argument("--dimension", action="append",
                                 choices=sorted(FEATURE_GROUPS),
                                 help="feature block to ablate (repeatable); "
                                      "default: all blocks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        issues, skipped = [], []
        if args.command != "export":  # export reads mined files, not the corpus
            issues, skipped = load_corpus(cfg.corpus_dir, cfg.encoding,
                                          tuple(cfg.bot_authors))
            for line in skipped:
                print(f"skipping {line}", file=sys.stderr)
        failed = _COMMANDS[args.command][1](cfg, issues, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MiningError, OSError) as exc:  # an OSError: a file the command writes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if skipped or failed else 0


if __name__ == "__main__":
    sys.exit(main())
