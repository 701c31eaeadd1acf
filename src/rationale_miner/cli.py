"""Command-line entry point.

Every command but ``export`` reads the corpus first.  Exit codes: 0 on
success, 1 when a corpus file was skipped or an item (an issue, an annotation,
a mined file) failed, or a runtime error or a failed write stopped the
command, 2 on configuration errors.

The commands that train, evaluate, split, ablate or count import
``evaluation`` when they run, and ``eval`` imports ``csv`` with it.
``backends.baseline``, the one module that imports numpy, loads only for
``train``, ``ablate`` and baseline mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import Future
from contextlib import closing, nullcontext, suppress
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, ContextManager

from .backends.heads import save_head
from .config import (
    SP_FINGERPRINT,
    UNSTAMPED,
    RunConfig,
    build_backend,
    build_classifier,
    build_pair_classifier,
    load_config,
)
from .corpus import IssueLog, enumerate_sentences, load_corpus, read_regular_file, sentence_order
from .errors import (
    ConfigError,
    DegenerateData,
    MalformedExport,
    MiningError,
    UnknownSentence,
    shown,
)
from .features import FEATURE_BLOCKS, compute_feature_matrix
from .miner import (
    ARGUMENT,
    SOLUTION,
    CallPool,
    RelationGraph,
    SupportingEdge,
    design_entries,
    extract_stage,
    in_issue_order,
    mine_issue,
    read_mined,
    relate_stage,
    render_markdown,
    sp_matrix,
)
from .sentiment import SentimentAnalyzer

if TYPE_CHECKING:
    from .evaluation import Annotation

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

# The user extended attribute that marks a stage file (``<KEY>.design.json``
# or ``<KEY>.relations.json``) as written for its issue's inputs key: the
# sha256 of that key and the file's bytes.  A later command reuses a stage
# file only when its mark holds (see ``_read_marked``).
SOURCE_MARK = "user.rationale_miner.source"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", help="JSON config file")
    for flag, (_, help_text, kind) in _OVERRIDE_FLAGS.items():
        parser.add_argument("--" + flag.replace("_", "-"), type=kind, help=help_text)


def _overrides(args: argparse.Namespace) -> dict:
    """Each config key's flag value; None for a flag not given."""
    return {key: getattr(args, flag) for flag, (key, _, _) in _OVERRIDE_FLAGS.items()}


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, say
        raise ConfigError(f"output_dir {shown(cfg.output_dir)} is not a usable directory: "
                          f"{exc.strerror}") from exc
    return out


def _check_outside_corpus(cfg: RunConfig) -> None:
    """A ConfigError if ``output_dir`` is the corpus directory, under any
    spelling: every later run would read the outputs as issue exports."""
    if _same_path(cfg.output_dir, cfg.corpus_dir):
        raise ConfigError(f"output_dir {shown(cfg.output_dir)} is the corpus directory "
                          f"{shown(cfg.corpus_dir)}: write the outputs elsewhere")


def _same_path(a: str | Path, b: str | Path) -> bool:
    """Whether ``a`` and ``b`` name one file under any spelling: the same
    file where both exist, else the same path once resolved."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # either one missing, say
        return os.path.realpath(a) == os.path.realpath(b)


def _check_model_paths(cfg: RunConfig, config_path: str | None) -> None:
    """A ConfigError if a model path that ``train`` writes names, under any
    spelling, the config file, an input file, the corpus directory or a file
    in it, or the other model path: the model would replace it."""
    keys = ("baseline_path", "pair_baseline_path") if cfg.mode == "baseline" else ("head_path",)
    written = [(key, getattr(cfg, key)) for key in keys if getattr(cfg, key)]
    inputs = [("the config file", config_path)] + [
        (key, getattr(cfg, key)) for key in ("annotations_path", "lexicon_path", "script_path")]
    for key, path in written:
        for name, other in inputs + [item for item in written if item[0] != key]:
            if other and _same_path(path, other):
                raise ConfigError(f"{key} {shown(path)} is {name} {shown(other)}: "
                                  "write the model elsewhere")
        if _same_path(path, cfg.corpus_dir) or _same_path(Path(path).parent, cfg.corpus_dir):
            raise ConfigError(f"{key} {shown(path)} is, or is in, the corpus directory "
                              f"{shown(cfg.corpus_dir)}: write the model elsewhere")


def _write_json(path: Path, payload, key: bytes | None = None) -> Path:
    """Write ``payload`` to ``path``, and with ``key`` mark the file as
    written for that inputs key.  Where the platform or the file system keeps
    no user xattrs the file stays unmarked, and no later command reuses it."""
    text = json.dumps(payload, indent=2) + "\n"
    path.write_text(text, encoding="utf-8")
    if key is not None:
        with suppress(AttributeError, OSError):  # AttributeError: no os.setxattr here
            os.setxattr(path, SOURCE_MARK, _mark(key, text.encode("utf-8")))
    return path


def _mark(key: bytes, data: bytes) -> bytes:
    return hashlib.sha256(key + data).digest()


def _read_marked(path: Path, key: bytes):
    """The JSON value in ``path`` if the file's mark says that these bytes
    were written for ``key``; else None: no file or no mark (a copy keeps
    none), bytes that changed since, another inputs key, or no xattrs here."""
    try:
        mark = os.getxattr(path, SOURCE_MARK)
        data = path.read_bytes()
    except (AttributeError, OSError):  # AttributeError: no os.getxattr here
        return None
    if mark != _mark(key, data):
        return None
    try:
        return json.loads(data)
    except (ValueError, RecursionError):
        return None


def _file_digest(path: str | Path | None) -> str | None:
    """The sha256 of the file at ``path``; None for no path or a file that
    cannot be read or is no regular file, which a key the mode does not use
    may name."""
    try:
        return hashlib.sha256(read_regular_file(path)).hexdigest() if path else None
    except OSError:
        return None


def _run_stamp(cfg: RunConfig) -> bytes:
    """The part of every inputs key of a run that is not its issue: each config
    key but the UNSTAMPED ones (a ``*_path`` key by the bytes of its file),
    and the bytes of this package's files, so that no other release of the
    miner reuses this one's stage files."""
    package_dir = Path(__file__).resolve().parent
    stamp = {"config": {key: _file_digest(value) if key.endswith("_path") else value
                        for key, value in asdict(cfg).items() if key not in UNSTAMPED},
             "package": {path.relative_to(package_dir).as_posix(): _file_digest(path)
                         for path in package_dir.rglob("*")
                         if path.is_file() and "__pycache__" not in path.parts}}
    return hashlib.sha256(json.dumps(stamp, sort_keys=True).encode()).digest()


def _require_annotations(cfg: RunConfig) -> list[Annotation]:
    if not cfg.annotations_path:
        raise ConfigError("annotations_path is required for this command")
    from .evaluation import load_annotations

    return load_annotations(cfg.annotations_path)


class _Run:
    """What every step of a run shares: its one pool of backend calls, the
    backend (only prompt_head mode builds one) and the sentiment analyzer.
    Closing it stops the pool, then closes the backend."""

    def __init__(self, cfg: RunConfig):
        self.calls = CallPool(cfg.workers)
        self.backend = build_backend(cfg) if cfg.mode == "prompt_head" else None
        self.analyzer = SentimentAnalyzer(cfg.lexicon_path)

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, *exc_info) -> None:
        self.calls.close()
        if self.backend is not None:
            self.backend.close()


class _Pipeline(_Run):
    """The run of the extract, pair and mine steps, with their classifiers,
    output directory and run stamp; ``pairs`` is None unless ``relate``."""

    def __init__(self, cfg: RunConfig, relate: bool = True):
        super().__init__(cfg)
        self.classifier = build_classifier(cfg, self.backend, self.calls)
        self.pairs = build_pair_classifier(cfg, self.backend, self.calls) if relate else None
        self.out = _outdir(cfg)
        self.stamp = _run_stamp(cfg)

    def inputs_key(self, issue: IssueLog) -> bytes:
        """What the issue's stage files of this run are marked for: the run
        stamp and the cleaned issue, by its dataclass repr, which shows every
        field."""
        return hashlib.sha256(self.stamp + repr(issue).encode()).digest()

    def stage_file(self, issue: IssueLog, stage: str) -> Path:
        """The issue's ``<KEY>.<stage>.json`` in this run's output directory."""
        return self.out / f"{issue.key}.{stage}.json"


_Step = Callable[[IssueLog, Any], tuple[str, list[str]]]
# A command: it gets the config, the cleaned corpus and the parsed flags, and
# returns the number of items (issues, annotations, mined files) it failed.
_Command = Callable[[RunConfig, list[IssueLog], argparse.Namespace], int]


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
    """The command that runs ``step(issue, context)`` on every issue through
    ``in_issue_order``, ``context`` being what ``build(cfg)`` enters; it is
    left once every issue is done.  The step writes the issue's outputs and
    returns its stdout line and its warnings, which ``_report`` writes in
    corpus order.  The command returns the number of failed issues.
    """
    def run(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
        with build(cfg) as context, closing(
                in_issue_order(issues, lambda issue: step(issue, context))) as done:
            return sum(_report(issue, job) for issue, job in done)

    return run


def _ingest(issue: IssueLog, out: Path) -> tuple[str, list[str]]:
    sentences = enumerate_sentences(issue)
    path = out / f"{issue.key}.sentences.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for s in sentences:
            handle.write(json.dumps(asdict(s)) + "\n")
    return f"{issue.key}: {len(sentences)} sentences -> {path}", []


def _design_file(issue: IssueLog, sentences: list, scores: list[float], design: list) -> dict:
    """What ``<KEY>.design.json`` holds for ``extract_stage``'s result."""
    return {"issue": issue.key, "design": design_entries(sentences, scores,
                                                         [s.id for s in design])}


def _design_of(issue: IssueLog, payload) -> tuple[list, list[float], list]:
    """The ``extract_stage`` result that a design file names: each design
    sentence is the issue's sentence of that id.  The file scores the design
    sentences alone: the others score NaN."""
    sentences = enumerate_sentences(issue)
    index_of = {s.id: i for i, s in enumerate(sentences)}
    chosen = [index_of[entry["id"]] for entry in payload["design"]]
    scores = [math.nan] * len(sentences)
    for i, entry in zip(chosen, payload["design"]):
        scores[i] = float(entry["score"])
    return sentences, scores, [sentences[i] for i in chosen]


def _relations_file(issue: IssueLog, graph: RelationGraph, warnings: list[str]) -> dict:
    """What ``<KEY>.relations.json`` holds for ``relate_stage``'s result."""
    return {"issue": issue.key, "design": graph.nodes, **graph.to_json(), "warnings": warnings}


def _relations_of(issue: IssueLog, payload) -> tuple[RelationGraph, list[str]]:
    """The ``relate_stage`` result that a relations file names."""
    graph = RelationGraph(nodes=payload["design"],
                          supporting=[SupportingEdge(**edge) for edge in payload["supporting"]],
                          complementary=[tuple(pair) for pair in payload["complementary"]])
    return graph, [w for w in payload["warnings"] if isinstance(w, str)]


# Each stage file, by the ``<stage>`` of ``<KEY>.<stage>.json``: the payload it
# holds for a result of that stage, and the result that a payload names.
_STAGE_FILES = {"design": (_design_file, _design_of),
                "relations": (_relations_file, _relations_of)}


def _reused(issue: IssueLog, run: _Pipeline, key: bytes, stage: str):
    """The stage's result as the issue's stage file names it, if the file's
    mark holds for ``key`` and the file holds what it would hold for that
    result; else None."""
    payload = _read_marked(run.stage_file(issue, stage), key)
    if payload is None:
        return None
    to_file, from_file = _STAGE_FILES[stage]
    try:
        result = from_file(issue, payload)
    except (KeyError, TypeError, ValueError, OverflowError, MiningError):
        return None
    return result if to_file(issue, *result) == payload else None


def _extract(issue: IssueLog, run: _Pipeline) -> tuple[str, list[str]]:
    sentences, scores, design = extract_stage(issue, run.classifier, run.analyzer)
    path = _write_json(run.stage_file(issue, "design"),
                       _design_file(issue, sentences, scores, design), run.inputs_key(issue))
    return f"{issue.key}: {len(design)}/{len(sentences)} design sentences -> {path}", []


def _pair(issue: IssueLog, run: _Pipeline) -> tuple[str, list[str]]:
    key = run.inputs_key(issue)
    _, _, design = (_reused(issue, run, key, "design")
                    or extract_stage(issue, run.classifier, run.analyzer))
    graph, warnings = relate_stage(design, run.pairs)
    path = _write_json(run.stage_file(issue, "relations"),
                       _relations_file(issue, graph, warnings), key)
    return (f"{issue.key}: {len(graph.supporting)} supporting, "
            f"{len(graph.complementary)} complementary -> {path}"), warnings


def _mine(issue: IssueLog, run: _Pipeline) -> tuple[str, list[str]]:
    key = run.inputs_key(issue)
    result = mine_issue(issue, run.classifier, run.pairs, run.analyzer,
                        _reused(issue, run, key, "design"), _reused(issue, run, key, "relations"))
    json_path = _write_json(run.out / f"{issue.key}.rationales.json", result.to_json())
    (run.out / f"{issue.key}.rationales.md").write_text(result.to_markdown(),
                                                        encoding="utf-8")
    return f"{issue.key}: {len(result.rationales)} rationale(s) -> {json_path}", result.warnings


_NO_TRAINING_DATA = "the annotations label no sentence of the corpus"


def _head_rows(issue: IssueLog, annotation: Annotation, run: _Run, budget: int
               ) -> tuple[list[list[float]], list[int]]:
    """The ``sp_matrix`` row and the design label of each sentence of an issue."""
    sentences, matrix = compute_feature_matrix(issue, run.analyzer)
    rows = sp_matrix(sentences, matrix, issue.summary, run.backend, budget, pool=run.calls)
    return rows, [annotation.design_label(s.id) for s in sentences]


def cmd_train(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    from .backends.baseline import (
        collect_extraction_data,
        collect_pair_data,
        train_baseline,
        train_head,
        train_pair_baseline,
    )

    _check_model_paths(cfg, args.config)
    annotations = _require_annotations(cfg)
    if cfg.mode == "baseline":
        if not cfg.baseline_path:
            raise ConfigError("baseline_path is required to train in baseline mode")
        texts, features, labels = collect_extraction_data(
            issues, annotations, SentimentAnalyzer(cfg.lexicon_path))
        if not texts:
            raise DegenerateData(_NO_TRAINING_DATA)
        model = train_baseline(texts, features, labels)
        model.save(cfg.baseline_path)
        print(f"design baseline trained on {len(texts)} sentences -> {cfg.baseline_path}")
        if cfg.pair_baseline_path:
            matrix, pair_labels = collect_pair_data(issues, annotations)
            if len(set(pair_labels)) >= 2:
                pair_model = train_pair_baseline(matrix, pair_labels)
                pair_model.save(cfg.pair_baseline_path)
                print(f"pair baseline trained on {len(pair_labels)} pairs "
                      f"-> {cfg.pair_baseline_path}")
            else:
                print("pair baseline skipped: annotations yield a single relation class")
    else:
        if not cfg.head_path:
            raise ConfigError("head_path is required to train in prompt_head mode")
        by_issue = {a.issue: a for a in annotations}
        annotated = [issue for issue in issues if issue.key in by_issue]
        rows, labels = [], []
        with _Run(cfg) as run, closing(in_issue_order(annotated, lambda issue: _head_rows(
                issue, by_issue[issue.key], run, cfg.cloze_max_sequence))) as done:
            for _, job in done:  # the first failed issue stops the command
                issue_rows, issue_labels = job.result()
                rows.extend(issue_rows)
                labels.extend(issue_labels)
        if not rows:
            raise DegenerateData(_NO_TRAINING_DATA)
        head = train_head(rows, labels, num_classes=2, fingerprint=SP_FINGERPRINT)
        save_head(head, cfg.head_path)
        print(f"cloze head trained on {len(rows)} sentences -> {cfg.head_path}")
    return 0


def cmd_eval(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    import csv

    from .evaluation import PRF, eval_binary, eval_rationales, eval_sentences

    annotations = _require_annotations(cfg)
    if not annotations:
        raise DegenerateData(f"{shown(cfg.annotations_path)} holds no annotation to score")
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
        rows["sentence_solution"].append(sentence_scores[SOLUTION])
        rows["sentence_argument"].append(sentence_scores[ARGUMENT])
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
    from .evaluation import split_dataset

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
    from .backends.baseline import collect_extraction_data, run_ablation
    from .evaluation import split_dataset

    annotations = _require_annotations(cfg)
    analyzer = SentimentAnalyzer(cfg.lexicon_path)
    train, test = split_dataset(issues, cfg.seed)
    train_texts, train_features, train_labels = collect_extraction_data(
        train, annotations, analyzer)
    test_texts, test_features, test_labels = collect_extraction_data(
        test, annotations, analyzer)
    for split, texts in (("training", train_texts), ("held-out", test_texts)):
        if not texts:
            raise DegenerateData(f"{_NO_TRAINING_DATA}'s {split} split")
    dimensions: list[str | None] = [None]
    dimensions.extend(args.dimension or sorted(FEATURE_BLOCKS))
    results = []
    for dimension in dimensions:
        result = run_ablation(train_texts, train_features, train_labels,
                              test_texts, test_features, test_labels, dimension)
        results.append(result)
        print(f"{result.dimension:10s} masked={len(result.masked_slots):2d} "
              f"P={result.precision:.4f} R={result.recall:.4f} F1={result.f1:.4f}")
    out = _outdir(cfg)
    path = _write_json(out / "ablation.json", [asdict(result) for result in results])
    print(f"ablation -> {path}")
    return 0


def cmd_stats(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    from .evaluation import corpus_stats, load_annotations

    annotations = load_annotations(cfg.annotations_path) if cfg.annotations_path else None
    table = corpus_stats(issues, annotations)
    header = f"{'project':12s} {'issues':>6s} {'comments':>8s} {'sentences':>9s} {'design':>6s}"
    print(header)
    for row in table:
        print(f"{row['project']:12s} {row['issues']:6d} {row['comments']:8d} "
              f"{row['sentences']:9d} {row['design_sentences']:6d}")
    return 0


def cmd_export(cfg: RunConfig, issues: list[IssueLog], args: argparse.Namespace) -> int:
    out = Path(cfg.output_dir)  # read, and never made: a missing one holds no outputs
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"output_dir {shown(cfg.output_dir)} is not a directory")
    failures = 0
    paths = sorted(out.glob("*.rationales.json")) if os.path.isdir(out) else []
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
                                 choices=sorted(FEATURE_BLOCKS),
                                 help="feature block to ablate (repeatable); "
                                      "default: all blocks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        issues, skipped = [], []
        if args.command != "export":  # export reads mined files, not the corpus
            _check_outside_corpus(cfg)
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
