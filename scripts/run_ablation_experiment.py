#!/usr/bin/env python3
"""Run the feature-dimension ablation study for the baseline extractor.

Splits a corpus into train/test (one uniformly drawn test issue per project),
trains the tf-idf + dense-feature baseline on the full feature set and once
per feature dimension with that dimension's slots zeroed, and reports
precision/recall/F1 for each configuration on the held-out issues.

By default the study runs on a freshly generated synthetic corpus; point
--corpus/--annotations at a directory of raw issue exports and a JSONL
annotation file to run on real data instead.

Usage:
    python scripts/run_ablation_experiment.py --seed 0
    python scripts/run_ablation_experiment.py --corpus data/synthetic/corpus \
        --annotations data/synthetic/annotations.jsonl --json ablation.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from rationale_miner.evaluation import (
    FEATURE_GROUPS,
    collect_extraction_data,
    load_annotations,
    run_ablation,
    split_dataset,
)
from rationale_miner.corpus import load_corpus
from rationale_miner.synthetic import make_design_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=Path, default=None,
                        help="directory of raw issue exports (default: synthesise)")
    parser.add_argument("--annotations", type=Path, default=None,
                        help="JSONL annotation file (required with --corpus)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for corpus generation and the split (default: 0)")
    parser.add_argument("--min-sentences", type=int, default=600,
                        help="synthetic corpus size when no --corpus is given")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write results to this JSON file")
    args = parser.parse_args()

    if args.corpus is not None:
        if args.annotations is None:
            parser.error("--annotations is required when --corpus is given")
        issues, skipped = load_corpus(args.corpus)
        for line in skipped:
            print(f"skipping {line}", file=sys.stderr)
        annotations = load_annotations(args.annotations)
        print(f"loaded {len(issues)} issues from {args.corpus}")
    else:
        issues, annotations = make_design_corpus(
            seed=args.seed, min_sentences=args.min_sentences)
        print(f"generated {len(issues)} synthetic issues (seed {args.seed})")

    train_issues, test_issues = split_dataset(issues, seed=args.seed)
    print(f"split: {len(train_issues)} train / {len(test_issues)} test issues")
    train = collect_extraction_data(train_issues, annotations)
    test = collect_extraction_data(test_issues, annotations)
    train_texts, train_features, train_labels, _ = train
    test_texts, test_features, test_labels, _ = test
    print(f"{len(train_texts)} train sentences "
          f"({int(train_labels.sum())} design), "
          f"{len(test_texts)} test sentences "
          f"({int(test_labels.sum())} design)")
    print()

    results = []
    for dimension in [None, *FEATURE_GROUPS]:
        results.append(run_ablation(
            train_texts, train_features, train_labels,
            test_texts, test_features, test_labels,
            dimension=dimension,
        ))

    print(f"{'dimension':<12} {'masked':>7} {'precision':>10} {'recall':>8} {'f1':>8}")
    for r in results:
        name = r.dimension or "(full)"
        print(f"{name:<12} {len(r.masked_slots):>7} "
              f"{r.precision:>10.4f} {r.recall:>8.4f} {r.f1:>8.4f}")

    if args.json is not None:
        payload = [
            {"dimension": r.dimension, "masked_slots": list(r.masked_slots),
             "precision": r.precision, "recall": r.recall, "f1": r.f1}
            for r in results
        ]
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {args.json}")


if __name__ == "__main__":
    main()
