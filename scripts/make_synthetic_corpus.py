#!/usr/bin/env python3
"""Generate a synthetic annotated issue corpus on disk.

Writes one raw-export JSON file per issue plus a JSONL annotation file, in
exactly the layout the CLI commands (`ingest`, `train`, `split`, `ablate`,
`stats`) consume.  The generated corpus is label-separable by construction,
which makes it useful for smoke-testing the training and ablation paths
without any hand-labelled data.

Usage:
    python scripts/make_synthetic_corpus.py --out data/synthetic --seed 0
    rationale-miner stats --corpus data/synthetic/corpus \
        --annotations data/synthetic/annotations.jsonl
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from rationale_miner.evaluation import save_annotations
from rationale_miner.synthetic import make_design_corpus


def issue_to_export(issue) -> dict:
    """Serialise an IssueLog back into the raw export schema."""
    return {
        "key": issue.key,
        "summary": issue.summary,
        "description": issue.description,
        "reporter": issue.reporter,
        "comments": [
            {"author": c.author, "body": c.body, "created": c.created.isoformat()}
            for c in issue.comments
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("data/synthetic"),
                        help="output directory (default: data/synthetic)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default: 0)")
    parser.add_argument("--min-sentences", type=int, default=200,
                        help="keep generating issues until this many sentences exist")
    args = parser.parse_args()

    issues, annotations = make_design_corpus(seed=args.seed, min_sentences=args.min_sentences)

    corpus_dir = args.out / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for issue in issues:
        path = corpus_dir / f"{issue.key}.json"
        path.write_text(json.dumps(issue_to_export(issue), indent=2) + "\n",
                        encoding="utf-8")
    annotations_path = args.out / "annotations.jsonl"
    save_annotations(annotations, annotations_path)

    print(f"wrote {len(issues)} issues to {corpus_dir}")
    print(f"wrote {len(annotations)} annotations to {annotations_path}")


if __name__ == "__main__":
    main()
