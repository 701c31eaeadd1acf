#!/usr/bin/env python3
"""Mine design rationales from the bundled fixture issue, end to end.

Runs the full three-phase pipeline — design-sentence extraction with the
cloze-prompt classifier, pairwise relation classification, and rationale
construction — against the checked-in issue fixture, using the scripted
backend so no model server is needed.  Prints the mined rationales as
markdown and optionally writes the JSON and markdown reports.

Usage:
    python scripts/mine_fixture_demo.py
    python scripts/mine_fixture_demo.py --out-dir out/demo
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from rationale_miner.backends.heads import load_head
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.config import SP_FINGERPRINT
from rationale_miner.corpus import clean_issue, parse_issue
from rationale_miner.miner import PromptHeadClassifier, PromptPairClassifier, mine_issue

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--issue", type=Path, default=FIXTURES / "flink-1320.json",
                        help="raw issue export to mine")
    parser.add_argument("--script", type=Path,
                        default=FIXTURES / "flink-1320-script.json",
                        help="scripted backend response file")
    parser.add_argument("--head", type=Path, default=FIXTURES / "golden-head.json",
                        help="trained extraction head")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="write <key>.rationales.{json,md} here")
    args = parser.parse_args()

    issue = clean_issue(parse_issue(json.loads(args.issue.read_text(encoding="utf-8"))))
    backend = ScriptedBackend.from_file(args.script)
    head = load_head(args.head, expected_fingerprint=SP_FINGERPRINT)
    classifier = PromptHeadClassifier(backend, head)

    result = mine_issue(issue, classifier, PromptPairClassifier(backend))

    print(f"design sentences: {len(result.design_ids)}")
    print(f"supporting edges: {len(result.graph.supporting)}")
    print(f"complementary pairs: {len(result.graph.complementary)}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    print()
    print(result.to_markdown())

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        json_path = args.out_dir / f"{issue.key}.rationales.json"
        json_path.write_text(json.dumps(result.to_json(), indent=2) + "\n",
                             encoding="utf-8")
        md_path = args.out_dir / f"{issue.key}.rationales.md"
        md_path.write_text(result.to_markdown(), encoding="utf-8")
        print(f"wrote {json_path} and {md_path}")


if __name__ == "__main__":
    main()
