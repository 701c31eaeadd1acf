"""Acceptance gate: one test per shipping criterion.

Each test carries the criterion number in its name so a verbose run reads as
a pass/fail checklist.  Oracles live in tests/oracles.py and fixtures under
tests/fixtures/.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from rationale_miner.backends.heads import load_head
from rationale_miner.backends.baseline import train_baseline
from rationale_miner.backends.protocol import RemoteBackend
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.config import SP_FINGERPRINT
from rationale_miner.corpus import IssueLog, Sentence
from rationale_miner.errors import BudgetExhausted, ProtocolError, TransportError
from rationale_miner.evaluation import (
    collect_extraction_data,
    dimension_slots,
    eval_binary,
    eval_rationales,
    eval_sentences,
    run_ablation,
    split_dataset,
)
from rationale_miner.features import POLARITY_WORDS, compute_feature_matrix
from rationale_miner.miner import (
    PromptHeadClassifier,
    PromptPairClassifier,
    Rationale,
    RelationGraph,
    SupportingEdge,
    construct_rationales,
    mine_issue,
)
from rationale_miner.prompts import (
    PAIR_INSTRUCTION,
    TokenBudget,
    build_cloze_prompt,
    build_pair_prompt,
)
from rationale_miner.sentiment import SentimentAnalyzer
from rationale_miner.synthetic import make_design_corpus

from oracles import oracle_construct, oracle_rationale_prf, oracle_sentence_prf
from stub_server import expected_probs, expected_text, run_stub


def _sentence(sid: str, text: str, comment_index: int | None = 0,
              global_index: int = 0, kind: str = "comment") -> Sentence:
    return Sentence(id=sid, text=text, kind=kind, comment_index=comment_index,
                    block_index=0, global_index=global_index, author="a",
                    issue_key="DEMO-1")


@pytest.fixture(scope="module")
def synthetic_split():
    """Held-out split of the separable synthetic corpus, features included."""
    issues, annotations = make_design_corpus(seed=0, min_sentences=200)
    train, test = split_dataset(issues, seed=0)
    analyzer = SentimentAnalyzer()
    train_data = collect_extraction_data(train, annotations, analyzer)
    test_data = collect_extraction_data(test, annotations, analyzer)
    return train_data, test_data


# ---------------------------------------------------------------------------

def test_criterion_01_dimensional_consistency():
    started = time.perf_counter()
    issues, _ = make_design_corpus(seed=17, min_sentences=1000)
    backend = ScriptedBackend({"mask_probs": {"default": {"probs": [0.5] * 14}}})
    analyzer = SentimentAnalyzer()
    total = 0
    for issue in issues:
        sentences, matrix = compute_feature_matrix(issue, analyzer)
        assert matrix.shape == (len(sentences), 29)
        for sentence, row in zip(sentences, matrix):
            prompt = build_cloze_prompt(sentence, issue.summary)
            polarity = backend.mask_probs(prompt.text, POLARITY_WORDS)
            sp_vector = list(polarity) + list(row)
            assert len(row) == 29
            assert len(sp_vector) == 43
            total += 1
    assert total >= 1000
    assert time.perf_counter() - started < 5.0


def test_criterion_02_truncation_laws():
    started = time.perf_counter()
    rng = random.Random(2024)
    tuples = 0

    for _ in range(6000):
        max_seq = rng.randrange(1, 61)
        summary_len = rng.randrange(0, 31)
        sent_len = rng.randrange(1, 51)
        summary = " ".join(f"s{i}" for i in range(summary_len))
        body = " ".join(f"t{i}" for i in range(sent_len))
        sentence = _sentence("c0-s0", body)
        budget = TokenBudget(max_seq)
        cap = max_seq - summary_len - 8
        tuples += 1
        if cap < 1:
            with pytest.raises(BudgetExhausted):
                build_cloze_prompt(sentence, summary, budget)
            continue
        prompt = build_cloze_prompt(sentence, summary, budget)
        kept = prompt.text.split(" is [MASK] related to the issue:")[0].split()
        assert len(kept) == min(sent_len, cap)
        assert kept == body.split()[: len(kept)]  # leading prefix survives
        assert prompt.truncated == (sent_len > cap)

    def template_tokens(in_same: bool, distance: int) -> int:
        relation = "in" if in_same else "not in"
        rendered = (
            "### Instruction:\n"
            f"{PAIR_INSTRUCTION}\n"
            "### Input:\n"
            "Sentence 1: \n"
            "Sentence 2: \n"
            f"Two sentences are {relation} the same comment and their "
            f"distance is {distance}.\n"
            "### Response:\n"
        )
        return len(rendered.split())

    for _ in range(6000):
        max_seq = rng.randrange(1, 121)
        len1 = rng.randrange(1, 41)
        len2 = rng.randrange(1, 41)
        same = rng.random() < 0.5
        gi1 = rng.randrange(0, 30)
        gi2 = gi1 + rng.randrange(1, 10)
        s1 = _sentence("c0-s0", " ".join(f"a{i}" for i in range(len1)),
                       comment_index=0, global_index=gi1)
        s2 = _sentence("c5-s0" if not same else "c0-s1",
                       " ".join(f"b{i}" for i in range(len2)),
                       comment_index=0 if same else 5, global_index=gi2)
        budget = TokenBudget(max_seq)
        cap = (max_seq - template_tokens(same, gi2 - gi1)) // 2
        tuples += 1
        if cap < 1:
            with pytest.raises(BudgetExhausted):
                build_pair_prompt(s1, s2, budget)
            continue
        prompt = build_pair_prompt(s1, s2, budget)
        lines = prompt.text.splitlines()
        kept1 = next(l for l in lines if l.startswith("Sentence 1: ")).split()[2:]
        kept2 = next(l for l in lines if l.startswith("Sentence 2: ")).split()[2:]
        assert len(kept1) == min(len1, cap)
        assert len(kept2) == min(len2, cap)
        assert kept1 == [f"a{i}" for i in range(len(kept1))]
        assert kept2 == [f"b{i}" for i in range(len(kept2))]

    assert tuples >= 10000
    assert time.perf_counter() - started < 5.0


def test_criterion_03_construction_matches_bruteforce_oracle():
    started = time.perf_counter()
    rng = random.Random(1234)
    disagreements = 0
    for _ in range(1000):
        n = rng.randrange(0, 11)
        nodes = [f"n{i}" for i in range(n)]
        order = {node: i for i, node in enumerate(nodes)}
        supporting = [(a, b) for a in nodes for b in nodes
                      if a != b and rng.random() < 0.15]
        complementary = [(nodes[i], nodes[j])
                         for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.15]
        graph = RelationGraph(
            nodes=nodes, order=order,
            supporting=[SupportingEdge(argument=a, solution=s)
                        for a, s in supporting],
            complementary=complementary,
        )
        got = [{"solution": r.solution, "arguments": r.arguments}
               for r in construct_rationales(graph).rationales]
        want = oracle_construct(nodes, order, supporting, complementary)
        if got != want:
            disagreements += 1
    assert disagreements == 0
    assert time.perf_counter() - started < 30.0


def test_criterion_04_metrics_match_oracle():
    # hand-computed cases first
    prf = eval_rationales(
        [Rationale(["a"], []), Rationale(["b"], []), Rationale(["x"], [])],
        [Rationale(["a"], []), Rationale(["b"], [])])
    assert prf.precision == pytest.approx(2 / 3)
    assert prf.recall == 1.0
    assert prf.f1 == pytest.approx(0.8)

    assert eval_rationales([], []) == (1.0, 1.0, 1.0)
    assert eval_rationales([], [Rationale(["a"], [])]) == (0.0, 0.0, 0.0)
    assert eval_rationales([Rationale(["a"], [])], []) == (0.0, 0.0, 0.0)
    assert eval_rationales(
        [Rationale(["a"], []), Rationale(["b"], [])],
        [Rationale(["a", "b"], [])]) == (1.0, 1.0, 1.0)

    order = {"s1": 0, "s2": 1, "a1": 2, "a2": 3, "s3": 4, "x": 5}
    by_category = eval_sentences(
        [Rationale(["s1"], [["a1", "a2"]]), Rationale(["s3", "x"], [])],
        [Rationale(["s1", "s2"], [["a1"], ["a2"]]), Rationale(["s3"], [])],
        order)
    assert by_category["solution"].precision == pytest.approx(2 / 3)
    assert by_category["solution"].recall == pytest.approx(2 / 3)
    assert by_category["argument"] == (1.0, 1.0, 1.0)

    # randomized comparison against the independent oracle
    rng = random.Random(77)
    universe = [f"s{i}" for i in range(10)]
    order = {sid: i for i, sid in enumerate(universe)}

    def random_rationales() -> list[Rationale]:
        ids = universe[:]
        rng.shuffle(ids)
        out = []
        while ids and len(out) < 3 and rng.random() < 0.8:
            solution = [ids.pop() for _ in range(rng.randrange(1, 3)) if ids]
            if not solution:
                break
            arguments = []
            while ids and rng.random() < 0.4:
                group = [ids.pop() for _ in range(rng.randrange(1, 3)) if ids]
                if group:
                    arguments.append(group)
            out.append(Rationale(solution=solution, arguments=arguments))
        return out

    disagreements = 0
    for _ in range(500):
        predicted = random_rationales()
        gold = random_rationales()
        pred_dicts = [{"solution": r.solution, "arguments": r.arguments}
                      for r in predicted]
        gold_dicts = [{"solution": r.solution, "arguments": r.arguments}
                      for r in gold]
        got = eval_rationales(predicted, gold)
        want = oracle_rationale_prf(pred_dicts, gold_dicts)
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            disagreements += 1
        got_sentences = eval_sentences(predicted, gold, order)
        want_sentences = oracle_sentence_prf(pred_dicts, gold_dicts, order)
        for category in ("solution", "argument"):
            if any(abs(g - w) > 1e-12 for g, w in
                   zip(got_sentences[category], want_sentences[category])):
                disagreements += 1
    assert disagreements == 0


def test_criterion_05_golden_mine_byte_exact(golden_issue, fixtures_dir):
    backend = ScriptedBackend.from_file(fixtures_dir / "flink-1320-script.json")
    head = load_head(fixtures_dir / "golden-head.json",
                     expected_fingerprint=SP_FINGERPRINT)
    classifier = PromptHeadClassifier(backend=backend, head=head)
    result = mine_issue(golden_issue, classifier, PromptPairClassifier(backend))
    produced = (json.dumps(result.to_json(), indent=2) + "\n").encode("utf-8")
    assert produced == (fixtures_dir / "mined-expected.json").read_bytes()

    # the golden issue exercises all three structural shapes
    rationales = result.rationales
    assert len(rationales[0].solution) == 2          # multi-sentence solution
    assert ["c1-s0", "c1-s1"] in rationales[0].arguments  # two-sentence group
    assert rationales[1].arguments == []             # argument-less solution


def test_criterion_06_sentiment_fidelity(fixtures_dir):
    suite = json.loads((fixtures_dir / "sentiment-suite.json").read_text(
        encoding="utf-8"))
    analyzer = SentimentAnalyzer()
    assert len(suite) == 20
    for case in suite:
        scores = analyzer.scores(case["text"])
        assert scores.compound == pytest.approx(case["compound"], abs=0.05), case["text"]
        assert scores.pos + scores.neu + scores.neg == pytest.approx(1.0, abs=1e-6)


def test_criterion_07_baseline_learnability(synthetic_split, tmp_path):
    started = time.perf_counter()
    (train_texts, train_features, train_labels, _) = synthetic_split[0]
    (test_texts, test_features, test_labels, _) = synthetic_split[1]
    assert len(train_texts) + len(test_texts) >= 200

    model = train_baseline(train_texts, train_features, train_labels)
    predictions = model.predict(test_texts, test_features)
    prf = eval_binary(np.flatnonzero(predictions), np.flatnonzero(test_labels))
    assert prf.f1 >= 0.9

    majority = int(np.bincount(train_labels).argmax())
    majority_prf = eval_binary(
        np.flatnonzero(np.full_like(test_labels, majority)), np.flatnonzero(test_labels))
    assert prf.f1 > majority_prf.f1

    first, second = tmp_path / "run1.json", tmp_path / "run2.json"
    model.save(first)
    train_baseline(train_texts, train_features, train_labels).save(second)
    assert first.read_bytes() == second.read_bytes()
    assert time.perf_counter() - started < 60.0


def test_criterion_08_ablation_mechanics(synthetic_split):
    assert [len(dimension_slots(d)) for d in
            ("process", "position", "keyword", "structure", "sentiment")] == [
        5, 3, 14, 3, 4]

    (train_texts, train_features, train_labels, _) = synthetic_split[0]
    (test_texts, test_features, test_labels, _) = synthetic_split[1]
    full = run_ablation(train_texts, train_features, train_labels,
                        test_texts, test_features, test_labels, None)
    for dimension in ("process", "position", "keyword", "structure", "sentiment"):
        ablated = run_ablation(train_texts, train_features, train_labels,
                               test_texts, test_features, test_labels, dimension)
        assert ablated.f1 <= full.f1, dimension


def test_criterion_09_split_reproducibility():
    issues = [IssueLog(key=f"{p}-{n:02d}", summary="S.", description="D.",
                       reporter="r")
              for p in ("AAA", "BBB", "CCC") for n in range(1, 11)]
    train, test = split_dataset(issues, seed=7)
    assert len(test) == 3 and len(train) == 27

    again = split_dataset(issues, seed=7)
    assert [i.key for i in again[0]] == [i.key for i in train]
    assert [i.key for i in again[1]] == [i.key for i in test]

    picks = {tuple(i.key for i in split_dataset(issues, seed)[1])
             for seed in range(100)}
    assert len(picks) > 1


def test_criterion_10_wire_protocol_conformance():
    rng = random.Random(99)
    with run_stub() as server:
        backend = RemoteBackend(server.url)
        parse_failures = 0
        for i in range(100):
            if i % 2 == 0:
                count = rng.randrange(1, 15)
                prompt = "p" * rng.randrange(1, 40) + " [MASK]"
                probs = backend.mask_probs(
                    prompt, tuple(f"w{j}" for j in range(count)))
                if list(probs) != expected_probs(prompt, count):
                    parse_failures += 1
            else:
                prompt = "g" * rng.randrange(1, 60)
                text = backend.generate(prompt, max_tokens=rng.randrange(1, 9))
                if text != expected_text(prompt):
                    parse_failures += 1
        assert parse_failures == 0

        for mode in ("non-json", "wrong-length", "out-of-range", "missing-field"):
            server.failure_mode = mode
            with pytest.raises(ProtocolError):
                backend.mask_probs("x [MASK]", ("a", "b"))
        for mode in ("non-json", "missing-field"):
            server.failure_mode = mode
            with pytest.raises(ProtocolError):
                backend.generate("x")
        server.failure_mode = "status-500"
        with pytest.raises(TransportError):
            backend.generate("x")
