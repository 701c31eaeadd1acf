from __future__ import annotations

import numpy as np
import pytest

from rationale_miner.backends.baseline import pair_features
from rationale_miner.backends.heads import LogisticHead
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.corpus import Sentence
from rationale_miner.errors import ProtocolError, SameSentence, UnknownSentence
from rationale_miner.features import FEATURE_NAMES, POLARITY_WORDS
from rationale_miner.miner import (
    BaselinePairClassifier,
    PairDecision,
    PromptHeadClassifier,
    PromptPairClassifier,
    Rationale,
    RelationGraph,
    SP_FEATURE_NAMES,
    SupportingEdge,
    build_relation_graph,
    classify_pairs,
    construct_rationales,
    extract_design_sentences,
    mine_issue,
    render_markdown,
)
from rationale_miner.prompts import RELATION_LABELS

from recording import Recording


def _graph(nodes: list[str], supporting=(), complementary=()) -> RelationGraph:
    order = {node: i for i, node in enumerate(nodes)}
    return RelationGraph(
        nodes=list(nodes), order=order,
        supporting=[SupportingEdge(argument=a, solution=s) for a, s in supporting],
        complementary=[tuple(p) for p in complementary],
    )


def _sentence(sid: str, text: str, comment_index: int | None, global_index: int,
              kind: str = "comment") -> Sentence:
    return Sentence(id=sid, text=text, kind=kind, comment_index=comment_index,
                    block_index=0, global_index=global_index, author="alice",
                    issue_key="DEMO-1")


def test_sp_feature_layout():
    assert len(SP_FEATURE_NAMES) == 43
    assert SP_FEATURE_NAMES[:14] == tuple(f"polarity_{w}" for w in POLARITY_WORDS)
    assert SP_FEATURE_NAMES[14:] == FEATURE_NAMES


# ---------------------------------------------------------------------------
# relation graph validation

def test_graph_rejects_unknown_nodes():
    with pytest.raises(UnknownSentence):
        _graph(["a"], supporting=[("a", "ghost")])
    with pytest.raises(UnknownSentence):
        _graph(["a"], complementary=[("a", "ghost")])


def test_graph_rejects_self_relations():
    with pytest.raises(SameSentence):
        _graph(["a"], supporting=[("a", "a")])
    with pytest.raises(SameSentence):
        _graph(["a"], complementary=[("a", "a")])


# ---------------------------------------------------------------------------
# rationale construction on hand graphs

def test_construct_simple_chain():
    graph = _graph(["sol", "arg", "lone"], supporting=[("arg", "sol")])
    # order: sol=0, arg=1, lone=2
    result = construct_rationales(graph)
    assert result.warnings == []
    assert [r.solution for r in result.rationales] == [["sol"], ["lone"]]
    assert result.rationales[0].arguments == [["arg"]]
    assert result.rationales[1].arguments == []


def test_construct_tie_role_goes_to_solution():
    # y has one incoming and one outgoing supporting edge; ties are solutions.
    graph = _graph(["x", "y", "z"], supporting=[("x", "y"), ("y", "z")])
    result = construct_rationales(graph)
    assert [r.solution for r in result.rationales] == [["y"], ["z"]]
    assert result.rationales[0].arguments == [["x"]]


def test_construct_isolated_nodes_become_argumentless_solutions():
    result = construct_rationales(_graph(["a", "b"]))
    assert [r.solution for r in result.rationales] == [["a"], ["b"]]
    assert all(r.arguments == [] for r in result.rationales)


def test_construct_complementary_merges_solution_groups():
    graph = _graph(["a", "b", "c"], complementary=[("a", "b"), ("b", "c")])
    result = construct_rationales(graph)
    assert [r.solution for r in result.rationales] == [["a", "b", "c"]]


def test_construct_cross_role_complementary_is_ignored_with_warning():
    graph = _graph(["arg", "sol"], supporting=[("arg", "sol")],
                   complementary=[("arg", "sol")])
    result = construct_rationales(graph)
    assert len(result.warnings) == 1
    assert "crosses roles" in result.warnings[0]
    assert [r.solution for r in result.rationales] == [["sol"]]
    assert result.rationales[0].arguments == [["arg"]]


def test_construct_drops_argument_group_without_solution_target():
    # b ends up an argument (2 outgoing vs 1 incoming), so a's only supporting
    # edge points at a non-solution and a's group is dropped.
    graph = _graph(["a", "b", "c", "d"],
                   supporting=[("a", "b"), ("b", "c"), ("b", "d")])
    result = construct_rationales(graph)
    assert len(result.warnings) == 1
    assert "dropped" in result.warnings[0]
    assert [r.solution for r in result.rationales] == [["c"], ["d"]]
    assert result.rationales[0].arguments == [["b"]]  # tie broken toward c
    assert result.rationales[1].arguments == []


def test_construct_attachment_tie_breaks_toward_earliest_group():
    graph = _graph(["s1", "s2", "a"], supporting=[("a", "s1"), ("a", "s2")])
    result = construct_rationales(graph)
    assert [r.solution for r in result.rationales] == [["s1"], ["s2"]]
    assert result.rationales[0].arguments == [["a"]]
    assert result.rationales[1].arguments == []


def test_construct_attachment_follows_majority_votes():
    graph = _graph(
        ["s1", "s2", "s3", "a1", "a2"],
        supporting=[("a1", "s1"), ("a2", "s2"), ("a1", "s3")],
        complementary=[("s1", "s2"), ("a1", "a2")],
    )
    # solution groups: [s1, s2] and [s3]; argument group [a1, a2] casts two
    # votes for the first group and one for the second.
    result = construct_rationales(graph)
    assert [r.solution for r in result.rationales] == [["s1", "s2"], ["s3"]]
    assert result.rationales[0].arguments == [["a1", "a2"]]
    assert result.rationales[1].arguments == []


def test_construct_orders_rationales_by_first_solution_index():
    graph = _graph(["a1", "late", "early"], supporting=[("a1", "late")])
    # order: a1=0, late=1, early=2; both solutions are argument-free except late
    result = construct_rationales(graph)
    assert [r.solution for r in result.rationales] == [["late"], ["early"]]


def test_construct_empty_graph():
    result = construct_rationales(_graph([]))
    assert result.rationales == []
    assert result.warnings == []


# ---------------------------------------------------------------------------
# design-sentence extraction

class _FixedScores:
    def __init__(self, scores):
        self._scores = np.asarray(scores, dtype=np.float64)

    def scores(self, sentences, features, summary):
        return self._scores


def test_extract_uses_half_as_inclusive_threshold():
    sentences = [_sentence(f"c0-s{i}", f"text {i}.", 0, i) for i in range(3)]
    features = np.zeros((3, 29))
    design, scores = extract_design_sentences(
        sentences, features, "summary", _FixedScores([0.5, 0.4999999, 0.7]))
    assert [s.id for s in design] == ["c0-s0", "c0-s2"]
    assert scores.tolist() == [0.5, 0.4999999, 0.7]


def test_extract_empty_input():
    design, scores = extract_design_sentences([], np.zeros((0, 29)), "s",
                                              _FixedScores([]))
    assert design == []
    assert scores.shape == (0,)


def test_prompt_head_classifier_combines_polarity_and_features():
    sentences = [
        _sentence("c0-s0", "We should redesign the cache.", 0, 1),
        _sentence("c1-s0", "Thanks for the report.", 1, 2),
    ]
    backend = ScriptedBackend({
        "mask_probs": {
            "rules": [{"contains": "redesign", "probs": [0.9] + [0.0] * 13}],
            "default": {"probs": [0.1] + [0.0] * 13},
        }
    })
    head = LogisticHead(weights=np.array([6.0] + [0.0] * 42), bias=-3.0)
    classifier = PromptHeadClassifier(backend=backend, head=head)
    scores = classifier.scores(sentences, np.zeros((2, 29)), "Cache bug")
    assert scores[0] == pytest.approx(0.9168273035060777, abs=1e-12)
    assert scores[1] == pytest.approx(0.08317269649392238, abs=1e-12)
    design, _ = extract_design_sentences(sentences, np.zeros((2, 29)),
                                         "Cache bug", classifier)
    assert [s.id for s in design] == ["c0-s0"]


# ---------------------------------------------------------------------------
# pair classification through a scripted backend

def _pair_backend(rules):
    return Recording(ScriptedBackend({"generate": {"rules": rules,
                                                   "default": {"text": "unrelated"}}}))


def _abc_sentences():
    return [
        _sentence("c0-s0", "Alpha proposes a cache.", 0, 1),
        _sentence("c1-s0", "Bravo supports the cache.", 1, 2),
        _sentence("c2-s0", "Charlie rejects eviction.", 2, 3),
    ]


def test_classify_pairs_forward_supporting():
    a, b, c = _abc_sentences()
    backend = _pair_backend([
        {"contains": ["Sentence 1: Alpha", "Sentence 2: Bravo"],
         "text": "supporting"},
        # reverse direction comes back unrelated, so the forward reading stands
        {"contains": ["Sentence 1: Bravo", "Sentence 2: Alpha"],
         "text": "unrelated"},
    ])
    decisions, warnings = classify_pairs([a, b, c], backend)
    assert warnings == []
    assert decisions == [
        PairDecision(kind="supporting", argument="c0-s0", solution="c1-s0",
                     pair=("c0-s0", "c1-s0")),
    ]


def test_classify_pairs_both_supporting_prefers_earlier_solution():
    a, b, c = _abc_sentences()
    backend = _pair_backend([
        {"contains": ["Sentence 1: Alpha", "Sentence 2: Charlie"],
         "text": "supporting"},
        {"contains": ["Sentence 1: Charlie", "Sentence 2: Alpha"],
         "text": "supporting"},
    ])
    decisions, warnings = classify_pairs([a, b, c], backend)
    assert warnings == []
    assert decisions == [
        PairDecision(kind="supporting", argument="c2-s0", solution="c0-s0",
                     pair=("c0-s0", "c2-s0")),
    ]


def test_classify_pairs_complementary_needs_no_reverse_query():
    a, b, c = _abc_sentences()
    backend = _pair_backend([
        {"contains": ["Sentence 1: Bravo", "Sentence 2: Charlie"],
         "text": "these look complementary to me"},
    ])
    decisions, warnings = classify_pairs([a, b, c], backend)
    assert warnings == []
    assert decisions == [
        PairDecision(kind="complementary", argument=None, solution=None,
                     pair=("c1-s0", "c2-s0")),
    ]
    reversed_prompts = [p for kind, p in backend.calls
                        if kind == "generate" and "Sentence 1: Charlie" in p
                        and "Sentence 2: Bravo" in p]
    assert reversed_prompts == []


def test_classify_pairs_unparsable_forward_downgrades_to_unrelated():
    a, b, c = _abc_sentences()
    backend = _pair_backend([
        {"contains": ["Sentence 1: Alpha", "Sentence 2: Bravo"],
         "text": "hmm, hard to say"},
    ])
    decisions, warnings = classify_pairs([a, b, c], backend)
    assert decisions == []
    assert len(warnings) == 1
    assert "c0-s0/c1-s0" in warnings[0] and "unparsable" in warnings[0]


def test_a_huge_unparsable_reply_is_cut_in_the_warning():
    a, b, c = _abc_sentences()
    reply = "hmm " * 25_000
    backend = _pair_backend([
        {"contains": ["Sentence 1: Alpha", "Sentence 2: Bravo"], "text": reply},
    ])
    _, [warning] = classify_pairs([a, b, c], backend)
    assert warning.startswith("pair c0-s0/c1-s0: unparsable response 'hmm hmm")
    assert warning.endswith(f" ({len(repr(reply))} chars); treated as unrelated")
    assert len(warning) < 300


def test_classify_pairs_unparsable_reverse_downgrades_to_unrelated():
    a, b, c = _abc_sentences()
    backend = _pair_backend([
        {"contains": ["Sentence 1: Alpha", "Sentence 2: Bravo"],
         "text": "supporting"},
        {"contains": ["Sentence 1: Bravo", "Sentence 2: Alpha"],
         "text": "???"},
    ])
    decisions, warnings = classify_pairs([a, b, c], backend)
    assert decisions == []
    assert len(warnings) == 1
    assert "reverse" in warnings[0]


def test_classify_pairs_earlier_sentence_is_always_sentence_one():
    a, b, c = _abc_sentences()
    backend = _pair_backend([])
    classify_pairs([c, a, b], backend)  # deliberately shuffled input
    # The probes run on pool threads, so they are recorded in no fixed order.
    firsts = sorted(p.split("Sentence 1: ", 1)[1].split(".", 1)[0]
                    for kind, p in backend.calls if kind == "generate")
    assert firsts == ["Alpha proposes a cache",
                      "Alpha proposes a cache",
                      "Bravo supports the cache"]


# ---------------------------------------------------------------------------
# graph assembly and result rendering

def test_build_relation_graph_sorts_edges_by_order():
    a, b, c = _abc_sentences()
    decisions = [
        PairDecision(kind="supporting", argument="c2-s0", solution="c0-s0",
                     pair=("c0-s0", "c2-s0")),
        PairDecision(kind="supporting", argument="c1-s0", solution="c0-s0",
                     pair=("c0-s0", "c1-s0")),
        PairDecision(kind="complementary", argument=None, solution=None,
                     pair=("c1-s0", "c2-s0")),
    ]
    graph = build_relation_graph([c, a, b], decisions)
    assert graph.nodes == ["c0-s0", "c1-s0", "c2-s0"]
    assert [(e.argument, e.solution) for e in graph.supporting] == [
        ("c1-s0", "c0-s0"), ("c2-s0", "c0-s0")]
    assert graph.complementary == [("c1-s0", "c2-s0")]


def test_render_markdown_missing_text_and_empty_cases():
    text = render_markdown("DEMO-1", [], {})
    assert "No rationales mined." in text
    text = render_markdown(
        "DEMO-1",
        [Rationale(solution=["x"], arguments=[["y"]])],
        {"x": "The fix."},
    )
    assert "- [x] The fix." in text
    assert "  - [y]" in text  # unknown id falls back to the bare id
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_mine_issue_single_design_sentence_skips_pair_stage(golden_issue):
    class OneHot:
        def scores(self, sentences, features, summary):
            return np.array([1.0 if s.id == "c0-s0" else 0.0 for s in sentences])

    # a backend with no generate section raises if the pair stage ever runs
    backend = ScriptedBackend({})
    result = mine_issue(golden_issue, OneHot(), PromptPairClassifier(backend))
    assert result.design_ids == ["c0-s0"]
    assert result.graph.supporting == [] and result.graph.complementary == []
    assert [r.solution for r in result.rationales] == [["c0-s0"]]
    assert result.warnings == []


def test_mine_issue_no_design_sentences(golden_issue):
    result = mine_issue(golden_issue, _FixedScores([0.0] * 10),
                        PromptPairClassifier(ScriptedBackend({})))
    assert result.design_ids == []
    assert result.rationales == []
    assert result.to_json()["rationales"] == []
    assert "No rationales mined." in result.to_markdown()


# ---------------------------------------------------------------------------
# baseline pair classifier

class _FixedLabels:
    """A pair model that answers fixed labels and keeps the rows it was given."""

    def __init__(self, labels):
        self.labels = labels
        self.rows = None

    def predict(self, rows):
        self.rows = rows
        return np.array([RELATION_LABELS.index(label) for label in self.labels])


def test_baseline_pair_classifier_direction_and_labels():
    a = _sentence("c0-s0", "We should cache the compiled plan.", 0, 0)
    b = _sentence("c1-s0", "Recompiling is slow.", 1, 1)
    c = _sentence("c2-s0", "Cache the statistics too.", 2, 2)
    model = _FixedLabels(["supporting", "complementary", "unrelated"])
    decisions, warnings = BaselinePairClassifier(model).relations([c, a, b])
    # one row per unordered pair, the earlier sentence first, as in training
    assert np.array_equal(model.rows, np.array(
        [pair_features(a, b), pair_features(a, c), pair_features(b, c)]))
    assert decisions == [
        # supporting: the earlier sentence is the solution
        PairDecision(kind="supporting", argument="c1-s0", solution="c0-s0",
                     pair=("c0-s0", "c1-s0")),
        PairDecision(kind="complementary", argument=None, solution=None,
                     pair=("c0-s0", "c2-s0")),
    ]
    assert warnings == []


def test_baseline_pair_classifier_asks_nothing_below_two_sentences():
    model = _FixedLabels([])
    assert BaselinePairClassifier(model).relations(
        [_sentence("c0-s0", "One.", 0, 0)]) == ([], [])
    assert model.rows is None
