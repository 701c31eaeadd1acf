from __future__ import annotations

import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationale_miner.backends.baseline import PairBaselineModel, pair_features
from rationale_miner.backends.heads import LogisticHead
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.corpus import Sentence
from rationale_miner.errors import SameSentence, UnknownSentence
from rationale_miner.features import FEATURE_NAMES, POLARITY_WORDS
from rationale_miner.miner import (
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
    relate_stage,
    render_markdown,
)
from rationale_miner.prompts import RELATION_LABELS

from oracles import oracle_pair_relations
from recording import Recording


def _graph(nodes: list[str], supporting=(), complementary=()) -> RelationGraph:
    return RelationGraph(
        nodes=list(nodes),
        supporting=[SupportingEdge(argument=a, solution=s) for a, s in supporting],
        complementary=[tuple(p) for p in complementary],
    )


def _sentence(sid: str, text: str, comment_index: int | None, global_index: int,
              kind: str = "comment") -> Sentence:
    return Sentence(id=sid, text=text, kind=kind, comment_index=comment_index,
                    block_index=0, global_index=global_index, author="alice")


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


# Graph shapes over nodes n0..n(k-1) that grow one group to every node, or
# attach every group to one solution.  Both edge orders of the chain, as a
# merge that always folds one side into the other is quadratic in one of them.
_LARGE_GRAPHS = {
    "complementary-chain": lambda nodes: {"complementary": list(zip(nodes, nodes[1:]))},
    "complementary-chain-reversed":
        lambda nodes: {"complementary": list(zip(nodes, nodes[1:]))[::-1]},
    "complementary-star": lambda nodes: {"complementary": [(nodes[0], n) for n in nodes[1:]]},
    "supporting-star": lambda nodes: {"supporting": [(n, nodes[0]) for n in nodes[1:]]},
}


@pytest.mark.parametrize("shape", list(_LARGE_GRAPHS))
def test_construction_time_per_node_holds_as_graphs_grow(shape):
    # Per-node time against itself on a quarter of the nodes, so that a busy
    # host slows both sides alike; quadratic grouping takes four times as long.
    def per_node(n: int) -> float:
        nodes = [f"n{i}" for i in range(n)]
        graph = _graph(nodes, **_LARGE_GRAPHS[shape](nodes))
        return min(timeit.repeat(lambda: construct_rationales(graph),
                                 number=1, repeat=3)) / n

    assert per_node(12_000) < 2 * per_node(3_000)


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
    assert scores == [0.5, 0.4999999, 0.7]


def test_extract_empty_input():
    design, scores = extract_design_sentences([], np.zeros((0, 29)), "s",
                                              _FixedScores([]))
    assert design == []
    assert scores == []


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
    edges, warnings = classify_pairs([a, b, c], backend)
    assert warnings == []
    assert edges == [SupportingEdge(argument="c0-s0", solution="c1-s0")]


def test_classify_pairs_both_supporting_prefers_earlier_solution():
    a, b, c = _abc_sentences()
    backend = _pair_backend([
        {"contains": ["Sentence 1: Alpha", "Sentence 2: Charlie"],
         "text": "supporting"},
        {"contains": ["Sentence 1: Charlie", "Sentence 2: Alpha"],
         "text": "supporting"},
    ])
    edges, warnings = classify_pairs([a, b, c], backend)
    assert warnings == []
    assert edges == [SupportingEdge(argument="c2-s0", solution="c0-s0")]


def test_classify_pairs_complementary_needs_no_reverse_query():
    a, b, c = _abc_sentences()
    backend = _pair_backend([
        {"contains": ["Sentence 1: Bravo", "Sentence 2: Charlie"],
         "text": "these look complementary to me"},
    ])
    edges, warnings = classify_pairs([a, b, c], backend)
    assert warnings == []
    assert edges == [("c1-s0", "c2-s0")]
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
    edges, warnings = classify_pairs([a, b, c], backend)
    assert edges == []
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
    edges, warnings = classify_pairs([a, b, c], backend)
    assert edges == []
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
    edges = [
        SupportingEdge(argument="c2-s0", solution="c0-s0"),
        SupportingEdge(argument="c1-s0", solution="c0-s0"),
        ("c1-s0", "c2-s0"),
    ]
    graph = build_relation_graph([c, a, b], edges)
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


def test_mine_issue_single_design_sentence_skips_pair_stage(golden_issue, analyzer):
    class OneHot:
        def scores(self, sentences, features, summary):
            return np.array([1.0 if s.id == "c0-s0" else 0.0 for s in sentences])

    # a backend with no generate section raises if the pair stage ever runs
    backend = ScriptedBackend({})
    result = mine_issue(golden_issue, OneHot(), PromptPairClassifier(backend), analyzer)
    assert result.design_ids == ["c0-s0"]
    assert result.graph.supporting == [] and result.graph.complementary == []
    assert [r.solution for r in result.rationales] == [["c0-s0"]]
    assert result.warnings == []


def test_mine_issue_no_design_sentences(golden_issue, analyzer):
    result = mine_issue(golden_issue, _FixedScores([0.0] * 10),
                        PromptPairClassifier(ScriptedBackend({})), analyzer)
    assert result.design_ids == []
    assert result.rationales == []
    assert result.to_json()["rationales"] == []
    assert "No rationales mined." in result.to_markdown()


# ---------------------------------------------------------------------------
# baseline pair classifier

class _FixedLabels(PairBaselineModel):
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
    edges, warnings = model.relations([c, a, b])
    # one row per unordered pair, the earlier sentence first, as in training
    assert np.array_equal(model.rows, np.array(
        [pair_features(a, b), pair_features(a, c), pair_features(b, c)]))
    assert edges == [
        # supporting: the earlier sentence is the solution
        SupportingEdge(argument="c1-s0", solution="c0-s0"),
        ("c0-s0", "c2-s0"),
    ]
    assert warnings == []


def test_baseline_pair_classifier_gets_no_rows_below_two_sentences():
    model = _FixedLabels([])
    assert model.relations([_sentence("c0-s0", "One.", 0, 0)]) == ([], [])
    assert model.rows.shape == (0, 6)


# ---------------------------------------------------------------------------
# the pair rule against its oracle

_REPLIES = ("supporting", "complementary", "unrelated", "Supporting, I think.",
            "COMPLEMENTARY", "unrelated, not supporting", "they are complementary-ish",
            "hard to say", "")


# 0-6 sentences of one issue, in issue order: below two there is no pair.
_DESIGNS = st.integers(0, 6).map(lambda n: [
    _sentence(f"c{i}-s0", f"Point {i} of the design.", i, i) for i in range(n)])


def _relations(graph) -> tuple[list, list]:
    return [(e.argument, e.solution) for e in graph.supporting], graph.complementary


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prompt_pairs_follow_the_pair_rule(data):
    ordered = data.draw(_DESIGNS)
    replies = {(a.id, b.id): data.draw(st.sampled_from(_REPLIES))
               for a in ordered for b in ordered if a is not b}
    backend = ScriptedBackend({"generate": {"rules": [
        {"contains": [f"Sentence 1: {a.text}\n", f"Sentence 2: {b.text}\n"],
         "text": replies[a.id, b.id]} for a in ordered for b in ordered if a is not b]}})
    graph, warnings = relate_stage(data.draw(st.permutations(ordered)),
                                   PromptPairClassifier(backend))
    ids = [s.id for s in ordered]
    supporting, complementary, expected_warnings = oracle_pair_relations(ids, replies)
    assert graph.nodes == ids
    assert _relations(graph) == (supporting, complementary)
    assert warnings == expected_warnings


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_baseline_pairs_follow_the_pair_rule(data):
    ordered = data.draw(_DESIGNS)
    ids = [s.id for s in ordered]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    labels = [data.draw(st.sampled_from(RELATION_LABELS)) for _ in pairs]
    # The baseline labels each pair once, and a supporting pair takes the
    # earlier sentence as its solution: the rule's "supporting both ways".
    replies = {}
    for (a, b), label in zip(pairs, labels):
        replies[a, b], replies[b, a] = label, "supporting"
    graph, warnings = relate_stage(data.draw(st.permutations(ordered)),
                                   _FixedLabels(labels))
    supporting, complementary, expected_warnings = oracle_pair_relations(ids, replies)
    assert _relations(graph) == (supporting, complementary)
    assert warnings == expected_warnings == []
