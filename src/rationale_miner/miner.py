"""The mining pipeline: design sentences, pairwise relations, rationale groups.

A mined rationale is one solution group (design sentences that complement each
other) plus zero or more argument groups attached to it through supporting
relations.  Both classification stages sit behind a small interface: a
classifier ``scores`` sentences, a pair classifier gives the ``relations`` of
design-sentence pairs: the edges of the relation graph.  Roles and groups are
then decided deterministically from that graph.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
from collections import Counter, OrderedDict, deque
from contextlib import closing, nullcontext
from contextvars import ContextVar, copy_context
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from .backends.heads import LogisticHead
from .backends.protocol import DEFAULT_MAX_TOKENS, Backend
from .corpus import IssueLog, Sentence, read_regular_file, sentence_order
from .errors import MalformedExport, SameSentence, UnknownSentence, shown
from .features import FEATURE_NAMES, POLARITY_WORDS, compute_feature_matrix
from .prompts import (
    CLOZE_MAX_SEQUENCE,
    PAIR_MAX_SEQUENCE,
    RELATION_LABELS,
    build_cloze_prompt,
    build_pair_prompt,
    parse_relation_label,
)
from .sentiment import SentimentAnalyzer

# In RELATION_LABELS order, which is also the pair baseline's class index.
SUPPORTING, COMPLEMENTARY, UNRELATED = RELATION_LABELS

# A sentence whose design score reaches this is a design sentence.
DESIGN_THRESHOLD = 0.5

# The two roles of a design sentence in a rationale, which are also the two
# design categories of a gold annotation.
ARGUMENT, SOLUTION = "argument", "solution"

SP_FEATURE_NAMES: tuple[str, ...] = tuple(
    f"polarity_{w}" for w in POLARITY_WORDS
) + FEATURE_NAMES


# The corpus position of the issue that the current context mines:
# ``in_issue_order`` sets it per issue, and ``CallPool`` serves calls by it.
ISSUE_RANK: ContextVar[int] = ContextVar("issue_rank", default=0)


# The most replies a pool remembers.  The cap keeps a command's memory
# bounded however many issues it mines: a full memory held 0.72-0.79 MB on
# generated short and long issues (a key holds its prompt, of at most 512
# tokens).  1,024 replies are those of the last ~70 short issues; a repeat
# that has fallen out of the memory is only sent again.
REPLY_MEMORY = 1024


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (taskset and cpusets narrow it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class CallPool:
    """Backend calls made on a thread-pool executor, at most ``workers`` at
    once (one per usable CPU when None).

    Queued calls are served in (issue rank, submission) order, the rank being
    ``ISSUE_RANK`` on the submitting thread.  The oldest issue of a run thus
    takes every free slot, and a later issue only the slots it leaves idle.
    Each submission hands the executor one turn, which runs the best queued
    call, so no executor thread ever waits for another pool task.  ``close``
    waits for every queued call; a closed pool takes no more calls.

    ``call_all`` sends each distinct request once: equal requests of one
    batch share a call, and a request whose reply arrived earlier is answered
    from memory (the last REPLY_MEMORY replies), without a slot.  A request is
    a backend method with its arguments, so it names the backend, the
    endpoint and the whole body.  This assumes that a backend answers a
    request the same way every time.  A failed call is never remembered, and
    a batch never waits on another batch's call in flight, so an issue's
    waits and failures stay its own.  ``close`` empties the memory, so it
    ends with the command; what ``extract`` and ``pair`` computed reaches a
    later command through the stage files they write, not through the pool.
    """

    def __init__(self, workers: int | None = None):
        self.size = workers or usable_cpus()
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._order = itertools.count()
        self._executor = ThreadPoolExecutor(max_workers=self.size)
        self._lock = threading.Lock()
        self._replies: OrderedDict = OrderedDict()

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        self._queue.put((ISSUE_RANK.get(), next(self._order), future, fn, args))
        self._executor.submit(self._turn)
        return future

    def _turn(self) -> None:
        """Run the best queued call; each turn's submission queued one."""
        _, _, future, fn, args = self._queue.get_nowait()
        if not future.set_running_or_notify_cancel():
            return
        try:
            result = fn(*args)
        except BaseException as exc:  # handed to the waiting caller
            future.set_exception(exc)
        else:
            future.set_result(result)

    def call_all(self, requests: list[tuple]) -> list:
        """``fn(*args)`` for each request ``(fn, *args)``, in request order;
        the requests must be hashable.

        On a failure the calls not yet started are dropped, and the first
        failure in request order is raised once the started ones have
        finished.
        """
        replies: dict = {}
        futures: dict = {}
        for request in requests:
            if request in replies or request in futures:
                continue
            with self._lock:
                if request in self._replies:
                    self._replies.move_to_end(request)
                    replies[request] = self._replies[request]
                    continue
            futures[request] = self.submit(self._answer, request)
        try:
            for request, future in futures.items():
                replies[request] = future.result()
        except BaseException:
            for future in futures.values():
                future.cancel()
            wait(futures.values())
            raise
        return [replies[request] for request in requests]

    def _answer(self, request: tuple):
        """Make the call ``request`` names, and remember its reply."""
        fn, *args = request
        reply = fn(*args)
        with self._lock:
            self._replies[request] = reply
            self._replies.move_to_end(request)
            if len(self._replies) > REPLY_MEMORY:
                self._replies.popitem(last=False)
        return reply

    def close(self) -> None:
        """Stop the threads once every queued call has run, and forget the
        replies."""
        self._executor.shutdown(wait=True)
        with self._lock:
            self._replies.clear()


def _calls(pool: CallPool | None, workers: int | None = None):
    """``pool``, or when there is none a pool for one call, of ``workers``
    (one per usable CPU when None)."""
    return nullcontext(pool) if pool is not None else closing(CallPool(workers))


def in_issue_order(issues: list[IssueLog], step: Callable[[IssueLog], Any]
                   ) -> Iterator[tuple[IssueLog, Future]]:
    """Run ``step(issue)`` on every issue, two at a time, and yield each
    issue with its job, in corpus order.  Each step runs in its own context,
    with its corpus position as ``ISSUE_RANK``, so the calls of issue k+1
    take only the pool slots that issue k, still running, leaves idle."""
    with ThreadPoolExecutor(max_workers=2) as drivers:
        running: deque = deque()
        for rank, issue in enumerate(issues):
            context = copy_context()
            context.run(ISSUE_RANK.set, rank)
            running.append((issue, drivers.submit(context.run, step, issue)))
            if len(running) == 2:
                yield running.popleft()
        yield from running


@dataclass(frozen=True)
class SupportingEdge:
    argument: str
    solution: str


# A supporting edge, or a complementary pair of ids, the earlier sentence first.
Edge = SupportingEdge | tuple[str, str]


@dataclass
class RelationGraph:
    """Typed relations over the design sentences of one issue."""

    nodes: list[str]  # design-sentence ids in global order
    supporting: list[SupportingEdge] = field(default_factory=list)
    complementary: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        known = set(self.nodes)
        for edge in self.supporting:
            if edge.argument not in known or edge.solution not in known:
                raise UnknownSentence(f"supporting edge references unknown node: {edge}")
            if edge.argument == edge.solution:
                raise SameSentence(f"supporting edge relates {edge.argument} to itself")
        for a, b in self.complementary:
            if a not in known or b not in known:
                raise UnknownSentence(f"complementary edge references unknown node: {(a, b)}")
            if a == b:
                raise SameSentence(f"complementary edge relates {a} to itself")

    def to_json(self) -> dict:
        return {"supporting": [asdict(e) for e in self.supporting],
                "complementary": [list(pair) for pair in self.complementary]}


@dataclass
class Rationale:
    solution: list[str]
    arguments: list[list[str]]

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload) -> "Rationale":
        """The inverse of ``to_json``, ``arguments`` defaulting to none; any
        other shape raises MalformedExport."""
        arguments = payload.get("arguments", []) if isinstance(payload, dict) else None
        if not (isinstance(arguments, list) and all(map(_ids, arguments))
                and _ids(payload.get("solution"))):
            raise MalformedExport("a rationale must be an object with a 'solution' "
                                  "list of sentence ids and 'arguments' lists of them")
        return cls(solution=list(payload["solution"]), arguments=[list(g) for g in arguments])


def _ids(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass
class ConstructionResult:
    rationales: list[Rationale]
    warnings: list[str] = field(default_factory=list)


def _assign_roles(graph: RelationGraph) -> dict[str, str]:
    """Role per node: incoming supporting edges make a solution, outgoing an
    argument; conflicts go to the majority side and ties to solution.  Nodes
    without supporting edges are solutions (rationales may lack arguments)."""
    balance: Counter = Counter()
    for edge in graph.supporting:
        balance[edge.argument] += 1
        balance[edge.solution] -= 1
    return {node: ARGUMENT if balance[node] > 0 else SOLUTION for node in graph.nodes}


def _grouped(nodes: list[str], edges: list[tuple[str, str]]) -> list[list[str]]:
    """The connected components of ``edges`` over ``nodes``, each in node
    order, in order of their first node.

    Each node's group is a list of node positions; an edge merges the smaller
    group into the larger, so a position moves O(log n) times.
    """
    group_of = [[i] for i in range(len(nodes))]
    position = {node: i for i, node in enumerate(nodes)}
    for a, b in edges:
        small, large = group_of[position[a]], group_of[position[b]]
        if small is large:
            continue
        if len(small) > len(large):
            small, large = large, small
        large.extend(small)
        for i in small:
            group_of[i] = large
    groups = sorted(sorted(group) for group in {id(g): g for g in group_of}.values())
    return [[nodes[i] for i in group] for group in groups]


def construct_rationales(graph: RelationGraph) -> ConstructionResult:
    """Deterministically fold a relation graph into its rationales.

    Solution groups are connected components of complementary edges between
    solution-role nodes, and each one yields a rationale.  Argument groups are
    the same construction over argument-role nodes; each attaches to the
    solution group that receives most supporting edges from its members,
    breaking ties toward the group holding the smallest global index.
    Cross-role complementary edges are dropped, as are argument groups whose
    supporting edges all point outside every solution group.
    """
    warnings: list[str] = []
    roles = _assign_roles(graph)
    same_role: list[tuple[str, str]] = []
    for a, b in graph.complementary:
        if roles[a] == roles[b]:
            same_role.append((a, b))
        else:
            warnings.append(
                f"complementary edge {a}~{b} crosses roles "
                f"({roles[a]} vs {roles[b]}); ignored"
            )

    # Every group holds nodes of one role, as its edges join nodes of one role.
    groups = _grouped(graph.nodes, same_role)
    solution_groups = [g for g in groups if roles[g[0]] == SOLUTION]
    argument_groups = [g for g in groups if roles[g[0]] == ARGUMENT]
    group_of = {node: gi for gi, group in enumerate(solution_groups) for node in group}

    supports: dict[str, list[int]] = {}
    for edge in graph.supporting:
        if edge.solution in group_of:
            supports.setdefault(edge.argument, []).append(group_of[edge.solution])

    attached: list[list[list[str]]] = [[] for _ in solution_groups]
    for group in argument_groups:
        votes = Counter(gi for node in group for gi in supports.get(node, ()))
        if not votes:
            warnings.append(
                f"argument group {group} supports no surviving solution; dropped"
            )
            continue
        # Solution groups are in order of their first node, so on a tie the
        # smallest index is the group holding the smallest global index.
        attached[min(votes, key=lambda gi: (-votes[gi], gi))].append(group)

    rationales = [
        Rationale(solution=group, arguments=attached[gi])
        for gi, group in enumerate(solution_groups)
    ]
    return ConstructionResult(rationales=rationales, warnings=warnings)


def sp_matrix(sentences: list[Sentence], features: list[list[float]], summary: str,
              backend: Backend, budget: int = CLOZE_MAX_SEQUENCE,
              pool: CallPool | None = None) -> list[list[float]]:
    """Rows in SP_FEATURE_NAMES order: the polarity-word probabilities of each
    sentence's cloze prompt, then its features.  The probes go through
    ``pool``, or a pool of one worker per usable CPU when it is None."""
    requests = [(backend.mask_probs, build_cloze_prompt(s, summary, budget).text,
                 POLARITY_WORDS) for s in sentences]
    with _calls(pool) as calls:
        polarity = calls.call_all(requests)
    return [[*probs, *row] for probs, row in zip(polarity, features, strict=True)]


@dataclass
class PromptHeadClassifier:
    """Scores sentences with a head over their ``sp_matrix`` rows."""

    backend: Backend
    head: LogisticHead
    budget: int = CLOZE_MAX_SEQUENCE
    pool: CallPool | None = None

    def scores(self, sentences: list[Sentence], features: list[list[float]],
               summary: str) -> list[float]:
        return self.head.predict_proba(sp_matrix(sentences, features, summary,
                                                 self.backend, self.budget, self.pool))


def extract_design_sentences(sentences: list[Sentence], features: list[list[float]],
                             summary: str, classifier) -> tuple[list[Sentence], list[float]]:
    """Design sentences (score >= DESIGN_THRESHOLD) with the score of every sentence."""
    scores = list(classifier.scores(sentences, features, summary))
    selected = [s for s, score in zip(sentences, scores) if score >= DESIGN_THRESHOLD]
    return selected, scores


def design_pairs(design: list[Sentence]) -> list[tuple[Sentence, Sentence]]:
    """Every unordered design-sentence pair, the earlier sentence first."""
    return list(itertools.combinations(sorted(design, key=lambda s: s.global_index), 2))


def pair_edge(s1: Sentence, s2: Sentence, label: str | None, back: str | None) -> Edge | None:
    """The pair rule's edge between ``s1`` and the later ``s2``, ``label``
    relating ``s1`` to ``s2`` and ``back`` ``s2`` to ``s1``.  Complementary
    gives the pair.  Supporting makes the earlier sentence the solution when
    ``back`` is supporting too, keeps ``s1`` as the argument for any other
    label, and gives no edge for None, as does any other ``label``."""
    if label == COMPLEMENTARY:
        return (s1.id, s2.id)
    if label != SUPPORTING or back is None:
        return None
    return SupportingEdge(s2.id, s1.id) if back == SUPPORTING else SupportingEdge(s1.id, s2.id)


def classify_pairs(design: list[Sentence], backend: Backend,
                   budget: int = PAIR_MAX_SEQUENCE,
                   workers: int | None = None,
                   pool: CallPool | None = None) -> tuple[list[Edge], list[str]]:
    """The edges of every unordered design-sentence pair, in pair order, as
    the backend relates them (see ``pair_edge``), with the warnings.

    The earlier sentence is always Sentence 1 in the first query, and a
    supporting answer triggers the reversed query.  A reply with no label
    word gives a warning and no edge.  The queries go through ``pool``, or a
    pool of ``workers`` when it is None.
    """
    warnings: list[str] = []

    def labels(pairs: list[tuple[Sentence, Sentence]], reverse: bool) -> list[str | None]:
        """The label the backend gives each pair, asked reversed when
        ``reverse``; None, with a warning, for a reply that names none."""
        asked = [(s2, s1) if reverse else (s1, s2) for s1, s2 in pairs]
        with _calls(pool, workers) as calls:
            replies = calls.call_all([(backend.generate, build_pair_prompt(a, b, budget),
                                       DEFAULT_MAX_TOKENS) for a, b in asked])
        what = "reverse response" if reverse else "response"
        parsed = [parse_relation_label(raw) for raw in replies]
        warnings.extend(f"pair {s1.id}/{s2.id}: unparsable {what} {shown(raw)}; "
                        "treated as unrelated"
                        for (s1, s2), raw, label in zip(pairs, replies, parsed)
                        if label is None)
        return parsed

    pairs = design_pairs(design)
    forward = labels(pairs, reverse=False)
    supporting = [p for p, label in zip(pairs, forward) if label == SUPPORTING]
    back = dict(zip(supporting, labels(supporting, reverse=True)))
    return [edge for (s1, s2), label in zip(pairs, forward)
            if (edge := pair_edge(s1, s2, label, back.get((s1, s2))))], warnings


@dataclass
class PromptPairClassifier:
    """Relates design sentences through pair prompts (``classify_pairs``)."""

    backend: Backend
    budget: int = PAIR_MAX_SEQUENCE
    pool: CallPool | None = None

    def relations(self, design: list[Sentence]) -> tuple[list[Edge], list[str]]:
        return classify_pairs(design, self.backend, self.budget, pool=self.pool)


def build_relation_graph(design: list[Sentence], edges: list[Edge]) -> RelationGraph:
    """The graph over ``design`` with ``edges``, each kind sorted by sentence order."""
    ordered = sorted(design, key=lambda s: s.global_index)
    order = sentence_order(ordered)
    supporting = sorted((e for e in edges if isinstance(e, SupportingEdge)),
                        key=lambda e: (order[e.argument], order[e.solution]))
    complementary = sorted((e for e in edges if not isinstance(e, SupportingEdge)),
                           key=lambda p: (order[p[0]], order[p[1]]))
    return RelationGraph(nodes=[s.id for s in ordered], supporting=supporting,
                         complementary=complementary)


def extract_stage(issue: IssueLog, classifier, analyzer: SentimentAnalyzer
                  ) -> tuple[list[Sentence], list[float], list[Sentence]]:
    """Stage 1 of ``mine_issue``: every sentence of the issue, the score of
    each, and the design sentences in issue order."""
    sentences, matrix = compute_feature_matrix(issue, analyzer)
    design, scores = extract_design_sentences(sentences, matrix, issue.summary, classifier)
    return sentences, scores, design


def relate_stage(design: list[Sentence], pairs) -> tuple[RelationGraph, list[str]]:
    """Stage 2 of ``mine_issue``: the relation graph over the design
    sentences, with the warnings of the pair classifier ``pairs``."""
    edges, warnings = pairs.relations(design)
    return build_relation_graph(design, edges), warnings


def design_entries(sentences: list[Sentence], scores: list[float],
                   design_ids: list[str]) -> list[dict]:
    """The ``{id, text, score}`` record of each design sentence."""
    index_of = {s.id: i for i, s in enumerate(sentences)}
    return [
        {"id": sid, "text": sentences[index_of[sid]].text,
         "score": float(scores[index_of[sid]])}
        for sid in design_ids
    ]


@dataclass
class MineResult:
    issue_key: str
    sentences: list[Sentence]
    scores: list[float]
    design_ids: list[str]
    graph: RelationGraph
    rationales: list[Rationale]
    warnings: list[str]

    def to_json(self) -> dict:
        return {
            "issue": self.issue_key,
            "design_sentences": design_entries(self.sentences, self.scores, self.design_ids),
            "relations": self.graph.to_json(),
            "rationales": [r.to_json() for r in self.rationales],
            "warnings": self.warnings,
        }

    def to_markdown(self) -> str:
        return render_markdown(self.issue_key, self.rationales,
                               {s.id: s.text for s in self.sentences})


@dataclass
class MinedFile:
    """What ``read_mined`` takes from a ``<KEY>.rationales.json``."""

    issue: str
    text_of: dict[str, str]  # design-sentence id -> text, in file order
    rationales: list[Rationale]


def read_mined(path: str | Path) -> MinedFile:
    """Parse and check a file that ``MineResult.to_json`` wrote; a file of
    any other shape raises MalformedExport."""
    try:
        payload = json.loads(read_regular_file(path).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise MalformedExport(f"not a JSON document: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("issue"), str):
        raise MalformedExport("expected an object with an 'issue' string")
    design = payload.get("design_sentences", [])
    if not isinstance(design, list) or not all(
            isinstance(d, dict) and isinstance(d.get("id"), str)
            and isinstance(d.get("text"), str) for d in design):
        raise MalformedExport("design_sentences must be a list of {id, text} objects")
    rationales = payload.get("rationales", [])
    if not isinstance(rationales, list):
        raise MalformedExport("rationales must be a list")
    return MinedFile(issue=payload["issue"],
                     text_of={d["id"]: d["text"] for d in design},
                     rationales=[Rationale.from_json(r) for r in rationales])


def render_markdown(issue_key: str, rationales: list[Rationale],
                    text_of: dict[str, str]) -> str:
    """Human-readable summary of mined rationales; ids resolve through
    ``text_of`` and fall back to the bare id."""
    lines = [f"# Design rationales: {issue_key}", ""]
    if not rationales:
        lines.extend(["No rationales mined.", ""])
    for i, rationale in enumerate(rationales, start=1):
        lines.extend([f"## Rationale {i}", "", "Solution:"])
        lines.extend(f"- [{sid}] {text_of.get(sid, '')}".rstrip()
                     for sid in rationale.solution)
        lines.append("")
        if rationale.arguments:
            lines.append("Arguments:")
            for gi, group in enumerate(rationale.arguments, start=1):
                lines.append(f"- group {gi}:")
                lines.extend(f"  - [{sid}] {text_of.get(sid, '')}".rstrip()
                             for sid in group)
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def mine_issue(issue: IssueLog, classifier, pairs, analyzer: SentimentAnalyzer,
               extracted: tuple[list[Sentence], list[float], list[Sentence]] | None = None,
               related: tuple[RelationGraph, list[str]] | None = None) -> MineResult:
    """Run the whole pipeline for one cleaned issue (see ``clean_issue``):
    ``extract_stage`` with ``classifier``, ``relate_stage`` with the pair
    classifier ``pairs``, then ``construct_rationales``.

    ``extracted`` and ``related``, when given, are results of the first two
    stages for this issue, which are then not run again; ``related`` counts
    only if its graph is over the design sentences.
    """
    sentences, scores, design = extracted or extract_stage(issue, classifier, analyzer)
    if related is None or related[0].nodes != [s.id for s in design]:
        related = relate_stage(design, pairs)
    graph, pair_warnings = related
    construction = construct_rationales(graph)
    return MineResult(
        issue_key=issue.key,
        sentences=sentences,
        scores=scores,
        design_ids=[s.id for s in design],
        graph=graph,
        rationales=construction.rationales,
        warnings=pair_warnings + construction.warnings,
    )
