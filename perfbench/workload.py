"""Seeded synthetic workloads for the mining benchmark.

A workload is a corpus of Jira-style issue exports split into shards, a
scripted-backend script, a fixed cloze head, a run config, the gold
annotations and the output the script implies (the oracle the correctness
gate compares against).  Everything is a pure function of the workload name
and the seed.

The generator deliberately does not use ``rationale_miner.synthetic``: that
module is expected to change, and a workload must not change with it.  It
only uses the package's model-file helpers (``save_head``, the feature
fingerprint) so the head loads the way a trained one would.

Sentence roles are carried by tags the script keys on:

* ``Plan T:``             a solution of topic T;
* ``Reason T-g:``         an argument of group g that comes before every
                          plan of T (supports in one direction only);
* ``Follow-up T-g:``      an argument of group g that comes after every
                          plan of T (both directions answer "supporting",
                          and reconciliation keeps the earlier solution);
* ``Idea:``               a decoy the script calls design although gold
                          says none; two decoys get an unparsable answer;
* an untagged design body is a miss: gold says design, the script says not.

Plans of one topic are complementary, so are arguments of one group, and
every argument supports every plan of its topic.  The mined output is then
fully determined, which is what ``expected`` records.
"""

from __future__ import annotations

import datetime as _dt
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from rationale_miner.backends.heads import LogisticHead, save_head
from rationale_miner.config import SP_FINGERPRINT
from rationale_miner.miner import SP_FEATURE_NAMES

# Every unrelated pair prompt scans all generate rules (eight per topic), so
# the pool is kept small enough that the script does not dominate the run.
TOPICS = ("kestrel", "juniper", "obsidian", "marigold", "tundra", "saffron")
MAX_GROUPS = 2
HEAD_WEIGHT = 8.0
HEAD_BIAS = -4.0
# First polarity slot per tag; the head makes >= 0.5 design.
DESIGN_P0 = {"Plan ": 0.92, "Reason ": 0.87, "Follow-up ": 0.83, "Idea: ": 0.71}
NOISE_P0 = 0.08
DESIGN_SHARE = {"short": 0.35, "long": 0.05}
UNPARSABLE_TEXT = "Hard to say from these two alone."


@dataclass(frozen=True)
class Spec:
    """One workload: corpus shape and size, backend, and CLI commands."""

    shape: str  # "short" or "long"
    issues: int
    shards: int
    backend: str  # "scripted" or "remote"
    commands: tuple[str, ...]
    trace_issues: int  # issues of shard 0 used by the traced run


WORKLOADS: dict[str, Spec] = {
    # CPU-bound on per-issue fixed costs; backend calls are nearly free.
    "short-scripted": Spec("short", 1200, 12, "scripted", ("mine",), 100),
    # Round-trip bound against the benchmark's model server; no repeats.
    "short-remote": Spec("short", 120, 4, "remote", ("mine",), 10),
    # Quadratic layers (feature rescans, pairs, construction) dominate.
    "long-scripted": Spec("long", 112, 4, "scripted", ("mine",), 10),
    # extract -> pair -> mine re-send identical prompts to the server.
    "rerun-remote": Spec("short", 40, 2, "remote", ("extract", "pair", "mine"), 10),
}

_COMPONENTS = ("scheduler", "parser", "router", "allocator", "resolver",
               "checkpointer", "shuffle service", "metrics reporter")
_ARTIFACTS = ("registry", "pipeline", "interface", "buffer pool", "retry loop")
_VERBS = ("batch", "cache", "split", "isolate", "rewrite", "bound", "shard")
_QUALITIES = ("latency", "memory use", "startup time", "throughput", "tail latency")
_SYMPTOMS = ("stalls under load", "leaks file handles", "drops late records",
             "slows down after restart", "times out on large inputs")
_ARG_BODIES = (
    "it avoids the painful lock contention we saw last week",
    "this keeps the failure handling simple and safe",
    "otherwise retries would be awful under heavy load",
    "the benchmark numbers improved a lot with it",
    "it removes a fragile and confusing code path",
    "users complained that the current behaviour is terrible",
    "we already trust this approach in the storage layer",
    "it makes the recovery logic much easier to test",
)
_NOISE = (
    "Thanks, this looks great!",
    "I am worried the {c} is badly broken on trunk.",
    "Why does the {c} hang on startup?",
    "Merged to trunk in revision {n}.",
    "This is terrible for large clusters.",
    "Can someone take a look at the failing test?",
    "The nightly run finished on {n} executors.",
    "I reproduced it locally with {n} workers.",
    "Sorry for the late reply, I was travelling.",
    "The failing call is {{code:java}}client.flush(); pool.close();{{code}} in the worker.",
    "Build log is at https://ci.example.org/job/{n}/console.",
    "The café cluster shows the same stack trace.",
    "Nice work, the fix is clean and well tested.",
    "Closing as duplicate after triage.",
    "I do not think this is a blocker for the release.",
    "Attached the heap dump from run {n}.",
)
_QUOTES = (
    "{{quote}}Plan {t}: we could cache the registry. It helps.{{quote}}",
    "> Reason {t}-1: earlier remark that was quoted.",
)
_BOT_BODY = "Plan {t}: automated reminder that this issue is stale. Follow-up {t}-1: ping."


@dataclass
class _Item:
    """One body sentence of an issue before it is placed in a block."""

    text: str
    script: str  # "plan" | "arg" | "decoy" | "none"
    gold: str  # "solution" | "argument" | "none"
    topic: str | None = None
    group: str | None = None  # "<topic>-<variant>-<g>"
    sid: str = ""


def _sentence(rng: random.Random, pool: tuple[str, ...]) -> str:
    return rng.choice(pool).format(c=rng.choice(_COMPONENTS), n=rng.randrange(2, 900))


def _plan_body(rng: random.Random) -> str:
    return (f"we could {rng.choice(_VERBS)} the {rng.choice(_COMPONENTS)} "
            f"{rng.choice(_ARTIFACTS)} to keep {rng.choice(_QUALITIES)} low.")


def _topic_items(rng: random.Random, topic: str, plans: int,
                 groups: list[int]) -> tuple[list[_Item], list[_Item], list[_Item]]:
    """Early arguments, plans and late arguments of one topic."""
    early, late = [], []
    for g, size in enumerate(groups, start=1):
        variant = rng.choice(("Reason", "Follow-up"))
        members = [_Item(f"{variant} {topic}-{g}: {rng.choice(_ARG_BODIES)}.", "arg",
                         "argument", topic, f"{topic}-{variant}-{g}")
                   for _ in range(size)]
        (early if variant == "Reason" else late).extend(members)
    plan_items = [_Item(f"Plan {topic}: {_plan_body(rng)}", "plan", "solution", topic)
                  for _ in range(plans)]
    return early, plan_items, late


def _topic_shape(rng: random.Random, size: int) -> tuple[int, list[int]]:
    """Plan count and argument group sizes of a topic with ``size`` sentences."""
    plans = min(3, max(1, size // 3))
    rest = size - plans
    groups = rng.randint(1, min(MAX_GROUPS, rest)) if rest else 0
    return plans, [rest // groups + (g < rest % groups) for g in range(groups)]


def _miss(item: _Item) -> None:
    """Strip the tag so the script no longer calls the sentence design."""
    item.text = item.text.split(": ", 1)[1].capitalize()
    item.script = "none"


def _layout(rng: random.Random, length: int, topics: list[tuple[list, list, list]],
            decoys: int) -> list[_Item]:
    """Place every topic's sentences (early args, plans, late args, in that
    order) and the decoys at random positions among noise."""
    design = [item for early, plans, late in topics for item in early + plans + late]
    total = max(length, len(design) + decoys)
    slots = sorted(rng.sample(range(total), len(design) + decoys))
    rng.shuffle(slots)
    body = [None] * total
    cursor = 0
    for early, plans, late in topics:
        chunk = sorted(slots[cursor:cursor + len(early) + len(plans) + len(late)])
        cursor += len(chunk)
        for pos, item in zip(chunk, early + plans + late):
            body[pos] = item
    for pos in slots[cursor:]:
        body[pos] = _Item(f"Idea: {_sentence(rng, _NOISE[:9]).lower()}", "decoy", "none")
    return [item or _Item(_sentence(rng, _NOISE), "none", "none") for item in body]


def _make_issue(rng: random.Random, key: str, shape: str, length: int, topics: int,
                decoys: int, miss: bool) -> tuple[dict, dict, dict]:
    """One raw export, its gold annotation and the expected mined result."""
    design = round(DESIGN_SHARE[shape] * (length + 1))
    topics = [_topic_items(rng, t, *_topic_shape(rng, design // topics + (j < design % topics)))
              for j, t in enumerate(rng.sample(TOPICS, topics))]
    if miss:
        # Miss a member of a plan set or argument group that keeps another.
        candidates = [items for early, plans, late in topics for items in (plans, early, late)]
        candidates = [c for c in candidates if len(c) >= 2]
        if candidates:
            _miss(rng.choice(candidates)[0])
    body = _layout(rng, length, topics, decoys)

    reporter = f"user{rng.randrange(1, 40)}"
    authors = [reporter] + [f"dev{rng.randrange(1, 60)}" for _ in range(6)]
    summary = f"{rng.choice(_COMPONENTS).capitalize()} {rng.choice(_SYMPTOMS)}"
    # Description takes the first 1-3 sentences, comments take chunks after.
    per_block = (1, 3) if shape == "short" else (1, 7)
    cut = rng.randint(*per_block)
    blocks = [body[:cut]]
    rest = body[cut:]
    while rest:
        n = rng.randint(*per_block)
        blocks.append(rest[:n])
        rest = rest[n:]

    base = _dt.datetime(2021, 3, 1, tzinfo=_dt.timezone.utc) + _dt.timedelta(
        minutes=rng.randrange(0, 100_000))
    for j, item in enumerate(blocks[0]):
        item.sid = f"des-s{j}"
    description = _render_block(rng, blocks[0])
    comments = []
    minute = 0
    for k, block in enumerate(blocks[1:]):
        if rng.random() < 0.08:
            minute += 1
            comments.append({"author": "jira-bot", "body": _BOT_BODY.format(t=rng.choice(TOPICS)),
                             "created": _stamp(base, minute)})
        for j, item in enumerate(block):
            item.sid = f"c{k}-s{j}"
        minute += 1
        comments.append({"author": rng.choice(authors), "body": _render_block(rng, block),
                         "created": _stamp(base, minute)})
    raw = {"key": key, "summary": summary, "description": description,
           "reporter": reporter, "comments": comments}

    order = {item.sid: i for i, item in enumerate(body)}
    labels = {"sum-s0": "none"}
    labels.update({item.sid: item.gold for item in body})
    gold, expected = _rationales(body, order)
    annotation = {"issue": key, "annotator": "perfbench", "labels": labels,
                  "rationales": gold}
    return raw, annotation, expected


def _stamp(base: _dt.datetime, minute: int) -> str:
    return (base + _dt.timedelta(minutes=minute)).strftime("%Y-%m-%dT%H:%M:%S.000+0000")


def _render_block(rng: random.Random, items: list[_Item]) -> str:
    """Join a block's sentences, sometimes adding a quoted paragraph or a
    quoted line that cleaning must delete."""
    text = " ".join(item.text for item in items)
    roll = rng.random()
    if roll < 0.05:
        text = rng.choice(_QUOTES).format(t=rng.choice(TOPICS)) + "\n\n" + text
    elif roll < 0.08:
        text = text + "\n" + _QUOTES[1].format(t=rng.choice(TOPICS))
    return text


def _rationales(body: list[_Item], order: dict[str, int]) -> tuple[list[dict], dict]:
    """Gold rationales, and the output the script implies for this issue."""
    def ids(items, script_only):
        return sorted((i.sid for i in items if not script_only or i.script != "none"),
                      key=order.__getitem__)

    def grouped(script_only):
        rationales = []
        for topic in dict.fromkeys(i.topic for i in body if i.topic):
            members = [i for i in body if i.topic == topic]
            solution = ids([i for i in members if i.gold == "solution"], script_only)
            groups = [ids([i for i in members if i.group == g], script_only)
                      for g in dict.fromkeys(i.group for i in members if i.group)]
            groups = sorted((g for g in groups if g), key=lambda g: order[g[0]])
            rationales.append({"solution": solution, "arguments": groups})
        return rationales

    gold = sorted(grouped(False), key=lambda r: order[r["solution"][0]])
    mined = grouped(True) + [{"solution": [i.sid], "arguments": []}
                             for i in body if i.script == "decoy"]
    mined.sort(key=lambda r: order[r["solution"][0]])
    design = [i for i in body if i.script != "none"]
    supporting = sorted(
        ((a.sid, p.sid) for a in design if a.script == "arg"
         for p in design if p.script == "plan" and p.topic == a.topic),
        key=lambda e: (order[e[0]], order[e[1]]))
    complementary = sorted(
        (tuple(sorted((a.sid, b.sid), key=order.__getitem__))
         for a in design for b in design
         if order[a.sid] < order[b.sid] and a.script == b.script
         and ((a.script == "plan" and a.topic == b.topic)
              or (a.script == "arg" and a.group == b.group))),
        key=lambda p: (order[p[0]], order[p[1]]))
    expected = {
        "design": ids(design, True),
        "supporting": [list(e) for e in supporting],
        "complementary": [list(p) for p in complementary],
        "rationales": mined,
    }
    return gold, expected


def build_script() -> dict:
    """Scripted-backend rules; the benchmark's model server applies the same."""
    def probs(p0):
        return [p0] + [round(0.02 + 0.01 * i, 2) for i in range(13)]

    mask_rules = [{"contains": tag, "probs": probs(p0)} for tag, p0 in DESIGN_P0.items()]
    generate = []
    for t in TOPICS:
        generate.append({"contains": [f"Sentence 1: Plan {t}:", f"Sentence 2: Plan {t}:"],
                         "text": "They are complementary."})
        generate.append({"contains": [f"Sentence 1: Reason {t}-", f"Sentence 2: Plan {t}:"],
                         "text": "supporting"})
        generate.append({"contains": [f"Sentence 1: Plan {t}:", f"Sentence 2: Follow-up {t}-"],
                         "text": "supporting"})
        generate.append({"contains": [f"Sentence 1: Follow-up {t}-", f"Sentence 2: Plan {t}:"],
                         "text": "Argument-solution supporting."})
        for variant in ("Reason", "Follow-up"):
            for g in range(1, MAX_GROUPS + 1):
                tag = f"{variant} {t}-{g}:"
                generate.append({"contains": [f"Sentence 1: {tag}", f"Sentence 2: {tag}"],
                                 "text": "complementary"})
    generate.append({"contains": ["Sentence 1: Idea:", "Sentence 2: Idea:"],
                     "text": UNPARSABLE_TEXT})
    return {
        "mask_probs": {"rules": mask_rules, "default": {"probs": probs(NOISE_P0)}},
        "generate": {"rules": generate, "default": {"text": "unrelated"}},
    }


def generate(name: str, seed: int, root: Path) -> dict:
    """Write workload ``name`` for ``seed`` under ``root``; returns its layout.

    Issue lengths, topic counts, decoys and misses are spread evenly over
    the issues and only their order depends on the seed, so speed and
    quality figures vary little from seed to seed.
    """
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    low, high = (6, 10) if spec.shape == "short" else (500, 1500)
    lengths = [low + (high - low) * k // max(spec.issues - 1, 1) for k in range(spec.issues)]
    topic_range = (1, 1, 1, 1, 1, 2) if spec.shape == "short" else (4, 5, 6)
    topics = [topic_range[k % len(topic_range)] for k in range(spec.issues)]
    rng.shuffle(lengths)
    rng.shuffle(topics)
    root.mkdir(parents=True, exist_ok=True)
    decoy_issues = set(rng.sample(range(spec.issues), spec.issues // 12))
    miss_issues = set(rng.sample(range(spec.issues), spec.issues // 12))
    shards = [root / "corpus" / f"shard{i:02d}" for i in range(spec.shards)]
    for shard in shards:
        shard.mkdir(parents=True)
    gold, expected = [], {}
    for i in range(spec.issues):
        key = f"{'LONG' if spec.shape == 'long' else 'BENCH'}-{i + 1}"
        decoys = (3 if spec.shape == "long" else 0) + (2 if i in decoy_issues else 0)
        raw, annotation, exp = _make_issue(rng, key, spec.shape, lengths[i], topics[i],
                                           decoys, i in miss_issues)
        shard = shards[i % spec.shards]
        (shard / f"{key}.json").write_text(json.dumps(raw), encoding="utf-8")
        gold.append(annotation)
        expected[key] = exp

    weights = [0.0] * len(SP_FEATURE_NAMES)
    weights[0] = HEAD_WEIGHT
    head = LogisticHead(weights=np.asarray(weights), bias=HEAD_BIAS,
                        fingerprint=SP_FINGERPRINT, meta={"source": "perfbench"})
    save_head(head, root / "head.json")
    (root / "script.json").write_text(json.dumps(build_script()), encoding="utf-8")
    with open(root / "gold.jsonl", "w", encoding="utf-8") as handle:
        for record in gold:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    (root / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    empty, trace = root / "corpus" / "empty", root / "corpus" / "trace"
    empty.mkdir()
    trace.mkdir()
    for file in sorted(shards[0].glob("*.json"))[:spec.trace_issues]:
        (trace / file.name).write_bytes(file.read_bytes())
    return {"shards": [str(s) for s in shards], "trace": str(trace), "empty": str(empty),
            "head": str(root / "head.json"), "script": str(root / "script.json"),
            "gold": str(root / "gold.jsonl"), "expected": str(root / "expected.json")}
