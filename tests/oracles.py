"""Independent reference implementations used to cross-check the package.

Everything here is written from the stated rules with the dumbest algorithms
available (literal scans, breadth-first closure, explicit counting) so that
agreement with the tuned implementations is meaningful.  Nothing in this
module imports from the package beyond plain data types.
"""

from __future__ import annotations

import re
from collections import deque


def oracle_roles(nodes: list[str], supporting: list[tuple[str, str]]) -> dict[str, str]:
    """argument iff strictly more outgoing than incoming supporting edges."""
    roles = {}
    for node in nodes:
        outgoing = sum(1 for a, _ in supporting if a == node)
        incoming = sum(1 for _, s in supporting if s == node)
        roles[node] = "argument" if outgoing > incoming else "solution"
    return roles


def _components(members: list[str], edges: list[tuple[str, str]],
                order: dict[str, int]) -> list[list[str]]:
    """Connected components by breadth-first search over undirected edges."""
    neighbours = {m: set() for m in members}
    keep = set(members)
    for a, b in edges:
        if a in keep and b in keep:
            neighbours[a].add(b)
            neighbours[b].add(a)
    seen: set[str] = set()
    groups = []
    for start in members:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        component = []
        while queue:
            node = queue.popleft()
            component.append(node)
            for other in neighbours[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        groups.append(sorted(component, key=order.__getitem__))
    groups.sort(key=lambda g: order[g[0]])
    return groups


def oracle_construct(nodes: list[str], order: dict[str, int],
                     supporting: list[tuple[str, str]],
                     complementary: list[tuple[str, str]]) -> list[dict]:
    """Brute-force rationale construction from a typed relation graph.

    supporting edges are (argument, solution) pairs.  Returns rationales as
    {"solution": [...], "arguments": [[...], ...]} dicts in output order.
    """
    roles = oracle_roles(nodes, supporting)
    solution_nodes = [n for n in nodes if roles[n] == "solution"]
    argument_nodes = [n for n in nodes if roles[n] == "argument"]
    same_role = [(a, b) for a, b in complementary if roles[a] == roles[b]]
    solution_groups = _components(
        solution_nodes, [e for e in same_role if roles[e[0]] == "solution"], order)
    argument_groups = _components(
        argument_nodes, [e for e in same_role if roles[e[0]] == "argument"], order)

    rationales = [{"solution": group, "arguments": []} for group in solution_groups]
    for group in argument_groups:
        votes = []
        for sgroup in solution_groups:
            count = 0
            for member in group:
                for a, s in supporting:
                    if a == member and s in sgroup:
                        count += 1
            votes.append(count)
        if not votes or max(votes) == 0:
            continue
        best = max(votes)
        candidates = [gi for gi, v in enumerate(votes) if v == best]
        target = min(candidates, key=lambda gi: order[solution_groups[gi][0]])
        rationales[target]["arguments"].append(group)
    return rationales


_RELATION_WORDS = ("supporting", "complementary", "unrelated")


def oracle_relation_word(reply: str) -> str | None:
    """The relation word that starts earliest in ``reply``, in any case; None
    when no relation word occurs."""
    lowered = reply.lower()
    for start in range(len(lowered)):
        for word in _RELATION_WORDS:
            if lowered.startswith(word, start):
                return word
    return None


def oracle_pair_relations(ids: list[str], replies: dict[tuple[str, str], str]
                          ) -> tuple[list[tuple[str, str]], list[tuple[str, str]], list[str]]:
    """The pair rule, for sentence ids in issue order and the reply to each
    ordered pair (``replies[a, b]`` answers the prompt with ``a`` as Sentence
    1): (supporting edges as (argument, solution), complementary pairs,
    warnings), the edges sorted by issue order.

    Each pair is asked earlier sentence first.  Complementary gives the pair.
    Supporting asks the reverse order: supporting again makes the earlier
    sentence the solution, any other word keeps the forward reading (Sentence
    1 argues for Sentence 2).  A reply with no relation word gives no edge
    and a warning; every forward warning comes before every reverse one.
    Replies are echoed whole, so keep them short.
    """
    supporting, complementary, forward_warnings, reverse_warnings = [], [], [], []
    for i, first in enumerate(ids):
        for second in ids[i + 1:]:
            label = oracle_relation_word(replies[first, second])
            if label is None:
                forward_warnings.append(f"pair {first}/{second}: unparsable response "
                                        f"{replies[first, second]!r}; treated as unrelated")
            elif label == "complementary":
                complementary.append((first, second))
            elif label == "supporting":
                back = oracle_relation_word(replies[second, first])
                if back is None:
                    reverse_warnings.append(
                        f"pair {first}/{second}: unparsable reverse response "
                        f"{replies[second, first]!r}; treated as unrelated")
                elif back == "supporting":
                    supporting.append((second, first))
                else:
                    supporting.append((first, second))
    position = {sid: i for i, sid in enumerate(ids)}
    supporting.sort(key=lambda e: (position[e[0]], position[e[1]]))
    complementary.sort(key=lambda e: (position[e[0]], position[e[1]]))
    return supporting, complementary, forward_warnings + reverse_warnings


def oracle_prf(tp: int, predicted_total: int, gold_total: int) -> tuple[float, float, float]:
    precision = tp / predicted_total if predicted_total else 0.0
    recall = tp / gold_total if gold_total else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def oracle_rationale_prf(predicted: list[dict], gold: list[dict]) -> tuple[float, float, float]:
    """Rationale-level PRF: credit flows through any shared solution sentence."""
    if not predicted and not gold:
        return 1.0, 1.0, 1.0
    if not predicted or not gold:
        return 0.0, 0.0, 0.0
    matched_pred = 0
    for p in predicted:
        if any(set(p["solution"]) & set(g["solution"]) for g in gold):
            matched_pred += 1
    matched_gold = 0
    for g in gold:
        if any(set(g["solution"]) & set(p["solution"]) for p in predicted):
            matched_gold += 1
    precision = matched_pred / len(predicted)
    recall = matched_gold / len(gold)
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def oracle_sentence_prf(predicted: list[dict], gold: list[dict],
                        order: dict[str, int]) -> dict[str, tuple[float, float, float]]:
    """Per-category sentence PRF after best-overlap mapping onto gold."""
    assignments = []
    for p in predicted:
        scored = []
        for gi, g in enumerate(gold):
            overlap = len(set(p["solution"]) & set(g["solution"]))
            if overlap > 0:
                earliest = min(order[s] for s in g["solution"])
                scored.append((-overlap, earliest, gi))
        assignments.append(min(scored)[2] if scored else None)

    def flat_arguments(r: dict) -> list[str]:
        return [sid for group in r["arguments"] for sid in group]

    out = {}
    for category in ("solution", "argument"):
        pick = (lambda r: list(r["solution"])) if category == "solution" else flat_arguments
        tp = 0
        for p, target in zip(predicted, assignments):
            if target is not None:
                tp += len(set(pick(p)) & set(pick(gold[target])))
        pred_total = sum(len(pick(p)) for p in predicted)
        gold_total = sum(len(pick(g)) for g in gold)
        out[category] = oracle_prf(tp, pred_total, gold_total)
    return out


_ORACLE_QUOTE_BLOCK = re.compile(r"\{quote\}.*?\{quote\}", re.S)
_ORACLE_CODE_BLOCKS = (
    re.compile(r"\{code[^}\n]*\}.*?\{code\}", re.S),
    re.compile(r"\{noformat\}.*?\{noformat\}", re.S),
    re.compile(r"```.*?```", re.S),
)
_ORACLE_CODE_TAILS = (
    re.compile(r"\{code[^}\n]*\}.*\Z", re.S),
    re.compile(r"\{noformat\}.*\Z", re.S),
    re.compile(r"```.*\Z", re.S),
)


def oracle_clean_text(text: str, encoding: str = "ascii") -> str:
    """Markup cleaning as one regex pass per rule: quotes, quoted lines, every
    code block kind, every unterminated code opener, then URLs with their
    trailing punctuation kept outside the placeholder.  The lazy code-block
    regexes rescan to the end of the text from each unterminated opener, so
    this is quadratic on floods of them; keep inputs small."""
    text = text.encode(encoding, errors="ignore").decode(encoding)
    text = _ORACLE_QUOTE_BLOCK.sub("", text)
    text = text.replace("{quote}", "")
    text = "\n".join(line for line in text.split("\n")
                     if not line.lstrip().startswith(">"))
    for pattern in _ORACLE_CODE_BLOCKS + _ORACLE_CODE_TAILS:
        text = pattern.sub("[code]", text)

    def url(match: re.Match) -> str:
        body, tail = match.group(0), ""
        while body and body[-1] in ".,;:!?)]}\"'":
            tail = body[-1] + tail
            body = body[:-1]
        return "[URL]" + tail

    return re.sub(r"(?:https?|ftp)://\S+", url, text)


def oracle_split_sentences(text: str, abbreviations: tuple[str, ...]) -> list[str]:
    """Sentence splitting that re-strips the whole sentence so far at every
    terminator to find the token carrying it: quadratic on a run of
    abbreviations, so keep inputs small."""
    known = {a.lower() for a in abbreviations}
    sentences = []
    for paragraph in re.split(r"\n\s*\n", text):
        flat = " ".join(paragraph.split())
        start = 0
        for match in re.finditer(r"[.!?]+(?=\s|$)", flat):
            end = match.end()
            candidate = flat[start:end].strip()
            if not candidate:
                start = end
                continue
            if candidate.rsplit(" ", 1)[-1].lstrip("([{\"'").lower() in known:
                continue
            sentences.append(candidate)
            start = end
        if flat[start:].strip():
            sentences.append(flat[start:].strip())
    return sentences


def _occurs(needle: str, text: str) -> bool:
    """Whether ``needle`` is some slice of ``text``, by trying every start."""
    return any(text[start:start + len(needle)] == needle
               for start in range(len(text) - len(needle) + 1))


def oracle_script_rule(section: dict, prompt: str) -> dict | None:
    """The rule of a well-formed script section that answers ``prompt``: the
    first of all rules whose ``contains`` substrings (one string, or a list)
    each occur in it, else the section's default; None when neither exists."""
    matching = []
    for rule in section.get("rules", []):
        needles = rule["contains"]
        if isinstance(needles, str):
            needles = [needles]
        if all(_occurs(needle, prompt) for needle in needles):
            matching.append(rule)
    if matching:
        return matching[0]
    return section.get("default")
