"""Prompt construction for the two model queries, under explicit token budgets.

Relatedness of one sentence to its issue is probed with a cloze prompt whose
mask slot is filled from a fixed candidate list.  The relation between two
design sentences is probed with an instruction prompt that names the issue
structure (same comment or not, sentence distance) and expects one label word
in the generated answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends.protocol import MASK_TOKEN
from .corpus import Sentence, pair_structure
from .errors import BudgetExhausted, CrossIssue, SameSentence, UnparsableResponse, shown

# Slots reserved for the fixed cloze wording plus sequence special tokens.
FIXED_PROMPT_SLOTS = 8

CLOZE_MAX_SEQUENCE = 384
PAIR_MAX_SEQUENCE = 512

PAIR_INSTRUCTION = (
    "The following two sentences may be argument or solution for an issue. "
    "Is their relationship argument-solution supporting, complementary, or unrelated?"
)

RELATION_LABELS = ("supporting", "complementary", "unrelated")


@dataclass(frozen=True)
class TokenBudget:
    """Sequence-length budget: a hard cap on whitespace-separated tokens.

    Truncation rebuilds text from a token prefix joined with single spaces.
    """

    max_sequence: int

    def tokenize(self, text: str) -> list[str]:
        return text.split()

    def count(self, text: str) -> int:
        return len(self.tokenize(text))


@dataclass(frozen=True)
class ClozePrompt:
    text: str
    truncated: bool


@dataclass(frozen=True)
class PairPrompt:
    text: str


def _defuse_mask(text: str) -> str:
    # A literal mask marker inside issue text would duplicate the cloze slot,
    # so it is lowercased away.
    return text.replace(MASK_TOKEN, "[mask]")


def _truncate(text: str, budget: TokenBudget, cap: int) -> tuple[str, bool]:
    tokens = budget.tokenize(text)
    if len(tokens) <= cap:
        return text, False
    return " ".join(tokens[:cap]), True


def build_cloze_prompt(sentence: Sentence, summary: str,
                       budget: TokenBudget | None = None) -> ClozePrompt:
    """Render the relatedness cloze for one sentence against the issue summary.

    The sentence keeps its leading tokens up to the budget left over after the
    summary and the fixed slots; a budget that cannot fit a single sentence
    token raises BudgetExhausted.
    """
    if budget is None:
        budget = TokenBudget(CLOZE_MAX_SEQUENCE)
    summary = _defuse_mask(summary)
    cap = budget.max_sequence - budget.count(summary) - FIXED_PROMPT_SLOTS
    if cap < 1:
        raise BudgetExhausted(
            f"summary of {budget.count(summary)} tokens leaves no room for sentence "
            f"tokens under max_sequence={budget.max_sequence}"
        )
    body, truncated = _truncate(_defuse_mask(sentence.text), budget, cap)
    text = f"{body} is {MASK_TOKEN} related to the issue: {summary}"
    return ClozePrompt(text=text, truncated=truncated)


def _render_pair(s1_text: str, s2_text: str, in_same_comment: bool, distance: int) -> str:
    relation = "in" if in_same_comment else "not in"
    return (
        "### Instruction:\n"
        f"{PAIR_INSTRUCTION}\n"
        "### Input:\n"
        f"Sentence 1: {s1_text}\n"
        f"Sentence 2: {s2_text}\n"
        f"Two sentences are {relation} the same comment and their distance is {distance}.\n"
        "### Response:\n"
    )


def build_pair_prompt(s1: Sentence, s2: Sentence,
                      budget: TokenBudget | None = None) -> PairPrompt:
    """Render the relation prompt for an ordered sentence pair.

    Each sentence gets an independent cap of half the budget left after the
    fixed layout; tokens unused by a short sentence are not reallocated to the
    other one.
    """
    if budget is None:
        budget = TokenBudget(PAIR_MAX_SEQUENCE)
    if s1.issue_key != s2.issue_key:
        raise CrossIssue(f"cannot pair {s1.id} ({s1.issue_key}) with {s2.id} ({s2.issue_key})")
    if s1.id == s2.id:
        raise SameSentence(f"cannot pair sentence {s1.id} with itself")
    in_same_comment, distance = pair_structure(s1, s2)
    template_len = budget.count(_render_pair("", "", in_same_comment, distance))
    cap = (budget.max_sequence - template_len) // 2
    if cap < 1:
        raise BudgetExhausted(
            f"pair template of {template_len} tokens leaves no room for sentence "
            f"tokens under max_sequence={budget.max_sequence}"
        )
    body1, _ = _truncate(_defuse_mask(s1.text), budget, cap)
    body2, _ = _truncate(_defuse_mask(s2.text), budget, cap)
    return PairPrompt(text=_render_pair(body1, body2, in_same_comment, distance))


def parse_relation_label(response: str) -> str:
    """Pick the first relation label word occurring in a generated response."""
    lowered = response.lower()
    hits = [(lowered.find(label), label) for label in RELATION_LABELS]
    hits = [(pos, label) for pos, label in hits if pos >= 0]
    if not hits:
        raise UnparsableResponse(f"no relation label in response: {shown(response)}")
    return min(hits)[1]
