"""Handcrafted per-sentence features for design-text extraction.

Every sentence maps to a fixed 29-dimensional vector laid out as five blocks:
process (5), position (3), keyword (14), structure (3), sentiment (4).  The
order is frozen in FEATURE_BLOCKS, which FEATURE_NAMES flattens; trained heads
store a fingerprint of it and refuse to run against a different layout.
"""

from __future__ import annotations

import re
from collections import Counter

from .corpus import CODE_PLACEHOLDER, URL_PLACEHOLDER, IssueLog, Sentence, enumerate_sentences
from .sentiment import SentimentAnalyzer

# Candidate fillers for the cloze prompt, probed in this order.  The first
# seven signal relatedness, the last seven signal the opposite.
POLARITY_WORDS: tuple[str, ...] = (
    "surely", "directly", "closely", "certainly", "strongly", "highly", "absolutely",
    "not", "un", "never", "no", "little", "hardly", "rarely",
)

INTERROGATIVES: tuple[str, ...] = ("what", "why", "when", "who", "which", "how")
MODAL_GROUPS: tuple[tuple[str, ...], ...] = (
    ("should", "shall"), ("can", "could"), ("may", "might"),
)
GREETING_WORDS: tuple[str, ...] = ("hi", "hello", "bye", "thanks", "thx", "thank")
CAUSAL_WORDS: tuple[str, ...] = ("so", "therefore", "then")
TRANSITION_WORDS: tuple[str, ...] = ("but", "yet", "however")

# Each block's feature names, in vector order; ablation masks one block.
FEATURE_BLOCKS: dict[str, tuple[str, ...]] = {
    "process": ("is_description", "is_creator", "author_comment_count", "comment_count",
                "sentence_count"),
    "position": ("comment_position", "sentence_position", "global_index"),
    "keyword": ("kw_what", "kw_why", "kw_when", "kw_who", "kw_which", "kw_how",
                "kw_modal_should_shall", "kw_modal_can_could", "kw_modal_may_might",
                "kw_question_mark", "kw_exclamation_mark", "kw_greeting", "kw_causal",
                "kw_transition"),
    "structure": ("has_code", "has_url", "word_count"),
    "sentiment": ("sentiment_pos", "sentiment_neu", "sentiment_neg", "sentiment_compound"),
}

FEATURE_NAMES: tuple[str, ...] = sum(FEATURE_BLOCKS.values(), ())

FEATURE_DIM = len(FEATURE_NAMES)

_WORD = re.compile(r"[A-Za-z0-9']+")


def word_tokens(text: str) -> list[str]:
    """Lowercased word tokens; keyword flags match these exactly, never substrings."""
    return _WORD.findall(text.lower())


def keyword_flags(text: str) -> list[float]:
    """The 14 keyword-block flags for a piece of text, in feature order."""
    tokens = set(word_tokens(text))
    flags = [1.0 if w in tokens else 0.0 for w in INTERROGATIVES]
    flags.extend(1.0 if any(m in tokens for m in group) else 0.0
                 for group in MODAL_GROUPS)
    flags.append(1.0 if "?" in text else 0.0)
    flags.append(1.0 if "!" in text else 0.0)
    flags.append(1.0 if any(w in tokens for w in GREETING_WORDS) else 0.0)
    flags.append(1.0 if any(w in tokens for w in CAUSAL_WORDS) else 0.0)
    flags.append(1.0 if any(w in tokens for w in TRANSITION_WORDS) else 0.0)
    return flags


def compute_feature_matrix(issue: IssueLog, analyzer: SentimentAnalyzer
                           ) -> tuple[list[Sentence], list[list[float]]]:
    """The 29-dimensional feature vector of every sentence of a cleaned issue,
    one row (a list of FEATURE_DIM floats) per sentence in issue order.

    The summary counts as part of the description side for the
    is_description flag, and summary or description sentences take
    comment_position 0.  Comments per author and sentences per block are
    counted once per issue.
    """
    sentences = enumerate_sentences(issue)
    comment_count = len(issue.comments)
    comments_by = Counter(c.author for c in issue.comments)
    block_size = Counter((s.kind, s.comment_index) for s in sentences)
    rows = []
    for s in sentences:
        if s.kind == "comment":
            comment_position = (s.comment_index + 1) / comment_count
        else:
            comment_position = 0.0
        values = [
            1.0 if s.kind in ("summary", "description") else 0.0,
            1.0 if issue.reporter and s.author == issue.reporter else 0.0,
            float(comments_by[s.author]),
            float(comment_count),
            float(len(sentences)),
            comment_position,
            (s.block_index + 1) / block_size[s.kind, s.comment_index],
            float(s.global_index),
        ]
        values.extend(keyword_flags(s.text))
        values.append(1.0 if CODE_PLACEHOLDER in s.text else 0.0)
        values.append(1.0 if URL_PLACEHOLDER in s.text else 0.0)
        values.append(float(len(s.text.split())))
        scores = analyzer.scores(s.text)
        values.extend([scores.pos, scores.neu, scores.neg, scores.compound])
        rows.append(values)
    return sentences, rows
