"""Lexicon-and-rules sentiment scorer compatible with the VADER algorithm.

Scores are computed from a valence lexicon plus the usual VADER heuristics:
negation windows, booster words with distance damping, ALL-CAPS emphasis,
idiom overrides, the "but" pivot, and punctuation amplification.  Two
behaviors differ from the common reference implementation on purpose: scores
are never rounded (so pos + neu + neg sums to 1 within float error) and empty
or whitespace-only input scores as fully neutral (0, 1, 0, 0).
"""

from __future__ import annotations

import io
import math
import string
from pathlib import Path
from typing import NamedTuple

from .corpus import read_regular_file
from .errors import MissingLexicon, shown

B_INCR = 0.293
B_DECR = -0.293
C_INCR = 0.733
N_SCALAR = -0.74
NORMALIZE_ALPHA = 15.0

NEGATE = frozenset([
    "aint", "arent", "cannot", "cant", "couldnt", "darent", "didnt", "doesnt",
    "ain't", "aren't", "can't", "couldn't", "daren't", "didn't", "doesn't",
    "dont", "hadnt", "hasnt", "havent", "isnt", "mightnt", "mustnt", "neither",
    "don't", "hadn't", "hasn't", "haven't", "isn't", "mightn't", "mustn't",
    "neednt", "needn't", "never", "none", "nope", "nor", "not", "nothing",
    "nowhere", "oughtnt", "shant", "shouldnt", "uhuh", "wasnt", "werent",
    "oughtn't", "shan't", "shouldn't", "uh-uh", "wasn't", "weren't",
    "without", "wont", "wouldnt", "won't", "wouldn't", "rarely", "seldom",
    "despite",
])

BOOSTER_DICT = {
    "absolutely": B_INCR, "amazingly": B_INCR, "awfully": B_INCR,
    "completely": B_INCR, "considerable": B_INCR, "considerably": B_INCR,
    "decidedly": B_INCR, "deeply": B_INCR, "effing": B_INCR,
    "enormous": B_INCR, "enormously": B_INCR, "entirely": B_INCR,
    "especially": B_INCR, "exceptional": B_INCR, "exceptionally": B_INCR,
    "extreme": B_INCR, "extremely": B_INCR, "fabulously": B_INCR,
    "flipping": B_INCR, "flippin": B_INCR, "frackin": B_INCR,
    "fracking": B_INCR, "fricking": B_INCR, "frickin": B_INCR,
    "frigging": B_INCR, "friggin": B_INCR, "fully": B_INCR,
    "fuckin": B_INCR, "fucking": B_INCR, "fuggin": B_INCR, "fugging": B_INCR,
    "greatly": B_INCR, "hella": B_INCR, "highly": B_INCR, "hugely": B_INCR,
    "incredible": B_INCR, "incredibly": B_INCR, "intensely": B_INCR,
    "major": B_INCR, "majorly": B_INCR, "more": B_INCR, "most": B_INCR,
    "particularly": B_INCR, "purely": B_INCR, "quite": B_INCR,
    "really": B_INCR, "remarkably": B_INCR, "so": B_INCR,
    "substantially": B_INCR, "thoroughly": B_INCR, "total": B_INCR,
    "totally": B_INCR, "tremendous": B_INCR, "tremendously": B_INCR,
    "uber": B_INCR, "unbelievably": B_INCR, "unusually": B_INCR,
    "utter": B_INCR, "utterly": B_INCR, "very": B_INCR,
    "almost": B_DECR, "barely": B_DECR, "hardly": B_DECR,
    "just enough": B_DECR, "kind of": B_DECR, "kinda": B_DECR,
    "kindof": B_DECR, "kind-of": B_DECR, "less": B_DECR, "little": B_DECR,
    "marginal": B_DECR, "marginally": B_DECR, "occasional": B_DECR,
    "occasionally": B_DECR, "partly": B_DECR, "scarce": B_DECR,
    "scarcely": B_DECR, "slight": B_DECR, "slightly": B_DECR,
    "somewhat": B_DECR, "sort of": B_DECR, "sorta": B_DECR,
    "sortof": B_DECR, "sort-of": B_DECR,
}

SPECIAL_CASES = {
    "the shit": 3.0, "the bomb": 3.0, "bad ass": 1.5, "badass": 1.5,
    "bus stop": 0.0, "yeah right": -2.0, "kiss of death": -1.5,
    "to die for": 3.0, "beating heart": 3.1, "broken heart": -2.9,
}


class SentimentScores(NamedTuple):
    pos: float
    neu: float
    neg: float
    compound: float


NEUTRAL = SentimentScores(0.0, 1.0, 0.0, 0.0)


def normalize(score: float) -> float:
    """Map an unbounded valence sum into [-1, 1]."""
    norm = score / math.sqrt(score * score + NORMALIZE_ALPHA)
    return max(-1.0, min(1.0, norm))


def negated(words: list[str]) -> bool:
    for word in words:
        lowered = str(word).lower()
        if lowered in NEGATE or "n't" in lowered:
            return True
    return False


def allcap_differential(words: list[str]) -> bool:
    """True when some but not all tokens are ALL-CAPS."""
    allcaps = sum(1 for w in words if w.isupper())
    return 0 < len(words) - allcaps < len(words)


def scalar_inc_dec(word: str, valence: float, is_cap_diff: bool) -> float:
    scalar = 0.0
    lowered = word.lower()
    if lowered in BOOSTER_DICT:
        scalar = BOOSTER_DICT[lowered]
        if valence < 0:
            scalar = -scalar
        if word.isupper() and is_cap_diff:
            scalar += C_INCR if valence > 0 else -C_INCR
    return scalar


def load_lexicon(path: str | Path | None = None) -> dict[str, float]:
    """Read a tab-separated token/valence lexicon (the packaged one when
    None); extra columns are ignored.  An unreadable file, one that is not
    UTF-8, a malformed line or a valence that is not a finite number raises
    MissingLexicon."""
    path = str(path or Path(__file__).with_name("data") / "sentiment_lexicon.txt")
    lexicon: dict[str, float] = {}
    try:
        with io.TextIOWrapper(io.BytesIO(read_regular_file(path)), encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) < 2:
                    raise MissingLexicon(f"malformed lexicon line in {shown(path)}: "
                                         f"{shown(line)}")
                try:
                    valence = float(parts[1])
                except ValueError as exc:
                    raise MissingLexicon(f"non-numeric valence in {shown(path)}: "
                                         f"{shown(line)}") from exc
                if not math.isfinite(valence):
                    raise MissingLexicon(f"non-finite valence in {shown(path)}: "
                                         f"{shown(line)}")
                lexicon[parts[0]] = valence
    except (OSError, UnicodeDecodeError) as exc:
        raise MissingLexicon(f"cannot read sentiment lexicon at {shown(path)}") from exc
    return lexicon


def _words_and_emoticons(text: str) -> list[str]:
    tokens = []
    for token in text.split():
        stripped = token.strip(string.punctuation)
        # Short leftovers mean the token was mostly punctuation (an emoticon
        # like ":)" or "!!"), so keep the original form.
        tokens.append(token if len(stripped) <= 2 else stripped)
    return tokens


class SentimentAnalyzer:
    """Scores text against the valence lexicon at ``lexicon_path`` (the
    packaged one when None), read once when the analyzer is built, with
    VADER-style rules."""

    def __init__(self, lexicon_path: str | Path | None = None):
        self.lexicon = load_lexicon(lexicon_path)

    def scores(self, text: str) -> SentimentScores:
        if not text or not text.split():
            return NEUTRAL
        words = _words_and_emoticons(text)
        lower = [w.lower() for w in words]
        is_cap_diff = allcap_differential(words)
        sentiments: list[float] = []
        for i, lowered in enumerate(lower):
            if lowered in BOOSTER_DICT:
                sentiments.append(0.0)
                continue
            if lowered == "kind" and i + 1 < len(lower) and lower[i + 1] == "of":
                sentiments.append(0.0)
                continue
            sentiments.append(self._token_valence(i, words, lower, is_cap_diff))
        sentiments = _but_check(lower, sentiments)
        return self._aggregate(sentiments, text)

    def _token_valence(self, i: int, words: list[str], lower: list[str],
                       is_cap_diff: bool) -> float:
        """The valence of word ``i``; ``lower`` holds ``words`` lowercased."""
        lowered = lower[i]
        if lowered not in self.lexicon:
            return 0.0
        valence = self.lexicon[lowered]
        # "no" negates a following lexicon word instead of scoring itself.
        if lowered == "no" and i + 1 < len(lower) and lower[i + 1] in self.lexicon:
            valence = 0.0
        if ((i > 0 and lower[i - 1] == "no")
                or (i > 1 and lower[i - 2] == "no")
                or (i > 2 and lower[i - 3] == "no" and lower[i - 1] in ("or", "nor"))):
            valence = self.lexicon[lowered] * N_SCALAR
        if words[i].isupper() and is_cap_diff:
            valence += C_INCR if valence > 0 else -C_INCR
        for start_i in range(3):
            if i <= start_i:
                continue
            context = i - (start_i + 1)
            if lower[context] in self.lexicon:
                continue
            scalar = scalar_inc_dec(words[context], valence, is_cap_diff)
            if scalar != 0.0 and start_i == 1:
                scalar *= 0.95
            if scalar != 0.0 and start_i == 2:
                scalar *= 0.9
            valence += scalar
            valence = self._negation_adjust(valence, lower, start_i, i)
            if start_i == 2:
                valence = self._idiom_adjust(valence, lower, i)
        return self._least_adjust(valence, lower, i)

    def _negation_adjust(self, valence: float, lower: list[str], start_i: int,
                         i: int) -> float:
        if start_i == 0:
            if negated([lower[i - 1]]):
                return valence * N_SCALAR
        if start_i == 1:
            if lower[i - 2] == "never" and lower[i - 1] in ("so", "this"):
                return valence * 1.25
            if lower[i - 2] == "without" and lower[i - 1] == "doubt":
                return valence
            if negated([lower[i - 2]]):
                return valence * N_SCALAR
        if start_i == 2:
            # The bare so/this branch fires even without a leading "never";
            # that asymmetry is part of the scoring scheme being matched.
            if (lower[i - 3] == "never" and lower[i - 2] in ("so", "this")) \
                    or lower[i - 1] in ("so", "this"):
                return valence * 1.25
            if lower[i - 3] == "without" and "doubt" in (lower[i - 2], lower[i - 1]):
                return valence
            if negated([lower[i - 3]]):
                return valence * N_SCALAR
        return valence

    def _idiom_adjust(self, valence: float, lower: list[str], i: int) -> float:
        onezero = f"{lower[i - 1]} {lower[i]}"
        twoonezero = f"{lower[i - 2]} {lower[i - 1]} {lower[i]}"
        twoone = f"{lower[i - 2]} {lower[i - 1]}"
        threetwoone = f"{lower[i - 3]} {lower[i - 2]} {lower[i - 1]}"
        threetwo = f"{lower[i - 3]} {lower[i - 2]}"
        for sequence in (onezero, twoonezero, twoone, threetwoone, threetwo):
            if sequence in SPECIAL_CASES:
                valence = SPECIAL_CASES[sequence]
                break
        if i + 1 < len(lower):
            zeroone = f"{lower[i]} {lower[i + 1]}"
            if zeroone in SPECIAL_CASES:
                valence = SPECIAL_CASES[zeroone]
        if i + 2 < len(lower):
            zeroonetwo = f"{lower[i]} {lower[i + 1]} {lower[i + 2]}"
            if zeroonetwo in SPECIAL_CASES:
                valence = SPECIAL_CASES[zeroonetwo]
        for n_gram in (threetwoone, threetwo, twoone):
            if n_gram in BOOSTER_DICT:
                valence += BOOSTER_DICT[n_gram]
        return valence

    def _least_adjust(self, valence: float, lower: list[str], i: int) -> float:
        if i > 0 and lower[i - 1] == "least" and lower[i - 1] not in self.lexicon:
            if i > 1 and lower[i - 2] in ("at", "very"):
                return valence
            return valence * N_SCALAR
        return valence

    def _aggregate(self, sentiments: list[float], text: str) -> SentimentScores:
        total_valence = float(sum(sentiments))
        punct = _punctuation_emphasis(text)
        if total_valence > 0:
            total_valence += punct
        elif total_valence < 0:
            total_valence -= punct
        compound = normalize(total_valence)
        pos_sum, neg_sum, neu_count = 0.0, 0.0, 0
        for value in sentiments:
            if value > 0:
                pos_sum += value + 1.0
            elif value < 0:
                neg_sum += value - 1.0
            else:
                neu_count += 1
        if pos_sum > abs(neg_sum):
            pos_sum += punct
        elif pos_sum < abs(neg_sum):
            neg_sum -= punct
        total = pos_sum + abs(neg_sum) + neu_count
        return SentimentScores(pos=pos_sum / total, neu=neu_count / total,
                               neg=abs(neg_sum) / total, compound=compound)


def _but_check(lower: list[str], sentiments: list[float]) -> list[float]:
    if "but" not in lower:
        return sentiments
    pivot = lower.index("but")
    return [
        value * (0.5 if i < pivot else 1.5 if i > pivot else 1.0)
        for i, value in enumerate(sentiments)
    ]


def _punctuation_emphasis(text: str) -> float:
    ep_count = min(text.count("!"), 4)
    amplifier = ep_count * 0.292
    qm_count = text.count("?")
    if qm_count > 1:
        amplifier += qm_count * 0.18 if qm_count <= 3 else 0.96
    return amplifier
