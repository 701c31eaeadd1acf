"""Issue-log corpus handling: parsing exports, cleaning text, sentence splitting.

An issue export is one JSON object per file with the shape::

    {"key": "FLINK-1320", "summary": "...", "description": "...",
     "reporter": "alice",
     "comments": [{"author": "bob", "body": "...", "created": "2014-01-08T10:22:31.000+0000"}]}

The pipeline is parse_issue -> clean_issue -> enumerate_sentences, and
load_corpus does the first two for a directory of exports.  Cleaning strips
quoted material, flattens code blocks and URLs to placeholder tokens, drops
characters outside the configured encoding, and removes bot comments.
"""

from __future__ import annotations

import datetime as _dt
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import BadTimestamp, ConfigError, MalformedExport, MiningError, shown

DEFAULT_ABBREVIATIONS: tuple[str, ...] = (
    "e.g.", "i.e.", "etc.", "cf.", "vs.", "al.",
    "mr.", "mrs.", "ms.", "dr.", "prof.", "fig.", "approx.",
)

# Text is re-encoded to this codec when cleaned; other characters drop out.
DEFAULT_ENCODING = "ascii"

# Comments whose author id contains one of these substrings (case-insensitive)
# are dropped before sentence enumeration.
DEFAULT_BOT_AUTHORS: tuple[str, ...] = ("bot",)

CODE_PLACEHOLDER = "[code]"
URL_PLACEHOLDER = "[URL]"


@dataclass
class Comment:
    author: str
    body: str
    created: _dt.datetime


@dataclass
class IssueLog:
    key: str
    summary: str
    description: str
    reporter: str
    comments: list[Comment] = field(default_factory=list)

    @property
    def project(self) -> str:
        """Project id, taken as the issue-key prefix before the last dash."""
        return self.key.rsplit("-", 1)[0]


@dataclass(frozen=True)
class Sentence:
    """One sentence of an issue, addressable by a stable id.

    Ids follow the block they came from: ``sum-s0`` for the summary,
    ``des-s{k}`` for description sentences, ``c{k}-s{j}`` for sentence j of
    comment k.  ``global_index`` counts sentences over the whole issue in
    summary, description, comment order.
    """

    id: str
    text: str
    kind: str  # "summary" | "description" | "comment"
    comment_index: int | None
    block_index: int
    global_index: int
    author: str
    issue_key: str


def _parse_timestamp(value: str) -> _dt.datetime:
    """Parse an ISO-8601 timestamp, tolerating 'Z' and '+0000' style offsets."""
    if not isinstance(value, str) or not value.strip():
        raise BadTimestamp(f"timestamp is not a string: {shown(value)}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    # Jira writes numeric offsets without a colon (e.g. +0000).
    text = re.sub(r"([+-]\d{2})(\d{2})$", r"\1:\2", text)
    try:
        return _dt.datetime.fromisoformat(text)
    except ValueError as exc:
        raise BadTimestamp(f"unparseable timestamp: {shown(value)}") from exc


def is_path_component(name: str) -> bool:
    """Whether ``name`` names one file in a directory.  Output files are
    named after issue keys, so a key must be one path component."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def parse_issue(raw: dict) -> IssueLog:
    """Build an IssueLog from a decoded export, sorting comments by timestamp.

    Raises MalformedExport when required keys are missing or mistyped or the
    key is not a single path component, and BadTimestamp when a comment
    timestamp cannot be parsed or the timestamps cannot be ordered.
    """
    if not isinstance(raw, dict):
        raise MalformedExport(f"issue export must be an object, got {type(raw).__name__}")
    for required in ("key", "summary"):
        if not isinstance(raw.get(required), str) or not raw.get(required):
            raise MalformedExport(f"issue export missing required field {required!r}")
    key = raw["key"]
    if not is_path_component(key):
        raise MalformedExport(f"issue key {shown(key)} is not a single path component")
    description = raw.get("description") or ""
    if not isinstance(description, str):
        raise MalformedExport("field 'description' must be a string")
    reporter = raw.get("reporter") or ""
    if not isinstance(reporter, str):
        raise MalformedExport("field 'reporter' must be a string")
    raw_comments = raw.get("comments", [])
    if not isinstance(raw_comments, list):
        raise MalformedExport("field 'comments' must be a list")
    comments = []
    for pos, entry in enumerate(raw_comments):
        if not isinstance(entry, dict):
            raise MalformedExport(f"comment {pos} must be an object")
        for required in ("author", "body", "created"):
            if required not in entry:
                raise MalformedExport(f"comment {pos} missing field {required!r}")
        if not isinstance(entry["author"], str) or not isinstance(entry["body"], str):
            raise MalformedExport(f"comment {pos} has non-string author or body")
        comments.append(
            Comment(author=entry["author"], body=entry["body"],
                    created=_parse_timestamp(entry["created"]))
        )
    try:
        comments.sort(key=lambda c: c.created)
    except TypeError as exc:  # timestamps with and without an offset
        raise BadTimestamp(f"issue {key}: cannot order comment timestamps "
                           f"with and without an offset") from exc
    return IssueLog(key=key, summary=raw["summary"], description=description,
                    reporter=reporter, comments=comments)


def load_corpus(path: str | Path, encoding: str = DEFAULT_ENCODING,
                bot_authors: tuple[str, ...] = DEFAULT_BOT_AUTHORS
                ) -> tuple[list[IssueLog], list[str]]:
    """Parse and clean every ``*.json`` file under ``path``, sorted by name.

    Returns the cleaned issues and a ``"<file name>: <reason>"`` line for each
    file skipped because it could not be read or parsed, or because an
    earlier file holds the same issue key (each key names its output files).
    A ``path`` that is not a directory raises ConfigError.
    """
    root = Path(path)
    if not root.is_dir():
        raise ConfigError(f"corpus_dir is not a directory: {root}")
    issues, skipped, files = [], [], {}
    for file in sorted(root.glob("*.json")):
        try:
            issue = parse_issue(json.loads(file.read_text(encoding="utf-8")))
            if issue.key in files:
                raise MalformedExport(f"issue key {issue.key} is already in {files[issue.key]}")
            issues.append(clean_issue(issue, encoding, bot_authors))
            files[issue.key] = file.name
        except (MiningError, OSError, ValueError, RecursionError) as exc:
            skipped.append(f"{file.name}: {exc}")
    return issues, skipped


_QUOTE_BLOCK = re.compile(r"\{quote\}.*?\{quote\}", re.S)
_QUOTE_MARK = re.compile(r"\{quote\}")
# Each kind of code block: the opener's fixed start, whether the opener takes
# parameters up to the first "}" on its line (``{code:java}``), and the
# closer.  A block runs from an opener to the first closer after it; an
# unterminated opener swallows the rest of the text.
_CODE_MARKS = (
    ("{code", True, "{code}"),
    ("{noformat}", False, "{noformat}"),
    ("```", False, "```"),
)
_PARAMS_END = re.compile(r"[}\n]")
_URL = re.compile(r"(?:https?|ftp)://\S+")
_URL_TRAILING = ".,;:!?)]}\"'"


def _replace_url(match: re.Match) -> str:
    # Keep trailing punctuation out of the placeholder so sentence
    # terminators survive cleaning.
    url = match.group(0)
    return URL_PLACEHOLDER + url[len(url.rstrip(_URL_TRAILING)):]


def _next_opener(text: str, head: str, params: bool, pos: int) -> tuple[int, int] | None:
    """Start and end of the first code opener at or after ``pos``, or None."""
    while (start := text.find(head, pos)) != -1:
        if not params:
            return start, start + len(head)
        stop = _PARAMS_END.search(text, start + len(head))
        if stop is None:
            return None
        if stop.group() == "}":
            return start, stop.end()
        # Every opener before this newline ends at it too.
        pos = stop.start()
    return None


def _replace_code(text: str) -> str:
    """Replace each code block with CODE_PLACEHOLDER, one kind of block
    after another, and then, kind by kind, an unterminated opener and the
    rest of the text.  Each pass scans the text once."""
    for head, params, closer in _CODE_MARKS:
        pieces, pos = [], 0
        while (opener := _next_opener(text, head, params, pos)) is not None:
            close = text.find(closer, opener[1])
            if close == -1:
                break  # no later opener finds a closer either
            pieces += [text[pos:opener[0]], CODE_PLACEHOLDER]
            pos = close + len(closer)
        text = "".join(pieces) + text[pos:]
    for head, params, _ in _CODE_MARKS:
        opener = _next_opener(text, head, params, 0)
        if opener is not None:
            text = text[:opener[0]] + CODE_PLACEHOLDER
    return text


def clean_text(text: str, encoding: str = DEFAULT_ENCODING) -> str:
    """Normalize markup: re-encode, delete quotes, replace code and URLs.

    The encoding filter runs first so markup patterns see the text they will
    leave behind; every replacement token is plain ASCII.  Applied in a fixed
    order (encoding filter, quotes, quoted lines, code, URLs) so that quoted
    code is simply deleted and URLs inside code vanish with the block.  The
    function is idempotent.
    """
    text = text.encode(encoding, errors="ignore").decode(encoding)
    text = _QUOTE_BLOCK.sub("", text)
    text = _QUOTE_MARK.sub("", text)
    lines = [line for line in text.split("\n") if not line.lstrip().startswith(">")]
    text = "\n".join(lines)
    return _URL.sub(_replace_url, _replace_code(text))


def clean_issue(issue: IssueLog, encoding: str = DEFAULT_ENCODING,
                bot_authors: tuple[str, ...] = DEFAULT_BOT_AUTHORS) -> IssueLog:
    """Return a cleaned copy of ``issue`` with bot comments removed.

    A comment is a bot comment when its author id contains any entry of
    ``bot_authors`` case-insensitively.  Remaining comments keep their order,
    so comment indices are dense after the drop.
    """
    patterns = tuple(p.lower() for p in bot_authors)

    def is_bot(author: str) -> bool:
        lowered = author.lower()
        return any(p in lowered for p in patterns)

    comments = [
        replace(c, body=clean_text(c.body, encoding))
        for c in issue.comments if not is_bot(c.author)
    ]
    return replace(
        issue,
        summary=clean_text(issue.summary, encoding),
        description=clean_text(issue.description, encoding),
        comments=comments,
    )


_PARAGRAPH = re.compile(r"\n\s*\n")
_TOKEN_LEAD = "([{\"'"


def _split_flat(flat: str, abbreviations: frozenset[str]) -> list[str]:
    """Sentences of ``flat``, a paragraph whose words are one space apart:
    each ends with a token ending in ``.!?`` that is no known abbreviation."""
    pieces, sentence = [], []
    for token in flat.split(" "):
        sentence.append(token)
        if token[-1] in ".!?" and token.lstrip(_TOKEN_LEAD).lower() not in abbreviations:
            pieces.append(" ".join(sentence))
            sentence = []
    if sentence:
        pieces.append(" ".join(sentence))
    return pieces


def split_sentences(text: str,
                    abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS) -> list[str]:
    """Split prose into sentences.

    Boundaries are runs of ``.!?`` followed by whitespace or end of text,
    unless the token carrying the terminator is a known abbreviation.  Blank
    lines always end a sentence; single newlines behave like spaces.  Internal
    whitespace is collapsed and an unterminated trailing fragment still counts
    as a sentence.
    """
    known = frozenset(a.lower() for a in abbreviations)
    sentences = []
    for paragraph in _PARAGRAPH.split(text):
        flat = " ".join(paragraph.split())
        if flat:
            sentences.extend(_split_flat(flat, known))
    return sentences


def enumerate_sentences(issue: IssueLog) -> list[Sentence]:
    """List every sentence of a (cleaned) issue in stable order with stable ids.

    The summary is never segmented: it contributes exactly one sentence when
    non-empty.  Description and comment bodies are segmented with
    ``split_sentences``.
    """
    sentences: list[Sentence] = []

    def push(sid: str, text: str, kind: str, comment_index: int | None,
             block_index: int, author: str) -> None:
        sentences.append(Sentence(
            id=sid, text=text, kind=kind, comment_index=comment_index,
            block_index=block_index, global_index=len(sentences),
            author=author, issue_key=issue.key,
        ))

    summary = " ".join(issue.summary.split())
    if summary:
        push("sum-s0", summary, "summary", None, 0, issue.reporter)
    for j, text in enumerate(split_sentences(issue.description)):
        push(f"des-s{j}", text, "description", None, j, issue.reporter)
    for k, comment in enumerate(issue.comments):
        for j, text in enumerate(split_sentences(comment.body)):
            push(f"c{k}-s{j}", text, "comment", k, j, comment.author)
    return sentences


def sentence_order(sentences: list[Sentence]) -> dict[str, int]:
    """Map sentence id to global index, the tie-break order used downstream."""
    return {s.id: s.global_index for s in sentences}


def pair_structure(s1: Sentence, s2: Sentence) -> tuple[bool, int]:
    """Whether two sentences sit in the same comment, and how many sentences
    apart they are: the issue structure both pair classifiers see."""
    same_comment = (
        s1.kind == "comment" and s2.kind == "comment"
        and s1.comment_index == s2.comment_index
    )
    return same_comment, abs(s2.global_index - s1.global_index)
