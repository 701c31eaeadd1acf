"""Exception types shared across the pipeline.

Every error raised on purpose by this package derives from MiningError so
callers can catch one base class at the CLI boundary.
"""


class MiningError(Exception):
    """Base class for all errors raised by this package."""


class MalformedExport(MiningError):
    """Issue export JSON is missing a required key or has the wrong shape,
    or a comment timestamp cannot be parsed or ordered."""


class MissingLexicon(MiningError):
    """The sentiment lexicon file is absent or unreadable."""


class UnknownSentence(MiningError):
    """A sentence id was referenced that the issue does not contain."""


class SameSentence(MiningError):
    """A pair operation was asked to relate a sentence to itself."""


class BudgetExhausted(MiningError):
    """The token budget leaves no room for even one sentence token."""


class TransportError(MiningError):
    """The remote backend returned a non-200 status or was unreachable."""


class ProtocolError(MiningError):
    """The remote backend replied with a payload that violates the protocol."""


class ModelMissing(MiningError):
    """A model file required by the current mode is absent, unreadable,
    malformed, of the wrong kind, or trained against a different feature
    order."""


class DegenerateData(MiningError):
    """The data leaves nothing to train on or to score, or a project has too
    few issues to reserve one for the test split."""


class ConfigError(MiningError):
    """A run configuration value is missing, malformed, or inconsistent."""


# The most characters of an offending value that an error message echoes.
SHOWN_CHARS = 200


def shown(value) -> str:
    """``repr(value)`` for an error message, cut to its first SHOWN_CHARS
    characters and its full length when longer, so that a huge or deeply
    nested value gives a line of bounded length."""
    text = repr(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}… ({len(text)} chars)"
