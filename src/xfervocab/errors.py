"""Exception hierarchy shared across the toolkit, and the one seed check every seeded operation makes."""


class XfervocabError(Exception):
    """Base class for all toolkit errors."""


class AlignmentError(XfervocabError):
    """Parallel corpus sides have different lengths."""


class CorpusFormatError(XfervocabError):
    """A corpus file violates the expected plain-text layout."""


class CorpusDecodeError(XfervocabError):
    """A corpus file contains bytes that are not valid UTF-8."""


class EscapeDecodeError(XfervocabError):
    """A token stream contains a malformed code-point escape."""


class SampleSizeError(XfervocabError):
    """A sampling request is negative or exceeds the available population."""


class EmbeddingShapeError(XfervocabError):
    """An embedding matrix does not match the vocabulary it is paired with."""


def check_seed(seed: int) -> int:
    """`seed` itself, or a ValueError if it is negative: `random.Random(-n)`
    draws the same stream as `random.Random(n)`, so a negative seed would
    record a value that reproduces nothing of its own."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed
