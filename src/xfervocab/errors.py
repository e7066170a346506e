"""Exception hierarchy shared across the toolkit, the one seed check every
seeded operation makes, and the base of the records that validate what they
hold."""


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


class Record:
    """An immutable value that checks what it holds, with a frozen dataclass's
    equality, hash, repr and refusal of assignment, and no `dataclasses`
    import (it loads `inspect`, the largest import of a numpy-free step).

    A subclass's `__init__` validates its arguments and then sets its fields
    once, in order, with `_hold`; those fields are what a record compares,
    hashes and shows.
    """

    def _hold(self, **fields: object) -> None:
        vars(self).update(fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
