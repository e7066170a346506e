"""Wordpiece vocabularies: greedy segmentation, escapes, exact detokenization.

Segmentation follows the greedy longest-match scheme with a trailing
underscore marking the end of every word-level unit.  Characters that have
no path through the vocabulary are escaped as a backslash, the decimal
digits of their code point, and a semicolon, each emitted as its own token,
so any Unicode text is representable.  The learner is in `wordpiece_learner`,
which needs numpy; its public names still import from here.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

from .errors import EscapeDecodeError
from .textio import read_lines, write_lines

# End-of-unit marker appended to every word-level unit before matching.
WORD_MARKER = "_"

# Tokens any segmentation-capable vocabulary must contain: these are the
# only characters an escape sequence can emit.
ESCAPE_TOKENS = ("\\", ";", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", WORD_MARKER)

# Assignment variants of `transfer.map_vocabularies`, here for a parser without numpy.
VARIANTS = ("frequency", "everything_random", "unmatched_random", "levenshtein")

# Units whose tokens one Vocabulary remembers; later new units are not stored.
_UNIT_CACHE_SIZE = 1 << 16

_ESCAPE_RE = re.compile(r"\\(\d+);")
# A letter or digit: [^\W_] is exactly Unicode categories L and N.
_ALNUM_RE = re.compile(r"[^\W_]")
# Maximal runs of letters/digits or of the rest.
_RUN_RE = re.compile(_ALNUM_RE.pattern + r"+|[\W_]+")


def pretokenize(text: str) -> list[str]:
    """Split text into maximal runs of letter/digit vs. other characters.

    A run that is exactly one space between two runs is dropped; decoding
    re-inserts it.  This keeps punctuation attached to no word, so a word
    like "doma." becomes the two units "doma" and ".".
    """
    units = _RUN_RE.findall(text)
    if len(units) > 2:
        units[1:-1] = [unit for unit in units[1:-1] if unit != " "]
    return units


def _escape_char(ch: str) -> list[str]:
    return ["\\", *str(ord(ch)), ";"]


def _unsafe_mask(unit: str) -> list[bool]:
    # Literal backslashes and underscores in the original text must be
    # escaped, otherwise they collide with the escape and marker syntax.
    # The appended marker itself (last position) is always safe.
    mask = [c in ("\\", WORD_MARKER) for c in unit]
    mask.append(False)
    return mask


class Vocabulary:
    """An ordered list of unique subword tokens; the index of a token is its
    identity (an embedding row in any model trained with this vocabulary).
    """

    def __init__(self, tokens: Sequence[str], within_tolerance: bool = True):
        tokens = list(tokens)
        seen = set()
        for tok in tokens:
            if not tok:
                raise ValueError("vocabulary tokens must be non-empty")
            if "\n" in tok:
                raise ValueError(f"token {tok!r} contains a newline")
            if tok in seen:
                raise ValueError(f"duplicate token {tok!r}")
            if WORD_MARKER in tok[:-1]:
                raise ValueError(f"token {tok!r} has a non-final marker underscore")
            if "\\" in tok and tok != "\\":
                raise ValueError(f"token {tok!r} embeds a backslash; only the bare escape token may")
            seen.add(tok)
        self._tokens = tokens
        self._index = {tok: i for i, tok in enumerate(tokens)}
        self._max_len = max((len(t) for t in tokens), default=0)
        self.within_tolerance = within_tolerance
        self._units: dict[str, tuple[str, ...]] = {}

    @classmethod
    def with_ascii_fallback(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build a toy vocabulary: the given tokens plus every printable
        ASCII character, both bare and marker-suffixed, plus escape tokens."""
        extra = list(tokens)
        closure = dict.fromkeys(extra)
        for code in range(32, 127):
            ch = chr(code)
            if ch in ("\\", WORD_MARKER):
                continue
            closure.setdefault(ch)
            closure.setdefault(ch + WORD_MARKER)
        for tok in ESCAPE_TOKENS:
            closure.setdefault(tok)
        return cls(list(closure))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        # CRLF line ends are accepted.
        return cls([line.removesuffix("\r") for line in read_lines(path)])

    def save(self, path: str | Path) -> None:
        write_lines(path, self._tokens)

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    @property
    def max_token_length(self) -> int:
        return self._max_len

    def index(self, token: str) -> int:
        return self._index[token]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __getitem__(self, i: int) -> str:
        return self._tokens[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    def __repr__(self) -> str:
        return f"Vocabulary({len(self._tokens)} tokens)"


@dataclass(frozen=True)
class VocabSpec:
    """Target size and tolerances for vocabulary learning."""

    target_size: int
    tolerance: float = 0.01
    max_train_sentences: int = 20_000_000
    refine_iterations: int = 4

    def __post_init__(self):
        if not 0 < self.tolerance < 0.5:
            raise ValueError("tolerance must be in (0, 0.5)")
        if self.target_size < 1:
            raise ValueError("target_size must be positive")
        if self.refine_iterations < 1:
            raise ValueError("refine_iterations must be at least 1")


def _segment_boundaries(marked: str, unsafe: list[bool], index: Container[str], max_len: int) -> list[tuple[int, int]]:
    """(start, end) spans of the greedy longest match over a marked unit.

    An unsafe or unmatched character spans one position, to be escaped.  A
    token may also match word-finally without carrying the marker itself,
    in which case the marker fuses onto it ("me" matching at the end of
    "budeme_" spans "me_").
    """
    n = len(marked)
    spans = []
    i = 0
    while i < n:
        if unsafe[i]:
            spans.append((i, i + 1))
            i += 1
            continue
        stop = i
        while stop < n and not unsafe[stop]:
            stop += 1
        limit = min(max_len + 1, stop - i)  # +1 allows marker fusion
        consumed = 1
        for length in range(limit, 0, -1):
            cand = marked[i : i + length]
            if cand in index or (i + length == n and length > 1 and cand[:-1] in index):
                consumed = length
                break
        spans.append((i, i + consumed))
        i += consumed
    return spans


def apply_wordpiece(vocab: Vocabulary, sentence: str) -> list[str]:
    """Segment a sentence into wordpiece tokens under the given vocabulary."""
    for tok in ESCAPE_TOKENS:
        if tok not in vocab:
            raise ValueError(f"vocabulary lacks escape token {tok!r}; cannot segment arbitrary text")
    out = []
    for unit in pretokenize(sentence):
        tokens = vocab._units.get(unit)
        if tokens is None:
            marked = unit + WORD_MARKER
            unsafe = _unsafe_mask(unit)
            rendered = []
            for start, end in _segment_boundaries(marked, unsafe, vocab._index, vocab._max_len):
                token = marked[start:end]
                # Only a one-character span can be unsafe or unmatched.
                if end - start > 1 or (not unsafe[start] and token in vocab._index):
                    rendered.append(token)
                else:
                    rendered.extend(_escape_char(token))
            tokens = tuple(rendered)
            if len(vocab._units) < _UNIT_CACHE_SIZE:
                vocab._units[unit] = tokens
        out.extend(tokens)
    return out


def detokenize(tokens: Sequence[str]) -> str:
    """Exact inverse of apply_wordpiece for single-spaced input sentences."""
    text = "".join(tokens)
    if not text:
        return ""
    parts = text.split(WORD_MARKER)
    if parts[-1] == "":
        parts.pop()
    units = [_decode_escapes(part) for part in parts]
    pieces = []
    for i, unit in enumerate(units):
        if i > 0 and _ALNUM_RE.match(units[i - 1]) and _ALNUM_RE.match(unit):
            pieces.append(" ")
        pieces.append(unit)
    return "".join(pieces)


def _decode_escapes(text: str) -> str:
    out = []
    pos = 0
    while True:
        cut = text.find("\\", pos)
        if cut == -1:
            out.append(text[pos:])
            return "".join(out)
        out.append(text[pos:cut])
        m = _ESCAPE_RE.match(text, cut)
        if m is None:
            raise EscapeDecodeError(f"malformed escape at offset {cut} in {text!r}")
        out.append(chr(int(m.group(1))))
        pos = m.end()


def _count_units(corpora: Iterable[Iterable[str]], max_sentences: int) -> Counter:
    """Frequency of word-level units over the first max_sentences sentences."""
    counts: Counter = Counter()
    sentences = itertools.chain.from_iterable(corpora)
    for sentence in itertools.islice(sentences, max_sentences):
        counts.update(pretokenize(sentence))
    return counts


def __getattr__(name: str):
    if name in ("_CandidateBuilder", "WordpieceLearner", "learn_wordpiece"):  # loads numpy on first use
        from . import wordpiece_learner
        return getattr(wordpiece_learner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
