"""Wordpiece vocabularies: greedy segmentation, escapes, exact detokenization.

Segmentation follows the greedy longest-match scheme with a trailing
underscore marking the end of every word-level unit.  `_runs` cuts a unit,
for the matcher and the learner alike, into safe runs with one unsafe
character ("\\" or the marker) between two of them, and puts the marker on
the last run.  Each safe run is matched longest token first: from each
position the match walks a table of every token prefix forward, stops at
the first prefix that no token has, and takes the longest token it passed.
A token that ends the last run without the marker takes it ("me" ends
"budeme_" as "me_").  An unsafe character, and one no token starts, is
escaped as a backslash, the decimal digits of its code point, and a
semicolon, each its own token, so any Unicode text is representable.

A unit's tokens never depend on its neighbours, so `_apply_lines` segments
each distinct unit of a call once, through a memo that lives for the call,
and `_unit_token_counts` counts tokens over a table of distinct units.  The
prefix table is made on a vocabulary's first segmentation.  The learner,
which needs numpy, is in `wordpiece_learner`; its names import from here.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CorpusFormatError, EscapeDecodeError, Record
from .textio import _Memo, read_model_lines, render_lines, write_text

# End-of-unit marker appended to every word-level unit before matching.
WORD_MARKER = "_"

# Tokens any segmentation-capable vocabulary must contain: these are the
# only characters an escape sequence can emit.
ESCAPE_TOKENS = ("\\", ";", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", WORD_MARKER)

# Assignment variants of `transfer.map_vocabularies`, here for a parser without numpy.
VARIANTS = ("frequency", "everything_random", "unmatched_random", "levenshtein")

# Sentences a learner counts unless told otherwise.
MAX_TRAIN_SENTENCES = 20_000_000

# Characters a unit's own text must escape, since they would collide with
# the escape and marker syntax; the marker appended to a unit is safe.  The
# group keeps each unsafe character in what `split` returns.
_UNSAFE_CHARS = "\\" + WORD_MARKER
_UNSAFE_RE = re.compile("([" + re.escape(_UNSAFE_CHARS) + "])")

# ASCII digits only, the only ones the encoder writes: \d would also take "١٢".
_ESCAPE_RE = re.compile(r"\\([0-9]+);")
# A letter or digit: [^\W_] is exactly Unicode categories L and N.
_ALNUM_RE = re.compile(r"[^\W_]")
# Maximal runs of letters/digits or of the rest, skipping a run that is
# one space between two letters/digits.
_UNIT_RE = re.compile(r"[^\W_]+|(?!(?<=[^\W_]) (?=[^\W_]))[\W_]+")


def pretokenize(text: str) -> list[str]:
    """Split text into maximal runs of letter/digit vs. other characters.

    A run that is exactly one space between two runs is dropped; decoding
    re-inserts it.  This keeps punctuation attached to no word, so a word
    like "doma." becomes the two units "doma" and ".".
    """
    return _UNIT_RE.findall(text)


def _escape_char(ch: str) -> list[str]:
    return ["\\", *str(ord(ch)), ";"]


def _runs(unit: str) -> list[str]:
    """The unit's safe runs, possibly empty, at even indices and the unsafe
    character between two of them at odd ones; the marker ends the last run."""
    parts = _UNSAFE_RE.split(unit)
    parts[-1] += WORD_MARKER
    return parts


def _prefixes(tokens: Iterable[str]) -> dict[str, bool]:
    """Every prefix of every token, mapped to whether it is a token itself."""
    prefixes: dict[str, bool] = {}
    for tok in tokens:
        for k in range(1, len(tok)):
            prefixes.setdefault(tok[:k], False)
        prefixes[tok] = True
    return prefixes


def _segment_unit(prefixes: dict[str, bool], unit: str) -> tuple[str, ...]:
    """The tokens of one unit: each unsafe character escaped, each safe run
    matched greedily, and a character no token starts escaped.  From each
    position the match walks `prefixes` forward, stops at the first prefix
    no token has, and takes the longest token it passed."""
    parts = _runs(unit)
    last = len(parts) - 1
    out = []
    for p, part in enumerate(parts):
        if p % 2:
            out += _escape_char(part)
            continue
        n = len(part)
        fuse_at = n - 1 if p == last else -1  # a token ending just before the marker takes it
        i = 0
        while i < n:
            end = i
            for j in range(i + 1, n + 1):
                is_token = prefixes.get(part[i:j])
                if is_token is None:
                    break
                if is_token:
                    end = n if j == fuse_at else j
            if end == i:
                out += _escape_char(part[i])
                i += 1
            else:
                out.append(part[i:end])
                i = end
    return tuple(out)


class Vocabulary:
    """An ordered list of unique subword tokens; the index of a token is its
    identity (an embedding row in any model trained with this vocabulary).
    """

    def __init__(self, tokens: Sequence[str], within_tolerance: bool = True):
        tokens = list(tokens)
        problem = _first_bad_token(tokens)
        if problem is not None:
            raise ValueError(problem[1])
        self._tokens = tokens
        self._index = {tok: i for i, tok in enumerate(tokens)}
        self.within_tolerance = within_tolerance

    @functools.cached_property
    def _units(self) -> Callable[[str], tuple[str, ...]]:
        """The unit -> tokens function, with no memo.  Its prefix table is made
        on first use, since most vocabularies a learner or a size search
        builds never segment.  A vocabulary that cannot escape every
        character is refused, on every use."""
        missing = next((tok for tok in ESCAPE_TOKENS if tok not in self._index), None)
        if missing is not None:
            raise ValueError(f"vocabulary lacks escape token {missing!r}; cannot segment arbitrary text")
        return functools.partial(_segment_unit, _prefixes(self._tokens))

    @classmethod
    def with_ascii_fallback(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build a toy vocabulary: the given tokens plus every printable
        ASCII character, both bare and marker-suffixed, plus escape tokens."""
        extra = list(tokens)
        closure = dict.fromkeys(extra)
        for code in range(32, 127):
            ch = chr(code)
            if ch in _UNSAFE_CHARS:
                continue
            closure.setdefault(ch)
            closure.setdefault(ch + WORD_MARKER)
        for tok in ESCAPE_TOKENS:
            closure.setdefault(tok)
        return cls(list(closure))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = read_model_lines(path)
        try:
            return cls(tokens)
        except ValueError:  # only validation raises; find the line again
            index, message = _first_bad_token(tokens)
            raise CorpusFormatError(f"{path}: line {index + 1}: {message}") from None

    def render(self) -> str:
        """The text of the vocabulary file, one token a line."""
        # `load` strips a trailing "\r" as a CRLF line end, so such a token would not come back.
        for tok in self._tokens:
            if tok.endswith("\r"):
                raise CorpusFormatError(f"token {tok!r} ends with a carriage return; a vocabulary file cannot keep it")
        return render_lines(self._tokens)

    def save(self, path: str | Path) -> None:
        write_text(path, self.render())

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

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


def _first_bad_token(tokens: list[str]) -> tuple[int, str] | None:
    """The index of the first token that is empty, holds a newline, repeats
    an earlier one, has a non-final marker or embeds a backslash, and what
    is wrong with it; None when every token is valid."""
    seen = set()
    for i, tok in enumerate(tokens):
        if not tok:
            return i, "vocabulary tokens must be non-empty"
        if "\n" in tok:
            return i, f"token {tok!r} contains a newline"
        if tok in seen:
            return i, f"duplicate token {tok!r}"
        if WORD_MARKER in tok[:-1]:
            return i, f"token {tok!r} has a non-final marker underscore"
        if "\\" in tok and tok != "\\":
            return i, f"token {tok!r} embeds a backslash; only the bare escape token may"
        seen.add(tok)
    return None


class VocabSpec(Record):
    """Target size and tolerances for vocabulary learning."""

    target_size: int
    tolerance: float = 0.01  # the default, which the CLI and the merged-vocabulary search read

    def __init__(self, target_size: int, tolerance: float = tolerance):
        if not 0 < tolerance < 0.5:
            raise ValueError("tolerance must be in (0, 0.5)")
        if target_size < 1:
            raise ValueError("target_size must be positive")
        self._hold(target_size=target_size, tolerance=tolerance)

    def within(self, size: int) -> bool:
        """Whether a vocabulary of `size` tokens meets the size contract."""
        return abs(size - self.target_size) <= self.tolerance * self.target_size


def apply_wordpiece(vocab: Vocabulary, sentence: str) -> list[str]:
    """Segment a sentence into wordpiece tokens under the given vocabulary."""
    segment = vocab._units  # refuses a vocabulary that cannot segment, for an empty sentence too
    return [tok for unit in pretokenize(sentence) for tok in segment(unit)]


def _apply_lines(vocab: Vocabulary, lines: list[str]) -> list[str]:
    """`" ".join(apply_wordpiece(vocab, line))` of each line, each distinct unit segmented once."""
    segment = vocab._units if lines else None  # as apply_wordpiece, refuses only once there is a line
    rendered = _Memo(lambda unit: " ".join(segment(unit)))
    return [" ".join(map(rendered.__getitem__, pretokenize(line))) for line in lines]


def detokenize(tokens: Sequence[str]) -> str:
    """Exact inverse of apply_wordpiece, on any text.

    `pretokenize` drops only a single space between two letter/digit runs,
    and since its units are maximal runs, two adjacent letter/digit units
    mean such a space, which goes back between them.  Checked by a property
    test over arbitrary Unicode (tabs, CRLF, runs of spaces, the marker,
    the escape and combining marks) under a learned and a toy vocabulary;
    a probe of 200 000 such strings under both found no failure."""
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


def _count_units(corpora: Iterable[Iterable[str]], max_sentences: int | None) -> Counter:
    """Frequency of word-level units over the first max_sentences sentences
    (every sentence when None)."""
    if max_sentences is not None and max_sentences < 0:
        raise ValueError(f"max_train_sentences must be non-negative, got {max_sentences}")
    sentences = itertools.islice(itertools.chain.from_iterable(corpora), max_sentences)
    return Counter(itertools.chain.from_iterable(map(pretokenize, sentences)))


def _unit_token_counts(vocab: Vocabulary, units: Mapping[str, int]) -> Counter:
    """Each token's count over a unit table segmented under `vocab`: each
    distinct unit is segmented once and its count added to each of its
    tokens.  This is exact, because a unit's tokens never depend on its
    neighbours."""
    segment = vocab._units
    counts: Counter = Counter()
    for unit, count in units.items():
        for tok in segment(unit):
            counts[tok] += count
    return counts


def __getattr__(name: str):
    if name in ("_CandidateBuilder", "WordpieceLearner", "learn_wordpiece"):  # loads numpy on first use
        from . import wordpiece_learner
        return getattr(wordpiece_learner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
