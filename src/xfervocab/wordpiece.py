"""Wordpiece vocabularies: size-targeted learning, greedy segmentation, escapes.

Segmentation follows the greedy longest-match scheme with a trailing
underscore marking the end of every word-level unit.  Characters that have
no path through the vocabulary are escaped as a backslash, the decimal
digits of their code point, and a semicolon, each emitted as its own token,
so any Unicode text is representable.  The learner builds candidate units
greedily from observed word types, sweeps a minimum-frequency threshold
from high to low to rank them, and cuts the ranking at the requested
target, warning when the corpus cannot support a size within tolerance.

The threshold ladder is incremental but yields exactly what recounting from
scratch at every pass of every threshold yields.  The first pass starts
from the base alphabet at every threshold, so its counts are computed once;
they are also the threshold-1 build.  Its candidates (every substring of a
safe run, plus the base) get fixed ids, sorted by length then token, and
counts and prefix discounts are array sums over those ids.  A refinement
pass that reproduces its token set is a fixed point and ends the threshold.
Moving to a new token set re-segments only the units that contain a token
whose membership changed.  No per-threshold state is kept, and the
counting state is dropped once the ranking exists.
"""

from __future__ import annotations

import functools
import itertools
import re
import unicodedata
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import EscapeDecodeError
from .textio import read_lines

# End-of-unit marker appended to every word-level unit before matching.
WORD_MARKER = "_"

# Tokens any segmentation-capable vocabulary must contain: these are the
# only characters an escape sequence can emit.
ESCAPE_TOKENS = ("\\", ";", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", WORD_MARKER)

_ESCAPE_RE = re.compile(r"\\(\d+);")


@functools.lru_cache(maxsize=None)
def _is_alnum(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("L", "N")


def pretokenize(text: str) -> list[str]:
    """Split text into maximal runs of letter/digit vs. other characters.

    A run that is exactly one space between two runs is dropped; decoding
    re-inserts it.  This keeps punctuation attached to no word, so a word
    like "doma." becomes the two units "doma" and ".".
    """
    if not text:
        return []
    units = []
    start = 0
    prev_alnum = _is_alnum(text[0])
    for pos in range(1, len(text)):
        cur_alnum = _is_alnum(text[pos])
        if cur_alnum != prev_alnum:
            unit = text[start:pos]
            if unit != " " or start == 0:
                units.append(unit)
            start = pos
            prev_alnum = cur_alnum
    units.append(text[start:])
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
        Path(path).write_text("\n".join(self._tokens) + "\n", encoding="utf-8")

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
    index = vocab._index
    max_len = vocab.max_token_length
    out = []
    for unit in pretokenize(sentence):
        marked = unit + WORD_MARKER
        unsafe = _unsafe_mask(unit)
        for start, end in _segment_boundaries(marked, unsafe, index, max_len):
            token = marked[start:end]
            # Only a one-character span can be unsafe or unmatched.
            if end - start > 1 or (not unsafe[start] and token in index):
                out.append(token)
            else:
                out.extend(_escape_char(token))
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
        if i > 0 and unit and units[i - 1] and _is_alnum(units[i - 1][0]) and _is_alnum(unit[0]):
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


class _CandidateBuilder:
    """Candidate counts over a fixed universe, updated as the token set moves.

    A unit contributes its frequency to every substring that starts at one
    of its segment starts and ends within that start's safe run: a chain of
    prefixes ending at the whole run suffix.  Every segment start under any
    token set is also a start of the base segmentation, so the substrings
    counted there form a fixed universe.  Each gets an id in (-length,
    token) order, with its immediate prefix as its parent.  A count is then
    the subtree sum over the run suffixes of the active starts, and the
    prefix discount is one carry pushed to the parent, one length block at a
    time.  Moving to a new token set re-segments only the units that
    contain a changed token.
    """

    def __init__(self, unit_counts: Counter, base: list[str]):
        self._units = sorted(unit_counts)
        self._freqs = [unit_counts[unit] for unit in self._units]
        self._index = set(base)  # the current token set, for _segment_boundaries
        # Segment starts of the threshold-1 (base) segmentation, the only
        # positions any later segmentation can start at, and the ends of
        # their safe runs.
        universe = set(base)
        starts, stops = array("i"), array("i")
        self._unit_offsets = array("i", [0])
        for unit in self._units:
            marked = unit + WORD_MARKER
            unsafe = _unsafe_mask(unit)
            for start, _end in _segment_boundaries(marked, unsafe, self._index, 1):
                if unsafe[start]:
                    continue
                stop = start
                while stop < len(marked) and not unsafe[stop]:
                    stop += 1
                starts.append(start)
                stops.append(stop)
                universe.update(marked[start:end] for end in range(start + 1, stop + 1))
            self._unit_offsets.append(len(starts))
        self._starts = starts
        self._active = bytearray(b"\x01") * len(starts)

        # Each temporary goes before the next is built: what the learner
        # holds at its peak adds to the peak of the step that calls it.
        lexical = sorted(universe)
        del universe
        lengths = np.fromiter(map(len, lexical), np.int32, len(lexical))
        order = np.argsort(-lengths, kind="stable")
        self.tokens = [lexical[i] for i in order.tolist()]
        del lexical
        self.lex_rank = order.astype(np.int32)
        lengths = lengths[order]
        cuts = np.flatnonzero(np.diff(lengths)) + 1
        bounds = [0, *cuts.tolist(), len(lengths)]
        # (first, last) id of each length block, longest first, length >= 2.
        self._blocks = [(a, b) for a, b in zip(bounds, bounds[1:]) if lengths[a] >= 2]
        self._lengths = lengths
        id_of = {tok: i for i, tok in enumerate(self.tokens)}
        self._parent = np.fromiter(
            (id_of[tok[:-1]] if len(tok) > 1 else -1 for tok in self.tokens), np.int32, len(self.tokens)
        )
        # Id of the run suffix of each start: the deepest candidate it counts.
        self._suffix = array("i")
        for u, unit in enumerate(self._units):
            marked = unit + WORD_MARKER
            for j in range(self._unit_offsets[u], self._unit_offsets[u + 1]):
                self._suffix.append(id_of[marked[starts[j] : stops[j]]])
        self.base_ids = [id_of[tok] for tok in base]
        del id_of

        # Summed frequency of the active starts whose run suffix each id is.
        self._suffix_counts = np.zeros(len(self.tokens), np.int64)
        weights = np.repeat(np.asarray(self._freqs, np.int64), np.diff(self._unit_offsets))
        np.add.at(self._suffix_counts, np.frombuffer(self._suffix, np.int32), weights)
        self._current = np.zeros(len(self.tokens), bool)  # selected ids in the token set

    def counts(self) -> np.ndarray:
        """Candidate counts under the current segmentation."""
        counts = self._suffix_counts.copy()
        for first, last in self._blocks:
            np.add.at(counts, self._parent[first:last], counts[first:last])
        return counts

    def select(self, counts: np.ndarray, min_count: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Candidates of length >= 2 whose count, discounted by the selected
        candidates they prefix, reaches min_count (all of them when None),
        and the discounted counts."""
        carry = np.zeros_like(counts)
        adjusted = np.zeros_like(counts)
        selected = np.zeros(len(counts), bool)
        for first, last in self._blocks:
            block = slice(first, last)
            np.subtract(counts[block], carry[block], out=adjusted[block])
            if min_count is None:
                selected[block] = True
                pushed = counts[block]
            else:
                np.greater_equal(adjusted[block], min_count, out=selected[block])
                pushed = carry[block] + adjusted[block] * selected[block]
            np.add.at(carry, self._parent[block], pushed)
        return selected, adjusted

    def move_to(self, selected: np.ndarray) -> None:
        """Re-segment the units that contain a token whose membership in the
        current set (base tokens plus selected) changes."""
        changed = np.flatnonzero(selected != self._current)
        if not len(changed):
            return
        for i in changed.tolist():
            if selected[i]:
                self._index.add(self.tokens[i])
            else:
                self._index.discard(self.tokens[i])
        self._current = selected
        longest = int(np.argmax(selected))  # ids run longest first
        max_len = int(self._lengths[longest]) if selected[longest] else 1
        # A unit holds a changed token iff some run suffix of it descends
        # from one; mark descendants shortest block first.
        reach = np.zeros(len(self.tokens), bool)
        reach[changed] = True
        for first, last in reversed(self._blocks):
            reach[first:last] |= reach[self._parent[first:last]]
        hits = reach[np.frombuffer(self._suffix, np.int32)]
        touched = np.logical_or.reduceat(hits, np.frombuffer(self._unit_offsets, np.int32)[:-1])
        ids, weights = [], []
        for u in np.flatnonzero(touched).tolist():
            unit = self._units[u]
            unsafe = _unsafe_mask(unit)
            now = {start for start, _end in _segment_boundaries(unit + WORD_MARKER, unsafe, self._index, max_len)}
            for j in range(self._unit_offsets[u], self._unit_offsets[u + 1]):
                active = self._starts[j] in now
                if active != self._active[j]:
                    self._active[j] = active
                    ids.append(self._suffix[j])
                    weights.append(self._freqs[u] if active else -self._freqs[u])
        if ids:
            np.add.at(self._suffix_counts, ids, weights)


class WordpieceLearner:
    """Reusable learner bound to one unit-frequency table.

    Candidate units survive at descending minimum-frequency thresholds; a
    unit is ranked by the highest threshold at which it first survives, then
    by its discounted count there.  The resulting ranking is the same for
    every target size, so vocabularies of different sizes cut from it are
    nested, and any target up to the inventory size is hit exactly.
    """

    def __init__(self, unit_counts: Counter, refine_iterations: int = 4):
        if not unit_counts:
            raise ValueError("cannot learn a vocabulary from an empty corpus")
        chars = set()
        for unit in unit_counts:
            chars.update(unit)
        chars -= {"\\", WORD_MARKER}
        self._base = sorted(chars.union(ESCAPE_TOKENS))
        self._unit_counts: Counter | None = unit_counts
        self._refine_iterations = refine_iterations
        self._max_count = max(unit_counts.values())
        self._ranking: list[str] | None = None
        # Threshold-1 counts, aligned with the ranking and with the base.
        self._ranked_raw: np.ndarray | None = None
        self._base_raw: list[int] = []

    @classmethod
    def from_corpora(
        cls,
        corpora: Sequence[Iterable[str]],
        max_train_sentences: int = 20_000_000,
        refine_iterations: int = 4,
    ) -> "WordpieceLearner":
        if not corpora:
            raise ValueError("cannot learn a vocabulary from an empty corpus")
        counts = _count_units(corpora, max_train_sentences)
        return cls(counts, refine_iterations)

    @property
    def base_tokens(self) -> list[str]:
        return list(self._base)

    def _thresholds(self) -> list[int]:
        ladder = []
        level = self._max_count
        while level >= 2:
            ladder.append(level)
            level //= 2
        ladder.append(1)
        return ladder

    def _canonical_ranking(self) -> list[str]:
        if self._ranking is not None:
            return self._ranking
        builder = _CandidateBuilder(self._unit_counts, self._base)
        # Pass 1 starts from the base at every threshold, so its counts are
        # shared; selecting everything from them is the threshold-1 build.
        first_counts = builder.counts()
        everything, raw = builder.select(first_counts, None)
        raw[builder.base_ids] = first_counts[builder.base_ids]
        ranked = np.zeros(len(raw), bool)
        ranked[builder.base_ids] = True
        levels = []
        for threshold in self._thresholds():
            if threshold <= 1:
                selected, adjusted = everything, raw
            else:
                selected, adjusted = builder.select(first_counts, threshold)
                previous = np.zeros_like(selected)
                for _ in range(self._refine_iterations - 1):
                    if np.array_equal(selected, previous):
                        break  # a fixed point: further passes repeat it
                    builder.move_to(selected)
                    previous = selected
                    selected, adjusted = builder.select(builder.counts(), threshold)
            new = np.flatnonzero(selected & ~ranked)
            new = new[np.lexsort((builder.lex_rank[new], -adjusted[new]))]
            ranked[new] = True
            levels.append(new)
        order = np.concatenate(levels)
        self._ranking = [builder.tokens[i] for i in order.tolist()]
        self._ranked_raw = raw[order]
        self._base_raw = raw[builder.base_ids].tolist()
        self._unit_counts = None  # no counting state outlives the ranking
        return self._ranking

    def learn(self, spec: VocabSpec) -> Vocabulary:
        ranking = self._canonical_ranking()
        base = self._base
        target = spec.target_size
        if target < len(base):
            raise ValueError(f"target_size {target} is below the alphabet size {len(base)}")
        wanted = target - len(base)
        selected = ranking[:wanted]
        size = len(base) + len(selected)
        within = abs(size - target) <= spec.tolerance * target
        if not within:
            warnings.warn(
                f"vocabulary size {size} misses target {target} beyond tolerance "
                f"{spec.tolerance:.2%}; returning the closest achieved size",
                stacklevel=3,
            )
        raw = self._ranked_raw[:wanted].tolist() + self._base_raw
        ordered = sorted(zip((-count for count in raw), selected + base))
        return Vocabulary([tok for _count, tok in ordered], within_tolerance=within)


def learn_wordpiece(corpora: Sequence[Iterable[str]], spec: VocabSpec) -> Vocabulary:
    """Learn a wordpiece vocabulary of roughly spec.target_size tokens.

    Multiple corpora are treated as one concatenated stream; counting stops
    after spec.max_train_sentences sentences.  The result always contains
    every observed character and the full escape alphabet, and its
    within_tolerance flag records whether the size contract was met.
    """
    learner = WordpieceLearner.from_corpora(
        corpora, spec.max_train_sentences, spec.refine_iterations
    )
    return learner.learn(spec)
