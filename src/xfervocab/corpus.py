"""Parallel corpus loading, filtering, sampling, mixing, and corruption.

All operations are pure: they return new corpora and never mutate their
inputs.  Every filter keeps surviving pairs in their original order, and
every seeded operation is bit-reproducible for equal (input, seed).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterator

from .errors import AlignmentError, CorpusFormatError, SampleSizeError
from .textio import read_lines, render_tsv, write_lines, write_text
from .wordpiece import Vocabulary, apply_wordpiece

_WORD_RE = re.compile(r"\S+")

CORRUPTION_MODES = ("shuffle_source", "shuffle_target", "shuffle_both", "sort_target", "shuffle_pairing")


@dataclass(frozen=True)
class ParallelCorpus:
    """Aligned source/target sentences; loading applies no tokenization."""

    sources: tuple[str, ...]
    targets: tuple[str, ...]
    source_lang: str = "src"
    target_lang: str = "tgt"

    def __post_init__(self):
        if len(self.sources) != len(self.targets):
            raise AlignmentError(
                f"source has {len(self.sources)} sentences but target has {len(self.targets)}"
            )
        for side in (self.sources, self.targets):
            for sentence in side:
                if "\n" in sentence:
                    raise CorpusFormatError(f"sentence contains a newline: {sentence!r}")

    @classmethod
    def from_pairs(cls, pairs, source_lang="src", target_lang="tgt") -> "ParallelCorpus":
        sources = tuple(src for src, _ in pairs)
        targets = tuple(tgt for _, tgt in pairs)
        return cls(sources, targets, source_lang, target_lang)

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.sources, self.targets))

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(zip(self.sources, self.targets))


@dataclass(frozen=True)
class FilterReport:
    kept: int
    dropped: int
    dropped_fraction: float

    @classmethod
    def from_counts(cls, kept: int, dropped: int) -> "FilterReport":
        total = kept + dropped
        return cls(kept, dropped, dropped / total if total else 0.0)

    def to_tsv(self) -> str:
        return render_tsv([("kept", "dropped", "dropped_fraction"), astuple(self)])


def load_parallel(
    source_path: str | Path,
    target_path: str | Path,
    source_lang: str = "src",
    target_lang: str = "tgt",
) -> ParallelCorpus:
    """Zip two one-sentence-per-line files into a parallel corpus."""
    sources = read_lines(source_path)
    targets = read_lines(target_path)
    if len(sources) != len(targets):
        raise AlignmentError(
            f"{source_path} has {len(sources)} lines but {target_path} has {len(targets)}"
        )
    return ParallelCorpus(tuple(sources), tuple(targets), source_lang, target_lang)


def load_parallel_tsv(path: str | Path, source_lang="src", target_lang="tgt") -> ParallelCorpus:
    """Load a two-column TSV; a row without exactly one tab is rejected."""
    sources, targets = [], []
    for i, line in enumerate(read_lines(path), start=1):
        columns = line.split("\t")
        if len(columns) != 2:
            raise CorpusFormatError(f"{path}: line {i}: expected 2 tab-separated columns, got {len(columns)}")
        sources.append(columns[0])
        targets.append(columns[1])
    return ParallelCorpus(tuple(sources), tuple(targets), source_lang, target_lang)


def write_parallel(corpus: ParallelCorpus, source_path: str | Path, target_path: str | Path) -> None:
    write_lines(source_path, corpus.sources)
    write_lines(target_path, corpus.targets)


def write_parallel_tsv(corpus: ParallelCorpus, path: str | Path) -> None:
    write_text(path, render_tsv(corpus))


def _word_count(sentence: str) -> int:
    return len(sentence.split())


def filter_by_word_length(
    corpus: ParallelCorpus, min_words: int, max_words: int | float
) -> tuple[ParallelCorpus, FilterReport]:
    """Keep pairs whose sides both have more than min_words and at most
    max_words whitespace words ("3 or fewer" removed means min_words=3)."""
    if min_words > max_words:
        raise ValueError("min_words must not exceed max_words")
    kept = [
        (src, tgt)
        for src, tgt in corpus
        if min_words < _word_count(src) <= max_words and min_words < _word_count(tgt) <= max_words
    ]
    report = FilterReport.from_counts(len(kept), len(corpus) - len(kept))
    out = ParallelCorpus.from_pairs(kept, corpus.source_lang, corpus.target_lang)
    return out, report


def filter_by_subword_length(
    corpus: ParallelCorpus, vocab: Vocabulary, max_tokens: int
) -> tuple[ParallelCorpus, FilterReport]:
    """Keep pairs segmenting to at most max_tokens wordpieces on both sides."""
    kept = [
        (src, tgt)
        for src, tgt in corpus
        if len(apply_wordpiece(vocab, src)) <= max_tokens
        and len(apply_wordpiece(vocab, tgt)) <= max_tokens
    ]
    report = FilterReport.from_counts(len(kept), len(corpus) - len(kept))
    out = ParallelCorpus.from_pairs(kept, corpus.source_lang, corpus.target_lang)
    return out, report


def sample_equal(a: ParallelCorpus, b: ParallelCorpus, per_side: int, seed: int) -> ParallelCorpus:
    """Draw per_side pairs uniformly without replacement from each corpus and
    concatenate the two samples (a's sample first)."""
    if per_side > min(len(a), len(b)):
        raise SampleSizeError(
            f"per_side {per_side} exceeds the smaller corpus size {min(len(a), len(b))}"
        )
    rng = random.Random(seed)
    picked_a = [(a.sources[i], a.targets[i]) for i in rng.sample(range(len(a)), per_side)]
    picked_b = [(b.sources[i], b.targets[i]) for i in rng.sample(range(len(b)), per_side)]
    source_lang = a.source_lang if a.source_lang == b.source_lang else "mixed"
    target_lang = a.target_lang if a.target_lang == b.target_lang else "mixed"
    return ParallelCorpus.from_pairs(picked_a + picked_b, source_lang, target_lang)


def subsample(corpus: ParallelCorpus, size: int, seed: int) -> ParallelCorpus:
    """Downscale to `size` pairs drawn uniformly without replacement, kept in
    their original relative order (a subsequence, like the filters)."""
    if size > len(corpus):
        raise SampleSizeError(f"size {size} exceeds the corpus size {len(corpus)}")
    indices = sorted(random.Random(seed).sample(range(len(corpus)), size))
    pairs = [(corpus.sources[i], corpus.targets[i]) for i in indices]
    return ParallelCorpus.from_pairs(pairs, corpus.source_lang, corpus.target_lang)


def mix_with_oversample(
    authentic: ParallelCorpus, synthetic: ParallelCorpus, factor: int, seed: int = 0
) -> ParallelCorpus:
    """factor copies of authentic plus synthetic, Fisher-Yates shuffled with
    the given seed (default 0) so training order is reproducible."""
    if factor < 1:
        raise ValueError("factor must be at least 1")
    combined = authentic.pairs * factor + synthetic.pairs
    random.Random(seed).shuffle(combined)
    return ParallelCorpus.from_pairs(combined, authentic.source_lang, authentic.target_lang)


def _sample_derangement(letters: list[str], rng: random.Random) -> dict[str, str]:
    if len(letters) == 1:
        # No derangement exists over one letter; shift to the next code point.
        return {letters[0]: chr(ord(letters[0]) + 1)}
    while True:
        shuffled = letters[:]
        rng.shuffle(shuffled)
        if all(x != y for x, y in zip(letters, shuffled)):
            return dict(zip(letters, shuffled))


def _cipher_char(ch: str, mapping: dict[str, str]) -> str:
    low = ch.lower()
    if len(low) != 1:
        low = ch
    mapped = mapping.get(low)
    if mapped is None:
        return ch
    return mapped.upper() if ch.isupper() else mapped


def _cipher_word(word: str, mapping: dict[str, str]) -> str:
    return "".join(_cipher_char(c, mapping) if c.isalpha() else c for c in word)


def make_pseudo_related(corpus: ParallelCorpus, keep_percent: float, seed: int) -> ParallelCorpus:
    """Turn a corpus into a pseudo-related one via a fixed-point-free letter
    substitution applied to all but a kept fraction of word types.

    One cipher is drawn over the lowercase alphabet observed on either side;
    digits and punctuation pass through and capitalization is preserved.
    Keep sets are word types sampled independently per language, so every
    occurrence of a kept type survives unchanged.
    """
    if not 0.0 <= keep_percent <= 1.0:
        raise ValueError("keep_percent must be within [0, 1]")
    rng = random.Random(seed)

    letters = set()
    for side in (corpus.sources, corpus.targets):
        for sentence in side:
            for ch in sentence:
                if ch.isalpha():
                    low = ch.lower()
                    letters.add(low if len(low) == 1 else ch)
    mapping = _sample_derangement(sorted(letters), rng) if letters else {}

    def keep_set(side: tuple[str, ...]) -> set[str]:
        types = sorted({word for sentence in side for word in sentence.split()})
        k = math.ceil(keep_percent * len(types))
        return set(rng.sample(types, k))

    keep_src = keep_set(corpus.sources)
    keep_tgt = keep_set(corpus.targets)

    def transform(sentence: str, kept: set[str]) -> str:
        return _WORD_RE.sub(
            lambda m: m.group(0) if m.group(0) in kept else _cipher_word(m.group(0), mapping),
            sentence,
        )

    sources = tuple(transform(s, keep_src) for s in corpus.sources)
    targets = tuple(transform(t, keep_tgt) for t in corpus.targets)
    return ParallelCorpus(sources, targets, corpus.source_lang, corpus.target_lang)


def corrupt_word_order(corpus: ParallelCorpus, mode: str, seed: int) -> ParallelCorpus:
    """Break word order or pairing: shuffle_source / shuffle_target /
    shuffle_both permute words within affected sentences, sort_target orders
    target words by code point, shuffle_pairing permutes the target column."""
    if mode not in CORRUPTION_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {CORRUPTION_MODES}")
    rng = random.Random(seed)

    def shuffle_words(sentence: str) -> str:
        words = sentence.split()
        rng.shuffle(words)
        return " ".join(words)

    if mode == "shuffle_pairing":
        order = list(range(len(corpus)))
        rng.shuffle(order)
        targets = tuple(corpus.targets[i] for i in order)
        return ParallelCorpus(corpus.sources, targets, corpus.source_lang, corpus.target_lang)

    sources, targets = [], []
    for src, tgt in corpus:
        if mode in ("shuffle_source", "shuffle_both"):
            src = shuffle_words(src)
        if mode in ("shuffle_target", "shuffle_both"):
            tgt = shuffle_words(tgt)
        elif mode == "sort_target":
            tgt = " ".join(sorted(tgt.split()))
        sources.append(src)
        targets.append(tgt)
    return ParallelCorpus(tuple(sources), tuple(targets), corpus.source_lang, corpus.target_lang)
