"""Parallel corpus loading, filtering, sampling, mixing, and corruption.

All operations are pure: they return new corpora and never mutate their
inputs.  Both filters apply one per-sentence test to both sides through
one path (`_filtered`), keeping surviving pairs in their original order,
and every seeded operation is bit-reproducible for equal (input, seed).
"""

from __future__ import annotations

import math
import random
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import AlignmentError, CorpusFormatError, Record, SampleSizeError, check_seed
from .textio import _Memo, read_lines, render_tsv, write_lines, write_text
from .wordpiece import Vocabulary, pretokenize

_SPACE_RE = re.compile(r"(\s+)")

CORRUPTION_MODES = ("shuffle_source", "shuffle_target", "shuffle_both", "sort_target", "shuffle_pairing")


class ParallelCorpus(Record):
    """Aligned source/target sentences; loading applies no tokenization.  Each
    side is kept as a tuple of the sentences given."""

    sources: tuple[str, ...]
    targets: tuple[str, ...]

    def __init__(self, sources: Iterable[str], targets: Iterable[str]):
        sources, targets = tuple(sources), tuple(targets)
        if len(sources) != len(targets):
            raise AlignmentError(f"source has {len(sources)} sentences but target has {len(targets)}")
        for side in (sources, targets):
            for sentence in side:
                if "\n" in sentence:
                    raise CorpusFormatError(f"sentence contains a newline: {sentence!r}")
        self._hold(sources=sources, targets=targets)

    @classmethod
    def from_pairs(cls, pairs) -> "ParallelCorpus":
        return cls([src for src, _ in pairs], [tgt for _, tgt in pairs])

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.sources, self.targets))

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(zip(self.sources, self.targets))


class FilterReport(NamedTuple):
    kept: int
    dropped: int
    dropped_fraction: float

    @classmethod
    def from_counts(cls, kept: int, dropped: int) -> "FilterReport":
        total = kept + dropped
        return cls(kept, dropped, dropped / total if total else 0.0)

    def to_tsv(self) -> str:
        return render_tsv([("kept", "dropped", "dropped_fraction"), self])


def load_parallel(source_path: str | Path, target_path: str | Path) -> ParallelCorpus:
    """Zip two one-sentence-per-line files into a parallel corpus."""
    sources = read_lines(source_path)
    targets = read_lines(target_path)
    if len(sources) != len(targets):
        raise AlignmentError(
            f"{source_path} has {len(sources)} lines but {target_path} has {len(targets)}"
        )
    return ParallelCorpus(sources, targets)


def load_parallel_tsv(path: str | Path) -> ParallelCorpus:
    """Load a two-column TSV; a row without exactly one tab is rejected."""
    sources, targets = [], []
    for i, line in enumerate(read_lines(path), start=1):
        columns = line.split("\t")
        if len(columns) != 2:
            raise CorpusFormatError(f"{path}: line {i}: expected 2 tab-separated columns, got {len(columns)}")
        sources.append(columns[0])
        targets.append(columns[1])
    return ParallelCorpus(sources, targets)


def write_parallel(corpus: ParallelCorpus, source_path: str | Path, target_path: str | Path) -> None:
    write_lines(source_path, corpus.sources)
    write_lines(target_path, corpus.targets)


def write_parallel_tsv(corpus: ParallelCorpus, path: str | Path) -> None:
    write_text(path, render_tsv(corpus))


def _filtered(corpus: ParallelCorpus, keep: Callable[[str], bool]) -> tuple[ParallelCorpus, FilterReport]:
    """Keep, in order, the pairs whose source and then target pass keep."""
    kept = [(src, tgt) for src, tgt in corpus if keep(src) and keep(tgt)]
    return ParallelCorpus.from_pairs(kept), FilterReport.from_counts(len(kept), len(corpus) - len(kept))


def filter_by_word_length(
    corpus: ParallelCorpus, min_words: int, max_words: int | float
) -> tuple[ParallelCorpus, FilterReport]:
    """Keep pairs whose sides both have more than min_words and at most
    max_words whitespace words ("3 or fewer" removed means min_words=3)."""
    if math.isnan(max_words):  # no length compares true with NaN, so every pair would drop
        raise ValueError(f"max_words must be a number, got {max_words}")
    if min_words > max_words:
        raise ValueError("min_words must not exceed max_words")
    return _filtered(corpus, lambda sentence: min_words < len(sentence.split()) <= max_words)


def filter_by_subword_length(
    corpus: ParallelCorpus, vocab: Vocabulary, max_tokens: int
) -> tuple[ParallelCorpus, FilterReport]:
    """Keep pairs segmenting to at most max_tokens wordpieces on both sides."""
    if max_tokens < 0:
        raise ValueError(f"max_tokens must be non-negative, got {max_tokens}")
    segment = vocab._units if len(corpus) else None  # as apply_wordpiece, refuses only once there is a sentence
    lengths = _Memo(lambda unit: len(segment(unit)))
    return _filtered(corpus, lambda sentence: sum(map(lengths.__getitem__, pretokenize(sentence))) <= max_tokens)


def sample_equal(a: ParallelCorpus, b: ParallelCorpus, per_side: int, seed: int) -> ParallelCorpus:
    """Draw per_side pairs uniformly without replacement from each corpus and
    concatenate the two samples (a's sample first)."""
    if per_side < 0:
        raise SampleSizeError(f"per_side must be non-negative, got {per_side}")
    if per_side > min(len(a), len(b)):
        raise SampleSizeError(
            f"per_side {per_side} exceeds the smaller corpus size {min(len(a), len(b))}"
        )
    rng = random.Random(check_seed(seed))
    picked_a = [(a.sources[i], a.targets[i]) for i in rng.sample(range(len(a)), per_side)]
    picked_b = [(b.sources[i], b.targets[i]) for i in rng.sample(range(len(b)), per_side)]
    return ParallelCorpus.from_pairs(picked_a + picked_b)


def subsample(corpus: ParallelCorpus, size: int, seed: int) -> ParallelCorpus:
    """Downscale to `size` pairs drawn uniformly without replacement, kept in
    their original relative order (a subsequence, like the filters)."""
    if size < 0:
        raise SampleSizeError(f"size must be non-negative, got {size}")
    if size > len(corpus):
        raise SampleSizeError(f"size {size} exceeds the corpus size {len(corpus)}")
    indices = sorted(random.Random(check_seed(seed)).sample(range(len(corpus)), size))
    pairs = [(corpus.sources[i], corpus.targets[i]) for i in indices]
    return ParallelCorpus.from_pairs(pairs)


def mix_with_oversample(
    authentic: ParallelCorpus, synthetic: ParallelCorpus, factor: int, seed: int
) -> ParallelCorpus:
    """factor copies of authentic plus synthetic, Fisher-Yates shuffled with
    the given seed so training order is reproducible."""
    if factor < 1:
        raise ValueError("factor must be at least 1")
    try:
        combined = authentic.pairs * factor + synthetic.pairs
    except (OverflowError, MemoryError):  # past a list's size, or past what memory can hold
        raise ValueError(f"factor {factor} asks for more pairs than memory can hold") from None
    random.Random(check_seed(seed)).shuffle(combined)
    return ParallelCorpus.from_pairs(combined)


def _sample_derangement(letters: list[str], rng: random.Random) -> dict[str, str]:
    if len(letters) == 1:
        # No derangement exists over one letter; shift to the next code point.
        return {letters[0]: chr(ord(letters[0]) + 1)}
    while True:
        shuffled = letters[:]
        rng.shuffle(shuffled)
        if all(x != y for x, y in zip(letters, shuffled)):
            return dict(zip(letters, shuffled))


def _cipher_key(ch: str) -> str:
    """The cipher's key for a letter: its lowercase form, when that is one character."""
    low = ch.lower()
    return low if len(low) == 1 else ch


def make_pseudo_related(corpus: ParallelCorpus, keep_percent: float, seed: int) -> ParallelCorpus:
    """Turn a corpus into a pseudo-related one via a fixed-point-free letter
    substitution applied to all but a kept fraction of word types.

    One cipher is drawn over the lowercase alphabet observed on either side;
    digits and punctuation pass through and capitalization is preserved.
    Keep sets are word types sampled independently per language, so every
    occurrence of a kept type survives unchanged.  Each side's word types are
    ciphered once.  A single-spaced sentence, the common case, is rebuilt as
    its rendered words joined by spaces; any other around its original
    whitespace.
    """
    if not 0.0 <= keep_percent <= 1.0:
        raise ValueError("keep_percent must be within [0, 1]")
    rng = random.Random(check_seed(seed))

    # Letters occur only inside whitespace words, so the two sides' word types hold every one.
    src_types, tgt_types = (
        sorted({word for sentence in side for word in sentence.split()}) for side in (corpus.sources, corpus.targets)
    )
    chars = set("".join(src_types)).union("".join(tgt_types))
    keys = {ch: _cipher_key(ch) for ch in chars if ch.isalpha()}
    mapping = _sample_derangement(sorted(set(keys.values())), rng) if keys else {}
    cipher = str.maketrans({ch: mapping[key].upper() if ch.isupper() else mapping[key] for ch, key in keys.items()})

    def rendering(side_types: list[str]) -> dict[str, str]:
        """Each word type of a side -> itself if kept, else its ciphered form."""
        kept = set(rng.sample(side_types, math.ceil(keep_percent * len(side_types))))
        return {word: word if word in kept else word.translate(cipher) for word in side_types}

    def transform(sentence: str, rendered: dict[str, str]) -> str:
        words = sentence.split()
        if " ".join(words) == sentence:  # single-spaced: every gap is one " ", and every word is a type
            return " ".join([rendered[word] for word in words])
        parts = _SPACE_RE.split(sentence)  # words at even indices, the whitespace between them at odd ones
        parts[::2] = [rendered.get(word, word) for word in parts[::2]]  # the "" beside edge whitespace is no type
        return "".join(parts)

    rendered_src = rendering(src_types)  # draws after the cipher, and before the target's keep set
    rendered_tgt = rendering(tgt_types)
    sources = tuple(transform(s, rendered_src) for s in corpus.sources)
    targets = tuple(transform(t, rendered_tgt) for t in corpus.targets)
    return ParallelCorpus(sources, targets)


def corrupt_word_order(corpus: ParallelCorpus, mode: str, seed: int) -> ParallelCorpus:
    """Break word order or pairing: shuffle_source / shuffle_target /
    shuffle_both permute words within affected sentences, sort_target orders
    target words by code point, shuffle_pairing permutes the target column."""
    if mode not in CORRUPTION_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {CORRUPTION_MODES}")
    rng = random.Random(check_seed(seed))

    def shuffle_words(sentence: str) -> str:
        words = sentence.split()
        rng.shuffle(words)
        return " ".join(words)

    if mode == "shuffle_pairing":
        order = list(range(len(corpus)))
        rng.shuffle(order)
        return ParallelCorpus(corpus.sources, [corpus.targets[i] for i in order])

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
    return ParallelCorpus(sources, targets)
