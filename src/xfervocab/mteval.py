"""MT evaluation statistics: corpus BLEU and paired bootstrap resampling.
The stopping criterion and token analysis live, without numpy, in `evallite`.

BLEU accumulates clipped n-gram matches at the document level and applies
the brevity penalty exp(1 - L_ref/L_sys) when the output is not longer
than the reference.  Scores are reported multiplied by 100.  The default
pipeline is mixed case, one reference, exponential smoothing, and an
international tokenization that pads punctuation not surrounded by digits.
"""

from __future__ import annotations

import unicodedata
from array import array
from collections import defaultdict
from dataclasses import astuple, dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import __version__
from .errors import check_seed
from .evallite import SMOOTHINGS, TOKENIZATIONS
from .evallite import LearningCurve, TokenOverlap, should_stop, token_overlap_analysis  # noqa: F401 (re-exported)
from .textio import render_tsv

_PUNCT_NORMALIZATION = {
    "‘": "'", "’": "'", "‚": "'", "“": '"', "”": '"',
    "„": '"', "«": '"', "»": '"', "–": "-", "—": "-",
    "−": "-", "…": "...", " ": " ",
}


_NORMALIZE = str.maketrans(_PUNCT_NORMALIZATION)
_BLOCK_BYTES = 4 << 20  # the bootstrap's resample block; bounds memory, never changes a score
_INT32_TOKENS = 2**31  # per-token positions are int32 below this many tokens, else int64; never changes a count
_WORD_CACHE_SIZE = 1 << 16
_WORD_TOKENS: dict[str, list[str]] = {}  # whitespace word -> its tokens, up to _WORD_CACHE_SIZE words


def _tokenize_word(word: str) -> list[str]:
    out = []
    for i, ch in enumerate(word):
        category = unicodedata.category(ch)[0]
        between_digits = word[i - 1 : i].isdigit() and word[i + 1 : i + 2].isdigit()
        out.append(f" {ch} " if category == "S" or category == "P" and not between_digits else ch)
    return "".join(out).split()


def tokenize_intl(text: str) -> list[str]:
    """Normalize unicode punctuation to ASCII where defined, pad punctuation
    and symbols not sitting between digits with spaces, collapse whitespace.
    Padding never looks across whitespace, so each whitespace word is
    normalized and tokenized on its own, through a bounded memo."""
    out: list[str] = []
    for word in text.split():
        tokens = _WORD_TOKENS.get(word)
        if tokens is None:
            tokens = _tokenize_word(word.translate(_NORMALIZE))
            if len(_WORD_TOKENS) < _WORD_CACHE_SIZE:
                _WORD_TOKENS[word] = tokens
        out += tokens
    return out


def _tokenize(text: str, tokenization: str) -> list[str]:
    if tokenization == "none":
        return text.split()
    if tokenization == "intl":
        return tokenize_intl(text)
    raise ValueError(f"unknown tokenization {tokenization!r}; expected one of {TOKENIZATIONS}")


@dataclass(frozen=True)
class BleuReport:
    score: float
    precisions: tuple[float, ...]
    bp: float
    sys_len: int
    ref_len: int
    smoothing: str
    tokenization: str
    n_max: int
    num_refs: int = 1

    def signature(self) -> str:
        return (
            f"BLEU+case.mixed+numrefs.{self.num_refs}+smooth.{self.smoothing}"
            f"+tok.{self.tokenization}+nmax.{self.n_max}+version.xfervocab-{__version__}"
        )

    def to_tsv(self) -> str:
        header = ["score", "bp", "sys_len", "ref_len"]
        header += [f"p{n}" for n in range(1, self.n_max + 1)]
        header += ["smoothing", "tokenization", "signature"]
        row = [f"{self.score:.6f}", f"{self.bp:.6f}", self.sys_len, self.ref_len]
        row += [f"{p:.6f}" for p in self.precisions]
        row += [self.smoothing, self.tokenization, self.signature()]
        return render_tsv([header, row])


@dataclass(frozen=True)
class SignificanceResult:
    wins_a: int
    wins_b: int
    ties: int
    samples: int
    better: str  # "A", "B", or "none"
    confidence_level: float

    def to_tsv(self) -> str:
        return render_tsv([("wins_a", "wins_b", "ties", "samples", "better", "confidence_level"), astuple(self)])


def _normalize_references(references, n_sentences: int) -> list[list[str]]:
    refs = list(references)
    if refs and isinstance(refs[0], str):
        per_sentence = [[r] for r in refs]
    else:
        per_sentence = [list(rs) for rs in refs]
    if len(per_sentence) != n_sentences:
        raise ValueError(
            f"candidate count {n_sentences} does not match reference count {len(per_sentence)}"
        )
    return per_sentence


def _corpora_stats(corpora: Sequence[Sequence[str]], references, n_max: int, tokenization: str) -> np.ndarray:
    """sentence_stats of each corpus, stacked; each reference is tokenized and counted once for all.

    The references, then each corpus's candidates, are the rows of one token-id
    array, streamed from the tokenizer with each row's length beside it.  An
    n-gram's id is the dense rank of (its (n-1)-gram id, its last token); a
    gram's clip count is its largest count in one reference of its sentence."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    refs = _normalize_references(references, len(corpora[0]))
    if not refs or not all(refs):
        raise ValueError("cannot score an empty corpus or an empty reference group")
    n_sentences, n_refs = len(refs), sum(map(len, refs))
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # a token's id is the number of distinct tokens before it
    tok, lengths = array("q"), array("q")
    for text in chain(chain.from_iterable(refs), chain.from_iterable(corpora)):
        tokens = _tokenize(text, tokenization)
        tok.extend(map(ids.__getitem__, tokens))
        lengths.append(len(tokens))
    tok, lengths = np.frombuffer(tok, np.int64), np.frombuffer(lengths, np.int64)
    index = np.int32 if len(tok) < _INT32_TOKENS else np.int64  # per-token positions; (row, gram) keys stay int64
    row = np.repeat(np.arange(len(lengths), dtype=index), lengths)
    room = np.repeat(np.cumsum(lengths, dtype=index), lengths) - np.arange(len(tok), dtype=index)  # to the row's end
    ref_sentence = np.repeat(np.arange(n_sentences), list(map(len, refs)))
    row_sentence = np.concatenate([ref_sentence, np.tile(np.arange(n_sentences), len(corpora))])
    sys_len = lengths[n_refs:]
    stats = np.zeros((len(sys_len), 2 * n_max + 2), np.int64)
    starts, gram, n_grams = np.arange(len(tok), dtype=index), tok, len(ids)
    for n in range(1, n_max + 1):
        if n > 1:
            keep = room[starts] >= n
            starts = starts[keep]
            grams, gram = np.unique(gram[keep] * len(ids) + tok[starts + n - 1], return_inverse=True)
            n_grams = max(len(grams), 1)
        # (row, gram) -> count
        keys, counts = np.unique(row[starts].astype(np.int64) * n_grams + gram, return_counts=True)
        entry_row = keys // n_grams
        pairs, pair = np.unique(row_sentence[entry_row] * n_grams + keys % n_grams, return_inverse=True)
        split = np.searchsorted(entry_row, n_refs)
        clip = np.zeros(len(pairs), np.int64)
        np.maximum.at(clip, pair[:split], counts[:split])
        matches = np.minimum(counts[split:], clip[pair[split:]])
        stats[:, n - 1] = np.bincount(entry_row[split:] - n_refs, weights=matches, minlength=len(sys_len))
    stats[:, n_max : 2 * n_max] = np.maximum(sys_len[:, None] - np.arange(n_max), 0)
    stats[:, 2 * n_max] = sys_len
    # The reference length closest to sys_len; a tie goes to the shorter.
    ref_len, width = lengths[:n_refs], int(lengths.max(initial=0)) + 1
    closest = np.abs(ref_len - sys_len.reshape(len(corpora), n_sentences)[:, ref_sentence]) * width + ref_len
    group_starts = np.searchsorted(ref_sentence, np.arange(n_sentences))
    stats[:, 2 * n_max + 1] = (np.minimum.reduceat(closest, group_starts, axis=1) % width).ravel()
    return stats.reshape(len(corpora), n_sentences, -1)


def sentence_stats(candidates: Sequence[str], references, n_max: int = 4, tokenization: str = "intl") -> np.ndarray:
    """Per-sentence sufficient statistics for corpus BLEU.

    Columns: matches_1..n, totals_1..n, sys_len, ref_len.  ref_len uses the
    reference closest in length to the candidate (ties prefer the shorter).
    """
    return _corpora_stats([candidates], references, n_max, tokenization)[0]


def _scores_from_sums(sums: np.ndarray, smoothing: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized document-level BLEU over rows of summed statistics, laid
    out as the columns of sentence_stats, with equal weights on every order.

    Returns (scores, precisions, bp); with exponential smoothing a zero
    match count at order n is replaced by 1/2^k, k counting the zero orders
    seen so far.
    """
    sums = np.asarray(sums, dtype=np.float64)
    n_max = (sums.shape[-1] - 2) // 2
    matches = sums[..., :n_max]
    totals = sums[..., n_max : 2 * n_max]
    sys_len = sums[..., 2 * n_max]
    ref_len = sums[..., 2 * n_max + 1]

    effective = matches
    if smoothing == "exponential":
        zero = (matches == 0) & (totals > 0)
        effective = np.where(zero, 0.5 ** np.cumsum(zero, axis=-1), matches)  # powers of two: exact
    elif smoothing != "none":
        raise ValueError(f"unknown smoothing {smoothing!r}; expected one of {SMOOTHINGS}")

    # An order with no n-grams at all (corpus shorter than n) is vacuous: it
    # contributes nothing to the geometric mean instead of zeroing the score.
    vacuous = totals == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        precisions = np.where(vacuous, 0.0, effective / np.maximum(totals, 1))
        log_p = np.where(precisions > 0, np.log(np.maximum(precisions, 1e-300)), 0.0)
        geo = np.exp(np.sum(np.full(n_max, 1.0 / n_max) * log_p, axis=-1))
        bp = np.where(
            sys_len > ref_len,
            1.0,
            np.exp(1.0 - ref_len / np.maximum(sys_len, 1e-300)),
        )
    bp = np.where(sys_len == 0, 0.0, bp)
    dead = np.any((precisions == 0.0) & ~vacuous, axis=-1) | (sys_len == 0) | np.all(vacuous, axis=-1)
    scores = np.where(dead, 0.0, 100.0 * bp * geo)
    return scores, precisions, bp


def bleu(
    candidates: Sequence[str],
    references,
    n_max: int = 4,
    smoothing: str = "exponential",
    tokenization: str = "intl",
) -> BleuReport:
    """Document-level BLEU (multiplied by 100) for one candidate corpus."""
    references = _normalize_references(references, len(candidates))
    sums = sentence_stats(candidates, references, n_max, tokenization).sum(axis=0)
    scores, precisions, bp = _scores_from_sums(sums[None], smoothing)
    return BleuReport(
        score=float(scores[0]),
        precisions=tuple(float(p) for p in precisions[0]),
        bp=float(bp[0]),
        sys_len=int(sums[2 * n_max]),
        ref_len=int(sums[2 * n_max + 1]),
        smoothing=smoothing,
        tokenization=tokenization,
        n_max=n_max,
        num_refs=max(map(len, references), default=1),
    )


def _row_bytes(n_sentences: int, n_columns: int) -> int:
    """Bytes one resample takes in a bootstrap block: its float64 counts row,
    or its sums with _scores_from_sums' temporaries (measured at under four
    times the sums' width), whichever is more."""
    return 8 * max(n_sentences, 4 * n_columns)


def _resample_scores(stats: Sequence[np.ndarray], samples: int, seed: int, smoothing: str) -> list[np.ndarray]:
    """BLEU of every system in stats on every resample.

    Resample k is the k-th row drawn from one seeded generator, as counts of
    how often it drew each sentence.  The rows fill a reused block, and
    block @ stats gives those resamples' summed statistics, exactly: each sum
    is an integer below 2**53, so neither the block's shape nor the summation
    order moves a bit.  Each block's sums are scored as soon as they exist,
    and a score depends on its own row only.  A block holds as many rows as
    fit in _BLOCK_BYTES (one, if a row is larger), a row counting its counts
    or its sums and their scoring temporaries, whichever is wider, so beyond
    one block and the stats, memory is the scores: 8 bytes per resample and
    system."""
    n_sentences = len(stats[0])
    table = np.hstack(stats).astype(np.float64)
    rng = np.random.default_rng(seed)
    rows = _BLOCK_BYTES // _row_bytes(n_sentences, table.shape[1])
    block = np.empty((max(1, min(samples, rows)), n_sentences))
    scores = np.empty((samples, len(stats)))
    for start in range(0, samples, len(block)):
        counts = block[: samples - start]
        for row in counts:
            row[:] = np.bincount(rng.integers(0, n_sentences, n_sentences), minlength=n_sentences)
        sums = (counts @ table).reshape(len(counts), len(stats), -1)  # one row of sums per resample and system
        scores[start : start + len(counts)] = _scores_from_sums(sums, smoothing)[0]
    return list(scores.T)


def paired_bootstrap(
    cand_a: Sequence[str],
    cand_b: Sequence[str],
    references,
    samples: int = 1000,
    alpha: float = 0.05,
    *,
    seed: int,
    n_max: int = 4,
    smoothing: str = "exponential",
    tokenization: str = "intl",
) -> SignificanceResult:
    """Paired bootstrap resampling: draw testsets with replacement, score
    both systems on each, and call a winner at the given confidence level."""
    if len(cand_a) != len(cand_b):
        raise ValueError(f"system A has {len(cand_a)} sentences but system B has {len(cand_b)}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    check_seed(seed)
    stats = _corpora_stats([cand_a, cand_b], references, n_max, tokenization)
    scores_a, scores_b = _resample_scores(stats, samples, seed, smoothing)

    wins_a = int(np.sum(scores_a > scores_b))
    wins_b = int(np.sum(scores_b > scores_a))
    ties = samples - wins_a - wins_b
    if wins_a / samples >= 1.0 - alpha:
        better = "A"
    elif wins_b / samples >= 1.0 - alpha:
        better = "B"
    else:
        better = "none"
    return SignificanceResult(wins_a, wins_b, ties, samples, better, alpha)
