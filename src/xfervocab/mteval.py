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
from collections import Counter
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .evallite import SMOOTHINGS, TOKENIZATIONS
from .evallite import LearningCurve, TokenOverlap, should_stop, token_overlap_analysis  # noqa: F401 (re-exported)
from .textio import render_tsv

_PUNCT_NORMALIZATION = {
    "‘": "'", "’": "'", "‚": "'", "“": '"', "”": '"',
    "„": '"', "«": '"', "»": '"', "–": "-", "—": "-",
    "−": "-", "…": "...", " ": " ",
}


def tokenize_intl(text: str) -> list[str]:
    """Normalize unicode punctuation to ASCII where defined, pad punctuation
    and symbols not sitting between digits with spaces, collapse whitespace."""
    text = "".join(_PUNCT_NORMALIZATION.get(ch, ch) for ch in text)
    out = []
    n = len(text)
    for i, ch in enumerate(text):
        category = unicodedata.category(ch)
        if category.startswith("P") or category.startswith("S"):
            prev_digit = i > 0 and text[i - 1].isdigit()
            next_digit = i + 1 < n and text[i + 1].isdigit()
            if category.startswith("S") or not (prev_digit and next_digit):
                out.append(f" {ch} ")
                continue
        out.append(ch)
    return "".join(out).split()


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
    weights: tuple[float, ...]
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
            f"+tok.{self.tokenization}+nmax.{self.n_max}+version.xfervocab-0.1.0"
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


def _ngram_counts(tokens: list[str], n_max: int) -> Counter:
    """Every n-gram of orders 1..n_max in one table; a gram's length is its order."""
    return Counter(tuple(tokens[i : i + n]) for n in range(1, n_max + 1) for i in range(len(tokens) - n + 1))


def _corpora_stats(corpora: Sequence[Sequence[str]], references, n_max: int, tokenization: str) -> np.ndarray:
    """sentence_stats of each corpus, stacked; each reference is tokenized and counted once for all."""
    refs = _normalize_references(references, len(corpora[0]))
    if not refs:
        raise ValueError("cannot score an empty corpus")
    stats = np.zeros((len(corpora), len(refs), 2 * n_max + 2), dtype=np.int64)
    for i, ref_group in enumerate(refs):
        ref_tokens = [_tokenize(r, tokenization) for r in ref_group]
        clip: Counter = Counter()  # each gram's highest count in one reference
        for tokens in ref_tokens:
            clip |= _ngram_counts(tokens, n_max)
        for corpus_stats, candidates in zip(stats, corpora):
            tokens = _tokenize(candidates[i], tokenization)
            sys_len = len(tokens)
            row = [0] * n_max + [max(sys_len - n, 0) for n in range(n_max)]
            for gram, matches in (_ngram_counts(tokens, n_max) & clip).items():
                row[len(gram) - 1] += matches
            ref_len = min((len(r) for r in ref_tokens), key=lambda L: (abs(L - sys_len), L))
            corpus_stats[i] = row + [sys_len, ref_len]
    return stats


def sentence_stats(candidates: Sequence[str], references, n_max: int = 4, tokenization: str = "intl") -> np.ndarray:
    """Per-sentence sufficient statistics for corpus BLEU.

    Columns: matches_1..n, totals_1..n, sys_len, ref_len.  ref_len uses the
    reference closest in length to the candidate (ties prefer the shorter).
    """
    return _corpora_stats([candidates], references, n_max, tokenization)[0]


def _scores_from_sums(
    sums: np.ndarray, weights: np.ndarray, smoothing: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized document-level BLEU over rows of summed statistics, laid
    out as the columns of sentence_stats.

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

    effective = matches.copy()
    if smoothing == "exponential":
        inverse = np.ones_like(sys_len, dtype=np.float64)
        for n in range(n_max):
            zero = (matches[..., n] == 0) & (totals[..., n] > 0)
            inverse = np.where(zero, inverse * 2.0, inverse)
            effective[..., n] = np.where(zero, 1.0 / inverse, matches[..., n])
    elif smoothing != "none":
        raise ValueError(f"unknown smoothing {smoothing!r}; expected one of {SMOOTHINGS}")

    # An order with no n-grams at all (corpus shorter than n) is vacuous: it
    # contributes nothing to the geometric mean instead of zeroing the score.
    vacuous = totals == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        precisions = np.where(vacuous, 0.0, effective / np.maximum(totals, 1))
        log_p = np.where(precisions > 0, np.log(np.maximum(precisions, 1e-300)), 0.0)
        geo = np.exp(np.sum(weights * log_p, axis=-1))
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
    weights: Sequence[float] | None = None,
) -> BleuReport:
    """Document-level BLEU (multiplied by 100) for one candidate corpus."""
    references = _normalize_references(references, len(candidates))
    sums = sentence_stats(candidates, references, n_max, tokenization).sum(axis=0)
    if weights is None:
        weights = [1.0 / n_max] * n_max
    weights_arr = np.asarray(weights, dtype=np.float64)
    if weights_arr.shape != (n_max,):
        raise ValueError(f"expected {n_max} weights")
    scores, precisions, bp = _scores_from_sums(sums[None], weights_arr, smoothing)
    return BleuReport(
        score=float(scores[0]),
        precisions=tuple(float(p) for p in precisions[0]),
        weights=tuple(float(w) for w in weights_arr),
        bp=float(bp[0]),
        sys_len=int(sums[2 * n_max]),
        ref_len=int(sums[2 * n_max + 1]),
        smoothing=smoothing,
        tokenization=tokenization,
        n_max=n_max,
        num_refs=max(map(len, references), default=1),
    )


def _resample_scores(stats: Sequence[np.ndarray], samples: int, seed: int | None, smoothing: str) -> list[np.ndarray]:
    """BLEU of every system in stats on every resample.

    All resample indices come from one seeded draw.  Row k of the counts
    matrix says how often each sentence was drawn into resample k, so
    counts @ stats holds every resample's summed statistics.
    """
    n_sentences = len(stats[0])
    indices = np.random.default_rng(seed).integers(0, n_sentences, size=(samples, n_sentences))
    counts = np.empty((samples, n_sentences), np.int64)
    for k, row in enumerate(indices):
        counts[k] = np.bincount(row, minlength=n_sentences)
    # An int64 product is integer arithmetic: exactly the sum of the drawn rows.
    sums = counts @ np.hstack(stats)
    n_max = (stats[0].shape[1] - 2) // 2
    weights = np.full(n_max, 1.0 / n_max)
    return [_scores_from_sums(part, weights, smoothing)[0] for part in np.hsplit(sums, len(stats))]


def paired_bootstrap(
    cand_a: Sequence[str],
    cand_b: Sequence[str],
    references,
    samples: int = 1000,
    alpha: float = 0.05,
    seed: int | None = None,
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
