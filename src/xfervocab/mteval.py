"""MT evaluation statistics: corpus BLEU and paired bootstrap resampling.
The stopping criterion and token analysis live, without numpy, in `evallite`.

BLEU accumulates clipped n-gram matches at the document level and applies
the brevity penalty exp(1 - L_ref/L_sys) when the output is not longer
than the reference.  Scores are reported multiplied by 100.  The default
pipeline is mixed case, one reference, exponential smoothing, and an
international tokenization that pads punctuation not surrounded by digits.

A sentence's statistics read only its own references and candidates, so
they are computed over blocks of whole sentences, each holding its
sentences' references and every system's candidates within _BLOCK_BYTES.
Beyond one block, a scoring call keeps its output and one word table, which
tokenizes each distinct whitespace word once for the call.  A word of
letters and digits alone (`str.isalnum`) is its own token, with no look at
its characters: the tokenizer pads and normalizes none of them.  The
bootstrap draws its resamples in blocks of the same budget.
"""

from __future__ import annotations

import unicodedata
from array import array
from itertools import chain
from typing import NamedTuple, Sequence

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
_BLOCK_BYTES = 4 << 20  # bounds each statistics block and each bootstrap resample block; never changes a score
_INT32_TOKENS = 2**31  # per-token positions are int32 below this many tokens, else int64; never changes a count


def _tokenize_word(word: str) -> tuple[str, ...]:
    """The tokens of one whitespace word, normalized.  A word of letters and
    digits alone is its own token: no character of categories L or N is
    padded, and _PUNCT_NORMALIZATION maps none."""
    if word.isalnum():
        return (word,)
    word = word.translate(_NORMALIZE)
    out = []
    for i, ch in enumerate(word):
        category = unicodedata.category(ch)[0]
        if category == "S" or category == "P" and not (word[i - 1 : i].isdigit() and word[i + 1 : i + 2].isdigit()):
            ch = f" {ch} "
        out.append(ch)
    return tuple("".join(out).split())


def tokenize_intl(text: str) -> list[str]:
    """Normalize unicode punctuation to ASCII where defined, pad punctuation
    and symbols not sitting between digits with spaces, collapse whitespace.
    Padding never looks across whitespace, so each whitespace word is
    normalized and tokenized on its own."""
    return [token for word in text.split() for token in _tokenize_word(word)]


def _word_tokenizer(tokenization: str):
    """The function that splits one whitespace word into its tokens."""
    if tokenization == "none":
        return lambda word: (word,)
    if tokenization == "intl":
        return _tokenize_word
    raise ValueError(f"unknown tokenization {tokenization!r}; expected one of {TOKENIZATIONS}")


class _WordTable(dict):
    """The index of each word and each token one scoring call has seen.

    A word is tokenized once, on first sight, and word i's tokens, as their
    indices, are tokens[ends[i] : ends[i + 1]].  Every token tokenizes to
    itself, so a new token is filed as a word whose one token is itself, and
    equal tokens share an index wherever they occur."""

    def __init__(self, tokenize_word):
        super().__init__()
        self.tokenize_word = tokenize_word
        self.tokens, self.ends = array("q"), array("q", [0])

    def __missing__(self, word: str) -> int:
        tokens = self.tokenize_word(word)
        for token in tokens:
            if token != word and token not in self:
                self._file(token, [len(self)])
        index = len(self)
        self._file(word, [index if token == word else self[token] for token in tokens])
        return index

    def _file(self, word: str, ids: list[int]) -> None:
        self.tokens.extend(ids)
        self.ends.append(len(self.tokens))
        self[word] = len(self)

    def rows(self, lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The token ids of lines, end to end, and each line's token count."""
        words = list(map(str.split, lines))
        per_line = np.fromiter(map(len, words), np.int64, len(words))
        index = np.fromiter(map(self.__getitem__, chain.from_iterable(words)), np.int64, int(per_line.sum()))
        ends = np.frombuffer(self.ends, np.int64)  # views after every lookup, gone on return: the arrays may grow again
        first, count = ends[index], ends[index + 1] - ends[index]
        through = np.concatenate(([0], np.cumsum(count)))  # the tokens before each word, then all of them
        tok = np.frombuffer(self.tokens, np.int64)[np.arange(through[-1]) + np.repeat(first - through[:-1], count)]
        return tok, np.diff(through[np.cumsum(per_line)], prepend=0)


class BleuReport(NamedTuple):
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


class SignificanceResult(NamedTuple):
    wins_a: int
    wins_b: int
    ties: int
    samples: int
    better: str  # "A", "B", or "none"
    confidence_level: float

    def to_tsv(self) -> str:
        return render_tsv([("wins_a", "wins_b", "ties", "samples", "better", "confidence_level"), self])


def _normalize_references(references, n_sentences: int) -> tuple[list[str], np.ndarray]:
    """The references, one sentence's after another, and how many each sentence has."""
    refs = list(references)
    if refs and isinstance(refs[0], str):
        flat, sizes = refs, np.ones(len(refs), np.int64)
    else:
        groups = [list(rs) for rs in refs]
        flat, sizes = list(chain.from_iterable(groups)), np.fromiter(map(len, groups), np.int64, len(groups))
    if len(sizes) != n_sentences:
        raise ValueError(f"candidate count {n_sentences} does not match reference count {len(sizes)}")
    return flat, sizes


def _corpora_stats(corpora: Sequence[Sequence[str]], references, n_max: int, tokenization: str) -> np.ndarray:
    """sentence_stats of each corpus, stacked; each reference is tokenized and counted once for all.

    A sentence's statistics read only its own references and candidates, so
    they are computed over blocks of whole sentences, each holding its
    sentences' references and every corpus's candidates, and as many
    sentences as fit in _BLOCK_BYTES (one, if a sentence is larger), sized
    by their characters.  Beyond one block, memory is the output and the
    call's word table: every distinct whitespace word is tokenized once for
    the call, and every distinct token has one id."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    refs, group_sizes = _normalize_references(references, len(corpora[0]))
    if not len(group_sizes) or not group_sizes.all():
        raise ValueError("cannot score an empty corpus or an empty reference group")
    words = _WordTable(_word_tokenizer(tokenization))
    ref_ends = np.cumsum(group_sizes)
    chars = np.add.reduceat(np.fromiter(map(len, refs), np.int64, len(refs)), ref_ends - group_sizes)
    for corpus in corpora:
        chars += np.fromiter(map(len, corpus), np.int64, len(group_sizes))
    ends = np.cumsum(_line_bytes(chars), out=chars)  # the bytes of the sentences' lines, through each
    stats = np.empty((len(corpora), len(group_sizes), 2 * n_max + 2), np.int64)
    start = done = 0
    while start < len(group_sizes):
        stop = max(int(np.searchsorted(ends, done + _BLOCK_BYTES, "right")), start + 1)
        first_ref = ref_ends[start] - group_sizes[start]
        lines = [*refs[first_ref : ref_ends[stop - 1]], *chain.from_iterable(c[start:stop] for c in corpora)]
        tok, lengths = words.rows(lines)
        stats[:, start:stop] = _block_stats(tok, lengths, group_sizes[start:stop], len(words), n_max)
        start, done = stop, ends[stop - 1]
    return stats


def _line_bytes(chars):
    """Bytes a statistics block takes for lines of `chars` characters: a
    line holds at most one token a character, and a token takes under 160
    bytes of the block's word lists and arrays (measured)."""
    return 160 * chars


def _block_stats(tok: np.ndarray, lengths: np.ndarray, group_sizes: np.ndarray, n_ids: int, n_max: int) -> np.ndarray:
    """sentence_stats of each corpus over one block of sentences, stacked.

    Its rows are each sentence's references, then each corpus's candidates:
    tok holds their token ids end to end, and lengths their token counts.
    An n-gram's id is the dense rank of (its (n-1)-gram id, its last token);
    a gram's clip count is its largest count in one reference of its
    sentence."""
    n_sentences, n_refs = len(group_sizes), int(group_sizes.sum())
    n_corpora = (len(lengths) - n_refs) // n_sentences
    index = np.int32 if len(tok) < _INT32_TOKENS else np.int64  # per-token positions; (row, gram) keys stay int64
    row = np.repeat(np.arange(len(lengths), dtype=index), lengths)
    room = np.repeat(np.cumsum(lengths, dtype=index), lengths) - np.arange(len(tok), dtype=index)  # to the row's end
    ref_sentence = np.repeat(np.arange(n_sentences), group_sizes)
    row_sentence = np.concatenate([ref_sentence, np.tile(np.arange(n_sentences), n_corpora)])
    sys_len = lengths[n_refs:]
    stats = np.zeros((len(sys_len), 2 * n_max + 2), np.int64)
    starts, gram, n_grams = np.arange(len(tok), dtype=index), tok, n_ids
    for n in range(1, n_max + 1):
        if n > 1:
            keep = room[starts] >= n
            starts = starts[keep]
            grams, gram = np.unique(gram[keep] * n_ids + tok[starts + n - 1], return_inverse=True)
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
    closest = np.abs(ref_len - sys_len.reshape(n_corpora, n_sentences)[:, ref_sentence]) * width + ref_len
    group_starts = np.searchsorted(ref_sentence, np.arange(n_sentences))
    stats[:, 2 * n_max + 1] = (np.minimum.reduceat(closest, group_starts, axis=1) % width).ravel()
    return stats.reshape(n_corpora, n_sentences, -1)


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
    references = list(references)  # read twice: counted, then scored
    num_refs = int(_normalize_references(references, len(candidates))[1].max(initial=1))
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
        num_refs=num_refs,
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
    table = np.hstack(stats, dtype=np.float64)
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
