"""Evaluation statistics: hand-computed BLEU fixtures, an independent
formula-level oracle, the per-order statistics oracle, bootstrap behavior,
and the stopping criterion."""

import math
import random
import re
import string
import sys
import tracemalloc
import unicodedata
from collections import Counter
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xfervocab.mteval as mteval
from tests.conftest import LATIN, desk_sentences
from xfervocab.errors import CorpusFormatError
from xfervocab.mteval import (
    TOKENIZATIONS,
    LearningCurve,
    TokenOverlap,
    _corpora_stats,
    _normalize_references,
    _resample_scores,
    _scores_from_sums,
    bleu,
    paired_bootstrap,
    sentence_stats,
    should_stop,
    token_overlap_analysis,
    tokenize_intl,
)
from xfervocab.wordpiece import pretokenize


def oracle_bleu(candidates, references, n_max=4, smoothing="none"):
    """Straight from the formula with Counters; whitespace tokenization,
    single reference, document-level accumulation."""
    matches = [0] * n_max
    totals = [0] * n_max
    sys_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        c_tokens, r_tokens = cand.split(), ref.split()
        sys_len += len(c_tokens)
        ref_len += len(r_tokens)
        for n in range(1, n_max + 1):
            c_grams = Counter(tuple(c_tokens[i : i + n]) for i in range(len(c_tokens) - n + 1))
            r_grams = Counter(tuple(r_tokens[i : i + n]) for i in range(len(r_tokens) - n + 1))
            matches[n - 1] += sum(min(count, r_grams[g]) for g, count in c_grams.items())
            totals[n - 1] += sum(c_grams.values())
    if sys_len == 0:
        return 0.0
    log_sum = 0.0
    inverse = 1.0
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        if m == 0:
            if smoothing == "exponential":
                inverse *= 2.0
                m = 1.0 / inverse
            else:
                return 0.0
        log_sum += (1.0 / n_max) * math.log(m / t)
    bp = 1.0 if sys_len > ref_len else math.exp(1.0 - ref_len / sys_len)
    return 100.0 * bp * math.exp(log_sum)


def test_perfect_match_scores_100():
    report = bleu(["the cat sat"], ["the cat sat"])
    assert report.score == pytest.approx(100.0, abs=1e-9)
    assert report.bp == 1.0


def test_clipped_unigram_hand_count():
    report = bleu(
        ["the the the the the the the"],
        ["the cat is on the mat"],
        smoothing="none",
        tokenization="none",
    )
    assert report.precisions[0] == pytest.approx(2 / 7, abs=1e-12)


def test_brevity_penalty_half_length():
    report = bleu(["a b"], ["w x y z"], tokenization="none")
    assert report.bp == pytest.approx(math.exp(-1), abs=1e-9)


def test_unsmoothed_zero_when_any_order_empty():
    # bigram match count is zero: unsmoothed score must be exactly zero
    report = bleu(["a c b d"], ["a b c d"], n_max=2, smoothing="none", tokenization="none")
    assert report.precisions[1] == 0.0
    assert report.score == 0.0


def test_score_in_range_and_matches_oracle():
    rng = random.Random(8)
    vocabulary = "the cat dog sat mat ran fast slow a on".split()
    for _ in range(40):
        n = rng.randint(1, 12)
        refs = [" ".join(rng.choices(vocabulary, k=rng.randint(1, 12))) for _ in range(n)]
        cands = [
            " ".join(rng.choices(vocabulary, k=max(1, len(r.split()) + rng.randint(-2, 2))))
            for r in refs
        ]
        for smoothing in ("none", "exponential"):
            report = bleu(cands, refs, smoothing=smoothing, tokenization="none")
            assert 0.0 <= report.score <= 100.0
            assert report.score == pytest.approx(oracle_bleu(cands, refs, 4, smoothing), abs=1e-9)


def test_corpus_level_invariant_to_pair_permutation():
    refs = ["the cat sat", "a dog ran fast", "birds fly"]
    cands = ["the cat sat down", "a dog runs fast", "bird flies"]
    base = bleu(cands, refs).score
    order = [2, 0, 1]
    permuted = bleu([cands[i] for i in order], [refs[i] for i in order]).score
    assert permuted == pytest.approx(base, abs=1e-12)


def test_multiple_references_clip_with_max():
    # "the the": ref A has one "the", ref B has two; max clip = 2
    report = bleu(["the the"], [["the cat", "the the mat"]], n_max=1, smoothing="none", tokenization="none")
    assert report.precisions[0] == pytest.approx(1.0)


def test_empty_candidate_corpus_raises():
    with pytest.raises(ValueError):
        bleu([], [])
    with pytest.raises(ValueError):
        bleu(["a"], ["a", "b"])


def test_all_empty_candidates_score_zero():
    report = bleu(["", ""], ["a b", "c d"], tokenization="none")
    assert report.score == 0.0 and report.bp == 0.0


def test_intl_tokenization_pads_punctuation_not_numbers():
    assert tokenize_intl("Hello, world!") == ["Hello", ",", "world", "!"]
    assert tokenize_intl("pi is 3.14 today") == ["pi", "is", "3.14", "today"]
    assert tokenize_intl("u’ve “quoted”") == ["u", "'", "ve", '"', "quoted", '"']
    report = bleu(["Hello, world!"], ["Hello, world!"])
    assert report.sys_len == 4


def oracle_tokenize_intl(text):
    """The per-character tokenizer used before the per-word one: normalize
    the whole text, then pad punctuation and symbols one character at a time."""
    text = "".join(mteval._PUNCT_NORMALIZATION.get(ch, ch) for ch in text)
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


# Letters and digits (an Arabic-Indic digit and a superscript two count as
# digits), ASCII and Unicode punctuation and symbols, every normalized
# character, and whitespace that is not a plain space.
TOKENIZER_CHARS = (
    "aZé9٣²"
    + string.punctuation
    + "¡¿§¶€£©°±•※‰′「」、。"
    + "".join(mteval._PUNCT_NORMALIZATION)
    + " \t\u2009\u3000\x1c"
)
TOKENIZER_TEXT = st.lists(
    st.one_of(
        st.sampled_from(TOKENIZER_CHARS),
        st.sampled_from(["1,5", "3.14", "2…4", "7 ,8", "1\u00a0.5"]),  # separators between digits
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=TOKENIZER_TEXT)
def test_tokenize_intl_matches_per_character_oracle(text):
    tokens = tokenize_intl(text)
    assert tokens == oracle_tokenize_intl(text)
    assert all(tokenize_intl(token) == [token] for token in tokens)  # so scoring files a token as a word


def tokenize(text, tokenization):
    """A line's tokens as the oracles read them."""
    return tokenize_intl(text) if tokenization == "intl" else text.split()


# Characters whose Unicode category changed between the databases CI's legs
# ship (3.10: 13.0.0, 3.11: 14.0.0, 3.12: 15.0.0), so each leg checks its own.
UNICODE_VERSION = tuple(map(int, unicodedata.unidata_version.split(".")))


def test_tokenizers_follow_this_interpreters_unicode_database():
    slide, wireless, modifier = "\U0001F6DD", "\U0001F6DC", "\U0001E030"  # So since 14.0, So since 15.0, Lm since 15.0
    assert tokenize_intl(f"a{slide}b") == (["a", slide, "b"] if UNICODE_VERSION >= (14,) else [f"a{slide}b"])
    assert tokenize_intl(f"a{wireless}b") == (["a", wireless, "b"] if UNICODE_VERSION >= (15,) else [f"a{wireless}b"])
    assert pretokenize(f"a{modifier}b") == ([f"a{modifier}b"] if UNICODE_VERSION >= (15,) else ["a", modifier, "b"])


def test_alphanumeric_characters_are_neither_padded_nor_normalized():
    """`_tokenize_word` gives an `isalnum` word back whole.  That is exact
    only if every such character, in this interpreter's Unicode database, is
    a letter or a number (categories L and N), which the tokenizer never pads,
    and no key of the normalization table."""
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        if ch.isalnum():
            assert unicodedata.category(ch)[0] in "LN" and ch not in mteval._PUNCT_NORMALIZATION, f"U+{code:04X}"


def record_word_tokenizing(monkeypatch):
    """The words `_tokenize_word` is called on, in call order."""
    calls = []
    tokenize_word = mteval._tokenize_word
    monkeypatch.setattr(mteval, "_tokenize_word", lambda word: calls.append(word) or tokenize_word(word))
    return calls


def test_bootstrap_tokenizes_each_reference_once(monkeypatch):
    """A scoring call tokenizes each distinct whitespace word at most once,
    across the references and every system.  The words it skips were tokens
    of words it tokenized ("abc" of "abc."), which tokenize to themselves."""
    calls = record_word_tokenizing(monkeypatch)
    cand_a, cand_b, refs = desk_eval_set(2)
    paired_bootstrap(cand_a, cand_b, refs, samples=20, seed=0)
    words, tokenized = {word for line in chain(cand_a, cand_b, *refs) for word in line.split()}, set(calls)
    assert len(calls) == len(tokenized) and tokenized <= words
    skipped = words - tokenized
    assert skipped and skipped <= {token for word in tokenized for token in mteval.tokenize_intl(" ".join(tokenized))}


def test_each_scoring_call_starts_a_fresh_tokenizer_memo(monkeypatch):
    """A scoring call keeps no word table for the next: each call tokenizes
    its own words once, whatever an earlier call saw."""
    calls = record_word_tokenizing(monkeypatch)
    bleu(["a b c"], ["a b d"])
    assert sorted(calls) == ["a", "b", "c", "d"]
    calls.clear()
    bleu(["x y"], ["x y"])
    assert sorted(calls) == ["x", "y"]
    calls.clear()
    bleu(["a b c"], ["a b d"])
    assert sorted(calls) == ["a", "b", "c", "d"]


def test_bleu_signature_records_settings():
    sig = bleu(["a"], ["a"], smoothing="exponential", tokenization="intl").signature()
    assert "smooth.exponential" in sig and "tok.intl" in sig and "numrefs.1" in sig


def test_generator_references_score_like_a_list():
    candidates = ["the cat sat", "on a mat"]
    groups = [("the cat sat", "a cat sat"), ("on the mat", "on a mat")]
    report = bleu(candidates, (group for group in groups))
    assert report.num_refs == 2 and "numrefs.2" in report.signature()
    assert report == bleu(candidates, groups)
    one_shot = paired_bootstrap(candidates, candidates[::-1], (group for group in groups), samples=50, seed=1)
    assert one_shot == paired_bootstrap(candidates, candidates[::-1], groups, samples=50, seed=1)


def test_bootstrap_identical_systems_all_ties():
    refs = [f"sentence {i} with words" for i in range(60)]
    result = paired_bootstrap(refs, refs, refs, samples=1000, seed=3)
    assert result.ties == 1000
    assert result.wins_a == result.wins_b == 0
    assert result.better == "none"
    assert result.wins_a + result.wins_b + result.ties == result.samples


def test_bootstrap_strict_dominance():
    refs = [f"sentence number {i} about things" for i in range(60)]
    result = paired_bootstrap(refs, [""] * len(refs), refs, samples=1000, seed=3)
    assert result.wins_a == 1000
    assert result.better == "A"


def test_bootstrap_swap_symmetry_and_determinism():
    rng = random.Random(5)
    refs = [f"alpha beta gamma {i} delta" for i in range(40)]
    worse = [s.replace("beta", "zeta") if rng.random() < 0.5 else s for s in refs]
    one = paired_bootstrap(refs, worse, refs, samples=400, seed=11)
    two = paired_bootstrap(worse, refs, refs, samples=400, seed=11)
    again = paired_bootstrap(refs, worse, refs, samples=400, seed=11)
    assert (one.wins_a, one.wins_b) == (two.wins_b, two.wins_a)
    assert (one.wins_a, one.wins_b, one.ties) == (again.wins_a, again.wins_b, again.ties)


def oracle_resample_scores(stats, samples, seed, smoothing):
    """The gather-and-sum scoring the bootstrap used before: gather each
    resample's rows from the one seeded draw, sum them, score the sums."""
    n_sentences = len(stats[0])
    indices = np.random.default_rng(seed).integers(0, n_sentences, size=(samples, n_sentences))
    return [_scores_from_sums(s[indices].sum(axis=1), smoothing)[0] for s in stats]


def near_equal_systems(multi_ref):
    """Two systems that each lose different words, so either can win a resample."""
    rng = random.Random(8)
    refs = [" ".join(rng.choice("abcdefgh") * rng.randint(1, 3) for _ in range(rng.randint(3, 9))) for _ in range(80)]
    sys_a = [" ".join(w for w in r.split() if w[0] not in "ab") or "x" for r in refs]
    sys_b = [" ".join(w for w in r.split() if w[0] not in "cd") or "x" for r in refs]
    if multi_ref:
        refs = [(r, r.replace("a", "e"), r[: len(r) // 2]) for r in refs]
    return sys_a, sys_b, refs


@pytest.mark.parametrize("multi_ref", [False, True])
@pytest.mark.parametrize("smoothing", ["none", "exponential"])
@pytest.mark.parametrize("n_max", [2, 4])
@pytest.mark.parametrize("samples", [1, 63, 300])
def test_bootstrap_matches_gather_oracle(samples, n_max, smoothing, multi_ref):
    sys_a, sys_b, refs = near_equal_systems(multi_ref)
    stats = [sentence_stats(cand, refs, n_max) for cand in (sys_a, sys_b)]
    for seed in (0, 1, 2, 3):
        scores = _resample_scores(stats, samples, seed, smoothing)
        expected = oracle_resample_scores(stats, samples, seed, smoothing)
        assert all(np.array_equal(got, want) for got, want in zip(scores, expected))
        wins_a = int(np.sum(expected[0] > expected[1]))
        wins_b = int(np.sum(expected[1] > expected[0]))
        result = paired_bootstrap(sys_a, sys_b, refs, samples, seed=seed, n_max=n_max, smoothing=smoothing)
        assert (result.wins_a, result.wins_b, result.ties) == (wins_a, wins_b, samples - wins_a - wins_b)
        if samples == 300:
            assert min(wins_a, wins_b) > 0


@pytest.mark.parametrize("n_sentences", [1, 7, 79])
def test_resample_rows_match_one_draw_at_odd_sizes(n_sentences):
    sys_a, sys_b, refs = near_equal_systems(False)
    stats = [sentence_stats(cand[:n_sentences], refs[:n_sentences], 4) for cand in (sys_a, sys_b)]
    for seed in (0, 5):
        scores = _resample_scores(stats, 37, seed, "exponential")
        expected = oracle_resample_scores(stats, 37, seed, "exponential")
        assert all(np.array_equal(got, want) for got, want in zip(scores, expected))


def block_bytes(rows, stats):
    """A `_BLOCK_BYTES` that holds `rows` resamples of stats per block."""
    return rows * mteval._row_bytes(len(stats[0]), sum(table.shape[1] for table in stats))


@pytest.mark.parametrize("rows", [0, 1, 2, 5])
def test_resample_blocks_match_one_draw_across_block_boundaries(monkeypatch, rows):
    """A budget of `rows` resamples per block (0: less than one row, so one
    row per block): sample counts on, just before and just after block
    boundaries give the same scores as one whole draw."""
    sys_a, sys_b, refs = near_equal_systems(True)
    stats = [sentence_stats(cand, refs, 4) for cand in (sys_a, sys_b)]
    monkeypatch.setattr(mteval, "_BLOCK_BYTES", block_bytes(rows, stats) + 7)
    for samples in sorted({1, max(rows - 1, 1), max(rows, 1), rows + 1, 3 * rows + 5}):
        for smoothing in ("none", "exponential"):
            scores = _resample_scores(stats, samples, 4, smoothing)
            expected = oracle_resample_scores(stats, samples, 4, smoothing)
            assert all(np.array_equal(got, want) for got, want in zip(scores, expected, strict=True))


def random_stats(n_sentences, seed):
    """Per-sentence statistics (n_max 4) of two systems against one reference."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 30, n_sentences)
    stats = []
    for _ in range(2):
        totals = np.maximum(lengths[:, None] - np.arange(4), 0)
        matches = rng.integers(0, totals + 1)
        stats.append(np.column_stack([matches, totals, lengths, rng.integers(1, 30, n_sentences)]))
    return stats


def resample_peak(stats, samples):
    """Peak traced memory of one `_resample_scores` call."""
    tracemalloc.start()
    try:
        _resample_scores(stats, samples, 0, "exponential")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resample_memory_does_not_grow_with_samples():
    """At 5000 sentences a samples x sentences float64 matrix would be 40 MB
    at 1000 samples and 400 MB at 10 000; the blocked resample holds only
    the scores per sample beyond its fixed block."""
    stats = random_stats(5000, 0)
    small, large = resample_peak(stats, 1000), resample_peak(stats, 10_000)
    assert small < mteval._BLOCK_BYTES + (4 << 20)
    assert large - small < 4 << 20


@pytest.mark.parametrize("n_max", [1, 4, 9])
def test_per_block_scores_equal_all_rows_scores_bit_for_bit(monkeypatch, n_max):
    """Blocks of 1 row, 7 rows and every row score each resample from its own
    sums alone, so the three give the same bits."""
    sys_a, sys_b, refs = near_equal_systems(True)
    stats = [sentence_stats(cand, refs, n_max) for cand in (sys_a, sys_b)]
    samples = 50
    for smoothing in ("none", "exponential"):
        results = []
        for rows in (1, 7, samples):
            monkeypatch.setattr(mteval, "_BLOCK_BYTES", block_bytes(rows, stats))
            results.append([scores.tobytes() for scores in _resample_scores(stats, samples, 6, smoothing)])
        assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("n_sentences", [1, 3, 100])
def test_resample_memory_holds_only_the_scores_per_sample(monkeypatch, n_sentences):
    """With a 256 KiB block, from 1000 to 10 000 samples only the two score
    arrays grow: 16 bytes a resample, 144 kB in all.  Sums kept for every
    resample would add about 460 bytes a resample with their scoring
    temporaries, 4 MB; so would a block sized by the counts row alone, which
    for one sentence holds every resample."""
    monkeypatch.setattr(mteval, "_BLOCK_BYTES", 1 << 18)
    stats = random_stats(n_sentences, 1)
    small, large = resample_peak(stats, 1000), resample_peak(stats, 10_000)
    assert large - small < 9000 * 32
    assert large < 2 * mteval._BLOCK_BYTES + 10_000 * 16 + (1 << 16)


@pytest.mark.parametrize("tokenization", TOKENIZATIONS)
def test_corpora_stats_rows_around_empty_and_blank_lines(tokenization):
    """Empty and whitespace-only lines between non-empty ones, as references
    and as candidates, keep every later row's length and n-grams in place."""
    refs = [["a b"], [""], ["a ,"], ["   "], ["b a b", " \t"]]
    cand_a = ["a b", "   ", "a,", "", "b a"]
    cand_b = ["", "a", "a , a", "\t", "b"]
    # Columns: matches_1, matches_2, totals_1, totals_2, sys_len, ref_len.
    # "a," is one token without tokenization and "a", "," with intl.
    sentence_2_a = {"none": [0, 0, 1, 0, 1, 2], "intl": [2, 1, 2, 1, 2, 2]}[tokenization]
    expected_a = [[2, 1, 2, 1, 2, 2], [0, 0, 0, 0, 0, 0], sentence_2_a, [0, 0, 0, 0, 0, 0], [2, 1, 2, 1, 2, 3]]
    expected_b = [[0, 0, 0, 0, 0, 2], [0, 0, 1, 0, 1, 0], [2, 1, 3, 2, 3, 2], [0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0]]
    got = _corpora_stats([cand_a, cand_b], refs, 2, tokenization)
    assert got.tolist() == [expected_a, expected_b]
    assert np.array_equal(got, oracle_counter_corpora_stats([cand_a, cand_b], refs, 2, tokenization))


def test_bootstrap_needs_an_explicit_seed():
    refs = ["a b c", "d e f"]
    with pytest.raises(TypeError):
        paired_bootstrap(refs, refs, refs, samples=10)
    with pytest.raises(TypeError):
        paired_bootstrap(refs, refs, refs, 10, 0.05, 3)  # seed is keyword-only


def test_bootstrap_length_mismatch():
    with pytest.raises(ValueError):
        paired_bootstrap(["a"], ["a", "b"], ["a"], seed=0)


def test_sentence_stats_columns():
    stats = sentence_stats(["a b c"], ["a b d"], n_max=2, tokenization="none")
    # matches_1, matches_2, totals_1, totals_2, sys_len, ref_len
    assert stats.tolist() == [[2, 1, 3, 2, 3, 3]]


def reference_groups(references, n_sentences):
    """Each sentence's references, as a list."""
    flat, sizes = _normalize_references(references, n_sentences)
    refs = iter(flat)
    return [[next(refs) for _ in range(size)] for size in sizes]


def oracle_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def oracle_sentence_stats(candidates, references, n_max=4, tokenization="intl"):
    """The per-order statistics loop sentence_stats used before one n-gram
    table per sentence: a Counter per order and per reference, clipped with
    a hand-written max."""
    if len(candidates) == 0:
        raise ValueError("cannot score an empty corpus")
    refs = reference_groups(references, len(candidates))
    stats = np.zeros((len(candidates), 2 * n_max + 2), dtype=np.int64)
    for i, (cand, ref_group) in enumerate(zip(candidates, refs)):
        cand_tokens = tokenize(cand, tokenization)
        ref_tokens = [tokenize(r, tokenization) for r in ref_group]
        sys_len = len(cand_tokens)
        ref_len = min((len(r) for r in ref_tokens), key=lambda L: (abs(L - sys_len), L))
        for n in range(1, n_max + 1):
            cand_ngrams = oracle_ngram_counts(cand_tokens, n)
            matches = 0
            if cand_ngrams:
                clip: Counter = Counter()
                for r in ref_tokens:
                    for gram, count in oracle_ngram_counts(r, n).items():
                        if count > clip[gram]:
                            clip[gram] = count
                matches = sum(min(count, clip[gram]) for gram, count in cand_ngrams.items())
            stats[i, n - 1] = matches
            stats[i, n_max + n - 1] = sum(cand_ngrams.values())
        stats[i, 2 * n_max] = sys_len
        stats[i, 2 * n_max + 1] = ref_len
    return stats


# Few distinct words, so grams repeat and clipping bites; punctuation and a
# digit-comma-digit word make the two tokenizations differ.
SENTENCES = st.lists(st.sampled_from(["a", "b", "ab", "a,", "b!", "1,5", "«a»"]), max_size=9).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(SENTENCES, SENTENCES, st.lists(SENTENCES, min_size=1, max_size=3)), min_size=1, max_size=6
    ),
    n_max=st.integers(1, 5),
    tokenization=st.sampled_from(TOKENIZATIONS),
    block_bytes=st.integers(0, 40_000),
)
def test_sentence_stats_matches_per_order_oracle(rows, n_max, tokenization, block_bytes):
    """At any block budget: from one sentence a block to every sentence in one."""
    cand_a, cand_b, references = (list(column) for column in zip(*rows))
    expected = [oracle_sentence_stats(cand, references, n_max, tokenization) for cand in (cand_a, cand_b)]
    with mock.patch.object(mteval, "_BLOCK_BYTES", block_bytes):
        got = sentence_stats(cand_a, references, n_max, tokenization)
        both = _corpora_stats([cand_a, cand_b], references, n_max, tokenization)
    assert got.dtype == expected[0].dtype and np.array_equal(got, expected[0])
    assert all(np.array_equal(g, e) for g, e in zip(both, expected, strict=True))


def oracle_counter_corpora_stats(corpora, references, n_max, tokenization):
    """The statistics before whole-corpus numpy: one Counter of every order
    per sentence, clipped with cand & (ref_1 | ref_2 ...)."""

    def ngram_counts(tokens):
        return Counter(tuple(tokens[i : i + n]) for n in range(1, n_max + 1) for i in range(len(tokens) - n + 1))

    refs = reference_groups(references, len(corpora[0]))
    stats = np.zeros((len(corpora), len(refs), 2 * n_max + 2), dtype=np.int64)
    for i, ref_group in enumerate(refs):
        ref_tokens = [tokenize(r, tokenization) for r in ref_group]
        clip: Counter = Counter()
        for tokens in ref_tokens:
            clip |= ngram_counts(tokens)
        for corpus_stats, candidates in zip(stats, corpora):
            tokens = tokenize(candidates[i], tokenization)
            sys_len = len(tokens)
            row = [0] * n_max + [max(sys_len - n, 0) for n in range(n_max)]
            for gram, matches in (ngram_counts(tokens) & clip).items():
                row[len(gram) - 1] += matches
            ref_len = min((len(r) for r in ref_tokens), key=lambda L: (abs(L - sys_len), L))
            corpus_stats[i] = row + [sys_len, ref_len]
    return stats


def desk_eval_set(seed, n_sentences=300):
    """Two systems and 1-3 references per sentence, all varied from one desk
    sentence by dropping, repeating and swapping words; a few are empty."""
    rng = random.Random(seed)
    pool = desk_sentences(seed, LATIN, n_sentences, 400)

    def vary(sentence):
        words = [w for w in sentence.split() for _ in range(rng.choice((0, 1, 1, 1, 2)))]
        if len(words) > 1 and rng.random() < 0.5:
            i = rng.randrange(len(words) - 1)
            words[i], words[i + 1] = words[i + 1], words[i]
        return "" if rng.random() < 0.05 else " ".join(words)

    refs = [[vary(base) for _ in range(rng.randint(1, 3))] for base in pool]
    cand_a = [vary(base) for base in pool]
    cand_b = [vary(rng.choice(pool)) if rng.random() < 0.2 else vary(base) for base in pool]
    return cand_a, cand_b, refs


@pytest.mark.parametrize("tokenization", TOKENIZATIONS)
@pytest.mark.parametrize("n_max", range(1, 7))
def test_corpora_stats_matches_counter_oracle_on_desk_corpora(n_max, tokenization):
    cand_a, cand_b, refs = desk_eval_set(n_max)
    assert sorted(set(map(len, refs))) == [1, 2, 3]
    assert any("" in group for group in refs) and "" in cand_a and "" in cand_b
    expected = oracle_counter_corpora_stats([cand_a, cand_b], refs, n_max, tokenization)
    got = _corpora_stats([cand_a, cand_b], refs, n_max, tokenization)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert np.all(got[..., n_max - 1].sum(axis=1) > 0)  # every order matches somewhere
    assert np.any(got[..., :n_max] < got[..., n_max : 2 * n_max])  # and clipping bites


def sentence_bytes(corpora, refs):
    """The bytes of each sentence's lines in a statistics block."""
    return [int(mteval._line_bytes(sum(map(len, [*group, *lines])))) for group, *lines in zip(refs, *corpora)]


def counted_blocks(monkeypatch):
    """The sentence count of each block `_corpora_stats` scores, in order."""
    blocks = []
    block_stats = mteval._block_stats

    def counting_block_stats(tok, lengths, group_sizes, n_ids, n_max):
        blocks.append(len(group_sizes))
        return block_stats(tok, lengths, group_sizes, n_ids, n_max)

    monkeypatch.setattr(mteval, "_block_stats", counting_block_stats)
    return blocks


@pytest.mark.parametrize("tokenization", TOKENIZATIONS)
@pytest.mark.parametrize("budget", ["zero", "several"])
def test_corpora_stats_in_blocks_match_counter_oracle(monkeypatch, budget, tokenization):
    """At a budget of 0 each sentence is a block; at 30 sentences' worth the
    eval set falls into several blocks, each within the budget but for one
    sentence 60 times the size of the others, which is a block of its own."""
    cand_a, cand_b, refs = desk_eval_set(3)
    cand_a[100], cand_b[100] = " ".join(cand_a[:60]), " ".join(cand_b[:60])
    refs[100] = [" ".join(group[0] for group in refs[:60]), refs[100][0]]
    sizes = sentence_bytes([cand_a, cand_b], refs)
    assert min(sizes) > 0
    monkeypatch.setattr(mteval, "_BLOCK_BYTES", 0 if budget == "zero" else 30 * sorted(sizes)[len(sizes) // 2])
    blocks = counted_blocks(monkeypatch)
    for n_max in (1, 4):
        blocks.clear()
        got = _corpora_stats([cand_a, cand_b], refs, n_max, tokenization)
        assert np.array_equal(got, oracle_counter_corpora_stats([cand_a, cand_b], refs, n_max, tokenization))
        starts = np.cumsum([0, *blocks])
        assert starts[-1] == len(refs)
        if budget == "zero":
            assert blocks == [1] * len(refs)
        else:
            assert 5 < len(blocks) < 30 and blocks[list(starts).index(100)] == 1
            assert all(sum(sizes[a:b]) <= mteval._BLOCK_BYTES for a, b in zip(starts, starts[1:]) if b - a > 1)


def stats_peak(corpora, refs):
    """Peak traced memory of one `_corpora_stats` call."""
    tracemalloc.start()
    try:
        _corpora_stats(corpora, refs, 4, "intl")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_corpora_stats_memory_grows_by_the_output_rows():
    """From 2000 to 8000 sentences only the output (two systems' rows of ten
    int64 columns, 960 kB) and per-sentence bookkeeping grow.  Arrays over
    the whole corpus, at about 130 bytes a token, added some 20 MB."""
    cand_a, cand_b, refs = desk_eval_set(5, 8000)
    small = stats_peak([cand_a[:2000], cand_b[:2000]], refs[:2000])
    large = stats_peak([cand_a, cand_b], refs)
    assert large - small < 2 * 6000 * 10 * 8 + (1 << 20)


def test_empty_reference_group_raises():
    with pytest.raises(ValueError):
        sentence_stats(["a b"], [["a b"], []])
    with pytest.raises(ValueError):
        paired_bootstrap(["a", "b"], ["a", "b"], [["a"], []], samples=5, seed=0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
def test_bootstrap_alpha_outside_open_unit_interval_raises(alpha):
    refs = [f"sentence number {i} about things" for i in range(10)]
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        paired_bootstrap(refs, [""] * len(refs), refs, samples=50, alpha=alpha, seed=3)


@pytest.mark.parametrize("n_max", [0, -2])
def test_n_max_below_one_raises(n_max):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        sentence_stats(["a b"], ["a b"], n_max=n_max)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        bleu(["a b"], ["a b"], n_max=n_max)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        paired_bootstrap(["a b"], ["a"], ["a b"], samples=5, seed=0, n_max=n_max)


def test_bootstrap_negative_seed_raises():
    refs = [f"sentence number {i} about things" for i in range(10)]
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        paired_bootstrap(refs, [""] * len(refs), refs, samples=50, seed=-1)


def test_should_stop_hand_curve():
    scores = [10, 15, 16, 16.01, 16.02, 16.03]
    curve = LearningCurve(tuple((i + 1, s) for i, s in enumerate(scores)))
    stop, best_step = should_stop(curve)
    # window = last 3 points; 16.03 - 16 = 0.03 <= 0.005 * 16.03
    assert stop is True
    assert best_step == 6


def test_should_stop_never_on_doubling_scores():
    curve = LearningCurve(tuple((i + 1, float(2**i)) for i in range(40)))
    assert should_stop(curve)[0] is False


def test_should_stop_single_point_guard():
    assert should_stop(LearningCurve(((1, 10.0),))) == (False, 1)


def test_should_stop_monotone_in_delta():
    scores = [10, 12, 12.4, 12.5, 12.55]
    curve = tuple((i + 1, s) for i, s in enumerate(scores))
    stopped_at = [d for d in (0.001, 0.005, 0.02, 0.1) if should_stop(curve, delta_frac=d)[0]]
    # once it stops at some delta, it stops at every larger delta
    assert stopped_at == sorted(stopped_at)
    for smaller, larger in zip((0.001, 0.005, 0.02), (0.005, 0.02, 0.1)):
        if should_stop(curve, delta_frac=smaller)[0]:
            assert should_stop(curve, delta_frac=larger)[0]


def test_should_stop_prewindow_denominator():
    scores = [10, 15, 16, 16.01, 16.02, 16.03]
    curve = tuple((i + 1, s) for i, s in enumerate(scores))
    assert should_stop(curve, relative_to="prewindow")[0] is True
    with pytest.raises(ValueError):
        should_stop(curve, relative_to="elsewhere")


@pytest.mark.parametrize("window_frac", [0.0, -0.5, 1.5, float("nan")])
def test_should_stop_window_frac_outside_half_open_unit_interval_raises(window_frac):
    points = [(i, float(i)) for i in range(1, 9)]
    with pytest.raises(ValueError, match=r"window_frac must be in \(0, 1\]"):
        should_stop(points, window_frac=window_frac)
    assert should_stop(points, window_frac=1.0) == (False, 8)


@pytest.mark.parametrize("delta_frac", [-0.5, float("nan")])
def test_should_stop_negative_or_nan_delta_frac_raises(delta_frac):
    points = [(i, 10.0) for i in range(1, 9)]  # flat: any legal delta stops
    with pytest.raises(ValueError, match=f"delta_frac must be non-negative, got {delta_frac}"):
        should_stop(points, delta_frac=delta_frac)
    assert should_stop(points, delta_frac=0.0) == (True, 1)


def test_should_stop_empty_curve():
    with pytest.raises(ValueError):
        should_stop([])


def test_should_stop_raw_points_go_through_the_curve_checks():
    with pytest.raises(ValueError, match="^step 1 does not follow step 5; learning curve steps must be strictly"):
        should_stop([(5, 1.0), (1, 2.0), (3, 2.0), (2, 2.0), (4, 2.0)])
    with pytest.raises(ValueError, match="^score at step 1 is not a number$"):
        should_stop([(1, float("nan")), (2, 11.0), (3, 12.0), (4, 12.01), (5, 12.0)])


def test_learning_curve_refuses_nan_and_keeps_infinite_scores():
    with pytest.raises(ValueError, match="^score at step 2 is not a number$"):
        LearningCurve(((1, 1.0), (2, float("nan"))))
    curve = LearningCurve(((1, -math.inf), (2, 1.0), (3, math.inf)))
    assert should_stop(curve) == (False, 3)


@pytest.mark.parametrize(
    "lines, message",
    [
        (["step\tscore", "1\t10", "2\tNaN"], "line 3: score at step 2 is not a number"),
        # Every row parses before the points are checked, so a later bad row is named before an earlier bad step.
        (["step\tscore", "2\t10", "1\t11", "x"], "line 4: expected step<TAB>score"),
        (["step\tscore", "2\t10", "1\t11", "0\tnan"], "line 3: step 1 does not follow step 2"),
    ],
)
def test_learning_curve_from_tsv_names_the_line(tmp_path, lines, message):
    path = tmp_path / "curve.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(f'{path}: {message}')}"):
        LearningCurve.from_tsv(path)


def test_learning_curve_validation_and_tsv(tmp_path):
    with pytest.raises(ValueError):
        LearningCurve(((2, 1.0), (1, 2.0)))
    curve = LearningCurve(((100, 10.5), (200, 12.0)))
    path = tmp_path / "curve.tsv"
    path.write_text(curve.to_tsv(), encoding="utf-8")
    assert LearningCurve.from_tsv(path) == curve


def test_token_overlap_all_confirmed():
    t = token_overlap_analysis([["x", "y"]], [["x", "y"]], [["x", "y"]])
    assert t.baseline_and_reference == 2
    assert t.total == 2


def test_token_overlap_split_classes():
    t = token_overlap_analysis([["a", "b"]], [["a"]], [["b"]])
    assert (t.baseline_and_reference, t.baseline_only, t.reference_only, t.neither) == (0, 1, 1, 0)


def test_token_overlap_partition():
    rng = random.Random(9)
    alphabet = list("abcdef")
    for _ in range(50):
        n = rng.randint(1, 6)
        child = [rng.choices(alphabet, k=rng.randint(0, 8)) for _ in range(n)]
        base = [rng.choices(alphabet, k=rng.randint(0, 8)) for _ in range(n)]
        refs = [rng.choices(alphabet, k=rng.randint(0, 8)) for _ in range(n)]
        t = token_overlap_analysis(child, base, refs)
        assert t.total == sum(len(c) for c in child)
        assert min(t.baseline_and_reference, t.baseline_only, t.reference_only, t.neither) >= 0


def oracle_token_overlap(child_out, baseline_out, reference):
    """Each child token's four classes, branch by branch, with per-sentence clipped counts."""
    both = base_only = ref_only = neither = 0
    for child, base, ref in zip(child_out, baseline_out, reference):
        base_counts, ref_counts = Counter(base), Counter(ref)
        for token, count in Counter(child).items():
            in_base = min(count, base_counts[token])
            in_ref = min(count, ref_counts[token])
            overlap = min(in_base, in_ref)
            both += overlap
            base_only += in_base - overlap
            ref_only += in_ref - overlap
            neither += count - max(in_base, in_ref)
    return TokenOverlap(both, base_only, ref_only, neither)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.lists(st.sampled_from("abcd"), max_size=8)] * 3), max_size=6))
def test_token_overlap_matches_branch_oracle(sentences):
    child, base, refs = (list(side) for side in zip(*sentences)) if sentences else ([], [], [])
    assert token_overlap_analysis(child, base, refs) == oracle_token_overlap(child, base, refs)


# Up to 30 tokens a sentence over 12 tokens, so a sentence repeats tokens and clipping bites.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.lists(st.sampled_from("abcdefghijkl"), max_size=30)] * 3), max_size=6))
def test_token_overlap_matches_branch_oracle_on_repeated_tokens(sentences):
    child, base, refs = (list(side) for side in zip(*sentences)) if sentences else ([], [], [])
    assert token_overlap_analysis(child, base, refs) == oracle_token_overlap(child, base, refs)


def test_token_overlap_length_mismatch():
    with pytest.raises(ValueError):
        token_overlap_analysis([["a"]], [], [["a"]])
