"""Wordpiece segmentation against the hand-worked fixtures and a
token-emitting greedy oracle, plus the learner contract: exact and
tolerance-bounded sizes, determinism, escape totality, and the incremental
threshold ladder against a recount-from-scratch oracle."""

import functools
import random
import re
import unicodedata
import warnings
from array import array
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import LATIN, desk_sentences
import xfervocab.wordpiece_learner as wordpiece_learner
from xfervocab.corpus import ParallelCorpus, filter_by_subword_length
from xfervocab.errors import CorpusFormatError, EscapeDecodeError
from xfervocab.wordpiece import (
    ESCAPE_TOKENS,
    _CandidateBuilder,
    _apply_lines,
    WORD_MARKER,
    VocabSpec,
    Vocabulary,
    WordpieceLearner,
    _count_units,
    _escape_char,
    _ALNUM_RE,
    apply_wordpiece,
    detokenize,
    learn_wordpiece,
    pretokenize,
)

SENTENCE = "O víkendu budeme doma."
CZECH_TOKENS = ["O_", "vík", "end", "u_", "bude", "me_", "doma_", "._"]
ENGLISH_TOKENS = ["O_", "v", "\\", "2", "3", "7", ";", "k", "end", "u_", "bud", "e", "me_", "dom", "a_", "._"]


@pytest.fixture(scope="module")
def czech_vocab():
    return Vocabulary.with_ascii_fallback(["bude", "doma_", "end", "me_", "ví", "vík"])


@pytest.fixture(scope="module")
def english_vocab():
    return Vocabulary.with_ascii_fallback(["bud", "dom", "end", "ho", "me", "week_", "will"])


def test_czech_toy_segmentation(czech_vocab):
    assert apply_wordpiece(czech_vocab, SENTENCE) == CZECH_TOKENS


def test_english_toy_segmentation_with_escape(english_vocab):
    # í has code point 237, escaped as backslash, digits, semicolon
    assert ord("í") == 237
    assert apply_wordpiece(english_vocab, SENTENCE) == ENGLISH_TOKENS


def test_toy_segmentations_roundtrip(czech_vocab, english_vocab):
    assert detokenize(CZECH_TOKENS) == SENTENCE
    assert detokenize(ENGLISH_TOKENS) == SENTENCE
    assert detokenize(apply_wordpiece(czech_vocab, SENTENCE)) == SENTENCE
    assert detokenize(apply_wordpiece(english_vocab, SENTENCE)) == SENTENCE


def test_whole_word_hit():
    vocab = Vocabulary(["cat_", *ESCAPE_TOKENS, "c", "a", "t"])
    assert apply_wordpiece(vocab, "cat") == ["cat_"]


def test_detokenize_empty():
    assert detokenize([]) == ""


def test_greedy_longest_match(czech_vocab):
    # "vík" must win over the shorter "ví"
    tokens = apply_wordpiece(czech_vocab, "víkendu")
    assert tokens[0] == "vík"


def test_roundtrip_with_literal_marker_and_backslash():
    vocab = Vocabulary.with_ascii_fallback([])
    for text in ("a_b", "x\\y z", "_lead", "trail_", "a __ b", "\\", "5avé"):
        assert detokenize(apply_wordpiece(vocab, text)) == text


def test_roundtrip_random_sentences():
    vocab = Vocabulary.with_ascii_fallback(["the", "cat", "ing", "tion_"])
    rng = random.Random(4)
    charset = "aehinorst .,!?-_\\éž09"
    for _ in range(300):
        text = "".join(rng.choice(charset) for _ in range(rng.randint(1, 40)))
        text = " ".join(text.split())  # single spaces
        if not text:
            continue
        assert detokenize(apply_wordpiece(vocab, text)) == text


# A frozen copy of the span matcher `apply_wordpiece` once used, kept as an
# oracle that shares no code with the unit decomposition it checks.
ORACLE_UNSAFE = "\\_"


def _unsafe_mask(unit):
    # The appended marker itself (last position) is always safe.
    mask = [c in ORACLE_UNSAFE for c in unit]
    mask.append(False)
    return mask


def _segment_boundaries(marked, unsafe, index, max_len):
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


def oracle_segment_unit(unit, index, max_len):
    """Greedy longest match that emits tokens directly, escaping unsafe and
    unreachable characters, with the marker fusing onto a word-final token."""
    marked = unit + WORD_MARKER
    unsafe = _unsafe_mask(unit)
    n = len(marked)
    out = []
    i = 0
    while i < n:
        if unsafe[i]:
            out.extend(_escape_char(marked[i]))
            i += 1
            continue
        stop = i
        while stop < n and not unsafe[stop]:
            stop += 1
        limit = min(max_len + 1, stop - i)  # +1 allows marker fusion
        match = None
        for length in range(limit, 0, -1):
            cand = marked[i : i + length]
            if cand in index:
                match = cand
                break
            if i + length == n and length > 1 and cand[:-1] in index:
                match = cand  # final token absorbs the marker
                break
        if match is None:
            out.extend(_escape_char(marked[i]))
            i += 1
        else:
            out.append(match)
            i += len(match)
    return out


def oracle_apply(vocab, sentence):
    index = set(vocab.tokens)
    out = []
    for unit in pretokenize(sentence):
        out.extend(oracle_segment_unit(unit, index, max(map(len, vocab), default=0)))
    return out


SEGMENT_ALPHABET = st.one_of(st.sampled_from("ab_\\\t 19.é"), st.characters(exclude_categories=("Cs",)))
segment_vocabs = st.lists(
    st.tuples(st.text(st.sampled_from("ab19.é "), min_size=1, max_size=4), st.booleans()), max_size=12
).map(lambda pieces: Vocabulary(list(dict.fromkeys([*ESCAPE_TOKENS, *(p + WORD_MARKER * m for p, m in pieces)]))))


@settings(max_examples=300, deadline=None)
@given(vocab=segment_vocabs, text=st.text(SEGMENT_ALPHABET, max_size=30))
# A fused marker: "ab" takes the marker although "ab_" is no token, and the walk passes "ab" on to "abc".
@example(vocab=Vocabulary([*ESCAPE_TOKENS, "ab", "abc"]), text="ab abc abd")
# Runs longer than the longest token.
@example(vocab=Vocabulary([*ESCAPE_TOKENS, "ab", "b_"]), text="abababab ab_ab")
# A script that no token starts.
@example(vocab=Vocabulary([*ESCAPE_TOKENS, "ab", "b_"]), text="ψυχή ab")
def test_apply_matches_greedy_oracle_and_roundtrips(vocab, text):
    assert apply_wordpiece(vocab, text) == oracle_apply(vocab, text)
    single_spaced = re.sub(" +", " ", text)
    assert detokenize(apply_wordpiece(vocab, single_spaced)) == single_spaced


def test_apply_matches_greedy_oracle_on_learned_vocabularies(latin_corpus):
    sentences = latin_corpus[:1000] + ["a_b \\ x\ty ψυχή 42 me_", "αβγ abc\tδ_ε", "__ \\\\ 0_9"]
    learner = WordpieceLearner.from_corpora([latin_corpus[:3000]])
    for target in (200, 600, 3000):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vocab = learner.learn(VocabSpec(target_size=target))
        for sentence in sentences:
            assert apply_wordpiece(vocab, sentence) == oracle_apply(vocab, sentence)


# Any text: tabs, CRLF, runs of spaces, the marker, the escape, text that
# looks like an escape, combining marks (category Mn, neither letter nor
# digit) on letters and alone, and any other character.
ROUNDTRIP_PIECES = ["\t", "\r\n", "\r", " ", "  ", "   ", "_", "\\", "\\12;", "a", "é", "e\u0301", "\u0308", "7", "."]
roundtrip_texts = st.lists(
    st.one_of(st.sampled_from(ROUNDTRIP_PIECES), st.characters(exclude_categories=("Cs",))), max_size=30
).map("".join)


@functools.cache
def learned_roundtrip_vocab():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return learn_wordpiece([desk_sentences(11, LATIN, 500, 300)], VocabSpec(target_size=300))


@settings(max_examples=300, deadline=None)
@given(text=roundtrip_texts, learned=st.booleans())
@example(text=" a\t b  c\r\n", learned=False)
@example(text="e\u0301 \u0301a _ \\ \\65;", learned=True)
def test_detokenize_inverts_apply_on_any_text(text, learned):
    vocab = learned_roundtrip_vocab() if learned else Vocabulary.with_ascii_fallback(["the", "e\u0301", "a_"])
    assert detokenize(apply_wordpiece(vocab, text)) == text


def test_detokenize_malformed_escape():
    with pytest.raises(EscapeDecodeError):
        detokenize(["\\", "x", ";", "_"])
    with pytest.raises(EscapeDecodeError):
        detokenize(["\\", "1", "2", "_"])


def test_detokenize_refuses_escapes_in_non_ascii_digits():
    # Arabic-Indic "12" is \d to the re module, but no encoder output.
    with pytest.raises(EscapeDecodeError):
        detokenize(["\\", "\u0661\u0662;_"])
    assert detokenize(["\\", "12;_"]) == "\x0c"


def test_pretokenize_splits_punctuation_and_keeps_double_spaces():
    assert pretokenize("doma.") == ["doma", "."]
    assert pretokenize("a b") == ["a", "b"]
    assert pretokenize("a  b") == ["a", "  ", "b"]
    assert pretokenize(" a") == [" ", "a"]


def _is_alnum(ch):
    """The letter-or-digit predicate the tokenizer used before the regex class."""
    return unicodedata.category(ch)[0] in ("L", "N")


def test_alnum_class_is_unicode_letters_and_digits():
    differ = [cp for cp in range(0x110000) if bool(_ALNUM_RE.match(chr(cp))) != _is_alnum(chr(cp))]
    assert differ == []


def oracle_pretokenize(text):
    """The per-character loop pretokenize replaced: a one-space run is kept
    only at the start or end of the text."""
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


PRETOKENIZE_PIECES = st.one_of(
    st.characters(exclude_categories=("Cs",)),
    st.sampled_from([" ", "  ", "\t", "\r\n", "_", "\\", "\u0301", "e\u0301", "7", "٣", "a", "."]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(PRETOKENIZE_PIECES, max_size=20).map("".join))
@example("a ")
@example(" a ")
@example(" ")
@example("a b c")
@example("a_ b\\ c")
def test_pretokenize_matches_character_loop(text):
    assert pretokenize(text) == oracle_pretokenize(text)


def two_step_pretokenize(text):
    """The two-step split the one-pattern pretokenize replaced: every
    maximal run, then each one-space run between two others dropped."""
    units = re.findall(r"[^\W_]+|[\W_]+", text)
    if len(units) > 2:
        units[1:-1] = [unit for unit in units[1:-1] if unit != " "]
    return units


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=4), PRETOKENIZE_PIECES), max_size=20).map("".join))
@example(" a b ")
@example("\ta b\r\n c")
@example("a  b c_d\\e f ")
@example("a b_ c")
def test_one_pattern_pretokenize_matches_two_step_split(text):
    assert pretokenize(text) == two_step_pretokenize(text)


@settings(max_examples=200, deadline=None)
@given(vocab=segment_vocabs, texts=st.lists(st.text(SEGMENT_ALPHABET, max_size=30), max_size=6))
def test_apply_through_warm_cache_matches_fresh_vocabulary_and_oracle(vocab, texts):
    for text in texts + texts:  # the second round repeats the first, on the same vocabulary
        assert apply_wordpiece(vocab, text) == apply_wordpiece(Vocabulary(vocab.tokens), text)
        assert apply_wordpiece(vocab, text) == oracle_apply(vocab, text)


# Lines that repeat units, with runs of spaces, tabs and "\r", blank lines, the
# marker, the escape, letters no token starts, and units that hold spaces.
LINE_PIECES = ["ab", "ba", "aab", "19", "é", "ř", "x", "_", "\\", " ", "  ", "\t", "\r", ". .", "a_b", "b\\a"]
pooled_lines = st.lists(st.lists(st.sampled_from(LINE_PIECES), max_size=10).map("".join), max_size=8)


@settings(max_examples=200, deadline=None)
@given(vocab=segment_vocabs, lines=pooled_lines, max_tokens=st.integers(0, 12))
def test_per_call_paths_match_the_per_sentence_function(vocab, lines, max_tokens):
    assert _apply_lines(vocab, lines) == [" ".join(apply_wordpiece(vocab, line)) for line in lines]
    corpus = ParallelCorpus(lines, lines[::-1])
    kept, report = filter_by_subword_length(corpus, vocab, max_tokens)
    fits = [len(apply_wordpiece(vocab, line)) <= max_tokens for line in lines]
    assert kept.pairs == [pair for pair, a, b in zip(corpus, fits, fits[::-1]) if a and b]
    assert report.kept == len(kept)


def test_mutating_a_result_leaves_later_results_unchanged(czech_vocab):
    first = apply_wordpiece(czech_vocab, SENTENCE)
    first.append("x")
    first[0] = "y"
    assert apply_wordpiece(czech_vocab, SENTENCE) == CZECH_TOKENS


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        Vocabulary(["dup", "dup"])
    with pytest.raises(ValueError):
        Vocabulary(["a_b"])  # marker must be final
    with pytest.raises(ValueError):
        Vocabulary(["a\\b"])  # backslash only as the bare escape token
    with pytest.raises(ValueError):
        Vocabulary([""])


def test_apply_requires_escape_tokens():
    # Checked before any unit is read, so an empty sentence raises too.
    for sentence in ("ab", ""):
        with pytest.raises(ValueError, match=r"lacks escape token '\\\\'"):
            apply_wordpiece(Vocabulary(["a", "b"]), sentence)


def test_vocabulary_file_roundtrip(tmp_path):
    vocab = Vocabulary.with_ascii_fallback(["hello_", "wor", "ld_"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.index("hello_") == vocab.index("hello_")
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert Vocabulary.load(path).tokens == vocab.tokens
    Vocabulary([]).save(path)
    assert path.read_bytes() == b""
    assert Vocabulary.load(path).tokens == []


@pytest.mark.parametrize(
    "tokens, line, message",
    [
        (["a", "b", "a"], 3, "duplicate token 'a'"),
        (["a", "", "b"], 2, "vocabulary tokens must be non-empty"),
        (["a", "b", "c", "a_b"], 4, "token 'a_b' has a non-final marker underscore"),
        (["\\", "a\\b"], 2, "token 'a\\\\b' embeds a backslash; only the bare escape token may"),
    ],
)
def test_vocabulary_load_names_file_and_line_of_a_bad_token(tmp_path, tokens, line, message):
    with pytest.raises(ValueError) as exc:
        Vocabulary(tokens)
    assert str(exc.value) == message
    path = tmp_path / "vocab.txt"
    path.write_text("".join(tok + "\r\n" for tok in tokens), encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        Vocabulary.load(path)
    assert str(exc.value) == f"{path}: line {line}: {message}"


@pytest.mark.parametrize("token", ["\r", "a\r", "\r\r"])
def test_vocabulary_save_refuses_token_that_load_would_change(tmp_path, token):
    path = tmp_path / "vocab.txt"
    with pytest.raises(CorpusFormatError, match="ends with a carriage return"):
        Vocabulary(["a", token]).save(path)
    assert not path.exists()
    Vocabulary(["a", "\r_", "b\rc"]).save(path)
    assert Vocabulary.load(path).tokens == ["a", "\r_", "b\rc"]


def test_vocab_spec_validation():
    with pytest.raises(ValueError):
        VocabSpec(target_size=100, tolerance=0.5)
    with pytest.raises(ValueError):
        VocabSpec(target_size=0)


def test_learn_minimal_corpus_within_tolerance():
    vocab = learn_wordpiece([["a b"]], VocabSpec(target_size=15))
    assert vocab.within_tolerance
    assert len(vocab) == 15
    for token in ("a", "b", *ESCAPE_TOKENS):
        assert token in vocab


def test_learn_empty_corpus_raises():
    with pytest.raises(ValueError):
        learn_wordpiece([[]], VocabSpec(target_size=100))
    with pytest.raises(ValueError):
        learn_wordpiece([], VocabSpec(target_size=100))


def test_learn_target_below_alphabet_raises():
    with pytest.raises(ValueError):
        learn_wordpiece([["abcdefghij klmnopqrst"]], VocabSpec(target_size=5))


def test_learn_size_contract_32k_style(latin_corpus):
    # target 400 at 1% tolerance: size must land in [396, 404]
    vocab = learn_wordpiece([latin_corpus[:3000]], VocabSpec(target_size=400))
    assert 396 <= len(vocab) <= 404
    assert vocab.within_tolerance


def test_learn_unreachable_target_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vocab = learn_wordpiece([["a b"]], VocabSpec(target_size=400))
    assert not vocab.within_tolerance
    assert any("tolerance" in str(w.message) for w in caught)


def test_learn_is_deterministic(latin_corpus):
    spec = VocabSpec(target_size=300)
    first = learn_wordpiece([latin_corpus[:1500]], spec)
    second = learn_wordpiece([latin_corpus[:1500]], spec)
    assert first.tokens == second.tokens


def test_learn_respects_sentence_cap(latin_corpus):
    # The cap belongs to the counting step, so both ways to learn take it there.
    spec = VocabSpec(target_size=300)
    capped = learn_wordpiece([latin_corpus], spec, max_train_sentences=50)
    assert capped.tokens == learn_wordpiece([latin_corpus[:50]], spec).tokens
    assert capped.tokens == WordpieceLearner.from_corpora([latin_corpus], 50).learn(spec).tokens
    with pytest.raises(TypeError):
        VocabSpec(target_size=300, max_train_sentences=50)


def test_doubling_target_never_increases_segmentation_rate(latin_corpus):
    # Desk check on a frozen 10k-sentence corpus.
    learner = WordpieceLearner.from_corpora([latin_corpus])
    sample = latin_corpus[:800]
    words = sum(len(s.split()) for s in sample)

    def rate(target):
        vocab = learner.learn(VocabSpec(target_size=target))
        return sum(len(apply_wordpiece(vocab, s)) for s in sample) / words

    for target in (250, 500, 1000, 2000):
        assert rate(2 * target) <= rate(target)


def test_learned_vocab_segments_and_roundtrips_training_text(latin_corpus):
    vocab = learn_wordpiece([latin_corpus[:2000]], VocabSpec(target_size=500))
    for sentence in latin_corpus[:100]:
        assert detokenize(apply_wordpiece(vocab, sentence)) == sentence


def oracle_ranking(unit_counts, refine_iterations=4):
    """Recount-from-scratch oracle for the threshold ladder: every pass of
    every threshold segments every unit again, recounts every candidate and
    re-sorts them all.  Returns the base, the ranking and the raw counts."""
    chars = set().union(*unit_counts) - {"\\", WORD_MARKER}
    base = sorted(chars.union(ESCAPE_TOKENS))
    marked = [(u + WORD_MARKER, _unsafe_mask(u), f) for u, f in sorted(unit_counts.items())]

    def count_candidates(current, max_len):
        counts = defaultdict(int)
        for word, unsafe, freq in marked:
            for start, _end in _segment_boundaries(word, unsafe, current, max_len):
                if unsafe[start]:
                    continue
                stop = start
                while stop < len(word) and not unsafe[stop]:
                    stop += 1
                for end in range(start + 1, stop + 1):
                    counts[word[start:end]] += freq
        return counts

    def build(min_count):
        iterations = 1 if min_count <= 1 else refine_iterations
        current, max_len = set(base), 1
        for _ in range(iterations):
            counts = count_candidates(current, max_len)
            adjusted = dict(counts)
            selected = {}
            for cand in sorted(counts, key=lambda c: (-len(c), c)):
                count = adjusted[cand]
                if len(cand) < 2 or (count < min_count and min_count > 1):
                    continue
                selected[cand] = count
                for cut in range(1, len(cand)):
                    adjusted[cand[:cut]] -= count
            current = set(base) | set(selected)
            max_len = max(len(t) for t in current)
        result = [(tok, selected.get(tok, counts.get(tok, 0))) for tok in set(base) | set(selected)]
        return sorted(result, key=lambda item: (-item[1], item[0]))

    ladder, level = [], max(unit_counts.values())
    while level >= 2:
        ladder.append(level)
        level //= 2
    seen, ranking = set(base), []
    for threshold in ladder + [1]:
        for tok, _count in build(threshold):
            if tok not in seen:
                seen.add(tok)
                ranking.append(tok)
    return base, ranking, dict(build(1))


def oracle_learn(unit_counts, spec, refine_iterations):
    base, ranking, raw = oracle_ranking(unit_counts, refine_iterations)
    selected = ranking[: spec.target_size - len(base)]
    within = abs(len(base) + len(selected) - spec.target_size) <= spec.tolerance * spec.target_size
    ordered = sorted(selected + base, key=lambda tok: (-raw.get(tok, 0), tok))
    return ordered, within


ORACLE_ALPHABET = "abcab_\\019\t.,-αβγ"

oracle_corpora = st.lists(st.text(ORACLE_ALPHABET, min_size=1, max_size=8), min_size=1, max_size=20).flatmap(
    lambda words: st.lists(
        st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join), min_size=1, max_size=40
    )
)


# Runs of up to 40 characters repeating a few shared pieces (so a piece is
# often selected mid-word and its word-final occurrence fuses with the
# marker), units of only "_" and "\", and unsafe characters inside a run
# of punctuation.  These walks run many steps, unlike the 8-character words.
long_oracle_corpora = st.lists(st.text("abc", min_size=1, max_size=5), min_size=1, max_size=4).flatmap(
    lambda pieces: st.lists(
        st.one_of(
            st.lists(st.sampled_from(pieces), min_size=1, max_size=8).map("".join),
            st.text("_\\", min_size=1, max_size=6),
            st.tuples(*(st.text(chars, min_size=1, max_size=6) for chars in (".-", "_\\", ".-"))).map("".join),
        ),
        min_size=1,
        max_size=12,
    )
).flatmap(
    lambda words: st.lists(
        st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join), min_size=1, max_size=30
    )
)


def ranked_raw(learner):
    """Threshold-1 counts aligned with the whole ranking: the ranked nodes',
    then 0 for each token of the tail."""
    return learner._ranked_raw.tolist() + [0] * int(learner._tail_ends[-1] if len(learner._tail_ends) else 0)


def check_ladder_against_oracle(sentences, refine_iterations, extra):
    counts = _count_units([sentences], len(sentences))
    base, ranking, raw = oracle_ranking(counts, refine_iterations)
    with mock.patch.object(wordpiece_learner, "_REFINE_ITERATIONS", refine_iterations):
        learner = WordpieceLearner(counts)
    assert learner.base_tokens == base
    assert learner._ranked_tokens() == ranking
    learned_raw = dict(zip(ranking, ranked_raw(learner))) | dict(zip(base, learner._base_raw))
    assert learned_raw == {tok: raw.get(tok, 0) for tok in learned_raw}
    assert set(learned_raw) == set(raw) | set(base)
    # Targets inside the inventory, at its end, and past it (tolerance misses).
    for target in {len(base), len(base) + len(ranking), *(len(base) + k for k in extra)}:
        spec = VocabSpec(target_size=target)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vocab = learner.learn(spec)
        assert (vocab.tokens, vocab.within_tolerance) == oracle_learn(counts, spec, refine_iterations)


@settings(max_examples=150, deadline=None)
@given(sentences=oracle_corpora, refine_iterations=st.sampled_from([1, 2, 4]), extra=st.lists(st.integers(0, 120), max_size=3))
def test_incremental_ladder_matches_recount_oracle(sentences, refine_iterations, extra):
    check_ladder_against_oracle(sentences, refine_iterations, extra)


@settings(max_examples=100, deadline=None)
@given(sentences=long_oracle_corpora, refine_iterations=st.sampled_from([2, 4]), extra=st.lists(st.integers(0, 300), max_size=3))
def test_incremental_ladder_matches_recount_oracle_on_long_and_escaped_units(sentences, refine_iterations, extra):
    check_ladder_against_oracle(sentences, refine_iterations, extra)


def test_incremental_ladder_matches_recount_oracle_at_desk_scale():
    counts = _count_units([desk_sentences(7, LATIN, 300, 200)], 300)
    base, ranking, raw = oracle_ranking(counts)
    learner = WordpieceLearner(counts)
    assert learner._ranked_tokens() == ranking
    assert ranked_raw(learner) == [raw.get(tok, 0) for tok in ranking]
    assert learner._base_raw == [raw.get(tok, 0) for tok in base]


def oracle_candidates(unit_counts, base):
    """The substring-enumeration set-up `_CandidateBuilder` replaced: base
    starts from the greedy base segmentation, every substring of every safe
    run from them stored as a string, ids sorted by (-length, token)."""
    units = sorted(unit_counts)
    index = set(base)
    universe = set(base)
    starts, stops = array("i"), array("i")
    unit_offsets = array("i", [0])
    for unit in units:
        marked = unit + WORD_MARKER
        unsafe = _unsafe_mask(unit)
        for start, _end in _segment_boundaries(marked, unsafe, index, 1):
            if unsafe[start]:
                continue
            stop = start
            while stop < len(marked) and not unsafe[stop]:
                stop += 1
            starts.append(start)
            stops.append(stop)
            universe.update(marked[start:end] for end in range(start + 1, stop + 1))
        unit_offsets.append(len(starts))
    lexical = sorted(universe)
    lengths = np.fromiter(map(len, lexical), np.int32, len(lexical))
    order = np.argsort(-lengths, kind="stable")
    tokens = [lexical[i] for i in order.tolist()]
    lengths = lengths[order]
    cuts = np.flatnonzero(np.diff(lengths)) + 1
    bounds = [0, *cuts.tolist(), len(lengths)]
    id_of = {tok: i for i, tok in enumerate(tokens)}
    suffix, final = [], []
    for u, unit in enumerate(units):
        marked = unit + WORD_MARKER
        for j in range(unit_offsets[u], unit_offsets[u + 1]):
            suffix.append(id_of[marked[starts[j] : stops[j]]])
            final.append(stops[j] == len(marked))
    offsets = np.frombuffer(unit_offsets, np.int32)
    freqs = [unit_counts[unit] for unit in units]
    return {
        "tokens": tokens,
        "lex_rank": order.astype(np.int32),
        "_lengths": lengths,
        "_blocks": [(a, b) for a, b in zip(bounds, bounds[1:]) if lengths[a] >= 2],
        "_parent": np.array([id_of[tok[:-1]] if len(tok) > 1 else -1 for tok in tokens], np.int32),
        "_suffix": np.array(suffix, np.int32),
        "_final": np.array(final, bool),
        "_first": offsets[:-1],
        "_weights": np.repeat(np.asarray(freqs, np.min_scalar_type(max(freqs))), np.diff(offsets)),
        "base_ids": [id_of[tok] for tok in base],
    }


# Units as the learner sees them, and beyond: runs of up to 40 characters
# repeating shared pieces, units of only "_" and "\", "_" and "\" inside
# runs, and characters outside the Basic Multilingual Plane.
builder_unit_keys = st.one_of(
    st.lists(st.sampled_from(["ab", "ba", "abc", "a", "\U0001f600", "é"]), min_size=1, max_size=20)
    .map("".join)
    .map(lambda unit: unit[:40]),
    st.text("_\\", min_size=1, max_size=6),
    st.text("ab._\\", min_size=1, max_size=40),
    st.text(ORACLE_ALPHABET, min_size=1, max_size=8),
)
builder_units = st.dictionaries(builder_unit_keys, st.integers(1, 70_000), min_size=1, max_size=25)


def explicit_nodes(builder):
    return [builder.strings[k][:n] for k, n in zip(builder.owner.tolist(), builder._lengths.tolist())]


@settings(max_examples=300, deadline=None)
@given(unit_counts=builder_units)
@example(unit_counts={"_": 1})
@example(unit_counts={"\\": 2, "a": 3})
@example(unit_counts={"a" * 40: 1, "a": 5})
def test_candidate_builder_matches_substring_enumeration(unit_counts):
    unit_counts = Counter(unit_counts)
    base = WordpieceLearner(unit_counts).base_tokens
    builder = _CandidateBuilder(unit_counts, base)
    want = oracle_candidates(unit_counts, base)
    for name in ("_final", "_weights"):
        got = getattr(builder, name)
        assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
    assert np.array_equal(builder._first, want["_first"])
    # Ids index arrays, so they are intp; lengths are values.
    for name in ("_parent", "_suffix", "_prefix", "_first", "owner", "_end", "_whole"):
        assert getattr(builder, name).dtype == np.intp, name
    assert builder._lengths.dtype == np.int32
    nodes = explicit_nodes(builder)
    assert len(set(nodes)) == len(nodes)
    assert [nodes[i] for i in builder._suffix.tolist()] == [want["tokens"][i] for i in want["_suffix"].tolist()]
    assert [nodes[i] for i in builder.base_ids] == base
    # The explicit nodes are exactly the candidates where a string ends or
    # that have two children; every other one is a unary interior.
    children = np.bincount(want["_parent"] + 1, minlength=len(want["tokens"]) + 1)[1:]
    ending = set(base) | {want["tokens"][i] for i in want["_suffix"].tolist()}
    explicit = {tok for tok, kids in zip(want["tokens"], children.tolist()) if tok in ending or kids >= 2}
    assert set(nodes) == explicit
    for tok, kids in zip(want["tokens"], children.tolist()):
        assert tok in explicit or (kids == 1 and tok not in ending)
    # Each node's parent is its nearest explicit proper prefix; roots are
    # the length-1 nodes, and ids go in depth blocks, deepest first.
    assert [nodes[p] if p >= 0 else None for p in builder._parent.tolist()] == [
        next((tok[:n] for n in range(len(tok) - 1, 0, -1) if tok[:n] in explicit), None) for tok in nodes
    ]
    roots = len(nodes) - sum(last - first for first, last in builder._blocks)
    assert builder._lengths[:roots].tolist() == [1] * roots and builder._lengths[roots:].min(initial=2) >= 2
    above = (0, roots)
    for first, last in reversed(builder._blocks):
        assert first == above[1] and last > first
        assert ((builder._parent[first:last] >= above[0]) & (builder._parent[first:last] < above[1])).all()
        above = (first, last)
    assert above[1] == len(nodes)
    # The learner's tie-break: (owner, length) order is lexical order.
    assert [nodes[i] for i in np.lexsort((builder._lengths, builder.owner)).tolist()] == sorted(nodes)
    # Counts as subtree sums pushed to the parent one length block at a time.
    counts = np.zeros(len(want["tokens"]), np.int64)
    np.add.at(counts, want["_suffix"], want["_weights"])
    for first, last in want["_blocks"]:
        np.add.at(counts, want["_parent"][first:last], counts[first:last])
    oracle_id = {tok: i for i, tok in enumerate(want["tokens"])}
    assert np.array_equal(builder.counts(), counts[[oracle_id[tok] for tok in nodes]])


# The uncompacted builder, the oracle for the explicit-node one: every
# candidate has an id, and carries move one length block at a time.
class UncompactedBuilder:
    """Candidate counts over a fixed universe, updated as the token set moves.

    A unit contributes its frequency to every substring that starts at one
    of its segment starts and ends within that start's safe run: a chain of
    prefixes ending at the whole run suffix.  Every segment start under any
    token set is also a start of the base segmentation, so the prefixes of
    the run suffixes there form a fixed universe.  It is built from the
    sorted distinct suffixes: at length L, suffix k holds a candidate no
    earlier suffix holds iff it is at least L long and shares fewer than L
    characters with suffix k - 1.  Each candidate gets an id in (-length,
    token) order, with its immediate prefix as its parent, and is rendered
    as strings[owner[id]][:length] only when asked for.  The strings a
    candidate prefixes form one range of the sorted order, so its count is
    a range sum over the run suffixes of the active starts, and the prefix
    discount is one carry pushed to the parent, one length block at a
    time.  A move to a new token set walks every unit's greedy segmentation
    at once over the base starts, and recounts only the starts whose
    activity flipped.
    """

    def __init__(self, unit_counts: Counter, base: list[str]):
        units = sorted(unit_counts)
        # The run suffix at every base segment start, unit by unit, over `_runs`.
        # A base start is every safe position except a word-final marker after
        # a safe character, which the base segmentation fuses onto it.
        suffixes = []
        offsets = array("i", [0])
        for unit in units:
            *inner, last = wordpiece_learner._runs(unit)[::2]
            for run in inner:
                suffixes += [run[i:] for i in range(len(run))]
            suffixes += [last[i:] for i in range(max(len(last) - 1, 1))]
            offsets.append(len(suffixes))

        # The universe is every prefix of these suffixes, plus the base (of
        # length 1, so a base token adds itself and no other prefix).  Sorted,
        # string k holds the prefixes longer than its common prefix with
        # string k - 1 that no earlier string holds, in lexical order.  Each
        # temporary goes once used: what the learner holds at its peak adds
        # to the peak of the step that calls it.
        strings = sorted(set(suffixes).union(base))
        rank = dict(zip(strings, range(len(strings))))
        start_rank = np.fromiter(map(rank.__getitem__, suffixes), np.int32, len(suffixes))
        del suffixes
        lens = np.fromiter(map(len, strings), np.int32, len(strings))
        codes = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), np.uint32)
        ends = np.cumsum(lens, dtype=np.int64)
        shared = wordpiece_learner._common_prefixes(codes, ends - lens, lens)
        # Only a final run ends with the marker.
        final = codes[ends - 1] == ord(WORD_MARKER)
        del codes, ends
        top = int(lens.max())
        per_length = np.cumsum(np.bincount(shared + 1, minlength=top + 2) - np.bincount(lens + 1, minlength=top + 2))
        total = int((lens - shared).sum())
        # after[L]: the candidates longer than L, so the first id of length L.
        after = (total - np.cumsum(per_length[: top + 1])).tolist()
        # (first, last) id of each length block, longest first, length >= 2.
        self._blocks = [(after[n], after[n - 1]) for n in range(top, 1, -1)]
        self._lengths = np.repeat(np.arange(top, 0, -1, dtype=np.int32), per_length[top:0:-1])

        # One step per length over the strings at least that long: string k
        # starts a new candidate iff its common prefix with string k - 1 is
        # shorter, so ids in (-length, token) order follow from one cumsum,
        # and each candidate's parent is the id one step before on its string.
        self._parent = np.empty(total, np.int32)
        # The strings a candidate prefixes are a range of the sorted order,
        # [owner, end): the first renders it, and its count sums the range.
        self.owner = np.empty(total, np.int32)
        self._end = np.empty(total, np.int32)
        whole_id = np.empty(len(strings), np.int32)
        active = np.arange(len(strings), dtype=np.int32)
        active_lens, ids = lens, np.full(len(strings), -1, np.int32)
        for length in range(1, top + 1):
            keep = active_lens >= length
            active, active_lens, above = active[keep], active_lens[keep], ids[keep]
            new = shared[active] < length
            ids = np.cumsum(new, dtype=np.int32) + np.int32(after[length] - 1)
            heads = np.flatnonzero(new)
            made = ids[heads]
            self._parent[made] = above[heads]
            self.owner[made] = active[heads]
            self._end[made] = active[np.append(heads[1:], len(active)) - 1] + 1
            whole = active_lens == length
            whole_id[active[whole]] = ids[whole]
        self.strings = strings
        self._whole = whole_id
        self.base_ids = whole_id[[rank[tok] for tok in base]].tolist()
        del rank

        # Id of the run suffix of each start (the deepest candidate it
        # counts), and whether that run ends its unit.
        self._suffix = whole_id[start_rank]
        self._final = final[start_rank]
        offsets = np.frombuffer(offsets, np.int32)
        self._first = offsets[:-1]
        freqs = [unit_counts[unit] for unit in units]
        self._weights = np.repeat(np.asarray(freqs, np.min_scalar_type(max(freqs))), np.diff(offsets))

        # Summed frequency of the active starts whose run suffix each id is.
        self._suffix_counts = np.zeros(total, np.int64)
        np.add.at(self._suffix_counts, self._suffix, self._weights)
        self._active = np.ones(len(self._suffix), bool)

    def counts(self) -> np.ndarray:
        """Candidate counts under the current segmentation: the summed
        suffix counts of the strings each candidate prefixes."""
        running = np.zeros(len(self._whole) + 1, np.int64)
        np.cumsum(self._suffix_counts[self._whole], out=running[1:])
        return running[self._end] - running[self.owner]

    def select(self, counts: np.ndarray, min_count: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidates of length >= 2 whose count, discounted by the selected
        candidates they prefix, reaches min_count, and the discounted counts."""
        carry = np.zeros_like(counts)
        adjusted = np.zeros_like(counts)
        selected = np.zeros(len(counts), bool)
        for first, last in self._blocks:
            block = slice(first, last)
            np.subtract(counts[block], carry[block], out=adjusted[block])
            np.greater_equal(adjusted[block], min_count, out=selected[block])
            np.add.at(carry, self._parent[block], carry[block] + adjusted[block] * selected[block])
        return selected, adjusted

    def move_to(self, selected: np.ndarray) -> None:
        """Walk every unit's greedy segmentation under the base tokens plus
        selected, and recount the starts whose activity flips.  The match at
        a start is the deepest id in the set on its run suffix's prefix
        chain, or the whole word-final suffix when its parent is in the set
        (marker fusion).  Starts are consecutive within a run and a run's
        end leads to the next run's first start, so the walk steps from
        index j to j + match until a match consumes the final run."""
        # deep[i]: the deepest id in the set on i's prefix chain.  Every
        # length-1 id is a base token, so only longer blocks can miss.
        deep = np.arange(len(self._lengths), dtype=np.int32)
        for first, last in reversed(self._blocks):
            np.copyto(deep[first:last], deep[self._parent[first:last]], where=~selected[first:last])
        suffix = self._suffix
        parent = self._parent[suffix]  # -1 for a lone marker, never its own deepest id
        whole = self._lengths[suffix]
        match = np.where(self._final & (deep[parent] == parent), whole, self._lengths[deep[suffix]])
        done = self._final & (match == whole)
        active = np.zeros_like(self._active)
        frontier = self._first
        while len(frontier):
            active[frontier] = True
            frontier = frontier[~done[frontier]]
            frontier = frontier + match[frontier]
            frontier = frontier[~active[frontier]]  # a closure never revisits a start, so the loop ends
        flipped = np.flatnonzero(active != self._active)
        weights = self._weights[flipped].astype(np.int64)
        np.add.at(self._suffix_counts, suffix[flipped], np.where(active[flipped], weights, -weights))
        self._active = active


class UncompactedLearner(WordpieceLearner):
    """The learner over `UncompactedBuilder`, its ladder and rendering
    verbatim.  Its ranking has no tail: every candidate is ranked, so the
    shared `learn` pads its counts with no zeros."""

    def __init__(self, unit_counts: Counter):
        if not unit_counts:
            raise ValueError("cannot learn a vocabulary from an empty corpus")
        chars = set()
        for unit in unit_counts:
            chars.update(unit)
        chars -= set(wordpiece_learner._UNSAFE_CHARS)
        self._base = sorted(chars.union(ESCAPE_TOKENS))
        builder = UncompactedBuilder(unit_counts, self._base)
        # Pass 1 starts from the base at every threshold, so its counts are
        # shared.  The threshold-1 build selects every candidate of length
        # >= 2 from them, so each one's discounted count is its count less
        # its children's.  Its children's strings cover its own but the one
        # equal to it, so that is the frequency of the starts whose whole
        # run suffix it is: its suffix count before the first move_to.  The
        # base keeps its full counts.
        first_counts = builder.counts()
        raw = np.where(builder._lengths >= 2, builder._suffix_counts, first_counts)
        thresholds, level = [], max(unit_counts.values())
        while level >= 2:
            thresholds.append(level)
            level //= 2
        ranked = np.zeros(len(raw), bool)
        ranked[builder.base_ids] = True
        levels = []
        for threshold in thresholds + [1]:
            if threshold == 1:
                selected, adjusted = builder._lengths >= 2, raw
            else:
                selected, adjusted = builder.select(first_counts, threshold)
                previous = np.zeros_like(selected)
                for _ in range(wordpiece_learner._REFINE_ITERATIONS - 1):
                    if np.array_equal(selected, previous):
                        break  # a fixed point: further passes repeat it
                    builder.move_to(selected)
                    previous = selected
                    selected, adjusted = builder.select(builder.counts(), threshold)
            new = np.flatnonzero(selected & ~ranked)
            # (owner, length) order is lexical order: the owner is the first
            # sorted string a candidate prefixes, and of two candidates with
            # one owner the shorter prefixes the longer.
            new = new[np.lexsort((builder._lengths[new], builder.owner[new], -adjusted[new]))]
            ranked[new] = True
            levels.append(new)
        order = np.concatenate(levels)
        # The ranking as (string, length) pairs: token i is
        # self._strings[self._ranked_string[i]][: self._ranked_length[i]].
        self._strings = builder.strings
        self._ranked_string = builder.owner[order]
        self._ranked_length = builder._lengths[order]
        # Threshold-1 counts, aligned with the ranking and with the base.
        self._ranked_raw = raw[order]
        self._base_raw = raw[builder.base_ids].tolist()

    def _ranked_tokens(self, stop: int | None = None) -> list[str]:
        """The first `stop` tokens of the ranking (all of them when None)."""
        strings = self._strings
        pairs = zip(self._ranked_string[:stop].tolist(), self._ranked_length[:stop].tolist())
        return [strings[k][:n] for k, n in pairs]


# Units beside builder_units: runs of 200 to 230 characters (pieces that
# repeat, so deep chains branch, and "_", "\\" and "." inside), and short
# words of the same pieces, frequent enough to be selected mid-word, so
# their word-final occurrences fuse with the marker.
long_builder_units = st.dictionaries(
    st.one_of(
        builder_unit_keys,
        st.lists(st.sampled_from(["ab", "ba", "abc", "cab"]), min_size=100, max_size=120).map("".join),
        st.text("abc", min_size=200, max_size=230),
        st.text("ab._\\", min_size=200, max_size=230),
        st.lists(st.sampled_from(["ab", "ba", "abc"]), min_size=1, max_size=3).map("".join),
    ),
    st.integers(1, 5000),
    min_size=1,
    max_size=12,
)


@settings(max_examples=15, deadline=None)
@given(unit_counts=long_builder_units, picks=st.lists(st.floats(0, 1), max_size=3))
@example(unit_counts={"ab" * 150: 3, "ab": 40, "abab": 9}, picks=[0.5])
@example(unit_counts={"a" * 230: 1, "a": 5}, picks=[0.0, 0.99])
def test_explicit_node_ladder_matches_uncompacted_builder(unit_counts, picks):
    unit_counts = Counter(unit_counts)
    learner, oracle = WordpieceLearner(unit_counts), UncompactedLearner(unit_counts)
    assert learner.base_tokens == oracle.base_tokens
    tokens = oracle._ranked_tokens()
    assert learner._ranked_tokens() == tokens
    assert ranked_raw(learner) == oracle._ranked_raw.tolist()
    assert learner._base_raw == oracle._base_raw
    # Targets in the ranked nodes, at their end, in the tail, at its end and past it.
    base, ranked = len(learner.base_tokens), len(learner._ranked_raw)
    targets = {base, base + ranked, base + len(tokens), base + len(tokens) + 5}
    targets |= {base + ranked + int(pick * (len(tokens) - ranked)) for pick in picks}
    targets |= {base + int(pick * ranked) for pick in picks}
    for target in targets:
        spec = VocabSpec(target_size=target)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, want = learner.learn(spec), oracle.learn(spec)
        assert (got.tokens, got.within_tolerance) == (want.tokens, want.within_tolerance)
