"""Wordpiece segmentation against the hand-worked fixtures and a
token-emitting greedy oracle, plus the learner contract: exact and
tolerance-bounded sizes, determinism, escape totality, and the incremental
threshold ladder against a recount-from-scratch oracle."""

import random
import re
import unicodedata
import warnings
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xfervocab.wordpiece as wordpiece
from xfervocab.errors import EscapeDecodeError
from xfervocab.wordpiece import (
    ESCAPE_TOKENS,
    WORD_MARKER,
    VocabSpec,
    Vocabulary,
    WordpieceLearner,
    _count_units,
    _escape_char,
    _ALNUM_RE,
    _segment_boundaries,
    _unsafe_mask,
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
        text = " ".join(text.split())  # single spaces, the promised domain
        if not text:
            continue
        assert detokenize(apply_wordpiece(vocab, text)) == text


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
        out.extend(oracle_segment_unit(unit, index, vocab.max_token_length))
    return out


SEGMENT_ALPHABET = st.one_of(st.sampled_from("ab_\\\t 19.é"), st.characters(exclude_categories=("Cs",)))
segment_vocabs = st.lists(
    st.tuples(st.text(st.sampled_from("ab19.é "), min_size=1, max_size=4), st.booleans()), max_size=12
).map(lambda pieces: Vocabulary(list(dict.fromkeys([*ESCAPE_TOKENS, *(p + WORD_MARKER * m for p, m in pieces)]))))


@settings(max_examples=300, deadline=None)
@given(vocab=segment_vocabs, text=st.text(SEGMENT_ALPHABET, max_size=30))
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


def test_detokenize_malformed_escape():
    with pytest.raises(EscapeDecodeError):
        detokenize(["\\", "x", ";", "_"])
    with pytest.raises(EscapeDecodeError):
        detokenize(["\\", "1", "2", "_"])


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


@settings(max_examples=200, deadline=None)
@given(vocab=segment_vocabs, texts=st.lists(st.text(SEGMENT_ALPHABET, max_size=30), max_size=6))
def test_apply_through_warm_cache_matches_fresh_vocabulary_and_oracle(vocab, texts):
    for text in texts + texts:  # the second round reads only remembered units
        assert apply_wordpiece(vocab, text) == apply_wordpiece(Vocabulary(vocab.tokens), text)
        assert apply_wordpiece(vocab, text) == oracle_apply(vocab, text)


def test_mutating_a_result_leaves_later_results_unchanged(czech_vocab):
    first = apply_wordpiece(czech_vocab, SENTENCE)
    first.append("x")
    first[0] = "y"
    assert apply_wordpiece(czech_vocab, SENTENCE) == CZECH_TOKENS


def test_unit_cache_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(wordpiece, "_UNIT_CACHE_SIZE", 5)
    vocab = Vocabulary.with_ascii_fallback(["ab", "ba_"])
    units = ["".join(random.Random(i).choices("ab", k=6)) for i in range(40)]
    for unit in units:
        assert apply_wordpiece(vocab, unit) == oracle_apply(vocab, unit)
    assert len(vocab._units) == 5
    assert apply_wordpiece(vocab, " ".join(units)) == oracle_apply(vocab, " ".join(units))
    assert len(vocab._units) == 5


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
    with pytest.raises(ValueError):
        apply_wordpiece(Vocabulary(["a", "b"]), "ab")


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
    capped = learn_wordpiece(
        [latin_corpus], VocabSpec(target_size=300, max_train_sentences=50)
    )
    uncapped = learn_wordpiece([latin_corpus[:50]], VocabSpec(target_size=300))
    assert capped.tokens == uncapped.tokens


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


def oracle_learn(unit_counts, spec):
    base, ranking, raw = oracle_ranking(unit_counts, spec.refine_iterations)
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


@settings(max_examples=150, deadline=None)
@given(sentences=oracle_corpora, refine_iterations=st.sampled_from([1, 2, 4]), extra=st.lists(st.integers(0, 120), max_size=3))
def test_incremental_ladder_matches_recount_oracle(sentences, refine_iterations, extra):
    counts = _count_units([sentences], len(sentences))
    base, ranking, raw = oracle_ranking(counts, refine_iterations)
    learner = WordpieceLearner(counts, refine_iterations)
    assert learner.base_tokens == base
    assert learner._canonical_ranking() == ranking
    learned_raw = dict(zip(ranking, learner._ranked_raw.tolist())) | dict(zip(base, learner._base_raw))
    assert learned_raw == {tok: raw.get(tok, 0) for tok in learned_raw}
    assert set(learned_raw) == set(raw) | set(base)
    # Targets inside the inventory, at its end, and past it (tolerance misses).
    for target in {len(base), len(base) + len(ranking), *(len(base) + k for k in extra)}:
        spec = VocabSpec(target_size=target, refine_iterations=refine_iterations)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vocab = learner.learn(spec)
        assert (vocab.tokens, vocab.within_tolerance) == oracle_learn(counts, spec)
