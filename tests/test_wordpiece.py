"""Wordpiece segmentation against the hand-worked fixtures and a
token-emitting greedy oracle, plus the learner contract: exact and
tolerance-bounded sizes, determinism, escape totality, and the incremental
threshold ladder against a recount-from-scratch oracle."""

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
import xfervocab.wordpiece as wordpiece
import xfervocab.wordpiece_learner as wordpiece_learner
from xfervocab.errors import CorpusFormatError, EscapeDecodeError
from xfervocab.wordpiece import (
    ESCAPE_TOKENS,
    _CandidateBuilder,
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
        text = " ".join(text.split())  # single spaces, the promised domain
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
        out.extend(oracle_segment_unit(unit, index, vocab.max_token_length))
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
    assert vocab._units.cache_info().currsize == 5
    assert apply_wordpiece(vocab, " ".join(units)) == oracle_apply(vocab, " ".join(units))
    assert vocab._units.cache_info().currsize == 5


def test_unit_cache_keeps_the_most_recent_units(monkeypatch):
    monkeypatch.setattr(wordpiece, "_UNIT_CACHE_SIZE", 5)
    vocab = Vocabulary.with_ascii_fallback(["ab", "ba_"])
    units = list(dict.fromkeys("".join(random.Random(i).choices("ab", k=8)) for i in range(60)))
    assert len(units) > 10
    for unit in units:
        assert apply_wordpiece(vocab, unit) == oracle_apply(vocab, unit)
    before = vocab._units.cache_info()
    recent = " ".join(units[-5:])
    assert apply_wordpiece(vocab, recent) == oracle_apply(vocab, recent)
    after = vocab._units.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (5, 0)
    # The first units were forgotten; segmented again, they are still right.
    early = " ".join(units[:5])
    assert apply_wordpiece(vocab, early) == oracle_apply(vocab, early)
    assert vocab._units.cache_info().misses - after.misses == 5


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


def check_ladder_against_oracle(sentences, refine_iterations, extra):
    counts = _count_units([sentences], len(sentences))
    base, ranking, raw = oracle_ranking(counts, refine_iterations)
    with mock.patch.object(wordpiece_learner, "_REFINE_ITERATIONS", refine_iterations):
        learner = WordpieceLearner(counts)
    assert learner.base_tokens == base
    assert learner._ranked_tokens() == ranking
    learned_raw = dict(zip(ranking, learner._ranked_raw.tolist())) | dict(zip(base, learner._base_raw))
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
    assert learner._ranked_raw.tolist() == [raw.get(tok, 0) for tok in ranking]
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
builder_units = st.dictionaries(
    st.one_of(
        st.lists(st.sampled_from(["ab", "ba", "abc", "a", "\U0001f600", "é"]), min_size=1, max_size=20)
        .map("".join)
        .map(lambda unit: unit[:40]),
        st.text("_\\", min_size=1, max_size=6),
        st.text("ab._\\", min_size=1, max_size=40),
        st.text(ORACLE_ALPHABET, min_size=1, max_size=8),
    ),
    st.integers(1, 70_000),
    min_size=1,
    max_size=25,
)


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
    for name in ("_parent", "_lengths", "_suffix", "_final", "_first", "_weights"):
        got = getattr(builder, name)
        assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
    assert builder._blocks == want["_blocks"]
    assert builder.base_ids == want["base_ids"]
    # The learner's tie-break: (owner, length) order is lexical order.
    assert np.array_equal(np.lexsort((builder._lengths, builder.owner)), np.argsort(want["lex_rank"]))
    rendered = [builder.strings[k][:n] for k, n in zip(builder.owner.tolist(), builder._lengths.tolist())]
    assert rendered == want["tokens"]
    # Counts as subtree sums pushed to the parent one length block at a time.
    counts = np.zeros(len(want["tokens"]), np.int64)
    np.add.at(counts, want["_suffix"], want["_weights"])
    for first, last in want["_blocks"]:
        np.add.at(counts, want["_parent"][first:last], counts[first:last])
    assert np.array_equal(builder.counts(), counts)
