"""Segmentation and vocabulary diagnostics, checked against set arithmetic
done by hand or by an independent per-token construction."""

from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xfervocab.transfer as transfer
from xfervocab.corpus import ParallelCorpus
from xfervocab.diagnostics import (
    _token_counts,
    length_filter_impact,
    overlap_breakdown,
    segmentation_rate,
    unicode_range_predicate,
    vocab_usage,
)
from xfervocab.transfer import emit_transfer_bundle, map_vocabularies, transform_vocab
from xfervocab.wordpiece import ESCAPE_TOKENS, Vocabulary, VocabSpec, apply_wordpiece, learn_wordpiece

SENTENCE = "O víkendu budeme doma."


@pytest.fixture(scope="module")
def czech_vocab():
    return Vocabulary.with_ascii_fallback(["bude", "doma_", "end", "me_", "ví", "vík"])


@pytest.fixture(scope="module")
def english_vocab():
    return Vocabulary.with_ascii_fallback(["bud", "dom", "end", "ho", "me", "week_", "will"])


def test_rate_is_two_for_own_language_toy(czech_vocab):
    assert segmentation_rate(czech_vocab, [SENTENCE]) == pytest.approx(8 / 4)


def test_rate_is_four_under_foreign_toy(english_vocab):
    assert segmentation_rate(english_vocab, [SENTENCE]) == pytest.approx(16 / 4)


def test_rate_one_when_every_word_is_a_token():
    vocab = Vocabulary.with_ascii_fallback(["the_", "cat_", "sat_"])
    assert segmentation_rate(vocab, ["the cat sat", "cat sat"]) == 1.0


def test_rate_empty_corpus_raises(czech_vocab):
    with pytest.raises(ValueError):
        segmentation_rate(czech_vocab, [])


def test_rate_never_below_one(czech_vocab, latin_corpus):
    assert segmentation_rate(czech_vocab, latin_corpus[:50]) >= 1.0


def test_usage_full_and_empty():
    vocab = Vocabulary(["a_", "b_", *"ab", *"\\;0123456789", "_"])
    assert vocab_usage(vocab, ["a b " * 3 + "a b"]) < 1.0  # escapes unused
    assert vocab_usage(vocab, []) == 0.0
    tiny = Vocabulary(["a_", "b_"])
    assert vocab_usage(tiny, []) == 0.0


def test_usage_counts_only_observed(czech_vocab):
    usage = vocab_usage(czech_vocab, [SENTENCE])
    observed = set(apply_wordpiece(czech_vocab, SENTENCE))
    assert usage == pytest.approx(len(observed) / len(czech_vocab))
    assert 0.0 < usage < 1.0


def test_usage_monotone_in_corpus(czech_vocab, latin_corpus):
    small = vocab_usage(czech_vocab, latin_corpus[:20])
    large = vocab_usage(czech_vocab, latin_corpus[:200])
    assert large >= small


def test_usage_with_character_class_predicate():
    cyrillic = unicode_range_predicate([(0x0400, 0x04FF)])
    vocab = Vocabulary.with_ascii_fallback(["да_", "не_", "word_"])
    usage_all = vocab_usage(vocab, ["да word"])
    usage_cyr = vocab_usage(vocab, ["да word"], cyrillic)
    assert usage_cyr == pytest.approx(1 / 2)  # да_ observed, не_ not
    assert usage_all < usage_cyr


def oracle_breakdown(vocab, corpora, min_count):
    """Direct per-token set construction."""
    classes = {}
    for token in vocab:
        langs = set()
        for lang, sentences in corpora.items():
            count = sum(Counter(apply_wordpiece(vocab, s))[token] for s in sentences)
            if count >= min_count:
                langs.add(lang)
        if langs:
            key = frozenset(langs)
            classes[key] = classes.get(key, 0) + 1
    return classes


def test_overlap_threshold_semantics():
    vocab = Vocabulary.with_ascii_fallback(["tok_"])
    corpora = {
        "A": ["tok " * 12],  # 12 occurrences
        "B": ["tok tok tok"],  # 3 occurrences
    }
    breakdown = overlap_breakdown(vocab, corpora, min_count=10)
    assert breakdown.classes[frozenset({"A"})] >= 1
    assert frozenset({"A", "B"}) not in breakdown.classes


def test_overlap_matches_oracle_three_languages():
    vocab = Vocabulary.with_ascii_fallback(["aa_", "bb_", "cc_", "ab_"])
    corpora = {
        "est": ["aa aa aa ab", "aa ab ab"],
        "eng": ["bb ab aa", "bb ab aa aa"],
        "rus": ["cc cc", "cc bb"],
    }
    breakdown = overlap_breakdown(vocab, corpora, min_count=2)
    assert breakdown.classes == oracle_breakdown(vocab, corpora, 2)


def test_overlap_partition_invariant():
    vocab = Vocabulary.with_ascii_fallback(["xx_", "yy_"])
    corpora = {"A": ["xx xx"], "B": ["yy yy"]}
    breakdown = overlap_breakdown(vocab, corpora, min_count=1)
    assert sum(breakdown.classes.values()) + breakdown.never_observed == len(vocab)


def test_overlap_reused_parent_arithmetic():
    # Classes: {est}, {eng}, {rus}, {est,eng}, {eng,rus}, {est,eng,rus}.
    # Parent = eng+rus, child = est+eng: reused counts every class that
    # intersects both; unused_by_child counts observed classes without
    # child languages (rus-only here).
    vocab = Vocabulary.with_ascii_fallback(["e1_", "g1_", "r1_", "eg_", "gr_", "all_"])
    corpora = {
        "est": ["e1 eg all"],
        "eng": ["g1 eg gr all"],
        "rus": ["r1 gr all"],
    }
    breakdown = overlap_breakdown(
        vocab, corpora, min_count=1, parent_langs=("eng", "rus"), child_langs=("est", "eng")
    )
    by_class = {frozenset(k): v for k, v in breakdown.classes.items()}
    assert by_class[frozenset({"eng"})] == 1
    reused_expected = (
        by_class[frozenset({"eng"})]
        + by_class[frozenset({"est", "eng"})]
        + by_class[frozenset({"eng", "rus"})]
        + by_class[frozenset({"est", "eng", "rus"})]
    )
    assert breakdown.reused_parent == reused_expected
    assert breakdown.unused_by_child == by_class[frozenset({"rus"})]


def test_overlap_requires_two_corpora(czech_vocab):
    with pytest.raises(ValueError):
        overlap_breakdown(czech_vocab, {"only": ["x"]})


@pytest.mark.filterwarnings("ignore:vocabulary size")
def test_reports_agree_on_a_token_used_only_fused(tmp_path):
    """`me` occurs only fused with the word marker, as `me_`, which has no row.
    The usage, overlap and unused-parent reports all charge a token by its
    string, so none of them sees `me` in use, and each sees `x_`."""
    parent = Vocabulary.with_ascii_fallback(["me"])
    corpus = ["me me me x"]
    assert apply_wordpiece(parent, corpus[0]) == ["me_", "me_", "me_", "x_"]

    assert vocab_usage(parent, corpus, lambda tok: tok == "me") == 0.0
    assert vocab_usage(parent, corpus, lambda tok: tok == "x_") == 1.0

    breakdown = overlap_breakdown(parent, {"A": corpus, "B": corpus}, min_count=1)
    assert breakdown.classes == {frozenset({"A", "B"}): 1}  # x_ alone
    assert breakdown.never_observed == len(parent) - 1

    _, mapping = transform_vocab(parent, [corpus])
    bundle = emit_transfer_bundle(mapping, np.zeros((len(parent), 1), dtype=np.float32), tmp_path)
    rows = bundle.unused_parent_path.read_text(encoding="utf-8").splitlines()[1:]
    unused = {row.split("\t")[1] for row in rows}
    assert "me" in unused and "x_" not in unused
    assert len(unused) == len(parent) - 1


def test_filter_impact_quarter():
    vocab = Vocabulary.with_ascii_fallback([])
    short = "ab cd"
    long = " ".join(["qq"] * 50)  # 3 tokens per word and a period
    corpus = ParallelCorpus.from_pairs([(short, short), (short, short), (short, short), (long, short)])
    report = length_filter_impact(vocab, corpus, threshold=60)
    assert report.dropped == 1 and report.kept == 3
    assert report.dropped_fraction == pytest.approx(0.25)


def test_filter_impact_monotone(latin_corpus):
    vocab = Vocabulary.with_ascii_fallback([])
    corpus = ParallelCorpus.from_pairs([(s, s) for s in latin_corpus[:80]])
    drop100 = length_filter_impact(vocab, corpus, 100).dropped
    drop500 = length_filter_impact(vocab, corpus, 500).dropped
    assert drop500 <= drop100


def test_filter_impact_all_short():
    vocab = Vocabulary.with_ascii_fallback([])
    corpus = ParallelCorpus.from_pairs([("a b", "c d")])
    assert length_filter_impact(vocab, corpus, 100).dropped_fraction == 0.0


def oracle_token_counts(vocab, sentences):
    """The per-sentence count the unit-table count replaced."""
    return Counter(chain.from_iterable(apply_wordpiece(vocab, sentence) for sentence in sentences))


def oracle_rate(vocab, sentences):
    tokens = sum(len(apply_wordpiece(vocab, sentence)) for sentence in sentences)
    words = sum(len(sentence.split()) for sentence in sentences)
    return tokens / words if words else None


REPORT_ALPHABET = st.one_of(st.sampled_from("ab_\\\t 19.é"), st.characters(exclude_categories=("Cs",)))
report_vocabs = st.lists(st.text(st.sampled_from("ab19.é_"), min_size=1, max_size=4), max_size=12).map(
    lambda pieces: Vocabulary(list(dict.fromkeys([*ESCAPE_TOKENS, *(p for p in pieces if "_" not in p[:-1])])))
)


@settings(max_examples=300, deadline=None)
@given(vocab=report_vocabs, sentences=st.lists(st.text(REPORT_ALPHABET, max_size=30), max_size=8))
def test_unit_table_counts_equal_the_per_sentence_counts(vocab, sentences):
    expected = oracle_token_counts(vocab, sentences)
    assert _token_counts(vocab, sentences) == expected
    assert _token_counts(vocab, iter(sentences)) == expected
    rate = oracle_rate(vocab, sentences)
    if rate is None:
        with pytest.raises(ValueError, match="empty corpus"):
            segmentation_rate(vocab, sentences)
    else:
        assert segmentation_rate(vocab, iter(sentences)) == rate


NO_ESCAPES = Vocabulary([f"t{i}_" for i in range(40)])


@pytest.mark.filterwarnings("ignore:vocabulary size")
@pytest.mark.parametrize("sentences", [[""], ["a b"], ["", "a b"]])
def test_reports_refuse_a_vocabulary_without_escape_tokens_once_a_sentence_is_read(sentences):
    refusal = "vocabulary lacks escape token"
    with pytest.raises(ValueError, match=refusal):
        segmentation_rate(NO_ESCAPES, sentences)
    with pytest.raises(ValueError, match=refusal):
        vocab_usage(NO_ESCAPES, sentences)
    with pytest.raises(ValueError, match=refusal):
        overlap_breakdown(NO_ESCAPES, {"A": [], "B": sentences})
    if any(sentences):  # the learner refuses a corpus without a unit first
        with pytest.raises(ValueError, match=refusal):
            transform_vocab(NO_ESCAPES, [sentences])


def test_reports_over_no_sentence_do_not_segment():
    with pytest.raises(ValueError, match="empty corpus"):
        segmentation_rate(NO_ESCAPES, [])
    assert vocab_usage(NO_ESCAPES, []) == 0.0
    assert vocab_usage(NO_ESCAPES, [""], lambda tok: False) == 0.0
    assert overlap_breakdown(NO_ESCAPES, {"A": [], "B": []}, min_count=1).never_observed == len(NO_ESCAPES)


@pytest.mark.filterwarnings("ignore:vocabulary size")
def test_transform_learns_from_the_capped_sentences_and_counts_usage_over_all(monkeypatch, latin_corpus):
    cap = 40
    monkeypatch.setattr(transfer, "MAX_TRAIN_SENTENCES", cap)
    parent = learn_wordpiece([latin_corpus[:200]], VocabSpec(target_size=120))
    # Past the cap, the child corpus holds words that only the usage count sees.
    parts = [latin_corpus[200:200 + 30], latin_corpus[230:230 + 20] + ["xyzzy qwv", "zzz"] * 5]
    vocab, mapping = transform_vocab(parent, parts, "frequency")

    child = learn_wordpiece(parts, VocabSpec(target_size=len(parent)), max_train_sentences=cap)
    expected = map_vocabularies(parent, child, "frequency")
    assert mapping.entries == expected.entries
    assert vocab.tokens == expected.output_tokens()
    counts = oracle_token_counts(parent, chain.from_iterable(parts))
    assert mapping.used_parent_slots == frozenset(e.slot for e in mapping.entries if counts[e.parent_token])
    # The sentences past the cap do use slots that the capped corpus alone does not.
    capped = oracle_token_counts(parent, list(chain.from_iterable(parts))[:cap])
    assert {e.slot for e in mapping.entries if capped[e.parent_token]} < mapping.used_parent_slots
