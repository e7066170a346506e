"""Corpus loading, filtering, sampling, mixing, and corruption contracts."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfervocab.corpus import (
    CORRUPTION_MODES,
    FilterReport,
    ParallelCorpus,
    corrupt_word_order,
    filter_by_subword_length,
    filter_by_word_length,
    load_parallel,
    load_parallel_tsv,
    make_pseudo_related,
    mix_with_oversample,
    sample_equal,
    subsample,
    write_parallel_tsv,
)
from xfervocab.errors import AlignmentError, CorpusDecodeError, CorpusFormatError, SampleSizeError
from xfervocab.wordpiece import Vocabulary


def corpus_of(pairs) -> ParallelCorpus:
    return ParallelCorpus.from_pairs(pairs)


def test_load_parallel_zips_lines(tmp_path):
    (tmp_path / "s").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "t").write_text("x\ny\nz\n", encoding="utf-8")
    corpus = load_parallel(tmp_path / "s", tmp_path / "t")
    assert corpus.pairs == [("a", "x"), ("b", "y"), ("c", "z")]


def test_load_parallel_mismatch_names_both_counts(tmp_path):
    (tmp_path / "s").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "t").write_text("w\nx\ny\nz\n", encoding="utf-8")
    with pytest.raises(AlignmentError) as err:
        load_parallel(tmp_path / "s", tmp_path / "t")
    assert "3" in str(err.value) and "4" in str(err.value)


def test_load_parallel_empty_files(tmp_path):
    (tmp_path / "s").write_text("", encoding="utf-8")
    (tmp_path / "t").write_text("", encoding="utf-8")
    assert len(load_parallel(tmp_path / "s", tmp_path / "t")) == 0


def test_load_parallel_invalid_utf8_reports_line(tmp_path):
    (tmp_path / "s").write_bytes(b"ok\n\xff\xfe broken\n")
    (tmp_path / "t").write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(CorpusDecodeError) as err:
        load_parallel(tmp_path / "s", tmp_path / "t")
    assert "line 2" in str(err.value)


def test_tsv_roundtrip_and_tab_rejection(tmp_path):
    corpus = corpus_of([("a b", "x y"), ("c", "z")])
    path = tmp_path / "c.tsv"
    write_parallel_tsv(corpus, path)
    assert load_parallel_tsv(path).pairs == corpus.pairs
    path.write_text("one\tcol\textra\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_parallel_tsv(path)
    with pytest.raises(CorpusFormatError):
        write_parallel_tsv(corpus_of([("has\ttab", "x")]), tmp_path / "bad.tsv")


def test_filter_report_tsv():
    report = FilterReport.from_counts(3, 1)
    assert report.to_tsv().splitlines()[0] == "kept\tdropped\tdropped_fraction"
    assert FilterReport.from_counts(0, 0).dropped_fraction == 0.0


def test_word_length_filter_drops_three_or_fewer():
    corpus = corpus_of([("a b c", "x y z"), ("a b c d", "w x y z")])
    kept, report = filter_by_word_length(corpus, min_words=3, max_words=75)
    assert kept.pairs == [("a b c d", "w x y z")]
    assert (report.kept, report.dropped) == (1, 1)


def test_word_length_filter_drops_over_75():
    long_side = " ".join(["w"] * 76)
    corpus = corpus_of([(long_side, "short enough here ok"), ("a b c d", "x y z w")])
    kept, _ = filter_by_word_length(corpus, min_words=3, max_words=75)
    assert kept.pairs == [("a b c d", "x y z w")]


def test_word_length_filter_identity():
    corpus = corpus_of([("a", "b"), ("c d", "e f")])
    kept, report = filter_by_word_length(corpus, 0, float("inf"))
    assert kept.pairs == corpus.pairs
    assert report.dropped == 0


def test_filters_preserve_order(latin_corpus):
    pairs = [(s, s) for s in latin_corpus[:200]]
    corpus = corpus_of(pairs)
    kept, _ = filter_by_word_length(corpus, 5, 8)
    positions = [pairs.index(p) for p in kept.pairs]
    assert positions == sorted(positions)


@pytest.fixture(scope="module")
def ascii_vocab():
    return Vocabulary.with_ascii_fallback(["the_", "cat_", "sat_"])


def test_subword_filter_threshold(ascii_vocab):
    short = ("the cat", "the cat")
    long = (" ".join(["qq"] * 40), "the cat")  # qq -> q q _ = many tokens
    corpus = corpus_of([short, long])
    kept100, _ = filter_by_subword_length(corpus, ascii_vocab, 100)
    kept500, _ = filter_by_subword_length(corpus, ascii_vocab, 500)
    assert set(kept100.pairs) <= set(kept500.pairs)
    kept_all, report = filter_by_subword_length(corpus_of([short]), ascii_vocab, 100)
    assert report.dropped_fraction == 0.0 and len(kept_all) == 1


def test_sample_equal_counts_and_determinism():
    a = corpus_of([(f"a{i}", f"A{i}") for i in range(50)])
    b = corpus_of([(f"b{i}", f"B{i}") for i in range(80)])
    mixed = sample_equal(a, b, 20, seed=9)
    assert len(mixed) == 40
    assert sum(1 for s, _ in mixed if s.startswith("a")) == 20
    assert sample_equal(a, b, 20, seed=9).pairs == mixed.pairs
    assert sample_equal(a, b, 20, seed=10).pairs != mixed.pairs


def test_sample_equal_full_size_is_permutation():
    a = corpus_of([(f"a{i}", f"A{i}") for i in range(10)])
    b = corpus_of([(f"b{i}", f"B{i}") for i in range(10)])
    mixed = sample_equal(a, b, 10, seed=0)
    assert sorted(mixed.pairs) == sorted(a.pairs + b.pairs)


def test_sample_equal_too_large():
    a = corpus_of([("a", "b")])
    with pytest.raises(SampleSizeError):
        sample_equal(a, a, 2, seed=0)


def test_subsample_is_an_ordered_subsequence():
    corpus = corpus_of([(f"s{i}", f"t{i}") for i in range(40)])
    down = subsample(corpus, 12, seed=3)
    assert len(down) == 12
    positions = [corpus.pairs.index(p) for p in down.pairs]
    assert positions == sorted(positions)
    assert subsample(corpus, 12, seed=3).pairs == down.pairs
    with pytest.raises(SampleSizeError):
        subsample(corpus, 41, seed=0)


def test_mix_with_oversample_counts():
    authentic = corpus_of([("a1", "A1"), ("a2", "A2")])
    synthetic = corpus_of([(f"s{i}", f"S{i}") for i in range(5)])
    mixed = mix_with_oversample(authentic, synthetic, factor=3)
    assert len(mixed) == 3 * 2 + 5
    counts = Counter(mixed.pairs)
    assert counts[("a1", "A1")] == 3 and counts[("a2", "A2")] == 3
    assert all(counts[p] == 1 for p in synthetic.pairs)


def test_mix_factor_one_is_concatenation_multiset():
    authentic = corpus_of([("a", "A")])
    synthetic = corpus_of([("s", "S")])
    mixed = mix_with_oversample(authentic, synthetic, factor=1)
    assert sorted(mixed.pairs) == sorted(authentic.pairs + synthetic.pairs)


def test_mix_is_deterministic():
    authentic = corpus_of([(f"a{i}", f"A{i}") for i in range(7)])
    synthetic = corpus_of([(f"s{i}", f"S{i}") for i in range(11)])
    assert (
        mix_with_oversample(authentic, synthetic, 2, seed=3).pairs
        == mix_with_oversample(authentic, synthetic, 2, seed=3).pairs
    )


PSEUDO_INPUT = corpus_of(
    [
        ("Pardon? Have you seen this cat?", "Promiňte? Viděli jste tuto kočku?"),
        ("The cat sat, counting 12 mice.", "Kočka seděla a počítala 12 myší."),
    ]
)


def test_pseudo_related_full_keep_is_identity():
    out = make_pseudo_related(PSEUDO_INPUT, 1.0, seed=5)
    assert out.pairs == PSEUDO_INPUT.pairs


def test_pseudo_related_zero_keep_changes_every_lettered_word():
    out = make_pseudo_related(PSEUDO_INPUT, 0.0, seed=5)
    for (src, _), (orig, _) in zip(out, PSEUDO_INPUT):
        for new, old in zip(src.split(), orig.split()):
            assert len(new) == len(old)
            if any(c.isalpha() for c in old):
                assert new != old


def test_pseudo_related_cipher_properties():
    out = make_pseudo_related(PSEUDO_INPUT, 0.0, seed=5)
    mapping = {}
    for (new_s, new_t), (old_s, old_t) in zip(out, PSEUDO_INPUT):
        for new, old in [(new_s, old_s), (new_t, old_t)]:
            for nc, oc in zip(new, old):
                if not oc.isalpha():
                    assert nc == oc  # punctuation, digits, spaces unchanged
                    continue
                assert nc.isupper() == oc.isupper()
                key = oc.lower()
                assert mapping.setdefault(key, nc.lower()) == nc.lower()  # consistent
                assert nc.lower() != key  # derangement: no fixed point


def test_pseudo_related_keeps_word_types_consistently():
    corpus = corpus_of([("cat cat dog", "x"), ("dog cat", "y")])
    out = make_pseudo_related(corpus, 0.5, seed=1)
    rendered = {}
    for new_s, old_s in zip(("\n".join(out.sources)).split(), ("\n".join(corpus.sources)).split()):
        assert rendered.setdefault(old_s, new_s) == new_s


def test_pseudo_related_deterministic():
    a = make_pseudo_related(PSEUDO_INPUT, 0.3, seed=42)
    b = make_pseudo_related(PSEUDO_INPUT, 0.3, seed=42)
    assert a.pairs == b.pairs


def test_corrupt_sort_target():
    corpus = corpus_of([("s", "b a c")])
    out = corrupt_word_order(corpus, "sort_target", seed=0)
    assert out.targets == ("a b c",)
    assert out.sources == ("s",)


def test_corrupt_shuffle_preserves_word_multisets():
    corpus = corpus_of([("one two three four five", "alpha beta gamma delta")])
    for mode in ("shuffle_source", "shuffle_target", "shuffle_both"):
        out = corrupt_word_order(corpus, mode, seed=2)
        for new, old in zip(out.sources, corpus.sources):
            expected = sorted(old.split()) if mode != "shuffle_target" else old.split()
            assert sorted(new.split()) == sorted(expected)
        for new, old in zip(out.targets, corpus.targets):
            expected = sorted(old.split()) if mode != "shuffle_source" else old.split()
            assert sorted(new.split()) == sorted(expected)


def test_corrupt_shuffle_pairing_preserves_target_multiset():
    corpus = corpus_of([("s1", "t1"), ("s2", "t2"), ("s3", "t3")])
    out = corrupt_word_order(corpus, "shuffle_pairing", seed=11)
    assert out.sources == corpus.sources
    assert sorted(out.targets) == sorted(corpus.targets)


def test_corrupt_unknown_mode():
    with pytest.raises(ValueError):
        corrupt_word_order(PSEUDO_INPUT, "spin", seed=0)


def test_corrupt_deterministic():
    a = corrupt_word_order(PSEUDO_INPUT, "shuffle_both", seed=6)
    b = corrupt_word_order(PSEUDO_INPUT, "shuffle_both", seed=6)
    assert a.pairs == b.pairs


def test_corpus_rejects_newlines_and_mismatch():
    with pytest.raises(CorpusFormatError):
        ParallelCorpus(("a\nb",), ("x",))
    with pytest.raises(AlignmentError):
        ParallelCorpus(("a",), ())


# Sentences of arbitrary Unicode scalar values without newlines, which a
# corpus cannot hold.
sentences = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n"), max_size=20)


@st.composite
def corpus_lists(draw):
    """A corpus as plain lists, so each test can build equal corpora twice."""
    n = draw(st.integers(1, 8))
    side = st.lists(sentences, min_size=n, max_size=n)
    return draw(side), draw(side)


def corpus_operations(draw, a, b):
    """Every seeded corpus operation, as (name, call) with its arguments drawn."""
    seed = draw(st.integers(0, 2**32))
    per_side = draw(st.integers(0, min(len(a[0]), len(b[0]))))
    size = draw(st.integers(0, len(a[0])))
    factor = draw(st.integers(1, 3))
    keep = draw(st.floats(0, 1))
    operations = [
        ("sample_equal", lambda x, y: sample_equal(x, y, per_side, seed)),
        ("subsample", lambda x, y: subsample(x, size, seed)),
        ("mix_with_oversample", lambda x, y: mix_with_oversample(x, y, factor, seed)),
        ("make_pseudo_related", lambda x, y: make_pseudo_related(x, keep, seed)),
    ]
    for mode in CORRUPTION_MODES:
        operations.append((mode, lambda x, y, mode=mode: corrupt_word_order(x, mode, seed)))
    return operations


@settings(max_examples=150, deadline=None)
@given(corpus_lists(), corpus_lists(), st.data())
def test_corpus_operations_are_deterministic_and_leave_input_unchanged(a, b, data):
    def build(lists, lang):
        return ParallelCorpus(tuple(lists[0]), tuple(lists[1]), lang, lang.upper())

    for name, operation in corpus_operations(data.draw, a, b):
        first_inputs = build(a, "aa"), build(b, "bb")
        second_inputs = build(a, "aa"), build(b, "bb")
        first = operation(*first_inputs)
        second = operation(*second_inputs)
        assert first == second, name
        assert first_inputs == (build(a, "aa"), build(b, "bb")), name
