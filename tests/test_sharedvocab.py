"""Merged and Balanced shared-vocabulary construction."""

import pytest

from tests.conftest import desk_parallel
from xfervocab.corpus import ParallelCorpus, sample_equal
from xfervocab.sharedvocab import build_balanced_vocab, build_merged_vocab, merge_vocabs
from xfervocab.wordpiece import VocabSpec, Vocabulary, WordpieceLearner


def test_merge_ordered_union():
    merged = merge_vocabs(Vocabulary(["a", "b", "c"]), Vocabulary(["b", "c", "d"]))
    assert merged.tokens == ["a", "b", "c", "d"]


def test_merge_idempotent():
    vocab = Vocabulary(["x", "y"])
    assert merge_vocabs(vocab, vocab).tokens == vocab.tokens


def test_merge_empty_parent_is_identity():
    vocab = Vocabulary(["x", "y"])
    assert merge_vocabs(Vocabulary([]), vocab).tokens == vocab.tokens


def test_merge_preserves_parent_indices():
    parent = Vocabulary(["p0", "p1", "p2", "shared"])
    child = Vocabulary(["shared", "c0", "p1"])
    merged = merge_vocabs(parent, child)
    for token in parent:
        assert merged.index(token) == parent.index(token)
    assert set(parent.tokens) <= set(merged.tokens)
    assert set(child.tokens) <= set(merged.tokens)


@pytest.fixture(scope="module")
def small_parents():
    return desk_parallel(21, n_sentences=1200, n_types=500), desk_parallel(23, n_sentences=1200, n_types=500)


def test_build_merged_hits_target(small_parents):
    parent, child = small_parents
    merged, report = build_merged_vocab(parent, child, target_size=1200, tolerance=0.01)
    assert abs(len(merged) - 1200) <= 12
    assert report.within_tolerance
    assert report.final_size == len(merged)
    assert report.iterations >= 1


def test_build_merged_identical_corpora_collapses():
    corpus = desk_parallel(31, n_sentences=600, n_types=300)
    merged, report = build_merged_vocab(corpus, corpus, target_size=500, tolerance=0.02)
    # identical sides learn identical vocabularies; deduplication collapses
    # the merge to a single side vocabulary of the searched size
    learner = WordpieceLearner.from_corpora([corpus.sources, corpus.targets])
    single = learner.learn(VocabSpec(target_size=len(merged), tolerance=0.49))
    assert merged.tokens == single.tokens
    assert report.iterations >= 1
    assert abs(len(merged) - 500) <= 10


def test_balanced_draws_equal_counts(small_parents):
    parent, child = small_parents
    bigger = ParallelCorpus(parent.sources * 3, parent.targets * 3)
    vocab = build_balanced_vocab(bigger, child, target_size=800, tolerance=0.01, seed=4)
    # equality with the manual pipeline: sample min-size pairs from each side
    per_side = min(len(bigger), len(child))
    mixed = sample_equal(bigger, child, per_side, seed=4)
    manual = WordpieceLearner.from_corpora([mixed.sources, mixed.targets]).learn(
        VocabSpec(target_size=800, tolerance=0.01)
    )
    assert vocab.tokens == manual.tokens
    assert abs(len(vocab) - 800) <= 8


def test_balanced_deterministic(small_parents, tmp_path):
    parent, child = small_parents
    a = build_balanced_vocab(parent, child, 600, 0.01, seed=9)
    b = build_balanced_vocab(parent, child, 600, 0.01, seed=9)
    assert a.tokens == b.tokens
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()
    with pytest.raises(TypeError):
        build_balanced_vocab(parent, child, 600, 0.01)
    with pytest.raises(TypeError):
        build_balanced_vocab(parent, child, 600, 0.01, 9)  # seed is keyword-only
