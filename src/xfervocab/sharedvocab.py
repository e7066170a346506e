"""Warm-start shared vocabularies: Merged and Balanced construction.

Merged keeps the parent vocabulary as a prefix (so parent embedding rows
stay valid) and appends the child tokens that are new.  Because merging
two size-s vocabularies overshoots, the per-side generation size is found
by binary search until the merged size lands within tolerance of the
target.  Balanced learns one vocabulary from an equal per-corpus sample of
sentences; the mixed corpus exists only for vocabulary generation.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .corpus import ParallelCorpus, sample_equal
from .textio import render_tsv
from .wordpiece import Vocabulary, VocabSpec
from .wordpiece_learner import WordpieceLearner, learn_wordpiece


@dataclass(frozen=True)
class MergedBuildReport:
    initial_size_tried: int
    final_size: int
    iterations: int
    within_tolerance: bool

    def to_tsv(self) -> str:
        return render_tsv([("initial_size_tried", "final_size", "iterations", "within_tolerance"), astuple(self)])


def merge_vocabs(parent: Vocabulary, child: Vocabulary) -> Vocabulary:
    """Parent tokens in order, then child tokens not already present."""
    parent_tokens = parent.tokens
    present = set(parent_tokens)
    merged = parent_tokens + [tok for tok in child if tok not in present]
    return Vocabulary(merged, within_tolerance=parent.within_tolerance and child.within_tolerance)


def build_merged_vocab(
    parent_corpus: ParallelCorpus,
    child_corpus: ParallelCorpus,
    target_size: int,
    tolerance: float = VocabSpec.tolerance,
) -> tuple[Vocabulary, MergedBuildReport]:
    """Search the per-side vocabulary size so the deduplicated merge of the
    two side vocabularies hits target_size within tolerance."""
    spec = VocabSpec(target_size, tolerance)
    parent_learner = WordpieceLearner.from_corpora([parent_corpus.sources, parent_corpus.targets])
    child_learner = WordpieceLearner.from_corpora([child_corpus.sources, child_corpus.targets])
    floor = max(len(parent_learner.base_tokens), len(child_learner.base_tokens))
    if target_size < floor:
        raise ValueError(f"target_size {target_size} is below the alphabet size {floor}")

    def attempt(size: int) -> Vocabulary:
        side_spec = VocabSpec(target_size=size, tolerance=0.49)
        return merge_vocabs(parent_learner.learn(side_spec), child_learner.learn(side_spec))

    lo = max(floor, target_size // 2)
    hi = target_size
    initial = (lo + hi) // 2
    iterations = 0
    best: tuple[int, Vocabulary] | None = None
    while lo <= hi:
        size = (lo + hi) // 2
        merged = attempt(size)
        iterations += 1
        gap = abs(len(merged) - target_size)
        if best is None or gap < best[0]:
            best = (gap, merged)
        if spec.within(len(merged)):
            break
        if len(merged) > target_size:
            hi = size - 1
        else:
            lo = size + 1

    assert best is not None
    _, merged = best
    within = spec.within(len(merged))
    report = MergedBuildReport(initial, len(merged), iterations, within)
    return Vocabulary(merged.tokens, within_tolerance=within), report


def build_balanced_vocab(
    parent_corpus: ParallelCorpus,
    child_corpus: ParallelCorpus,
    target_size: int,
    tolerance: float = VocabSpec.tolerance,
    *,
    seed: int,
) -> Vocabulary:
    """Learn one vocabulary from an equal number of sentence pairs sampled
    from each corpus, so all four language sides contribute equally."""
    per_side = min(len(parent_corpus), len(child_corpus))
    mixed = sample_equal(parent_corpus, child_corpus, per_side, seed)
    spec = VocabSpec(target_size=target_size, tolerance=tolerance)
    return learn_wordpiece([mixed.sources, mixed.targets], spec)
