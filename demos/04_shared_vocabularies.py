"""Warm-start shared vocabularies and the diagnostics that motivate them.

Run:  python demos/04_shared_vocabularies.py
"""

import random

from xfervocab import (
    ParallelCorpus,
    VocabSpec,
    build_balanced_vocab,
    build_merged_vocab,
    learn_wordpiece,
    merge_vocabs,
    overlap_breakdown,
    segmentation_rate,
    vocab_usage,
)


def synthetic_corpus(seed, alphabet, n=1500):
    rng = random.Random(seed)
    words = list(dict.fromkeys("".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8))) for _ in range(900)))
    weights = [1.0 / (i + 1) for i in range(len(words))]
    return [" ".join(rng.choices(words, weights=weights, k=rng.randint(4, 9))) for _ in range(n)]


parent = ParallelCorpus(
    tuple(synthetic_corpus(1, "abcdefghij")),
    tuple(synthetic_corpus(2, "абвгдежзик")),
)
child = ParallelCorpus(
    tuple(synthetic_corpus(3, "abcdefghij")),
    tuple(synthetic_corpus(4, "klmnopqrst")),
)

print("=" * 70)
print("1. Merged vocabulary: search the per-side size for a merged target")
print("=" * 70)
merged, report = build_merged_vocab(parent, child, target_size=1500, tolerance=0.01)
print(f"  target 1500 -> merged {report.final_size} in {report.iterations} iterations "
      f"(within tolerance: {report.within_tolerance})")

print()
print("=" * 70)
print("2. Balanced vocabulary: learn from an equal per-corpus sample")
print("=" * 70)
balanced = build_balanced_vocab(parent, child, target_size=1500, tolerance=0.01, seed=7)
print(f"  balanced size: {len(balanced)}")

print()
print("=" * 70)
print("3. Why share at all: segmentation rate and vocabulary usage")
print("=" * 70)
own = learn_wordpiece([child.sources, child.targets], VocabSpec(target_size=1500))
foreign = learn_wordpiece([parent.sources, parent.targets], VocabSpec(target_size=1500))
sample = list(child.targets[:400])
print(f"  child target side under its own vocab:   {segmentation_rate(own, sample):.2f} tokens/word")
print(f"  child target side under the parent's:    {segmentation_rate(foreign, sample):.2f} tokens/word")
print(f"  parent vocabulary used by the child:      {vocab_usage(foreign, sample):.0%}")

print()
print("=" * 70)
print("4. Overlap breakdown of the balanced vocabulary")
print("=" * 70)
corpora = {
    "eng": list(parent.sources[:400]) + list(child.sources[:400]),
    "rus": list(parent.targets[:400]),
    "est": list(child.targets[:400]),
}
breakdown = overlap_breakdown(
    balanced, corpora, min_count=10, parent_langs=("eng", "rus"), child_langs=("est", "eng")
)
print(breakdown.to_tsv(), end="")

print()
print("5. Merging two toy vocabularies keeps parent indices stable")
from xfervocab import Vocabulary

pv = Vocabulary(["low", "er_", "est_"])
cv = Vocabulary(["er_", "kõrge", "madal"])
print(f"  {pv.tokens} + {cv.tokens} -> {merge_vocabs(pv, cv).tokens}")
