"""Filtering, sampling, mixing, and deliberately damaging parallel corpora.

Run:  python demos/02_corpus_surgery.py
"""

from xfervocab import (
    ParallelCorpus,
    Vocabulary,
    corrupt_word_order,
    filter_by_subword_length,
    filter_by_word_length,
    make_pseudo_related,
    mix_with_oversample,
    sample_equal,
)

corpus = ParallelCorpus.from_pairs(
    [
        ("a b", "too short"),
        ("Pardon? Have you seen this cat?", "Promiňte? Viděli jste tuto kočku?"),
        ("The quick brown fox jumps over the lazy dog.", "Rychlá hnědá liška skáče přes líného psa."),
        (" ".join(["very"] * 80) + " long", "way too long on the source side"),
    ]
)

print("=" * 70)
print("1. Length filters (drop <= 3 words or > 75 words, either side)")
print("=" * 70)
kept, report = filter_by_word_length(corpus, min_words=3, max_words=75)
print(f"  kept {report.kept}, dropped {report.dropped} ({report.dropped_fraction:.0%})")
for src, _ in kept:
    print(f"    {src}")

vocab = Vocabulary.with_ascii_fallback([])
kept2, report2 = filter_by_subword_length(kept, vocab, max_tokens=100)
print(f"  after the 100-subword cap: kept {report2.kept}, dropped {report2.dropped}")

print()
print("=" * 70)
print("2. Pseudo-related language: a letter cipher with a relatedness dial")
print("=" * 70)
for keep in (1.0, 0.7, 0.3, 0.0):
    out = make_pseudo_related(kept2, keep_percent=keep, seed=13)
    print(f"  {int(keep * 100):3d}% related: {out.sources[0]}")

print()
print("=" * 70)
print("3. Word-order corruption modes")
print("=" * 70)
for mode in ("shuffle_source", "sort_target", "shuffle_pairing"):
    out = corrupt_word_order(kept2, mode, seed=4)
    print(f"  {mode:16} src: {out.sources[0][:44]:46} tgt: {out.targets[0][:40]}")

print()
print("=" * 70)
print("4. Oversampled mixing and balanced sampling")
print("=" * 70)
authentic = ParallelCorpus.from_pairs([("real one", "x"), ("real two", "y")])
synthetic = ParallelCorpus.from_pairs([(f"synthetic {i}", f"s{i}") for i in range(6)])
mixed = mix_with_oversample(authentic, synthetic, factor=3, seed=1)
print(f"  2 authentic x3 + 6 synthetic = {len(mixed)} pairs, shuffled reproducibly")

balanced = sample_equal(authentic, synthetic, per_side=2, seed=1)
print(f"  equal sample: {len(balanced)} pairs, two from each corpus")
