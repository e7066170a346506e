"""Scale tier for wordpiece segmentation over several scripts under one vocabulary.

    python3 scale/segment.py [--src DIR] [CASE ...]

Run it from the repository root.  A case learns one vocabulary from a Latin
and a Cyrillic corpus (in its own process, with this checkout's `src/`; see
`tier.py`), then, in a fresh Python process importing the package from DIR
(default `src/`), segments three corpora under it: the two it was learned
from and an Armenian one that none of its multi-character tokens start.
Each phase starts from a fresh `Vocabulary`, so no phase reads a memo that
an earlier one filled.  It prints one JSON line per run:

* `apply_s` - `apply_wordpiece` over the three corpora concatenated, and
  `apply_files_s` the same over each corpus on its own, summed;
* `counts_s` - `diagnostics._token_counts` of each corpus, as `diag
  overlap` counts its labelled corpora;
* `rate_s` - `segmentation_rate` over the concatenation, and `rate_files_s`
  over each corpus on its own, summed;
* `maxrss_mb` - the process's `ru_maxrss` at the end, and `corpus_maxrss_mb`
  the same once the corpora exist, before any segmentation;
* `apply_digest`, `counts_digest` and `rate` - the outputs, and `digest` -
  SHA-256 over all three, to compare two checkouts.

Cases (`perfbench/gen.py` desk corpora: Latin seed 1, Cyrillic seed 2,
Armenian seed 4):

* `mixed-20k` - 20 000 sentences over 8000 word types per corpus, a
  4000-token vocabulary;
* `mixed-100k` - 100 000 sentences over 60 000 word types per corpus, a
  32 000-token vocabulary, the thesis's size.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import tier

# Sentences and word types per corpus, and the vocabulary's target size.
SIZES = {"mixed-20k": (20_000, 8000, 4000), "mixed-100k": (100_000, 60_000, 32_000)}
# Corpus name, generator alphabet and seed; the vocabulary is learned from the first two.
CORPORA = (("lt", "LATIN", 1), ("cy", "CYRILLIC", 2), ("hy", "ARMENIAN", 4))


def corpora(case: str) -> dict[str, list[str]]:
    gen = tier.desk_generator()
    sentences, types, _ = SIZES[case]
    return {
        name: gen.desk_sentences(seed, getattr(gen, alphabet), sentences, types) for name, alphabet, seed in CORPORA
    }


def prepare(case: str) -> list[str]:
    """The vocabulary's tokens, learned from the Latin and Cyrillic corpora."""
    from xfervocab.wordpiece import VocabSpec, learn_wordpiece

    texts = corpora(case)
    return learn_wordpiece([texts["lt"], texts["cy"]], VocabSpec(target_size=SIZES[case][2])).tokens


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def measure(case: str, src: Path, tokens: list[str]) -> dict:
    texts = corpora(case)
    mixed = [sentence for lines in texts.values() for sentence in lines]
    corpus_mb = tier.maxrss_mb()
    sys.path.insert(0, str(src))
    from xfervocab.diagnostics import _token_counts, segmentation_rate
    from xfervocab.wordpiece import Vocabulary, apply_wordpiece

    def timed(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start

    def apply_all(sentences):
        vocab = Vocabulary(tokens)
        return [" ".join(apply_wordpiece(vocab, sentence)) for sentence in sentences]

    def counts_by_corpus():
        vocab = Vocabulary(tokens)
        return {name: _token_counts(vocab, lines) for name, lines in texts.items()}

    segmented, apply_s = timed(apply_all, mixed)
    apply_files_s = sum(timed(apply_all, lines)[1] for lines in texts.values())
    counts, counts_s = timed(counts_by_corpus)
    rate, rate_s = timed(lambda: segmentation_rate(Vocabulary(tokens), mixed))
    rate_files_s = sum(timed(lambda: segmentation_rate(Vocabulary(tokens), lines))[1] for lines in texts.values())

    apply_digest = sha256("".join(line + "\n" for line in segmented))
    counts_digest = sha256("".join(
        f"{name}\t{tok}\t{count}\n" for name, table in counts.items() for tok, count in sorted(table.items())
    ))
    return {
        "case": case,
        "apply_s": round(apply_s, 4),
        "apply_files_s": round(apply_files_s, 4),
        "counts_s": round(counts_s, 4),
        "rate_s": round(rate_s, 4),
        "rate_files_s": round(rate_files_s, 4),
        "maxrss_mb": round(tier.maxrss_mb(), 1),
        "corpus_maxrss_mb": round(corpus_mb, 1),
        "vocabulary": len(tokens),
        "apply_digest": apply_digest,
        "counts_digest": counts_digest,
        "rate": repr(rate),
        "digest": sha256(f"{apply_digest} {counts_digest} {rate!r}"),
        "src": str(src),
    }


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, tuple(SIZES), measure, prepare))
