"""Scale tier for MT evaluation: BLEU statistics and the paired bootstrap.

    python3 scale/mteval.py [--src DIR] [CASE ...]

Run it from the repository root.  Each case scores two systems against one
reference per sentence in a fresh Python process, importing the package
from DIR (default `src/`; see `tier.py`), and prints one JSON line per run:

* `stats_s` - `_corpora_stats` of both systems, the per-sentence BLEU
  statistics `eval bleu` and `eval bootstrap` compute;
* `bootstrap_s` - `paired_bootstrap` at 1000 samples, which computes the
  statistics again and resamples them;
* `maxrss_mb` - the process's `ru_maxrss` at the end, and `corpus_maxrss_mb`
  the same once numpy is imported and the corpora exist, before any package
  code runs;
* `tokens` - the tokens one statistics call reads: both systems' and the
  references' (one reference a sentence, so its length is its `ref_len`);
* `digest` - SHA-256 over both systems' statistics and the bootstrap's
  report, to compare two checkouts.

Cases (`perfbench/gen.py` Latin desk corpus, seed 1, as the references;
each system drops, repeats and swaps words of each reference, seeded):

* `eval-20k` - 20 000 sentences over 8000 word types;
* `eval-100k` - 100 000 sentences over 60 000 word types, the size of the
  thesis's paper-scale corpora.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

import numpy as np

import tier

# Sentences and word types of the references.
SIZES = {"eval-20k": (20_000, 8000), "eval-100k": (100_000, 60_000)}


def system(references: list[str], seed: int) -> list[str]:
    """One system's output: each reference with words dropped, repeated and swapped."""
    rng = random.Random(seed)
    out = []
    for sentence in references:
        words = [word for word in sentence.split() for _ in range(rng.choice((0, 1, 1, 1, 1, 2)))]
        if len(words) > 1 and rng.random() < 0.5:
            i = rng.randrange(len(words) - 1)
            words[i], words[i + 1] = words[i + 1], words[i]
        out.append(" ".join(words))
    return out


def measure(case: str, src: Path) -> dict:
    gen = tier.desk_generator()
    references = gen.desk_sentences(1, gen.LATIN, *SIZES[case])
    systems = [system(references, seed) for seed in (2, 3)]
    corpus_mb = tier.maxrss_mb()
    sys.path.insert(0, str(src))
    from xfervocab.mteval import _corpora_stats, paired_bootstrap

    start = time.perf_counter()
    stats = _corpora_stats(systems, references, 4, "intl")
    stats_s = time.perf_counter() - start
    digest = hashlib.sha256(np.ascontiguousarray(stats, "<i8").tobytes())
    tokens = int(stats[..., 8].sum() + stats[0, :, 9].sum())
    del stats  # the bootstrap computes its own
    start = time.perf_counter()
    report = paired_bootstrap(*systems, references, 1000, seed=1).to_tsv()
    bootstrap_s = time.perf_counter() - start
    digest.update(report.encode("utf-8"))
    return {
        "case": case,
        "stats_s": round(stats_s, 4),
        "bootstrap_s": round(bootstrap_s, 4),
        "maxrss_mb": round(tier.maxrss_mb(), 1),
        "corpus_maxrss_mb": round(corpus_mb, 1),
        "tokens": tokens,
        "digest": digest.hexdigest(),
        "src": str(src),
    }


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, tuple(SIZES), measure))
