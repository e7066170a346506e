"""Scale tier for the BPE learner: time and peak memory of `learn_bpe`.

    python3 scale/bpe.py [--src DIR] [CASE ...]

Run it from the repository root.  Each case learns one joint merge table in
a fresh Python process, importing the package from DIR (default `src/`; see
`tier.py`), and prints one JSON line per run:

* `learn_s` - the `learn_bpe` call;
* `maxrss_mb` - the process's `ru_maxrss` at the end, and `corpus_maxrss_mb`
  the same once the corpus exists, before any learner code runs;
* `merges` - the rules learned;
* `digest` - SHA-256 of the table's rules, one "left right" line each, to
  compare two checkouts.

Cases (`perfbench/gen.py` desk corpora, Latin seed 1 plus Cyrillic seed 2,
learned jointly):

* `bpe-8000` - 20 000 sentences over 8000 word types per alphabet, 8000
  merges;
* `bpe-32000` - 100 000 sentences over 60 000 word types per alphabet,
  32 000 merges, the thesis's vocabulary size (about 7 s and 238 MB);
* `bpe-long-4000` - 5000 Latin sentences over 1500 word types (seed 5)
  plus one sentence holding one seeded random word of 4000 letters, 4000
  merges: a long word is rewritten by most merges.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

import tier

# Sentences and word types per alphabet, and merges.
SIZES = {"bpe-8000": (20_000, 8000, 8000), "bpe-32000": (100_000, 60_000, 32_000)}
CASES = (*SIZES, "bpe-long-4000")


def corpora_and_merges(case: str) -> tuple[list[list[str]], int]:
    gen = tier.desk_generator()
    if case == "bpe-long-4000":
        word = "".join(random.Random(4000).choices(gen.LATIN, k=4000))
        return [gen.desk_sentences(5, gen.LATIN, 5000, 1500) + [word]], 4000
    sentences, types, merges = SIZES[case]
    corpora = [gen.desk_sentences(seed, alphabet, sentences, types)
               for alphabet, seed in ((gen.LATIN, 1), (gen.CYRILLIC, 2))]
    return corpora, merges


def measure(case: str, src: Path) -> dict:
    corpora, merges = corpora_and_merges(case)
    corpus_mb = tier.maxrss_mb()
    sys.path.insert(0, str(src))
    from xfervocab.bpe import learn_bpe

    start = time.perf_counter()
    table = learn_bpe(corpora, merges)
    learn_s = time.perf_counter() - start
    text = "".join(f"{left} {right}\n" for left, right in table)
    return {
        "case": case,
        "learn_s": round(learn_s, 4),
        "maxrss_mb": round(tier.maxrss_mb(), 1),
        "corpus_maxrss_mb": round(corpus_mb, 1),
        "merges": len(table),
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "src": str(src),
    }


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure))
