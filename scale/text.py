"""Scale tier for the text passes of MT evaluation: the corpus rewrites that
derive two systems, and the token analysis of one against the other.

    python3 scale/text.py [--src DIR] [CASE ...]

Run it from the repository root.  Each case rewrites one parallel corpus
(Cyrillic sources, Latin targets) in a fresh Python process, importing the
package from DIR (default `src/`; see `tier.py`), as the `evaluate`
benchmark workload does, and prints one JSON line per run:

* `pseudo_s` - `make_pseudo_related` at keep 0.9, seed 1 (`corpus pseudo`);
* `corrupt_s` - `corrupt_word_order` with `shuffle_target`, seed 1
  (`corpus corrupt`);
* `analysis_s` - `token_overlap_analysis` of the pseudo-related targets,
  with the corrupted targets as the baseline and the original targets as the
  references, each line split into words (`eval token-analysis`);
* `maxrss_mb` - the process's `ru_maxrss` at the end, and `corpus_maxrss_mb`
  the same once the corpus exists, before any package code runs;
* `digest` - SHA-256 over both rewritten corpora and the analysis's report,
  to compare two checkouts.

Cases (`perfbench/gen.py` desk corpora, Cyrillic seed 2 as the sources,
Latin seed 1 as the targets):

* `text-20k` - 20 000 sentence pairs over 8000 word types per side;
* `text-100k` - 100 000 sentence pairs over 60 000 word types per side, the
  size of the thesis's paper-scale corpora.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import tier

# Sentence pairs, and word types per side.
SIZES = {"text-20k": (20_000, 8000), "text-100k": (100_000, 60_000)}


def measure(case: str, src: Path) -> dict:
    gen = tier.desk_generator()
    sources = gen.desk_sentences(2, gen.CYRILLIC, *SIZES[case])
    targets = gen.desk_sentences(1, gen.LATIN, *SIZES[case])
    corpus_mb = tier.maxrss_mb()
    sys.path.insert(0, str(src))
    from xfervocab.corpus import ParallelCorpus, corrupt_word_order, make_pseudo_related
    from xfervocab.evallite import token_overlap_analysis

    corpus = ParallelCorpus(sources, targets)
    del sources
    start = time.perf_counter()
    pseudo = make_pseudo_related(corpus, 0.9, 1)
    pseudo_s = time.perf_counter() - start
    start = time.perf_counter()
    corrupt = corrupt_word_order(corpus, "shuffle_target", 1)
    corrupt_s = time.perf_counter() - start
    digest = hashlib.sha256()
    for side in (pseudo.sources, pseudo.targets, corrupt.sources, corrupt.targets):
        digest.update("".join(line + "\n" for line in side).encode("utf-8"))
    sides = (pseudo.targets, corrupt.targets, targets)
    child, baseline, references = ([line.split() for line in side] for side in sides)
    del pseudo, corrupt, corpus
    start = time.perf_counter()
    report = token_overlap_analysis(child, baseline, references).to_tsv()
    analysis_s = time.perf_counter() - start
    digest.update(report.encode("utf-8"))
    return {
        "case": case,
        "pseudo_s": round(pseudo_s, 4),
        "corrupt_s": round(corrupt_s, 4),
        "analysis_s": round(analysis_s, 4),
        "maxrss_mb": round(tier.maxrss_mb(), 1),
        "corpus_maxrss_mb": round(corpus_mb, 1),
        "digest": digest.hexdigest(),
        "src": str(src),
    }


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, tuple(SIZES), measure))
