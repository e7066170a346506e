"""Scale tier for the text passes of MT evaluation: the corpus rewrites that
derive two systems, and the token analysis of one against the other.

    python3 scale/text.py [--src DIR] [CASE ...]

Run it from the repository root.  Each case rewrites one parallel corpus
(Cyrillic sources, Latin targets) as the `evaluate` benchmark workload does
(see `tier.py` for the process, `--src` and the fields every line holds)
and prints:

* `pseudo_s` - `make_pseudo_related` at keep 0.9, seed 1 (`corpus pseudo`);
* `corrupt_s` - `corrupt_word_order` with `shuffle_target`, seed 1
  (`corpus corrupt`);
* `analysis_s` - `token_overlap_analysis` of the pseudo-related targets,
  with the corrupted targets as the baseline and the original targets as the
  references, each line split into words (`eval token-analysis`);
* `digest` - SHA-256 over both rewritten corpora and the analysis's report,
  to compare two checkouts.

Cases (the `cy` desk corpus as the sources, `lt` as the targets):
`text-20k` and `text-100k`, both at 20k (20 000 sentence pairs over 8000
word types per side) and at 100k (100 000 over 60 000, the size of the
thesis's paper-scale corpora).
"""

from __future__ import annotations

import sys

import tier

CASES = ("text-20k", "text-100k")


def measure(case: str, probe: tier.Probe) -> dict:
    size = case.removeprefix("text-")
    sources, targets = tier.desk("cy", size), tier.desk("lt", size)
    probe.start()
    from xfervocab.corpus import ParallelCorpus, corrupt_word_order, make_pseudo_related
    from xfervocab.evallite import token_overlap_analysis

    corpus = ParallelCorpus(sources, targets)
    del sources
    pseudo = probe.time("pseudo_s", make_pseudo_related, corpus, 0.9, 1)
    corrupt = probe.time("corrupt_s", corrupt_word_order, corpus, "shuffle_target", 1)
    for side in (pseudo.sources, pseudo.targets, corrupt.sources, corrupt.targets):
        probe.hash("".join(line + "\n" for line in side))
    sides = (pseudo.targets, corrupt.targets, targets)
    child, baseline, references = ([line.split() for line in side] for side in sides)
    del pseudo, corrupt, corpus
    probe.hash(probe.time("analysis_s", lambda: token_overlap_analysis(child, baseline, references).to_tsv()))
    return {}


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure))
