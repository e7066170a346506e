"""Scale tier for MT evaluation: BLEU statistics and the paired bootstrap.

    python3 scale/mteval.py [--src DIR] [CASE ...]

Run it from the repository root.  Each case scores two systems against one
reference per sentence (see `tier.py` for the process, `--src` and the
fields every line holds; here the corpora exist once numpy is imported) and
prints:

* `stats_s` - `_corpora_stats` of both systems, the per-sentence BLEU
  statistics `eval bleu` and `eval bootstrap` compute;
* `bootstrap_s` - `paired_bootstrap` at 1000 samples, which computes the
  statistics again and resamples them;
* `tokens` - the tokens one statistics call reads: both systems' and the
  references' (one reference a sentence, so its length is its `ref_len`);
* `digest` - SHA-256 over both systems' statistics and the bootstrap's
  report, to compare two checkouts.

Cases (the `lt` desk corpus as the references; each system drops, repeats
and swaps words of each reference, seeded): `eval-20k` and `eval-100k`, the
corpus at 20k (20 000 sentences over 8000 word types) and at 100k (100 000
over 60 000, the size of the thesis's paper-scale corpora).
"""

from __future__ import annotations

import random
import sys

import numpy as np

import tier

CASES = ("eval-20k", "eval-100k")


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


def measure(case: str, probe: tier.Probe) -> dict:
    references = tier.desk("lt", case.removeprefix("eval-"))
    systems = [system(references, seed) for seed in (2, 3)]
    probe.start()
    from xfervocab.mteval import _corpora_stats, paired_bootstrap

    stats = probe.time("stats_s", _corpora_stats, systems, references, 4, "intl")
    probe.hash(np.ascontiguousarray(stats, "<i8").tobytes())
    tokens = int(stats[..., 8].sum() + stats[0, :, 9].sum())
    del stats  # the bootstrap computes its own
    probe.hash(probe.time("bootstrap_s", lambda: paired_bootstrap(*systems, references, 1000, seed=1).to_tsv()))
    return {"tokens": tokens}


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure))
