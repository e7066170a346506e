"""Scale tier for the wordpiece learner: time and peak memory of each phase.

    python3 scale/learner.py [--src DIR] [CASE ...]

Run it from the repository root.  Each case runs `learn_wordpiece`'s phases
on one corpus (see `tier.py` for the process, `--src` and the fields every
line holds) and prints:

* `count_s` - `wordpiece._count_units` (unit counting);
* `build_s` - `_CandidateBuilder.__init__`;
* `rank_s` - the rest of `WordpieceLearner.__init__` (the threshold ladder);
* `learn_s` - `learn(spec)` on the finished ranking, and `total_s` all four;
* `digest` - SHA-256 of the learned vocabulary, to compare two checkouts.

Cases (target 8000): `desk-50k`, the `lt5` desk corpus at 50 000 sentences
over 20 000 word types; `long-300` and `long-800`, `tier.long_word_corpus`
with one random word of that many letters.
"""

from __future__ import annotations

import sys
from functools import partial

import tier

TARGET = 8000
CASES = ("desk-50k", "long-300", "long-800")


def measure(case: str, probe: tier.Probe) -> dict:
    if case == "desk-50k":
        lines = tier.desk("lt5", "50k")
    else:
        lines = tier.long_word_corpus(int(case.removeprefix("long-")))
    probe.start()
    import xfervocab.wordpiece_learner as wordpiece_learner
    from xfervocab.wordpiece import VocabSpec

    wordpiece_learner._count_units = partial(probe.time, "count_s", wordpiece_learner._count_units)
    wordpiece_learner._CandidateBuilder = partial(probe.time, "build_s", wordpiece_learner._CandidateBuilder)
    learner = probe.time("rank_s", wordpiece_learner.WordpieceLearner.from_corpora, [lines])
    vocab = probe.time("learn_s", learner.learn, VocabSpec(target_size=TARGET))
    seconds = probe.seconds
    seconds["total_s"] = seconds["rank_s"] + seconds["learn_s"]
    seconds["rank_s"] -= seconds["count_s"] + seconds["build_s"]
    probe.hash(f"{vocab.within_tolerance}\n" + "\n".join(vocab.tokens) + "\n")
    return {}


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure))
