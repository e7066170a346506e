"""Scale tier for the wordpiece learner: time and peak memory of each phase.

    python3 scale/learner.py [--src DIR] [CASE ...]

Run it from the repository root.  Each case runs `learn_wordpiece`'s phases
in a fresh Python process, importing the package from DIR (default `src/`;
see `tier.py`), and prints one JSON line per run:

* `count_s` - `wordpiece._count_units` (unit counting);
* `build_s` - `_CandidateBuilder.__init__`;
* `rank_s` - the rest of `WordpieceLearner.__init__` (the threshold ladder);
* `learn_s` - `learn(spec)` on the finished ranking;
* `maxrss_mb` - the process's `ru_maxrss` at the end, and `corpus_maxrss_mb`
  the same once the corpus exists, before any learner code runs;
* `digest` - SHA-256 of the learned vocabulary, to compare two checkouts.

Cases (corpora from `perfbench/gen.py`'s desk generator, target 8000):

* `desk-50k` - 50 000 sentences over 20 000 word types, seed 5;
* `long-300`, `long-800` - 5000 sentences over 1500 word types, seed 5,
  plus one sentence holding one random word of that many letters.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

import tier

TARGET = 8000
CASES = ("desk-50k", "long-300", "long-800")


def corpus(case: str) -> list[str]:
    gen = tier.desk_generator()
    if case == "desk-50k":
        return gen.desk_sentences(5, gen.LATIN, 50_000, 20_000)
    length = int(case.removeprefix("long-"))
    word = "".join(random.Random(length).choices(gen.LATIN, k=length))
    return gen.desk_sentences(5, gen.LATIN, 5000, 1500) + [word]


def measure(case: str, src: Path) -> dict:
    lines = corpus(case)
    corpus_mb = tier.maxrss_mb()
    sys.path.insert(0, str(src))
    import xfervocab.wordpiece_learner as wordpiece_learner
    from xfervocab.wordpiece import VocabSpec

    phases = {}

    def timed(phase, func):
        def run(*args):
            start = time.perf_counter()
            result = func(*args)
            phases[phase] = time.perf_counter() - start
            return result

        return run

    wordpiece_learner._count_units = timed("count_s", wordpiece_learner._count_units)
    wordpiece_learner._CandidateBuilder = timed("build_s", wordpiece_learner._CandidateBuilder)
    start = time.perf_counter()
    learner = wordpiece_learner.WordpieceLearner.from_corpora([lines])
    ranked = time.perf_counter()
    vocab = learner.learn(VocabSpec(target_size=TARGET))
    learned = time.perf_counter()
    text = f"{vocab.within_tolerance}\n" + "\n".join(vocab.tokens) + "\n"
    return {
        "case": case,
        "count_s": round(phases["count_s"], 4),
        "build_s": round(phases["build_s"], 4),
        "rank_s": round(ranked - start - phases["count_s"] - phases["build_s"], 4),
        "learn_s": round(learned - ranked, 4),
        "total_s": round(learned - start, 4),
        "maxrss_mb": round(tier.maxrss_mb(), 1),
        "corpus_maxrss_mb": round(corpus_mb, 1),
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "src": str(src),
    }


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure))
