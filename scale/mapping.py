"""Scale tier for the cold-start mapping: time and peak memory of
`map_vocabularies(parent, child, "levenshtein")`.

    python3 scale/mapping.py [--src DIR] [CASE ...]

Run it from the repository root.  The two vocabularies are learned first,
with this checkout's `src/`, and each case maps them in a fresh Python
process that imports the package from DIR (default `src/`; see `tier.py`).
It prints one JSON line per run:

* `map_s` - the `map_vocabularies` call;
* `maxrss_before_mb`, `maxrss_after_mb` - the process's `ru_maxrss` just
  before and just after the call;
* `free_parents`, `free_children`, `free_pairs` - the parent slots whose
  token the child lacks, the child tokens new to the parent, and their
  product: the pairs the edit-distance assignment ranks;
* `digest` - SHA-256 of the mapping TSV, to compare two checkouts.

Cases (`perfbench/gen.py` desk corpora, 20 000 sentences over 8000 word
types per side): `map-4000` and `map-8000` learn both vocabularies at that
target, the parent from Latin + Cyrillic (seeds 1, 2) and the child from
Latin + Armenian (seeds 3, 4).
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import tier

CASES = ("map-4000", "map-8000")
CORPORA = {"parent": (("LATIN", 1), ("CYRILLIC", 2)), "child": (("LATIN", 3), ("ARMENIAN", 4))}


def vocabularies(case: str) -> dict[str, list[str]]:
    from xfervocab.wordpiece import VocabSpec
    from xfervocab.wordpiece_learner import learn_wordpiece

    gen = tier.desk_generator()
    spec = VocabSpec(target_size=int(case.removeprefix("map-")))
    return {
        side: learn_wordpiece([gen.desk_sentences(seed, getattr(gen, alphabet), 20_000, 8000)
                               for alphabet, seed in corpora], spec).tokens
        for side, corpora in CORPORA.items()
    }


def measure(case: str, src: Path, tokens: dict[str, list[str]]) -> dict:
    sys.path.insert(0, str(src))
    from xfervocab.transfer import map_vocabularies
    from xfervocab.wordpiece import Vocabulary

    parent, child = Vocabulary(tokens["parent"]), Vocabulary(tokens["child"])
    child_tokens = child.tokens[: len(parent.tokens)]
    free_parents = len(set(parent.tokens) - set(child_tokens))
    free_children = len(set(child_tokens) - set(parent.tokens))
    before = tier.maxrss_mb()
    start = time.perf_counter()
    mapping = map_vocabularies(parent, child, "levenshtein")
    map_s = time.perf_counter() - start
    return {
        "case": case,
        "map_s": round(map_s, 4),
        "maxrss_before_mb": round(before, 1),
        "maxrss_after_mb": round(tier.maxrss_mb(), 1),
        "free_parents": free_parents,
        "free_children": free_children,
        "free_pairs": free_parents * free_children,
        "digest": hashlib.sha256(mapping.to_tsv().encode("utf-8")).hexdigest(),
        "src": str(src),
    }


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure, vocabularies))
