"""Scale tier for the cold-start mapping: time and peak memory of
`map_vocabularies(parent, child, "levenshtein")`.

    python3 scale/mapping.py [--src DIR] [CASE ...]

Run it from the repository root.  The two vocabularies are learned first,
in a `prepare` step, and each case maps them (see `tier.py` for the
process, `--src` and the fields every line holds).  It prints:

* `map_s` - the `map_vocabularies` call;
* `maxrss_before_mb`, `maxrss_after_mb` - the process's `ru_maxrss` just
  before and just after the call;
* `free_parents`, `free_children`, `free_pairs` - the parent slots whose
  token the child lacks, the child tokens new to the parent, and their
  product: the pairs the edit-distance assignment ranks;
* `digest` - SHA-256 of the mapping TSV, to compare two checkouts.

Cases (desk corpora at 20k): `map-4000` and `map-8000` learn both
vocabularies at that target, the parent from `lt` + `cy` and the child from
`lt3` + `hy`.
"""

from __future__ import annotations

import sys

import tier

CASES = ("map-4000", "map-8000")
CORPORA = {"parent": ("lt", "cy"), "child": ("lt3", "hy")}


def vocabularies(case: str) -> dict[str, list[str]]:
    from xfervocab.wordpiece import VocabSpec
    from xfervocab.wordpiece_learner import learn_wordpiece

    spec = VocabSpec(target_size=int(case.removeprefix("map-")))
    return {side: learn_wordpiece([tier.desk(name, "20k") for name in names], spec).tokens
            for side, names in CORPORA.items()}


def measure(case: str, probe: tier.Probe, tokens: dict[str, list[str]]) -> dict:
    probe.start()
    from xfervocab.transfer import map_vocabularies
    from xfervocab.wordpiece import Vocabulary

    parent, child = Vocabulary(tokens["parent"]), Vocabulary(tokens["child"])
    child_tokens = child.tokens[: len(parent.tokens)]
    free_parents = len(set(parent.tokens) - set(child_tokens))
    free_children = len(set(child_tokens) - set(parent.tokens))
    before = tier.maxrss_mb()
    mapping = probe.time("map_s", map_vocabularies, parent, child, "levenshtein")
    after = tier.maxrss_mb()
    probe.hash(mapping.to_tsv())
    return {
        "maxrss_before_mb": before,
        "maxrss_after_mb": after,
        "free_parents": free_parents,
        "free_children": free_children,
        "free_pairs": free_parents * free_children,
    }


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure, vocabularies))
