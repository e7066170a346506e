"""Scale tier for BPE: time and peak memory of `learn_bpe` and of `apply-bpe`.

    python3 scale/bpe.py [--src DIR] [CASE ...]

Run it from the repository root (see `tier.py` for the process, `--src` and
the fields every line holds).  A learning case learns one joint merge table
and prints:

* `learn_s` - the `learn_bpe` call;
* `merges` - the rules learned;
* `digest` - SHA-256 of the table's rules, one "left right" line each, to
  compare two checkouts.

`apply-8000` applies the `bpe-8000` table, learned in a `prepare` step, to
the `lt`, `cy` and `hy` desk corpora at 20k concatenated: a script the table
was not learned from, as in `scale/segment.py`.  It prints `apply_s`, the
`apply-bpe` command on temporary files, `merges`, and `digest`, the SHA-256
of the command's output file.

Learning cases:

* `bpe-8000` - `lt` + `cy` at 20k (20 000 sentences over 8000 word types
  each), 8000 merges;
* `bpe-32000` - `lt` + `cy` at 100k (100 000 sentences over 60 000 word
  types each), 32 000 merges, the thesis's vocabulary size (about 7 s and
  238 MB);
* `bpe-long-4000` - `tier.long_word_corpus(4000)`, 4000 merges: a long word
  is rewritten by most merges.
"""

from __future__ import annotations

import sys

import tier

# Corpus size and merges.
SIZES = {"bpe-8000": ("20k", 8000), "bpe-32000": ("100k", 32_000)}
CASES = (*SIZES, "bpe-long-4000", "apply-8000")


def corpora_and_merges(case: str) -> tuple[list[list[str]], int]:
    if case == "bpe-long-4000":
        return [tier.long_word_corpus(4000)], 4000
    size, merges = SIZES[case]
    return [tier.desk("lt", size), tier.desk("cy", size)], merges


def prepare(case: str) -> list[list[str]] | None:
    """The `bpe-8000` table's rules, for `apply-8000`; nothing for a learning case."""
    if case != "apply-8000":
        return None
    from xfervocab.bpe import learn_bpe

    return [list(rule) for rule in learn_bpe(*corpora_and_merges("bpe-8000"))]


def measure_apply(probe: tier.Probe, rules: list[list[str]]) -> dict:
    mixed = [sentence for name in ("lt", "cy", "hy") for sentence in tier.desk(name, "20k")]
    source = probe.write("mixed.txt", mixed)
    probe.start()
    from xfervocab.bpe import MergeTable

    table, out = probe.tmp / "t.merges", probe.tmp / "mixed.bpe"
    MergeTable(rules).save(table)
    probe.run("apply_s", "apply-bpe", "--table", table, "--input", source, "--out", out)
    probe.hash(out.read_bytes())
    return {"merges": len(rules)}


def measure(case: str, probe: tier.Probe, rules: list[list[str]] | None) -> dict:
    if case == "apply-8000":
        return measure_apply(probe, rules)
    corpora, merges = corpora_and_merges(case)
    probe.start()
    from xfervocab.bpe import learn_bpe

    table = probe.time("learn_s", learn_bpe, corpora, merges)
    probe.hash("".join(f"{left} {right}\n" for left, right in table))
    return {"merges": len(table)}


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure, prepare))
