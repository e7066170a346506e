"""Scale tier for BPE: time and peak memory of `learn_bpe` and of `apply-bpe`.

    python3 scale/bpe.py [--src DIR] [CASE ...]

Run it from the repository root.  Each case runs in a fresh Python process,
importing the package from DIR (default `src/`; see `tier.py`).  A learning
case learns one joint merge table and prints one JSON line per run:

* `learn_s` - the `learn_bpe` call;
* `maxrss_mb` - the process's `ru_maxrss` at the end, and `corpus_maxrss_mb`
  the same once the corpus exists, before any learner code runs;
* `merges` - the rules learned;
* `digest` - SHA-256 of the table's rules, one "left right" line each, to
  compare two checkouts.

`apply-8000` applies the `bpe-8000` table, learned in a process of its own
with this checkout's `src/`, to the Latin, Cyrillic and Armenian corpora
(20 000 sentences over 8000 word types each, Armenian seed 4) concatenated:
a script the table was not learned from, as in `scale/segment.py`.  It
prints `apply_s`, `cli.main(["apply-bpe", ...])` on temporary files,
`maxrss_mb` and `corpus_maxrss_mb` as above, and `digest`, the SHA-256 of
the command's output file.

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
import tempfile
import time
from pathlib import Path

import tier

# Sentences and word types per alphabet, and merges.
SIZES = {"bpe-8000": (20_000, 8000, 8000), "bpe-32000": (100_000, 60_000, 32_000)}
CASES = (*SIZES, "bpe-long-4000", "apply-8000")


def corpora_and_merges(case: str) -> tuple[list[list[str]], int]:
    gen = tier.desk_generator()
    if case == "bpe-long-4000":
        word = "".join(random.Random(4000).choices(gen.LATIN, k=4000))
        return [gen.desk_sentences(5, gen.LATIN, 5000, 1500) + [word]], 4000
    sentences, types, merges = SIZES[case]
    corpora = [gen.desk_sentences(seed, alphabet, sentences, types)
               for alphabet, seed in ((gen.LATIN, 1), (gen.CYRILLIC, 2))]
    return corpora, merges


def prepare(case: str) -> list[list[str]] | None:
    """The `bpe-8000` table's rules, for `apply-8000`; nothing for a learning case."""
    if case != "apply-8000":
        return None
    from xfervocab.bpe import learn_bpe

    return [list(rule) for rule in learn_bpe(*corpora_and_merges("bpe-8000"))]


def measure_apply(src: Path, rules: list[list[str]]) -> dict:
    gen = tier.desk_generator()
    sentences, types, _ = SIZES["bpe-8000"]
    mixed = [sentence for alphabet, seed in ((gen.LATIN, 1), (gen.CYRILLIC, 2), (gen.ARMENIAN, 4))
             for sentence in gen.desk_sentences(seed, alphabet, sentences, types)]
    with tempfile.TemporaryDirectory() as tmp:
        table, source, out = (str(Path(tmp) / name) for name in ("t.merges", "mixed.txt", "mixed.bpe"))
        Path(source).write_text("".join(sentence + "\n" for sentence in mixed), encoding="utf-8")
        corpus_mb = tier.maxrss_mb()
        sys.path.insert(0, str(src))
        from xfervocab import cli
        from xfervocab.bpe import MergeTable

        MergeTable(rules).save(table)
        start = time.perf_counter()
        code = cli.main(["apply-bpe", "--table", table, "--input", source, "--out", out])
        apply_s = time.perf_counter() - start
        if code:
            raise RuntimeError(f"apply-bpe exited {code}")
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
    return {
        "case": "apply-8000",
        "apply_s": round(apply_s, 4),
        "maxrss_mb": round(tier.maxrss_mb(), 1),
        "corpus_maxrss_mb": round(corpus_mb, 1),
        "merges": len(rules),
        "digest": digest,
        "src": str(src),
    }


def measure(case: str, src: Path, rules: list[list[str]] | None) -> dict:
    if case == "apply-8000":
        return measure_apply(src, rules)
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
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, CASES, measure, prepare))
