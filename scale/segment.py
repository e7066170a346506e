"""Scale tier for wordpiece segmentation over several scripts under one vocabulary.

    python3 scale/segment.py [--src DIR] [CASE ...]

Run it from the repository root.  A case learns one vocabulary from the `lt`
and `cy` desk corpora in a `prepare` step, then segments three corpora under
it (see `tier.py` for the process, `--src` and the fields every line holds):
the two it was learned from and `hy`, an Armenian one that none of its
multi-character tokens start.  Each phase starts from a fresh `Vocabulary`,
so no phase reads what an earlier one segmented.  It prints:

* `apply_s` - the `apply-wp` command over the three corpora concatenated,
  written to a temporary file first, as the command reads them, and
  `apply_files_s` the same over each corpus on its own, summed;
* `apply_sentences_s` - a library loop of `apply_wordpiece` once per
  sentence over the concatenation, each line joined by spaces; it must equal
  the command's output;
* `counts_s` - `diagnostics._token_counts` of each corpus, as `diag
  overlap` counts its labelled corpora;
* `rate_s` - `segmentation_rate` over the concatenation, and `rate_files_s`
  over each corpus on its own, summed;
* `vocabulary` - the vocabulary's size;
* `apply_digest`, `counts_digest` and `rate` - the outputs, and `digest` -
  SHA-256 over all three, to compare two checkouts.

Cases: `mixed-20k` - the corpora at 20k (20 000 sentences over 8000 word
types each), a 4000-token vocabulary; `mixed-100k` - at 100k (100 000
sentences over 60 000 word types each), a 32 000-token vocabulary, the
thesis's size.
"""

from __future__ import annotations

import sys

import tier

# Corpus size and the vocabulary's target size.
SIZES = {"mixed-20k": ("20k", 4000), "mixed-100k": ("100k", 32_000)}


def corpora(case: str) -> dict[str, list[str]]:
    return {name: tier.desk(name, SIZES[case][0]) for name in ("lt", "cy", "hy")}


def prepare(case: str) -> list[str]:
    """The vocabulary's tokens, learned from the `lt` and `cy` corpora."""
    from xfervocab.wordpiece import VocabSpec, learn_wordpiece

    texts = corpora(case)
    return learn_wordpiece([texts["lt"], texts["cy"]], VocabSpec(target_size=SIZES[case][1])).tokens


def measure(case: str, probe: tier.Probe, tokens: list[str]) -> dict:
    texts = corpora(case)
    mixed = [sentence for lines in texts.values() for sentence in lines]
    probe.start()
    from xfervocab.diagnostics import _token_counts, segmentation_rate
    from xfervocab.wordpiece import Vocabulary, apply_wordpiece

    vocab_file = probe.tmp / "v.vocab"
    Vocabulary(tokens).save(vocab_file)

    def apply_wp(field, name, sentences):
        """The `apply-wp` command over the sentences, as a file; returns its output's bytes."""
        source, out = probe.write(f"{name}.txt", sentences), probe.tmp / f"{name}.wp"
        probe.run(field, "apply-wp", "--vocab", vocab_file, "--input", source, "--out", out)
        return out.read_bytes()

    def apply_sentences(sentences):
        vocab = Vocabulary(tokens)
        return [" ".join(apply_wordpiece(vocab, sentence)) for sentence in sentences]

    def counts_by_corpus():
        vocab = Vocabulary(tokens)
        return {name: _token_counts(vocab, lines) for name, lines in texts.items()}

    segmented = apply_wp("apply_s", "mixed", mixed)
    for name, lines in texts.items():
        apply_wp("apply_files_s", name, lines)
    per_sentence = probe.time("apply_sentences_s", apply_sentences, mixed)
    if "".join(line + "\n" for line in per_sentence).encode("utf-8") != segmented:
        raise AssertionError("apply_wordpiece per sentence differs from apply-wp")
    counts = probe.time("counts_s", counts_by_corpus)
    rate = probe.time("rate_s", lambda: segmentation_rate(Vocabulary(tokens), mixed))
    for lines in texts.values():
        probe.time("rate_files_s", lambda: segmentation_rate(Vocabulary(tokens), lines))

    apply_digest = probe.hash(segmented, "apply_digest")
    counts_digest = probe.hash("".join(
        f"{name}\t{tok}\t{count}\n" for name, table in counts.items() for tok, count in sorted(table.items())
    ), "counts_digest")
    probe.hash(f"{apply_digest} {counts_digest} {rate!r}")
    return {"vocabulary": len(tokens), "rate": repr(rate)}


if __name__ == "__main__":
    sys.exit(tier.main(sys.argv[1:], __file__, __doc__, tuple(SIZES), measure, prepare))
