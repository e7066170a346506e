"""Run one `xfervocab` CLI command with spans around calls into each layer.

    python3 traced.py SPANS_JSON ARG...

Before `xfervocab.cli.main(ARG...)` runs, the public functions of each
module are wrapped where their callers look them up (the `xfervocab.cli`
import names, and module globals such as `xfervocab.transfer.apply_wordpiece`).
Coarse calls become spans with a parent; per-sentence and per-word calls are
aggregated into a count plus total and self time per parent span.  Spans are
kept in memory and written to SPANS_JSON at exit.

Self time is a call's duration minus the time of the traced calls inside it.
The wrappers' own counting is timed separately as `bookkeeping_s`, so for
each process the self times plus bookkeeping equal the sum of top-level span
durations, and the rest of the process wall time is the CLI's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.fine: dict[tuple[int, str], dict] = {}
        self.counts: dict[str, float] = {}
        self.sets: dict[str, set] = {}
        self.frames: list[list[float]] = [[0.0]]  # [child time]; the root frame is the CLI
        self.current = 0  # id of the innermost open coarse span, 0 for none
        self.bookkeeping = 0.0

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def distinct(self, name: str, items) -> None:
        self.sets.setdefault(name, set()).update(items)

    def coarse(self, layer: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans) + 1, "parent": self.current, "name": layer, "call": fn.__name__}
            self.spans.append(span)
            frame = [0.0]
            parent_frame = self.frames[-1]
            self.frames.append(frame)
            self.current = span["id"]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.frames.pop()
                self.current = span["parent"]
            span["start"], span["end"] = t0, t1
            span["self"] = (t1 - t0) - frame[0]
            if on_result is not None:
                on_result(self, args, kwargs, result)
            t2 = clock()
            self.bookkeeping += t2 - t1
            parent_frame[0] += t2 - t0
            return result

        return wrapper

    def per_call(self, layer: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            parent_frame = self.frames[-1]
            self.frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.frames.pop()
            agg = self.fine.get((self.current, layer))
            if agg is None:
                agg = self.fine[(self.current, layer)] = {"calls": 0, "total": 0.0, "self": 0.0}
            agg["calls"] += 1
            agg["total"] += t1 - t0
            agg["self"] += (t1 - t0) - frame[0]
            if on_result is not None:
                on_result(self, args, kwargs, result)
            t2 = clock()
            self.bookkeeping += t2 - t1
            parent_frame[0] += t2 - t0
            return result

        return wrapper

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "fine": [{"parent": p, "name": n, **agg} for (p, n), agg in self.fine.items()],
            "counts": {**self.counts, **{f"{k}.distinct": len(v) for k, v in self.sets.items()}},
            "sentences": sorted(self.sets.get("wordpiece.apply.sentences", ())),
            "top_level_s": self.frames[0][0],
            "bookkeeping_s": self.bookkeeping,
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _escape_tokens(tokens) -> int:
    """Tokens belonging to `\\ digits ;` escape sequences."""
    count = 0
    inside = False
    for tok in tokens:
        if tok == "\\":
            inside = True
        if inside:
            count += 1
            if tok == ";":
                inside = False
    return count


def install(tracer: Tracer):
    """Wrap the layers' public functions; returns the `xfervocab.cli` module."""
    import xfervocab.bpe as bpe
    import xfervocab.cli as cli
    import xfervocab.corpus as corpus
    import xfervocab.diagnostics as diagnostics
    import xfervocab.mteval as mteval
    import xfervocab.sharedvocab as sharedvocab
    import xfervocab.transfer as transfer
    import xfervocab.wordpiece as wordpiece

    raw_pretokenize = wordpiece.pretokenize

    def on_wp_apply(t, args, kwargs, tokens):
        sentence = args[1]
        words = sentence.split()
        t.add("wordpiece.apply.tokens", len(tokens))
        t.add("wordpiece.apply.escape_tokens", _escape_tokens(tokens))
        t.add("wordpiece.apply.words", len(words))
        t.distinct("wordpiece.apply.words", words)
        t.distinct("wordpiece.apply.sentences", (sentence,))

    def on_learner(t, args, kwargs, learner):
        corpora = args[1] if len(args) > 1 else kwargs["corpora"]
        limit = args[2] if len(args) > 2 else kwargs.get("max_train_sentences", 20_000_000)
        units = set()
        seen = 0
        for part in corpora:
            for sentence in part:
                if seen == limit:
                    break
                units.update(raw_pretokenize(sentence))
                seen += 1
        t.add("wordpiece.learn.unit_types", len(units))

    def on_learn(t, args, kwargs, vocab):
        t.add("wordpiece.learn.calls", 1)
        t.add("wordpiece.learn.within_tolerance", int(vocab.within_tolerance))

    def on_bpe_learn(t, args, kwargs, table):
        words = {w for part in args[0] for sentence in part for w in sentence.split()}
        t.add("bpe.learn.word_types", len(words))
        t.add("bpe.learn.merges", len(table))
        t.add("bpe.learn.merges_requested", args[1])

    def on_bpe_word(t, args, kwargs, pieces):
        t.add("bpe.apply.words", 1)
        t.distinct("bpe.apply.words", (args[1],))

    def on_sample(t, args, kwargs, sample):
        t.add("corpus.sample_equal.pairs", len(sample))

    def on_tokenize(t, args, kwargs, tokens):
        t.distinct("mteval.tokenize.strings", (args[0],))

    def on_sentence_stats(t, args, kwargs, stats):
        t.add("mteval.sentence_stats.calls", 1)

    wp_apply = tracer.per_call("wordpiece.apply", wordpiece.apply_wordpiece, on_wp_apply)
    for module in (cli, corpus, diagnostics, transfer):
        module.apply_wordpiece = wp_apply
    wordpiece.pretokenize = tracer.per_call("wordpiece.pretokenize", raw_pretokenize)
    learner = wordpiece.WordpieceLearner
    learner.from_corpora = classmethod(
        tracer.coarse("wordpiece.learn", learner.from_corpora.__func__, on_learner)
    )
    learner.learn = tracer.coarse("wordpiece.learn", learner.learn, on_learn)

    cli.learn_bpe = tracer.coarse("bpe.learn", bpe.learn_bpe, on_bpe_learn)
    cli.segment_sentence = tracer.per_call("bpe.apply", bpe.segment_sentence)
    bpe.apply_bpe = tracer.per_call("bpe.apply", bpe.apply_bpe, on_bpe_word)

    for name in ("load_parallel", "load_parallel_tsv"):
        setattr(cli, name, tracer.coarse("corpus.load", getattr(corpus, name)))
    for name in ("make_pseudo_related", "corrupt_word_order"):
        setattr(cli, name, tracer.coarse("corpus.rewrite", getattr(corpus, name)))
    for name in ("filter_by_word_length", "filter_by_subword_length"):
        setattr(cli, name, tracer.coarse("corpus.filter", getattr(corpus, name)))
    sampler = tracer.coarse("corpus.sample_equal", corpus.sample_equal, on_sample)
    cli.sample_equal = sharedvocab.sample_equal = sampler

    cli.transform_vocab = tracer.coarse("transfer.transform", transfer.transform_vocab)
    mapper = tracer.coarse("transfer.map", transfer.map_vocabularies)
    cli.map_vocabularies = transfer.map_vocabularies = mapper
    cli.emit_transfer_bundle = tracer.coarse("transfer.bundle", transfer.emit_transfer_bundle)

    cli.build_merged_vocab = tracer.coarse("sharedvocab.merged", sharedvocab.build_merged_vocab)
    cli.build_balanced_vocab = tracer.coarse("sharedvocab.balanced", sharedvocab.build_balanced_vocab)

    for name, layer in (
        ("overlap_breakdown", "diagnostics.overlap"),
        ("segmentation_rate", "diagnostics.rate"),
        ("vocab_usage", "diagnostics.usage"),
        ("length_filter_impact", "diagnostics.filter_impact"),
    ):
        setattr(cli, name, tracer.coarse(layer, getattr(diagnostics, name)))

    mteval.sentence_stats = tracer.coarse("mteval.sentence_stats", mteval.sentence_stats, on_sentence_stats)
    mteval.tokenize_intl = tracer.per_call("mteval.tokenize", mteval.tokenize_intl, on_tokenize)
    cli.bleu = tracer.coarse("mteval.bleu", mteval.bleu)
    cli.paired_bootstrap = tracer.coarse("mteval.bootstrap.resample", mteval.paired_bootstrap)
    cli.token_overlap_analysis = tracer.coarse("mteval.token_analysis", mteval.token_overlap_analysis)
    return cli


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
