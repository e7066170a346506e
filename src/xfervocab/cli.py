"""Batch command-line driver.

`build_parser` declares each file flag once, by its type: `_In` for a file
the command reads, `_Out` for one it writes.  `main` writes a JSON run
manifest with the exact argument vector, the seed, the tool version, and
the SHA-256 digest of every declared file the argv names, `--config`
included: inputs hashed before the command runs, outputs after it returns,
plus the files `transform-vocab` writes into `--out-dir`.  Re-running the
recorded argv reproduces the artifacts byte for byte.  The manifest's seed
is `--seed` as given, also where the run draws nothing from it
(`transform-vocab --variant frequency|levenshtein`, `corpus corrupt --mode
sort_target`).

A given flag is always read: one beside a mode that would leave it unread
exits 1 naming the flags (`_refuse`), whether the value comes from argv or
from `--config`.  A malformed value exits 2 from argv and 1 from `--config`,
naming the flag (`_char_range`, `_lang_file`).

A report command (`diag`, `eval`, `corpus filter` and corpus-mode
`merge-vocab`) prints its report TSV, the exact text its `--out`/`--report`
writes (`_report`).  learn-bpe, learn-wp, transform-vocab, balanced-vocab
and file-mode merge-vocab print one status line; the rest print nothing.

Each handler imports the modules it calls (mostly through `_load`), so a step
imports only those; only those that compute with numpy import it (learn-wp,
transform-vocab, merge-vocab, balanced-vocab, eval bleu and eval bootstrap).
No module defines its records with `dataclasses`, so no step imports it,
and the other steps import neither numpy nor `inspect`.
Likewise `main` declares only the arguments of the command argv names
(`_invoked`), each command importing the constants its flags read.  Help
above a command, `--config` and a name no command has get every command's
parser, and a one-command parser's usage names every command, so what
argparse prints is the same either way.  A `--config` key sets its flag's
default where the flag exists; a key that no command has exits 1 naming the
file and line.

Exit codes: 0 success, 1 operation error, 2 usage error.

`run` is the program's entry point (`python -m xfervocab.cli` and the
`xfervocab` console script); `main` is the library and test entry, and
leaves the interpreter as it found it.  `run` freezes the collector's heap
once `main` returns, so module teardown at exit collects none of the run's
objects, which die with the process anyway.  It is safe: atexit handlers
still run, stdout and stderr are still flushed, and every file the package
writes is closed before `main` returns.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import sys
from pathlib import Path

from . import _EXPORTS, __version__
from .errors import AlignmentError, CorpusFormatError, XfervocabError
from .textio import read_lines, render_tsv, write_lines, write_text


def _load(*modules: str) -> None:
    """Make the package's names from each of `modules` globals here, as an
    import at the top would; a name already set (a tracer's wrapper, say) stays."""
    for module in modules:
        library = importlib.import_module(f".{module}", __package__)
        for name in _EXPORTS[module]:
            globals().setdefault(name, getattr(library, name))


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _digests(paths) -> dict[str, str]:
    return {str(path): _sha256(path) for path in paths}


def _load_config(path: str, flags: set[str]) -> dict[str, str]:
    """Simple key=value format; '#' starts a comment, keys use flag names.
    Values stay strings, which argparse converts with each flag's type."""
    values: dict[str, str] = {}
    for i, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise XfervocabError(f"{path}: line {i}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in flags:
            raise XfervocabError(f"{path}: line {i}: no command has a --{key.replace('_', '-')} flag")
        values[key] = value.strip()
    return values


class _In(str):
    """Type of a flag that names a file the command reads."""


class _Out(str):
    """Type of a flag that names a file the command writes."""


def _lang_file(item: str) -> tuple[str, _In]:
    """`LANG=FILE` as (LANG, FILE); a ValueError names the flag, as `_char_range`'s does.
    The overlap report joins a set of labels with `+`, so LANG is nonempty and holds none."""
    lang, _, path = item.partition("=")
    if not path:
        raise ValueError(f"--corpus expects LANG=FILE, got {item!r}")
    if not lang or "+" in lang:
        raise ValueError(f"--corpus label must be nonempty and hold no '+', got {item!r}")
    return lang, _In(path)


def _char_range(value: str) -> tuple[int, int]:
    """`LO-HI` as the inclusive code-point range (LO, HI); a ValueError names
    the flag, since `main` reports one from a `--config` item as it is."""
    lo, _, hi = value.partition("-")
    try:
        bounds = int(lo, 0), int(hi, 0)
        if bounds[0] <= bounds[1]:
            return bounds
    except ValueError:
        pass
    raise ValueError(f"--char-range expects LO-HI with LO <= HI, got {value!r}")


def _named(value, kind) -> list:
    """The nonempty `kind` values in a parsed value, lists and pairs included."""
    if isinstance(value, (list, tuple)):
        return [path for item in value for path in _named(item, kind)]
    return [value] if isinstance(value, kind) and value else []


def _corpus_in_args(parser, prefix=""):
    group = parser.add_argument_group(f"{prefix or 'corpus'} input")
    p = f"--{prefix}-" if prefix else "--"
    group.add_argument(f"{p}source", type=_In, help="source-side file, one sentence per line")
    group.add_argument(f"{p}target", type=_In, help="target-side file, one sentence per line")
    group.add_argument(f"{p}tsv", type=_In, help="two-column TSV instead of two files")


def _refuse(args, beside: str, *dests: str) -> None:
    """Exit 1 naming each of `dests` that is given, from argv or `--config`,
    since the mode `beside` selects would leave it unread."""
    given = [f"--{dest.replace('_', '-')}" for dest in dests if getattr(args, dest) not in (None, [])]
    if given:
        raise XfervocabError(f"{beside} cannot be combined with {', '.join(given)}")


def _corpus_dests(*prefixes: str) -> list[str]:
    """The source, target and tsv dests of each corpus input prefix."""
    return [f"{prefix}_{side}" if prefix else side for prefix in prefixes for side in ("source", "target", "tsv")]


def _read_corpus(args, prefix="") -> ParallelCorpus:
    _load("corpus")
    source, target, tsv = _corpus_dests(prefix)
    flag = f"--{prefix}-" if prefix else "--"
    if getattr(args, tsv):
        _refuse(args, f"{flag}tsv", source, target)
        return load_parallel_tsv(getattr(args, tsv))
    if not getattr(args, source) or not getattr(args, target):
        raise XfervocabError(f"missing corpus input: give {flag}source/{flag}target or {flag}tsv")
    return load_parallel(getattr(args, source), getattr(args, target))


def _corpus_out_args(parser):
    group = parser.add_argument_group("corpus output")
    group.add_argument("--out-source", type=_Out, help="output source-side file")
    group.add_argument("--out-target", type=_Out, help="output target-side file")
    group.add_argument("--out-tsv", type=_Out, help="output two-column TSV instead")


def _learn_bpe_args(p):
    p.add_argument("--input", type=_In, nargs="+", required=True, help="training text files")
    p.add_argument("--merges", type=int, required=True)
    p.add_argument("--out", type=_Out, required=True, help="merge table file")


def _apply_bpe_args(p):
    p.add_argument("--table", type=_In, required=True)
    p.add_argument("--input", type=_In, required=True)
    p.add_argument("--out", type=_Out, required=True)


def _learn_wp_args(p):
    from .wordpiece import MAX_TRAIN_SENTENCES, VocabSpec

    p.add_argument("--input", type=_In, nargs="+", required=True, help="training text files")
    p.add_argument("--target-size", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=VocabSpec.tolerance)
    p.add_argument("--max-train-sentences", type=int, default=MAX_TRAIN_SENTENCES)
    p.add_argument("--out", type=_Out, required=True, help="vocabulary file")


def _apply_wp_args(p):
    p.add_argument("--vocab", type=_In, required=True)
    p.add_argument("--input", type=_In, required=True)
    p.add_argument("--out", type=_Out, required=True)


def _transform_vocab_args(p):
    from .wordpiece import VARIANTS

    p.add_argument("--parent-vocab", type=_In, required=True)
    p.add_argument("--child", type=_In, nargs="*", default=[], help="child corpus text files")
    p.add_argument("--child-vocab", type=_In, help="explicit child vocabulary instead of a corpus")
    p.add_argument("--variant", choices=VARIANTS, default="frequency")
    p.add_argument("--seed", type=int)
    p.add_argument("--embeddings", type=_In, help="parent embedding matrix (.tsv or binary)")
    p.add_argument("--out-dir", required=True)


def _merge_vocab_args(p):
    from .wordpiece import VocabSpec

    p.add_argument("--parent-vocab", type=_In, help="merge two existing vocabulary files")
    p.add_argument("--child-vocab", type=_In)
    _corpus_in_args(p, "parent")
    _corpus_in_args(p, "child")
    p.add_argument("--target-size", type=int, help="search per-side sizes for this merged size")
    p.add_argument("--tolerance", type=float, help=f"relative size tolerance (default {VocabSpec.tolerance})")
    p.add_argument("--out", type=_Out, required=True)
    p.add_argument("--report", type=_Out, help="build report TSV")


def _balanced_vocab_args(p):
    from .wordpiece import VocabSpec

    _corpus_in_args(p, "parent")
    _corpus_in_args(p, "child")
    p.add_argument("--target-size", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=VocabSpec.tolerance)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=_Out, required=True)


def _diag_rate_args(p):
    p.add_argument("--vocab", type=_In, required=True)
    p.add_argument("--input", type=_In, nargs="+", required=True)
    p.add_argument("--out", type=_Out, help="TSV output")


def _diag_usage_args(p):
    p.add_argument("--vocab", type=_In, required=True)
    p.add_argument("--input", type=_In, nargs="+", required=True)
    p.add_argument(
        "--char-range",
        type=_char_range,
        action="append",
        default=[],
        help="restrict to tokens with a char in an inclusive range, e.g. 0x0400-0x04FF",
    )
    p.add_argument("--out", type=_Out, help="TSV output")


def _diag_overlap_args(p):
    p.add_argument("--vocab", type=_In, required=True)
    p.add_argument("--corpus", type=_lang_file, action="append", required=True, metavar="LANG=FILE")
    p.add_argument("--parent", action="append", default=[], help="parent-side language label")
    p.add_argument("--child", action="append", default=[], help="child-side language label")
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--out", type=_Out, help="TSV output")


def _diag_filter_impact_args(p):
    p.add_argument("--vocab", type=_In, required=True)
    _corpus_in_args(p)
    p.add_argument("--threshold", type=int, default=100)
    p.add_argument("--out", type=_Out, help="TSV output")


def _corpus_filter_args(p):
    _corpus_in_args(p)
    _corpus_out_args(p)
    p.add_argument("--min-words", type=int, default=0)
    p.add_argument("--max-words", type=float, default=float("inf"))
    p.add_argument("--max-subwords", type=int, help="also filter by wordpiece length")
    p.add_argument("--vocab", type=_In, help="vocabulary for --max-subwords")
    p.add_argument("--report", type=_Out, help="filter report TSV")


def _corpus_sample_args(p):
    _corpus_in_args(p, "a")
    _corpus_in_args(p, "b")
    _corpus_in_args(p)
    _corpus_out_args(p)
    p.add_argument("--per-side", type=int, help="pairs drawn from each of --a-*/--b-*")
    p.add_argument("--size", type=int, help="downscale the --source/--target corpus to this many pairs")
    p.add_argument("--seed", type=int, required=True)


def _corpus_mix_args(p):
    _corpus_in_args(p, "authentic")
    _corpus_in_args(p, "synthetic")
    _corpus_out_args(p)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)


def _corpus_pseudo_args(p):
    _corpus_in_args(p)
    _corpus_out_args(p)
    p.add_argument("--keep-percent", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)


def _corpus_corrupt_args(p):
    from .corpus import CORRUPTION_MODES

    _corpus_in_args(p)
    _corpus_out_args(p)
    p.add_argument("--mode", choices=CORRUPTION_MODES, required=True)
    p.add_argument("--seed", type=int, required=True)


def _eval_bleu_args(p):
    from .evallite import SMOOTHINGS, TOKENIZATIONS

    p.add_argument("--candidates", type=_In, required=True)
    p.add_argument("--references", type=_In, required=True)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--smoothing", choices=SMOOTHINGS, default="exponential")
    p.add_argument("--tokenize", choices=TOKENIZATIONS, default="intl")
    p.add_argument("--out", type=_Out, help="TSV output")


def _eval_bootstrap_args(p):
    from .evallite import TOKENIZATIONS

    p.add_argument("--candidates-a", type=_In, required=True)
    p.add_argument("--candidates-b", type=_In, required=True)
    p.add_argument("--references", type=_In, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tokenize", choices=TOKENIZATIONS, default="intl")
    p.add_argument("--out", type=_Out, help="TSV output")


def _eval_stop_args(p):
    from .evallite import RELATIVE_TO

    p.add_argument("--curve", type=_In, required=True, help="TSV with step<TAB>score rows")
    p.add_argument("--window-frac", type=float, default=0.5)
    p.add_argument("--delta-frac", type=float, default=0.005)
    p.add_argument("--min-evals", type=int, default=4)
    p.add_argument("--relative-to", choices=RELATIVE_TO, default="global")
    p.add_argument("--out", type=_Out, help="TSV output")


def _eval_token_analysis_args(p):
    p.add_argument("--child", type=_In, required=True)
    p.add_argument("--baseline", type=_In, required=True)
    p.add_argument("--references", type=_In, required=True)
    p.add_argument("--out", type=_Out, help="TSV output")


def build_parser(command: tuple[str, ...] | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with `command` (a path such as
    `("diag", "rate")`) the parser of that command alone."""
    parser = argparse.ArgumentParser(
        prog="xfervocab",
        description="Deterministic subword-vocabulary engineering and MT evaluation toolkit.",
    )
    parser.add_argument("--config", type=_In, help="key = value file providing flag defaults")
    parser.add_argument("--manifest", help="run manifest path (default: first output + .manifest.json)")
    _add_commands(parser, "command", _COMMANDS, command)
    return parser


def _add_commands(parser, dest: str, commands: dict, path: tuple[str, ...] | None) -> None:
    """Declare `commands` as `parser`'s subcommands: all of them, or only the
    one `path` starts with.  A one-command tree spells every name in the
    choices' metavar, because argparse prints this usage line with an error
    it finds above the command (an argument the command leaves unread,
    `--manifest` without a value), and it must read as the full tree's."""
    metavar = None if path is None else "{" + ",".join(commands) + "}"
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name, (help, declare, *_) in commands.items():
        if path is None or path[0] == name:
            p = sub.add_parser(name, help=help)
            if isinstance(declare, dict):
                _add_commands(p, f"{name}_command", declare, path and path[1:])
            else:
                declare(p)


def _invoked(argv: list[str]) -> tuple[str, ...] | None:
    """The command path `argv` names, when nothing but `--manifest` (or an
    abbreviation of it) comes before the command; otherwise None, so that
    help above a command, `--config` (whose keys may name any command's flag)
    and a name no command has go through every command's parser."""
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        option, eq, _ = argv[i].partition("=")
        if len(option) < 3 or not "--manifest".startswith(option):
            return None
        i += 1 if eq else 2
    commands, path = _COMMANDS, ()
    for name in argv[i:]:
        if name not in commands:
            return None
        path += (name,)
        commands = commands[name][1]
        if not isinstance(commands, dict):
            return path
    return None


def _cmd_learn_bpe(args):
    _load("bpe")
    corpora = [read_lines(path) for path in args.input]
    table = learn_bpe(corpora, args.merges)
    table.save(args.out)
    print(f"learned {len(table)} merges -> {args.out}")


def _cmd_apply_bpe(args):
    from .bpe import MergeTable, _apply_lines
    write_lines(args.out, _apply_lines(MergeTable.load(args.table), read_lines(args.input)))


def _cmd_learn_wp(args):
    _load("wordpiece", "wordpiece_learner")
    corpora = [read_lines(path) for path in args.input]
    vocab = learn_wordpiece(corpora, VocabSpec(args.target_size, args.tolerance), args.max_train_sentences)
    vocab.save(args.out)
    print(f"learned {len(vocab)} tokens (within_tolerance={vocab.within_tolerance}) -> {args.out}")


def _cmd_apply_wp(args):
    from .wordpiece import Vocabulary, _apply_lines
    write_lines(args.out, _apply_lines(Vocabulary.load(args.vocab), read_lines(args.input)))


def _cmd_transform_vocab(args) -> list[Path]:
    _load("wordpiece", "transfer")
    parent = Vocabulary.load(args.parent_vocab)
    if args.child_vocab:
        _refuse(args, "--child-vocab", "child")
        child = Vocabulary.load(args.child_vocab)
        mapping = map_vocabularies(parent, child, args.variant, args.seed)
    elif args.child:
        corpora = [read_lines(path) for path in args.child]
        _, mapping = transform_vocab(parent, corpora, args.variant, args.seed)
    else:
        raise XfervocabError("give --child corpus files or --child-vocab")

    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    bundle = emit_transfer_bundle(mapping, embeddings, args.out_dir)
    shared = sum(1 for e in mapping.entries if e.shared)
    print(f"{args.variant}: {shared}/{len(mapping.entries)} slots shared -> {args.out_dir}")
    return [path for path in bundle if path is not None]


def _cmd_merge_vocab(args):
    _load("wordpiece", "sharedvocab")
    if args.parent_vocab or args.child_vocab:
        if not (args.parent_vocab and args.child_vocab):
            raise XfervocabError("merging vocabulary files needs both --parent-vocab and --child-vocab")
        unread = [*_corpus_dests("parent", "child"), "target_size", "tolerance", "report"]
        _refuse(args, "--parent-vocab/--child-vocab", *unread)
        parent = Vocabulary.load(args.parent_vocab)
        child = Vocabulary.load(args.child_vocab)
        merged = merge_vocabs(parent, child)
        merged.save(args.out)
        print(f"merged {len(merged)} tokens -> {args.out}")
    else:
        if args.target_size is None:
            raise XfervocabError("corpus mode needs --target-size")
        parent_corpus = _read_corpus(args, "parent")
        child_corpus = _read_corpus(args, "child")
        tolerance = VocabSpec.tolerance if args.tolerance is None else args.tolerance
        merged, report = build_merged_vocab(parent_corpus, child_corpus, args.target_size, tolerance)
        merged.save(args.out)
        _report(args.report, report.to_tsv())


def _cmd_balanced_vocab(args):
    _load("sharedvocab")
    parent_corpus = _read_corpus(args, "parent")
    child_corpus = _read_corpus(args, "child")
    vocab = build_balanced_vocab(parent_corpus, child_corpus, args.target_size, args.tolerance, seed=args.seed)
    vocab.save(args.out)
    print(f"balanced vocabulary: {len(vocab)} tokens -> {args.out}")


def _report(path: str | None, tsv: str) -> None:
    """Print a report's TSV as it is, and write the same text to `path` when one is given."""
    print(tsv, end="")
    if path:
        write_text(path, tsv)


def _cmd_diag(args):
    _load("wordpiece", "diagnostics")
    vocab = Vocabulary.load(args.vocab)
    if args.diag_command == "rate":
        sentences = [s for path in args.input for s in read_lines(path)]
        tsv = render_tsv([("segmentation_rate",), (segmentation_rate(vocab, sentences),)])
    elif args.diag_command == "usage":
        sentences = [s for path in args.input for s in read_lines(path)]
        predicate = unicode_range_predicate(args.char_range) if args.char_range else None
        tsv = render_tsv([("vocab_usage",), (vocab_usage(vocab, sentences, predicate),)])
    elif args.diag_command == "overlap":
        corpora = {}
        for lang, path in args.corpus:
            if lang in corpora:
                raise XfervocabError(f"--corpus label {lang!r} is given twice")
            corpora[lang] = read_lines(path)
        tsv = overlap_breakdown(vocab, corpora, args.min_count, args.parent, args.child).to_tsv()
    else:
        tsv = length_filter_impact(vocab, _read_corpus(args), args.threshold).to_tsv()
    _report(args.out, tsv)


def _cmd_corpus(args):
    _load("corpus", "wordpiece")
    if args.out_tsv:
        _refuse(args, "--out-tsv", "out_source", "out_target")
    if not args.out_tsv and not (args.out_source and args.out_target):
        raise XfervocabError("missing corpus output: give --out-source/--out-target or --out-tsv")
    if args.corpus_command == "sample":
        if args.size is not None:
            _refuse(args, "--size", "per_side", *_corpus_dests("a", "b"))
            corpus = _read_corpus(args)
            out = subsample(corpus, args.size, args.seed)
        elif args.per_side is not None:
            _refuse(args, "--per-side", *_corpus_dests(""))
            a = _read_corpus(args, "a")
            b = _read_corpus(args, "b")
            out = sample_equal(a, b, args.per_side, args.seed)
        else:
            raise XfervocabError("give --per-side (two corpora) or --size (downscale one)")
    elif args.corpus_command == "mix":
        authentic = _read_corpus(args, "authentic")
        synthetic = _read_corpus(args, "synthetic")
        out = mix_with_oversample(authentic, synthetic, args.factor, args.seed)
    else:
        corpus = _read_corpus(args)
        if args.corpus_command == "filter":
            if args.max_subwords is not None and not args.vocab:
                raise XfervocabError("--max-subwords needs --vocab")
            if args.vocab and args.max_subwords is None:
                raise XfervocabError("--vocab needs --max-subwords")
            out, _ = filter_by_word_length(corpus, args.min_words, args.max_words)
            if args.max_subwords is not None:
                out, _ = filter_by_subword_length(out, Vocabulary.load(args.vocab), args.max_subwords)
            _report(args.report, FilterReport.from_counts(len(out), len(corpus) - len(out)).to_tsv())
        elif args.corpus_command == "pseudo":
            out = make_pseudo_related(corpus, args.keep_percent, args.seed)
        elif args.corpus_command == "corrupt":
            out = corrupt_word_order(corpus, args.mode, args.seed)
    if args.out_tsv:
        write_parallel_tsv(out, args.out_tsv)
    else:
        write_parallel(out, args.out_source, args.out_target)


def _read_aligned(*paths: str) -> list[list[str]]:
    """The lines of each file; each must have as many as the last, the references."""
    texts = [read_lines(path) for path in paths]
    for path, lines in zip(paths, texts):
        if len(lines) != len(texts[-1]):
            raise AlignmentError(f"{path}: {len(lines)} lines, but {paths[-1]} has {len(texts[-1])}")
    return texts


def _cmd_eval(args):
    _load("mteval" if args.eval_command in ("bleu", "bootstrap") else "evallite")
    if args.eval_command == "bleu":
        candidates, references = _read_aligned(args.candidates, args.references)
        tsv = bleu(candidates, references, args.n_max, args.smoothing, args.tokenize).to_tsv()
    elif args.eval_command == "bootstrap":
        cand_a, cand_b, references = _read_aligned(args.candidates_a, args.candidates_b, args.references)
        tsv = paired_bootstrap(
            cand_a, cand_b, references, args.samples, args.alpha, seed=args.seed, tokenization=args.tokenize
        ).to_tsv()
    elif args.eval_command == "stop":
        curve = LearningCurve.from_tsv(args.curve)
        if not curve:  # an empty curve is a value, and round-trips through its TSV; it has no decision
            raise CorpusFormatError(f"{args.curve}: no step<TAB>score rows")
        decision = should_stop(curve, args.window_frac, args.delta_frac, args.min_evals, args.relative_to)
        tsv = render_tsv([("stop", "best_step"), decision])
    else:
        texts = _read_aligned(args.child, args.baseline, args.references)
        child, baseline, references = ([line.split() for line in lines] for lines in texts)
        tsv = token_overlap_analysis(child, baseline, references).to_tsv()
    _report(args.out, tsv)


# Each command's help, the function that declares its arguments, and its
# handler; a group (`diag`, `corpus`, `eval`) maps its subcommands to their
# help and argument function, and its one handler reads which was named.
_COMMANDS = {
    "learn-bpe": ("learn a BPE merge table", _learn_bpe_args, _cmd_learn_bpe),
    "apply-bpe": ("segment text with a merge table", _apply_bpe_args, _cmd_apply_bpe),
    "learn-wp": ("learn a wordpiece vocabulary", _learn_wp_args, _cmd_learn_wp),
    "apply-wp": ("segment text with a wordpiece vocabulary", _apply_wp_args, _cmd_apply_wp),
    "transform-vocab": ("rewrite parent slots with child subwords", _transform_vocab_args, _cmd_transform_vocab),
    "merge-vocab": ("merged shared vocabulary", _merge_vocab_args, _cmd_merge_vocab),
    "balanced-vocab": ("balanced shared vocabulary", _balanced_vocab_args, _cmd_balanced_vocab),
    "diag": ("vocabulary and corpus diagnostics", {
        "rate": ("segmentation rate", _diag_rate_args),
        "usage": ("fraction of vocabulary observed", _diag_usage_args),
        "overlap": ("per-language vocabulary overlap breakdown", _diag_overlap_args),
        "filter-impact": ("share of pairs dropped by a subword-length filter", _diag_filter_impact_args),
    }, _cmd_diag),
    "corpus": ("corpus operations", {
        "filter": ("length filters", _corpus_filter_args),
        "sample": ("equal sample from two corpora, or downscale one", _corpus_sample_args),
        "mix": ("oversample authentic data into synthetic", _corpus_mix_args),
        "pseudo": ("pseudo-related language via letter cipher", _corpus_pseudo_args),
        "corrupt": ("word order and pairing corruption", _corpus_corrupt_args),
    }, _cmd_corpus),
    "eval": ("MT evaluation statistics", {
        "bleu": ("corpus BLEU", _eval_bleu_args),
        "bootstrap": ("paired bootstrap significance test", _eval_bootstrap_args),
        "stop": ("learning-curve stopping criterion", _eval_stop_args),
        "token-analysis": ("child output token overlap classes", _eval_token_analysis_args),
    }, _cmd_eval),
}


def _manifest_target(args) -> Path | None:
    if args.manifest:
        return Path(args.manifest)
    for attr in ("out", "out_tsv", "out_source", "out_dir"):
        value = getattr(args, attr, None)
        if value:
            return Path(str(value) + ".manifest.json")
    return None


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make each `--config` value the default of its flag, on each parser that has that flag."""
    parsers = [parser]
    for each in parsers:  # extended while iterated: walks every subparser
        for action in each._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    values = _load_config(path, {a.dest for each in parsers for a in each._actions if a.option_strings})
    for each in parsers:
        each.set_defaults(**{a.dest: _config_default(a, values[a.dest]) for a in each._actions if a.dest in values})


def _config_default(action: argparse.Action, value: str):
    """A list flag's value is its whitespace-separated items, each converted by
    the flag's type; argparse converts a single string itself."""
    if action.nargs in ("+", "*") or isinstance(action, argparse._AppendAction):
        return [action.type(item) if action.type else item for item in value.split()]
    return value


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = _invoked(argv)
    parser = build_parser(command)
    try:
        if command is None:  # only then can a `--config` come before the command
            config = parser.parse_known_args(argv)[0].config
            if config:
                _apply_config(parser, config)
        args = parser.parse_args(argv)
        values = list(vars(args).values())
        inputs = _digests(_named(values, _In))
        written = _COMMANDS[args.command][2](args) or []
        payload = {
            "tool": "xfervocab",
            "version": __version__,
            "argv": argv,
            "seed": getattr(args, "seed", None),
            "inputs": inputs,
            "outputs": _digests(_named(values, _Out) + written),
        }
        target = _manifest_target(args)
        if target is not None:
            write_text(target, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    except (XfervocabError, OSError, ValueError) as exc:
        print(f"xfervocab: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The program's entry point: exit with `main()`'s code, skipping the exit-time collection.

    `gc.freeze()` moves every tracked object into the permanent generation,
    which no collection visits, so the collections of module teardown trace
    only what teardown itself creates.  It is safe at this point: `main` has
    closed every file it opened, atexit handlers still run, and the
    interpreter flushes stdout and stderr before teardown.  argparse's
    `SystemExit` (exit 2, or 0 for `--help`) leaves through the normal path.
    `main` never freezes, since tests and tracers call it many times in one
    process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
