"""Command-line driver: subcommands, exit codes, manifests, reproducibility."""

import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_imports import run_python
from xfervocab.cli import _In, _Out, _apply_config, _invoked, _named, build_parser, main
from xfervocab.wordpiece import Vocabulary


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture()
def texts(tmp_path):
    write(tmp_path / "refs.txt", ["the cat sat on the mat", "a quick brown fox"])
    write(tmp_path / "cand.txt", ["the cat sat on the mat", "a quick brown fox"])
    write(tmp_path / "worse.txt", ["the cat sat", "a fox"])
    write(tmp_path / "train.txt", ["the cat sat on the mat"] * 30 + ["a quick brown fox jumps"] * 20)
    return tmp_path


def test_eval_bleu_identical_prints_100(texts, capsys):
    code = main([
        "eval", "bleu", "--candidates", str(texts / "cand.txt"), "--references", str(texts / "refs.txt"),
        "--out", str(texts / "bleu.tsv"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out == (texts / "bleu.tsv").read_bytes().decode("utf-8")
    row = out.splitlines()[1].split("\t")
    assert row[0] == "100.000000"
    assert row[-1].startswith("BLEU+") and "smooth.exponential" in row[-1]  # the signature


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["eval", "bleu", "--candidates", str(tmp_path / "nope"), "--references", str(tmp_path / "nope")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_operation_error_exits_1(texts, capsys):
    write(texts / "short.txt", ["only one line"])
    code = main(["eval", "bleu", "--candidates", str(texts / "short.txt"), "--references", str(texts / "refs.txt")])
    assert code == 1


def test_main_leaves_the_collector_unfrozen(texts, capsys):
    # Only `run` may freeze: tests and tracers call `main` many times in one process.
    frozen = gc.get_freeze_count()
    bleu = ["eval", "bleu", "--candidates", str(texts / "cand.txt"), "--references", str(texts / "refs.txt")]
    assert main([*bleu, "--out", str(texts / "bleu.tsv")]) == 0
    assert main(["eval", "bleu", "--candidates", str(texts / "nope"), "--references", str(texts / "refs.txt")]) == 1
    assert gc.get_freeze_count() == frozen


def test_program_entry_keeps_exit_codes_and_streams(texts):
    report = texts / "bleu.tsv"
    bleu = ["-m", "xfervocab.cli", "eval", "bleu", "--references", str(texts / "refs.txt")]
    ok = run_python([*bleu, "--candidates", str(texts / "worse.txt"), "--out", str(report)])
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == report.read_text(encoding="utf-8") and ok.stdout.count("\n") == 2
    manifest = json.loads((texts / "bleu.tsv.manifest.json").read_text(encoding="utf-8"))
    assert list(manifest["outputs"]) == [str(report)]

    failed = run_python([*bleu, "--candidates", str(texts / "nope")])
    assert (failed.returncode, failed.stdout) == (1, "")
    assert failed.stderr.startswith("xfervocab: error: ") and "nope" in failed.stderr

    usage = run_python(["-m", "xfervocab.cli", "frobnicate"])
    assert usage.returncode == 2 and "invalid choice: 'frobnicate'" in usage.stderr


def test_run_freezes_the_collector_and_still_runs_atexit_handlers(texts):
    script = (
        "import atexit, gc; from xfervocab.cli import run; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); run()"
    )
    proc = run_python(["-c", script, "eval", "stop", "--curve", str(texts / "nope")])
    assert proc.returncode == 1 and proc.stderr.startswith("xfervocab: error: ")
    assert proc.stdout == "frozen True\n"


def test_transform_vocab_toy_mapping(texts, capsys):
    write(texts / "parent.vocab", ["a", "b", "c", "d"])
    write(texts / "child.vocab", ["b", "x", "a", "y"])
    out_dir = texts / "bundle"
    code = main([
        "transform-vocab",
        "--parent-vocab", str(texts / "parent.vocab"),
        "--child-vocab", str(texts / "child.vocab"),
        "--variant", "frequency",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    mapping = (out_dir / "mapping.tsv").read_text(encoding="utf-8").splitlines()
    assert mapping == [
        "slot\tparent\tchild\tshared",
        "0\ta\ta\ttrue",
        "1\tb\tb\ttrue",
        "2\tc\tx\tfalse",
        "3\td\ty\tfalse",
    ]
    assert (out_dir / "vocabulary.txt").read_text(encoding="utf-8") == "a\nb\nx\ny\n"


@pytest.mark.filterwarnings("ignore:vocabulary size")
def test_transform_vocab_child_token_with_a_tab_exits_1_and_writes_no_bundle(texts, capsys):
    Vocabulary.with_ascii_fallback(["the_", "cat_"]).save(texts / "p.vocab")
    write(texts / "child.txt", ["ab\tcd ef"])
    out_dir = texts / "b"
    code = main([
        "transform-vocab", "--parent-vocab", str(texts / "p.vocab"), "--child", str(texts / "child.txt"),
        "--out-dir", str(out_dir),
    ])
    assert code == 1
    assert "xfervocab: error: TSV cell '\\t' contains a tab or newline" in capsys.readouterr().err
    assert not out_dir.exists()
    assert not (texts / "b.manifest.json").exists()


def test_learn_and_apply_wordpiece_roundtrip(texts):
    vocab_path = texts / "wp.vocab"
    assert main([
        "learn-wp", "--input", str(texts / "train.txt"),
        "--target-size", "40", "--tolerance", "0.4", "--out", str(vocab_path),
    ]) == 0
    seg_path = texts / "seg.txt"
    assert main([
        "apply-wp", "--vocab", str(vocab_path), "--input", str(texts / "refs.txt"), "--out", str(seg_path),
    ]) == 0
    assert seg_path.exists()
    manifest = json.loads((str(seg_path) + ".manifest.json") and (texts / "seg.txt.manifest.json").read_text())
    assert str(vocab_path) in manifest["inputs"]
    assert str(seg_path) in manifest["outputs"]


@pytest.mark.parametrize("target_size", ["30", "40"])
def test_learn_wordpiece_on_crlf_corpus_refuses_unloadable_vocabulary(tmp_path, capsys, target_size):
    corpus = tmp_path / "crlf.txt"
    corpus.write_bytes(b"the cat sat on the mat\r\nthe dog ran to the cat\r\na bird sat on a dog\r\n")
    vocab_path = tmp_path / "wp.vocab"
    code = main(["learn-wp", "--input", str(corpus), "--target-size", target_size, "--out", str(vocab_path)])
    assert code == 1
    assert "xfervocab: error: token '\\r' ends with a carriage return" in capsys.readouterr().err
    assert not vocab_path.exists()
    assert not (tmp_path / "wp.vocab.manifest.json").exists()


def test_transform_vocab_on_crlf_child_leaves_no_out_dir(texts, capsys):
    parent_vocab, out_dir = texts / "parent.vocab", texts / "bundle"
    assert main(["learn-wp", "--input", str(texts / "train.txt"), "--target-size", "40", "--out", str(parent_vocab)]) == 0
    child = texts / "crlf.txt"
    child.write_bytes(b"the cat sat on the mat\r\nthe dog ran to the cat\r\n")
    code = main(["transform-vocab", "--parent-vocab", str(parent_vocab), "--child", str(child), "--out-dir", str(out_dir)])
    assert code == 1
    assert "xfervocab: error: token '\\r' ends with a carriage return" in capsys.readouterr().err
    assert not out_dir.exists()
    assert not (texts / "bundle.manifest.json").exists()


def test_learn_and_apply_bpe_on_crlf_corpus(tmp_path):
    # BPE splits words on whitespace, "\r" included, so the table loads and
    # the output is the input with LF line ends.
    corpus = tmp_path / "crlf.txt"
    corpus.write_bytes(b"the cat sat on the mat\r\nthe dog ran to the cat\r\na bird sat on a dog\r\n")
    table_path, out_path = tmp_path / "bpe.merges", tmp_path / "bpe.out"
    assert main(["learn-bpe", "--input", str(corpus), "--merges", "40", "--out", str(table_path)]) == 0
    assert main(["apply-bpe", "--table", str(table_path), "--input", str(corpus), "--out", str(out_path)]) == 0
    rebuilt = out_path.read_text(encoding="utf-8").replace("@@ ", "")
    assert rebuilt == corpus.read_text(encoding="utf-8").replace("\r\n", "\n")


def test_learn_and_apply_bpe(texts):
    table_path = texts / "bpe.merges"
    assert main(["learn-bpe", "--input", str(texts / "train.txt"), "--merges", "10", "--out", str(table_path)]) == 0
    assert table_path.read_text(encoding="utf-8").startswith("#version: xfervocab-1\n")
    out_path = texts / "bpe.out"
    assert main(["apply-bpe", "--table", str(table_path), "--input", str(texts / "refs.txt"), "--out", str(out_path)]) == 0
    rebuilt = out_path.read_text(encoding="utf-8").replace("@@ ", "")
    assert rebuilt == (texts / "refs.txt").read_text(encoding="utf-8")


def test_corpus_pseudo_rerun_is_byte_identical(texts):
    write(texts / "src.txt", ["Pardon? Have you seen this cat?"])
    write(texts / "tgt.txt", ["Hledáte tu kočku?"])
    argv = [
        "corpus", "pseudo",
        "--source", str(texts / "src.txt"), "--target", str(texts / "tgt.txt"),
        "--keep-percent", "0.0", "--seed", "13",
        "--out-source", str(texts / "ps.txt"), "--out-target", str(texts / "pt.txt"),
    ]
    assert main(argv) == 0
    first = (texts / "ps.txt").read_bytes(), (texts / "pt.txt").read_bytes()
    manifest_path = texts / "ps.txt.manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["seed"] == 13
    # replay from the manifest's recorded argv
    assert main(manifest["argv"]) == 0
    assert ((texts / "ps.txt").read_bytes(), (texts / "pt.txt").read_bytes()) == first
    assert json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"] == manifest["outputs"]


def test_corpus_filter_with_report(texts, capsys):
    write(texts / "fs.txt", ["a b c", "one two three four five"])
    write(texts / "ft.txt", ["x y z", "uno dos tres cuatro cinco"])
    report_path = texts / "report.tsv"
    code = main([
        "corpus", "filter",
        "--source", str(texts / "fs.txt"), "--target", str(texts / "ft.txt"),
        "--min-words", "3", "--max-words", "75",
        "--out-source", str(texts / "ks.txt"), "--out-target", str(texts / "kt.txt"),
        "--report", str(report_path),
    ])
    assert code == 0
    assert (texts / "ks.txt").read_text(encoding="utf-8") == "one two three four five\n"
    report = report_path.read_bytes().decode("utf-8")
    assert capsys.readouterr().out == report
    assert report == "kept\tdropped\tdropped_fraction\n1\t1\t0.5\n"


def test_corpus_filter_word_then_subword_report(texts, capsys):
    # Line 2 fails the word test; lines 3 and 5 pass it and fail only the subword test (source, then target).
    write(texts / "fs.txt", ["the cat the cat", "one", "uno dos tres", "x y z", "the cat"])
    write(texts / "ft.txt", ["a b c d", "x", "the cat", "the cat sat", "one two three"])
    write(texts / "toy.vocab", [*"abcdefghijklmnopqrstuvwxyz", *"\\;0123456789", "_", "the_", "cat_"])
    report_path = texts / "report.tsv"
    code = main([
        "corpus", "filter",
        "--source", str(texts / "fs.txt"), "--target", str(texts / "ft.txt"),
        "--min-words", "1", "--max-words", "4", "--vocab", str(texts / "toy.vocab"), "--max-subwords", "6",
        "--out-source", str(texts / "ks.txt"), "--out-target", str(texts / "kt.txt"),
        "--report", str(report_path),
    ])
    assert code == 0
    assert (texts / "ks.txt").read_text(encoding="utf-8") == "the cat the cat\nx y z\n"
    assert (texts / "kt.txt").read_text(encoding="utf-8") == "a b c d\nthe cat sat\n"
    assert capsys.readouterr().out == "kept\tdropped\tdropped_fraction\n2\t3\t0.6\n"
    assert report_path.read_bytes() == b"kept\tdropped\tdropped_fraction\n2\t3\t0.6\n"


def test_corpus_sample_and_corrupt(texts):
    write(texts / "as.txt", [f"a{i} word" for i in range(20)])
    write(texts / "at.txt", [f"A{i} slovo" for i in range(20)])
    assert main([
        "corpus", "sample",
        "--a-source", str(texts / "as.txt"), "--a-target", str(texts / "at.txt"),
        "--b-source", str(texts / "as.txt"), "--b-target", str(texts / "at.txt"),
        "--per-side", "5", "--seed", "1",
        "--out-tsv", str(texts / "sample.tsv"),
    ]) == 0
    assert len((texts / "sample.tsv").read_text(encoding="utf-8").splitlines()) == 10
    assert main([
        "corpus", "corrupt",
        "--tsv", str(texts / "sample.tsv"), "--mode", "sort_target", "--seed", "0",
        "--out-tsv", str(texts / "sorted.tsv"),
    ]) == 0


def test_corpus_sample_downscale_mode(texts):
    write(texts / "ds.txt", [f"s{i} words here" for i in range(30)])
    write(texts / "dt.txt", [f"t{i} slova zde" for i in range(30)])
    assert main([
        "corpus", "sample",
        "--source", str(texts / "ds.txt"), "--target", str(texts / "dt.txt"),
        "--size", "7", "--seed", "2",
        "--out-tsv", str(texts / "down.tsv"),
    ]) == 0
    assert len((texts / "down.tsv").read_text(encoding="utf-8").splitlines()) == 7


def test_eval_stop_and_bootstrap(texts, capsys):
    write(texts / "curve.tsv", ["step\tscore", "1\t10", "2\t15", "3\t16", "4\t16.01", "5\t16.02", "6\t16.03"])
    assert main(["eval", "stop", "--curve", str(texts / "curve.tsv"), "--out", str(texts / "stop.tsv")]) == 0
    assert capsys.readouterr().out == "stop\tbest_step\ntrue\t6\n" == (texts / "stop.tsv").read_text(encoding="utf-8")
    assert main([
        "eval", "bootstrap",
        "--candidates-a", str(texts / "cand.txt"), "--candidates-b", str(texts / "worse.txt"),
        "--references", str(texts / "refs.txt"), "--samples", "200", "--seed", "4",
        "--out", str(texts / "sig.tsv"),
    ]) == 0
    out = capsys.readouterr().out
    assert out == (texts / "sig.tsv").read_bytes().decode("utf-8")
    assert out.splitlines()[1].split("\t")[:5] == ["200", "0", "0", "200", "A"]


def test_eval_token_analysis(texts, capsys):
    write(texts / "child.txt", ["a b"])
    write(texts / "base.txt", ["a"])
    write(texts / "tref.txt", ["b"])
    assert main([
        "eval", "token-analysis",
        "--child", str(texts / "child.txt"), "--baseline", str(texts / "base.txt"),
        "--references", str(texts / "tref.txt"), "--out", str(texts / "ta.tsv"),
    ]) == 0
    out = capsys.readouterr().out
    assert out == (texts / "ta.tsv").read_bytes().decode("utf-8")
    assert out.splitlines()[1] == "0\t1\t1\t0\t2"


def test_diag_rate_and_usage(texts, capsys):
    write(texts / "toy.vocab", ["the_", "cat_", "sat_", "on_", "mat_", *"abcdefghijklmnopqrstuvwxyz", *"\\;0123456789", "_"])
    common = ["--vocab", str(texts / "toy.vocab"), "--input", str(texts / "refs.txt")]
    assert main(["diag", "rate", *common, "--out", str(texts / "rate.tsv")]) == 0
    out = capsys.readouterr().out
    assert out == (texts / "rate.tsv").read_bytes().decode("utf-8")
    header, rate = out.splitlines()
    assert header == "segmentation_rate"
    assert float(rate) >= 1.0
    assert main(["diag", "usage", *common, "--out", str(texts / "usage.tsv")]) == 0
    out = capsys.readouterr().out
    assert out == (texts / "usage.tsv").read_bytes().decode("utf-8")
    assert out.splitlines()[0] == "vocab_usage"


def test_diag_overlap(texts, capsys):
    write(texts / "ov.vocab", ["aa_", "bb_", *"ab", *"\\;0123456789", "_"])
    write(texts / "la.txt", ["aa aa"])
    write(texts / "lb.txt", ["bb bb"])
    assert main([
        "diag", "overlap", "--vocab", str(texts / "ov.vocab"),
        "--corpus", f"A={texts / 'la.txt'}", "--corpus", f"B={texts / 'lb.txt'}",
        "--min-count", "1", "--parent", "A", "--child", "B",
        "--out", str(texts / "ov.tsv"),
    ]) == 0
    report = (texts / "ov.tsv").read_bytes().decode("utf-8")
    assert "A\t" in report and "never_observed" in report and "unused_by_child" in report
    assert capsys.readouterr().out == report  # stdout is the report --out writes


def test_config_file_provides_defaults(texts, capsys):
    config = texts / "run.conf"
    config.write_text("smoothing = none\n# comment\ntokenize = none\n", encoding="utf-8")
    assert main([
        "--config", str(config),
        "eval", "bleu", "--candidates", str(texts / "cand.txt"), "--references", str(texts / "refs.txt"),
    ]) == 0
    assert "smooth.none" in capsys.readouterr().out


def test_merge_vocab_files(texts):
    write(texts / "pv.txt", ["a", "b", "c"])
    write(texts / "cv.txt", ["b", "c", "d"])
    assert main([
        "merge-vocab", "--parent-vocab", str(texts / "pv.txt"), "--child-vocab", str(texts / "cv.txt"),
        "--out", str(texts / "merged.txt"),
    ]) == 0
    assert (texts / "merged.txt").read_text(encoding="utf-8") == "a\nb\nc\nd\n"


def test_merge_and_balanced_vocab_from_corpora(texts, capsys):
    from tests.conftest import desk_sentences

    write(texts / "ps.txt", desk_sentences(61, n_sentences=400, n_types=150))
    write(texts / "pt.txt", desk_sentences(62, "абвгдежзик", 400, 150))
    write(texts / "cs2.txt", desk_sentences(63, "qrstuvwxyz", 400, 150))
    write(texts / "ct2.txt", desk_sentences(64, "klmnopqrst", 400, 150))
    common = [
        "--parent-source", str(texts / "ps.txt"), "--parent-target", str(texts / "pt.txt"),
        "--child-source", str(texts / "cs2.txt"), "--child-target", str(texts / "ct2.txt"),
    ]
    assert main([
        "merge-vocab", *common, "--target-size", "600", "--tolerance", "0.02",
        "--out", str(texts / "m.vocab"), "--report", str(texts / "m.tsv"),
    ]) == 0
    merged_size = len((texts / "m.vocab").read_text(encoding="utf-8").splitlines())
    assert abs(merged_size - 600) <= 12
    report = (texts / "m.tsv").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == report
    assert report.startswith("initial_size_tried\tfinal_size\titerations\twithin_tolerance\n")
    assert main([
        "balanced-vocab", *common, "--target-size", "500", "--seed", "2",
        "--out", str(texts / "b.vocab"),
    ]) == 0
    assert abs(len((texts / "b.vocab").read_text(encoding="utf-8").splitlines()) - 500) <= 5


def test_diag_filter_impact(texts, capsys):
    write(texts / "fi.vocab", [*"abcdefghijklmnopqrstuvwxyz", *"\\;0123456789", "_"])
    write(texts / "fis.txt", ["ab cd", " ".join(["word"] * 40)])
    write(texts / "fit.txt", ["xy zw", "short target side"])
    assert main([
        "diag", "filter-impact", "--vocab", str(texts / "fi.vocab"),
        "--source", str(texts / "fis.txt"), "--target", str(texts / "fit.txt"),
        "--threshold", "50", "--out", str(texts / "fi.tsv"),
    ]) == 0
    out = capsys.readouterr().out
    assert out == (texts / "fi.tsv").read_bytes().decode("utf-8")
    assert out == "kept\tdropped\tdropped_fraction\n1\t1\t0.5\n"


def test_invalid_utf8_names_file_and_line(texts, capsys):
    bad = texts / "bad.txt"
    bad.write_bytes(b"the cat\na dog\nsat \xff here\n")
    code = main(["eval", "bleu", "--candidates", str(bad), "--references", str(texts / "refs.txt")])
    assert code == 1
    assert f"{bad}: line 3: invalid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [b"\x02\x00\x00", b"\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x80\x3f\x00"])
def test_truncated_embeddings_exit_1(texts, capsys, payload):
    write(texts / "parent.vocab", ["a", "b"])
    write(texts / "child.vocab", ["b", "x"])
    (texts / "emb.bin").write_bytes(payload)
    code = main([
        "transform-vocab",
        "--parent-vocab", str(texts / "parent.vocab"),
        "--child-vocab", str(texts / "child.vocab"),
        "--embeddings", str(texts / "emb.bin"),
        "--out-dir", str(texts / "bundle"),
    ])
    assert code == 1
    assert f"{texts / 'emb.bin'}:" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["5", "", "5\tbest", "x\t1.0", "5\t1.0\t2"])
def test_eval_stop_bad_curve_row_names_file_and_line(texts, capsys, bad_row):
    curve = texts / "bad.tsv"
    write(curve, ["step\tscore", "1\t10", bad_row, "3\t16"])
    assert main(["eval", "stop", "--curve", str(curve)]) == 1
    assert f"{curve}: line 3: expected step<TAB>score" in capsys.readouterr().err


def test_eval_stop_out_of_order_steps_name_file_and_line(texts, capsys):
    curve = texts / "order.tsv"
    write(curve, ["2\t0.1", "1\t0.2"])
    assert main(["eval", "stop", "--curve", str(curve)]) == 1
    assert f"{curve}: line 2: step 1 does not follow step 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rules, message",
    [
        (b"a b\na \n", "line 3: merge rule MergeRule(left='a', right='') has an empty side"),
        (b"a b\nb c\na b\n", "line 4: duplicate merge rule MergeRule(left='a', right='b')"),
        (b"a b\nc \xff\n", "line 3: invalid UTF-8"),
        (b"a b\na\tb c\n", "line 3: merge rule MergeRule(left='a\\tb', right='c') has whitespace in a side"),
    ],
)
def test_apply_bpe_bad_merge_file_names_file_and_line(texts, capsys, rules, message):
    table = texts / "merges.txt"
    table.write_bytes(b"#version: xfervocab-1\n" + rules)
    code = main(["apply-bpe", "--table", str(table), "--input", str(texts / "refs.txt"), "--out", str(texts / "o.txt")])
    assert code == 1
    assert f"{table}: {message}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Every input file the manifest characterization shapes read."""
    from tests.conftest import desk_sentences

    d = tmp_path_factory.mktemp("desk")
    lt = desk_sentences(71, n_sentences=120, n_types=60)
    cy = desk_sentences(72, "абвгдежзик", 120, 60)
    write(d / "lt.txt", lt)
    write(d / "cy.txt", cy)
    write(d / "pair.tsv", [f"{a}\t{b}" for a, b in zip(lt, cy)])
    write(d / "lt2.txt", desk_sentences(73, "qrstuvwxyz", 120, 60))
    write(d / "cy2.txt", desk_sentences(74, "klmnopqrst", 120, 60))
    write(d / "toy.vocab", [*"abcdefghijklmnopqrstuvwxyz", *"абвгдежзик", *"\\;0123456789", "_", ".", "ab_"])
    write(d / "parent.vocab", ["a", "b", "c", "d"])
    write(d / "child.vocab", ["b", "x", "a", "y"])
    write(d / "emb.tsv", ["0.5\t1.0", "1.5\t2.0", "2.5\t3.0", "3.5\t4.0"])
    write(d / "table.merges", ["#version: xfervocab-1", "a b", "ab c"])
    write(d / "refs.txt", ["the cat sat on the mat", "a quick brown fox"])
    write(d / "worse.txt", ["the cat sat", "a fox"])
    # Two close systems: each drops the last word of every other sentence, so
    # bootstrap wins split and the report depends on how resamples are drawn.
    refs = lt[:20]
    write(d / "sys_refs.txt", refs)
    write(d / "sys_a.txt", [s.rsplit(" ", 1)[0] if i % 2 == 0 else s for i, s in enumerate(refs)])
    write(d / "sys_b.txt", [s.rsplit(" ", 1)[0] if i % 2 == 1 else s for i, s in enumerate(refs)])
    write(d / "curve.tsv", ["step\tscore", "1\t10", "2\t15", "3\t16", "4\t16.01", "5\t16.02"])
    write(d / "nan_curve.tsv", ["1\tnan", "2\t11", "3\t12", "4\t12.01", "5\t12.0"])
    write(d / "header3_curve.tsv", ["1\t10", "2\t15", "step\tscore", "3\t16", "4\t16.01", "5\t16.02"])
    write(d / "order_curve.tsv", ["step\tscore", "1\t10", "3\t12", "2\t11"])
    write(d / "empty_curve.tsv", [])
    write(d / "header_curve.tsv", ["step\tscore"])
    write(d / "tsv.conf", [f"tsv = {d}/pair.tsv"])
    write(d / "range.conf", ["char_range = 0x0400"])
    write(d / "corpus.conf", [f"corpus = A{d}/lt.txt"])
    write(d / "tolerance.conf", ["tolerance = 0.02"])
    write(d / "plus.conf", [f"corpus = a+b={d}/lt.txt"])
    write(d / "empty.conf", [f"corpus = ={d}/lt.txt"])
    write(d / "noeq.conf", ["smoothing none"])
    write(d / "bad.merges", ["#version: xfervocab-1", "ab"])
    write(d / "dup.vocab", ["a", "b", "a"])
    write(d / "blank.vocab", ["a", "", "b"])
    write(d / "empty.txt", [])
    write(d / "blank_line.txt", [""])
    (d / "emb.bin").write_bytes(b"\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x80\x3f")
    return d


CORPUS_LT = ["--source", "{d}/lt.txt", "--target", "{d}/cy.txt"]

# (id, argv, inputs, outputs, seed, default manifest); file names are relative to the desk.
MANIFEST_SHAPES = [
    ("learn-bpe", ["learn-bpe", "--input", "{d}/lt.txt", "{d}/cy.txt", "--merges", "20", "--out", "{d}/o.merges"],
     {"lt.txt", "cy.txt"}, {"o.merges"}, None, "o.merges.manifest.json"),
    ("apply-bpe", ["apply-bpe", "--table", "{d}/table.merges", "--input", "{d}/lt.txt", "--out", "{d}/o.bpe"],
     {"table.merges", "lt.txt"}, {"o.bpe"}, None, "o.bpe.manifest.json"),
    ("learn-wp", ["learn-wp", "--input", "{d}/lt.txt", "{d}/cy.txt", "--target-size", "80", "--tolerance", "0.4",
                  "--out", "{d}/o.vocab"],
     {"lt.txt", "cy.txt"}, {"o.vocab"}, None, "o.vocab.manifest.json"),
    ("apply-wp", ["apply-wp", "--vocab", "{d}/toy.vocab", "--input", "{d}/lt.txt", "--out", "{d}/o.wp"],
     {"toy.vocab", "lt.txt"}, {"o.wp"}, None, "o.wp.manifest.json"),
    ("transform-child", ["transform-vocab", "--parent-vocab", "{d}/toy.vocab", "--child", "{d}/lt2.txt",
                         "{d}/cy2.txt", "--variant", "levenshtein", "--seed", "3", "--out-dir", "{d}/tc"],
     {"toy.vocab", "lt2.txt", "cy2.txt"}, {"tc/vocabulary.txt", "tc/mapping.tsv"}, 3, "tc.manifest.json"),
    ("transform-embeddings", ["transform-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab",
                              "{d}/child.vocab", "--embeddings", "{d}/emb.tsv", "--out-dir", "{d}/te"],
     {"parent.vocab", "child.vocab", "emb.tsv"},
     {"te/vocabulary.txt", "te/embeddings.bin", "te/mapping.tsv", "te/unused_parent.tsv"}, None, "te.manifest.json"),
    ("transform-child-vocab", ["transform-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab",
                               "{d}/child.vocab", "--out-dir", "{d}/tv"],
     {"parent.vocab", "child.vocab"}, {"tv/vocabulary.txt", "tv/mapping.tsv"}, None, "tv.manifest.json"),
    ("merge-vocab-files", ["merge-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab", "{d}/child.vocab",
                           "--out", "{d}/m1.vocab"],
     {"parent.vocab", "child.vocab"}, {"m1.vocab"}, None, "m1.vocab.manifest.json"),
    ("merge-vocab-corpora", ["merge-vocab", "--parent-source", "{d}/lt.txt", "--parent-target", "{d}/cy.txt",
                             "--child-tsv", "{d}/pair.tsv", "--target-size", "90", "--tolerance", "0.2",
                             "--out", "{d}/m2.vocab", "--report", "{d}/m2.tsv"],
     {"lt.txt", "cy.txt", "pair.tsv"}, {"m2.vocab", "m2.tsv"}, None, "m2.vocab.manifest.json"),
    ("balanced-vocab", ["balanced-vocab", "--parent-tsv", "{d}/pair.tsv", "--child-source", "{d}/lt2.txt",
                        "--child-target", "{d}/cy2.txt", "--target-size", "90", "--tolerance", "0.2", "--seed", "2",
                        "--out", "{d}/bal.vocab"],
     {"pair.tsv", "lt2.txt", "cy2.txt"}, {"bal.vocab"}, 2, "bal.vocab.manifest.json"),
    ("diag-rate", ["diag", "rate", "--vocab", "{d}/toy.vocab", "--input", "{d}/lt.txt", "{d}/cy.txt",
                   "--out", "{d}/rate.tsv"],
     {"toy.vocab", "lt.txt", "cy.txt"}, {"rate.tsv"}, None, "rate.tsv.manifest.json"),
    ("diag-usage", ["--manifest", "{d}/usage.json", "diag", "usage", "--vocab", "{d}/toy.vocab", "--input",
                    "{d}/lt.txt", "--char-range", "0x61-0x7a"],
     {"toy.vocab", "lt.txt"}, set(), None, "usage.json"),
    ("diag-overlap", ["diag", "overlap", "--vocab", "{d}/toy.vocab", "--corpus", "A={d}/lt.txt",
                      "--corpus", "B={d}/cy.txt", "--min-count", "1", "--parent", "A", "--child", "B",
                      "--out", "{d}/ov.tsv"],
     {"toy.vocab", "lt.txt", "cy.txt"}, {"ov.tsv"}, None, "ov.tsv.manifest.json"),
    ("diag-filter-impact", ["diag", "filter-impact", "--vocab", "{d}/toy.vocab", "--tsv", "{d}/pair.tsv",
                            "--threshold", "20", "--out", "{d}/fi.tsv"],
     {"toy.vocab", "pair.tsv"}, {"fi.tsv"}, None, "fi.tsv.manifest.json"),
    ("corpus-filter", ["corpus", "filter", *CORPUS_LT, "--min-words", "5", "--max-subwords", "40",
                       "--vocab", "{d}/toy.vocab", "--out-source", "{d}/fs.txt", "--out-target", "{d}/ft.txt",
                       "--report", "{d}/fr.tsv"],
     {"lt.txt", "cy.txt", "toy.vocab"}, {"fs.txt", "ft.txt", "fr.tsv"}, None, "fs.txt.manifest.json"),
    ("corpus-sample-size", ["corpus", "sample", "--tsv", "{d}/pair.tsv", "--size", "7", "--seed", "2",
                            "--out-tsv", "{d}/down.tsv"],
     {"pair.tsv"}, {"down.tsv"}, 2, "down.tsv.manifest.json"),
    ("corpus-sample-per-side", ["corpus", "sample", "--a-source", "{d}/lt.txt", "--a-target", "{d}/cy.txt",
                                "--b-tsv", "{d}/pair.tsv", "--per-side", "5", "--seed", "1",
                                "--out-source", "{d}/ss.txt", "--out-target", "{d}/st.txt"],
     {"lt.txt", "cy.txt", "pair.tsv"}, {"ss.txt", "st.txt"}, 1, "ss.txt.manifest.json"),
    ("corpus-mix", ["corpus", "mix", "--authentic-tsv", "{d}/pair.tsv", "--synthetic-source", "{d}/lt2.txt",
                    "--synthetic-target", "{d}/cy2.txt", "--factor", "2", "--seed", "3", "--out-tsv", "{d}/mix.tsv"],
     {"pair.tsv", "lt2.txt", "cy2.txt"}, {"mix.tsv"}, 3, "mix.tsv.manifest.json"),
    ("corpus-pseudo", ["corpus", "pseudo", *CORPUS_LT, "--keep-percent", "0.5", "--seed", "13",
                       "--out-tsv", "{d}/ps.tsv"],
     {"lt.txt", "cy.txt"}, {"ps.tsv"}, 13, "ps.tsv.manifest.json"),
    ("corpus-corrupt", ["corpus", "corrupt", "--tsv", "{d}/pair.tsv", "--mode", "sort_target", "--seed", "0",
                        "--out-source", "{d}/cs.txt", "--out-target", "{d}/ct.txt"],
     {"pair.tsv"}, {"cs.txt", "ct.txt"}, 0, "cs.txt.manifest.json"),
    ("eval-bleu", ["eval", "bleu", "--candidates", "{d}/worse.txt", "--references", "{d}/refs.txt",
                   "--out", "{d}/bleu.tsv"],
     {"worse.txt", "refs.txt"}, {"bleu.tsv"}, None, "bleu.tsv.manifest.json"),
    ("eval-bootstrap", ["eval", "bootstrap", "--candidates-a", "{d}/sys_a.txt", "--candidates-b", "{d}/sys_b.txt",
                        "--references", "{d}/sys_refs.txt", "--samples", "50", "--seed", "4", "--out", "{d}/sig.tsv"],
     {"sys_a.txt", "sys_b.txt", "sys_refs.txt"}, {"sig.tsv"}, 4, "sig.tsv.manifest.json"),
    ("eval-stop", ["eval", "stop", "--curve", "{d}/curve.tsv", "--out", "{d}/stop.tsv"],
     {"curve.tsv"}, {"stop.tsv"}, None, "stop.tsv.manifest.json"),
    ("eval-token-analysis", ["eval", "token-analysis", "--child", "{d}/worse.txt", "--baseline", "{d}/refs.txt",
                             "--references", "{d}/refs.txt"],
     {"worse.txt", "refs.txt"}, set(), None, None),
]


@pytest.mark.parametrize(
    "argv, inputs, outputs, seed, manifest_name", [case[1:] for case in MANIFEST_SHAPES],
    ids=[case[0] for case in MANIFEST_SHAPES],
)
def test_manifest_records_each_command_shape(desk, argv, inputs, outputs, seed, manifest_name):
    def files():
        return {p for p in desk.rglob("*") if p.is_file()}

    before = files()
    assert main([arg.format(d=desk) for arg in argv]) == 0
    written = files() - before
    if manifest_name is None:
        assert written == set()
        return
    manifest_path = desk / manifest_name
    assert written == {desk / name for name in outputs} | {manifest_path}
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert set(manifest["inputs"]) == {str(desk / name) for name in inputs}
    assert set(manifest["outputs"]) == {str(desk / name) for name in outputs}
    assert manifest["seed"] == seed
    assert manifest["argv"] == [arg.format(d=desk) for arg in argv]


# Prints the digest of every file in the desk (inputs, outputs and manifests) as one line.
PRINT_DESK_DIGESTS = """
files = sorted(p for p in d.rglob("*") if p.is_file())
print(json.dumps({str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}))
"""

# Runs every shape in one process and prints its stdout, then the desk's digests as the last line.
ALL_SHAPES_SCRIPT = """
import hashlib, json, sys
from pathlib import Path
from tests.test_cli import MANIFEST_SHAPES
from xfervocab.cli import main
d = Path(sys.argv[1])
for case in MANIFEST_SHAPES:
    assert main([arg.format(d=d) for arg in case[1]]) == 0, case[0]
""" + PRINT_DESK_DIGESTS

# The same, with each shape in its own `python -m xfervocab.cli` process, which writes to this one's stdout.
FRESH_SHAPES_SCRIPT = """
import hashlib, json, subprocess, sys
from pathlib import Path
from tests.test_cli import MANIFEST_SHAPES
d = Path(sys.argv[1])
for case in MANIFEST_SHAPES:
    sys.stdout.flush()
    argv = [arg.format(d=d) for arg in case[1]]
    assert subprocess.run([sys.executable, "-m", "xfervocab.cli", *argv]).returncode == 0, case[0]
""" + PRINT_DESK_DIGESTS


@pytest.fixture(scope="module")
def run_all_shapes(desk, tmp_path_factory):
    """Run a script over every shape in a fresh process, on a fresh copy of the
    desk at one fixed path, so the manifests' recorded paths agree between runs."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), str(root), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    d = tmp_path_factory.mktemp("shapes") / "desk"

    def run(script: str, hash_seed: str) -> str:
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(desk, d)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(d)], env=dict(env, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


@pytest.fixture(scope="module")
def seed1_shapes(run_all_shapes):
    """Every shape's printed reports and file digests, unshrunk, at hash seed 1."""
    return run_all_shapes(ALL_SHAPES_SCRIPT, "1")


def test_every_command_shape_ignores_the_hash_seed(run_all_shapes, seed1_shapes):
    """A set or dict of strings iterates in hash-seed order; no output, printed
    report or manifest may follow it."""
    assert len(json.loads(seed1_shapes.splitlines()[-1])) > len(MANIFEST_SHAPES)
    assert run_all_shapes(ALL_SHAPES_SCRIPT, "2") == seed1_shapes


def test_every_command_shape_runs_alike_in_a_fresh_process(run_all_shapes, seed1_shapes):
    """In one process a shape may call a module an earlier shape loaded; in its
    own, each finds only what its handler loads, and prints and writes the same."""
    assert run_all_shapes(FRESH_SHAPES_SCRIPT, "1") == seed1_shapes


# Each tuning constant at its least legal value: one-sentence statistics
# blocks, and one-row bootstrap and edit-distance blocks.
SHRUNK_CONSTANTS = """
from xfervocab import mteval, transfer
mteval._BLOCK_BYTES = transfer._BLOCK_BYTES = 0
"""


def test_every_command_shape_ignores_the_tuning_constants(run_all_shapes, seed1_shapes):
    """A block size bounds memory and time, never a byte: every shape
    prints and writes the same with each one shrunk."""
    shrunk = run_all_shapes(SHRUNK_CONSTANTS + ALL_SHAPES_SCRIPT, "1")
    assert shrunk == seed1_shapes


# Every command that prints a report, with the file its --out/--report names (None: add --out).
REPORT_FILES = {
    "merge-vocab-corpora": "m2.tsv", "diag-rate": "rate.tsv", "diag-usage": None, "diag-overlap": "ov.tsv",
    "diag-filter-impact": "fi.tsv", "corpus-filter": "fr.tsv", "eval-bleu": "bleu.tsv", "eval-bootstrap": "sig.tsv",
    "eval-stop": "stop.tsv", "eval-token-analysis": None,
}


@pytest.mark.parametrize(
    "argv, report", [(case[1], REPORT_FILES[case[0]]) for case in MANIFEST_SHAPES if case[0] in REPORT_FILES],
    ids=[case[0] for case in MANIFEST_SHAPES if case[0] in REPORT_FILES],
)
def test_each_report_command_prints_the_bytes_of_its_report_file(desk, tmp_path, capsys, argv, report):
    d = tmp_path / "desk"
    shutil.copytree(desk, d)
    if report is None:
        report = "report.tsv"
        argv = [*argv, "--out", f"{{d}}/{report}"]
    assert main([arg.format(d=d) for arg in argv]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 2  # a header and a row at least
    assert out.encode("utf-8") == (d / report).read_bytes()


# (argv, message) of each operation error: it exits 1 with the message and writes nothing.
ERROR_PATHS = [
    (["corpus", "pseudo", "--source", "{d}/lt.txt", "--keep-percent", "0", "--seed", "1",
      "--out-tsv", "{d}/e1.tsv"], "missing corpus input: give --source/--target or --tsv"),
    (["balanced-vocab", "--parent-tsv", "{d}/pair.tsv", "--child-target", "{d}/cy.txt",
      "--target-size", "50", "--seed", "1", "--out", "{d}/e2.vocab"],
     "missing corpus input: give --child-source/--child-target or --child-tsv"),
    (["--config", "{d}/corpus.conf", "diag", "overlap", "--vocab", "{d}/toy.vocab", "--corpus", "en={d}/lt.txt",
      "--out", "{d}/e0.tsv"], "--corpus expects LANG=FILE, got 'A{d}/lt.txt'"),
    (["corpus", "filter", *CORPUS_LT, "--max-subwords", "5", "--out-tsv", "{d}/e3.tsv"],
     "--max-subwords needs --vocab"),
    (["merge-vocab", "--parent-tsv", "{d}/pair.tsv", "--child-tsv", "{d}/pair.tsv", "--out", "{d}/e4.vocab"],
     "corpus mode needs --target-size"),
    (["corpus", "sample", *CORPUS_LT, "--seed", "1", "--out-tsv", "{d}/e5.tsv"],
     "give --per-side (two corpora) or --size (downscale one)"),
    (["transform-vocab", "--parent-vocab", "{d}/parent.vocab", "--out-dir", "{d}/e6"],
     "give --child corpus files or --child-vocab"),
    (["eval", "stop", "--curve", "{d}/curve.tsv", "--window-frac", "0"], "window_frac must be in (0, 1]"),
    (["eval", "bootstrap", "--candidates-a", "{d}/worse.txt", "--candidates-b", "{d}/refs.txt",
      "--references", "{d}/refs.txt", "--samples", "50", "--seed", "4", "--alpha", "1"],
     "alpha must be in (0, 1)"),
    # A named input is always read: flags naming a file the command would skip.
    (["corpus", "pseudo", "--tsv", "{d}/pair.tsv", *CORPUS_LT, "--keep-percent", "0", "--seed", "1",
      "--out-tsv", "{d}/e7.tsv"], "--tsv cannot be combined with --source, --target"),
    (["balanced-vocab", "--parent-tsv", "{d}/pair.tsv", "--parent-target", "{d}/cy.txt", "--child-tsv",
      "{d}/pair.tsv", "--target-size", "50", "--seed", "1", "--out", "{d}/e8.vocab"],
     "--parent-tsv cannot be combined with --parent-target"),
    (["--config", "{d}/tsv.conf", "corpus", "corrupt", *CORPUS_LT, "--mode", "sort_target", "--seed", "1",
      "--out-tsv", "{d}/e9.tsv"], "--tsv cannot be combined with --source, --target"),
    (["transform-vocab", "--parent-vocab", "{d}/parent.vocab", "--child", "{d}/lt.txt", "--child-vocab",
      "{d}/child.vocab", "--out-dir", "{d}/e10"], "--child-vocab cannot be combined with --child"),
    (["corpus", "sample", *CORPUS_LT, "--a-tsv", "{d}/pair.tsv", "--b-tsv", "{d}/pair.tsv", "--per-side", "5",
      "--size", "5", "--seed", "1", "--out-tsv", "{d}/e11.tsv"],
     "--size cannot be combined with --per-side, --a-tsv, --b-tsv"),
    (["corpus", "sample", *CORPUS_LT, "--a-tsv", "{d}/pair.tsv", "--b-source", "{d}/lt2.txt", "--size", "5",
      "--seed", "1", "--out-tsv", "{d}/e12.tsv"], "--size cannot be combined with --a-tsv, --b-source"),
    (["corpus", "sample", "--tsv", "{d}/pair.tsv", "--a-tsv", "{d}/pair.tsv", "--b-tsv", "{d}/pair.tsv",
      "--per-side", "5", "--seed", "1", "--out-tsv", "{d}/e13.tsv"], "--per-side cannot be combined with --tsv"),
    (["corpus", "filter", *CORPUS_LT, "--vocab", "{d}/toy.vocab", "--out-tsv", "{d}/e14.tsv"],
     "--vocab needs --max-subwords"),
    (["merge-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab", "{d}/child.vocab", "--parent-tsv",
      "{d}/pair.tsv", "--child-source", "{d}/lt2.txt", "--out", "{d}/e15.vocab"],
     "--parent-vocab/--child-vocab cannot be combined with --parent-tsv, --child-source"),
    (["merge-vocab", "--parent-vocab", "{d}/parent.vocab", "--parent-tsv", "{d}/pair.tsv", "--child-tsv",
      "{d}/pair.tsv", "--target-size", "50", "--out", "{d}/e16.vocab"],
     "merging vocabulary files needs both --parent-vocab and --child-vocab"),
    (["merge-vocab", "--child-vocab", "{d}/child.vocab", "--out", "{d}/e17.vocab"],
     "merging vocabulary files needs both --parent-vocab and --child-vocab"),
    (["diag", "overlap", "--vocab", "{d}/toy.vocab", "--corpus", "en={d}/lt.txt", "--corpus", "en={d}/cy.txt",
      "--corpus", "cs={d}/lt.txt", "--out", "{d}/e18.tsv"], "--corpus label 'en' is given twice"),
    (["--config", "{d}/range.conf", "diag", "usage", "--vocab", "{d}/toy.vocab", "--input", "{d}/lt.txt",
      "--out", "{d}/e19.tsv"], "--char-range expects LO-HI with LO <= HI, got '0x0400'"),
    # Merging two vocabulary files reads no size, tolerance or report flag.
    (["merge-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab", "{d}/child.vocab", "--target-size",
      "99", "--out", "{d}/e20.vocab"], "--parent-vocab/--child-vocab cannot be combined with --target-size"),
    (["merge-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab", "{d}/child.vocab", "--tolerance",
      "0.3", "--out", "{d}/e21.vocab"], "--parent-vocab/--child-vocab cannot be combined with --tolerance"),
    (["--config", "{d}/tolerance.conf", "merge-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab",
      "{d}/child.vocab", "--out", "{d}/e22.vocab"],
     "--parent-vocab/--child-vocab cannot be combined with --tolerance"),
    (["apply-bpe", "--table", "{d}/bad.merges", "--input", "{d}/lt.txt", "--out", "{d}/e23.bpe"],
     "{d}/bad.merges: line 2: expected 'left right'"),
    (["learn-bpe", "--input", "{d}/lt.txt", "--merges", "0", "--out", "{d}/e24.merges"],
     "num_merges must be at least 1"),
    (["--config", "{d}/noeq.conf", "eval", "bleu", "--candidates", "{d}/worse.txt", "--references",
      "{d}/refs.txt", "--out", "{d}/e25.tsv"], "{d}/noeq.conf: line 1: expected key = value"),
    (["corpus", "pseudo", *CORPUS_LT, "--keep-percent", "0.5", "--seed", "1"],
     "missing corpus output: give --out-source/--out-target or --out-tsv"),
    (["corpus", "filter", *CORPUS_LT, "--min-words", "5", "--max-words", "3", "--out-tsv", "{d}/e26.tsv"],
     "min_words must not exceed max_words"),
    (["corpus", "mix", "--authentic-tsv", "{d}/pair.tsv", "--synthetic-tsv", "{d}/pair.tsv", "--factor", "0",
      "--seed", "1", "--out-tsv", "{d}/e27.tsv"], "factor must be at least 1"),
    (["corpus", "pseudo", *CORPUS_LT, "--keep-percent", "1.5", "--seed", "1", "--out-tsv", "{d}/e28.tsv"],
     "keep_percent must be within [0, 1]"),
    (["diag", "overlap", "--vocab", "{d}/toy.vocab", "--corpus", "A={d}/lt.txt", "--corpus", "B={d}/cy.txt",
      "--parent", "zz", "--out", "{d}/e29.tsv"], "role language 'zz' has no labeled corpus"),
    (["eval", "bootstrap", "--candidates-a", "{d}/worse.txt", "--candidates-b", "{d}/refs.txt",
      "--references", "{d}/refs.txt", "--samples", "0", "--seed", "4", "--out", "{d}/e30.tsv"],
     "samples must be at least 1"),
    (["merge-vocab", "--parent-tsv", "{d}/pair.tsv", "--child-tsv", "{d}/pair.tsv", "--target-size", "3",
      "--out", "{d}/e31.vocab"], "target_size 3 is below the alphabet size 40"),
    (["transform-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab", "{d}/child.vocab",
      "--embeddings", "{d}/emb.bin", "--out-dir", "{d}/e32"], "{d}/emb.bin: payload does not match header 2x2"),
    # A bad vocabulary line and an ambiguous overlap label.
    (["apply-wp", "--vocab", "{d}/dup.vocab", "--input", "{d}/lt.txt", "--out", "{d}/e33.wp"],
     "{d}/dup.vocab: line 3: duplicate token 'a'"),
    (["apply-wp", "--vocab", "{d}/blank.vocab", "--input", "{d}/lt.txt", "--out", "{d}/e34.wp"],
     "{d}/blank.vocab: line 2: vocabulary tokens must be non-empty"),
    (["--config", "{d}/plus.conf", "diag", "overlap", "--vocab", "{d}/toy.vocab", "--corpus", "en={d}/lt.txt",
      "--out", "{d}/e35.tsv"], "--corpus label must be nonempty and hold no '+', got 'a+b={d}/lt.txt'"),
    (["--config", "{d}/empty.conf", "diag", "overlap", "--vocab", "{d}/toy.vocab", "--corpus", "en={d}/lt.txt",
      "--out", "{d}/e36.tsv"], "--corpus label must be nonempty and hold no '+', got '={d}/lt.txt'"),
    # An n-gram order below one and a negative bootstrap seed.
    (["eval", "bleu", "--candidates", "{d}/worse.txt", "--references", "{d}/refs.txt", "--n-max", "0", "--out",
      "{d}/e37.tsv"], "n_max must be at least 1"),
    (["eval", "bleu", "--candidates", "{d}/worse.txt", "--references", "{d}/refs.txt", "--n-max", "-2", "--out",
      "{d}/e38.tsv"], "n_max must be at least 1"),
    (["eval", "bootstrap", "--candidates-a", "{d}/worse.txt", "--candidates-b", "{d}/refs.txt",
      "--references", "{d}/refs.txt", "--samples", "50", "--seed", "-1", "--out", "{d}/e39.tsv"],
     "seed must be a non-negative integer, got -1"),
    # A tolerance outside VocabSpec's (0, 0.5), in the merge search too, and a negative training cap.
    (["merge-vocab", "--parent-tsv", "{d}/pair.tsv", "--child-tsv", "{d}/pair.tsv", "--target-size", "90",
      "--tolerance", "0.7", "--out", "{d}/e40.vocab"], "tolerance must be in (0, 0.5)"),
    (["merge-vocab", "--parent-tsv", "{d}/pair.tsv", "--child-tsv", "{d}/pair.tsv", "--target-size", "90",
      "--tolerance", "-1", "--out", "{d}/e41.vocab"], "tolerance must be in (0, 0.5)"),
    (["learn-wp", "--input", "{d}/lt.txt", "--target-size", "80", "--max-train-sentences", "-1", "--out",
      "{d}/e42.vocab"], "max_train_sentences must be non-negative, got -1"),
    # An overlap threshold below one and negative sample sizes.
    (["diag", "overlap", "--vocab", "{d}/toy.vocab", "--corpus", "A={d}/lt.txt", "--corpus", "B={d}/cy.txt",
      "--min-count", "0", "--out", "{d}/e43.tsv"], "min_count must be at least 1, got 0"),
    (["diag", "overlap", "--vocab", "{d}/toy.vocab", "--corpus", "A={d}/lt.txt", "--corpus", "B={d}/cy.txt",
      "--min-count", "-1", "--out", "{d}/e44.tsv"], "min_count must be at least 1, got -1"),
    (["corpus", "sample", *CORPUS_LT, "--size", "-1", "--seed", "1", "--out-tsv", "{d}/e45.tsv"],
     "size must be non-negative, got -1"),
    (["corpus", "sample", "--a-tsv", "{d}/pair.tsv", "--b-tsv", "{d}/pair.tsv", "--per-side", "-1", "--seed",
      "1", "--out-tsv", "{d}/e46.tsv"], "per_side must be non-negative, got -1"),
    # A negative subword-length limit, when filtering and when measuring the filter.
    (["corpus", "filter", *CORPUS_LT, "--vocab", "{d}/toy.vocab", "--max-subwords", "-1", "--out-tsv",
      "{d}/e47.tsv"], "max_tokens must be non-negative, got -1"),
    (["diag", "filter-impact", "--vocab", "{d}/toy.vocab", *CORPUS_LT, "--threshold", "-1", "--out",
      "{d}/e48.tsv"], "max_tokens must be non-negative, got -1"),
    # A negative seed: random.Random(-7) draws what random.Random(7) draws.
    (["corpus", "sample", "--tsv", "{d}/pair.tsv", "--size", "7", "--seed", "-7", "--out-tsv", "{d}/e49.tsv"],
     "seed must be a non-negative integer, got -7"),
    (["corpus", "sample", "--a-tsv", "{d}/pair.tsv", "--b-tsv", "{d}/pair.tsv", "--per-side", "5", "--seed",
      "-7", "--out-tsv", "{d}/e50.tsv"], "seed must be a non-negative integer, got -7"),
    (["corpus", "mix", "--authentic-tsv", "{d}/pair.tsv", "--synthetic-tsv", "{d}/pair.tsv", "--factor", "2",
      "--seed", "-7", "--out-tsv", "{d}/e51.tsv"], "seed must be a non-negative integer, got -7"),
    (["corpus", "pseudo", *CORPUS_LT, "--keep-percent", "0.5", "--seed", "-7", "--out-tsv", "{d}/e52.tsv"],
     "seed must be a non-negative integer, got -7"),
    (["corpus", "corrupt", "--tsv", "{d}/pair.tsv", "--mode", "shuffle_both", "--seed", "-7", "--out-tsv",
      "{d}/e53.tsv"], "seed must be a non-negative integer, got -7"),
    (["balanced-vocab", "--parent-tsv", "{d}/pair.tsv", "--child-tsv", "{d}/pair.tsv", "--target-size", "90",
      "--seed", "-7", "--out", "{d}/e54.vocab"], "seed must be a non-negative integer, got -7"),
    (["transform-vocab", "--parent-vocab", "{d}/parent.vocab", "--child-vocab", "{d}/child.vocab", "--variant",
      "everything_random", "--seed", "-7", "--out-dir", "{d}/e55"], "seed must be a non-negative integer, got -7"),
    (["transform-vocab", "--parent-vocab", "{d}/toy.vocab", "--child", "{d}/lt2.txt", "--variant",
      "unmatched_random", "--seed", "-7", "--out-dir", "{d}/e56"], "seed must be a non-negative integer, got -7"),
    # A NaN word limit, and a NaN or negative stop delta: each would silently drop every pair or never stop.
    (["corpus", "filter", *CORPUS_LT, "--max-words", "nan", "--out-tsv", "{d}/e57.tsv"],
     "max_words must be a number, got nan"),
    (["eval", "stop", "--curve", "{d}/curve.tsv", "--delta-frac", "nan", "--out", "{d}/e58.tsv"],
     "delta_frac must be non-negative, got nan"),
    (["eval", "stop", "--curve", "{d}/curve.tsv", "--delta-frac", "-0.5", "--out", "{d}/e59.tsv"],
     "delta_frac must be non-negative, got -0.5"),
    # A NaN score, a header below line 1, and steps out of order: each names the file and line.
    (["eval", "stop", "--curve", "{d}/nan_curve.tsv", "--out", "{d}/e60.tsv"],
     "{d}/nan_curve.tsv: line 1: score at step 1 is not a number"),
    (["eval", "stop", "--curve", "{d}/header3_curve.tsv", "--out", "{d}/e61.tsv"],
     "{d}/header3_curve.tsv: line 3: expected step<TAB>score"),
    (["eval", "stop", "--curve", "{d}/order_curve.tsv", "--out", "{d}/e62.tsv"],
     "{d}/order_curve.tsv: line 4: step 2 does not follow step 3; learning curve steps must be strictly increasing"),
    (["eval", "stop", "--curve", "{d}/empty_curve.tsv", "--out", "{d}/e63.tsv"],
     "{d}/empty_curve.tsv: no step<TAB>score rows"),
    (["eval", "stop", "--curve", "{d}/header_curve.tsv", "--out", "{d}/e64.tsv"],
     "{d}/header_curve.tsv: no step<TAB>score rows"),
    # An empty vocabulary has no share of itself to report, even over empty corpora.
    (["diag", "overlap", "--vocab", "{d}/empty.txt", "--corpus", "a={d}/empty.txt", "--corpus", "b={d}/empty.txt",
      "--out", "{d}/e65.tsv"], "overlap breakdown needs a nonempty vocabulary"),
    # Files of unequal line counts: the message names both.
    (["eval", "bleu", "--candidates", "{d}/sys_a.txt", "--references", "{d}/refs.txt", "--out", "{d}/e66.tsv"],
     "{d}/sys_a.txt: 20 lines, but {d}/refs.txt has 2"),
    (["eval", "bootstrap", "--candidates-a", "{d}/sys_a.txt", "--candidates-b", "{d}/worse.txt", "--references",
      "{d}/sys_refs.txt", "--samples", "50", "--seed", "4", "--out", "{d}/e67.tsv"],
     "{d}/worse.txt: 2 lines, but {d}/sys_refs.txt has 20"),
    (["eval", "bootstrap", "--candidates-a", "{d}/sys_a.txt", "--candidates-b", "{d}/sys_b.txt", "--references",
      "{d}/refs.txt", "--samples", "50", "--seed", "4", "--out", "{d}/e68.tsv"],
     "{d}/sys_a.txt: 20 lines, but {d}/refs.txt has 2"),
    (["eval", "token-analysis", "--child", "{d}/worse.txt", "--baseline", "{d}/sys_b.txt", "--references",
      "{d}/refs.txt", "--out", "{d}/e69.tsv"], "{d}/sys_b.txt: 20 lines, but {d}/refs.txt has 2"),
    # A factor past any list's size overflowed in the copying.
    (["corpus", "mix", "--authentic-tsv", "{d}/pair.tsv", "--synthetic-tsv", "{d}/pair.tsv", "--factor",
      "99999999999999999999", "--seed", "1", "--out-tsv", "{d}/e70.tsv"],
     "factor 99999999999999999999 asks for more pairs than memory can hold"),
    # A vocabulary without the escape tokens is refused once a line is read, even a blank one.
    (["apply-wp", "--vocab", "{d}/parent.vocab", "--input", "{d}/blank_line.txt", "--out", "{d}/e71.wp"],
     "vocabulary lacks escape token '\\\\'; cannot segment arbitrary text"),
    (["diag", "filter-impact", "--vocab", "{d}/parent.vocab", "--source", "{d}/blank_line.txt", "--target",
      "{d}/blank_line.txt", "--threshold", "5", "--out", "{d}/e72.tsv"],
     "vocabulary lacks escape token '\\\\'; cannot segment arbitrary text"),
]


# ... and never when no line is read: over empty inputs the same vocabulary segments nothing.
@pytest.mark.parametrize("argv, out", [
    (["apply-wp", "--vocab", "{d}/parent.vocab", "--input", "{d}/empty.txt", "--out", "{t}/out"], ""),
    (["diag", "filter-impact", "--vocab", "{d}/parent.vocab", "--source", "{d}/empty.txt", "--target",
      "{d}/empty.txt", "--threshold", "5", "--out", "{t}/out"], "kept\tdropped\tdropped_fraction\n0\t0\t0.0\n"),
    (["corpus", "filter", "--source", "{d}/empty.txt", "--target", "{d}/empty.txt", "--vocab", "{d}/parent.vocab",
      "--max-subwords", "5", "--out-tsv", "{t}/out"], ""),
], ids=["apply-wp", "diag-filter-impact", "corpus-filter"])
def test_vocabulary_without_escapes_passes_an_input_without_lines(desk, tmp_path, capsys, argv, out):
    assert main([arg.format(d=desk, t=tmp_path) for arg in argv]) == 0
    assert (tmp_path / "out").read_text(encoding="utf-8") == out
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", ERROR_PATHS)
def test_cli_error_paths_exit_1(desk, capsys, argv, message):
    before = set(desk.rglob("*"))
    assert main([arg.format(d=desk) for arg in argv]) == 1
    assert capsys.readouterr().err == f"xfervocab: error: {message.format(d=desk)}\n"
    assert set(desk.rglob("*")) == before  # no output and no manifest


# Beyond the shapes and error paths: help at each level, a name no command or
# group member has, a missing command, `--manifest` spelled three ways before
# the command, and errors that argparse reports at the top level.
APPLY_WP = ["apply-wp", "--vocab", "v", "--input", "i", "--out", "o"]
PARSE_ONLY = [
    ["-h"], ["--help"], ["--he"], ["--manifest", "m", "-h"], ["diag", "-h"], ["corpus", "--help"], ["eval", "-h"],
    ["eval", "stop", "-h"], ["learn-bpe", "--help"], ["corpus", "sample", "-h"], [*APPLY_WP, "-h"],
    ["frobnicate"], ["diag", "frobnicate"], ["corpus", "frobnicate", "--seed", "1"], ["eval", "frobnicate"],
    [], ["diag"], ["--manifest", "m"], ["--manifest=x", *APPLY_WP], ["--man", "x", *APPLY_WP],
    ["--m=x", "--manifest", "y", *APPLY_WP], ["--manifest", *APPLY_WP], [*APPLY_WP, "--bogus"],
    [*APPLY_WP, "extra"], [*APPLY_WP, "--manifest", "m"], ["apply-wp", "--vocab", "v"], ["--", *APPLY_WP],
    ["diag", "rate", "--vocab", "v", "--input", "i", "extra"], ["eval", "stop", "--curve", "c", "--relative-to", "x"],
]


def parse_outcome(parser, argv, capsys):
    """The parsed values (as text, so NaN equals NaN, and the file flags by
    type), or the exit code, with what parsing printed."""
    try:
        values = vars(parser.parse_args(argv))
        outcome = repr(values), _named(list(values.values()), _In), _named(list(values.values()), _Out)
    except SystemExit as exc:
        outcome = exc.code
    return outcome, *capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [case[1] for case in MANIFEST_SHAPES] + [case[0] for case in ERROR_PATHS] + PARSE_ONLY
)
def test_one_command_parser_parses_as_the_full_parser(capsys, argv):
    shape = any(argv is case[1] for case in MANIFEST_SHAPES)
    argv = [arg.format(d="desk") for arg in argv]
    command = _invoked(argv)
    assert command is not None or not shape  # every command shape takes the one-command parser
    outcome = parse_outcome(build_parser(command), argv, capsys)
    assert outcome == parse_outcome(build_parser(), argv, capsys)


@pytest.mark.parametrize("value", ["0x0400", "0x7A-0x61", "a-z"])
def test_bad_char_range_on_the_command_line_exits_2(desk, capsys, value):
    before = set(desk.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        main(["diag", "usage", "--vocab", f"{desk}/toy.vocab", "--input", f"{desk}/lt.txt", "--char-range", value,
              "--out", f"{desk}/e20.tsv"])
    assert exc.value.code == 2
    assert f"argument --char-range: invalid _char_range value: {value!r}" in capsys.readouterr().err
    assert set(desk.rglob("*")) == before


@pytest.mark.parametrize("item", ["A{d}/lt.txt", "A=", "a+b={d}/lt.txt", "={d}/lt.txt"])
def test_bad_corpus_item_on_the_command_line_exits_2(desk, capsys, item):
    before = set(desk.rglob("*"))
    item = item.format(d=desk)
    with pytest.raises(SystemExit) as exc:
        main(["diag", "overlap", "--vocab", f"{desk}/toy.vocab", "--corpus", item, "--out", f"{desk}/e23.tsv"])
    assert exc.value.code == 2
    assert f"argument --corpus: invalid _lang_file value: {item!r}" in capsys.readouterr().err
    assert set(desk.rglob("*")) == before


def test_config_file_digest_is_recorded(texts):
    config = texts / "run.conf"
    config.write_text("smoothing = none\n", encoding="utf-8")
    assert main([
        "--config", str(config),
        "eval", "bleu", "--candidates", str(texts / "cand.txt"), "--references", str(texts / "refs.txt"),
        "--out", str(texts / "bleu.tsv"),
    ]) == 0
    manifest = json.loads((texts / "bleu.tsv.manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["inputs"]) == {str(config), str(texts / "cand.txt"), str(texts / "refs.txt")}


def test_merge_vocab_files_with_report_exits_1(texts, capsys):
    write(texts / "pv.txt", ["a", "b"])
    write(texts / "cv.txt", ["b", "c"])
    code = main([
        "merge-vocab", "--parent-vocab", str(texts / "pv.txt"), "--child-vocab", str(texts / "cv.txt"),
        "--out", str(texts / "merged.txt"), "--report", str(texts / "r.tsv"),
    ])
    assert code == 1
    assert "--report" in capsys.readouterr().err
    assert not (texts / "merged.txt").exists() and not (texts / "r.tsv").exists()


def test_corpus_out_tsv_beside_out_source_exits_1(texts, capsys):
    write(texts / "s.txt", ["a b c"])
    write(texts / "t.txt", ["x y z"])
    code = main([
        "corpus", "pseudo", "--source", str(texts / "s.txt"), "--target", str(texts / "t.txt"),
        "--keep-percent", "0.5", "--seed", "1", "--out-tsv", str(texts / "o.tsv"),
        "--out-source", str(texts / "os.txt"), "--out-target", str(texts / "ot.txt"),
    ])
    assert code == 1
    assert "--out-tsv" in capsys.readouterr().err
    assert not any((texts / name).exists() for name in ("o.tsv", "os.txt", "ot.txt"))


def test_vocabulary_bad_byte_names_file_and_line(texts, capsys):
    vocab = texts / "bad.vocab"
    vocab.write_bytes(b"a\nb\nc\xff\n")
    code = main(["apply-wp", "--vocab", str(vocab), "--input", str(texts / "refs.txt"), "--out", str(texts / "o.txt")])
    assert code == 1
    assert f"{vocab}: line 3: invalid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0.5\t1.0", "1.5", "2.5\t3.0"], "line 2: expected 2 values, got 1"),
        (["0.5\t1.0", "1.5\t2.0", "x\t3.0"], "line 3: not a number: 'x'"),
    ],
)
def test_embeddings_tsv_bad_row_names_file_and_line(texts, capsys, rows, message):
    write(texts / "parent.vocab", ["a", "b", "c"])
    write(texts / "child.vocab", ["b", "x", "c"])
    write(texts / "emb.tsv", rows)
    code = main([
        "transform-vocab", "--parent-vocab", str(texts / "parent.vocab"), "--child-vocab", str(texts / "child.vocab"),
        "--embeddings", str(texts / "emb.tsv"), "--out-dir", str(texts / "bundle"),
    ])
    assert code == 1
    assert f"{texts / 'emb.tsv'}: {message}" in capsys.readouterr().err


def test_config_bad_byte_names_file_and_line(texts, capsys):
    config = texts / "run.conf"
    config.write_bytes(b"smoothing = none\ntokenize = \xffnone\n")
    code = main([
        "--config", str(config),
        "eval", "bleu", "--candidates", str(texts / "cand.txt"), "--references", str(texts / "refs.txt"),
    ])
    assert code == 1
    assert f"{config}: line 2: invalid UTF-8" in capsys.readouterr().err


def test_config_value_is_converted_by_the_flag_type(texts, capsys, monkeypatch):
    # A path that looks like a number stays a path, and is hashed as an output.
    monkeypatch.chdir(texts)
    config = texts / "run.conf"
    config.write_text("out = 2024\n", encoding="utf-8")
    assert main([
        "--config", str(config),
        "eval", "bleu", "--candidates", str(texts / "cand.txt"), "--references", str(texts / "refs.txt"),
    ]) == 0
    assert (texts / "2024").read_text(encoding="utf-8").startswith("score\t")
    manifest = json.loads((texts / "2024.manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["outputs"]) == {"2024"}


def test_config_key_reaches_only_commands_with_that_flag(texts):
    config = texts / "run.conf"
    config.write_text("seed = 5\n", encoding="utf-8")
    assert main([
        "--config", str(config),
        "learn-bpe", "--input", str(texts / "train.txt"), "--merges", "2", "--out", str(texts / "t.merges"),
    ]) == 0
    manifest = json.loads((texts / "t.merges.manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] is None


def test_config_unknown_key_names_file_and_line(texts, capsys):
    config = texts / "run.conf"
    config.write_text("smoothing = none\n\nsmothing = none\n", encoding="utf-8")
    code = main([
        "--config", str(config),
        "eval", "bleu", "--candidates", str(texts / "cand.txt"), "--references", str(texts / "refs.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"xfervocab: error: {config}: line 3: no command has a --smothing flag\n"


def test_config_list_flag_takes_whitespace_separated_items(texts, capsys):
    # `char_range` is an append flag: each item is one range, as if repeated.
    write(texts / "toy.vocab", ["the_", "cat_", "sat_", "on_", "mat_", *"abcdefghijklmnopqrstuvwxyz", *"\\;0123456789", "_"])
    config = texts / "run.conf"
    config.write_text("char_range = 0x61-0x62 0x74-0x74\n", encoding="utf-8")
    usage = ["diag", "usage", "--vocab", str(texts / "toy.vocab"), "--input", str(texts / "refs.txt")]
    assert main(["--config", str(config), *usage, "--out", str(texts / "conf.tsv")]) == 0
    assert main([*usage, "--char-range", "0x61-0x62", "--char-range", "0x74-0x74", "--out", str(texts / "flags.tsv")]) == 0
    assert main([*usage, "--char-range", "0x61-0x62", "--out", str(texts / "one.tsv")]) == 0
    conf = (texts / "conf.tsv").read_text(encoding="utf-8")
    assert conf == (texts / "flags.tsv").read_text(encoding="utf-8")
    assert conf != (texts / "one.tsv").read_text(encoding="utf-8")


def test_config_file_list_is_read_and_hashed_per_file(texts):
    write(texts / "parent.vocab", ["a", "b", "c", "d", *"\\;0123456789", "_"])
    write(texts / "c1.txt", ["a b a b", "b a"])
    write(texts / "c2.txt", ["c d c", "d d"])
    config = texts / "run.conf"
    config.write_text(f"child = {texts / 'c1.txt'} {texts / 'c2.txt'}\n", encoding="utf-8")
    transform = ["transform-vocab", "--parent-vocab", str(texts / "parent.vocab")]
    assert main(["--config", str(config), *transform, "--out-dir", str(texts / "conf")]) == 0
    assert main([*transform, "--child", str(texts / "c1.txt"), str(texts / "c2.txt"), "--out-dir", str(texts / "flags")]) == 0
    for name in ("vocabulary.txt", "mapping.tsv"):
        assert (texts / "conf" / name).read_bytes() == (texts / "flags" / name).read_bytes()
    manifest = json.loads((texts / "conf.manifest.json").read_text(encoding="utf-8"))
    assert {str(texts / "c1.txt"), str(texts / "c2.txt")} <= set(manifest["inputs"])


def test_config_labels_reach_diag_overlap(texts, capsys):
    write(texts / "ov.vocab", ["aa_", "bb_", *"ab", *"\\;0123456789", "_"])
    write(texts / "la.txt", ["aa aa"])
    write(texts / "lb.txt", ["bb bb"])
    config = texts / "run.conf"
    config.write_text("parent = plt\nchild = hy\n", encoding="utf-8")
    overlap = ["diag", "overlap", "--vocab", str(texts / "ov.vocab"), "--min-count", "1",
               "--corpus", f"plt={texts / 'la.txt'}", "--corpus", f"hy={texts / 'lb.txt'}"]
    assert main(["--config", str(config), *overlap, "--out", str(texts / "conf.tsv")]) == 0
    assert main([*overlap, "--parent", "plt", "--child", "hy", "--out", str(texts / "flags.tsv")]) == 0
    conf = (texts / "conf.tsv").read_text(encoding="utf-8")
    assert conf == (texts / "flags.tsv").read_text(encoding="utf-8")
    assert "unused_by_child" in conf


def test_config_items_of_a_repeatable_flag_come_first(texts):
    config = texts / "run.conf"
    config.write_text("parent = a b\n", encoding="utf-8")
    parser = build_parser()
    _apply_config(parser, str(config))
    args = parser.parse_args(["diag", "overlap", "--vocab", "v", "--corpus", "a=f", "--parent", "c"])
    assert args.parent == ["a", "b", "c"]
    assert parser.parse_args(["diag", "overlap", "--vocab", "v", "--corpus", "a=f"]).parent == ["a", "b"]
