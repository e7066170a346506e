"""Command-line driver: subcommands, exit codes, manifests, reproducibility."""

import json

import pytest

from xfervocab.cli import main


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
    code = main(["eval", "bleu", "--candidates", str(texts / "cand.txt"), "--references", str(texts / "refs.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("100.00")
    assert "smooth.exponential" in out


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


def test_corpus_filter_with_report(texts):
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
    lines = report_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "kept\tdropped\tdropped_fraction"
    assert lines[1].startswith("1\t1\t")


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
    assert main(["eval", "stop", "--curve", str(texts / "curve.tsv")]) == 0
    assert "stop true\tbest_step 6" in capsys.readouterr().out
    assert main([
        "eval", "bootstrap",
        "--candidates-a", str(texts / "cand.txt"), "--candidates-b", str(texts / "worse.txt"),
        "--references", str(texts / "refs.txt"), "--samples", "200", "--seed", "4",
        "--out", str(texts / "sig.tsv"),
    ]) == 0
    out = capsys.readouterr().out
    assert "wins_a 200" in out
    assert (texts / "sig.tsv").read_text(encoding="utf-8").splitlines()[1].split("\t")[4] == "A"


def test_eval_token_analysis(texts, capsys):
    write(texts / "child.txt", ["a b"])
    write(texts / "base.txt", ["a"])
    write(texts / "tref.txt", ["b"])
    assert main([
        "eval", "token-analysis",
        "--child", str(texts / "child.txt"), "--baseline", str(texts / "base.txt"),
        "--references", str(texts / "tref.txt"),
    ]) == 0
    assert "baseline_only 1\treference_only 1" in capsys.readouterr().out


def test_diag_rate_and_usage(texts, capsys):
    write(texts / "toy.vocab", ["the_", "cat_", "sat_", "on_", "mat_", *"abcdefghijklmnopqrstuvwxyz", *"\\;0123456789", "_"])
    assert main(["diag", "rate", "--vocab", str(texts / "toy.vocab"), "--input", str(texts / "refs.txt")]) == 0
    rate_line = capsys.readouterr().out.strip()
    assert rate_line.startswith("segmentation_rate\t")
    assert float(rate_line.split("\t")[1]) >= 1.0
    assert main(["diag", "usage", "--vocab", str(texts / "toy.vocab"), "--input", str(texts / "refs.txt")]) == 0


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
    report = (texts / "ov.tsv").read_text(encoding="utf-8")
    assert "A\t" in report and "unused_by_child" in report


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
    assert (texts / "m.tsv").read_text(encoding="utf-8").startswith("initial_size_tried\t")
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
    assert "dropped_fraction 0.5" in capsys.readouterr().out


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
    ],
)
def test_apply_bpe_bad_merge_file_names_file_and_line(texts, capsys, rules, message):
    table = texts / "merges.txt"
    table.write_bytes(b"#version: xfervocab-1\n" + rules)
    code = main(["apply-bpe", "--table", str(table), "--input", str(texts / "refs.txt"), "--out", str(texts / "o.txt")])
    assert code == 1
    assert f"{table}: {message}" in capsys.readouterr().err
