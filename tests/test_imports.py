"""The package surface: every exported name still resolves, the learner and
the numpy-free evaluation names keep their old import paths, the steps that
never compute with numpy load only the modules their handlers call, no step
loads `dataclasses`, and every demo runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xfervocab
import xfervocab.evallite as evallite
import xfervocab.mteval as mteval
import xfervocab.wordpiece as wordpiece
import xfervocab.wordpiece_learner as wordpiece_learner
from tests.conftest import desk_parallel
from xfervocab.bpe import learn_bpe
from xfervocab.corpus import write_parallel
from xfervocab.wordpiece import Vocabulary

ROOT = Path(__file__).resolve().parents[1]

# Every name the package exported when its `__init__` imported each module.
EXPORTED = """
MergeRule MergeTable apply_bpe enumerate_substrings learn_bpe segment_sentence FilterReport ParallelCorpus
corrupt_word_order filter_by_subword_length filter_by_word_length load_parallel load_parallel_tsv make_pseudo_related
mix_with_oversample sample_equal subsample write_parallel write_parallel_tsv OverlapBreakdown length_filter_impact
overlap_breakdown segmentation_rate unicode_range_predicate vocab_usage AlignmentError CorpusDecodeError
CorpusFormatError EmbeddingShapeError EscapeDecodeError SampleSizeError XfervocabError BleuReport LearningCurve
SignificanceResult TokenOverlap bleu paired_bootstrap should_stop token_overlap_analysis MergedBuildReport
build_balanced_vocab build_merged_vocab merge_vocabs VocabMapping emit_transfer_bundle load_embeddings
map_vocabularies save_embeddings_binary save_embeddings_tsv transform_vocab Vocabulary VocabSpec WordpieceLearner
apply_wordpiece detokenize learn_wordpiece
""".split()


def run_python(args, cwd=None, **variables):
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_every_old_export_resolves():
    assert sorted(EXPORTED) == xfervocab.__all__
    for name in EXPORTED:
        module = xfervocab._MODULE_OF[name]
        assert getattr(xfervocab, name) is getattr(sys.modules[f"xfervocab.{module}"], name)
    with pytest.raises(AttributeError):
        xfervocab.no_such_name


def test_learner_keeps_its_wordpiece_import_path():
    for name in ("_CandidateBuilder", "WordpieceLearner", "learn_wordpiece"):
        assert getattr(wordpiece, name) is getattr(wordpiece_learner, name)
    with pytest.raises(AttributeError):
        wordpiece.no_such_name


def test_evaluation_names_keep_their_mteval_import_path():
    for name in (*xfervocab._EXPORTS["evallite"], "SMOOTHINGS", "TOKENIZATIONS"):
        assert getattr(mteval, name) is getattr(evallite, name)


def test_import_leaves_numpy_unimported():
    result = run_python(["-c", "import xfervocab, xfervocab.cli, sys; assert 'numpy' not in sys.modules"])
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def step_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("steps")
    corpus = desk_parallel(3, n_sentences=60, n_types=40)
    write_parallel(corpus, root / "a.src", root / "a.tgt")
    learn_bpe([list(corpus.sources)], 30).save(root / "t.merges")
    Vocabulary.with_ascii_fallback(["the", "ing_", "er"]).save(root / "v.txt")
    (root / "curve.tsv").write_text("step\tscore\n1\t10\n2\t15\n3\t16\n4\t16.01\n", encoding="utf-8")
    return root


# Each numpy-free step, and the modules it loads among the package's, numpy,
# dataclasses and inspect: the package, `cli`, `errors` and `textio`, plus
# those its handler calls and what they import.
BASE = {"xfervocab", "xfervocab.cli", "xfervocab.errors", "xfervocab.textio"}
WORDPIECE = {"xfervocab.wordpiece"}
CORPUS = {"xfervocab.corpus", *WORDPIECE}
EVALLITE = {"xfervocab.evallite"}
NUMPY_FREE_STEPS = {
    "learn-bpe": ("learn-bpe --input {d}/a.src --merges 5 --out {d}/a.merges", {"xfervocab.bpe"}),
    "apply-wp": ("apply-wp --vocab {d}/v.txt --input {d}/a.src --out {d}/a.wp", WORDPIECE),
    "apply-bpe": ("apply-bpe --table {d}/t.merges --input {d}/a.src --out {d}/a.bpe", {"xfervocab.bpe"}),
    "corpus filter": (
        "corpus filter --source {d}/a.src --target {d}/a.tgt --max-words 20 --max-subwords 40 --vocab {d}/v.txt "
        "--out-tsv {d}/f.tsv",
        CORPUS,
    ),
    "diag rate": (
        "diag rate --vocab {d}/v.txt --input {d}/a.src --out {d}/rate.tsv", {"xfervocab.diagnostics", *CORPUS}
    ),
    "corpus pseudo": (
        "corpus pseudo --source {d}/a.src --target {d}/a.tgt --keep-percent 0.5 --seed 1 --out-tsv {d}/p.tsv",
        CORPUS,
    ),
    "eval stop": ("eval stop --curve {d}/curve.tsv --out {d}/stop.tsv", EVALLITE),
    "eval token-analysis": (
        "eval token-analysis --child {d}/a.src --baseline {d}/a.tgt --references {d}/a.src --out {d}/overlap.tsv",
        EVALLITE,
    ),
}


@pytest.mark.parametrize("step", NUMPY_FREE_STEPS)
def test_step_runs_without_numpy(step_inputs, step):
    """A fresh step loads only the modules its handler calls: never numpy,
    dataclasses or the inspect module dataclasses imports, and no `wordpiece`
    for BPE."""
    script = (
        "import sys; from xfervocab.cli import main; code = main(sys.argv[1:]); "
        "tops = ('xfervocab', 'numpy', 'dataclasses', 'inspect'); "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in tops)); sys.exit(code)"
    )
    argv, loaded = NUMPY_FREE_STEPS[step]
    result = run_python(["-c", script, *argv.format(d=step_inputs).split()])
    assert result.returncode == 0, result.stderr
    printed = result.stdout.splitlines()[-1].split()
    assert not {"dataclasses", "inspect"} & set(printed)
    assert printed == sorted(BASE | loaded)


# Each step that computes with numpy.  numpy itself loads `inspect`, so only
# `dataclasses` is checked: no record of the package is a dataclass.
NUMPY_STEPS = {
    "eval bleu": "eval bleu --candidates {d}/a.tgt --references {d}/a.src --out {d}/bleu.tsv",
    "eval bootstrap": (
        "eval bootstrap --candidates-a {d}/a.src --candidates-b {d}/a.tgt --references {d}/a.src --samples 20 "
        "--seed 1 --out {d}/bootstrap.tsv"
    ),
    "transform-vocab": "transform-vocab --parent-vocab {d}/v.txt --child {d}/a.src --out-dir {d}/no-dataclasses",
    "merge-vocab": (
        "merge-vocab --parent-source {d}/a.src --parent-target {d}/a.tgt --child-source {d}/a.tgt --child-target "
        "{d}/a.src --target-size 60 --tolerance 0.2 --out {d}/m.vocab --report {d}/m.tsv"
    ),
    "balanced-vocab": (
        "balanced-vocab --parent-source {d}/a.src --parent-target {d}/a.tgt --child-source {d}/a.tgt "
        "--child-target {d}/a.src --target-size 60 --tolerance 0.2 --seed 2 --out {d}/b.vocab"
    ),
}


@pytest.mark.parametrize("step", NUMPY_STEPS)
def test_numpy_step_runs_without_dataclasses(step_inputs, step):
    script = (
        "import sys; from xfervocab.cli import main; code = main(sys.argv[1:]); "
        "print('numpy' in sys.modules, 'dataclasses' in sys.modules); sys.exit(code)"
    )
    result = run_python(["-c", script, *NUMPY_STEPS[step].format(d=step_inputs).split()])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True False"


def test_transform_vocab_loads_neither_diagnostics_nor_corpus(step_inputs):
    """The unused-parent count reads the unit table through `wordpiece`, so a
    fresh `transform-vocab` step loads no report or corpus module."""
    script = (
        "import sys; from xfervocab.cli import main; code = main(sys.argv[1:]); "
        "print(*sorted(m for m in sys.modules if m.startswith('xfervocab.'))); sys.exit(code)"
    )
    argv = "transform-vocab --parent-vocab {d}/v.txt --child {d}/a.src --out-dir {d}/bundle".format(d=step_inputs)
    result = run_python(["-c", script, *argv.split()])
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.splitlines()[-1].split())
    assert "xfervocab.transfer" in loaded
    assert not loaded & {"xfervocab.diagnostics", "xfervocab.corpus"}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_exits_0(demo, tmp_path):
    result = run_python([str(demo)], cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_shared_vocabularies_demo_ignores_the_hash_seed(tmp_path):
    # A set of strings iterates in hash-seed order; the demo must not depend on it.
    demo = str(ROOT / "demos" / "04_shared_vocabularies.py")
    runs = [run_python([demo], cwd=tmp_path, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    assert runs[0].stdout == runs[1].stdout


def test_handlers_call_the_names_set_on_the_cli_module(monkeypatch, tmp_path):
    # Wrapping a library function as an attribute of `xfervocab.cli`, as a
    # tracer does, reaches the handler, whether or not it has loaded yet.
    import xfervocab.cli as cli
    import xfervocab.mteval as mteval

    calls = []

    def wrapped_bleu(*args, **kwargs):
        calls.append(args[0])
        return mteval.bleu(*args, **kwargs)

    monkeypatch.setattr(cli, "bleu", wrapped_bleu, raising=False)
    (tmp_path / "c.txt").write_text("a b c\n", encoding="utf-8")
    files = ["--candidates", str(tmp_path / "c.txt"), "--references", str(tmp_path / "c.txt")]
    assert cli.main(["eval", "bleu", *files]) == 0
    assert calls == [["a b c"]]


def test_every_source_file_parses_as_python_3_10():
    """Best effort for the oldest supported Python: this checks grammar only
    (`ast.parse`'s feature_version), not which stdlib APIs a file calls."""
    tops = ("src", "tests", "scale", "demos", "perfbench")
    files = sorted(path for top in tops for path in (ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
