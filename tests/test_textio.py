"""The line writer and the TSV renderer that every artifact goes through.

Each report's `to_tsv` is compared with the f-string body it replaced, kept
here as an oracle.  The new code gets numpy float cells where the oracle
gets the same value as a Python float: `f"{np.float64(0.05)!r}"` is
`np.float64(0.05)` under numpy 2, so only `repr(float(x))` agrees.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from xfervocab.corpus import FilterReport, ParallelCorpus, load_parallel_tsv, write_parallel_tsv
from xfervocab.diagnostics import OverlapBreakdown
from xfervocab.errors import CorpusFormatError
from xfervocab.evallite import LearningCurve, TokenOverlap
from xfervocab.mteval import BleuReport, SignificanceResult
from xfervocab.sharedvocab import MergedBuildReport
from xfervocab.textio import read_lines, render_tsv, write_lines
from xfervocab.transfer import (
    MappingEntry,
    VocabMapping,
    emit_transfer_bundle,
    load_embeddings_tsv,
    save_embeddings_tsv,
)


def oracle_filter_tsv(self):
    return f"kept\tdropped\tdropped_fraction\n{self.kept}\t{self.dropped}\t{self.dropped_fraction!r}\n"


def oracle_merged_build_tsv(self):
    return (
        "initial_size_tried\tfinal_size\titerations\twithin_tolerance\n"
        f"{self.initial_size_tried}\t{self.final_size}\t{self.iterations}\t"
        f"{str(self.within_tolerance).lower()}\n"
    )


def oracle_bleu_tsv(self):
    header = ["score", "bp", "sys_len", "ref_len"]
    header += [f"p{n}" for n in range(1, self.n_max + 1)]
    header += ["smoothing", "tokenization", "signature"]
    row = [f"{self.score:.6f}", f"{self.bp:.6f}", str(self.sys_len), str(self.ref_len)]
    row += [f"{p:.6f}" for p in self.precisions]
    row += [self.smoothing, self.tokenization, self.signature()]
    return "\t".join(header) + "\n" + "\t".join(row) + "\n"


def oracle_significance_tsv(self):
    return (
        "wins_a\twins_b\tties\tsamples\tbetter\tconfidence_level\n"
        f"{self.wins_a}\t{self.wins_b}\t{self.ties}\t{self.samples}\t{self.better}\t"
        f"{self.confidence_level!r}\n"
    )


def oracle_curve_tsv(self):
    lines = ["step\tscore"]
    lines += [f"{step}\t{score!r}" for step, score in self.points]
    return "\n".join(lines) + "\n"


def oracle_token_overlap_tsv(self):
    return (
        "baseline_and_reference\tbaseline_only\treference_only\tneither\ttotal\n"
        f"{self.baseline_and_reference}\t{self.baseline_only}\t{self.reference_only}\t"
        f"{self.neither}\t{self.total}\n"
    )


def oracle_overlap_breakdown_tsv(self):
    lines = ["languages\ttokens\tpercent"]
    total = self.vocabulary_size
    for subset in sorted(self.classes, key=lambda s: (len(s), sorted(s))):
        langs = "+".join(sorted(subset))
        count = self.classes[subset]
        lines.append(f"{langs}\t{count}\t{100.0 * count / total:.2f}")
    lines.append(f"never_observed\t{self.never_observed}\t{100.0 * self.never_observed / total:.2f}")
    if self.reused_parent is not None:
        lines.append(f"reused_parent\t{self.reused_parent}\t{100.0 * self.reused_parent / total:.2f}")
    if self.unused_by_child is not None:
        lines.append(f"unused_by_child\t{self.unused_by_child}\t{100.0 * self.unused_by_child / total:.2f}")
    return "\n".join(lines) + "\n"


def oracle_mapping_tsv(self):
    lines = ["slot\tparent\tchild\tshared"]
    for e in self.entries:
        lines.append(f"{e.slot}\t{e.parent_token}\t{e.child_token}\t{str(e.shared).lower()}")
    return "\n".join(lines) + "\n"


def oracle_unused_parent_tsv(mapping):
    lines = ["slot\tparent"]
    if mapping.used_parent_slots is not None:
        for entry in mapping.entries:
            if entry.slot not in mapping.used_parent_slots:
                lines.append(f"{entry.slot}\t{entry.parent_token}")
    return "\n".join(lines) + "\n"


def oracle_rate_tsv(rate):
    return f"segmentation_rate\n{rate!r}\n"


def oracle_usage_tsv(usage):
    return f"vocab_usage\n{usage!r}\n"


def oracle_stop_tsv(stop, best_step):
    return f"stop\tbest_step\n{str(stop).lower()}\t{best_step}\n"


# A float as a Python float, a numpy float64 or a numpy float32.
floats = st.one_of(st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32))
counts = st.integers(0, 10**9)
# Cell text: arbitrary Unicode scalar values (no surrogates, which UTF-8 cannot
# encode) without the two characters a cell may not hold.
cells = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n"))
tokens = st.text("abcdefghij", min_size=1, max_size=4)


def test_cell_rules():
    assert render_tsv([]) == ""
    assert render_tsv([("a", 1, True, False, 0.05, np.float64(0.05), np.float32(0.5), np.int64(7))]) == (
        "a\t1\ttrue\tfalse\t0.05\t0.05\t0.5\t7\n"
    )
    assert render_tsv([(float("nan"), float("-inf"), -0.0)]) == "nan\t-inf\t-0.0\n"
    for bad in ("a\tb", "a\nb", "\t", "\n"):
        with pytest.raises(CorpusFormatError, match="contains a tab or newline"):
            render_tsv([("ok", bad)])


@settings(max_examples=200, deadline=None)
@given(counts, counts, floats)
def test_filter_report_matches_oracle(kept, dropped, fraction):
    oracle = oracle_filter_tsv(FilterReport(kept, dropped, float(fraction)))
    assert FilterReport(kept, dropped, fraction).to_tsv() == oracle


@settings(max_examples=100, deadline=None)
@given(counts, counts, counts, st.booleans())
def test_merged_build_report_matches_oracle(initial, final, iterations, within):
    report = MergedBuildReport(initial, final, iterations, within)
    assert report.to_tsv() == oracle_merged_build_tsv(report)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0, 100),
    st.floats(0, 1),
    counts,
    counts,
    st.lists(st.floats(0, 1), min_size=1, max_size=5),
    st.sampled_from(["none", "exponential"]),
    st.sampled_from(["none", "intl"]),
)
def test_bleu_report_matches_oracle(score, bp, sys_len, ref_len, precisions, smoothing, tokenization):
    n_max = len(precisions)
    weights = (1 / n_max,) * n_max
    report = BleuReport(score, tuple(precisions), weights, bp, sys_len, ref_len, smoothing, tokenization, n_max)
    assert report.to_tsv() == oracle_bleu_tsv(report)


@settings(max_examples=200, deadline=None)
@given(counts, counts, counts, counts, st.sampled_from(["A", "B", "none"]), floats)
def test_significance_result_matches_oracle(wins_a, wins_b, ties, samples, better, level):
    result = SignificanceResult(wins_a, wins_b, ties, samples, better, level)
    oracle = oracle_significance_tsv(SignificanceResult(wins_a, wins_b, ties, samples, better, float(level)))
    assert result.to_tsv() == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-(10**6), 10**6), floats), max_size=8, unique_by=lambda p: p[0]))
def test_learning_curve_matches_oracle(points):
    points = sorted(points, key=lambda p: p[0])
    curve = LearningCurve(tuple(points))
    assert curve.to_tsv() == oracle_curve_tsv(LearningCurve(tuple((step, float(score)) for step, score in points)))


@settings(max_examples=100, deadline=None)
@given(counts, counts, counts, counts)
def test_token_overlap_matches_oracle(both, base_only, ref_only, neither):
    overlap = TokenOverlap(both, base_only, ref_only, neither)
    assert overlap.to_tsv() == oracle_token_overlap_tsv(overlap)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.frozensets(st.text("abcxyz", min_size=1), min_size=1, max_size=3), counts, max_size=6),
    st.none() | counts,
    st.none() | counts,
    counts,
    st.integers(1, 10**9),
)
def test_overlap_breakdown_matches_oracle(classes, reused, unused, never, size):
    breakdown = OverlapBreakdown(classes, reused, unused, 10, never, size)
    assert breakdown.to_tsv() == oracle_overlap_breakdown_tsv(breakdown)


@st.composite
def mappings(draw, token_strategy=cells.filter(bool)):
    parent = draw(st.lists(token_strategy, min_size=1, max_size=8, unique=True))
    child = draw(st.permutations(parent))
    entries = tuple(MappingEntry(slot, p, c, p == c) for slot, (p, c) in enumerate(zip(parent, child)))
    used = draw(st.none() | st.frozensets(st.integers(0, len(parent) - 1)))
    return VocabMapping(entries, "frequency", None, used)


@settings(max_examples=200, deadline=None)
@given(mappings())
def test_vocab_mapping_matches_oracle(mapping):
    assert mapping.to_tsv() == oracle_mapping_tsv(mapping)


@settings(max_examples=50, deadline=None)
@given(mappings(tokens))
def test_bundle_reports_match_oracles(mapping):
    with tempfile.TemporaryDirectory() as tmp:
        bundle = emit_transfer_bundle(mapping, np.zeros((len(mapping.entries), 2), dtype=np.float32), tmp)
        assert bundle.mapping_path.read_text(encoding="utf-8") == oracle_mapping_tsv(mapping)
        assert bundle.unused_parent_path.read_text(encoding="utf-8") == oracle_unused_parent_tsv(mapping)


@settings(max_examples=200, deadline=None)
@given(floats, st.booleans(), st.integers())
def test_cli_one_row_reports_match_oracles(value, stop, best_step):
    assert render_tsv([("segmentation_rate",), (value,)]) == oracle_rate_tsv(float(value))
    assert render_tsv([("vocab_usage",), (value,)]) == oracle_usage_tsv(float(value))
    assert render_tsv([("stop", "best_step"), (stop, best_step)]) == oracle_stop_tsv(stop, best_step)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("textio")


@settings(max_examples=100, deadline=None)
@given(st.lists(cells, max_size=6))
def test_write_lines_roundtrips_through_read_lines(scratch, lines):
    write_lines(scratch / "lines.txt", lines)
    assert read_lines(scratch / "lines.txt") == lines
    assert (scratch / "lines.txt").read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(cells, cells), max_size=8))
def test_parallel_tsv_roundtrip(scratch, pairs):
    corpus = ParallelCorpus.from_pairs(pairs)
    write_parallel_tsv(corpus, scratch / "corpus.tsv")
    assert load_parallel_tsv(scratch / "corpus.tsv").pairs == pairs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(), st.floats(allow_nan=False)), max_size=8, unique_by=lambda p: p[0]))
def test_learning_curve_tsv_roundtrip(scratch, points):
    curve = LearningCurve(tuple(sorted(points)))
    (scratch / "curve.tsv").write_text(curve.to_tsv(), encoding="utf-8")
    assert LearningCurve.from_tsv(scratch / "curve.tsv") == curve


@settings(max_examples=200, deadline=None)
@given(arrays(np.float32, array_shapes(min_dims=2, max_dims=2), elements=st.floats(width=32, allow_nan=False)))
def test_embeddings_tsv_roundtrip_is_bit_equal(scratch, matrix):
    save_embeddings_tsv(matrix, scratch / "emb.tsv")
    loaded = load_embeddings_tsv(scratch / "emb.tsv")
    assert loaded.dtype == np.float32 and loaded.shape == matrix.shape
    assert loaded.tobytes() == matrix.tobytes()
