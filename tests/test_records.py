"""The toolkit's records are immutable values: equal fields compare and hash
equal, the repr names every field, assignment raises, and the validating
records refuse bad input with the same messages and keep their own copy of
the sequences they are given."""

from pathlib import PurePosixPath

import pytest

from xfervocab.corpus import FilterReport, ParallelCorpus
from xfervocab.diagnostics import OverlapBreakdown
from xfervocab.errors import AlignmentError, CorpusFormatError
from xfervocab.evallite import LearningCurve, TokenOverlap
from xfervocab.mteval import BleuReport, SignificanceResult
from xfervocab.sharedvocab import MergedBuildReport
from xfervocab.transfer import MappingEntry, TransferBundle, VocabMapping
from xfervocab.wordpiece import VocabSpec

# (record, the same record built again, a different one, its repr); a field of each is assigned below.
RECORDS = {
    "ParallelCorpus": (
        lambda: ParallelCorpus(("a b",), ("c d",)),
        lambda: ParallelCorpus.from_pairs([("a b", "c d")]),
        lambda: ParallelCorpus(("a b",), ("c e",)),
        "ParallelCorpus(sources=('a b',), targets=('c d',))",
    ),
    "FilterReport": (
        lambda: FilterReport(3, 1, 0.25),
        lambda: FilterReport.from_counts(3, 1),
        lambda: FilterReport(1, 3, 0.75),
        "FilterReport(kept=3, dropped=1, dropped_fraction=0.25)",
    ),
    "OverlapBreakdown": (
        lambda: OverlapBreakdown({frozenset({"cs"}): 2}, None, 1, 3, 5),
        lambda: OverlapBreakdown(
            classes={frozenset({"cs"}): 2}, reused_parent=None, unused_by_child=1, never_observed=3, vocabulary_size=5
        ),
        lambda: OverlapBreakdown({frozenset({"cs"}): 2}, 0, 1, 3, 5),
        "OverlapBreakdown(classes={frozenset({'cs'}): 2}, reused_parent=None, unused_by_child=1, never_observed=3, "
        "vocabulary_size=5)",
    ),
    "LearningCurve": (
        lambda: LearningCurve(((1, 10.0), (2, 15.0))),
        lambda: LearningCurve(((1, 10.0), (2, 15.0))),
        lambda: LearningCurve(((1, 10.0),)),
        "LearningCurve(points=((1, 10.0), (2, 15.0)))",
    ),
    "TokenOverlap": (
        lambda: TokenOverlap(1, 2, 3, 4),
        lambda: TokenOverlap(baseline_and_reference=1, baseline_only=2, reference_only=3, neither=4),
        lambda: TokenOverlap(4, 3, 2, 1),
        "TokenOverlap(baseline_and_reference=1, baseline_only=2, reference_only=3, neither=4)",
    ),
    "VocabSpec": (
        lambda: VocabSpec(100),
        lambda: VocabSpec(target_size=100, tolerance=0.01),
        lambda: VocabSpec(100, 0.02),
        "VocabSpec(target_size=100, tolerance=0.01)",
    ),
    "BleuReport": (
        lambda: BleuReport(12.5, (0.5, 0.25), 0.9, 10, 11, "exponential", "intl", 2),
        lambda: BleuReport(
            score=12.5, precisions=(0.5, 0.25), bp=0.9, sys_len=10, ref_len=11, smoothing="exponential",
            tokenization="intl", n_max=2, num_refs=1,
        ),
        lambda: BleuReport(12.5, (0.5, 0.25), 0.9, 10, 11, "exponential", "intl", 2, 2),
        "BleuReport(score=12.5, precisions=(0.5, 0.25), bp=0.9, sys_len=10, ref_len=11, smoothing='exponential', "
        "tokenization='intl', n_max=2, num_refs=1)",
    ),
    "SignificanceResult": (
        lambda: SignificanceResult(9, 1, 0, 10, "A", 0.05),
        lambda: SignificanceResult(wins_a=9, wins_b=1, ties=0, samples=10, better="A", confidence_level=0.05),
        lambda: SignificanceResult(1, 9, 0, 10, "B", 0.05),
        "SignificanceResult(wins_a=9, wins_b=1, ties=0, samples=10, better='A', confidence_level=0.05)",
    ),
    "MergedBuildReport": (
        lambda: MergedBuildReport(75, 100, 3, True),
        lambda: MergedBuildReport(initial_size_tried=75, final_size=100, iterations=3, within_tolerance=True),
        lambda: MergedBuildReport(75, 120, 3, False),
        "MergedBuildReport(initial_size_tried=75, final_size=100, iterations=3, within_tolerance=True)",
    ),
    "MappingEntry": (
        lambda: MappingEntry(0, "a", "b", False),
        lambda: MappingEntry(slot=0, parent_token="a", child_token="b", shared=False, filled_from_parent=False),
        lambda: MappingEntry(0, "a", "b", False, True),
        "MappingEntry(slot=0, parent_token='a', child_token='b', shared=False, filled_from_parent=False)",
    ),
    "VocabMapping": (
        lambda: VocabMapping((MappingEntry(0, "a", "a", True),)),
        lambda: VocabMapping(entries=(MappingEntry(0, "a", "a", True),), used_parent_slots=None),
        lambda: VocabMapping((MappingEntry(0, "a", "a", True),), frozenset({0})),
        "VocabMapping(entries=(MappingEntry(slot=0, parent_token='a', child_token='a', shared=True, "
        "filled_from_parent=False),), used_parent_slots=None)",
    ),
    "TransferBundle": (
        lambda: TransferBundle(PurePosixPath("v.txt"), None, PurePosixPath("m.tsv"), None),
        lambda: TransferBundle(
            vocabulary_path=PurePosixPath("v.txt"), embeddings_path=None, mapping_path=PurePosixPath("m.tsv"),
            unused_parent_path=None,
        ),
        lambda: TransferBundle(PurePosixPath("v.txt"), PurePosixPath("e.bin"), PurePosixPath("m.tsv"), None),
        "TransferBundle(vocabulary_path=PurePosixPath('v.txt'), embeddings_path=None, "
        "mapping_path=PurePosixPath('m.tsv'), unused_parent_path=None)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    make, again, other, text = RECORDS[name]
    record = make()
    assert record == again() and not record != again()
    assert record != other() and record != text
    if name == "OverlapBreakdown":  # a dict field: unhashable, as a frozen dataclass holding one is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again())
        assert len({record, again(), other()}) == 2
    assert repr(record) == text
    field = text.partition("(")[2].partition("=")[0]
    for attribute in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    assert record == again()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ParallelCorpus(("a",), ()), AlignmentError, "source has 1 sentences but target has 0"),
        (lambda: ParallelCorpus(("a",), ("b\nc",)), CorpusFormatError, "sentence contains a newline: 'b\\nc'"),
        (lambda: LearningCurve(((1, float("nan")),)), ValueError, "score at step 1 is not a number"),
        (
            lambda: LearningCurve(((2, 1.0), (2, 3.0))),
            ValueError,
            "step 2 does not follow step 2; learning curve steps must be strictly increasing",
        ),
        (lambda: VocabSpec(100, 0.5), ValueError, "tolerance must be in (0, 0.5)"),
        (lambda: VocabSpec(0, 0.7), ValueError, "tolerance must be in (0, 0.5)"),  # tolerance is checked first
        (lambda: VocabSpec(0), ValueError, "target_size must be positive"),
    ],
)
def test_record_validation_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_vocab_spec_default_tolerance_is_a_class_attribute():
    assert VocabSpec.tolerance == 0.01
    assert VocabSpec(5).tolerance == 0.01 and VocabSpec(5, 0.2).tolerance == 0.2


def test_validating_records_keep_their_own_sequences():
    """Lists given to a validating record are copied into tuples: mutating them
    afterwards cannot bypass validation, and the record equals and hashes as
    one built from tuples."""
    sources, targets = ["a b"], ["c d"]
    corpus = ParallelCorpus(sources, targets)
    sources.append("x")
    assert corpus.sources == ("a b",) and len(list(corpus)) == len(corpus) == 1
    assert corpus == ParallelCorpus(("a b",), ("c d",))
    assert hash(corpus) == hash(ParallelCorpus(("a b",), ("c d",)))

    points = [[1, 2.0]]
    curve = LearningCurve(points)
    points.append([1, float("nan")])
    points[0][1] = float("nan")
    assert curve.points == ((1, 2.0),) and len(curve) == 1
    assert curve == LearningCurve(((1, 2.0),)) and hash(curve) == hash(LearningCurve(((1, 2.0),)))
