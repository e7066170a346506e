"""xfervocab: corpus and subword-vocabulary engineering for transfer learning.

Deterministic building blocks for preparing, transforming, and diagnosing
subword vocabularies (wordpiece and BPE), manipulating parallel corpora,
and computing MT evaluation statistics.  Everything is a pure function over
immutable values; every stochastic operation takes an explicit seed.
"""

import importlib

# Each name is imported from its module on first access (PEP 562), so numpy
# loads only with a name that needs it.
_EXPORTS = {
    "bpe": ("MergeRule", "MergeTable", "apply_bpe", "enumerate_substrings", "learn_bpe", "segment_sentence"),
    "corpus": (
        "FilterReport", "ParallelCorpus", "corrupt_word_order", "filter_by_subword_length", "filter_by_word_length",
        "load_parallel", "load_parallel_tsv", "make_pseudo_related", "mix_with_oversample", "sample_equal",
        "subsample", "write_parallel", "write_parallel_tsv",
    ),
    "diagnostics": (
        "OverlapBreakdown", "length_filter_impact", "overlap_breakdown", "segmentation_rate",
        "unicode_range_predicate", "vocab_usage",
    ),
    "errors": (
        "AlignmentError", "CorpusDecodeError", "CorpusFormatError", "EmbeddingShapeError", "EscapeDecodeError",
        "SampleSizeError", "XfervocabError",
    ),
    "evallite": ("LearningCurve", "TokenOverlap", "should_stop", "token_overlap_analysis"),
    "mteval": ("BleuReport", "SignificanceResult", "bleu", "paired_bootstrap"),
    "sharedvocab": ("MergedBuildReport", "build_balanced_vocab", "build_merged_vocab", "merge_vocabs"),
    "transfer": (
        "VocabMapping", "emit_transfer_bundle", "load_embeddings", "map_vocabularies", "save_embeddings_binary",
        "save_embeddings_tsv", "transform_vocab",
    ),
    "wordpiece": ("Vocabulary", "VocabSpec", "apply_wordpiece", "detokenize"),
    "wordpiece_learner": ("WordpieceLearner", "learn_wordpiece"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

