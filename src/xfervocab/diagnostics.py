"""Vocabulary and segmentation diagnostics over corpora.

Read-only analytics: segmentation rate, vocabulary usage, per-language
overlap breakdown, and the impact of subword-length filtering.  The rate,
usage and overlap reports count tokens over the corpus's table of distinct
units with `wordpiece._unit_token_counts`, which segments each distinct
unit once, not sentence by sentence.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import FilterReport, ParallelCorpus, filter_by_subword_length
from .textio import render_tsv
from .wordpiece import Vocabulary, _count_units, _unit_token_counts


def segmentation_rate(vocab: Vocabulary, sentences: Iterable[str]) -> float:
    """Average wordpiece tokens per whitespace word over the corpus."""
    sentences = list(sentences)
    tokens = sum(_token_counts(vocab, sentences).values())
    words = sum(len(sentence.split()) for sentence in sentences)
    if words == 0:
        raise ValueError("cannot compute a segmentation rate over an empty corpus")
    return tokens / words


def unicode_range_predicate(ranges: Sequence[tuple[int, int]]) -> Callable[[str], bool]:
    """Token predicate: has at least one character inside the inclusive
    code-point ranges (e.g. [(0x0400, 0x04FF)] for Cyrillic)."""

    def predicate(token: str) -> bool:
        for ch in token:
            code = ord(ch)
            for lo, hi in ranges:
                if lo <= code <= hi:
                    return True
        return False

    return predicate


def _token_counts(vocab: Vocabulary, sentences: Iterable[str]) -> Counter:
    """Each token's count in the corpus segmented under `vocab`: the one count
    behind the rate, usage and overlap reports.  A vocabulary that cannot
    segment refuses any sentence, even an empty one, as `apply_wordpiece`
    does."""
    sentences = iter(sentences)
    first = next(sentences, None)
    if first is None:
        return Counter()
    return _unit_token_counts(vocab, _count_units([[first], sentences], None))


def vocab_usage(
    vocab: Vocabulary,
    sentences: Iterable[str],
    token_filter: Callable[[str], bool] | None = None,
) -> float:
    """Fraction of (optionally filtered) vocabulary tokens observed at least
    once in the segmented corpus."""
    considered = [tok for tok in vocab if token_filter is None or token_filter(tok)]
    if not considered:
        return 0.0
    counts = _token_counts(vocab, sentences)
    return sum(1 for tok in considered if counts[tok]) / len(considered)


class OverlapBreakdown(NamedTuple):
    """Vocabulary tokens classed by the exact set of languages using them.

    A token belongs to a language when its count in that language's
    segmented corpus reaches overlap_breakdown's min_count; tokens below it
    everywhere are counted as never_observed.
    """

    classes: dict[frozenset[str], int]
    reused_parent: int | None
    unused_by_child: int | None
    never_observed: int
    vocabulary_size: int

    def to_tsv(self) -> str:
        subsets = sorted(self.classes, key=lambda s: (len(s), sorted(s)))
        counts = [("+".join(sorted(subset)), self.classes[subset]) for subset in subsets]
        counts.append(("never_observed", self.never_observed))
        if self.reused_parent is not None:
            counts.append(("reused_parent", self.reused_parent))
        if self.unused_by_child is not None:
            counts.append(("unused_by_child", self.unused_by_child))
        total = self.vocabulary_size
        rows = [(name, count, f"{100.0 * count / total:.2f}") for name, count in counts]
        return render_tsv([("languages", "tokens", "percent"), *rows])


def overlap_breakdown(
    vocab: Vocabulary,
    corpora: Mapping[str, Iterable[str]],
    min_count: int = 10,
    parent_langs: Sequence[str] = (),
    child_langs: Sequence[str] = (),
) -> OverlapBreakdown:
    """Break the vocabulary into classes keyed by the exact language subset
    using each token.

    reused_parent counts tokens observed in at least one parent language and
    at least one child language (the parent knowledge the child benefits
    from); unused_by_child counts tokens observed somewhere but in no child
    language.  Both are None when the respective role list is empty.
    """
    if len(corpora) < 2:
        raise ValueError("overlap breakdown needs at least two labeled corpora")
    if not len(vocab):  # each class's percent is of the vocabulary's size
        raise ValueError("overlap breakdown needs a nonempty vocabulary")
    if min_count < 1:
        raise ValueError(f"min_count must be at least 1, got {min_count}")
    for lang in list(parent_langs) + list(child_langs):
        if lang not in corpora:
            raise ValueError(f"role language {lang!r} has no labeled corpus")

    counts = {lang: _token_counts(vocab, sentences) for lang, sentences in corpora.items()}
    classes = Counter(frozenset(lang for lang, count in counts.items() if count[tok] >= min_count) for tok in vocab)
    never_observed = classes.pop(frozenset(), 0)

    parent_set, child_set = set(parent_langs), set(child_langs)
    reused = None
    if parent_set and child_set:
        reused = sum(
            count for subset, count in classes.items() if subset & parent_set and subset & child_set
        )
    unused = None
    if child_set:
        unused = sum(count for subset, count in classes.items() if not subset & child_set)

    return OverlapBreakdown(
        classes=classes,
        reused_parent=reused,
        unused_by_child=unused,
        never_observed=never_observed,
        vocabulary_size=len(vocab),
    )


def length_filter_impact(vocab: Vocabulary, corpus: ParallelCorpus, threshold: int) -> FilterReport:
    """How much of the corpus a subword-length filter would remove."""
    _, report = filter_by_subword_length(corpus, vocab, threshold)
    return report
