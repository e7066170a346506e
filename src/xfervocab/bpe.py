"""Byte pair encoding: merge-table learning, application, and substring sets.

Learning counts word types weighted by corpus frequency and repeatedly
merges the most frequent adjacent symbol pair.  Ties are broken by the
higher current corpus frequency of the left symbol, then by lexicographic
pair order in which the bare end-of-word symbol sorts after every ordinary
symbol, so learning is deterministic.

A merge recounts each word that holds its pair: the word's frequency comes
off every adjacent pair of the old word and goes onto every adjacent pair of
the new one.  Every adjacency of the new word without the merged symbol was
one of the old word, so only a pair holding the merged symbol can rise.
Each merge is taken from a heap keyed by exactly that order, and heap
entries go stale lazily: a popped entry is dropped if its pair was already
merged or its count is zero, and pushed back with the pair's current key if
that key has changed.  This picks the true minimum as long as every live
pair keeps an entry no worse than its current key, so a merge pushes a
fresh entry for each pair holding the merged symbol, and for each live pair
with that symbol on the left, which the symbol's rising count improves.
Such pairs can predate the merge, because one string can be built by two
merge paths: "a<" + "/w>" inside a word, then "a" plus the end-of-word
marker.  Entries are pushed after the merge has recounted all its words,
when its counts are final, so the order of the words does not matter.

Application replays the merges by learned priority and renders continuation
tokens with a trailing "@@".  Each table memoizes the tokens of the words it
has segmented in a least-recently-used cache of a fixed number of words.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CorpusFormatError
from .textio import read_model_lines, write_lines

END_OF_WORD = "</w>"
MERGE_FILE_HEADER = "#version: xfervocab-1"
# Words whose tokens one MergeTable remembers, the least recently used
# forgotten first; read when the table is made.
_WORD_CACHE_SIZE = 1 << 16


class MergeRule(NamedTuple):
    left: str
    right: str


class MergeTable:
    """Ordered BPE merge rules; order is both learning order and priority."""

    def __init__(self, rules: Sequence[MergeRule | tuple[str, str]]):
        cleaned = [MergeRule(*rule) for rule in rules]
        problem = _first_bad_rule(cleaned)
        if problem is not None:
            raise ValueError(problem[1])
        self.rules = cleaned
        self._ranks = {rule: i for i, rule in enumerate(cleaned)}
        self._words = functools.lru_cache(maxsize=_WORD_CACHE_SIZE)(functools.partial(_segment_word, self._ranks))

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[MergeRule]:
        return iter(self.rules)

    def __eq__(self, other) -> bool:
        return isinstance(other, MergeTable) and self.rules == other.rules

    def save(self, path: str | Path) -> None:
        write_lines(path, [MERGE_FILE_HEADER] + [f"{left} {right}" for left, right in self.rules])

    @classmethod
    def load(cls, path: str | Path) -> "MergeTable":
        lines = read_model_lines(path)
        if not lines or lines[0] != MERGE_FILE_HEADER:
            raise CorpusFormatError(f"{path}: missing merge file header {MERGE_FILE_HEADER!r}")
        rules = []
        for i, line in enumerate(lines[1:], start=2):
            parts = line.split(" ")
            if len(parts) != 2:
                raise CorpusFormatError(f"{path}: line {i}: expected 'left right'")
            rules.append(MergeRule(parts[0], parts[1]))
        try:
            return cls(rules)
        except ValueError:  # only validation raises; find the line again
            index, message = _first_bad_rule(rules)
            raise CorpusFormatError(f"{path}: line {index + 2}: {message}") from None


def _first_bad_rule(rules: list[MergeRule]) -> tuple[int, str] | None:
    """The index of the first rule with an empty side, whitespace in a side
    (no word it could apply to), or seen before, and what is wrong with it;
    None when every rule is valid."""
    seen = set()
    for i, rule in enumerate(rules):
        if not rule.left or not rule.right:
            return i, f"merge rule {rule} has an empty side"
        if any(c.isspace() for c in rule.left + rule.right):
            return i, f"merge rule {rule} has whitespace in a side"
        if rule in seen:
            return i, f"duplicate merge rule {rule}"
        seen.add(rule)
    return None


def _merge_word(symbols: list[str], left: str, right: str) -> list[str]:
    merged = left + right
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def learn_bpe(corpora: Sequence[Iterable[str]], num_merges: int) -> MergeTable:
    """Learn num_merges merge rules jointly over the given corpora.

    Pair counts are maintained incrementally: only the words holding the
    merged pair are recounted, and only the pairs holding the merged symbol
    are pushed as risen.  Each merge is the top of a lazily revalidated heap
    (see the module docstring).
    """
    if num_merges < 1:
        raise ValueError("num_merges must be at least 1")
    word_freqs = Counter(word for sentences in corpora for sentence in sentences for word in sentence.split())
    if not word_freqs:
        raise ValueError("cannot learn BPE from an empty corpus")

    words = []
    freqs = []
    for word, freq in sorted(word_freqs.items()):
        words.append(list(word) + [END_OF_WORD])
        freqs.append(freq)

    pair_counts: Counter = Counter()
    symbol_counts: Counter = Counter()
    occurrences: dict[tuple[str, str], set[int]] = defaultdict(set)
    for idx, (symbols, freq) in enumerate(zip(words, freqs)):
        for symbol in symbols:
            symbol_counts[symbol] += freq
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freq
            occurrences[pair].add(idx)
    # Pairs by their left symbol, for the pairs a merged symbol's rising count
    # improves; a pair stays listed after its count falls to zero.
    by_left: dict[str, set[tuple[str, str]]] = defaultdict(set)
    for pair in pair_counts:
        by_left[pair[0]].add(pair)

    def key(pair):
        left, right = pair  # False sorts first: the bare marker after every other symbol
        return (-pair_counts[pair], -symbol_counts[left], left == END_OF_WORD, left, right == END_OF_WORD, right)

    heap = [key(pair) for pair in pair_counts]
    heapq.heapify(heap)

    rules = []
    # A pair can re-emerge when a later merge rebuilds one of its symbols
    # ("<" + "/w>" rebuilds "</w>"); it must not be recorded twice.
    used = set()
    while heap and len(rules) < num_merges:
        entry = heapq.heappop(heap)
        best = entry[3], entry[5]
        if best in used or not pair_counts[best]:
            continue
        current = key(best)
        if entry != current:
            heapq.heappush(heap, current)
            continue
        used.add(best)
        left, right = best
        rules.append(MergeRule(left, right))
        merged = left + right
        risen = set()
        for idx in list(occurrences[best]):
            old = words[idx]
            new = _merge_word(old, left, right)
            freq = freqs[idx]
            k = len(old) - len(new)  # number of merges performed in this word
            symbol_counts[left] -= k * freq
            symbol_counts[right] -= k * freq
            symbol_counts[merged] += k * freq
            for pair in zip(old, old[1:]):
                pair_counts[pair] -= freq
                occurrences[pair].discard(idx)
            for pair in zip(new, new[1:]):
                pair_counts[pair] += freq
                occurrences[pair].add(idx)
                if merged in pair:
                    risen.add(pair)
            words[idx] = new
        del occurrences[best]
        for pair in risen:
            by_left[pair[0]].add(pair)
        for pair in risen | by_left[merged]:
            if pair_counts[pair]:
                heapq.heappush(heap, key(pair))
    return MergeTable(rules)


def _check_word(word: str) -> None:
    if not word:
        raise ValueError("word must be non-empty")
    if any(c.isspace() for c in word):
        raise ValueError(f"word {word!r} contains whitespace")


def apply_bpe(table: MergeTable, word: str) -> list[str]:
    """Segment one word with learned merges, rendered with "@@" markers."""
    return list(table._words(word))


def _segment_word(ranks: dict[MergeRule, int], word: str) -> tuple[str, ...]:
    """The tokens of one word, which a table's memo keeps."""
    _check_word(word)
    symbols = list(word) + [END_OF_WORD]
    while len(symbols) > 1:
        best = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best is None or rank < best[0]):
                best = (rank, pair)
        if best is None:
            break
        symbols = _merge_word(symbols, *best[1])
    last = symbols.pop()[: -len(END_OF_WORD)]  # merges join neighbours, so the last symbol ends with the marker
    if last:
        symbols.append(last)
    return (*[s + "@@" for s in symbols[:-1]], symbols[-1])


def segment_sentence(table: MergeTable, sentence: str) -> list[str]:
    """Apply BPE to every whitespace word of a sentence."""
    out = []
    for word in sentence.split():
        out.extend(apply_bpe(table, word))
    return out


def enumerate_substrings(word: str) -> set[str]:
    """All length >= 2 substrings of the word decorated with ^ and $ markers."""
    _check_word(word)
    decorated = "^" + word + "$"
    n = len(decorated)
    return {decorated[i:j] for i in range(n) for j in range(i + 2, n + 1)}
