"""Byte pair encoding: merge-table learning, application, and substring sets.

Learning counts word types weighted by corpus frequency and repeatedly
merges the most frequent adjacent symbol pair.  Ties are broken by the
higher current corpus frequency of the left symbol, then by lexicographic
pair order in which the bare end-of-word symbol sorts after every ordinary
symbol, so learning is deterministic.

Each merge is taken from a heap keyed by exactly that order, and heap
entries go stale lazily: a popped entry is dropped if its pair was already
merged or is no longer live, and pushed back with the pair's current key if
that key has changed.  This picks the true minimum as long as every live
pair keeps an entry no worse than its current key, so every change that
improves a key pushes a fresh entry: a pair count that rises, and a rise in
the count of the merged symbol, which improves every live pair with that
symbol on the left.  Such pairs can predate the merge, because one string
can be built by two merge paths: "a<" + "/w>" inside a word, then "a" plus
the end-of-word marker.  Entries are pushed after each merge has rewritten
all its words, when the counts it moves are final.

Application replays the merges by learned priority and renders continuation
tokens with a trailing "@@".  Each table memoizes the tokens of the words it
has segmented, up to a fixed number of words.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CorpusFormatError
from .textio import read_lines, write_lines

END_OF_WORD = "</w>"
MERGE_FILE_HEADER = "#version: xfervocab-1"
# Words whose tokens one MergeTable remembers; later new words are segmented
# without being stored.
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
        self._words: dict[str, tuple[str, ...]] = {}

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
        # CRLF line ends are accepted.
        lines = [line.removesuffix("\r") for line in read_lines(path)]
        if not lines or lines[0] != MERGE_FILE_HEADER:
            raise CorpusFormatError(f"{path}: missing merge file header {MERGE_FILE_HEADER!r}")
        rules = []
        for i, line in enumerate(lines[1:], start=2):
            parts = line.split(" ")
            if len(parts) != 2:
                raise CorpusFormatError(f"{path}: line {i}: expected 'left right'")
            rules.append(MergeRule(parts[0], parts[1]))
        problem = _first_bad_rule(rules)
        if problem is not None:
            index, message = problem
            raise CorpusFormatError(f"{path}: line {index + 2}: {message}")
        return cls(rules)


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


def _adjacent_pairs(symbols: list[str]) -> Counter:
    return Counter(zip(symbols, symbols[1:]))


def _symbol_key(symbol: str):
    return (1,) if symbol == END_OF_WORD else (0, symbol)


def _pair_key(pair: tuple[str, str]):
    return (_symbol_key(pair[0]), _symbol_key(pair[1]))


def learn_bpe(corpora: Sequence[Iterable[str]], num_merges: int) -> MergeTable:
    """Learn num_merges merge rules jointly over the given corpora.

    Pair counts are maintained incrementally: only words containing the
    merged pair are rewritten and their pair deltas applied.  Each merge is
    the top of a lazily revalidated heap (see the module docstring).
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
        return (-pair_counts[pair], -symbol_counts[pair[0]], _pair_key(pair), pair)

    heap = [key(pair) for pair in pair_counts]
    heapq.heapify(heap)

    rules = []
    # A pair can re-emerge when a later merge rebuilds its left symbol;
    # it must not be recorded twice.
    used = set()
    while heap and len(rules) < num_merges:
        entry = heapq.heappop(heap)
        best = entry[3]
        if best in used or best not in pair_counts:
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
        for idx in sorted(occurrences[best]):
            old = words[idx]
            new = _merge_word(old, left, right)
            if new == old:
                continue
            freq = freqs[idx]
            k = (len(old) - len(new))  # number of merges performed in this word
            symbol_counts[left] -= k * freq
            symbol_counts[right] -= k * freq
            symbol_counts[merged] += k * freq
            old_pairs = _adjacent_pairs(old)
            new_pairs = _adjacent_pairs(new)
            for pair in old_pairs.keys() | new_pairs.keys():
                delta = new_pairs.get(pair, 0) - old_pairs.get(pair, 0)
                if delta > 0:
                    pair_counts[pair] += delta * freq
                    by_left[pair[0]].add(pair)
                    risen.add(pair)
                elif delta < 0:
                    pair_counts[pair] += delta * freq
                    if pair_counts[pair] <= 0:
                        del pair_counts[pair]
                if new_pairs.get(pair, 0):
                    occurrences[pair].add(idx)
                elif idx in occurrences[pair]:
                    occurrences[pair].discard(idx)
            words[idx] = new
        occurrences.pop(best, None)
        pair_counts.pop(best, None)
        for pair in risen | by_left[merged]:
            if pair in pair_counts and pair not in used:
                heapq.heappush(heap, key(pair))
    return MergeTable(rules)


def apply_bpe(table: MergeTable, word: str) -> list[str]:
    """Segment one word with learned merges, rendered with "@@" markers."""
    cached = table._words.get(word)
    if cached is not None:
        return list(cached)
    if not word:
        raise ValueError("word must be non-empty")
    if any(c.isspace() for c in word):
        raise ValueError(f"word {word!r} contains whitespace")
    symbols = list(word) + [END_OF_WORD]
    ranks = table._ranks
    while len(symbols) > 1:
        best = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best is None or rank < best[0]):
                best = (rank, pair)
        if best is None:
            break
        symbols = _merge_word(symbols, *best[1])
    if symbols[-1] == END_OF_WORD:
        symbols = symbols[:-1]
    elif symbols[-1].endswith(END_OF_WORD):
        symbols = symbols[:-1] + [symbols[-1][: -len(END_OF_WORD)]]
    tokens = [s + "@@" for s in symbols[:-1]] + [symbols[-1]]
    if len(table._words) < _WORD_CACHE_SIZE:
        table._words[word] = tuple(tokens)
    return tokens


def segment_sentence(table: MergeTable, sentence: str) -> list[str]:
    """Apply BPE to every whitespace word of a sentence."""
    out = []
    for word in sentence.split():
        out.extend(apply_bpe(table, word))
    return out


def enumerate_substrings(word: str) -> set[str]:
    """All length >= 2 substrings of the word decorated with ^ and $ markers."""
    if not word:
        raise ValueError("word must be non-empty")
    if any(c.isspace() for c in word):
        raise ValueError(f"word {word!r} contains whitespace")
    decorated = "^" + word + "$"
    n = len(decorated)
    return {decorated[i:j] for i in range(n) for j in range(i + 2, n + 1)}
