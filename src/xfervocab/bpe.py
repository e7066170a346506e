"""Byte pair encoding: merge-table learning, application, and substring sets.

Learning counts word types weighted by corpus frequency and repeatedly
merges the most frequent adjacent symbol pair.  Ties are broken by the
higher current corpus frequency of the left symbol, then by lexicographic
pair order in which the bare end-of-word symbol sorts after every ordinary
symbol, so learning is deterministic.

A merge rewrites only the words that hold its pair, and in each word only
around the occurrences it merges.  The occurrences are found left to right,
each taking two symbols, as application merges them.  The word's frequency
comes off the old pairs at positions i - 1, i and i + 1 of each occurrence
i, and goes onto the new pairs at q - 1 and q of each merged symbol q, each
position once where occurrences are adjacent.  This equals a recount of the
whole word: an adjacency away from every occurrence joins two symbols the
merge left alone, so it is the same pair in the old word and the new one,
only shifted.  Each word holding a pair is listed under it, but a merge does
not take a word off the pairs it removes, so a listed word whose scan finds
no occurrence is skipped.  Only a pair holding the merged symbol can rise.
Each merge is taken from a heap keyed by exactly that order, and heap
entries go stale lazily: a popped entry is dropped if its pair was already
merged or its count is zero, and pushed back with the pair's current key if
that key has changed.  This picks the true minimum as long as every live
pair keeps an entry no worse than its current key, so a merge pushes a
fresh entry for each pair holding the merged symbol, and for each live pair
with that symbol on the left, which the symbol's rising count improves.
Such pairs can predate the merge, because one string can be built by two
merge paths: "a<" + "/w>" inside a word, then "a" plus the end-of-word
marker.  Entries are pushed after the merge has rewritten all its words,
when its counts are final, so the order of the words does not matter.

Application replays the merges by learned priority and renders continuation
tokens with a trailing "@@".  `_apply_lines` segments each distinct word
of a call once, through a memo that lives for the call.
"""

from __future__ import annotations

import functools
import heapq
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CorpusFormatError
from .textio import _Memo, read_model_lines, write_lines

END_OF_WORD = "</w>"
MERGE_FILE_HEADER = "#version: xfervocab-1"


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


def _occurrences(symbols: tuple[str, ...], left: str, right: str) -> list[int]:
    """The starts of the pair's occurrences that a merge rewrites: scanned left
    to right, each taking its two symbols, so they never overlap."""
    starts = []
    last = len(symbols) - 1
    unseen = symbols.count(left)  # left symbols not yet found or taken
    i = 0
    while unseen:
        i = symbols.index(left, i)
        unseen -= 1
        if i < last and symbols[i + 1] == right:
            starts.append(i)
            unseen -= right == left
            i += 2
        else:
            i += 1
    return starts


def _merge_word(symbols: tuple[str, ...], left: str, right: str, starts: list[int]) -> tuple[str, ...]:
    """The symbols with the pair merged at each of starts."""
    merged = left + right
    out = []
    prev = 0
    for i in starts:
        out += symbols[prev:i]
        out.append(merged)
        prev = i + 2
    out += symbols[prev:]
    return tuple(out)


def learn_bpe(corpora: Sequence[Iterable[str]], num_merges: int) -> MergeTable:
    """Learn num_merges merge rules jointly over the given corpora.

    Pair counts are maintained incrementally: a merge rewrites only the words
    listed for its pair, and in each it moves the word's frequency only from
    the pairs beside the occurrences it merges to the pairs beside the merged
    symbols.  That equals recounting the word, since every other adjacency is
    the same pair, shifted.  Only the pairs holding the merged symbol are
    pushed as risen; each merge is the top of a lazily revalidated heap (see
    the module docstring).
    """
    if num_merges < 1:
        raise ValueError("num_merges must be at least 1")
    word_freqs = Counter(word for sentences in corpora for sentence in sentences for word in sentence.split())
    if not word_freqs:
        raise ValueError("cannot learn BPE from an empty corpus")

    # Tuples of strings, which the cyclic collector stops walking once seen.
    words = []
    freqs = []
    for word, freq in sorted(word_freqs.items()):
        words.append((*word, END_OF_WORD))
        freqs.append(freq)

    pair_counts: dict[tuple[str, str], int] = {}
    symbol_counts: dict[str, int] = {}
    # The words each pair was counted in, a word listed again only when a
    # later merge gives it the pair anew: a superset, since a merge does not
    # take a word off the pairs it removes.  Arrays take a fraction of the
    # memory of sets, and the cyclic collector does not walk their items.
    occurrences: dict[tuple[str, str], array] = defaultdict(functools.partial(array, "i"))
    for idx, (symbols, freq) in enumerate(zip(words, freqs)):
        for symbol in symbols:
            symbol_counts[symbol] = symbol_counts.get(symbol, 0) + freq
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            owners = occurrences[pair]
            if not owners or owners[-1] != idx:
                owners.append(idx)
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
        rewritten = 0  # occurrences merged, weighted by word frequency
        risen = set()
        for idx in occurrences.pop(best):
            old = words[idx]
            starts = _occurrences(old, left, right)
            if not starts:  # a listed word the pair has since left
                continue
            freq = freqs[idx]
            rewritten += len(starts) * freq
            # Old pairs at i - 1, i and i + 1 of each occurrence i, each once.
            last = len(old) - 1
            done = -1
            for i in starts:
                for j in (i - 1, i, i + 1):
                    if done < j < last:
                        pair_counts[old[j], old[j + 1]] -= freq
                        done = j
            new = words[idx] = _merge_word(old, left, right, starts)
            # New pairs at q - 1 and q of each merged symbol q, each once.
            last = len(new) - 1
            done = -1
            for shift, i in enumerate(starts):
                q = i - shift
                for j in (q - 1, q):
                    if done < j < last:
                        pair = new[j], new[j + 1]
                        pair_counts[pair] = pair_counts.get(pair, 0) + freq
                        owners = occurrences[pair]
                        if not owners or owners[-1] != idx:
                            owners.append(idx)
                        risen.add(pair)
                        done = j
        symbol_counts[left] -= rewritten
        symbol_counts[right] -= rewritten
        symbol_counts[merged] = symbol_counts.get(merged, 0) + rewritten
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
    return _render_word(table._ranks, word).split(" ")


def _render_word(ranks: dict[MergeRule, int], word: str) -> str:
    """The rendered tokens of one word under a table's merge ranks, joined by spaces."""
    _check_word(word)
    symbols = (*word, END_OF_WORD)
    while len(symbols) > 1:
        best = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best is None or rank < best[0]):
                best = (rank, pair)
        if best is None:
            break
        symbols = _merge_word(symbols, *best[1], _occurrences(symbols, *best[1]))
    # Merges join neighbours, so the last symbol ends with the marker; a bare one leaves "@@ " before it.
    return "@@ ".join(symbols).removesuffix(END_OF_WORD).removesuffix("@@ ")


def segment_sentence(table: MergeTable, sentence: str) -> list[str]:
    """Apply BPE to every whitespace word of a sentence."""
    return [tok for word in sentence.split() for tok in apply_bpe(table, word)]


def _apply_lines(table: MergeTable, lines: list[str]) -> list[str]:
    """`" ".join(segment_sentence(table, line))` of each line, each distinct word segmented once."""
    rendered = _Memo(functools.partial(_render_word, table._ranks))
    return [" ".join(map(rendered.__getitem__, line.split())) for line in lines]


def enumerate_substrings(word: str) -> set[str]:
    """All length >= 2 substrings of the word decorated with ^ and $ markers."""
    _check_word(word)
    decorated = "^" + word + "$"
    n = len(decorated)
    return {decorated[i:j] for i in range(n) for j in range(i + 2, n + 1)}
