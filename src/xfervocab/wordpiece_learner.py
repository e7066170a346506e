"""Size-targeted wordpiece learning, the part of the wordpiece code that needs numpy.

The learner ranks every candidate once, when it is built, and keeps only the
ranking.  The threshold ladder is incremental but yields exactly what
recounting from scratch at every pass of every threshold yields.  The first
pass starts from the base alphabet at every threshold, so its counts are
computed once.  The threshold-1 build selects every candidate from them, so
its discounted counts have a closed form: each candidate's count less its
children's, which is the frequency of the starts whose whole run suffix it
is.  The candidates are every prefix of every run suffix at a base segment
start, plus the base, over the safe runs `wordpiece._runs` cuts for the
matcher too: a trie over the sorted distinct strings.  Sorting the distinct
run suffixes and taking each one's common prefix with its sorted neighbour
(Manber & Myers 1993; Kasai et al. 2001) gives the trie's explicit nodes,
the strings and the points where two neighbours branch (the lcp-intervals
of Abouelhoda, Kurtz & Ohlebusch 2004), each as a (suffix, length) pair
with no string of its own, with its nearest explicit ancestor as its parent;
its lexical order is its (suffix, length) order.  Every other candidate is
an interior, with one child and no string ending at it: its count is its
child's under every token set, so it is never selected at a threshold of 2
or more, and its threshold-1 count is 0.  So counts and prefix discounts are
array sums over the explicit nodes, one depth of the explicit tree at a
time, and the interiors appear only at the end of the ranking, among the
threshold-1 zero counts, where they are kept as (suffix, first length, last
length) ranges.  A refinement pass that reproduces its token set is a fixed
point and ends the threshold.  Moving to a new token set walks every unit's
greedy segmentation at once, as a few array passes over the base segment
starts, and recounts only the starts whose activity flipped.  No
per-threshold state is kept, and no counting state outlives the
constructor.  The ranking stays (suffix, length) pairs and ranges: `learn`
renders only the tokens a vocabulary keeps.
"""
from __future__ import annotations

import warnings
from array import array
from itertools import islice
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .wordpiece import (
    ESCAPE_TOKENS,
    MAX_TRAIN_SENTENCES,
    WORD_MARKER,
    _UNSAFE_CHARS,
    VocabSpec,
    Vocabulary,
    _count_units,
    _runs,
)

# Counting passes per threshold, the default of Tensor2Tensor's SubwordTextEncoder.
_REFINE_ITERATIONS = 4


def _common_prefixes(codes: np.ndarray, begins: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Length of each string's common prefix with the string before it (0
    for the first), for non-empty strings laid end to end as code points.
    One step per shared character, over the pairs still equal so far."""
    shared = np.zeros(len(lens), np.int32)
    limit = np.minimum(lens[1:], lens[:-1])
    alive = np.arange(1, len(lens))
    while len(alive):
        at = shared[alive]
        alive = alive[codes[begins[alive - 1] + at] == codes[begins[alive] + at]]
        shared[alive] += 1
        alive = alive[shared[alive] < limit[alive - 1]]
    return shared


class _CandidateBuilder:
    """Candidate counts over a fixed universe, updated as the token set moves.

    A unit contributes its frequency to every substring that starts at one
    of its segment starts and ends within that start's safe run: a chain of
    prefixes ending at the whole run suffix.  Every segment start under any
    token set is also a start of the base segmentation, so the prefixes of
    the run suffixes there, plus the base, form a fixed universe: a trie
    over the sorted distinct strings.  Only its explicit nodes get an id:
    every string (a base token, or a whole run suffix), and every node where
    two sorted neighbours branch.  Over the sorted order these are the
    leaves and the lcp-intervals of Abouelhoda, Kurtz & Ohlebusch (2004):
    strings [owner, end) whose common prefixes with their predecessors
    within the range are at least the node's length, with one equal to it,
    while the strings at owner and end share fewer characters with theirs.
    They come from one pass per distinct common-prefix length, over the
    strings that share at least that many characters.  Every other
    candidate is an interior: it has one child, no string ends at it, and it
    prefixes the same range as its child, so its count is its child's under
    every token set.  A node's parent is its nearest explicit ancestor, and
    ids go in order of explicit depth.  A node is rendered as
    strings[owner[id]][:length] only when asked for, its count is a range
    sum over the run suffixes of the active starts, and the prefix discount
    is one carry pushed to the parent, one depth block at a time.  A move to
    a new token set walks every unit's greedy segmentation at once over the
    base starts, and recounts only the starts whose activity flipped.
    """

    def __init__(self, unit_counts: Counter, base: list[str]):
        units = sorted(unit_counts)
        # The run suffix at every base segment start, unit by unit, over `_runs`.
        # A base start is every safe position except a word-final marker after
        # a safe character, which the base segmentation fuses onto it.
        suffixes = []
        offsets = array("i", [0])
        for unit in units:
            *inner, last = _runs(unit)[::2]
            for run in inner:
                suffixes += [run[i:] for i in range(len(run))]
            suffixes += [last[i:] for i in range(max(len(last) - 1, 1))]
            offsets.append(len(suffixes))

        # The universe is every prefix of these strings, plus the base (of
        # length 1, so a base token adds itself and no other prefix).  Each
        # temporary goes once used: what the learner holds at its peak adds
        # to the peak of the step that calls it.
        strings = sorted(set(suffixes).union(base))
        rank = dict(zip(strings, range(len(strings))))
        start_rank = np.fromiter(map(rank.__getitem__, suffixes), np.int32, len(suffixes))
        del suffixes
        lens = np.fromiter(map(len, strings), np.int32, len(strings))
        codes = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), np.uint32)
        ends = np.cumsum(lens, dtype=np.int64)
        shared = _common_prefixes(codes, ends - lens, lens)
        # Only a final run ends with the marker.
        final = codes[ends - 1] == ord(WORD_MARKER)
        del codes, ends

        # The intervals, shortest first.  At each length, the strings that
        # share at least that many characters with their predecessors form
        # runs of consecutive ranks; a run holding one that shares exactly as
        # many is an interval, owned by the string before the run.  cur[k]
        # is the deepest interval found so far holding strings k - 1 and k,
        # so the parent of the intervals found next.  Each interval has a
        # string of its own whose common prefix equals its length.
        count = len(strings)
        owner, end, length, parent, depth = (np.empty(count, np.int32) for _ in range(5))
        cur = np.full(count, -1, np.int32)
        alive = np.flatnonzero(shared).astype(np.int32)
        made = 0
        while len(alive):
            level = shared[alive].min()
            head = np.ones(len(alive), bool)
            np.not_equal(alive[1:], alive[:-1] + 1, out=head[1:])
            run = np.cumsum(head) - 1
            is_node = np.zeros(run[-1] + 1, bool)
            is_node[run[shared[alive] == level]] = True
            heads = np.flatnonzero(head)
            tails = np.append(heads[1:], len(alive)) - 1
            new = slice(made, made + np.count_nonzero(is_node))
            owner[new] = alive[heads[is_node]] - 1
            end[new] = alive[tails[is_node]] + 1
            length[new] = level
            parent[new] = cur[alive[heads[is_node]]]
            depth[new] = np.where(parent[new] < 0, 0, depth[parent[new]] + 1)
            inside = is_node[run]
            cur[alive[inside]] = (np.cumsum(is_node, dtype=np.int32) + np.int32(made - 1))[run[inside]]
            made = new.stop
            alive = alive[shared[alive] > level]
        # A string that does not prefix its successor is a leaf, and its
        # parent is the interval of the longer of its two common prefixes.
        # A string that does owns the interval of its own length: its node.
        after = np.append(shared[1:], np.int32(0))
        leaf = np.flatnonzero(after < lens).astype(np.int32)
        leaf_parent = np.where(after > shared, np.append(cur[1:], np.int32(-1)), cur)[leaf]
        del cur, after, alive
        whole = np.empty(count, np.int32)
        whole[leaf] = np.arange(made, made + len(leaf), dtype=np.int32)
        owns = np.flatnonzero(length[:made] == lens[owner[:made]]).astype(np.int32)
        whole[owner[owns]] = owns
        owner = np.concatenate((owner[:made], leaf))
        end = np.concatenate((end[:made], leaf + 1))
        length = np.concatenate((length[:made], lens[leaf]))
        parent = np.concatenate((parent[:made], leaf_parent))
        depth = np.concatenate((depth[:made], np.where(leaf_parent < 0, 0, depth[leaf_parent] + 1)))
        del leaf, leaf_parent, lens, shared

        # Ids in order of explicit depth.  Every length-1 node is a base
        # token and a root; every longer one has a parent.
        order = np.argsort(depth, kind="stable")
        new_id = np.empty_like(order)
        new_id[order] = np.arange(len(order))
        bounds = np.cumsum(np.bincount(depth)).tolist()
        del depth
        # (first, last) id of each depth block, deepest first, depth >= 1.
        self._blocks = list(zip(bounds[-2::-1], bounds[:0:-1]))
        # The strings a node prefixes are a range of the sorted order,
        # [owner, end): the first renders it, and its count sums the range.
        # What indexes an array is intp from here on, which numpy gathers
        # and scatters by without a converted copy.
        self.owner = owner[order].astype(np.intp)
        self._end = end[order].astype(np.intp)
        self._lengths = length[order]
        parent = parent[order]
        self._parent = np.where(parent < 0, -1, new_id[parent])
        self.strings = strings
        self._whole = whole = new_id[whole]
        del order, new_id, owner, end, length, parent
        self.base_ids = whole[[rank[tok] for tok in base]].tolist()
        del rank

        # Id of the run suffix of each start (the deepest node it counts),
        # its length, and whether that run ends its unit.  A final suffix
        # fuses the marker onto its immediate prefix when that prefix is in
        # the token set.  An interior never is, so _prefix keeps the prefix
        # only where it is explicit (the parent, one character shorter), and
        # -1 elsewhere: deep[-1], the last id's deepest id, is never -1.
        self._suffix = whole[start_rank]
        self._whole_length = self._lengths[self._suffix]
        self._final = final[start_rank]
        prefix = self._parent[self._suffix]
        prefix[~self._final | (self._lengths[prefix] != self._whole_length - 1)] = -1
        self._prefix = prefix
        offsets = np.frombuffer(offsets, np.int32)
        self._first = offsets[:-1].astype(np.intp)
        freqs = [unit_counts[unit] for unit in units]
        self._weights = np.repeat(np.asarray(freqs, np.min_scalar_type(max(freqs))), np.diff(offsets))

        # Summed frequency of the active starts whose run suffix each id is.
        self._suffix_counts = np.zeros(len(self._lengths), np.int64)
        np.add.at(self._suffix_counts, self._suffix, self._weights)
        self._active = np.ones(len(self._suffix), bool)

    def counts(self) -> np.ndarray:
        """Node counts under the current segmentation: the summed suffix
        counts of the strings each node prefixes."""
        running = np.zeros(len(self._whole) + 1, np.int64)
        np.cumsum(self._suffix_counts[self._whole], out=running[1:])
        return running[self._end] - running[self.owner]

    def select(self, counts: np.ndarray, min_count: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes of length >= 2 whose count, discounted by the selected
        nodes they prefix, reaches min_count, and the discounted counts.
        An interior is never selected at a min_count >= 2: either its child
        is selected and zeroes it, or the child falls short and so does it.
        It passes its child's carry on unchanged, so each node's carry goes
        to its parent."""
        carry = np.zeros_like(counts)
        adjusted = np.zeros_like(counts)
        selected = np.zeros(len(counts), bool)
        for first, last in self._blocks:
            block = slice(first, last)
            np.subtract(counts[block], carry[block], out=adjusted[block])
            np.greater_equal(adjusted[block], min_count, out=selected[block])
            np.add.at(carry, self._parent[block], carry[block] + adjusted[block] * selected[block])
        return selected, adjusted

    def move_to(self, selected: np.ndarray) -> None:
        """Walk every unit's greedy segmentation under the base tokens plus
        selected, and recount the starts whose activity flips.  The match at
        a start is the deepest id in the set on its run suffix's prefix
        chain, or the whole word-final suffix when its immediate prefix is
        in the set (marker fusion); an interior never is.  Starts are
        consecutive within a run and a run's end leads to the next run's
        first start, so the walk steps from index j to j + match until a
        match consumes the final run."""
        # deep[i]: the deepest id in the set on i's prefix chain.  Every
        # root is a base token, so only deeper blocks can miss.
        deep = np.arange(len(self._lengths))
        for first, last in reversed(self._blocks):
            deep[first:last] = np.where(selected[first:last], deep[first:last], deep[self._parent[first:last]])
        suffix, whole, prefix = self._suffix, self._whole_length, self._prefix
        match = np.where(deep[prefix] == prefix, whole, self._lengths[deep[suffix]])
        # The start each match leads to, or the end, past every start, once
        # it consumes the final run.
        after = np.arange(len(match)) + match
        after[self._final & (match == whole)] = len(match)
        unseen = np.ones(len(match) + 1, bool)
        unseen[-1] = False
        frontier = self._first
        while len(frontier):
            unseen[frontier] = False
            frontier = after[frontier]
            frontier = frontier[unseen[frontier]]  # a closure never revisits a start, so the loop ends
        active = ~unseen[:-1]
        flipped = np.flatnonzero(active != self._active)
        weights = self._weights[flipped].astype(np.int64)
        np.add.at(self._suffix_counts, suffix[flipped], np.where(active[flipped], weights, -weights))
        self._active = active


class WordpieceLearner:
    """Reusable learner bound to one unit-frequency table.

    Candidate units survive at descending minimum-frequency thresholds; a
    unit is ranked by the highest threshold at which it first survives, then
    by its discounted count there.  The resulting ranking is the same for
    every target size, so vocabularies of different sizes cut from it are
    nested, and any target up to the inventory size is hit exactly.
    """

    def __init__(self, unit_counts: Counter):
        if not unit_counts:
            raise ValueError("cannot learn a vocabulary from an empty corpus")
        chars = set()
        for unit in unit_counts:
            chars.update(unit)
        chars -= set(_UNSAFE_CHARS)
        self._base = sorted(chars.union(ESCAPE_TOKENS))
        builder = _CandidateBuilder(unit_counts, self._base)
        # Pass 1 starts from the base at every threshold, so its counts are
        # shared.  The threshold-1 build selects every candidate of length
        # >= 2 from them, so each one's discounted count is its count less
        # its children's.  Its children's strings cover its own but the one
        # equal to it, so that is the frequency of the starts whose whole
        # run suffix it is: its suffix count before the first move_to, and 0
        # for an interior.  The base keeps its full counts.
        first_counts = builder.counts()
        lengths, owner = builder._lengths, builder.owner
        raw = np.where(lengths >= 2, builder._suffix_counts, first_counts)
        thresholds, level = [], max(unit_counts.values())
        while level >= 2:
            thresholds.append(level)
            level //= 2
        ranked = np.zeros(len(raw), bool)
        ranked[builder.base_ids] = True
        levels = []
        for threshold in thresholds + [1]:
            if threshold == 1:
                selected, adjusted = lengths >= 2, raw
            else:
                selected, adjusted = builder.select(first_counts, threshold)
                previous = np.zeros_like(selected)
                for _ in range(_REFINE_ITERATIONS - 1):
                    if np.array_equal(selected, previous):
                        break  # a fixed point: further passes repeat it
                    builder.move_to(selected)
                    previous = selected
                    selected, adjusted = builder.select(builder.counts(), threshold)
            new = np.flatnonzero(selected & ~ranked)
            # (owner, length) order is lexical order: the owner is the first
            # sorted string a candidate prefixes, and of two candidates with
            # one owner the shorter prefixes the longer.
            new = new[np.lexsort((lengths[new], owner[new], -adjusted[new]))]
            ranked[new] = True
            levels.append(new)
        # The threshold-1 level ends with its zero counts in (owner, length)
        # order; the interiors join them there, since none is selected
        # before.  The interiors between a node and its parent are the
        # lengths between theirs, on the node's owner.  So this tail is kept
        # as (owner, first length, last length) ranges.
        zero = levels[-1][raw[levels[-1]] == 0]
        order = np.concatenate(levels)
        order = order[: len(order) - len(zero)]
        child = np.flatnonzero(builder._parent >= 0)
        first, last = lengths[builder._parent[child]] + 1, lengths[child] - 1
        gap = first <= last
        tail = np.stack((
            np.concatenate((owner[zero], owner[child[gap]])),
            np.concatenate((lengths[zero], first[gap])),
            np.concatenate((lengths[zero], last[gap])),
        ))
        self._tail = tail[:, np.lexsort((tail[1], tail[0]))]
        # Tokens in the tail up to and including each range.
        self._tail_ends = np.cumsum(self._tail[2] - self._tail[1] + 1)
        # The ranking as (string, length) pairs: token i is
        # self._strings[self._ranked_string[i]][: self._ranked_length[i]].
        self._strings = builder.strings
        self._ranked_string = owner[order]
        self._ranked_length = lengths[order]
        # Threshold-1 counts, aligned with the ranked nodes (the tail's are
        # 0) and with the base.
        self._ranked_raw = raw[order]
        self._base_raw = raw[builder.base_ids].tolist()

    @classmethod
    def from_corpora(
        cls, corpora: Sequence[Iterable[str]], max_train_sentences: int = MAX_TRAIN_SENTENCES
    ) -> "WordpieceLearner":
        return cls(_count_units(corpora, max_train_sentences))

    @property
    def base_tokens(self) -> list[str]:
        return list(self._base)

    def _ranked_tokens(self, stop: int | None = None) -> list[str]:
        """The first `stop` tokens of the ranking (all of them when None):
        the ranked nodes, then the tail."""
        strings = self._strings
        pairs = zip(self._ranked_string[:stop].tolist(), self._ranked_length[:stop].tolist())
        tokens = [strings[k][:n] for k, n in pairs]
        need = None if stop is None else max(stop - len(tokens), 0)
        ranges = self._tail[:, : None if need is None else np.searchsorted(self._tail_ends, need) + 1]
        tail = (strings[k][:n] for k, first, last in ranges.T.tolist() for n in range(first, last + 1))
        return tokens + list(islice(tail, need))

    def learn(self, spec: VocabSpec) -> Vocabulary:
        base = self._base
        target = spec.target_size
        if target < len(base):
            raise ValueError(f"target_size {target} is below the alphabet size {len(base)}")
        wanted = target - len(base)
        selected = self._ranked_tokens(wanted)
        size = len(base) + len(selected)
        within = spec.within(size)
        if not within:
            warnings.warn(
                f"vocabulary size {size} misses target {target} beyond tolerance "
                f"{spec.tolerance:.2%}; returning the closest achieved size",
                stacklevel=3,
            )
        raw = self._ranked_raw[:wanted].tolist()
        raw += [0] * (len(selected) - len(raw)) + self._base_raw
        ordered = sorted(zip((-count for count in raw), selected + base))
        return Vocabulary([tok for _count, tok in ordered], within_tolerance=within)


def learn_wordpiece(
    corpora: Sequence[Iterable[str]], spec: VocabSpec, max_train_sentences: int = MAX_TRAIN_SENTENCES
) -> Vocabulary:
    """Learn a wordpiece vocabulary of roughly spec.target_size tokens.

    Multiple corpora are treated as one concatenated stream; counting stops
    after max_train_sentences sentences.  The result always contains
    every observed character and the full escape alphabet, and its
    within_tolerance flag records whether the size contract was met.
    """
    return WordpieceLearner.from_corpora(corpora, max_train_sentences).learn(spec)
