"""Size-targeted wordpiece learning, the part of the wordpiece code that needs numpy.

The learner ranks every candidate once, when it is built, and keeps only the
ranking.  The threshold ladder is incremental but yields exactly what
recounting from scratch at every pass of every threshold yields.  The first
pass starts from the base alphabet at every threshold, so its counts are
computed once.  The threshold-1 build selects every candidate from them, so
its discounted counts have a closed form: each candidate's count less its
children's.  The candidates are every prefix of every run suffix at a base
segment start, plus the base, over the safe runs `wordpiece._runs` cuts for
the matcher too.  Sorting the distinct run suffixes and taking
each one's common prefix with its sorted neighbour (Manber & Myers 1993;
Kasai et al. 2001) gives each candidate as a (suffix, length) pair with no
string of its own, its fixed id in (-length, token) order, its parent and
its lexical rank.  Counts and prefix discounts are array sums over those
ids.  A refinement pass that reproduces its token set is a fixed point and
ends the threshold.  Moving to a new token set walks every unit's greedy
segmentation at once, as a few array passes over the base segment starts,
and recounts only the starts whose activity flipped.  No per-threshold state
is kept, and no counting state outlives the constructor.  The ranking stays
(suffix, length) pairs: `learn` renders only the tokens a vocabulary keeps.
"""

from __future__ import annotations

import warnings
from array import array
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
    the run suffixes there form a fixed universe.  It is built from the
    sorted distinct suffixes: at length L, suffix k holds a candidate no
    earlier suffix holds iff it is at least L long and shares fewer than L
    characters with suffix k - 1.  Each candidate gets an id in (-length,
    token) order, with its immediate prefix as its parent, and is rendered
    as strings[owner[id]][:length] only when asked for.  The strings a
    candidate prefixes form one range of the sorted order, so its count is
    a range sum over the run suffixes of the active starts, and the prefix
    discount is one carry pushed to the parent, one length block at a
    time.  A move to a new token set walks every unit's greedy segmentation
    at once over the base starts, and recounts only the starts whose
    activity flipped.
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

        # The universe is every prefix of these suffixes, plus the base (of
        # length 1, so a base token adds itself and no other prefix).  Sorted,
        # string k holds the prefixes longer than its common prefix with
        # string k - 1 that no earlier string holds, in lexical order.  Each
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
        fresh = lens - shared
        lex_first = np.cumsum(fresh) - fresh
        top = int(lens.max())
        per_length = np.cumsum(np.bincount(shared + 1, minlength=top + 2) - np.bincount(lens + 1, minlength=top + 2))
        total = int(fresh.sum())
        # after[L]: the candidates longer than L, so the first id of length L.
        after = (total - np.cumsum(per_length[: top + 1])).tolist()
        # (first, last) id of each length block, longest first, length >= 2.
        self._blocks = [(after[n], after[n - 1]) for n in range(top, 1, -1)]
        self._lengths = np.repeat(np.arange(top, 0, -1, dtype=np.int32), per_length[top:0:-1])

        # One step per length over the strings at least that long: string k
        # starts a new candidate iff its common prefix with string k - 1 is
        # shorter, so ids in (-length, token) order follow from one cumsum,
        # and each candidate's parent is the id one step before on its string.
        self._parent = np.empty(total, np.int32)
        self.lex_rank = np.empty(total, np.int32)
        # The strings a candidate prefixes are a range of the sorted order,
        # [owner, end): the first renders it, and its count sums the range.
        self.owner = np.empty(total, np.int32)
        self._end = np.empty(total, np.int32)
        whole_id = np.empty(len(strings), np.int32)
        active = np.arange(len(strings), dtype=np.int32)
        active_lens, ids = lens, np.full(len(strings), -1, np.int32)
        for length in range(1, top + 1):
            keep = active_lens >= length
            active, active_lens, above = active[keep], active_lens[keep], ids[keep]
            new = shared[active] < length
            ids = np.cumsum(new, dtype=np.int32) + np.int32(after[length] - 1)
            heads = np.flatnonzero(new)
            made, k = ids[heads], active[heads]
            self._parent[made] = above[heads]
            self.lex_rank[made] = lex_first[k] + (length - 1 - shared[k])
            self.owner[made] = k
            self._end[made] = active[np.append(heads[1:], len(active)) - 1] + 1
            whole = active_lens == length
            whole_id[active[whole]] = ids[whole]
        self.strings = strings
        self._whole = whole_id
        self.base_ids = whole_id[[rank[tok] for tok in base]].tolist()
        del rank

        # Id of the run suffix of each start (the deepest candidate it
        # counts), and whether that run ends its unit.
        self._suffix = whole_id[start_rank]
        self._final = final[start_rank]
        offsets = np.frombuffer(offsets, np.int32)
        self._first = offsets[:-1]
        freqs = [unit_counts[unit] for unit in units]
        self._weights = np.repeat(np.asarray(freqs, np.min_scalar_type(max(freqs))), np.diff(offsets))

        # Summed frequency of the active starts whose run suffix each id is.
        self._suffix_counts = np.zeros(total, np.int64)
        np.add.at(self._suffix_counts, self._suffix, self._weights)
        self._active = np.ones(len(self._suffix), bool)

    def counts(self) -> np.ndarray:
        """Candidate counts under the current segmentation: the summed
        suffix counts of the strings each candidate prefixes."""
        running = np.zeros(len(self._whole) + 1, np.int64)
        np.cumsum(self._suffix_counts[self._whole], out=running[1:])
        return running[self._end] - running[self.owner]

    def select(self, counts: np.ndarray, min_count: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidates of length >= 2 whose count, discounted by the selected
        candidates they prefix, reaches min_count, and the discounted counts."""
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
        chain, or the whole word-final suffix when its parent is in the set
        (marker fusion).  Starts are consecutive within a run and a run's
        end leads to the next run's first start, so the walk steps from
        index j to j + match until a match consumes the final run."""
        # deep[i]: the deepest id in the set on i's prefix chain.  Every
        # length-1 id is a base token, so only longer blocks can miss.
        deep = np.arange(len(self._lengths), dtype=np.int32)
        for first, last in reversed(self._blocks):
            np.copyto(deep[first:last], deep[self._parent[first:last]], where=~selected[first:last])
        suffix = self._suffix
        parent = self._parent[suffix]  # -1 for a lone marker, never its own deepest id
        whole = self._lengths[suffix]
        match = np.where(self._final & (deep[parent] == parent), whole, self._lengths[deep[suffix]])
        done = self._final & (match == whole)
        active = np.zeros_like(self._active)
        frontier = self._first
        while len(frontier):
            active[frontier] = True
            frontier = frontier[~done[frontier]]
            frontier = frontier + match[frontier]
            frontier = frontier[~active[frontier]]  # a closure never revisits a start, so the loop ends
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
        # its children's; the base keeps its full counts.
        first_counts = builder.counts()
        raw = first_counts.copy()
        children = builder._lengths >= 3
        np.subtract.at(raw, builder._parent[children], first_counts[children])
        thresholds, level = [], max(unit_counts.values())
        while level >= 2:
            thresholds.append(level)
            level //= 2
        ranked = np.zeros(len(raw), bool)
        ranked[builder.base_ids] = True
        levels = []
        for threshold in thresholds + [1]:
            if threshold == 1:
                selected, adjusted = builder._lengths >= 2, raw
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
            new = new[np.lexsort((builder.lex_rank[new], -adjusted[new]))]
            ranked[new] = True
            levels.append(new)
        order = np.concatenate(levels)
        # The ranking as (string, length) pairs: token i is
        # self._strings[self._ranked_string[i]][: self._ranked_length[i]].
        self._strings = builder.strings
        self._ranked_string = builder.owner[order]
        self._ranked_length = builder._lengths[order]
        # Threshold-1 counts, aligned with the ranking and with the base.
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
        """The first `stop` tokens of the ranking (all of them when None)."""
        strings = self._strings
        pairs = zip(self._ranked_string[:stop].tolist(), self._ranked_length[:stop].tolist())
        return [strings[k][:n] for k, n in pairs]

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
        raw = self._ranked_raw[:wanted].tolist() + self._base_raw
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
