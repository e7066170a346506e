"""Size-targeted wordpiece learning, the part of the wordpiece code that needs numpy.

The threshold ladder is incremental but yields exactly what recounting from
scratch at every pass of every threshold yields.  The first pass starts
from the base alphabet at every threshold, so its counts are computed once;
they are also the threshold-1 build.  Its candidates (every substring of a
safe run, plus the base) get fixed ids, sorted by length then token, and
counts and prefix discounts are array sums over those ids.  A refinement
pass that reproduces its token set is a fixed point and ends the threshold.
Moving to a new token set walks every unit's greedy segmentation at once, as
a few array passes over the base segment starts, and recounts only the
starts whose activity flipped.  No per-threshold state is kept, and the
counting state is dropped once the ranking exists.
"""

from __future__ import annotations

import warnings
from array import array
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .wordpiece import ESCAPE_TOKENS, MAX_TRAIN_SENTENCES, WORD_MARKER, VocabSpec, Vocabulary, _count_units
from .wordpiece import _segment_boundaries, _unsafe_mask

# Counting passes per threshold, the default of Tensor2Tensor's SubwordTextEncoder.
_REFINE_ITERATIONS = 4


class _CandidateBuilder:
    """Candidate counts over a fixed universe, updated as the token set moves.

    A unit contributes its frequency to every substring that starts at one
    of its segment starts and ends within that start's safe run: a chain of
    prefixes ending at the whole run suffix.  Every segment start under any
    token set is also a start of the base segmentation, so the substrings
    counted there form a fixed universe.  Each gets an id in (-length,
    token) order, with its immediate prefix as its parent.  A count is then
    the subtree sum over the run suffixes of the active starts, and the
    prefix discount is one carry pushed to the parent, one length block at a
    time.  A move to a new token set walks every unit's greedy segmentation
    at once over the base starts, and recounts only the starts whose
    activity flipped.
    """

    def __init__(self, unit_counts: Counter, base: list[str]):
        units = sorted(unit_counts)
        index = set(base)
        # Segment starts of the threshold-1 (base) segmentation, the only
        # positions any later segmentation can start at, and the ends of
        # their safe runs.
        universe = set(base)
        starts, stops = array("i"), array("i")
        unit_offsets = array("i", [0])
        for unit in units:
            marked = unit + WORD_MARKER
            unsafe = _unsafe_mask(unit)
            for start, _end in _segment_boundaries(marked, unsafe, index, 1):
                if unsafe[start]:
                    continue
                stop = start
                while stop < len(marked) and not unsafe[stop]:
                    stop += 1
                starts.append(start)
                stops.append(stop)
                universe.update(marked[start:end] for end in range(start + 1, stop + 1))
            unit_offsets.append(len(starts))

        # Each temporary goes before the next is built: what the learner
        # holds at its peak adds to the peak of the step that calls it.
        lexical = sorted(universe)
        del universe
        lengths = np.fromiter(map(len, lexical), np.int32, len(lexical))
        order = np.argsort(-lengths, kind="stable")
        self.tokens = [lexical[i] for i in order.tolist()]
        del lexical
        self.lex_rank = order.astype(np.int32)
        lengths = lengths[order]
        cuts = np.flatnonzero(np.diff(lengths)) + 1
        bounds = [0, *cuts.tolist(), len(lengths)]
        # (first, last) id of each length block, longest first, length >= 2.
        self._blocks = [(a, b) for a, b in zip(bounds, bounds[1:]) if lengths[a] >= 2]
        self._lengths = lengths
        id_of = {tok: i for i, tok in enumerate(self.tokens)}
        self._parent = np.fromiter(
            (id_of[tok[:-1]] if len(tok) > 1 else -1 for tok in self.tokens), np.int32, len(self.tokens)
        )
        # Id of the run suffix of each start (the deepest candidate it
        # counts), and whether that run ends its unit.
        suffix, final = array("i"), bytearray()
        for u, unit in enumerate(units):
            marked = unit + WORD_MARKER
            for j in range(unit_offsets[u], unit_offsets[u + 1]):
                suffix.append(id_of[marked[starts[j] : stops[j]]])
                final.append(stops[j] == len(marked))
        self._suffix = np.frombuffer(suffix, np.int32)
        self._final = np.frombuffer(final, bool)
        self.base_ids = [id_of[tok] for tok in base]
        del id_of, starts, stops
        offsets = np.frombuffer(unit_offsets, np.int32)
        self._first = offsets[:-1]
        freqs = [unit_counts[unit] for unit in units]
        self._weights = np.repeat(np.asarray(freqs, np.min_scalar_type(max(freqs))), np.diff(offsets))

        # Summed frequency of the active starts whose run suffix each id is.
        self._suffix_counts = np.zeros(len(self.tokens), np.int64)
        np.add.at(self._suffix_counts, self._suffix, self._weights)
        self._active = np.ones(len(self._suffix), bool)

    def counts(self) -> np.ndarray:
        """Candidate counts under the current segmentation."""
        counts = self._suffix_counts.copy()
        for first, last in self._blocks:
            np.add.at(counts, self._parent[first:last], counts[first:last])
        return counts

    def select(self, counts: np.ndarray, min_count: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Candidates of length >= 2 whose count, discounted by the selected
        candidates they prefix, reaches min_count (all of them when None),
        and the discounted counts."""
        carry = np.zeros_like(counts)
        adjusted = np.zeros_like(counts)
        selected = np.zeros(len(counts), bool)
        for first, last in self._blocks:
            block = slice(first, last)
            np.subtract(counts[block], carry[block], out=adjusted[block])
            if min_count is None:
                selected[block] = True
                pushed = counts[block]
            else:
                np.greater_equal(adjusted[block], min_count, out=selected[block])
                pushed = carry[block] + adjusted[block] * selected[block]
            np.add.at(carry, self._parent[block], pushed)
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
        deep = np.arange(len(self.tokens), dtype=np.int32)
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
        chars -= {"\\", WORD_MARKER}
        self._base = sorted(chars.union(ESCAPE_TOKENS))
        self._unit_counts: Counter | None = unit_counts
        self._max_count = max(unit_counts.values())
        self._ranking: list[str] | None = None
        # Threshold-1 counts, aligned with the ranking and with the base.
        self._ranked_raw: np.ndarray | None = None
        self._base_raw: list[int] = []

    @classmethod
    def from_corpora(
        cls, corpora: Sequence[Iterable[str]], max_train_sentences: int = MAX_TRAIN_SENTENCES
    ) -> "WordpieceLearner":
        if not corpora:
            raise ValueError("cannot learn a vocabulary from an empty corpus")
        return cls(_count_units(corpora, max_train_sentences))

    @property
    def base_tokens(self) -> list[str]:
        return list(self._base)

    def _thresholds(self) -> list[int]:
        ladder = []
        level = self._max_count
        while level >= 2:
            ladder.append(level)
            level //= 2
        ladder.append(1)
        return ladder

    def _canonical_ranking(self) -> list[str]:
        if self._ranking is not None:
            return self._ranking
        builder = _CandidateBuilder(self._unit_counts, self._base)
        # Pass 1 starts from the base at every threshold, so its counts are
        # shared; selecting everything from them is the threshold-1 build.
        first_counts = builder.counts()
        everything, raw = builder.select(first_counts, None)
        raw[builder.base_ids] = first_counts[builder.base_ids]
        ranked = np.zeros(len(raw), bool)
        ranked[builder.base_ids] = True
        levels = []
        for threshold in self._thresholds():
            if threshold <= 1:
                selected, adjusted = everything, raw
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
        self._ranking = [builder.tokens[i] for i in order.tolist()]
        self._ranked_raw = raw[order]
        self._base_raw = raw[builder.base_ids].tolist()
        self._unit_counts = None  # no counting state outlives the ranking
        return self._ranking

    def learn(self, spec: VocabSpec) -> Vocabulary:
        ranking = self._canonical_ranking()
        base = self._base
        target = spec.target_size
        if target < len(base):
            raise ValueError(f"target_size {target} is below the alphabet size {len(base)}")
        wanted = target - len(base)
        selected = ranking[:wanted]
        size = len(base) + len(selected)
        within = abs(size - target) <= spec.tolerance * target
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
