"""The evaluation statistics that need only the standard library: the
learning-curve stopping criterion, output token analysis, and the option
names of the BLEU pipeline.  `xfervocab.mteval` re-exports every name here,
so `eval stop` and `eval token-analysis` start without numpy.  The token
analysis counts each sentence's tokens into plain dicts: a sentence holds a
few tokens, and a `Counter` costs more to build than they take to count.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import CorpusFormatError, Record
from .textio import read_lines, render_tsv

TOKENIZATIONS = ("none", "intl")
SMOOTHINGS = ("none", "exponential")
RELATIVE_TO = ("global", "prewindow")


class LearningCurve(Record):
    """(step, score) points, kept as a tuple of (step, score) tuples: steps
    strictly increasing, and no score NaN."""

    points: tuple[tuple[int, float], ...]

    def __init__(self, points: Sequence[tuple[int, float]]):
        points = tuple(map(tuple, points))
        problem = _first_bad_point(points)
        if problem is not None:
            raise ValueError(problem[1])
        self._hold(points=points)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_tsv(cls, path: str | Path) -> "LearningCurve":
        lines = read_lines(path)
        first = 2 if lines and lines[0].partition("\t")[0] == "step" else 1  # only line 1 may be a header
        points = []
        for i, line in enumerate(lines[first - 1 :], start=first):
            step, _, score = line.partition("\t")
            try:
                points.append((int(step), float(score)))
            except ValueError:
                raise CorpusFormatError(f"{path}: line {i}: expected step<TAB>score") from None
        try:
            return cls(points)
        except ValueError:  # only validation raises; find the line again
            index, message = _first_bad_point(points)
            raise CorpusFormatError(f"{path}: line {index + first}: {message}") from None

    def to_tsv(self) -> str:
        return render_tsv([("step", "score"), *self.points])


def _first_bad_point(points: Sequence[tuple[int, float]]) -> tuple[int, str] | None:
    """The index of the first point whose score is NaN (no comparison with it
    holds) or whose step does not follow the step before it, and what is
    wrong with it; None when every point is valid.  Infinite scores are legal."""
    for i, (step, score) in enumerate(points):
        if math.isnan(score):
            return i, f"score at step {step} is not a number"
        if i and step <= points[i - 1][0]:
            return i, (
                f"step {step} does not follow step {points[i - 1][0]}; learning curve steps must be strictly increasing"
            )
    return None


def should_stop(
    curve: LearningCurve | Sequence[tuple[int, float]],
    window_frac: float = 0.5,
    delta_frac: float = 0.005,
    min_evals: int = 4,
    relative_to: str = "global",
) -> tuple[bool, int]:
    """Stop when the best score inside the most recent window improves on the
    best outside it by no more than delta_frac of the maximal reached score.

    Returns (stop, best_step) where best_step is the step of the global
    maximum.  relative_to selects the delta denominator: "global" (the
    maximum anywhere) or "prewindow" (the maximum before the window).
    """
    points = (curve if isinstance(curve, LearningCurve) else LearningCurve(curve)).points
    if not points:
        raise ValueError("cannot evaluate an empty learning curve")
    if relative_to not in RELATIVE_TO:
        raise ValueError("relative_to must be 'global' or 'prewindow'")
    if not 0 < window_frac <= 1:
        raise ValueError("window_frac must be in (0, 1]")
    if not delta_frac >= 0:  # NaN too: every comparison with it is false, so the run never stops
        raise ValueError(f"delta_frac must be non-negative, got {delta_frac}")
    scores = [score for _, score in points]
    best_index = max(range(len(scores)), key=lambda i: (scores[i], -i))
    best_step = points[best_index][0]

    t = len(points)
    window = math.ceil(window_frac * t)
    if t < min_evals or window >= t:
        return False, best_step
    inside = max(scores[t - window :])
    outside = max(scores[: t - window])
    denominator = max(scores) if relative_to == "global" else outside
    return inside - outside <= delta_frac * denominator, best_step


class TokenOverlap(NamedTuple):
    """Child output tokens classed by their confirmation source."""

    baseline_and_reference: int
    baseline_only: int
    reference_only: int
    neither: int

    @property
    def total(self) -> int:
        return self.baseline_and_reference + self.baseline_only + self.reference_only + self.neither

    def to_tsv(self) -> str:
        header = ("baseline_and_reference", "baseline_only", "reference_only", "neither", "total")
        return render_tsv([header, (*self, self.total)])


def token_overlap_analysis(
    child_out: Sequence[Sequence[str]],
    baseline_out: Sequence[Sequence[str]],
    reference: Sequence[Sequence[str]],
) -> TokenOverlap:
    """Classify every child output token by whether the baseline output and
    the reference confirm it, with per-sentence clipped multiset matching."""
    if not (len(child_out) == len(baseline_out) == len(reference)):
        raise ValueError(
            f"sentence counts differ: child {len(child_out)}, baseline {len(baseline_out)}, "
            f"reference {len(reference)}"
        )
    # Per sentence, over the child's token counts c: B = sum(min(c, b)), R = sum(min(c, r))
    # and O = sum(min(c, b, r)).  Then both = O, baseline_only = B - O, reference_only = R - O,
    # and, since max(x, y) = x + y - min(x, y), neither = len(child) - B - R + O.
    tokens = clipped_base = clipped_ref = clipped_both = 0
    for child, base, ref in zip(child_out, baseline_out, reference):
        base_counts, ref_counts = _token_counts(base), _token_counts(ref)
        for token, count in _token_counts(child).items():
            # Each min as a conditional expression: a call per token costs more than its sums.
            in_base = base_counts.get(token, 0)
            in_base = count if in_base > count else in_base
            in_ref = ref_counts.get(token, 0)
            in_ref = count if in_ref > count else in_ref
            clipped_base += in_base
            clipped_ref += in_ref
            clipped_both += in_base if in_base < in_ref else in_ref
        tokens += len(child)
    return TokenOverlap(
        clipped_both,
        clipped_base - clipped_both,
        clipped_ref - clipped_both,
        tokens - clipped_base - clipped_ref + clipped_both,
    )


def _token_counts(tokens: Sequence[str]) -> dict[str, int]:
    """How often each token occurs: a plain dict, since building a `Counter`
    costs more than counting a sentence's few tokens."""
    counts = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return counts
