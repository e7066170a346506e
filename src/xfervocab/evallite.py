"""The evaluation statistics that need only the standard library: the
learning-curve stopping criterion, output token analysis, and the option
names of the BLEU pipeline.  `xfervocab.mteval` re-exports every name here,
so `eval stop` and `eval token-analysis` start without numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Sequence

from .errors import CorpusFormatError
from .textio import read_lines, render_tsv

TOKENIZATIONS = ("none", "intl")
SMOOTHINGS = ("none", "exponential")
RELATIVE_TO = ("global", "prewindow")


@dataclass(frozen=True)
class LearningCurve:
    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        steps = [step for step, _ in self.points]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("learning curve steps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_tsv(cls, path: str | Path) -> "LearningCurve":
        points = []
        for i, line in enumerate(read_lines(path), start=1):
            step, _, score = line.partition("\t")
            if step == "step":  # header
                continue
            try:
                point = (int(step), float(score))
            except ValueError:
                raise CorpusFormatError(f"{path}: line {i}: expected step<TAB>score") from None
            if points and point[0] <= points[-1][0]:
                raise CorpusFormatError(
                    f"{path}: line {i}: step {point[0]} does not follow step {points[-1][0]};"
                    " learning curve steps must be strictly increasing"
                )
            points.append(point)
        return cls(tuple(points))

    def to_tsv(self) -> str:
        return render_tsv([("step", "score"), *self.points])


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
    points = list(curve.points if isinstance(curve, LearningCurve) else curve)
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


@dataclass(frozen=True)
class TokenOverlap:
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
        return render_tsv([header, (*astuple(self), self.total)])


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
        base_counts, ref_counts = Counter(base), Counter(ref)
        for token, count in Counter(child).items():
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
