"""Stateless per-pair filters: length, language-ID and ratio heuristics.

All predicates are pure (same pair and spec always give the same
verdict) and side-aware: S or T inspects one side, ST requires every
checked side to pass.  Ratio boundaries are inclusive so published
thresholds behave deterministically at the knife edge.

Published source-to-target length ratio windows (word-based, mean plus
or minus one standard deviation on a trusted reference set):

* en-si  0.79 - 1.39
* en-ta  0.87 - 1.62
* si-ta  0.85 - 1.57

The word/character alpha-ratio filters use 0.6 as the usual lower bound,
0.8 in the stricter combined-pipeline variant.  LID filtering optionally
requires the prediction probability to clear a threshold (0.7 in the
recommended setup); a predictor failure fails the pair closed and is
counted separately in run reports via the on_error hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .corpus import SentencePair, Side
from .errors import ConfigError, PredictorError
from .lid import LidPredictor
from .textnorm import char_ratios

STRATIO_BOUNDS = {
    ("en", "si"): (0.79, 1.39),
    ("en", "ta"): (0.87, 1.62),
    ("si", "ta"): (0.85, 1.57),
}

LID_PROB_THRESHOLD = 0.7
SENT_RATIO_THRESHOLD = 0.6
SENT_RATIO_STRICT = 0.8
MIN_WORDS_DEFAULT = 5


@dataclass(frozen=True, slots=True)
class LengthSpec:
    """Minimum word count per checked side."""

    min_words: int = MIN_WORDS_DEFAULT
    side: Side = Side.BOTH

    def __post_init__(self):
        if self.min_words < 1:
            raise ConfigError(f"min_words must be >= 1, got {self.min_words}")


@dataclass(frozen=True, slots=True)
class LidSpec:
    """Expected language per side, with an optional probability floor."""

    expected_source: str
    expected_target: str
    min_prob: float | None = None
    side: Side = Side.BOTH

    def __post_init__(self):
        if self.min_prob is not None and not 0.0 <= self.min_prob <= 1.0:
            raise ConfigError(f"min_prob must lie in [0, 1], got {self.min_prob}")


class RatioKind(Enum):
    ST_RATIO = "stratio"
    SENT_W_RATIO = "sentwratio"
    SENT_C_RATIO = "sentcratio"


@dataclass(frozen=True, slots=True)
class RatioSpec:
    """Ratio filter: a [lo, hi] window for ST_RATIO, a floor for the others.

    side is ignored for ST_RATIO, which is inherently pairwise.  The
    floor-only kinds reject hi rather than silently ignore it.
    """

    kind: RatioKind
    lo: float
    hi: float | None = None
    side: Side = Side.BOTH

    def __post_init__(self):
        if self.kind is not RatioKind.ST_RATIO:
            if self.hi is not None:
                raise ConfigError(f"{self.kind.value} takes only lo, got hi {self.hi}")
        elif self.hi is None:
            raise ConfigError("stratio needs both lo and hi bounds")
        elif self.lo > self.hi:
            raise ConfigError(f"lo {self.lo} exceeds hi {self.hi}")


def length_pass(pair: SentencePair, spec: LengthSpec) -> bool:
    """True iff every checked side has at least min_words tokens."""
    return all(len(text.split()) >= spec.min_words for text in pair.side_text(spec.side))


def lid_pass(
    pair: SentencePair,
    spec: LidSpec,
    predictor: LidPredictor,
    on_error: Callable[[SentencePair, Side, Exception], None] | None = None,
) -> bool:
    """True iff every checked side carries the expected language label.

    With min_prob set, the prediction probability must also clear it.
    Predictor failures remove the pair (fail closed); on_error lets run
    reports count those separately.
    """
    checks: list[tuple[Side, str, str]] = []
    if spec.side.checks_source:
        checks.append((Side.SOURCE, pair.source, spec.expected_source))
    if spec.side.checks_target:
        checks.append((Side.TARGET, pair.target, spec.expected_target))
    for side, text, expected in checks:
        try:
            pred = predictor.predict(text, pair_id=pair.id, side=side)
        except PredictorError as exc:
            if on_error is not None:
                on_error(pair, side, exc)
            return False
        if pred.label != expected:
            return False
        if spec.min_prob is not None and pred.prob < spec.min_prob:
            return False
    return True


def ratio_pass(pair: SentencePair, spec: RatioSpec) -> bool:
    """Apply one ratio heuristic; boundaries are inclusive.

    ST_RATIO compares source word count to target word count within
    [lo, hi]; an empty target fails.  The SENT_* variants require the
    alpha ratio of every checked side to be at least lo.
    """
    if spec.kind is RatioKind.ST_RATIO:
        tgt_words = len(pair.target.split())
        if tgt_words == 0:
            return False
        ratio = len(pair.source.split()) / tgt_words
        return spec.lo <= ratio <= spec.hi
    index = 0 if spec.kind is RatioKind.SENT_C_RATIO else 1
    return all(char_ratios(text)[index] >= spec.lo for text in pair.side_text(spec.side))


def stratio_bounds_from_reference(
    src_lengths: Sequence[int], tgt_lengths: Sequence[int]
) -> tuple[float, float]:
    """Derive an ST ratio window as mean +/- population stddev of per-pair ratios.

    Use this to extend the published windows to new language pairs from
    a trusted reference set.
    """
    if len(src_lengths) == 0 or len(src_lengths) != len(tgt_lengths):
        raise ValueError("need equal-length non-empty source/target length lists")
    tgt = np.asarray(tgt_lengths, dtype=np.float64)
    if np.any(tgt <= 0):
        raise ValueError("target lengths must all be positive")
    ratios = np.asarray(src_lengths, dtype=np.float64) / tgt
    mean = float(ratios.mean())
    std = float(ratios.std())  # population stddev (ddof=0)
    return (mean - std, mean + std)
