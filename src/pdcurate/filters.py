"""Stateless filters: length, language-ID and ratio heuristics.

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

Each filter kind has a block function (``length_keep``, ``lid_keep``,
``ratio_keep``) that decides a list of pairs at once, and a per-pair
predicate (``length_pass``, ``lid_pass``, ``ratio_pass``), a one-pair
call of it that costs tens of microseconds.  The block functions count
the classes of each checked side's code points with ``textnorm``'s
kernels, which own code-point classification; ``lid_keep`` does so for
the script detector and asks any other ``LidPredictor`` text by text.
numpy is imported on the first call (``corpus._LazyNumpy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

from .corpus import PairBlock, SentencePair, Side, _LazyNumpy
from .errors import ConfigError, PredictorError
from .lid import _LABELS, LidPredictor, _is_script_detector, _script_labels
# nothing here calls char_ratios; the name stays a seam that perfbench/tracer.py patches
from .textnorm import _count_alpha_chars, _count_alpha_words, _count_tokens, _per_text, char_ratios  # noqa: F401

np = _LazyNumpy(globals())

_Pairs = Sequence[SentencePair] | PairBlock
_OnError = Callable[[SentencePair, Side, Exception], None] | None  # on_error(pair, side, exc) of a predictor failure

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
    floor-only kinds reject hi rather than silently ignore it.  No bound
    is negative, and a floor lies in [0, 1] as the ratio does, so no
    bound removes every pair by itself.
    """

    kind: RatioKind
    lo: float
    hi: float | None = None
    side: Side = Side.BOTH

    def __post_init__(self):
        if self.kind is not RatioKind.ST_RATIO:
            if self.hi is not None:
                raise ConfigError(f"{self.kind.value} takes only lo, got hi {self.hi}")
            if not 0.0 <= self.lo <= 1.0:
                raise ConfigError(f"{self.kind.value} lo must lie in [0, 1], got {self.lo}")
        elif self.hi is None:
            raise ConfigError("stratio needs both lo and hi bounds")
        elif min(self.lo, self.hi) < 0:
            raise ConfigError(f"stratio bounds must not be negative, got lo {self.lo} and hi {self.hi}")
        elif self.lo > self.hi:
            raise ConfigError(f"lo {self.lo} exceeds hi {self.hi}")


def length_pass(pair: SentencePair, spec: LengthSpec) -> bool:
    """True iff every checked side has at least min_words tokens: ``length_keep`` of one pair."""
    return bool(length_keep([pair], spec)[0])


def lid_pass(pair: SentencePair, spec: LidSpec, predictor: LidPredictor, on_error: _OnError = None) -> bool:
    """True iff every checked side carries the expected language label: ``lid_keep`` of one pair.

    With min_prob set, the prediction probability must also clear it.
    Predictor failures remove the pair (fail closed); on_error lets run
    reports count those separately.
    """
    report = on_error and (lambda _, side, exc: on_error(pair, side, exc))  # pair itself, not a copy
    return bool(lid_keep([pair], spec, predictor, report)[0])


def ratio_pass(pair: SentencePair, spec: RatioSpec) -> bool:
    """Apply one ratio heuristic, ``ratio_keep`` of one pair; boundaries are inclusive.

    ST_RATIO compares source word count to target word count within
    [lo, hi]; an empty target fails.  The SENT_* variants require the
    alpha ratio of every checked side to be at least lo.
    """
    return bool(ratio_keep([pair], spec)[0])


def _checked(pairs: _Pairs, side: Side) -> Iterator[tuple[Sequence[str], Side]]:
    """The texts of each side that side checks, source first, with that side."""
    block = pairs if isinstance(pairs, PairBlock) else PairBlock.of(pairs)
    if side.checks_source:
        yield block.sources, Side.SOURCE
    if side.checks_target:
        yield block.targets, Side.TARGET


def length_keep(pairs: _Pairs, spec: LengthSpec) -> np.ndarray:
    """length_pass of each pair, as a boolean array."""
    keep = np.ones(len(pairs), dtype=bool)
    for texts, _ in _checked(pairs, spec.side):
        keep &= _per_text(texts, _count_tokens, 1)[0] >= spec.min_words
    return keep


def lid_keep(
    pairs: _Pairs, spec: LidSpec, predictor: LidPredictor | None = None, on_error: _OnError = None
) -> np.ndarray:
    """lid_pass of each pair, as a boolean array; predictor None is the script detector.

    The script detector labels each checked side's texts at once.  Any
    other predictor is asked text by text, the source side first, and
    about a side only for the pairs that passed the side before it.
    """
    block = pairs if isinstance(pairs, PairBlock) else PairBlock.of(pairs)
    keep = np.ones(len(block), dtype=bool)
    for texts, side in _checked(block, spec.side):
        expected = spec.expected_source if side is Side.SOURCE else spec.expected_target
        if _is_script_detector(predictor):
            labels, probs = _script_labels(texts)
            keep &= labels == (_LABELS.index(expected) if expected in _LABELS else -1)  # -1: no label's code
        else:
            ids, probs = block.ids.tolist(), np.zeros(len(block))
            for at in np.flatnonzero(keep).tolist():
                try:
                    pred = predictor.predict(texts[at], pair_id=ids[at], side=side)
                except PredictorError as exc:
                    if on_error is not None:
                        on_error(SentencePair(ids[at], block.sources[at], block.targets[at]), side, exc)
                    keep[at] = False
                    continue
                keep[at], probs[at] = pred.label == expected, pred.prob
        if spec.min_prob is not None:
            keep &= probs >= spec.min_prob
    return keep


def ratio_keep(pairs: _Pairs, spec: RatioSpec) -> np.ndarray:
    """ratio_pass of each pair, as a boolean array."""
    if spec.kind is RatioKind.ST_RATIO:
        source, target = (
            _per_text(texts, _count_tokens, 1)[0] for texts, _ in _checked(pairs, Side.BOTH)
        )
        ratio = np.divide(source, target, out=np.zeros(len(pairs)), where=target > 0)
        return (target > 0) & (spec.lo <= ratio) & (ratio <= spec.hi)
    kernel = _count_alpha_chars if spec.kind is RatioKind.SENT_C_RATIO else _count_alpha_words
    keep = np.ones(len(pairs), dtype=bool)
    for texts, _ in _checked(pairs, spec.side):
        part, whole = _per_text(texts, kernel, 2)
        # a text with no tokens scores a vacuous 1.0
        keep &= np.divide(part, whole, out=np.ones(len(texts)), where=whole > 0) >= spec.lo
    return keep


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
