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

Each filter kind has a per-pair predicate (``length_pass``, ``lid_pass``,
``ratio_pass``), which is the reference, and a block function
(``length_keep``, ``lid_keep`` for the built-in script detector,
``ratio_keep``) that gives the same verdicts for a list of pairs at
once.  A block function joins one checked side's texts into one array of
code points, at most ``_CHUNK_CODEPOINTS`` at a time (but at least one
text), looks up a class per code point (whitespace, L*/M* alpha,
``str.isalpha`` letter, Latin, Sinhala, Tamil, Nd digit, P*/S*) and sums
the classes per text with ``np.add.reduceat``.  ``normalize_texts``, the
block form of ``textnorm.normalize`` that dedup fingerprints, runs over
the same chunks: it drops the code points of the mode's strip classes by
a mask, keeps one space before each token but the first, and yields the
chunk's code points undecoded.  The class of a code point below U+10000
is computed once per process, on first sight; one above is computed
again on each pass it occurs in.  numpy is imported on the first call
(``corpus._LazyNumpy``).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Callable, Iterator, Sequence

from .corpus import PairBlock, SentencePair, Side, _LazyNumpy
from .errors import ConfigError, PredictorError
from .lid import _MARK_LATIN, _MARK_SINHALA, _MARK_TAMIL, TIE_ORDER, LidPredictor, _script_mark
from .textnorm import NormMode, char_ratios, is_alpha_word

np = _LazyNumpy(globals())

STRATIO_BOUNDS = {
    ("en", "si"): (0.79, 1.39),
    ("en", "ta"): (0.87, 1.62),
    ("si", "ta"): (0.85, 1.57),
}

LID_PROB_THRESHOLD = 0.7
SENT_RATIO_THRESHOLD = 0.6
SENT_RATIO_STRICT = 0.8
MIN_WORDS_DEFAULT = 5

_CHUNK_CODEPOINTS = 1 << 16  # code points classified per pass of a block function


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


# bits of a code point's class; _KNOWN marks a class table entry as filled
_SPACE, _ALPHA, _LETTER, _LATIN, _SINHALA, _TAMIL = 1, 2, 4, 8, 16, 32
_DIGIT, _PUNCT, _KNOWN = 64, 128, 256  # Nd; P* or S*
_SCRIPT_BITS = {_MARK_LATIN: _LATIN, _MARK_SINHALA: _SINHALA, _MARK_TAMIL: _TAMIL}
_SCRIPT_CODES = {**{lang: code for code, lang in enumerate(TIE_ORDER)}, "und": -1}
_STRIP_BITS = {NormMode.STRIP_NUMS: _DIGIT, NormMode.STRIP_PUNCT_NUMS: _DIGIT | _PUNCT}


def _classify(codepoint: int) -> int:
    char = chr(codepoint)
    bits = _KNOWN | _SCRIPT_BITS.get(_script_mark(codepoint), 0)
    if char.isspace():
        bits |= _SPACE
    if is_alpha_word(char):  # L* or M*
        bits |= _ALPHA
    if char.isalpha():
        bits |= _LETTER
    category = unicodedata.category(char)
    if category == "Nd":
        bits |= _DIGIT
    elif category[0] in "PS":
        bits |= _PUNCT
    return bits


@cache
def _bmp_classes() -> np.ndarray:
    """The class of each code point below U+10000, or 0 while not yet computed."""
    return np.zeros(0x10000, dtype=np.uint16)


def _classes(codepoints: np.ndarray) -> np.ndarray:
    """The class of each uint32 code point, as a uint16 array."""
    table = _bmp_classes()
    classes = table.take(codepoints, mode="clip")
    astral = np.flatnonzero(codepoints > 0xFFFF)
    if astral.size:
        distinct, where = np.unique(codepoints[astral], return_inverse=True)
        found = np.array([_classify(cp) for cp in distinct.tolist()], dtype=np.uint16)
        classes[astral] = found[where]
    new = np.flatnonzero(classes == 0)
    if new.size:
        distinct = np.unique(codepoints[new])
        table[distinct] = [_classify(cp) for cp in distinct.tolist()]
        classes[new] = table[codepoints[new]]
    return classes


# A kernel takes the classes of a chunk's code points and the offsets
# at which its non-empty texts start, and returns rows of counts, one
# column per such text.


def _chunks(texts: list[str]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The texts' code points, at most _CHUNK_CODEPOINTS at a time but at least one text.

    For each run of texts with a non-empty one, yields the indices of
    its non-empty texts, their code points as one uint32 array and the
    offset at which each of them starts in it.  The generator keeps no
    reference to the code points, so a caller can free them.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    ends = np.cumsum(lengths)
    begin = 0
    while begin < len(texts):
        limit = ends[begin] - lengths[begin] + _CHUNK_CODEPOINTS
        end = max(int(ends.searchsorted(limit, "right")), begin + 1)
        sizes = lengths[begin:end]
        nonempty = np.flatnonzero(sizes)
        if nonempty.size:
            yield (
                begin + nonempty,
                np.frombuffer("".join(texts[begin:end]).encode("utf-32-le", "surrogatepass"), dtype="<u4"),
                (np.cumsum(sizes) - sizes)[nonempty],
            )
        begin = end


def _per_text(texts: list[str], kernel: Callable, rows: int) -> np.ndarray:
    """kernel's rows of counts for each text, shape (rows, len(texts)); an empty text counts 0."""
    counts = np.zeros((rows, len(texts)), dtype=np.intp)
    for at, codepoints, starts in _chunks(texts):
        classes = _classes(codepoints)
        del codepoints  # frees the code points before the kernel runs
        counts[:, at] = kernel(classes, starts)
    return counts


def _sums(flags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return np.add.reduceat(flags, starts, dtype=np.intp)


def _token_starts(classes: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where a token begins (a non-space after a space or at a text start), and the spaces."""
    space = (classes & _SPACE).astype(bool)
    after_space = np.empty_like(space)
    after_space[0] = True
    after_space[1:] = space[:-1]
    after_space[starts] = True
    return after_space & ~space, space


def _count_tokens(classes, starts):
    return [_sums(_token_starts(classes, starts)[0], starts)]


def _count_alpha_words(classes, starts):
    """Tokens with only L*/M* code points, and all tokens."""
    begins, space = _token_starts(classes, starts)
    tokens = _sums(begins, starts)
    at = np.flatnonzero(begins)
    if not at.size:
        return [tokens, tokens]
    # a token runs up to the next token's start; the spaces in between are not "other"
    other = ~space & ((classes & _ALPHA) == 0)
    begins[at] = np.logical_or.reduceat(other, at)  # now: where a token with an other code point starts
    return [tokens - _sums(begins, starts), tokens]


def _count_alpha_chars(classes, starts):
    """L*/M* code points, and non-space code points."""
    return [_sums((classes & _ALPHA).astype(bool), starts), _sums((classes & _SPACE) == 0, starts)]


def _count_letters(classes, starts):
    """str.isalpha code points, then those of each TIE_ORDER script."""
    return [_sums((classes & bit).astype(bool), starts) for bit in (_LETTER, _LATIN, _SINHALA, _TAMIL)]


def normalize_texts(texts: list[str], mode: NormMode) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``" ".join(textnorm.normalize(text, mode).split())`` of the texts, a chunk at a time.

    Yields, as ``_chunks`` does, the indices of a chunk's texts that do
    not normalize to "", their normalized code points as one uint32
    array and the offset at which each starts in it.  Only in IDENTITY,
    which keeps whitespace, does this differ from ``normalize``.
    """
    strip = _STRIP_BITS.get(mode, 0)
    for at, codepoints, starts in _chunks(texts):
        classes = _classes(codepoints)
        if strip:
            keep = (classes & strip) == 0
            left = _sums(keep, starts)  # code points of each text that are not stripped
            codepoints, classes = codepoints[keep], classes[keep]
            del keep
            if not codepoints.size:
                continue
            at, left = at[left > 0], left[left > 0]
            starts = np.cumsum(left) - left
        begins, space = _token_starts(classes, starts)
        del classes
        # one space goes out before each token that does not start its text;
        # leading whitespace gives one too, which is dropped below
        out = np.zeros_like(space)
        out[:-1] = begins[1:]
        out[starts[1:] - 1] = False
        del begins
        lead = space[starts]
        out |= ~space
        sizes = _sums(out, starts)
        codepoints = codepoints[out]
        codepoints[space[out]] = 0x20
        del out, space
        lead &= sizes > 0  # a text of whitespace alone gives nothing
        if lead.any():
            keep = np.ones(codepoints.size, dtype=bool)
            keep[(np.cumsum(sizes) - sizes)[lead]] = False
            codepoints = codepoints[keep]
            sizes -= lead
        nonempty = sizes > 0
        if nonempty.any():
            yield at[nonempty], codepoints, (np.cumsum(sizes) - sizes)[nonempty]


def _checked(pairs: Sequence[SentencePair] | PairBlock, side: Side) -> Iterator[tuple[Sequence[str], bool]]:
    """The texts of each side that side checks, with True for the source side."""
    block = pairs if isinstance(pairs, PairBlock) else PairBlock.of(pairs)
    if side.checks_source:
        yield block.sources, True
    if side.checks_target:
        yield block.targets, False


def length_keep(pairs: Sequence[SentencePair] | PairBlock, spec: LengthSpec) -> np.ndarray:
    """length_pass of each pair, as a boolean array."""
    keep = np.ones(len(pairs), dtype=bool)
    for texts, _ in _checked(pairs, spec.side):
        keep &= _per_text(texts, _count_tokens, 1)[0] >= spec.min_words
    return keep


def lid_keep(pairs: Sequence[SentencePair] | PairBlock, spec: LidSpec) -> np.ndarray:
    """lid_pass of each pair with the script detector (``ScriptPredictor``), as a boolean array."""
    keep = np.ones(len(pairs), dtype=bool)
    for texts, is_source in _checked(pairs, spec.side):
        letters, *scripts = _per_text(texts, _count_letters, 4)
        best = np.max(scripts, axis=0)
        label = np.argmax(scripts, axis=0)  # the first of tied scripts, as in TIE_ORDER
        label[best == 0] = _SCRIPT_CODES["und"]
        expected = spec.expected_source if is_source else spec.expected_target
        keep &= label == _SCRIPT_CODES.get(expected, -2)  # -2: a label the detector never gives
        if spec.min_prob is not None:
            prob = np.divide(best, letters, out=np.zeros(len(texts)), where=best > 0)
            keep &= prob >= spec.min_prob
    return keep


def ratio_keep(pairs: Sequence[SentencePair] | PairBlock, spec: RatioSpec) -> np.ndarray:
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
