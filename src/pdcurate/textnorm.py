"""Code-point classification, tokenization and normalization, a block of texts at a time.

Words are whitespace-delimited tokens; "alpha" means Unicode letters
plus combining marks (categories L* and M*).  Marks are included
because Brahmic scripts write vowels as combining signs: a clean
Sinhala or Tamil sentence must score like a clean Latin one, and under
a letters-only definition almost every Sinhala word would fail.
Normalization variants strip decimal digits (category Nd) or digits
plus punctuation and symbols (Nd + P* + S*), which makes the underscore
count as punctuation and also removes currency/math symbols.

This module is the one place that classifies code points.  A kernel
pass joins a block's texts into one array of code points, at most
``_CHUNK_CODEPOINTS`` at a time (but at least one text), looks up a
class per code point (whitespace, L*/M* alpha, ``str.isalpha`` letter,
the Latin, Sinhala or Tamil block of a letter, Nd digit, P*/S*) and sums
the classes per text with ``np.add.reduceat`` (``_per_text`` with a
``_count_*`` kernel).  ``filters``' block functions and ``lid``'s script
detector count with these.  ``normalize_texts``, which dedup
fingerprints, runs over the same chunks: it drops the code points of
the mode's strip classes by a mask, keeps one space before each token
but the first, and yields the chunk's code points undecoded.  The class
of a code point below U+10000 is computed once per process, on first
sight; one above is computed again on each pass it occurs in.  numpy is
imported on the first call (``corpus._LazyNumpy``).

``normalize``, ``tokenize``, ``is_alpha_word`` and ``char_ratios`` are
one-text calls of the same kernels, so each call costs tens of
microseconds; bulk work goes through a block.
"""

from __future__ import annotations

import unicodedata
from enum import Enum
from functools import cache
from typing import Callable, Iterator, KeysView, Sequence

from .corpus import _LazyNumpy

np = _LazyNumpy(globals())

_CHUNK_CODEPOINTS = 1 << 16  # code points classified per kernel pass


class NormMode(Enum):
    """How sentence text is normalized before duplicate comparison."""

    IDENTITY = "identity"
    STRIP_NUMS = "nums"
    STRIP_PUNCT_NUMS = "punctnums"

    @classmethod
    def from_string(cls, name: str) -> "NormMode":
        key = name.strip().lower()
        for mode in cls:
            if mode.value == key:
                return mode
        if key in ("", "id", "none"):
            return cls.IDENTITY
        raise ValueError(f"unknown normalization mode: {name!r}")


# bits of a code point's class; _KNOWN marks a class table entry as filled
_SPACE, _ALPHA, _LETTER, _LATIN, _SINHALA, _TAMIL = 1, 2, 4, 8, 16, 32
_DIGIT, _PUNCT, _KNOWN = 64, 128, 256  # Nd; P* or S*
_STRIP_BITS = {NormMode.STRIP_NUMS: _DIGIT, NormMode.STRIP_PUNCT_NUMS: _DIGIT | _PUNCT}
# the blocks of the letters of each script that script LID tells apart,
# in the order of lid.TIE_ORDER; the three are disjoint
_SCRIPT_BLOCKS = (
    (_LATIN, ((0x0041, 0x005A), (0x0061, 0x007A), (0x00C0, 0x00FF), (0x0100, 0x024F), (0x1E00, 0x1EFF))),
    (_SINHALA, ((0x0D80, 0x0DFF),)),
    (_TAMIL, ((0x0B80, 0x0BFF),)),
)


def _classify(codepoint: int) -> int:
    char = chr(codepoint)
    category = unicodedata.category(char)
    bits = _KNOWN
    if char.isspace():
        bits |= _SPACE
    if category[0] in "LM":
        bits |= _ALPHA
    if char.isalpha():
        bits |= _LETTER
        for script, blocks in _SCRIPT_BLOCKS:
            if any(lo <= codepoint <= hi for lo, hi in blocks):
                bits |= script
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


def _chunks(texts: Sequence[str]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
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


def _per_text(texts: Sequence[str], kernel: Callable, rows: int) -> np.ndarray:
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
    """str.isalpha code points, then those of each script of _SCRIPT_BLOCKS."""
    return [_sums((classes & bit).astype(bool), starts) for bit in (_LETTER, _LATIN, _SINHALA, _TAMIL)]


def normalize_texts(texts: Sequence[str], mode: NormMode) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The tokens of each text after mode's stripping, joined by single spaces, a chunk at a time.

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


def normalized_texts(texts: Sequence[str], mode: NormMode) -> list[str]:
    """Each text as ``normalize_texts`` gives it, decoded one chunk at a time."""
    out = [""] * len(texts)
    for at, codepoints, starts in normalize_texts(texts, mode):
        text = codepoints.tobytes().decode("utf-32-le", "surrogatepass")
        bounds = [*starts.tolist(), len(text)]
        for i, start, end in zip(at.tolist(), bounds, bounds[1:]):
            out[i] = text[start:end]
    return out


def is_alpha_word(token: str) -> bool:
    """True when every character is a letter or a combining mark."""
    return 0 < len(token) == int(_per_text([token], _count_alpha_chars, 2)[0, 0])


def tokenize(text: str, mode: NormMode = NormMode.IDENTITY) -> list[str]:
    """The whitespace-delimited tokens of text after mode's stripping."""
    return normalized_texts([text], mode)[0].split()


def normalize(text: str, mode: NormMode) -> str:
    """Apply a duplicate-comparison normalization variant.

    STRIP_NUMS removes decimal digits; STRIP_PUNCT_NUMS removes digits,
    punctuation and symbols.  Both collapse whitespace runs to single
    spaces and trim the ends.  IDENTITY returns the input untouched.
    """
    return text if mode is NormMode.IDENTITY else normalized_texts([text], mode)[0]


def char_ratios(text: str) -> tuple[float, float]:
    """Return (alpha char ratio, alpha word ratio) for a sentence.

    alpha char ratio = alpha characters / non-whitespace characters;
    alpha word ratio = all-alpha tokens / tokens.  Empty or
    whitespace-only input vacuously scores (1.0, 1.0).
    """
    kernel = lambda classes, starts: [*_count_alpha_chars(classes, starts), *_count_alpha_words(classes, starts)]
    alpha_chars, chars, alpha_words, tokens = _per_text([text], kernel, 4)[:, 0].tolist()
    return (alpha_chars / chars, alpha_words / tokens) if tokens else (1.0, 1.0)


def word_ngrams(tokens: list[str], n: int) -> KeysView[str]:
    """All distinct consecutive n-token windows as a set-like view, in order.

    Windows are keyed by space-joined tokens and come in order of first
    position, so the first key a dedup probe hits does not depend on
    Python's per-process hash seed, as set order would.  Tokens never
    contain whitespace, so the space separator cannot make two distinct
    windows collide.  Shorter-than-n input yields no windows.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return dict.fromkeys([" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]).keys()
