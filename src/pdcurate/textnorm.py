"""Tokenization, character classification and normalization for filtering.

Words are whitespace-delimited tokens; "alpha" means Unicode letters
plus combining marks (categories L* and M*).  Marks are included
because Brahmic scripts write vowels as combining signs: a clean
Sinhala or Tamil sentence must score like a clean Latin one, and under
a letters-only definition almost every Sinhala word would fail.
Normalization variants strip decimal digits (category Nd) or digits
plus punctuation and symbols (Nd + P* + S*), which makes the underscore
count as punctuation and also removes currency/math symbols.

All operations are pure functions of one text.  The per-character
classification is routed through lazily-populated ``str.translate``
tables, filled once per distinct code point.  Corpus-scale passes run a
block of texts at a time in ``filters`` instead (``normalize_texts`` for
dedup, the ``*_keep`` block functions for the filters), and these
functions are the per-text reference they must match.
"""

from __future__ import annotations

import unicodedata
from enum import Enum
from typing import Any, Callable, KeysView


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


class LazyTranslateTable(dict):
    """A dict filled on demand by a function of the key, each key computed once.

    As a str.translate() table, keyed by code point, repeated translate()
    calls cost a plain dict lookup per char.
    """

    def __init__(self, classify: Callable[[Any], Any]):
        super().__init__()
        self._classify = classify

    def __missing__(self, key):
        value = self[key] = self._classify(key)
        return value


def _category(codepoint: int) -> str:
    return unicodedata.category(chr(codepoint))


_STRIP_TABLES = {
    NormMode.STRIP_NUMS: LazyTranslateTable(lambda cp: None if _category(cp) == "Nd" else cp),
    NormMode.STRIP_PUNCT_NUMS: LazyTranslateTable(
        lambda cp: None if _category(cp) == "Nd" or _category(cp)[0] in "PS" else cp
    ),
}
_ALPHA_TABLE = LazyTranslateTable(lambda cp: cp if _category(cp)[0] in "LM" else None)


def is_alpha_word(token: str) -> bool:
    """True when every character is a letter or a combining mark."""
    if token.isalpha():
        return True
    return bool(token) and len(token.translate(_ALPHA_TABLE)) == len(token)


def tokenize(text: str, mode: NormMode = NormMode.IDENTITY) -> list[str]:
    """The tokens of ``normalize(text, mode)``, from one translate and one whitespace split."""
    if mode is NormMode.IDENTITY:
        return text.split()
    return text.translate(_STRIP_TABLES[mode]).split()


def normalize(text: str, mode: NormMode) -> str:
    """Apply a duplicate-comparison normalization variant.

    STRIP_NUMS removes decimal digits; STRIP_PUNCT_NUMS removes digits,
    punctuation and symbols.  Both collapse whitespace runs to single
    spaces and trim the ends.  IDENTITY returns the input untouched.
    """
    if mode is NormMode.IDENTITY:
        return text
    return " ".join(tokenize(text, mode))


def char_ratios(text: str) -> tuple[float, float]:
    """Return (alpha char ratio, alpha word ratio) for a sentence.

    alpha char ratio = alpha characters / non-whitespace characters;
    alpha word ratio = all-alpha tokens / tokens.  Empty or
    whitespace-only input vacuously scores (1.0, 1.0).
    """
    tokens = text.split()
    if not tokens:
        return (1.0, 1.0)
    # whitespace is never L*/M*, so the alpha count of the text is that of its tokens
    alpha_count = len(text.translate(_ALPHA_TABLE))
    alpha_words = sum(1 for tok in tokens if is_alpha_word(tok))
    return (alpha_count / sum(map(len, tokens)), alpha_words / len(tokens))


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
