"""Streaming deduplication of sentence pairs.

Two granularities:

* full-sentence: a pair is removed when the normalized text of a checked
  side exactly matches that of an earlier kept pair (side BOTH removes on
  a match of either side);
* n-gram: a pair is removed when any consecutive n-token window of a
  checked side already occurs among the windows of earlier kept pairs.

Comparison is always same-side (source against earlier sources, target
against earlier targets).  First occurrence wins; the index grows only
from kept pairs, so removals never cascade off already-removed text.
Sentences that normalize to the empty string all collide on the empty
key in full-sentence mode: the first one is kept, the rest removed.
Sentences shorter than n tokens contribute no n-grams and are never
removed by the n-gram variant.

Keys are stored as 64-bit fingerprints (blake2b), which keeps the index
small and makes output independent of Python's per-process hash seed.
Each key is fingerprinted once.  Two distinct keys that share a
fingerprint count as duplicates; at about 2^-64 per comparison, that
risk is accepted.

Stages are chained by ``pipeline.run``, which feeds the survivors of one
stage to the next.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator

from .corpus import SentencePair, Side
from .errors import ConfigError
from .textnorm import NormMode, normalize, word_ngrams

NGRAM_RANGE = (2, 10)


def _blake_fingerprint(key: str) -> int:
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "little")


@dataclass(frozen=True, slots=True)
class DedupSpec:
    """One dedup stage: normalization mode, optional n-gram order, side."""

    norm: NormMode = NormMode.IDENTITY
    ngram: int | None = None
    side: Side = Side.BOTH

    def __post_init__(self):
        if self.ngram is not None and not NGRAM_RANGE[0] <= self.ngram <= NGRAM_RANGE[1]:
            raise ConfigError(
                f"n-gram order {self.ngram} outside supported range "
                f"{NGRAM_RANGE[0]}..{NGRAM_RANGE[1]}"
            )

    def describe(self) -> str:
        base = f"dedup[{self.norm.value}]"
        if self.ngram is not None:
            base += f"-{self.ngram}gram"
        return f"{base}@{self.side.value}"


class SeenIndex(set):
    """The key fingerprints of one side's kept pairs."""

    __slots__ = ()


RemovalCallback = Callable[[SentencePair, str, str], None]


class DedupStream:
    """Single-pass dedup over an id-ordered pair stream.

    Iterate to obtain kept pairs; ``removed_count`` is valid once the
    iterator is exhausted.  ``on_removed(pair, stage, reason)`` fires for
    every removal, which backs the optional removal log.
    """

    def __init__(
        self,
        pairs: Iterable[SentencePair],
        spec: DedupSpec,
        *,
        on_removed: RemovalCallback | None = None,
        stage_name: str | None = None,
    ):
        self._pairs = pairs
        self.spec = spec
        self.removed_count = 0
        self._on_removed = on_removed
        self._stage_name = stage_name or spec.describe()
        # separate index per checked side: comparison is same-side only
        self._source_index = SeenIndex() if spec.side.checks_source else None
        self._target_index = SeenIndex() if spec.side.checks_target else None

    def _keys(self, text: str) -> Collection[str]:
        normalized = normalize(text, self.spec.norm)
        if self.spec.ngram is None:
            return (normalized,)
        return word_ngrams(normalized.split(), self.spec.ngram)

    def _first_hit(self, text: str, index: SeenIndex, fresh: list[int]) -> str | None:
        """The first key of text already in index; fresh gets the fingerprints probed before it."""
        for key in self._keys(text):
            fingerprint = _blake_fingerprint(key)
            if fingerprint in index:
                return key
            fresh.append(fingerprint)
        return None

    def __iter__(self) -> Iterator[SentencePair]:
        source_index, target_index = self._source_index, self._target_index
        last_id = -1
        for pair in self._pairs:
            if pair.id <= last_id:
                raise ValueError(
                    f"pair ids out of order: {pair.id} after {last_id} (stream must be id-sorted)"
                )
            last_id = pair.id

            source_fresh: list[int] = []
            target_fresh: list[int] = []
            hit = None
            if source_index is not None:
                hit = self._first_hit(pair.source, source_index, source_fresh)
            if hit is None and target_index is not None:
                hit = self._first_hit(pair.target, target_index, target_fresh)
            if hit is not None:
                self.removed_count += 1
                if self._on_removed is not None:
                    self._on_removed(pair, self._stage_name, hit)
                continue

            for fingerprint in source_fresh:
                source_index.add(fingerprint)
            for fingerprint in target_fresh:
                target_index.add(fingerprint)
            yield pair


dedup_stream = DedupStream  # function-style name for the same constructor
