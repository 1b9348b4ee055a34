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
The optional exact mode additionally stores key strings, verifies every
fingerprint hit and counts fingerprint collisions between distinct keys.
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


class SeenIndex:
    """Growable set of key fingerprints with optional exact verification."""

    __slots__ = ("_fingerprints", "_exact", "collision_count", "_hash")

    def __init__(self, exact: bool = False, hash_fn: Callable[[str], int] | None = None):
        self._fingerprints: set[int] = set()
        self._exact: dict[int, str | set[str]] | None = {} if exact else None
        self.collision_count = 0
        self._hash = hash_fn or _blake_fingerprint

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __contains__(self, key: str) -> bool:
        fp = self._hash(key)
        if fp not in self._fingerprints:
            return False
        if self._exact is None:
            return True
        stored = self._exact[fp]
        if isinstance(stored, str):
            if stored == key:
                return True
        elif key in stored:
            return True
        self.collision_count += 1
        return False

    def add(self, key: str) -> None:
        fp = self._hash(key)
        self._fingerprints.add(fp)
        if self._exact is None:
            return
        stored = self._exact.get(fp)
        if stored is None:
            self._exact[fp] = key
        elif isinstance(stored, str):
            if stored != key:
                self._exact[fp] = {stored, key}
        else:
            stored.add(key)


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
        exact: bool = False,
        on_removed: RemovalCallback | None = None,
        stage_name: str | None = None,
    ):
        self._pairs = pairs
        self.spec = spec
        self.removed_count = 0
        self._on_removed = on_removed
        self._stage_name = stage_name or spec.describe()
        # separate index per checked side: comparison is same-side only
        self._source_index = SeenIndex(exact=exact) if spec.side.checks_source else None
        self._target_index = SeenIndex(exact=exact) if spec.side.checks_target else None

    def _keys(self, text: str) -> Collection[str]:
        normalized = normalize(text, self.spec.norm)
        if self.spec.ngram is None:
            return (normalized,)
        return word_ngrams(normalized.split(), self.spec.ngram)

    def __iter__(self) -> Iterator[SentencePair]:
        last_id = -1
        for pair in self._pairs:
            if pair.id <= last_id:
                raise ValueError(
                    f"pair ids out of order: {pair.id} after {last_id} (stream must be id-sorted)"
                )
            last_id = pair.id

            src_keys = self._keys(pair.source) if self._source_index is not None else ()
            tgt_keys = self._keys(pair.target) if self._target_index is not None else ()

            hit = None
            for key in src_keys:
                if key in self._source_index:
                    hit = key
                    break
            if hit is None:
                for key in tgt_keys:
                    if key in self._target_index:
                        hit = key
                        break
            if hit is not None:
                self.removed_count += 1
                if self._on_removed is not None:
                    self._on_removed(pair, self._stage_name, hit)
                continue

            if self._source_index is not None:
                for key in src_keys:
                    self._source_index.add(key)
            if self._target_index is not None:
                for key in tgt_keys:
                    self._target_index.add(key)
            yield pair


def dedup_stream(
    pairs: Iterable[SentencePair],
    spec: DedupSpec,
    *,
    exact: bool = False,
    on_removed: RemovalCallback | None = None,
) -> DedupStream:
    """Convenience constructor mirroring the DedupStream class."""
    return DedupStream(pairs, spec, exact=exact, on_removed=on_removed)


class ChainedDedup:
    """Left-to-right composition of dedup stages over one stream.

    ``per_stage_removed`` is valid once the iterator is exhausted; its
    entries sum to the total number of removed pairs.
    """

    def __init__(
        self,
        pairs: Iterable[SentencePair],
        specs: list[DedupSpec],
        *,
        exact: bool = False,
        on_removed: RemovalCallback | None = None,
    ):
        if not specs:
            raise ConfigError("chain_dedup needs at least one dedup spec")
        self._stages: list[DedupStream] = []
        stream: Iterable[SentencePair] = pairs
        for i, spec in enumerate(specs):
            stage = DedupStream(
                stream,
                spec,
                exact=exact,
                on_removed=on_removed,
                stage_name=f"{i}:{spec.describe()}",
            )
            self._stages.append(stage)
            stream = stage
        self._final = stream

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self._final)

    @property
    def per_stage_removed(self) -> list[int]:
        return [stage.removed_count for stage in self._stages]


def chain_dedup(
    pairs: Iterable[SentencePair],
    specs: list[DedupSpec],
    *,
    exact: bool = False,
    on_removed: RemovalCallback | None = None,
) -> ChainedDedup:
    """Apply dedup stages in order; output of stage i feeds stage i+1."""
    return ChainedDedup(pairs, specs, exact=exact, on_removed=on_removed)
