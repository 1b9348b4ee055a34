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

Keys are 64-bit fingerprints, which keeps the index small and makes
output independent of Python's per-process hash seed.  A full-sentence
key is the blake2b fingerprint of the normalized text.  An n-gram key
combines the blake2b fingerprints of its tokens (each distinct token is
hashed once per stage, up to a bounded cache) as a polynomial mod 2^64,
followed by a 64-bit mixer.  Target keys are salted, so one index holds
both sides without a source key ever matching a target key.  Two
distinct keys that share a fingerprint count as duplicates; at about
2^-64 per comparison, that risk is accepted.

Pairs are deduplicated ``_BLOCK_PAIRS`` at a time, one checked side
after the other.  A side's texts are normalized together by
``filters.normalize_texts``, from arrays of code points a chunk at a
time, which gives exactly ``normalize(text, mode)`` for each text.  The
side's keys for the block are computed as one uint64 array, and one
``np.unique`` of that array gives both the distinct keys to probe in the
index (one binary search each) and the keys that the block side counts
twice.  A pair with a source key in the index is removed whatever its
target holds, so its target is not normalized or probed, and a side
with no pair left open is not probed at all.  Only pairs with a key
that hits the index or is counted twice take a short sequential pass,
in id order, which decides them exactly as a pair-at-a-time pass would:
a pair's source keys are probed before its target keys, each side's in
positional order, and the first hit is the removal reason.  The kept
pairs' keys, which that probe showed absent, then enter the index as
one sorted run without being probed again.  So the result does not
depend on the block size, and the index is probed once per block side.

The index holds its fingerprints as sorted uint64 runs, 8 bytes each,
merged geometrically (a new run is merged into the one before while it
is at least as large), so it has about log2(n) runs.  A merge grows the
older run in place.  numpy is imported only when a first block arrives.

``pipeline.run`` chains the stages a block at a time: a dedup stage
iterates over the kept pairs of the stage before it, so its index grows
while the corpus is still being read, and only its current block of
pairs is held.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .corpus import SentencePair, Side
from .errors import ConfigError
from .filters import normalize_texts

# normalize is the per-text reference that normalize_texts matches;
# perfbench/tracer.py wraps dedup.normalize, so the name stays here
from .textnorm import LazyTranslateTable, NormMode, normalize, word_ngrams

if TYPE_CHECKING:
    import numpy as np

NGRAM_RANGE = (2, 10)

_BLOCK_PAIRS = 2048
_TOKEN_CACHE_LIMIT = 1 << 16  # distinct tokens kept per stage before the cache is cleared
_POLY = 0x9E3779B97F4A7C15  # odd multiplier of the n-gram polynomial
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)  # splitmix64 finalizer constants
_TARGET_SALT = 0x5851F42D4C957F2D


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
    """A set of uint64 key fingerprints, stored as sorted runs of 8 bytes each."""

    __slots__ = ("_runs", "_size")

    def __init__(self):
        self._runs: list[np.ndarray] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, fingerprint: int) -> bool:
        import numpy as np

        return bool(self.hits(np.array([fingerprint], dtype=np.uint64))[0])

    def hits(self, fingerprints: np.ndarray) -> np.ndarray:
        """Which of the uint64 fingerprints are in the index, as a boolean mask.

        One binary search per fingerprint and run; sorted input keeps the
        searches cache-friendly.
        """
        import numpy as np

        found = np.zeros(len(fingerprints), dtype=bool)
        for run in self._runs:
            found |= run.take(run.searchsorted(fingerprints), mode="clip") == fingerprints
        return found

    def add(self, fingerprints: Iterable[int] | np.ndarray) -> None:
        """Insert fingerprints not yet present as one new sorted run, then merge runs."""
        import numpy as np

        fresh = np.unique(np.asarray(fingerprints, dtype=np.uint64))
        self._insert(fresh[~self.hits(fresh)])

    def _insert(self, fresh: np.ndarray) -> None:
        """Insert sorted, distinct uint64 fingerprints known to be absent, taking the array over."""
        if not fresh.size:
            return
        runs = self._runs
        runs.append(fresh)
        self._size += fresh.size
        while len(runs) > 1 and runs[-2].size <= runs[-1].size:
            # grow the older run in place, so the two are never held twice
            newer, merged = runs.pop(), runs.pop()
            size = merged.size
            # No run, and no view of one, leaves the index, so nothing can point
            # into the memory that resize moves.  numpy's reference check would
            # also count the references a profile or trace hook holds, and fail.
            merged.resize(size + newer.size, refcheck=False)
            merged[size:] = newer
            del newer
            merged.sort()
            runs.append(merged)


def _mix(keys: np.ndarray) -> None:
    """The splitmix64 finalizer, in place: spreads every input bit over the key."""
    import numpy as np

    for shift, factor in zip((30, 27), _MIX):
        keys ^= keys >> np.uint64(shift)
        keys *= np.uint64(factor)
    keys ^= keys >> np.uint64(31)


@dataclass(slots=True)
class _SideKeys:
    """One side's keys for a block, and where each key came from."""

    keys: np.ndarray
    text_of_key: np.ndarray
    texts: list[str]
    tokens: list[list[str]] | None = None
    position: np.ndarray | None = None  # of an n-gram key's first token in its text


def _reason(sides: list[_SideKeys], at: int, n: int | None) -> str:
    """Key number ``at`` of the sides, counted across them, as its text or n-token window."""
    for side in sides:
        if at < len(side.keys):
            break
        at -= len(side.keys)
    text = int(side.text_of_key[at])
    if n is None:
        return side.texts[text]
    start = int(side.position[at])
    return next(iter(word_ngrams(side.tokens[text][start : start + n], n)))


RemovalCallback = Callable[[SentencePair, str, str], None]


class DedupStream:
    """Single-pass dedup over an id-ordered pair stream, one block at a time.

    Iterate to obtain kept pairs; ``removed_count`` is valid once the
    iterator is exhausted.  ``on_removed(pair, stage, reason)`` fires for
    every removal, in id order, which backs the optional removal log.
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
        # one index for both sides: target keys are salted, so comparison stays same-side
        self._index = SeenIndex()
        self._token_fingerprints = LazyTranslateTable(_blake_fingerprint)

    def __iter__(self) -> Iterator[SentencePair]:
        pairs = iter(self._pairs)
        last_id = -1
        while block := list(islice(pairs, _BLOCK_PAIRS)):
            for pair in block:
                if pair.id <= last_id:
                    raise ValueError(
                        f"pair ids out of order: {pair.id} after {last_id} (stream must be id-sorted)"
                    )
                last_id = pair.id
            yield from self._dedup_block(block)

    def _keys(self, texts: list[str]) -> _SideKeys:
        """The keys of one side's raw texts, each text's in positional order."""
        import numpy as np

        n, mode = self.spec.ngram, self.spec.norm
        if n is None:
            texts = normalize_texts(texts, mode)
            keys = np.fromiter(map(_blake_fingerprint, texts), dtype=np.uint64, count=len(texts))
            return _SideKeys(keys, np.arange(len(texts)), texts)
        tokens = [text.split() for text in normalize_texts(texts, mode)]
        lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
        total = int(lengths.sum())
        lookup = self._token_fingerprints.__getitem__
        prints = np.fromiter(map(lookup, chain.from_iterable(tokens)), dtype=np.uint64, count=total)
        if len(self._token_fingerprints) > _TOKEN_CACHE_LIMIT:
            self._token_fingerprints.clear()
        windows = max(total - n + 1, 0)
        keys = prints[:windows].copy()
        poly = np.uint64(_POLY)
        for offset in range(1, n):
            keys *= poly
            keys += prints[offset : offset + windows]
        _mix(keys)
        # keep the windows that lie inside one text
        counts = np.maximum(lengths - n + 1, 0)
        text_of_key = np.repeat(np.arange(len(texts)), counts)
        position = np.arange(len(text_of_key)) - np.repeat(np.cumsum(counts) - counts, counts)
        starts = np.cumsum(lengths) - lengths
        return _SideKeys(keys[starts[text_of_key] + position], text_of_key, texts, tokens, position)

    def _probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which keys are in the index, and which may decide a pair: in the index or counted twice."""
        import numpy as np

        unique, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        hit = self._index.hits(unique)[inverse]
        return hit, hit | (counts > 1)[inverse]

    def _dedup_block(self, block: list[SentencePair]) -> Iterator[SentencePair]:
        import numpy as np

        spec = self.spec
        sides: list[_SideKeys] = []
        parts = []  # (keys, owner, hit, maybe) per checked side
        in_index = np.zeros(len(block), dtype=bool)  # pairs with a key found in the index
        for name, checks, salt in (
            ("source", spec.side.checks_source, 0),
            ("target", spec.side.checks_target, _TARGET_SALT),
        ):
            # a pair with a key in the index goes whatever its other side holds
            open_pairs = np.flatnonzero(~in_index)
            if not checks or not open_pairs.size:
                continue
            side = self._keys([getattr(block[i], name) for i in open_pairs.tolist()])
            side.keys ^= np.uint64(salt)
            owner = open_pairs[side.text_of_key]
            hit, maybe = self._probe(side.keys)
            in_index[owner[hit]] = True
            sides.append(side)
            parts.append((side.keys, owner, hit, maybe))
        keys, owner, hit, maybe = (np.concatenate(arrays) for arrays in zip(*parts))

        # the sequential pass, over the candidate keys of each such pair in probe order
        first_hit: dict[int, int] = {}
        seen: set[int] = set()
        candidates = np.flatnonzero(maybe)
        candidates = candidates[np.argsort(owner[candidates], kind="stable")]
        rows = zip(*(array[candidates].tolist() for array in (owner, hit, keys)), candidates.tolist())
        for pair_index, group in groupby(rows, key=itemgetter(0)):
            group = list(group)
            found = next((at for _, in_index, key, at in group if in_index or key in seen), None)
            if found is None:
                seen.update(key for _, _, key, _ in group)
            else:
                first_hit[pair_index] = found

        kept = np.ones(len(block), dtype=bool)
        kept[list(first_hit)] = False
        # the probe showed every key of a kept pair to be absent from the index
        self._index._insert(np.unique(keys[kept[owner]]))

        for pair_index, pair in enumerate(block):
            at = first_hit.get(pair_index)
            if at is None:
                yield pair
                continue
            self.removed_count += 1
            if self._on_removed is not None:
                self._on_removed(pair, self._stage_name, _reason(sides, at, spec.ngram))


dedup_stream = DedupStream  # function-style name for the same constructor
