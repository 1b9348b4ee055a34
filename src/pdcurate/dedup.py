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
output independent of Python's per-process hash seed.  ``_fingerprints``
keys a normalized text, or a token, from its code points; an n-gram key
mixes a polynomial mod 2^64 of its tokens' fingerprints.  Target keys
are salted, so one index holds both sides without a source key ever
matching a target key.  Two distinct keys that share a fingerprint
count as duplicates, a risk of about 2^-64 per comparison for text not
crafted to collide.  A fingerprint sums independent per-position terms,
so colliding texts can be built on purpose (a k-sum problem); dedup
would remove the later pair of such a couple as a duplicate.

Pairs are deduplicated ``_BLOCK_PAIRS`` at a time, one checked side
after the other.  A side's texts are fingerprinted from the code points
that ``textnorm.normalize_texts`` gives a chunk at a time, with no string
built per text or token, into one uint64 array of keys.  One
``np.unique`` of that array gives both the distinct keys to probe in the
index (one binary search each) and the keys that the block side counts
twice.  A pair with a source key in the index is removed whatever its
target holds, so its target is not normalized or probed, and a side
with no pair left open is not probed at all.  A key that hits the index
or is counted twice is a candidate; no other key can match an earlier
kept pair.  A pair-at-a-time pass probes a pair's source keys before
its target keys, each side's in positional order, and removes the pair
for its first key that an earlier kept pair holds.  So a pair whose
first candidate is in the index goes for that key, whatever the block's
earlier pairs kept, and array operations settle all such pairs at once.
Only the pairs whose first candidate is counted twice take a short
sequential pass, in id order, against the keys of the block's kept
pairs.  The probe's ``np.unique`` sorted each side's distinct keys;
those with a kept owner, which the probe showed absent, enter the index
as one sorted run (the two sides merged) without being probed or sorted
again.  So the result does not depend on the block size, and the index
is probed once per block side.  Removal reasons are built only for a
removal log, a block at a time: each removal key's normalized text, or
its n-token window, sliced from the removed texts that
``textnorm.normalized_texts`` decodes a chunk at a time.

The index holds its fingerprints as sorted uint64 runs, 8 bytes each,
merged geometrically (a new run is merged into the one before while it
is at least as large), so it has about log2(n) runs.  A merge grows the
older run in place.  numpy is imported only when a first block arrives
(``corpus._LazyNumpy``).

``pipeline.run`` pushes each block of the input through the stages in
turn and calls a dedup stage's ``dedup_columns`` with the pairs that the
stage before it kept, so the index grows while the corpus is still
being read, and only the current block of pairs is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, groupby, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import PairBlock, SentencePair, Side, _LazyNumpy
from .errors import ConfigError
# dedup calls neither normalize nor word_ngrams; the names stay seams that perfbench/tracer.py patches
from .textnorm import NormMode, _chunks, normalize, normalize_texts, normalized_texts, word_ngrams  # noqa: F401

np = _LazyNumpy(globals())

NGRAM_RANGE = (2, 10)

_BLOCK_PAIRS = 2048
_POLY = 0x9E3779B97F4A7C15  # odd multiplier of the n-gram polynomial
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)  # splitmix64 finalizer constants
_TARGET_SALT = 0x5851F42D4C957F2D


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
        return bool(self.hits(np.array([fingerprint], dtype=np.uint64))[0])

    def hits(self, fingerprints: np.ndarray) -> np.ndarray:
        """Which of the uint64 fingerprints are in the index, as a boolean mask.

        One binary search per fingerprint and run; sorted input keeps the
        searches cache-friendly.
        """
        found = np.zeros(len(fingerprints), dtype=bool)
        for run in self._runs:
            found |= run.take(run.searchsorted(fingerprints), mode="clip") == fingerprints
        return found

    def add(self, fingerprints: Iterable[int] | np.ndarray) -> None:
        """Insert fingerprints not yet present as one new sorted run, then merge runs."""
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
    for shift, factor in zip((30, 27), _MIX):
        keys ^= keys >> np.uint64(shift)
        keys *= np.uint64(factor)
    keys ^= keys >> np.uint64(31)


def _fingerprints(codepoints: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The uint64 fingerprint of each segment of the uint32 code points.

    Segment i runs from ``starts[i]`` (``starts[0]`` is 0) up to the next
    start.  Each code point becomes ``_mix((position << 21) | code point)``,
    with its position in its segment; the segment's fingerprint is the
    ``_mix`` of their sum mod 2^64 XOR the segment's length.  The empty
    segment's would be ``_mix(0)``, which is 0.  Unlike a polynomial
    over the characters, this has no algebraic structure for long
    strings (Thue-Morse words, say) to collide on.
    """
    spans = np.diff(starts, append=codepoints.size).astype(np.uint64)
    # each code point's position in its segment, as a cumulative sum that
    # drops back to 0 at every segment start (mod 2^64)
    mixed = np.ones(codepoints.size, dtype=np.uint64)
    mixed[0] = 0
    mixed[starts[1:]] = np.uint64(1) - spans[:-1]
    np.cumsum(mixed, out=mixed)
    mixed <<= np.uint64(21)  # above every code point, which takes 21 bits
    mixed |= codepoints
    _mix(mixed)
    sums = np.add.reduceat(mixed, starts, dtype=np.uint64)
    sums ^= spans
    _mix(sums)
    return sums


RemovalCallback = Callable[[SentencePair, str, str], None]


class DedupStream:
    """Single-pass dedup over an id-ordered pair stream, one block at a time.

    Iterate to obtain kept pairs, or pass id-ordered ``PairBlock``s to
    ``dedup_columns`` one after another; ``removed_count`` counts the
    removals so far.  ``on_removed(pair, stage, reason)`` fires for
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
        self._last_id = -1

    def __iter__(self) -> Iterator[SentencePair]:
        self._last_id = -1  # each iteration checks its ids afresh
        pairs = iter(self._pairs)
        while block := list(islice(pairs, _BLOCK_PAIRS)):
            keep, reasons = self.dedup_columns(PairBlock.of(block), self._on_removed is not None)
            if reasons is not None:
                for pair, reason in zip(compress(block, (~keep).tolist()), reasons):
                    self._on_removed(pair, self._stage_name, reason)
            yield from compress(block, keep.tolist())

    def _keys(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The keys of one side's raw texts, each text's in positional order, and how many each has."""
        n, mode = self.spec.ngram, self.spec.norm
        if n is None:
            keys = np.zeros(len(texts), dtype=np.uint64)  # a text that normalizes to "" keeps _mix(0)
            # IDENTITY keys the raw text, whitespace and all
            chunks = _chunks(texts) if mode is NormMode.IDENTITY else normalize_texts(texts, mode)
            for at, codepoints, starts in chunks:
                keys[at] = _fingerprints(codepoints, starts)
            return keys, np.ones(len(texts), dtype=np.intp)
        counts = np.zeros(len(texts), dtype=np.intp)
        keys = np.zeros(0, dtype=np.uint64)
        poly = np.uint64(_POLY)
        for at, codepoints, starts in normalize_texts(texts, mode):
            # a token starts at each text start and after each space (one U+0020)
            space = codepoints == 0x20
            tokens = np.add.reduceat(space, starts, dtype=np.intp) + 1
            begins = np.zeros_like(space)
            begins[starts] = True
            begins[1:] |= space[:-1]
            token = ~space
            prints = _fingerprints(codepoints[token], np.flatnonzero(begins[token]))
            del codepoints, space, token, begins
            # the windows of n tokens over the chunk, then those inside one text
            windows = max(prints.size - n + 1, 0)
            chunk_keys = prints[:windows].copy()
            for offset in range(1, n):
                chunk_keys *= poly
                chunk_keys += prints[offset : offset + windows]
            del prints
            _mix(chunk_keys)
            inside = np.maximum(tokens - n + 1, 0)
            skipped = np.cumsum(tokens - inside) - (tokens - inside)  # crossing windows before each text
            chunk_keys = chunk_keys[np.repeat(skipped, inside) + np.arange(inside.sum())]
            # grown in place, as SeenIndex grows a run: no view of keys exists
            size = keys.size
            keys.resize(size + chunk_keys.size, refcheck=False)
            keys[size:] = chunk_keys
            counts[at] = inside
        return keys, counts

    def _probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The sorted distinct keys, each key's place among them, which keys are in the
        index, and which may decide a pair: in the index or counted twice."""
        unique, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        hit = self._index.hits(unique)[inverse]
        return unique, inverse, hit, hit | (counts > 1)[inverse]

    def dedup_columns(self, block: PairBlock, reasons: bool = False) -> tuple[np.ndarray, list[str] | None]:
        """Which pairs of the stream's next block dedup keeps, as a boolean array, and with
        reasons the removed pairs' reasons in id order (else None).  The block's ids must
        ascend from the last block's."""
        ids = block.ids
        if not len(ids):
            return np.ones(0, dtype=bool), [] if reasons else None
        before = np.concatenate(([self._last_id], ids[:-1]))
        if (ids <= before).any():
            at = int(np.argmax(ids <= before))
            raise ValueError(f"pair ids out of order: {ids[at]} after {before[at]} (stream must be id-sorted)")
        self._last_id = int(ids[-1])
        spec = self.spec
        sides = []  # (texts, owner) per checked side, for the removal reasons
        sorts = []  # (unique, inverse) per checked side, for the insert
        parts = []  # (keys, owner, hit, maybe) per checked side
        in_index = np.zeros(len(ids), dtype=bool)  # pairs with a key found in the index
        for texts, checks, salt in (
            (block.sources, spec.side.checks_source, 0),
            (block.targets, spec.side.checks_target, _TARGET_SALT),
        ):
            # a pair with a key in the index goes whatever its other side holds
            open_pairs = np.flatnonzero(~in_index)
            if not checks or not open_pairs.size:
                continue
            keyed = texts if open_pairs.size == len(ids) else [texts[i] for i in open_pairs.tolist()]
            keys, counts = self._keys(keyed)
            keys ^= np.uint64(salt)
            owner = np.repeat(open_pairs, counts)
            unique, inverse, hit, maybe = self._probe(keys)
            in_index[owner[hit]] = True
            sides.append((texts, owner))
            sorts.append((unique, inverse))
            parts.append((keys, owner, hit, maybe))
        keys, owner, hit, maybe = (np.concatenate(arrays) for arrays in zip(*parts))
        # each pair's candidate keys in probe order; a pair whose first one is in the
        # index goes for that key, whatever the pairs before it kept
        candidates = np.flatnonzero(maybe)
        candidates = candidates[np.argsort(owner[candidates], kind="stable")]
        by_pair = owner[candidates]
        settled = candidates[(np.diff(by_pair, prepend=-1) != 0) & hit[candidates]]
        reason = np.full(len(ids), -1, dtype=np.intp)  # each removed pair's removal key
        reason[owner[settled]] = settled
        # the sequential pass, over the other pairs' candidate keys
        seen: set[int] = set()
        candidates = candidates[reason[by_pair] < 0]
        rows = zip(*(array[candidates].tolist() for array in (owner, hit, keys)), candidates.tolist())
        for pair_index, group in groupby(rows, key=itemgetter(0)):
            group = list(group)
            found = next((at for _, in_index, key, at in group if in_index or key in seen), None)
            if found is None:
                seen.update(key for _, _, key, _ in group)
            else:
                reason[pair_index] = found
        kept = reason < 0

        # the probe showed every key of a kept pair to be absent from the index, and
        # sorted each side's distinct keys: insert those with a kept owner
        fresh = np.concatenate([
            unique[np.bincount(inverse[kept[side_owner]], minlength=unique.size) > 0]
            for (_, side_owner), (unique, inverse) in zip(sides, sorts)
        ])
        del sorts, unique, inverse
        if len(sides) > 1:
            fresh.sort(kind="stable")  # timsort: a merge of the two sorted sides
            fresh = fresh[np.diff(fresh, prepend=~fresh[:1]) != 0]  # no key twice
        self._index._insert(fresh)

        at = reason[~kept]  # in id order
        self.removed_count += at.size
        return kept, self._reasons(sides, owner[at].tolist(), at) if reasons else None

    def _reasons(self, sides: list[tuple[Sequence[str], np.ndarray]], owners: list[int], at: np.ndarray) -> list[str]:
        """Each removed pair's key number ``at`` of the block's sides, counted across
        them, as its normalized text or n-token window; owners are the pairs' places in the block."""
        # a key past the first checked side's keys is one of the second side's
        seconds = (at >= sides[0][1].size).tolist()
        texts = [sides[second][0][owner] for owner, second in zip(owners, seconds)]
        n, mode = self.spec.ngram, self.spec.norm
        if n is None and mode is NormMode.IDENTITY:
            return texts  # the raw text is the key
        texts = normalized_texts(texts, mode)
        if n is None:
            return texts
        starts, base = at.copy(), 0  # each key's place among its text's keys
        for _, owner in sides:
            mine = (base <= at) & (at < base + owner.size)
            # a text's keys are adjacent, in positional order
            starts[mine] -= base + owner.searchsorted(owner[at[mine] - base])
            base += owner.size
        return [" ".join(text.split(" ")[start : start + n]) for text, start in zip(texts, starts.tolist())]


dedup_stream = DedupStream  # function-style name for the same constructor
