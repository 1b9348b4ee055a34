"""Embedding stores, cosine scoring and descending-rank extraction.

Embeddings are computed externally (by whatever sentence encoder the
corpus was mined with) and consumed here from one of two encodings:

* binary: 16-byte header -- magic ``PDCEMB01``, count (u32 LE),
  dim (u32 LE) -- followed by count*dim IEEE-754 float32 LE values,
  row-major by pair id;
* float TSV: one row per pair id, dim tab-separated floats.

Scores accumulate in float64 regardless of storage precision, and are
clamped to [-1, 1] against rounding.  A zero-norm vector scores 0 and is
flagged rather than failing the run, since web-scale embedding dumps do
contain degenerate rows.  Ranking sorts by score descending with ties
broken by ascending pair id, which makes output deterministic.

A binary store keeps its file open and reads rows by offset when used.
Validation and scoring read at most ``_BLOCK_ELEMENTS`` values at a time,
so ranking holds about one block per store, never a whole store or a
float64 copy of every survivor's vectors.  A file that shrinks during a
run raises DataError.  Scores do not depend on the block size.

A ``RankedCorpus`` keeps the ranked ids and scores as two arrays, 16
bytes per pair.  ``top_k`` slices them and ``merge_rankings`` joins two,
so a run can score its survivors in batches and keep only the best k
between them.  ``RankEntry`` objects are built only for the entries
that are read, so a run that emits k of n survivors builds k entries,
not n.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .corpus import SentencePair, atomic_write, read_side_file
from .errors import DataError

if TYPE_CHECKING:
    import numpy as np

MAGIC = b"PDCEMB01"
_HEADER = struct.Struct("<8sII")
_BLOCK_ELEMENTS = 1 << 18


def _row_blocks(rows: int, dim: int) -> Iterator[slice]:
    """Consecutive row slices of about ``_BLOCK_ELEMENTS`` values each."""
    step = max(1, _BLOCK_ELEMENTS // max(dim, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


class EmbeddingStore:
    """Dense float32 vectors indexed by pair id (row = id), held in memory."""

    def __init__(self, vectors: np.ndarray):
        import numpy as np

        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {vectors.shape}")
        self.vectors = vectors
        self.count, self.dim = vectors.shape

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 as a float32 matrix."""
        return self.vectors[start:stop]


class _FileStore(EmbeddingStore):
    """A binary embedding file, kept open; rows are read by offset when used."""

    def __init__(self, path: Path):
        self._path = path
        self._handle = open(path, "rb")
        weakref.finalize(self, self._handle.close)
        size = os.fstat(self._handle.fileno()).st_size
        if size < _HEADER.size:
            raise DataError(f"{path}: truncated header ({size} bytes)")
        magic, self.count, self.dim = _HEADER.unpack(self._handle.read(_HEADER.size))
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        expected = _HEADER.size + 4 * self.count * self.dim
        if size != expected:
            raise DataError(
                f"{path}: file size {size} does not match header "
                f"(count={self.count}, dim={self.dim} needs {expected} bytes)"
            )
        if self.dim == 0:
            raise DataError(f"{path}: zero embedding dimension")
        if self.count == 0:
            raise DataError(f"{path}: no embedding rows")

    @property
    def vectors(self) -> np.ndarray:
        """The whole store, read from the file on each access."""
        return self._rows(0, self.count)

    def _rows(self, start: int, stop: int) -> np.ndarray:
        import numpy as np

        rows = np.empty((min(stop, self.count) - start, self.dim), dtype="<f4")
        self._handle.seek(_HEADER.size + 4 * self.dim * start)
        got = self._handle.readinto(rows)
        if got < rows.nbytes:
            row = start + got // (4 * self.dim)
            raise DataError(f"{self._path}: file ends before row {row}; it shrank after loading")
        return rows


def _validate_finite(store: EmbeddingStore, path: Path) -> None:
    import numpy as np

    for block in _row_blocks(store.count, store.dim):
        bad = np.flatnonzero(~np.isfinite(store._rows(block.start, block.stop)).all(axis=1))
        if bad.size:
            row = block.start + int(bad[0])
            raise DataError(f"{path}: non-finite embedding component at row {row}")


def _float64_rows(store: EmbeddingStore, rows: np.ndarray) -> np.ndarray:
    """A float64 copy of the given ascending rows, read as one range and gathered if it has gaps."""
    import numpy as np

    picked = rows - rows[0]
    span = store._rows(int(rows[0]), int(rows[-1]) + 1)
    return (span if (np.diff(picked) == 1).all() else span[picked]).astype(np.float64)


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load a binary or TSV embedding file, validating shape and values.

    A TSV file is read into memory.  A binary file stays open and its rows
    are read when used; a read past a shrunken file's end raises DataError.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"embedding file not found: {path}")
    with open(path, "rb") as handle:
        head = handle.read(_HEADER.size)
    store = _FileStore(path) if head[: len(MAGIC)] == MAGIC else _load_tsv(path)
    _validate_finite(store, path)
    return store


def _load_tsv(path: Path) -> EmbeddingStore:
    import numpy as np

    matrix = np.empty((0, 0), dtype=np.float32)
    count = 0
    parse_row = lambda fields: [float(v) for v in fields]
    for row in read_side_file(path, None, parse_row, blank_lines=False):
        if count == len(matrix):
            # grows in place by a quarter, so the peak stays near the store's size
            matrix.resize((count + count // 4 + 64, len(row)), refcheck=False)
        matrix[count] = row
        count += 1
    if not count:
        raise DataError(f"{path}: no embedding rows")
    matrix.resize((count, matrix.shape[1]), refcheck=False)
    return EmbeddingStore(matrix)


def write_embeddings(store: EmbeddingStore | np.ndarray, path: str | Path, fmt: str = "binary") -> None:
    """Write a store in either encoding; both load back bit-identical."""
    import numpy as np

    matrix = store.vectors if isinstance(store, EmbeddingStore) else np.asarray(store, dtype=np.float32)
    path = Path(path)
    if fmt == "binary":
        with atomic_write(path, "wb") as out:
            out.write(_HEADER.pack(MAGIC, matrix.shape[0], matrix.shape[1]))
            out.write(matrix.astype("<f4").tobytes())
    elif fmt == "tsv":
        with atomic_write(path) as out:
            for row in matrix:
                out.write("\t".join(repr(float(v)) for v in row) + "\n")
    else:
        raise ValueError(f"unknown embedding format {fmt!r} (expected binary or tsv)")


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity in float64, clamped to [-1, 1].

    A zero-norm operand scores 0 by convention instead of erroring.
    """
    import numpy as np

    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


@dataclass(frozen=True, slots=True)
class RankEntry:
    pair_id: int
    score: float
    rank: int


class RankedCorpus:
    """Pair ids and cosine scores in rank order (score descending, ties by ascending id).

    Holds the two as arrays, 16 bytes per pair; ``entries`` builds the
    ``RankEntry`` objects, ranks 1..n, only when it is read.
    """

    __slots__ = ("_ids", "_scores", "zero_norm_count")

    def __init__(self, ids: np.ndarray, scores: np.ndarray, zero_norm_count: int = 0):
        self._ids = ids
        self._scores = scores
        self.zero_norm_count = zero_norm_count

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other) -> bool:
        import numpy as np

        if not isinstance(other, RankedCorpus):
            return NotImplemented
        return (
            self.zero_norm_count == other.zero_norm_count
            and np.array_equal(self._ids, other._ids)
            and np.array_equal(self._scores, other._scores)
        )

    @property
    def entries(self) -> tuple[RankEntry, ...]:
        return tuple(map(RankEntry, self.ids(), self._scores.tolist(), range(1, len(self) + 1)))

    def ids(self) -> list[int]:
        return self._ids.tolist()


def rank_corpus(
    pairs: Iterable[SentencePair],
    src_emb: EmbeddingStore,
    tgt_emb: EmbeddingStore,
) -> RankedCorpus:
    """Score every pair by cosine of its two embeddings and rank descending.

    Pair ids index into the stores, so filtered survivors keep using the
    stores built for the original corpus.  Ties break by ascending id, so the
    order of pairs is free: they are scored by id, reading each row once.
    """
    import numpy as np

    if src_emb.dim != tgt_emb.dim:
        raise DataError(f"embedding dims differ: source {src_emb.dim} vs target {tgt_emb.dim}")
    ids = np.fromiter((pair.id for pair in pairs), dtype=np.int64)
    if ids.size == 0:
        return RankedCorpus(ids, np.zeros(0, dtype=np.float64))
    for side, store in (("source", src_emb), ("target", tgt_emb)):
        if store.count == 0:
            raise DataError(f"{side} embedding store is empty (0 rows), so it covers no pair id")
    limit = min(src_emb.count, tgt_emb.count)
    out_of_range = ids[(ids < 0) | (ids >= limit)]
    if out_of_range.size:
        raise DataError(
            f"embedding stores cover ids 0..{limit - 1}; first missing id {int(out_of_range[0])}"
        )
    ids.sort()
    dots = np.empty(len(ids), dtype=np.float64)
    norms = np.empty(len(ids), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // src_emb.dim)
    block = slice(0, 0)
    while block.stop < len(ids):
        # the ids in the next step rows of the stores
        block = slice(block.stop, int(np.searchsorted(ids, ids[block.stop] + step)))
        src = _float64_rows(src_emb, ids[block])
        tgt = _float64_rows(tgt_emb, ids[block])
        dots[block] = np.einsum("ij,ij->i", src, tgt)
        norms[block] = np.linalg.norm(src, axis=1) * np.linalg.norm(tgt, axis=1)
    zero = norms == 0.0
    scores = np.zeros(len(ids), dtype=np.float64)
    np.divide(dots, norms, out=scores, where=~zero)
    np.clip(scores, -1.0, 1.0, out=scores)
    order = np.lexsort((ids, -scores))
    return RankedCorpus(ids[order], scores[order], zero_norm_count=int(zero.sum()))


def top_k(ranked: RankedCorpus, k: int) -> RankedCorpus:
    """First min(k, n) entries in rank order; k > n returns everything."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return RankedCorpus(ranked._ids[:k], ranked._scores[:k], ranked.zero_norm_count)


def merge_rankings(first: RankedCorpus, second: RankedCorpus) -> tuple[RankedCorpus, np.ndarray]:
    """The entries of both rankings as one ranking, and the origin of each entry.

    An entry's origin is its position in first's entries followed by
    second's.  Ties break by ascending id, and the zero-norm counts add.
    """
    import numpy as np

    ids = np.concatenate((first._ids, second._ids))
    scores = np.concatenate((first._scores, second._scores))
    order = np.lexsort((ids, -scores))
    zero_norm_count = first.zero_norm_count + second.zero_norm_count
    return RankedCorpus(ids[order], scores[order], zero_norm_count), order


def ranked_pairs(ranked: RankedCorpus, pairs: Iterable[SentencePair]) -> list[SentencePair]:
    """The pairs whose ids ``ranked`` holds, in rank order; other pairs are skipped."""
    slot = {pair_id: rank for rank, pair_id in enumerate(ranked.ids())}
    ordered: list[SentencePair] = [None] * len(slot)
    for pair in pairs:
        rank = slot.get(pair.id)
        if rank is not None:
            ordered[rank] = pair
    return ordered


def write_ranked_tsv(
    ranked: RankedCorpus,
    pairs_by_id: Mapping[int, SentencePair],
    path: str | Path,
) -> None:
    """Score sidecar: ``rank<TAB>id<TAB>score<TAB>source<TAB>target``."""
    with atomic_write(path) as out:
        for entry in ranked.entries:
            pair = pairs_by_id[entry.pair_id]
            out.write(
                f"{entry.rank}\t{entry.pair_id}\t{entry.score:.6f}\t{pair.source}\t{pair.target}\n"
            )
