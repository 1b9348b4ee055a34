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
Validation and scoring read at most ``_BLOCK_ELEMENTS`` values at a time.
``rank_corpus`` copies each block's source and target rows into one
float64 workspace of two planes, allocated once per call and reused for
every block, takes the dots from it and then squares it in place for the
norms.  So ranking holds the workspace and one float32 block being read
(and its wanted rows, when the ids have gaps), never a whole store or a
float64 copy of every survivor's vectors.  A file that shrinks during a
run raises DataError.  Scores do not depend on the block size, and equal
what ``np.linalg.norm`` gives.

A ``RankedCorpus`` keeps the ranked ids and scores as two arrays, 16
bytes per pair.  ``top_k`` slices them and ``merge_rankings`` joins two,
so a run can score its survivors' ids in batches and keep only the best
k between them; ranking never needs a pair's text.  ``RankEntry``
objects are built only when ``entries`` is read.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import _PIECE_PAIRS, PairBlock, SentencePair, _LazyNumpy, _check_lines, as_blocks, atomic_write
from .corpus import read_side_file
from .errors import DataError

np = _LazyNumpy(globals())

MAGIC = b"PDCEMB01"
_HEADER = struct.Struct("<8sII")
_BLOCK_ELEMENTS = 1 << 15


def _row_blocks(rows: int, dim: int) -> Iterator[slice]:
    """Consecutive row slices of about ``_BLOCK_ELEMENTS`` values each."""
    step = max(1, _BLOCK_ELEMENTS // max(dim, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


class EmbeddingStore:
    """Dense float32 vectors indexed by pair id (row = id), held in memory."""

    def __init__(self, vectors: np.ndarray):
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
        rows = np.empty((min(stop, self.count) - start, self.dim), dtype="<f4")
        self._handle.seek(_HEADER.size + 4 * self.dim * start)
        got = self._handle.readinto(rows)
        if got < rows.nbytes:
            row = start + got // (4 * self.dim)
            raise DataError(f"{self._path}: file ends before row {row}; it shrank after loading")
        return rows


def _validate_finite(store: EmbeddingStore, path: Path) -> None:
    for block in _row_blocks(store.count, store.dim):
        bad = np.flatnonzero(~np.isfinite(store._rows(block.start, block.stop)).all(axis=1))
        if bad.size:
            row = block.start + int(bad[0])
            raise DataError(f"{path}: non-finite embedding component at row {row}")


def _read_rows(store: EmbeddingStore, rows: np.ndarray, out: np.ndarray) -> None:
    """Copy the given ascending rows into out, reading them as one range and gathering if it has gaps."""
    span = store._rows(int(rows[0]), int(rows[-1]) + 1)
    out[...] = span if len(span) == len(out) else span[rows - rows[0]]


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

    @property
    def id_array(self) -> np.ndarray:
        """The ids in rank order as a read-only int64 array, 8 bytes per pair."""
        view = self._ids.view()
        view.flags.writeable = False
        return view


def repeated_id_error(pair_id: int) -> DataError:
    return DataError(f"pair id {pair_id} appears more than once; each id indexes one embedding row")


def rank_corpus(
    pairs: Iterable[SentencePair] | np.ndarray,
    src_emb: EmbeddingStore,
    tgt_emb: EmbeddingStore,
) -> RankedCorpus:
    """Score every pair by cosine of its two embeddings and rank descending.

    pairs are SentencePairs or an array of their ids.  Pair ids index into
    the stores, so filtered survivors keep using the stores built for the
    original corpus.  Ties break by ascending id, so the order of pairs is
    free: they are scored by id, reading each row once.
    """
    if src_emb.dim != tgt_emb.dim:
        raise DataError(f"embedding dims differ: source {src_emb.dim} vs target {tgt_emb.dim}")
    if isinstance(pairs, np.ndarray):
        ids = pairs.astype(np.int64)  # a copy, which the sort below may reorder
    else:
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
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise repeated_id_error(int(repeated[0]))
    dots = np.empty(len(ids), dtype=np.float64)
    norms = np.empty(len(ids), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // src_emb.dim)
    # one block's source and target rows in float64, reused for every block
    work = np.empty((2, min(step, len(ids)), src_emb.dim), dtype=np.float64)
    block = slice(0, 0)
    while block.stop < len(ids):
        # the ids in the next step rows of the stores
        block = slice(block.stop, int(np.searchsorted(ids, ids[block.stop] + step)))
        rows = work[:, : block.stop - block.start]
        _read_rows(src_emb, ids[block], rows[0])
        _read_rows(tgt_emb, ids[block], rows[1])
        dots[block] = np.einsum("ij,ij->i", rows[0], rows[1])
        # what np.linalg.norm(x, axis=1) computes, squaring in place
        np.multiply(rows, rows, out=rows)
        norms[block] = np.sqrt(np.add.reduce(rows[0], axis=1)) * np.sqrt(np.add.reduce(rows[1], axis=1))
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


def merge_rankings(first: RankedCorpus, second: RankedCorpus) -> RankedCorpus:
    """The entries of both rankings as one ranking.

    Ties break by ascending id, and the zero-norm counts add.
    """
    ids = np.concatenate((first._ids, second._ids))
    scores = np.concatenate((first._scores, second._scores))
    order = np.lexsort((ids, -scores))
    return RankedCorpus(ids[order], scores[order], first.zero_norm_count + second.zero_norm_count)


def scored_blocks(ranked: RankedCorpus, blocks: Iterable[PairBlock], out) -> Iterator[PairBlock]:
    """Write the scores.tsv rows of blocks to out, and yield each block once its rows are written.

    blocks hold the ranked pairs in rank order, as ``fetch_blocks`` of
    ``ranked.id_array`` gives them; a pair at another rank, or a pair too
    many or too few, raises ValueError.  A text with a tab or a line
    feed, which would break its row, is a DataError.
    """
    rank = 1
    for block in blocks:
        ids = ranked._ids[rank - 1 : rank - 1 + len(block)]
        if len(ids) < len(block):
            raise ValueError(f"more pairs are given than the {len(ranked)} ranked")
        if (wrong := np.flatnonzero(block.ids != ids)).size:
            at = int(wrong[0])
            raise ValueError(f"pair {block.ids[at]} is given where pair {ids[at]} ranks {rank + at}")
        scores = ranked._scores[rank - 1 : rank - 1 + len(block)].tolist()
        columns = count(rank), ids.tolist(), scores, block.sources, block.targets
        rows = "".join(map("{}\t{}\t{:.6f}\t{}\t{}\n".format, *columns))
        _check_lines(rows, len(block), 4 * len(block), block)
        out.write(rows)
        rank += len(block)
        yield block
        del block, rows
    if rank - 1 < len(ranked):
        raise ValueError(f"{rank - 1} pairs are given for the {len(ranked)} ranked")


def write_ranked_tsv(ranked: RankedCorpus, pairs: Iterable[SentencePair], path: str | Path) -> None:
    """Score sidecar: ``rank<TAB>id<TAB>score<TAB>source<TAB>target``, the rows of ``scored_blocks``.

    pairs are the ranked pairs in rank order, one per entry.
    """
    with atomic_write(path) as out:
        for _ in scored_blocks(ranked, as_blocks(pairs, _PIECE_PAIRS), out):
            pass
