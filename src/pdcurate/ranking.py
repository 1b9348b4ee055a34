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

Validation and scoring walk the rows in fixed blocks of about
``_BLOCK_ELEMENTS`` values, so ranking holds the two loaded stores plus
one block in memory, never a float64 copy of every survivor's vectors.
Each score depends only on its own row, so scores do not depend on the
block size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import SentencePair, atomic_write, read_side_file
from .errors import DataError

MAGIC = b"PDCEMB01"
_HEADER = struct.Struct("<8sII")
_BLOCK_ELEMENTS = 1 << 18


def _row_blocks(rows: int, dim: int) -> Iterator[slice]:
    """Consecutive row slices of about ``_BLOCK_ELEMENTS`` values each."""
    step = max(1, _BLOCK_ELEMENTS // max(dim, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


class EmbeddingStore:
    """Dense float vectors indexed by pair id (row = id)."""

    def __init__(self, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {vectors.shape}")
        self.vectors = vectors

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def get(self, pair_id: int) -> np.ndarray:
        if not 0 <= pair_id < self.count:
            raise DataError(f"embedding store has no row for pair id {pair_id}")
        return self.vectors[pair_id]


def _validate_finite(matrix: np.ndarray, path: Path) -> None:
    for block in _row_blocks(*matrix.shape):
        bad = np.flatnonzero(~np.isfinite(matrix[block]).all(axis=1))
        if bad.size:
            row = block.start + int(bad[0])
            raise DataError(f"{path}: non-finite embedding component at row {row}")


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load a binary or TSV embedding file, validating shape and values."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"embedding file not found: {path}")
    with open(path, "rb") as handle:
        head = handle.read(_HEADER.size)
    if head[: len(MAGIC)] == MAGIC:
        return _load_binary(path)
    return _load_tsv(path)


def _load_binary(path: Path) -> EmbeddingStore:
    size = path.stat().st_size
    if size < _HEADER.size:
        raise DataError(f"{path}: truncated header ({size} bytes)")
    with open(path, "rb") as handle:
        magic, count, dim = _HEADER.unpack(handle.read(_HEADER.size))
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        expected = _HEADER.size + 4 * count * dim
        if size != expected:
            raise DataError(
                f"{path}: file size {size} does not match header "
                f"(count={count}, dim={dim} needs {expected} bytes)"
            )
        if dim == 0:
            raise DataError(f"{path}: zero embedding dimension")
        data = np.fromfile(handle, dtype="<f4", count=count * dim)
    matrix = data.reshape(count, dim)
    _validate_finite(matrix, path)
    return EmbeddingStore(matrix)


def _load_tsv(path: Path) -> EmbeddingStore:
    parse_row = lambda fields: np.array([float(v) for v in fields], dtype=np.float32)
    rows = list(read_side_file(path, None, parse_row, blank_lines=False))
    if not rows:
        raise DataError(f"{path}: no embedding rows")
    matrix = np.vstack(rows)
    _validate_finite(matrix, path)
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


@dataclass(frozen=True)
class RankedCorpus:
    """Pairs annotated with cosine score, sorted descending, ranks 1..n."""

    entries: tuple[RankEntry, ...]
    zero_norm_count: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[int]:
        return [entry.pair_id for entry in self.entries]


def rank_corpus(
    pairs: Iterable[SentencePair],
    src_emb: EmbeddingStore,
    tgt_emb: EmbeddingStore,
) -> RankedCorpus:
    """Score every pair by cosine of its two embeddings and rank descending.

    Pair ids index into the stores, so filtered survivors keep using the
    stores built for the original corpus.  Ties break by ascending id.
    """
    if src_emb.dim != tgt_emb.dim:
        raise DataError(f"embedding dims differ: source {src_emb.dim} vs target {tgt_emb.dim}")
    ids = np.fromiter((pair.id for pair in pairs), dtype=np.int64)
    if ids.size == 0:
        return RankedCorpus(entries=())
    for side, store in (("source", src_emb), ("target", tgt_emb)):
        if store.count == 0:
            raise DataError(f"{side} embedding store is empty (0 rows), so it covers no pair id")
    limit = min(src_emb.count, tgt_emb.count)
    out_of_range = ids[(ids < 0) | (ids >= limit)]
    if out_of_range.size:
        raise DataError(
            f"embedding stores cover ids 0..{limit - 1}; first missing id {int(out_of_range[0])}"
        )
    dots = np.empty(len(ids), dtype=np.float64)
    norms = np.empty(len(ids), dtype=np.float64)
    for block in _row_blocks(len(ids), src_emb.dim):
        src = src_emb.vectors[ids[block]].astype(np.float64)
        tgt = tgt_emb.vectors[ids[block]].astype(np.float64)
        dots[block] = np.einsum("ij,ij->i", src, tgt)
        norms[block] = np.linalg.norm(src, axis=1) * np.linalg.norm(tgt, axis=1)
    zero = norms == 0.0
    scores = np.zeros(len(ids), dtype=np.float64)
    np.divide(dots, norms, out=scores, where=~zero)
    np.clip(scores, -1.0, 1.0, out=scores)
    order = np.lexsort((ids, -scores))
    entries = tuple(
        map(RankEntry, ids[order].tolist(), scores[order].tolist(), range(1, len(ids) + 1))
    )
    return RankedCorpus(entries=entries, zero_norm_count=int(zero.sum()))


def top_k(ranked: RankedCorpus, k: int) -> RankedCorpus:
    """First min(k, n) entries in rank order; k > n returns everything."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return RankedCorpus(entries=ranked.entries[:k], zero_norm_count=ranked.zero_norm_count)


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
