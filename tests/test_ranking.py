import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pdcurate
from pdcurate import ranking
from pdcurate.corpus import SentencePair
from pdcurate.errors import DataError
from pdcurate.ranking import (
    MAGIC,
    RankedCorpus,
    EmbeddingStore,
    cosine,
    load_embeddings,
    rank_corpus,
    top_k,
    write_embeddings,
    write_ranked_tsv,
)


def make_pairs(n):
    return [SentencePair(i, f"s{i}", f"t{i}") for i in range(n)]


def brute_force_rank(pairs, src, tgt):
    """Independent oracle: per-pair python cosine, stable sort by (-score, id)."""
    scored = []
    for pair in pairs:
        u = [float(x) for x in src.vectors[pair.id]]
        v = [float(x) for x in tgt.vectors[pair.id]]
        nu = math.sqrt(math.fsum(x * x for x in u))
        nv = math.sqrt(math.fsum(x * x for x in v))
        if nu == 0.0 or nv == 0.0:
            score = 0.0
        else:
            score = min(1.0, max(-1.0, math.fsum(a * b for a, b in zip(u, v)) / (nu * nv)))
        scored.append((pair.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [pair_id for pair_id, _ in scored]


# ---------------------------------------------------------------- stores


def test_store_shape(tmp_path):
    matrix = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_embeddings(matrix, tmp_path / "e.bin")
    store = load_embeddings(tmp_path / "e.bin")
    assert store.count == 2 and store.dim == 3
    assert np.array_equal(store.vectors, matrix)


def test_truncated_file_is_format_error(tmp_path):
    write_embeddings(np.ones((4, 8), dtype=np.float32), tmp_path / "e.bin")
    data = (tmp_path / "e.bin").read_bytes()
    (tmp_path / "bad.bin").write_bytes(data[:-7])
    with pytest.raises(DataError, match="size"):
        load_embeddings(tmp_path / "bad.bin")


def test_nonfinite_value_reports_row(tmp_path):
    matrix = np.ones((3, 2), dtype=np.float32)
    matrix[1, 1] = np.nan
    write_embeddings(matrix, tmp_path / "e.bin")
    with pytest.raises(DataError, match="row 1"):
        load_embeddings(tmp_path / "e.bin")


def test_nonfinite_row_found_across_blocks(tmp_path):
    dim = 1024
    block_rows = ranking._BLOCK_ELEMENTS // dim
    matrix = np.ones((4 * block_rows, dim), dtype=np.float32)
    later = 2 * block_rows + 5
    matrix[later, 7] = np.nan
    write_embeddings(matrix, tmp_path / "later.bin")
    with pytest.raises(DataError, match=f"row {later}$"):
        load_embeddings(tmp_path / "later.bin")
    earlier = block_rows + 1
    matrix[earlier, dim - 1] = np.inf
    matrix[earlier + 1, 0] = np.nan
    write_embeddings(matrix, tmp_path / "both.bin")
    with pytest.raises(DataError, match=f"row {earlier}$"):
        load_embeddings(tmp_path / "both.bin")


def _binary(count, dim, payload=b""):
    return struct.pack("<8sII", MAGIC, count, dim) + payload


# each case: the file's bytes; every one must end in DataError, at load or at ranking
_HOSTILE_HEADERS = {
    "magic only": MAGIC,
    "10-byte header": MAGIC + b"\x01\x00",
    "count larger than the data": _binary(3, 2, np.ones(4, dtype="<f4").tobytes()),
    "count smaller than the data": _binary(1, 2, np.ones(4, dtype="<f4").tobytes()),
    "count x dim bytes past 2**64": _binary(0xFFFFFFFF, 0xFFFFFFFF, np.ones(4, dtype="<f4").tobytes()),
    "zero dim": _binary(5, 0),
    "zero count": _binary(0, 3),
}


@pytest.mark.parametrize("case", sorted(_HOSTILE_HEADERS))
def test_hostile_binary_header_is_data_error(tmp_path, case):
    path = tmp_path / "e.bin"
    path.write_bytes(_HOSTILE_HEADERS[case])
    with pytest.raises(DataError):
        store = load_embeddings(path)
        rank_corpus(make_pairs(1), store, store)


def test_tsv_and_binary_load_equal_stores(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(50, 7)).astype(np.float32)
    write_embeddings(matrix, tmp_path / "e.bin", fmt="binary")
    write_embeddings(matrix, tmp_path / "e.tsv", fmt="tsv")
    a = load_embeddings(tmp_path / "e.bin")
    b = load_embeddings(tmp_path / "e.tsv")
    assert np.array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("fmt", ["binary", "tsv"])
def test_empty_store_is_rejected_at_load(tmp_path, fmt):
    path = tmp_path / f"e.{fmt}"
    if fmt == "binary":
        write_embeddings(np.empty((0, 3), dtype=np.float32), path)
    else:
        path.write_text("")
    with pytest.raises(DataError, match="no embedding rows$"):
        load_embeddings(path)


def test_binary_store_maps_nothing(tmp_path):
    matrix = np.arange(12, dtype=np.float32).reshape(4, 3)
    write_embeddings(matrix, tmp_path / "e.bin")
    store = load_embeddings(tmp_path / "e.bin")
    maps = Path("/proc/self/maps")
    assert not maps.exists() or str(tmp_path / "e.bin") not in maps.read_text()
    assert len(rank_corpus(make_pairs(4), store, store)) == 4
    assert not maps.exists() or str(tmp_path / "e.bin") not in maps.read_text()
    assert np.array_equal(store.vectors, matrix)


def test_store_truncated_after_loading_is_data_error(tmp_path):
    path = tmp_path / "e.bin"
    write_embeddings(np.random.default_rng(2).normal(size=(4_000, 768)).astype(np.float32), path)
    store = load_embeddings(path)
    os.truncate(path, 1 << 20)
    # the first row the file no longer holds whole: (2**20 - 16) // (768 * 4)
    with pytest.raises(DataError, match=f"^{path}: file ends before row 341;"):
        rank_corpus(make_pairs(4_000), store, store)


def test_tsv_values_equal_per_row_float32_casts(tmp_path):
    rows = [
        ["0.1", "-0.0", "1e-45", "7e-46", "1e-50"],
        ["3.4028235e38", "16777217", "1_000.5", "-2.5e-39", " 4.25 "],
        ["0.30000000000000004", "1e-38", "-1.1754943e-38", "123456789.123", "5"],
    ]
    (tmp_path / "e.tsv").write_text("".join("\t".join(row) + "\n" for row in rows))
    expected = np.vstack([np.array([float(v) for v in row], dtype=np.float32) for row in rows])
    loaded = load_embeddings(tmp_path / "e.tsv").vectors
    assert loaded.dtype == np.float32 and loaded.shape == expected.shape
    assert np.array_equal(loaded.view(np.uint32), expected.view(np.uint32))


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_tsv_value_overflowing_float32_is_non_finite(tmp_path):
    (tmp_path / "e.tsv").write_text("1.0\t2.0\n3.0\t1e39\n")
    with pytest.raises(DataError, match="non-finite embedding component at row 1$"):
        load_embeddings(tmp_path / "e.tsv")


def test_tsv_load_peaks_near_the_store_size(tmp_path):
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(4_000, 768)).astype(np.float32)
    np.savetxt(tmp_path / "e.tsv", matrix, fmt="%.4f", delimiter="\t")
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        store = load_embeddings(tmp_path / "e.tsv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.vectors.shape == matrix.shape
    assert peak - start <= 1.5 * matrix.nbytes


def test_tsv_ragged_row_rejected(tmp_path):
    (tmp_path / "e.tsv").write_text("1.0\t2.0\n3.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_embeddings(tmp_path / "e.tsv")


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_embeddings(tmp_path / "absent.bin")


# ---------------------------------------------------------------- cosine


def test_cosine_identity():
    assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_value():
    expected = 32 / math.sqrt(14 * 77)
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(expected, abs=1e-12)
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746, abs=1e-4)


def test_cosine_zero_norm_scores_zero():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0


def test_cosine_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        assert abs(cosine(u, v) - cosine(v, u)) < 1e-12


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        cosine([1.0], [1.0, 2.0])


# ---------------------------------------------------------------- ranking


def stores_from(src_rows, tgt_rows):
    return (
        EmbeddingStore(np.array(src_rows, dtype=np.float32)),
        EmbeddingStore(np.array(tgt_rows, dtype=np.float32)),
    )


def test_rank_three_pairs():
    # scores: id0 ~1.0, id1 ~0.0, id2 ~0.707
    src, tgt = stores_from(
        [[1, 0], [1, 0], [1, 0]],
        [[1, 0], [0, 1], [1, 1]],
    )
    ranked = rank_corpus(make_pairs(3), src, tgt)
    assert ranked.ids() == [0, 2, 1]
    assert [entry.rank for entry in ranked.entries] == [1, 2, 3]


def test_rank_ties_follow_ascending_id():
    src, tgt = stores_from([[1, 0]] * 4, [[1, 0]] * 4)
    ranked = rank_corpus(make_pairs(4), src, tgt)
    assert ranked.ids() == [0, 1, 2, 3]


def test_rank_single_pair():
    src, tgt = stores_from([[1, 2]], [[2, 1]])
    ranked = rank_corpus(make_pairs(1), src, tgt)
    assert len(ranked) == 1
    assert ranked.entries[0].rank == 1


def test_rank_missing_id_reports_first():
    src, tgt = stores_from([[1, 0]] * 2, [[1, 0]] * 2)
    pairs = [SentencePair(0, "a", "b"), SentencePair(5, "c", "d")]
    with pytest.raises(DataError, match="missing id 5"):
        rank_corpus(pairs, src, tgt)


@pytest.mark.parametrize("empty_side", ["source", "target"])
def test_rank_names_the_empty_store(empty_side):
    full = EmbeddingStore(np.ones((2, 3), dtype=np.float32))
    empty = EmbeddingStore(np.empty((0, 3), dtype=np.float32))
    stores = (empty, full) if empty_side == "source" else (full, empty)
    with pytest.raises(DataError, match=f"^{empty_side} embedding store is empty"):
        rank_corpus(make_pairs(1), *stores)


def test_rank_dim_mismatch():
    src, tgt = stores_from([[1, 0]], [[1, 0, 0]])
    with pytest.raises(DataError, match="dims differ"):
        rank_corpus(make_pairs(1), src, tgt)


def test_rank_zero_norm_sinks_and_is_flagged():
    src, tgt = stores_from([[1, 0], [0, 0]], [[1, 0], [1, 1]])
    ranked = rank_corpus(make_pairs(2), src, tgt)
    assert ranked.zero_norm_count == 1
    assert ranked.ids() == [0, 1]
    assert ranked.entries[1].score == 0.0


def test_rank_matches_brute_force_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 400))
        dim = int(rng.integers(2, 16))
        src = EmbeddingStore(rng.normal(size=(n, dim)).astype(np.float32))
        tgt = EmbeddingStore(rng.normal(size=(n, dim)).astype(np.float32))
        pairs = make_pairs(n)
        assert rank_corpus(pairs, src, tgt).ids() == brute_force_rank(pairs, src, tgt)


def test_rank_scale_invariance():
    rng = np.random.default_rng(33)
    n, dim = 300, 12
    src_matrix = rng.normal(size=(n, dim)).astype(np.float32)
    tgt_matrix = rng.normal(size=(n, dim)).astype(np.float32)
    pairs = make_pairs(n)
    baseline = rank_corpus(pairs, EmbeddingStore(src_matrix), EmbeddingStore(tgt_matrix))
    scales = rng.uniform(0.25, 4.0, size=(n, 1)).astype(np.float32)
    scaled = rank_corpus(pairs, EmbeddingStore(src_matrix * scales), EmbeddingStore(tgt_matrix))
    assert scaled.ids() == baseline.ids()


def whole_matrix_scores(ids, src, tgt):
    """Reference: every survivor's vectors cast to float64 at once, one formula."""
    u = src.vectors[ids].astype(np.float64)
    v = tgt.vectors[ids].astype(np.float64)
    dots = np.einsum("ij,ij->i", u, v)
    norms = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
    scores = np.zeros(len(ids), dtype=np.float64)
    np.divide(dots, norms, out=scores, where=norms != 0.0)
    return np.clip(scores, -1.0, 1.0)


_DEFAULT_BLOCK = ranking._BLOCK_ELEMENTS


# 768 * 300: blocks of 300 rows, so the last block of the 2,000 rows holds only 200
@pytest.mark.parametrize("block_elements", [1, 768 * 7, 768 * 300, _DEFAULT_BLOCK, 1 << 18, 1 << 30])
def test_block_scores_equal_whole_matrix_scores(monkeypatch, block_elements):
    monkeypatch.setattr(ranking, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(41)
    n, dim = 2000, 768
    src = EmbeddingStore(rng.normal(size=(n, dim)).astype(np.float32))
    tgt = EmbeddingStore(rng.normal(size=(n, dim)).astype(np.float32))
    src.vectors[[10, 1500]] = 0.0
    tgt.vectors[900] = 0.0
    ids = np.union1d(rng.choice(n, size=n // 2, replace=False), [10, 900, 1500])
    pairs = [SentencePair(int(i), f"s{i}", f"t{i}") for i in ids]
    ranked = rank_corpus(pairs, src, tgt)
    reference = dict(zip(ids.tolist(), whole_matrix_scores(ids, src, tgt).tolist()))
    assert {entry.pair_id: entry.score for entry in ranked.entries} == reference
    assert ranked.zero_norm_count == 3
    assert all(type(e.pair_id) is int and type(e.score) is float for e in ranked.entries)
    if block_elements == _DEFAULT_BLOCK:
        assert ranked.ids() == brute_force_rank(pairs, src, tgt)


def test_rank_peak_is_one_workspace_and_one_read_block(tmp_path):
    rng = np.random.default_rng(45)
    n, dim = 4_000, 768
    for name in ("src.bin", "tgt.bin"):
        write_embeddings(rng.normal(size=(n, dim)).astype(np.float32), tmp_path / name)
    src, tgt = load_embeddings(tmp_path / "src.bin"), load_embeddings(tmp_path / "tgt.bin")
    # one id in 50 is missing; a block with a gap is gathered, and the 64 B
    # per id also covers the float32 copy of its wanted rows
    ids = np.delete(np.arange(n), np.arange(0, n, 50))
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        start, _ = tracemalloc.get_traced_memory()
        ranked = rank_corpus(ids, src, tgt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_rows = ranking._BLOCK_ELEMENTS // dim
    workspace, read_block = 2 * block_rows * dim * 8, block_rows * dim * 4
    assert len(ranked) == len(ids)
    assert peak - start <= workspace + read_block + 64 * len(ids)


@pytest.mark.parametrize("block_rows", [1, 7, None])
@pytest.mark.parametrize("shuffled", [False, True])
def test_mapped_scores_equal_in_memory_scores(tmp_path, monkeypatch, block_rows, shuffled):
    rng = np.random.default_rng(43)
    n, dim = 600, 768
    src_matrix = rng.normal(size=(n, dim)).astype(np.float32)
    tgt_matrix = rng.normal(size=(n, dim)).astype(np.float32)
    src_matrix[[3, 400]] = 0.0
    write_embeddings(src_matrix, tmp_path / "src.bin")
    write_embeddings(tgt_matrix, tmp_path / "tgt.bin")
    ids = np.union1d(rng.choice(n, size=n // 2, replace=False), [3, 400])
    if shuffled:
        rng.shuffle(ids)
    pairs = [SentencePair(int(i), f"s{i}", f"t{i}") for i in ids]
    if block_rows is not None:
        monkeypatch.setattr(ranking, "_BLOCK_ELEMENTS", block_rows * dim)
    from_files = rank_corpus(
        pairs, load_embeddings(tmp_path / "src.bin"), load_embeddings(tmp_path / "tgt.bin")
    )
    in_memory = rank_corpus(pairs, EmbeddingStore(src_matrix), EmbeddingStore(tgt_matrix))
    assert from_files == in_memory
    assert from_files.zero_norm_count == 2


_RSS_CHILD = """
import resource, sys
import numpy as np
from pdcurate.corpus import SentencePair
from pdcurate.ranking import EmbeddingStore, load_embeddings, rank_corpus

warm = EmbeddingStore(np.ones((4, 8), dtype=np.float32))
rank_corpus([SentencePair(i, "", "") for i in range(4)], warm, warm)
pairs = [SentencePair(i, "", "") for i in range(int(sys.argv[3]))]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ranked = rank_corpus(pairs, load_embeddings(sys.argv[1]), load_embeddings(sys.argv[2]))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(len(ranked), (after - before) * 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs ru_maxrss in KiB")
def test_ranking_mapped_stores_keeps_rss_below_a_quarter_store(tmp_path):
    rng = np.random.default_rng(47)
    n, dim = 20_000, 768
    for name in ("src.bin", "tgt.bin"):
        write_embeddings(rng.normal(size=(n, dim)).astype(np.float32), tmp_path / name)
    store_bytes = n * dim * 4
    env = {**os.environ, "PYTHONPATH": str(Path(pdcurate.__file__).parents[1])}
    # a child starts with the ru_maxrss of the process that started it,
    # so the measured interpreter is started from a small one, not from pytest
    launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    child = [sys.executable, "-c", _RSS_CHILD, str(tmp_path / "src.bin"), str(tmp_path / "tgt.bin"), str(n)]
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    ranked_n, grown = map(int, proc.stdout.split())
    assert ranked_n == n
    assert grown < store_bytes / 4, f"ru_maxrss grew by {grown} bytes; one store is {store_bytes}"


def test_rank_memory_is_bounded_by_one_block():
    rng = np.random.default_rng(5)
    src = EmbeddingStore(rng.normal(size=(20_000, 256)).astype(np.float32))
    tgt = EmbeddingStore(rng.normal(size=(20_000, 256)).astype(np.float32))
    pairs = make_pairs(20_000)[::2]
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        ranked = rank_corpus(pairs, src, tgt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ranked) == 10_000
    assert peak - start < src.vectors.nbytes / 2


def test_top_k_prefix_property():
    rng = np.random.default_rng(4)
    n = 50
    src = EmbeddingStore(rng.normal(size=(n, 5)).astype(np.float32))
    tgt = EmbeddingStore(rng.normal(size=(n, 5)).astype(np.float32))
    pairs = make_pairs(n)
    ranked = rank_corpus(pairs, src, tgt)
    for k in range(1, n):
        assert top_k(ranked, k).ids() == top_k(ranked, k + 1).ids()[:k]
        assert top_k(ranked, k).entries == ranked.entries[:k]
        assert top_k(ranked, k) != top_k(ranked, k + 1)
    assert top_k(ranked, n) == ranked == rank_corpus(pairs, src, tgt)


def test_top_k_beyond_size_returns_all():
    src, tgt = stores_from([[1, 0]] * 3, [[1, 0]] * 3)
    ranked = rank_corpus(make_pairs(3), src, tgt)
    assert top_k(ranked, 100).ids() == [0, 1, 2]
    with pytest.raises(ValueError):
        top_k(ranked, 0)


def test_ranked_tsv_format(tmp_path):
    src, tgt = stores_from([[1, 0], [1, 0]], [[1, 0], [0, 1]])
    pairs = make_pairs(2)
    ranked = rank_corpus(pairs, src, tgt)
    write_ranked_tsv(ranked, [pairs[i] for i in ranked.ids()], tmp_path / "scores.tsv")
    lines = (tmp_path / "scores.tsv").read_text().splitlines()
    assert lines[0] == "1\t0\t1.000000\ts0\tt0"
    assert lines[1] == "2\t1\t0.000000\ts1\tt1"


@pytest.mark.parametrize(
    "pair, message",
    [
        (SentencePair(0, "a\tb", "x"), "pair 0: source text contains a tab"),
        (SentencePair(0, "c", "line\nfeed"), "pair 0: target text contains a line feed"),
    ],
)
def test_ranked_tsv_rejects_a_text_that_would_break_its_row(tmp_path, pair, message):
    ranked = RankedCorpus(np.array([1, 0]), np.array([0.9, 0.1]))
    path = tmp_path / "scores.tsv"
    with pytest.raises(DataError, match=message):
        write_ranked_tsv(ranked, [SentencePair(1, "fine", "row"), pair], path)
    assert not path.exists()


@pytest.mark.parametrize("piece", [1, 2, 256])
@pytest.mark.parametrize(
    "ids, message",
    [
        ([1, 2], "pair 2 is given where pair 0 ranks 2"),
        ([1, 0, 2], "more pairs are given than the 2 ranked"),
        ([1], "1 pairs are given for the 2 ranked"),
    ],
)
def test_ranked_tsv_takes_exactly_the_ranked_pairs_in_rank_order(tmp_path, monkeypatch, piece, ids, message):
    # piece is the block size of write_ranked_tsv's rows, so a mismatch may start a block or end one
    monkeypatch.setattr(ranking, "_PIECE_PAIRS", piece)
    ranked = RankedCorpus(np.array([1, 0]), np.array([0.9, 0.1]))
    with pytest.raises(ValueError, match=message):
        write_ranked_tsv(ranked, [SentencePair(i, "source", "target") for i in ids], tmp_path / "scores.tsv")
    assert list(tmp_path.iterdir()) == []


def test_ranked_tsv_with_a_text_that_utf8_cannot_encode_is_a_data_error(tmp_path):
    ranked = RankedCorpus(np.array([1, 0]), np.array([0.9, 0.1]))
    path = tmp_path / "scores.tsv"
    with pytest.raises(DataError, match=f"failed writing {path}: 'utf-8' codec can't encode"):
        write_ranked_tsv(ranked, [SentencePair(1, "fine", "row"), SentencePair(0, "lone \ud800", "x")], path)
    assert list(tmp_path.iterdir()) == []
