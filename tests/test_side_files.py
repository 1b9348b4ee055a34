"""Every TSV side-file reader shares one line reader: same faults, same DataError."""

import numpy as np
import pytest

from pdcurate.errors import DataError
from pdcurate.lid import LidPrediction, load_prediction_table
from pdcurate.metrics import read_score_table
from pdcurate.ranking import load_embeddings
from pdcurate.synthnoise import read_labeled_tsv
from pdcurate.taxonomy import read_annotations

# reader, a valid two-row file (LF, final newline), a row with one field too many
READERS = {
    "predictions": (load_prediction_table, "0\ten\t0.9\n1\tsi\t0.8\n", "2\tta\t0.5\textra\n"),
    "embeddings": (lambda p: load_embeddings(p).vectors.tolist(), "1.0\t2.0\n3.0\t4.0\n", "5\t6\t7\n"),
    "labeled": (read_labeled_tsv, "0\tCC\ta b\tx y\n1\tCS\tc\tz\n", "2\tCC\ta\tb\tc\n"),
    "annotations": (read_annotations, "0\tann1\tCC\n0\tann2\tCS\n", "1\tann1\tCC\tX\n"),
    "scores": (
        lambda p: read_score_table(p).rows,
        "c\ten-si\tlaser3\tbaseline\t30.76\nc\ten-si\txlmr\tbaseline\t5.55\n",
        "c\ten-si\tm\th\t1.0\textra\n",
    ),
}

# each variant of the valid file loads equal to it
EQUAL_VARIANTS = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "bom": lambda data: b"\xef\xbb\xbf" + data,
    "no final newline": lambda data: data[:-1],
    "blank lines": lambda data: b"\n" + data.replace(b"\n", b"\n\r\n", 1) + b"\n",
}


@pytest.mark.parametrize(
    "reader, variant",
    [
        (reader, variant)
        for reader in sorted(READERS)
        for variant in sorted(EQUAL_VARIANTS)
        # an embedding row's position is its pair id: blank lines are errors there
        if (reader, variant) != ("embeddings", "blank lines")
    ],
)
def test_side_file_line_endings_bom_and_blank_lines(tmp_path, reader, variant):
    read, valid, _ = READERS[reader]
    (tmp_path / "plain.tsv").write_bytes(valid.encode("utf-8"))
    (tmp_path / "variant.tsv").write_bytes(EQUAL_VARIANTS[variant](valid.encode("utf-8")))
    assert read(tmp_path / "variant.tsv") == read(tmp_path / "plain.tsv")


@pytest.mark.parametrize("reader", sorted(READERS))
def test_side_file_faults_raise_data_error_naming_the_line(tmp_path, reader):
    read, valid, too_many = READERS[reader]
    path = tmp_path / "side.tsv"
    path.write_bytes(valid.encode("utf-8") + b"\xff\xfe\n")
    with pytest.raises(DataError, match="line 3, byte offset"):
        read(path)
    path.write_bytes((valid + too_many).encode("utf-8"))
    with pytest.raises(DataError, match="line 3: expected"):
        read(path)
    with pytest.raises(DataError, match="not found"):
        read(tmp_path / "absent.tsv")


@pytest.mark.parametrize("reader", sorted(set(READERS) - {"scores"}))
def test_only_score_tables_skip_comment_lines(tmp_path, reader):
    read, valid, _ = READERS[reader]
    path = tmp_path / "side.tsv"
    path.write_text("# a comment\n" + valid)
    with pytest.raises(DataError, match="line 1"):
        read(path)


def test_nan_embedding_row_is_data_error(tmp_path):
    (tmp_path / "e.tsv").write_text("1.0\t2.0\nnan\t1.0\n")
    with pytest.raises(DataError, match="non-finite"):
        load_embeddings(tmp_path / "e.tsv")


def test_non_finite_score_is_data_error(tmp_path):
    (tmp_path / "s.tsv").write_text("c\tp\tm\th\t1.0\nc\tp\tm\th2\tnan\n")
    with pytest.raises(DataError, match="line 2"):
        read_score_table(tmp_path / "s.tsv")


def test_duplicate_prediction_ids_last_row_wins(tmp_path):
    (tmp_path / "p.tsv").write_text("0\ten\t0.9\n1\tsi\t0.8\n0\tta\t0.4\n")
    table = load_prediction_table(tmp_path / "p.tsv")
    assert table == {0: LidPrediction("ta", 0.4), 1: LidPrediction("si", 0.8)}


def test_wrong_embedding_magic_is_data_error(tmp_path):
    (tmp_path / "e.bin").write_bytes(b"PDCEMB0X" + np.ones(4, dtype="<u4").tobytes() + b"\x80\x3f")
    with pytest.raises(DataError):
        load_embeddings(tmp_path / "e.bin")


@pytest.mark.parametrize(
    "data, line",
    [("1.0\t0.0\n\n0.0\t1.0\n", 2), ("\n1.0\t0.0\n", 1), ("1.0\t0.0\n\r\n", 2)],
    ids=["middle", "first", "last"],
)
def test_blank_line_in_embedding_tsv_is_data_error(tmp_path, data, line):
    (tmp_path / "e.tsv").write_text(data, newline="")
    with pytest.raises(DataError, match=f"line {line}: blank line"):
        load_embeddings(tmp_path / "e.tsv")


def test_duplicate_annotation_is_data_error_naming_the_file(tmp_path):
    (tmp_path / "a.tsv").write_text("0\ta\tCC\n0\ta\tCS\n")
    with pytest.raises(DataError, match="a.tsv: duplicate annotation for pair 0"):
        read_annotations(tmp_path / "a.tsv")
