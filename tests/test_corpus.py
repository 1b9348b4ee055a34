import contextlib
import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcurate.cli import main
from pdcurate.corpus import (
    AlignmentError,
    LanguagePair,
    SentencePair,
    Side,
    compute_stats,
    read_corpus,
    write_corpus,
)
from pdcurate.errors import ConfigError, DataError

sentence_text = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    max_size=40,
)


def write_lines(path, lines):
    path.write_bytes(("".join(line + "\n" for line in lines)).encode("utf-8"))


def test_read_two_file_single_record(tmp_path):
    write_lines(tmp_path / "s.txt", ["a"])
    write_lines(tmp_path / "t.txt", ["b"])
    pairs = list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt"))
    assert pairs == [SentencePair(0, "a", "b")]


def test_read_two_file_ids_follow_order(tmp_path):
    write_lines(tmp_path / "s.txt", ["x", "y", "z"])
    write_lines(tmp_path / "t.txt", ["1", "2", "3"])
    pairs = list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt"))
    assert [p.id for p in pairs] == [0, 1, 2]
    assert pairs[2] == SentencePair(2, "z", "3")


def test_read_alignment_error_names_first_divergent_line(tmp_path):
    write_lines(tmp_path / "s.txt", ["a", "b"])
    write_lines(tmp_path / "t.txt", ["1", "2", "3"])
    with pytest.raises(AlignmentError) as err:
        list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt"))
    assert err.value.line == 3
    assert "3" in str(err.value)


def test_read_tsv(tmp_path):
    (tmp_path / "c.tsv").write_bytes("hi\tහෙලෝ\n".encode("utf-8"))
    pairs = list(read_corpus(tsv_path=tmp_path / "c.tsv"))
    assert pairs == [SentencePair(0, "hi", "හෙලෝ")]


def test_read_tsv_wrong_field_count(tmp_path):
    (tmp_path / "c.tsv").write_text("a\tb\tc\n")
    with pytest.raises(DataError, match="line 1"):
        list(read_corpus(tsv_path=tmp_path / "c.tsv"))


def test_read_rejects_tabs_in_two_file_mode(tmp_path):
    write_lines(tmp_path / "s.txt", ["a\tb"])
    write_lines(tmp_path / "t.txt", ["x"])
    with pytest.raises(DataError, match="tab"):
        list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt"))


def test_read_invalid_utf8_reports_offset_and_line(tmp_path):
    (tmp_path / "s.txt").write_bytes(b"ok\n\xff\xfe bad\n")
    write_lines(tmp_path / "t.txt", ["1", "2"])
    with pytest.raises(DataError) as err:
        list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt"))
    message = str(err.value)
    assert "line 2" in message
    assert "byte offset 3" in message


def test_read_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_corpus(tmp_path / "nope.txt", tmp_path / "nope2.txt")


def test_read_argument_validation(tmp_path):
    with pytest.raises(ConfigError):
        read_corpus(tmp_path / "s.txt")
    with pytest.raises(ConfigError):
        read_corpus(tmp_path / "s.txt", tmp_path / "t.txt", tsv_path=tmp_path / "c.tsv")


def test_write_argument_validation_matches_read(tmp_path):
    for corpus_io in (read_corpus, lambda *paths, **tsv: write_corpus([], *paths, **tsv)):
        with pytest.raises(ConfigError, match="two-file mode needs both source_path and target_path"):
            corpus_io(tmp_path / "s.txt")
        with pytest.raises(ConfigError, match="pass either source/target paths or tsv_path, not both"):
            corpus_io(tmp_path / "s.txt", tmp_path / "t.txt", tsv_path=tmp_path / "c.tsv")
    assert list(tmp_path.iterdir()) == []


def test_blank_lines_are_kept(tmp_path):
    write_lines(tmp_path / "s.txt", ["a", "", "c"])
    write_lines(tmp_path / "t.txt", ["1", "2", ""])
    pairs = list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt"))
    assert pairs[1] == SentencePair(1, "", "2")
    assert pairs[2] == SentencePair(2, "c", "")


def test_write_empty_stream(tmp_path):
    stats = write_corpus([], tmp_path / "s.txt", tmp_path / "t.txt")
    assert stats.pair_count == 0
    assert (tmp_path / "s.txt").read_text() == ""


def test_write_three_pairs_three_lines(tmp_path):
    pairs = [SentencePair(i, f"s{i}", f"t{i}") for i in range(3)]
    stats = write_corpus(pairs, tmp_path / "s.txt", tmp_path / "t.txt")
    assert stats.pair_count == 3
    assert (tmp_path / "s.txt").read_text().splitlines() == ["s0", "s1", "s2"]
    assert (tmp_path / "t.txt").read_text().splitlines() == ["t0", "t1", "t2"]


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("char, name", [("\t", "tab"), ("\n", "line feed")])
@pytest.mark.parametrize("tsv", [False, True])
def test_write_rejects_a_text_that_cannot_be_read_back(tmp_path, side, char, name, tsv):
    texts = {"source": "s", "target": "t", side: f"one{char}two"}
    pairs = [SentencePair(0, "a", "b"), SentencePair(1, texts["source"], texts["target"])]
    paths = {"tsv_path": tmp_path / "c.tsv"} if tsv else {}
    with pytest.raises(DataError, match=f"pair 1: {side} text contains a {name}"):
        write_corpus(pairs, *([] if tsv else [tmp_path / "s.txt", tmp_path / "t.txt"]), **paths)
    assert list(tmp_path.iterdir()) == []


def test_write_keeps_carriage_returns(tmp_path):
    pairs = [SentencePair(0, "a\rb\r", "\r"), SentencePair(1, "c", "d\r")]
    write_corpus(pairs, tmp_path / "s.txt", tmp_path / "t.txt")
    assert list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt")) == pairs
    write_corpus(pairs, tsv_path=tmp_path / "c.tsv")
    assert list(read_corpus(tsv_path=tmp_path / "c.tsv")) == pairs


@settings(max_examples=25)
@given(st.lists(st.tuples(sentence_text, sentence_text), max_size=20))
def test_round_trip_two_file_and_tsv(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("rt")
    pairs = [SentencePair(i, s, t) for i, (s, t) in enumerate(rows)]
    write_corpus(pairs, tmp_path / "s.txt", tmp_path / "t.txt")
    assert list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt")) == pairs
    write_corpus(pairs, tsv_path=tmp_path / "c.tsv")
    assert list(read_corpus(tsv_path=tmp_path / "c.tsv")) == pairs


# byte pieces of hostile corpus lines: tabs, CR, a BOM, invalid and truncated UTF-8
_HOSTILE_PIECES = [b"word", b" ", b"\t", b"\r", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80", "මම".encode()]

hostile_file = st.builds(
    lambda lines, final_newline: b"\n".join(lines) + (b"\n" if final_newline and lines else b""),
    st.lists(st.lists(st.sampled_from(_HOSTILE_PIECES), max_size=5).map(b"".join), max_size=5),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(hostile_file, hostile_file, st.booleans())
def test_hostile_corpus_raises_only_data_or_config_errors(tmp_path_factory, source, target, as_tsv):
    tmp_path = tmp_path_factory.mktemp("hostile")
    (tmp_path / "s.txt").write_bytes(source)
    (tmp_path / "t.txt").write_bytes(target)
    if as_tsv:
        paths, argv = {"tsv_path": tmp_path / "s.txt"}, ["--tsv", str(tmp_path / "s.txt")]
    else:
        paths = {"source_path": tmp_path / "s.txt", "target_path": tmp_path / "t.txt"}
        argv = ["--source", str(tmp_path / "s.txt"), "--target", str(tmp_path / "t.txt")]
    expected = 0
    try:
        list(read_corpus(**paths))
    except ConfigError:
        expected = 2
    except DataError:
        expected = 3
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["dedup", *argv, "--side", "t", "--out-dir", str(tmp_path / "out")])
    assert code == expected, stderr.getvalue()
    assert "Traceback" not in stderr.getvalue() and "internal error" not in stderr.getvalue()


def test_compute_stats_published_reductions():
    assert compute_stats(6_270_800, 3_176_145).reduction_pct == pytest.approx(49.35, abs=0.005)
    assert compute_stats(215_965, 96_264).reduction_pct == pytest.approx(55.43, abs=0.005)


def test_compute_stats_no_reduction():
    stats = compute_stats(7, 7)
    assert stats.reduction_pct == 0.0


def test_compute_stats_contract_violation():
    with pytest.raises(ValueError):
        compute_stats(5, 6)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_compute_stats_matches_decimal_recomputation(a, b):
    before, after = max(a, b), min(a, b)
    stats = compute_stats(before, after)
    exact = 0.0 if before == 0 else 100.0 * (before - after) / before
    assert abs(stats.reduction_pct - exact) <= 0.005


def test_streaming_memory_bounded(tmp_path):
    line_count = 1_000_000
    with open(tmp_path / "s.txt", "w") as src, open(tmp_path / "t.txt", "w") as tgt:
        for i in range(line_count):
            src.write(f"source sentence number {i} with some words\n")
            tgt.write(f"target sentence number {i} with some words\n")
    tracemalloc.start()
    total = 0
    for pair in read_corpus(tmp_path / "s.txt", tmp_path / "t.txt"):
        total += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert total == line_count
    assert peak < 64 * 1024 * 1024, f"streaming read peaked at {peak} bytes"


def test_side_parsing():
    assert Side.from_string("s") is Side.SOURCE
    assert Side.from_string("ST") is Side.BOTH
    assert Side.from_string("target") is Side.TARGET
    with pytest.raises(ValueError):
        Side.from_string("both-sides")


def test_language_pair_validation():
    assert str(LanguagePair.from_string("en-si")) == "en-si"
    with pytest.raises(ValueError):
        LanguagePair("EN", "si")
    with pytest.raises(ValueError):
        LanguagePair.from_string("en")
