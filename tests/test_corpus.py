import contextlib
import io
import tracemalloc
from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdcurate.cli import main
from pdcurate import corpus
from pdcurate.corpus import (
    AlignmentError,
    LanguagePair,
    SentencePair,
    Side,
    compute_stats,
    corpus_stamps,
    fetch_pairs,
    read_corpus,
    read_side_file,
    write_corpus,
)
from pdcurate.errors import ConfigError, CurateError, DataError

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
@example(256, 152)  # 40.625 reports as 40.62: a float difference from the exact value lands just above 0.005
def test_compute_stats_matches_decimal_recomputation(a, b):
    before, after = max(a, b), min(a, b)
    pct = compute_stats(before, after).reduction_pct
    hundredths = round(pct * 100)
    assert pct == hundredths / 100  # the reported value is a whole number of hundredths
    exact = Fraction(0) if before == 0 else Fraction(100 * (before - after), before)
    assert abs(Fraction(hundredths, 100) - exact) <= Fraction(1, 200)


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


def _write_corpus_bytes(folder, sources, targets, tsv, final_lf):
    """The corpus keywords of sources/targets written as raw lines; the last line ends in LF only with final_lf."""
    end = "\n" if final_lf else ""
    if tsv:
        path = folder / "c.tsv"
        path.write_bytes(("\n".join(f"{s}\t{t}" for s, t in zip(sources, targets)) + end).encode("utf-8"))
        return {"tsv_path": path}
    (folder / "s.txt").write_bytes(("\n".join(sources) + end).encode("utf-8"))
    (folder / "t.txt").write_bytes(("\n".join(targets) + "\n").encode("utf-8"))
    return {"source_path": folder / "s.txt", "target_path": folder / "t.txt"}


@pytest.mark.parametrize("tsv", [False, True])
def test_fetch_pairs_reads_lines_back_as_read_corpus_does(tmp_path, tsv):
    # the first 1 MiB chunk ends two bytes into the four-byte emoji
    big = "x" * ((1 << 20) - 2) + "\U0001F600 across a chunk boundary"
    assert big.encode("utf-8")[(1 << 20) - 2 : (1 << 20) + 2] == "\U0001F600".encode("utf-8")
    sources = [big, "crlf line\r", "", "astral \U0001D11E \U0001F600", "plain", "last line, no LF"]
    targets = ["t0", "", "t2\r", "\U0001D49C target", "t4 \u00e9", "t5"]
    paths = _write_corpus_bytes(tmp_path, sources, targets, tsv, final_lf=False)
    pairs = list(read_corpus(**paths))
    assert len(pairs) == 6 and pairs[1].source == "crlf line\r" and pairs[2].source == ""
    ids = [3, 0, 5, 2, 1, 4]
    stamps = corpus_stamps(**paths)
    assert list(fetch_pairs(ids, stamps, **paths)) == [pairs[i] for i in ids]
    assert list(fetch_pairs([], stamps, **paths)) == []
    with pytest.raises(DataError, match="has 6 lines, so no line for pair id 6"):
        list(fetch_pairs([2, 6], stamps, **paths))


line_text = st.text(st.characters(blacklist_characters="\t\n", blacklist_categories=("Cs",)), max_size=6)


@given(
    rows=st.lists(st.tuples(line_text, line_text), min_size=1, max_size=12),
    tsv=st.booleans(),
    final_lf=st.booleans(),
    chunk=st.integers(1, 9),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_fetch_pairs_matches_read_corpus_at_any_chunk_size(tmp_path_factory, rows, tsv, final_lf, chunk, data):
    if not final_lf and not tsv and rows[-1][0] == "":
        rows = rows + [("end", "end")]  # an empty last line with no LF is no line at all
    folder = tmp_path_factory.mktemp("fetch")
    paths = _write_corpus_bytes(folder, *zip(*rows), tsv, final_lf)
    pairs = list(read_corpus(**paths))
    ids = data.draw(st.lists(st.integers(0, len(pairs) - 1), unique=True))
    with mock.patch.object(corpus, "_CHUNK_BYTES", chunk):
        assert list(fetch_pairs(ids, corpus_stamps(**paths), **paths)) == [pairs[i] for i in ids]


def test_fetch_pairs_rejects_a_file_that_changed(tmp_path):
    paths = _write_corpus_bytes(tmp_path, ["a", "b"], ["c", "d"], tsv=False, final_lf=True)
    stamps = corpus_stamps(**paths)
    with open(paths["target_path"], "a", encoding="utf-8") as out:
        out.write("e\n")
    with pytest.raises(DataError, match=f"{paths['target_path']} changed during the run"):
        list(fetch_pairs([0], stamps, **paths))


def _brute_force_lines(data: bytes, path, tabs: bool):
    """The lines of data, split and decoded one at a time, before the first bad one, and its error message."""
    raws = data.split(b"\n")
    if raws[-1] == b"":
        raws.pop()  # the empty segment after the last LF, or of an empty file
    lines, offset = [], 0
    for number, raw in enumerate(raws, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return lines, f"{path}: invalid UTF-8 at line {number}, byte offset {offset + exc.start}"
        if not tabs and "\t" in text:
            return lines, f"{path}: line {number} contains a tab character"
        lines.append(text)
        offset += len(raw) + 1
    return lines, None


def _expected_two_file(source: bytes, target: bytes, source_path, target_path):
    """The pairs, and the (type, message) of the error, that reading source before target line by line gives."""
    sides = [_brute_force_lines(source, source_path, False), _brute_force_lines(target, target_path, False)]
    pairs = []
    for pair_id in count():
        texts = []
        for lines, error in sides:
            if pair_id == len(lines) and error:
                return pairs, (DataError, error)
            texts.append(lines[pair_id] if pair_id < len(lines) else None)
        if texts == [None, None]:
            return pairs, None
        if None in texts:
            longer = target_path if texts[0] is None else source_path
            message = f"{source_path} and {target_path} disagree in length: {longer} has an unmatched line {pair_id + 1}"
            return pairs, (AlignmentError, message)
        pairs.append(SentencePair(pair_id, *texts))


def _expected_tsv(data: bytes, path):
    lines, error = _brute_force_lines(data, path, True)
    pairs = []
    for pair_id, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) != 2:
            return pairs, (DataError, f"{path}: line {pair_id + 1} has {len(fields)} tab-separated fields, expected 2")
        pairs.append(SentencePair(pair_id, *fields))
    return pairs, error and (DataError, error)


def _expected_side_rows(data: bytes, path):
    """What read_side_file(path, None, tuple, comments=True) gives."""
    lines, error = _brute_force_lines(data, path, True)
    rows, fields = [], None
    for number, line in enumerate(lines, start=1):
        line = line.removesuffix("\r")
        if number == 1:
            line = line.removeprefix("\ufeff")
        if not line or line.startswith("#"):
            continue
        row = tuple(line.split("\t"))
        fields = fields or len(row)
        if len(row) != fields:
            return rows, (DataError, f"{path}: line {number}: expected {fields} fields, got {len(row)}")
        rows.append(row)
    return rows, error and (DataError, error)


def _drain(items):
    """The items up to the first error, and that error's (type, message), or None."""
    got = []
    try:
        for item in items:
            got.append(item)
    except CurateError as exc:
        return got, (type(exc), str(exc))
    return got, None


# pieces of reader input: LF, CR, tabs, a BOM, comment marks, multibyte characters
# that small chunks split, and invalid or truncated UTF-8
_READER_PIECES = [
    b"ab", b" ", b"#", b"\n", b"\n", b"\t", b"\r", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80",
    "මම".encode(), "\U0001F600".encode(), "\U0001F600".encode()[:3],
]
reader_file = st.lists(st.sampled_from(_READER_PIECES), max_size=24).map(b"".join)


@given(source=reader_file, target=reader_file, chunk=st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_readers_match_a_brute_force_parse_at_any_chunk_size(tmp_path_factory, source, target, chunk):
    folder = tmp_path_factory.mktemp("reader")
    src, tgt = folder / "s.txt", folder / "t.txt"
    src.write_bytes(source)
    tgt.write_bytes(target)
    reads = [
        (lambda: read_corpus(src, tgt), _expected_two_file(source, target, src, tgt)),
        (lambda: read_corpus(tsv_path=src), _expected_tsv(source, src)),
        (lambda: read_side_file(src, None, tuple, comments=True), _expected_side_rows(source, src)),
    ]
    for read, expected in reads:
        at_default = _drain(read())
        with mock.patch.object(corpus, "_CHUNK_BYTES", chunk):
            assert _drain(read()) == at_default == expected


def test_a_two_file_corpus_reports_the_first_bad_line_in_reading_order(tmp_path):
    # the target's line 4 is decoded before source line 2 is reached, but
    # source line 2 is read first, so its tab is the error
    (tmp_path / "s.txt").write_bytes(b"a\nb\tc\nd\ne\n")
    (tmp_path / "t.txt").write_bytes(b"1\n2\n3\n\xff\n")
    with pytest.raises(DataError) as err:
        list(read_corpus(tmp_path / "s.txt", tmp_path / "t.txt"))
    assert str(err.value) == f"{tmp_path / 's.txt'}: line 2 contains a tab character"


def test_a_line_of_many_chunks_reads_back_whole(tmp_path):
    long = "ම" * ((1 << 20) // 3)  # a 1 MiB line whose 3-byte characters straddle 16-byte chunks
    paths = _write_corpus_bytes(tmp_path, [long, "short"], ["t0", "t1"], tsv=False, final_lf=True)
    with mock.patch.object(corpus, "_CHUNK_BYTES", 16):
        assert list(read_corpus(**paths)) == [SentencePair(0, long, "t0"), SentencePair(1, "short", "t1")]
        assert list(fetch_pairs([1, 0], corpus_stamps(**paths), **paths))[1] == SentencePair(0, long, "t0")
