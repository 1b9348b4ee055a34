"""Sentence-pair records and streaming corpus I/O.

A corpus is a stream of aligned (source, target) sentences.  The pair id
is the record's 0-based position in the input stream, which makes
deduplication tie-breaking and output order deterministic.

Two formats are supported:

* two-file: ``source.txt`` + ``target.txt``, one sentence per line,
  LF-terminated UTF-8 (the layout OPUS releases use);
* TSV: ``source<TAB>target`` per line.

Ingestion is byte-faithful: no Unicode normalization, blank lines are
kept (filters may remove them later).  Lines containing tab characters
are rejected in both formats, because a tab would corrupt TSV output and
break the read/write round-trip guarantee; for the same reason, writing
rejects a text with a tab or a line feed.  Every reader takes its lines
from one scanner, ``_line_blocks``, and decodes a chunk of whole lines at
once; ``fetch_blocks`` finds the lines it wants with that scanner and
reads each back by pread.  A bad line's DataError travels with its chunk
as a value, and is raised only when the consumer reaches the line,
naming it (and, for invalid UTF-8, its byte offset).

Pairs travel in blocks, as columns: a ``PairBlock`` holds an int64 id
array and the two sides' texts, and no ``SentencePair`` is built for a
pair in it.  One cutter, ``_cut``, builds the blocks of ``read_blocks``
and ``fetch_blocks`` alike from each file's lines in columns; a TSV
chunk is split on tabs once, and its lines are checked one by one only
when that split shows a line without exactly one tab.  ``write_blocks``
joins each side of a block into one string and checks it for tabs and
line feeds by counting them.  ``read_corpus`` and ``write_corpus`` are
the same functions a pair at a time.  Each module that uses numpy binds
its ``np`` to a ``_LazyNumpy``, so importing the package loads no numpy;
a run loads it at its first use.
"""

from __future__ import annotations

import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import contains
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import AlignmentError, ConfigError, DataError


class _LazyNumpy:
    """A module's ``np`` until its first attribute read, which imports numpy and rebinds ``np`` to it."""

    def __init__(self, namespace: dict[str, Any]):
        self._namespace = namespace

    def __getattr__(self, name: str) -> Any:
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())

# bytes read per chunk when scanning a file for lines.  Peak memory sets it, as a
# reader holds a chunk's lines as strings: at 1 MiB, `curate run`'s peak RSS grew
# 12.7 MiB from 5k to 50k pairs, and at 64 KiB it stood 0.7 MiB above 16 KiB
_CHUNK_BYTES = 1 << 14
# pairs joined into one string to write, and fetched or blocked by a function
# a pair at a time, at once.  A block of 2,048 web-like pairs, written as two
# strings and read back in blocks of as many, raised the peak RSS of a ranked
# `curate run` by 2.3 MiB over writing a pair at a time; at 256, each string
# and its UTF-8 stay far below glibc's 128 KiB mmap threshold
_PIECE_PAIRS = 256


class Side(Enum):
    """Which side(s) of a pair a heuristic inspects."""

    SOURCE = "s"
    TARGET = "t"
    BOTH = "st"

    @classmethod
    def from_string(cls, name: str) -> "Side":
        key = name.strip().lower()
        aliases = {
            "s": cls.SOURCE,
            "source": cls.SOURCE,
            "src": cls.SOURCE,
            "t": cls.TARGET,
            "target": cls.TARGET,
            "tgt": cls.TARGET,
            "st": cls.BOTH,
            "both": cls.BOTH,
        }
        if key in aliases:
            return aliases[key]
        raise ValueError(f"unknown side: {name!r} (expected s, t or st)")

    @property
    def checks_source(self) -> bool:
        return self is not Side.TARGET

    @property
    def checks_target(self) -> bool:
        return self is not Side.SOURCE


@dataclass(frozen=True, slots=True)
class SentencePair:
    """One aligned sentence pair; id equals input position (0-based)."""

    id: int
    source: str
    target: str


class PairBlock:
    """A block of pairs as columns: their ids and each side's texts, in the same order.

    ids may be given as a range or a list of ints, which ``ids`` makes an
    int64 array when first read, so that a block only read and written
    loads no numpy.
    """

    __slots__ = ("_ids", "sources", "targets")

    def __init__(self, ids: np.ndarray | range | list[int], sources: Sequence[str], targets: Sequence[str]):
        self._ids, self.sources, self.targets = ids, sources, targets

    def __len__(self) -> int:
        return len(self.sources)

    @classmethod
    def of(cls, pairs: Sequence[SentencePair]) -> "PairBlock":
        return cls([pair.id for pair in pairs], [pair.source for pair in pairs], [pair.target for pair in pairs])

    @property
    def ids(self) -> np.ndarray:
        if isinstance(self._ids, range):
            self._ids = np.arange(self._ids.start, self._ids.stop, dtype=np.int64)
        elif isinstance(self._ids, list):
            self._ids = np.array(self._ids, dtype=np.int64)
        return self._ids

    def pairs(self) -> Iterator[SentencePair]:
        ids = self._ids if isinstance(self._ids, (range, list)) else self._ids.tolist()
        return map(SentencePair, ids, self.sources, self.targets)

    def compress(self, keep: np.ndarray) -> "PairBlock":
        """The pairs at which the boolean array keep is True."""
        if keep.all():
            return self
        flags = keep.tolist()
        return PairBlock(self.ids[keep], list(compress(self.sources, flags)), list(compress(self.targets, flags)))


def block_pairs(blocks: Iterable[PairBlock]) -> Iterator[SentencePair]:
    """The pairs of the blocks, one SentencePair each."""
    return chain.from_iterable(map(PairBlock.pairs, blocks))


def as_blocks(pairs: Iterable[SentencePair] | Iterable[PairBlock], size: int) -> Iterator[PairBlock]:
    """pairs as PairBlocks: given blocks as they are, SentencePairs size at a time."""
    pairs = iter(pairs)
    first = next(pairs, None)
    if isinstance(first, PairBlock):
        yield first
        del first  # the block, before the next one is read
        yield from pairs
    elif first is not None:
        pairs = chain([first], pairs)
        yield from map(PairBlock.of, iter(lambda: list(islice(pairs, size)), []))


@dataclass(frozen=True, slots=True)
class LanguagePair:
    """ISO 639 codes for the two sides, lowercase."""

    source_lang: str
    target_lang: str

    def __post_init__(self):
        for code in (self.source_lang, self.target_lang):
            if not code or code != code.lower():
                raise ValueError(f"language codes must be non-empty lowercase, got {code!r}")

    @classmethod
    def from_string(cls, tag: str) -> "LanguagePair":
        """Parse tags like ``en-si``."""
        parts = tag.strip().lower().split("-")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"expected a tag like 'en-si', got {tag!r}")
        return cls(parts[0], parts[1])

    def __str__(self) -> str:
        return f"{self.source_lang}-{self.target_lang}"


@dataclass(frozen=True, slots=True)
class CorpusStats:
    """Pair counts before/after an operation plus the reduction percentage."""

    pair_count: int
    retained_count: int
    reduction_pct: float


def compute_stats(before: int, after: int) -> CorpusStats:
    """Reduction bookkeeping; percentage rounded to 2 decimals."""
    if after > before:
        raise ValueError(f"retained count {after} exceeds input count {before}")
    if before < 0:
        raise ValueError(f"negative input count: {before}")
    pct = 0.0 if before == 0 else round(100.0 * (before - after) / before, 2)
    return CorpusStats(pair_count=before, retained_count=after, reduction_pct=pct)


def _line_blocks(handle) -> Iterator[tuple[int, bytes]]:
    """(offset, block) for each run of whole lines in handle, read ``_CHUNK_BYTES`` at a time.

    A line is the bytes up to an LF, which ends every block: a non-empty last
    line with none gets one past the end of the file.  offset is the block's
    position in the file.  A line longer than a chunk is one block.
    """
    offset, parts = 0, []
    while chunk := handle.read(_CHUNK_BYTES):
        if end := chunk.rfind(b"\n") + 1:
            parts.append(chunk[:end])
            block = b"".join(parts)
            yield offset, block
            offset, parts, chunk = offset + len(block), [], chunk[end:]
        parts.append(chunk)
    if tail := b"".join(parts):
        yield offset, tail + b"\n"


def _decode(data: bytes, path: Path, line_no: int, offset: int, tabs: bool = True) -> tuple[str, DataError | None]:
    """The text of data (lines of path from line_no, at offset) before its first bad line, and that line's DataError.

    A bad line has invalid UTF-8 or, unless tabs, a tab; with none, the error is None.
    """
    try:
        text, error = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text = data[: data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
        error = f"invalid UTF-8 at line {line_no + text.count(chr(10))}, byte offset {offset + exc.start}"
    if not tabs and (tab := text.find("\t")) >= 0:
        text = text[: text.rfind("\n", 0, tab) + 1]
        error = f"line {line_no + text.count(chr(10))} contains a tab character"
    return text, error and DataError(f"{path}: {error}")


def _lines(path: Path, tabs: bool = True) -> Iterator[tuple[list[str], range, DataError | None]]:
    """(lines, line ids, error) for each chunk of path: its lines, their 0-based numbers and None, or,
    in the last chunk, the lines before the first bad one and that line's DataError."""
    ids = range(0)
    with open(path, "rb") as handle:
        for offset, block in _line_blocks(handle):
            text, error = _decode(block, path, ids.stop + 1, offset, tabs)
            lines = text.split("\n")
            del text
            lines.pop()  # the empty segment after the last LF
            ids = range(ids.stop, ids.stop + len(lines))
            yield lines, ids, error
            if error:
                return


def read_side_file(
    path: str | Path,
    fields: int | None,
    parse_row: Callable[[list[str]], Any],
    *,
    comments: bool = False,
    blank_lines: bool = True,
) -> Iterator:
    """Yield parse_row(fields) for each row of a TSV side file.

    Side files are the TSV inputs other than the corpus.  Lines end in LF
    or CRLF; a leading BOM, blank lines (unless blank_lines is False, for
    files whose row position is the pair id) and, with comments, ``#``
    lines are skipped.  Every row has fields fields (None: as many as the
    first row).  A missing file, invalid UTF-8, a wrong field count, a
    blank line that is not skipped or a ValueError from parse_row raises
    DataError naming the line.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"file not found: {path}")
    for lines, ids, error in _lines(path):
        for line_no, text in enumerate(lines, start=ids.start + 1):
            text = text.removesuffix("\r")
            if line_no == 1:
                text = text.removeprefix("\ufeff")
            if not text and not blank_lines:
                raise DataError(f"{path}: line {line_no}: blank line")
            if not text or comments and text.startswith("#"):
                continue
            row = text.split("\t")
            if fields is None:
                fields = len(row)
            if len(row) != fields:
                raise DataError(f"{path}: line {line_no}: expected {fields} fields, got {len(row)}")
            try:
                parsed = parse_row(row)
            except ValueError as exc:
                raise DataError(f"{path}: line {line_no}: {exc}") from exc
            yield parsed
        if error:
            raise error


_Path = str | Path | None  # a corpus file argument: source and target together, or tsv alone


def _corpus_paths(source_path, target_path, tsv_path) -> list[Path]:
    """The corpus files: [tsv] or [source, target]; any other combination is a ConfigError."""
    if tsv_path is not None:
        if source_path is not None or target_path is not None:
            raise ConfigError("pass either source/target paths or tsv_path, not both")
        return [Path(tsv_path)]
    if source_path is None or target_path is None:
        raise ConfigError("two-file mode needs both source_path and target_path")
    return [Path(source_path), Path(target_path)]


def read_blocks(
    source_path: _Path = None, target_path: _Path = None, *, tsv_path: _Path = None, size: int
) -> Iterator[PairBlock]:
    """Stream the pairs of a two-file or TSV corpus as blocks of size pairs, the last one shorter.

    Memory use is bounded regardless of corpus size.  Two-file mode
    raises AlignmentError naming the first line where one file has run
    out; TSV mode rejects lines that do not have exactly two fields.  The
    block before a bad line holds the pairs up to it.  Argument and
    existence checks happen eagerly, before streaming.
    """
    paths = _corpus_paths(source_path, target_path, tsv_path)
    for path in paths:
        if not path.is_file():
            raise DataError(f"corpus file not found: {path}")
    return _cut([_lines(path, tabs=len(paths) == 1) for path in paths], range(sys.maxsize), size, paths)


def read_corpus(
    source_path: _Path = None, target_path: _Path = None, *, tsv_path: _Path = None
) -> Iterator[SentencePair]:
    """Stream sentence pairs from a two-file or TSV corpus: ``read_blocks``, a pair at a time."""
    return block_pairs(read_blocks(source_path, target_path, tsv_path=tsv_path, size=_PIECE_PAIRS))


def _columns(
    chunks: Iterable[tuple[list[str], Sequence[int], DataError | None]], size: int, tsv: Path | None = None
) -> Iterator[tuple[list[list[str]], DataError | None]]:
    """The rows of the chunks (as ``_lines`` gives them) in columns, size rows at a time, with None;
    the last columns are shorter and come with the DataError of the row after them, or None at the end.

    The columns are [lines] or, with tsv (the TSV file's path), [sources, targets]: each line's
    two fields, split a chunk at a time.
    """
    columns, error = [[], []] if tsv else [[]], None
    for lines, ids, error in chunks:
        if tsv:
            lines, bad_row = _tsv_fields(lines, ids, tsv)
            error = bad_row or error  # a bad row is before the chunk's bad line
        for at, column in enumerate(columns):
            column += lines[at :: len(columns)]
        while len(columns[0]) >= size:
            yield [column[:size] for column in columns], None
            for column in columns:
                del column[:size]
        if error:
            break
    yield columns, error


# The block readers and writers drop each block before they read the next;
# a zip or enumerate over blocks would hold the last one while it does.


def _cut(chunks: list[Iterator], ids: Sequence[int], size: int, paths: list[Path]) -> Iterator[PairBlock]:
    """The PairBlocks of the corpus files at paths, from the chunks of each (as ``_lines`` gives them),
    numbered by ids, size pairs each but the last.

    Pair i is read source side before target side: when a side's rows run
    out, its DataError is raised, the source side's first, and then a side
    with a row that the other lacks raises AlignmentError.  The block before
    a bad line holds the pairs up to it.
    """
    sides = [_columns(side, size, paths[0] if len(paths) == 1 else None) for side in chunks]
    for start in count(0, size):
        read = [(column, error) for columns, error in map(next, sides) for column in columns]
        n = min(len(column) for column, _ in read)
        if n:  # a column of n rows goes into the block as it is, not copied
            yield PairBlock(ids[start : start + n], *(column if len(column) == n else column[:n] for column, _ in read))
        if n < size:
            break
        del read  # the block's texts, before the next block is read
    for column, error in read:  # pair start + n is the first that a side lacks
        if len(column) == n and error:
            raise error
    if len(read[0][0]) != len(read[-1][0]):
        longer = paths[0] if len(read[0][0]) > n else paths[1]
        raise AlignmentError(
            f"{paths[0]} and {paths[1]} disagree in length: {longer} has an unmatched line {start + n + 1}",
            line=start + n + 1,
        )


def _tsv_fields(lines: Sequence[str], ids: np.ndarray | range, path: Path) -> tuple[list[str], DataError | None]:
    """The fields of the TSV lines (numbered by ids), source then target of each, before
    the first line that has not two, and that line's DataError (else None)."""
    fields = "\t".join(lines).split("\t") if lines else []
    # as many fields as two per line, and a tab in every line: one tab in each
    if len(fields) == 2 * len(lines) and all(map(contains, lines, repeat("\t"))):
        return fields, None
    bad = next(at for at, line in enumerate(lines) if line.count("\t") != 1)
    message = f"{path}: line {ids[bad] + 1} has {lines[bad].count(chr(9)) + 1} tab-separated fields, expected 2"
    return _tsv_fields(lines[:bad], ids, path)[0], DataError(message)


def corpus_stamps(
    source_path: _Path = None, target_path: _Path = None, *, tsv_path: _Path = None
) -> list[tuple[int, int]]:
    """(st_size, st_mtime_ns) of each corpus file, for ``fetch_blocks`` to check."""
    stamps = []
    for path in _corpus_paths(source_path, target_path, tsv_path):
        try:
            stat = os.stat(path)
        except OSError as exc:
            raise DataError(f"cannot read corpus file {path}: {exc}") from exc
        stamps.append((stat.st_size, stat.st_mtime_ns))
    return stamps


def _line_spans(handle, path: Path, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte spans (starts, stops) of the lines numbered by ids, which ascend.

    A span ends before its line's LF, which for a last line with none is
    the file's end.  Only a block that holds a wanted line is searched.
    """
    starts = np.empty(len(ids), dtype=np.int64)
    stops = np.empty(len(ids), dtype=np.int64)
    lines, low = 0, int(np.searchsorted(ids, 0))  # the lines before the block, and the ids in them
    for offset, block in _line_blocks(handle):
        count = block.count(b"\n")
        if low < len(ids) and ids[low] < lines + count:
            ends = offset + np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10)
            high = int(np.searchsorted(ids, lines + count))
            at = ids[low:high] - lines
            starts[low:high] = np.concatenate(([offset], ends + 1))[at]
            stops[low:high] = ends[at]
            low = high
        lines += count
    if len(ids) and (ids[0] < 0 or ids[-1] >= lines):
        missing = int(ids[0] if ids[0] < 0 else ids[-1])
        raise DataError(f"{path} has {lines} lines, so no line for pair id {missing}")
    return starts, stops


def _lines_at(
    handle, path: Path, starts: np.ndarray, stops: np.ndarray, ids: np.ndarray
) -> Iterator[tuple[list[str], np.ndarray, DataError | None]]:
    """The chunks, as ``_lines`` gives them, of the lines at the byte spans starts..stops of handle,
    ``_PIECE_PAIRS`` at a time and numbered by ids; each line is read by one pread and decoded."""
    fd = handle.fileno()
    for low in range(0, len(ids), _PIECE_PAIRS):
        piece, lines, error = slice(low, low + _PIECE_PAIRS), [], None
        for start, stop, pair_id in zip(starts[piece].tolist(), stops[piece].tolist(), ids[piece].tolist()):
            raw = os.pread(fd, stop - start, start)
            text, error = _decode(raw, path, pair_id + 1, start)
            if len(raw) != stop - start:
                error = DataError(f"{path} changed during the run: it ends before line {pair_id + 1}")
            if error:
                break
            lines.append(text)
        yield lines, ids[low : low + len(lines)], error
        if error:
            return


def fetch_blocks(
    ids, stamps: list[tuple[int, int]], source_path: _Path = None, target_path: _Path = None, *, tsv_path: _Path = None
) -> Iterator[PairBlock]:
    """The corpus pairs with the given ids (line numbers), in the order of ids, ``_PIECE_PAIRS`` at a time.

    Each file is scanned once, in chunks, for the byte spans of the wanted
    lines; then each pair is read back by pread, a block when the consumer
    asks for it, so no more than a block is held.  A pair reads back as
    ``read_corpus`` gives it.  A file whose size or modification time
    differs from its stamp (see ``corpus_stamps``), or that has no line
    for an id, raises DataError.
    """
    paths = _corpus_paths(source_path, target_path, tsv_path)
    ids = np.asarray(ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    with ExitStack() as stack:
        chunks = []
        for path, stamp in zip(paths, stamps, strict=True):
            try:
                handle = stack.enter_context(open(path, "rb", buffering=0))
                stat = os.fstat(handle.fileno())
            except OSError as exc:
                raise DataError(f"{path} changed during the run: {exc}") from exc
            if (stat.st_size, stat.st_mtime_ns) != stamp:
                raise DataError(f"{path} changed during the run (its size or modification time differs)")
            starts, stops = np.empty_like(ids), np.empty_like(ids)
            starts[order], stops[order] = _line_spans(handle, path, ids[order])
            chunks.append(_lines_at(handle, path, starts, stops, ids))
        yield from _cut(chunks, ids, _PIECE_PAIRS, paths)


def _check_lines(text: str, lines: int, tabs: int, block: PairBlock) -> None:
    """Raise a DataError for block's first text with a tab or a line feed unless text, lines of its pairs,
    has lines LFs and tabs tabs: then no text of those pairs holds one.  A carriage return reads back as it is."""
    if text.count("\n") != lines or text.count("\t") != tabs:
        for pair in block.pairs():
            for side, value in (("source", pair.source), ("target", pair.target)):
                if "\t" in value or "\n" in value:
                    name = "tab" if "\t" in value else "line feed"
                    raise DataError(f"pair {pair.id}: {side} text contains a {name}, which a corpus line cannot hold")


# (temp file, destination) of each atomic_write inside deferred_renames
_pending_renames: ContextVar[list | None] = ContextVar("_pending_renames", default=None)


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Write to a temp file in the target directory, then rename over.

    The destination never exists in a partially-written state.  Inside
    ``deferred_renames`` the rename waits until that context ends.  An
    OSError while the file is made, written or renamed into place, and a
    path or text that UTF-8 cannot encode (a lone surrogate), is raised
    as a DataError that names the path.
    """
    path = Path(path)
    encoding = None if "b" in mode else "utf-8"
    newline = None if "b" in mode else "\n"
    tmp_name = None
    try:
        if path.is_dir():  # found now, not when a deferred rename would fail
            raise DataError(f"failed writing {path}: it is a directory")
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, mode, encoding=encoding, newline=newline) as handle:
            yield handle
        pending = _pending_renames.get()
        if pending is None:
            os.replace(tmp_name, path)
        else:
            pending.append((tmp_name, path))
    except BaseException as exc:
        if tmp_name is not None:
            with suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, (OSError, UnicodeEncodeError)):
            raise DataError(f"failed writing {path}: {exc}") from exc
        raise


@contextmanager
def deferred_renames():
    """Publish the files that atomic_write writes inside the context together.

    They are renamed into place in the order they were written when the
    body returns, and all unlinked if it raises, so a command that fails
    after writing some of its outputs leaves none of them.
    """
    pending: list[tuple[str, Path]] = []
    token = _pending_renames.set(pending)
    try:
        yield
        for tmp_name, path in pending:
            try:
                os.replace(tmp_name, path)
            except OSError as exc:
                raise DataError(f"failed writing {path}: {exc}") from exc
        pending.clear()
    finally:
        _pending_renames.reset(token)
        for tmp_name, _ in pending:
            with suppress(OSError):
                os.unlink(tmp_name)


def write_blocks(
    blocks: Iterable[PairBlock], source_path: _Path = None, target_path: _Path = None, *, tsv_path: _Path = None
) -> CorpusStats:
    """Write blocks of pairs out in order, each side of a block joined once; returns the written pair count.

    Reading the result back yields text-identical pairs with ids
    reassigned by position.  A text with a tab or line feed could not be
    read back, so it raises DataError and no file is written.
    """
    paths = _corpus_paths(source_path, target_path, tsv_path)
    written = 0
    with ExitStack() as stack:
        outs = [stack.enter_context(atomic_write(path)) for path in paths]
        for block in blocks:
            for low in range(0, len(block), _PIECE_PAIRS):
                sources = block.sources[low : low + _PIECE_PAIRS]
                targets = block.targets[low : low + _PIECE_PAIRS]
                if len(outs) == 1:
                    texts = ["".join(map("{}\t{}\n".format, sources, targets))]
                else:
                    texts = ["\n".join(sources) + "\n", "\n".join(targets) + "\n"]
                for out, text in zip(outs, texts):
                    _check_lines(text, len(sources), (2 - len(outs)) * len(sources), block)
                    out.write(text)
            written += len(block)
            del block
    return compute_stats(written, written)


def write_corpus(
    pairs: Iterable[SentencePair], source_path: _Path = None, target_path: _Path = None, *, tsv_path: _Path = None
) -> CorpusStats:
    """``write_blocks`` of pairs."""
    return write_blocks(as_blocks(pairs, _PIECE_PAIRS), source_path, target_path, tsv_path=tsv_path)
