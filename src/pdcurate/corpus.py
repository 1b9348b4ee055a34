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
break the read/write round-trip guarantee.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import AlignmentError, ConfigError, DataError


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

    def side_text(self, side: Side) -> tuple[str, ...]:
        """The text of the checked side(s), source first."""
        if side is Side.SOURCE:
            return (self.source,)
        if side is Side.TARGET:
            return (self.target,)
        return (self.source, self.target)


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


def _decode_line(raw: bytes, path: Path, line_no: int, byte_offset: int) -> str:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: invalid UTF-8 at line {line_no}, byte offset {byte_offset + exc.start}"
        ) from exc
    if text.endswith("\n"):
        text = text[:-1]
    return text


def _iter_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, decoded line), tracking byte offsets for error reporting."""
    offset = 0
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            yield line_no, _decode_line(raw, path, line_no, offset)
            offset += len(raw)


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
    for line_no, text in _iter_lines(path):
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


def _iter_tabless_lines(path: Path) -> Iterator[str]:
    for line_no, text in _iter_lines(path):
        if "\t" in text:
            raise DataError(f"{path}: line {line_no} contains a tab character")
        yield text


def read_corpus(
    source_path: str | Path | None = None,
    target_path: str | Path | None = None,
    *,
    tsv_path: str | Path | None = None,
) -> Iterator[SentencePair]:
    """Stream sentence pairs from a two-file or TSV corpus.

    Memory use is bounded regardless of corpus size.  Two-file mode
    raises AlignmentError naming the first line where one file has run
    out; TSV mode rejects lines that do not have exactly two fields.
    Argument and existence checks happen eagerly, before streaming.
    """
    if tsv_path is not None:
        if source_path is not None or target_path is not None:
            raise ConfigError("pass either source/target paths or tsv_path, not both")
        paths = [Path(tsv_path)]
    else:
        if source_path is None or target_path is None:
            raise ConfigError("two-file mode needs both source_path and target_path")
        paths = [Path(source_path), Path(target_path)]
    for path in paths:
        if not path.is_file():
            raise DataError(f"corpus file not found: {path}")
    if tsv_path is not None:
        return _read_tsv(paths[0])
    return _read_two_file(paths[0], paths[1])


def _read_two_file(source_path: Path, target_path: Path) -> Iterator[SentencePair]:
    src_lines = _iter_tabless_lines(source_path)
    tgt_lines = _iter_tabless_lines(target_path)
    pair_id = 0
    while True:
        src = next(src_lines, None)
        tgt = next(tgt_lines, None)
        if src is None and tgt is None:
            return
        if src is None or tgt is None:
            longer = target_path if src is None else source_path
            raise AlignmentError(
                f"{source_path} and {target_path} disagree in length: "
                f"{longer} has an unmatched line {pair_id + 1}",
                line=pair_id + 1,
            )
        yield SentencePair(pair_id, src, tgt)
        pair_id += 1


def _read_tsv(path: Path) -> Iterator[SentencePair]:
    for line_no, text in _iter_lines(path):
        fields = text.split("\t")
        if len(fields) != 2:
            raise DataError(
                f"{path}: line {line_no} has {len(fields)} tab-separated fields, expected 2"
            )
        yield SentencePair(line_no - 1, fields[0], fields[1])


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Write to a temp file in the target directory, then rename over.

    The destination never exists in a partially-written state.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    encoding = None if "b" in mode else "utf-8"
    newline = None if "b" in mode else "\n"
    try:
        with os.fdopen(fd, mode, encoding=encoding, newline=newline) as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_corpus(
    pairs: Iterable[SentencePair],
    source_path: str | Path | None = None,
    target_path: str | Path | None = None,
    *,
    tsv_path: str | Path | None = None,
) -> CorpusStats:
    """Write pairs out in input order; returns the written pair count.

    Reading the result back yields text-identical pairs with ids
    reassigned by position.
    """
    count = 0
    try:
        if tsv_path is not None:
            if source_path is not None or target_path is not None:
                raise ConfigError("pass either source/target paths or tsv_path, not both")
            with atomic_write(tsv_path) as out:
                for pair in pairs:
                    out.write(f"{pair.source}\t{pair.target}\n")
                    count += 1
        else:
            if source_path is None or target_path is None:
                raise ConfigError("two-file mode needs both source_path and target_path")
            with atomic_write(source_path) as src_out, atomic_write(target_path) as tgt_out:
                for pair in pairs:
                    src_out.write(pair.source + "\n")
                    tgt_out.write(pair.target + "\n")
                    count += 1
    except OSError as exc:
        raise DataError(f"failed writing corpus: {exc}") from exc
    return compute_stats(count, count)
