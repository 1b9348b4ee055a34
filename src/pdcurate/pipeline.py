"""Config-driven curation runs: dedup stages, filters, ranking, top-k.

A pipeline applies its heuristic stages in order to the input stream,
then ranks the survivors by embedding cosine similarity and emits the
top-k slice.  Heuristics run before ranking on purpose: filtering first
is what keeps degenerate pairs out of the top of the ranked list.

Config files are YAML with top-level keys ``language_pair``, ``stages``
(a list of ``{kind, side, params}``), optional ``ranking``
(``{source_embeddings, target_embeddings, top_k}``), optional
``lid_predictions`` (``{path}`` or ``{source, target}``) and optional
``report`` (output path).  Each mapping accepts only its declared keys
and checks the type of each value; a null value counts as absent.
Validation is fail-fast: a bad stage aborts the run before any pair is
processed.

The recommended preset chains full punctuation+number-stripped dedup,
n-gram dedup, the 5-word length floor, LID with a 0.7 probability
threshold and the alpha-word-ratio filter.  Published side assignments
are bound positionally: the dedup base runs on the target side, length
and LID on both sides, and the ratio filter on the source side for the
0.6 variant or both sides for the stricter 0.8 variant.  n defaults to
5; 5 or 6 work best in most settings, with 4 usually too aggressive.
"""

from __future__ import annotations

import marshal
import math
import os
import tempfile
import time
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from itertools import islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import yaml

from . import dedup
from .corpus import CorpusStats, LanguagePair, PairBlock, SentencePair, Side, _LazyNumpy
from .corpus import as_blocks, block_pairs, compute_stats
from .dedup import DedupSpec, DedupStream
from .errors import ConfigError, DataError
from .filters import (
    LID_PROB_THRESHOLD,
    MIN_WORDS_DEFAULT,
    SENT_RATIO_STRICT,
    SENT_RATIO_THRESHOLD,
    LengthSpec,
    LidSpec,
    RatioKind,
    RatioSpec,
    length_keep,
    length_pass,
    lid_keep,
    lid_pass,
    ratio_keep,
    ratio_pass,
)
from .lid import SCRIPT_LANGS, LidPredictor, ScriptPredictor, TablePredictor, _is_script_detector
from .lid import load_prediction_table, load_predictions
from .ranking import EmbeddingStore, RankedCorpus, load_embeddings, merge_rankings
from .ranking import rank_corpus, repeated_id_error, top_k
from .textnorm import NormMode

np = _LazyNumpy(globals())

StageSpec = DedupSpec | LengthSpec | LidSpec | RatioSpec

PRESET_NGRAM_RANGE = (4, 7)

_RANK_BATCH = 8192  # survivors scored per rank_corpus call when top_k is smaller
# Removal rows a stage holds before it writes them to its spill.  A block
# of boilerplate-like rows marshals to 48-101 KiB, under glibc's 128 KiB mmap
# threshold; freeing larger blocks raises that threshold, and with it the
# peak RSS (4,096-row blocks cost about 4 MiB more at 300k pairs).
_SPILL_ROWS = 1024


# Converters from one YAML value to a config value; each raises
# ValueError for a value of the wrong type or range.


def _integer(value) -> int:
    """An int, or a float with an integral value; booleans raise."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _typed(kind: type, name: str) -> Callable[[Any], Any]:
    def convert(value):
        if not isinstance(value, kind):
            raise ValueError(f"expected {name}, got {value!r}")
        return value

    return convert


_text = _typed(str, "a string")
_mapping = _typed(dict, "a mapping")
_list = _typed(list, "a list")


def _language_pair(value) -> LanguagePair:
    return LanguagePair.from_string(_text(value))


def _build(cls, section: str, data, converters: dict[str, Callable[[Any], Any]], **defaults):
    """Build the dataclass cls from one YAML mapping of a config section.

    Only the keys of converters are accepted; each non-null value goes
    through its converter, and defaults fill the fields the mapping
    leaves out.  An unknown key, a missing required field, a value its
    converter rejects and a ValueError from cls all raise ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a mapping, got {data!r}")
    unknown = set(map(str, data)) - set(converters)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    values = dict(defaults)
    for key, convert in converters.items():
        if data.get(key) is not None:
            try:
                values[key] = convert(data[key])
            except (ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
                raise ConfigError(f"{section} {key}: {exc}") from exc
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"{section} is missing {', '.join(missing)}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _declared(obj, converters: dict) -> dict:
    """The fields of obj that converters declares, as YAML values."""
    values = {name: getattr(obj, name) for name in converters}
    return {name: v.value if isinstance(v, Enum) else v for name, v in values.items()}


@dataclass(frozen=True, slots=True)
class RankingSpec:
    source_embeddings: str
    target_embeddings: str
    top_k: int

    def __post_init__(self):
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True, slots=True)
class LidPredictionFiles:
    """Where LID stage predictions come from; absent means script detector."""

    path: str | None = None
    source: str | None = None
    target: str | None = None

    def __post_init__(self):
        if self.path is not None and (self.source is not None or self.target is not None):
            raise ConfigError("lid_predictions: give one shared path or per-side paths, not both")
        if self.path is None and self.source is None and self.target is None:
            raise ConfigError("lid_predictions: no file given")


_RANKING_FIELDS = {"source_embeddings": _text, "target_embeddings": _text, "top_k": _integer}
_LID_FILES_FIELDS = {"path": _text, "source": _text, "target": _text}


@dataclass(frozen=True)
class PipelineConfig:
    language_pair: LanguagePair
    stages: tuple[StageSpec, ...] = ()
    ranking: RankingSpec | None = None
    lid_predictions: LidPredictionFiles | None = None
    report: str | None = None


def _kind_at_side(stage) -> str:
    return f"{stage_kind(stage)}@{stage.side.value}"


@dataclass(frozen=True, slots=True)
class _StageKind:
    """One row of the stage table: how a stage kind is named, parsed, written and run.

    names are the config kinds the row parses into its spec class;
    params maps each spec field a stage's params may set to its
    converter, and defaults(kind, language_pair) gives the fields they
    leave out.  kind(spec) is the kind the row writes and describe(spec)
    names the stage in reports.  block_fn(spec, ctx), called once per
    run, returns the stage's block function: it takes the id-ordered
    ``PairBlock`` of the pairs that reach the stage and returns a boolean
    array of the pairs it keeps and the removal reason: one for all
    removed pairs, a list with one per removed pair, or None.
    """

    names: tuple[str, ...]
    spec: type
    params: dict[str, Callable[[Any], Any]]
    kind: Callable[[Any], str]
    block_fn: Callable[[Any, "_StageContext"], Callable[[PairBlock], tuple]]
    defaults: Callable[[str, LanguagePair | None], dict] = lambda kind, language_pair: {}
    describe: Callable[[Any], str] = _kind_at_side
    uses_predictor: bool = False


@dataclass(frozen=True, slots=True)
class _StageEntry:
    """One item of a config's stage list, before its params are parsed."""

    kind: str
    side: Side = Side.BOTH
    params: dict = field(default_factory=dict)


def _row(stage: StageSpec) -> _StageKind:
    row = _STAGE_KINDS_BY_SPEC.get(type(stage))
    if row is None:
        raise ConfigError(f"unsupported stage object: {stage!r}")
    return row


def stage_kind(stage: StageSpec) -> str:
    return _row(stage).kind(stage)


def stage_name(index: int, stage: StageSpec) -> str:
    return f"{index}:{_row(stage).describe(stage)}"


def _stage_to_dict(stage: StageSpec) -> dict:
    row = _row(stage)
    params = _declared(stage, row.params)
    return {"kind": row.kind(stage), "side": stage.side.value, "params": params}


def stage_from_dict(entry: dict, language_pair: LanguagePair | None) -> StageSpec:
    """Parse one ``{kind, side, params}`` entry; language_pair gives LID defaults."""
    entry = _build(_StageEntry, "stage", entry, _STAGE_ENTRY_FIELDS)
    row = _STAGE_KINDS_BY_NAME[entry.kind]
    defaults = {"side": entry.side, **row.defaults(entry.kind, language_pair)}
    return _build(row.spec, f"{entry.kind} params", entry.params, row.params, **defaults)


def _stage_kind_name(value) -> str:
    kind = _text(value).lower()
    if kind not in _STAGE_KINDS_BY_NAME:
        raise ValueError(f"unknown stage kind {kind!r}")
    return kind


_STAGE_ENTRY_FIELDS = {
    "kind": _stage_kind_name,
    "side": lambda value: Side.from_string(_text(value)),
    "params": _mapping,
}


def _lid_defaults(kind: str, language_pair: LanguagePair | None) -> dict:
    if language_pair is None:
        raise ConfigError(
            f"stage {kind!r} needs a language pair (like en-si) for its expected languages"
        )
    return {
        "expected_source": language_pair.source_lang,
        "expected_target": language_pair.target_lang,
        "min_prob": LID_PROB_THRESHOLD if kind == "lidthresh" else None,
    }


class _Removals:
    """A run's removal rows by stage, so that they read back stage-major
    although the stages interleave.

    add(ids, stage, reasons) adds a block's rows.  Every
    ``_SPILL_ROWS`` rows of a stage go as one marshal block to the
    stage's spill: an anonymous temp file (so it honours TMPDIR and
    leaves nothing on disk), made on the stage's first full block.  The
    object is sized, and its rows can be read once, each spill closing
    once read: a second read, or a read after close(), raises
    ValueError.  close() closes every spill.  An OSError from a spill is
    raised as a DataError.
    """

    def __init__(self, names: list[str]):
        self._rows: dict[str, RemovalLog] = {name: [] for name in names}
        self._spills: dict[str, tuple[Any, list[int]]] = {}  # name -> (file, block sizes)
        self._spilled = 0
        self._read = False

    def add(self, ids: np.ndarray, stage: str, reasons: str | list[str]) -> None:
        """The rows of the pairs ids (ascending) that stage removed from a block, for the
        reason reasons, or each for its own reason in the list reasons."""
        rows = self._rows[stage]
        added = zip(ids.tolist(), repeat(stage), repeat(reasons) if isinstance(reasons, str) else reasons)
        while True:
            rows.extend(islice(added, _SPILL_ROWS - len(rows)))
            if len(rows) < _SPILL_ROWS:
                return
            self._spill(stage, rows)

    def _spill(self, name: str, rows: RemovalLog) -> None:
        block = marshal.dumps(rows)
        try:
            if name not in self._spills:
                self._spills[name] = (tempfile.TemporaryFile(), [])
            file, sizes = self._spills[name]
            file.write(block)
        except OSError as exc:
            raise DataError(f"cannot spill removal rows to the temp dir: {exc}") from exc
        sizes.append(len(block))
        self._spilled += len(rows)
        rows.clear()

    def __len__(self) -> int:
        return self._spilled + sum(map(len, self._rows.values()))

    def __iter__(self) -> Iterator[tuple[int, str, str]]:
        if self._read:
            raise ValueError("removal rows can be read once, and not after close()")
        self._read = True
        try:
            for name, rows in self._rows.items():
                if name in self._spills:
                    file, sizes = self._spills[name]
                    with file:  # frees the spill's disk space once it is read
                        file.seek(0)
                        for size in sizes:
                            yield from marshal.loads(file.read(size))
                yield from rows
        except OSError as exc:
            raise DataError(f"cannot read removal rows back from the temp dir: {exc}") from exc

    def close(self) -> None:
        self._read = True
        for file, _ in self._spills.values():
            file.close()


@dataclass
class _StageContext:
    """What stage functions share within one run besides their pairs.

    log_removals is True when the run keeps a removal log.
    """

    report: RunReport
    log_removals: bool
    predictor: LidPredictor | None

    def lid_failed(self, *_) -> None:
        self.report.lid_failures += 1  # the pair fails closed and is removed as "lid"


# Dedup stages reach DedupStream through this module's globals at call
# time, so patching that name here (as an instrumented run does) reaches
# every stage.  Each filter stage, LID with any predictor included, calls
# its block function; length_pass, lid_pass and ratio_pass, one-pair calls
# of them, are imported only because the benchmark's tracer wraps them here.


def _filter_stage(keep):
    """The block_fn of a block test keep(spec, block, ctx) -> a boolean array; the stage kind is its reason."""

    def block_fn(spec, ctx):
        reason = stage_kind(spec)
        return lambda block: (keep(spec, block, ctx), reason)

    return block_fn


def _dedup_stage(spec, ctx):
    # removal reasons are built only for a removal log
    stream = DedupStream((), spec)
    return lambda block: stream.dedup_columns(block, ctx.log_removals)


_STAGE_KINDS = (
    _StageKind(
        names=("dedup",),
        spec=DedupSpec,
        params={"norm": lambda value: NormMode.from_string(_text(value)), "ngram": _integer},
        kind=lambda spec: "dedup",
        block_fn=_dedup_stage,
        describe=DedupSpec.describe,
    ),
    _StageKind(
        names=("length",),
        spec=LengthSpec,
        params={"min_words": _integer},
        kind=lambda spec: "length",
        block_fn=_filter_stage(lambda spec, block, ctx: length_keep(block, spec)),
    ),
    _StageKind(
        names=("lid", "lidthresh"),
        spec=LidSpec,
        params={"expected_source": _text, "expected_target": _text, "min_prob": _number},
        kind=lambda spec: "lid",
        block_fn=_filter_stage(lambda spec, block, ctx: lid_keep(block, spec, ctx.predictor, ctx.lid_failed)),
        defaults=_lid_defaults,
        uses_predictor=True,
    ),
    _StageKind(
        names=tuple(kind.value for kind in RatioKind),
        spec=RatioSpec,
        params={"lo": _number, "hi": _number},
        kind=lambda spec: spec.kind.value,
        block_fn=_filter_stage(lambda spec, block, ctx: ratio_keep(block, spec)),
        defaults=lambda kind, language_pair: {"kind": RatioKind(kind)},
    ),
)
_STAGE_KINDS_BY_SPEC = {row.spec: row for row in _STAGE_KINDS}
_STAGE_KINDS_BY_NAME = {name: row for row in _STAGE_KINDS for name in row.names}


def config_to_dict(config: PipelineConfig) -> dict:
    data: dict = {
        "language_pair": str(config.language_pair),
        "stages": [_stage_to_dict(stage) for stage in config.stages],
    }
    if config.ranking is not None:
        data["ranking"] = _declared(config.ranking, _RANKING_FIELDS)
    if config.lid_predictions is not None:
        files = _declared(config.lid_predictions, _LID_FILES_FIELDS)
        data["lid_predictions"] = {key: value for key, value in files.items() if value is not None}
    if config.report is not None:
        data["report"] = config.report
    return data


_CONFIG_FIELDS = {
    "language_pair": _language_pair,
    "stages": lambda value: tuple(_list(value)),
    "ranking": lambda value: _build(RankingSpec, "ranking", value, _RANKING_FIELDS),
    "lid_predictions": lambda value: _build(
        LidPredictionFiles, "lid_predictions", value, _LID_FILES_FIELDS
    ),
    "report": _text,
}


def config_from_dict(data: dict) -> PipelineConfig:
    config = _build(PipelineConfig, "config", data, _CONFIG_FIELDS)
    # LID stages take their default languages from the parsed language pair
    stages = tuple(stage_from_dict(entry, config.language_pair) for entry in config.stages)
    return replace(config, stages=stages)


def dump_config(config: PipelineConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=False)


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that rejects a mapping that gives one key twice, instead of keeping the last."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list, so that an unhashable key still meets PyYAML's own error
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # a key merged in with << may be given again
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(None, None, f"found duplicate key {key!r}", key_node.start_mark)
            seen.append(key)
        return super().construct_mapping(node, deep)


def _parse_yaml(text: str | bytes, what: str):
    try:
        return yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:  # also invalid UTF-8 in bytes
        raise ConfigError(f"{what} is not valid YAML: {exc}") from exc


def _load_yaml(path: str | Path, what: str):
    """The YAML document in a config or recipe file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return _parse_yaml(path.read_bytes(), what)


def parse_config(text: str) -> PipelineConfig:
    return config_from_dict(_parse_yaml(text, "config"))


def load_config(path: str | Path) -> PipelineConfig:
    return config_from_dict(_load_yaml(path, "config"))


@dataclass(frozen=True, slots=True)
class StageReport:
    name: str
    stats: CorpusStats
    wall_time_s: float


@dataclass(frozen=True, slots=True)
class RankingReport:
    requested_k: int
    emitted: int
    dim: int
    zero_norm_count: int


@dataclass
class RunReport:
    stages: list[StageReport] = field(default_factory=list)
    total: CorpusStats = field(default_factory=lambda: compute_stats(0, 0))
    ranking: RankingReport | None = None
    lid_failures: int = 0
    warnings: list[str] = field(default_factory=list)

    def _count_rows(self) -> list[tuple[str, CorpusStats, float | None]]:
        """(name, stats, wall time) of each stage, then of the total, which has no wall time."""
        rows = [(stage.name, stage.stats, stage.wall_time_s) for stage in self.stages]
        return rows + [("total", self.total, None)]

    def to_text(self) -> str:
        lines = ["stage                                    in          out    removed  reduction"]
        for name, stats, seconds in self._count_rows():
            line = (
                f"{name:<38} {stats.pair_count:>9}  {stats.retained_count:>9}  "
                f"{stats.pair_count - stats.retained_count:>9}  {stats.reduction_pct:>7.2f}%"
            )
            lines.append(line if seconds is None else f"{line}  ({seconds:.2f}s)")
        if self.ranking is not None:
            lines.append(
                f"ranking: top {self.ranking.requested_k} of ranked corpus -> "
                f"{self.ranking.emitted} pairs (dim {self.ranking.dim}, "
                f"{self.ranking.zero_norm_count} zero-norm vectors)"
            )
        lines.append(f"lid failures (failed closed): {self.lid_failures}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        rows = ["section\tname\tin\tout\tremoved\treduction_pct\twall_time_s"]
        for name, stats, seconds in self._count_rows():
            label, wall = ("total\t-", "-") if seconds is None else (f"stage\t{name}", f"{seconds:.3f}")
            removed = stats.pair_count - stats.retained_count
            rows.append(
                f"{label}\t{stats.pair_count}\t{stats.retained_count}\t{removed}\t{stats.reduction_pct:.2f}\t{wall}"
            )
        if self.ranking is not None:
            rows.append(
                f"ranking\ttop_k\t{self.ranking.requested_k}\t{self.ranking.emitted}\t-\t-\t-"
            )
            rows.append(f"ranking\tdim\t{self.ranking.dim}\t-\t-\t-\t-")
            rows.append(f"ranking\tzero_norm\t{self.ranking.zero_norm_count}\t-\t-\t-\t-")
        rows.append(f"lid\tfailures\t{self.lid_failures}\t-\t-\t-\t-")
        for warning in self.warnings:
            rows.append(f"warning\t{warning}\t-\t-\t-\t-\t-")
        return "\n".join(rows) + "\n"


@dataclass
class RunResult:
    """Curated pairs (rank order when ranking ran, id order otherwise).

    pairs is empty when the run was given a sink, which got the output.
    """

    pairs: list[SentencePair]
    report: RunReport
    ranked: RankedCorpus | None = None


Sink = Callable[[Iterator[PairBlock] | None, RankedCorpus | None], None]
RemovalLog = list[tuple[int, str, str]]


def _build_predictor(config: PipelineConfig) -> LidPredictor:
    files = config.lid_predictions
    if files is None:
        return ScriptPredictor()
    if files.path is not None:
        return load_predictions(files.path)
    return TablePredictor(
        source=load_prediction_table(files.source) if files.source else None,
        target=load_prediction_table(files.target) if files.target else None,
    )


def _lid_stages(config: PipelineConfig) -> dict[str, LidSpec]:
    return {stage_name(at, stage): stage for at, stage in enumerate(config.stages) if _row(stage).uses_predictor}


def validate_config(config: PipelineConfig) -> None:
    """Fail fast before any pair is processed."""
    lid_stages = _lid_stages(config)  # also rejects stage objects of no known kind
    if config.ranking is not None:
        for path in (config.ranking.source_embeddings, config.ranking.target_embeddings):
            if not Path(path).is_file():
                raise DataError(f"embedding file not found: {path}")
    files = config.lid_predictions
    if files is not None:
        for path in (files.path, files.source, files.target):
            if path is not None and not Path(path).is_file():
                raise DataError(f"prediction file not found: {path}")
    shared_table = files is not None and (
        files.path is not None
        or (None not in (files.source, files.target) and os.path.samefile(files.source, files.target))
    )
    checked = {"source": False, "target": False}  # whether a LID stage checks the side
    for name, stage in lid_stages.items():
        # one shared table gives both sides of a pair the same label
        differ = stage.expected_source != stage.expected_target
        if shared_table and stage.side is Side.BOTH and differ:
            raise ConfigError(
                f"one shared prediction table cannot tell {stage.expected_source} from "
                f"{stage.expected_target} on side st; give distinct per-side prediction files"
            )
        # a checked side with no table would fail every pair closed
        for key, checks in (("source", stage.side.checks_source), ("target", stage.side.checks_target)):
            if checks and files is not None and files.path is None and getattr(files, key) is None:
                raise ConfigError(f"stage {name} checks the {key} side, but lid_predictions gives no {key} file")
            checked[key] |= checks
    # a file that no stage reads would be loaded, and checked, for nothing
    if files is not None and not lid_stages:
        raise ConfigError("lid_predictions gives a file, but no stage is a LID stage")
    for key, checks in checked.items():
        if files is not None and getattr(files, key) is not None and not checks:
            raise ConfigError(f"lid_predictions gives a {key} file, but no LID stage checks the {key} side")


def _id_batches(blocks: Iterable[PairBlock], size: int) -> Iterator[np.ndarray]:
    """The blocks' ids, size at a time; the last batch is shorter, and may be empty."""
    held, count = [np.zeros(0, dtype=np.int64)], 0
    for block in blocks:
        held.append(block.ids)
        count += len(block)
        del block
        if count >= size:
            ids = np.concatenate(held)
            while len(ids) >= size:
                yield ids[:size]
                ids = ids[size:].copy()
            held, count = [ids], len(ids)
    yield np.concatenate(held)


def _rank_top_k(
    survivors: Iterable[PairBlock], k: int, src_emb: EmbeddingStore, tgt_emb: EmbeddingStore
) -> tuple[RankedCorpus, int]:
    """The ranking of the top k survivors and the survivor count.

    Only the survivors' ids are read.  They are scored ``max(k,
    _RANK_BATCH)`` at a time, and after each batch only the top k of the
    pool and the batch are kept, 16 bytes each.  The ranking's
    zero_norm_count counts the zero-norm vectors of every survivor.  One
    flag per embedding row makes an id seen in an earlier batch a DataError.
    """
    pool = RankedCorpus(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
    ranked_ids = np.zeros(min(src_emb.count, tgt_emb.count), dtype=bool)
    count = 0
    for ids in _id_batches(survivors, max(k, _RANK_BATCH)):
        ranked = rank_corpus(ids, src_emb, tgt_emb)  # every id is a row of both stores
        if ranked_ids[ids].any():
            raise repeated_id_error(int(ids[ranked_ids[ids]][0]))
        ranked_ids[ids] = True
        count += len(ids)
        # no entry below the batch's own top k can enter the pool
        ranked = top_k(ranked, k)
        pool = top_k(merge_rankings(pool, ranked), k) if len(pool) else ranked
    return pool, count


def _pairs_in_rank_order(pairs: Iterable[SentencePair], ranked: RankedCorpus) -> list[SentencePair]:
    """The ranked pairs in rank order, picked out of a second pass over a run's input."""
    slot = dict(zip(ranked.ids(), range(len(ranked))))
    ordered: list[SentencePair | None] = [None] * len(slot)
    for pair in pairs:
        at = slot.get(pair.id)
        if at is not None:
            if ordered[at] is not None:
                raise repeated_id_error(pair.id)
            ordered[at] = pair
    return ordered


def run(
    config: PipelineConfig,
    pairs: Iterable[SentencePair] | Iterable[PairBlock],
    *,
    removal_log: Any = None,
    predictor: LidPredictor | None = None,
    sink: Sink | None = None,
) -> RunResult:
    """Run stages in order, then rank survivors and slice top-k.

    pairs are SentencePairs, which run takes ``dedup._BLOCK_PAIRS`` at a
    time, or id-ordered PairBlocks, as ``corpus.read_blocks`` gives them.
    Each block goes through the stages in config order, as columns, in
    this process and thread, before the next one is read: no stage holds
    the corpus or its full survivor list, and no SentencePair is built
    for a pair.  The output, the removal log (joined stage-major) and the
    report counts are the same as if each stage ran over all pairs that
    reach it before the next one started.  A stage's wall time is the
    time spent in its calls; a stage that is given pairs and keeps none
    of them adds a report warning, after ranking's.  With ranking, both
    embedding stores are loaded before the first pair is read, and
    ranking holds the ids and scores of the top k survivors so far,
    never their texts.

    sink(blocks, ranked), if given, is called once with the output.
    Without ranking, blocks is an iterator over the survivors' PairBlocks
    in id order, which the sink must exhaust, and ranked is None; each
    block is read, and goes through the stages, when the sink asks for
    it.  With ranking, blocks is None and ranked is the top-k ranking,
    whose pairs the sink reads from the input by id.  Without a sink,
    RunResult.pairs holds the output; with ranking, run then reads its
    input a second time for the top-k pairs, so an input that is an
    iterator is held as a list.  Pair ids always index the original
    corpus, so embedding stores built for the unfiltered corpus keep
    working after filtering.  Identical input and config give
    byte-identical output.

    removal_log, if given, is any object with an ``extend`` method; run
    calls ``removal_log.extend(rows)`` once, at the end.  rows is a
    sized iterable over the (pair id, stage name, reason) rows,
    stage-major with ids ascending within a stage.  Until it is read,
    the rows wait in one spill per stage in the temp dir (TMPDIR),
    taking about the size of the log on disk and about one block of rows
    per stage in memory.  extend must read the rows itself, as a list
    does: run closes them when extend returns or raises, and reading
    them a second time, or after that, raises ValueError.
    """
    validate_config(config)
    report = RunReport()
    lid_stages = _lid_stages(config).values()
    if predictor is None and lid_stages:
        predictor = _build_predictor(config)
    if _is_script_detector(predictor):
        # the built-in script detector only ever emits en/si/ta
        expected = {s.expected_source for s in lid_stages} | {s.expected_target for s in lid_stages}
        unsupported = expected - SCRIPT_LANGS
        if unsupported:
            raise ConfigError(
                f"script LID cannot predict {sorted(unsupported)}; "
                "load prediction files for these languages"
            )
    ranking = config.ranking
    if ranking is not None:
        src_emb = load_embeddings(ranking.source_embeddings)
        tgt_emb = load_embeddings(ranking.target_embeddings)
    kept: list[SentencePair] = []
    if sink is None:
        if ranking is not None and iter(pairs) is pairs:
            pairs = list(pairs)  # read a second time for the ranked pairs
        sink = lambda blocks, ranked: kept.extend(
            block_pairs(blocks)
            if ranked is None
            else _pairs_in_rank_order(block_pairs(as_blocks(pairs, dedup._BLOCK_PAIRS)), ranked)
        )
    names = [stage_name(index, stage) for index, stage in enumerate(config.stages)]
    removals = _Removals(names)
    ctx = _StageContext(report, removal_log is not None, predictor)

    block_fns = [_row(stage).block_fn(stage, ctx) for stage in config.stages]
    counts = [0] * (len(block_fns) + 1)  # the pairs that reach each stage, and the survivors
    seconds = [0.0] * len(block_fns)

    def survivor_blocks() -> Iterator[PairBlock]:
        for block in as_blocks(pairs, dedup._BLOCK_PAIRS):
            counts[0] += len(block)
            for at, block_fn in enumerate(block_fns):
                if not len(block):
                    break
                started = time.perf_counter()
                keep, reasons = block_fn(block)
                if ctx.log_removals:
                    removals.add(block.ids[~keep], names[at], reasons)
                block = block.compress(keep)
                seconds[at] += time.perf_counter() - started
                counts[at + 1] += len(block)
            yield block
            del block  # the survivors, before the next block is read

    ranked = None
    with closing(removals):  # also when the run or removal_log.extend raises
        if ranking is None:
            sink(survivor_blocks(), None)
        else:
            ranked, count = _rank_top_k(survivor_blocks(), ranking.top_k, src_emb, tgt_emb)
            if ranking.top_k > count:
                report.warnings.append(
                    f"top_k {ranking.top_k} exceeds ranked corpus size {count}; emitting everything"
                )
            report.ranking = RankingReport(
                requested_k=ranking.top_k,
                emitted=len(ranked),
                dim=src_emb.dim,
                zero_norm_count=ranked.zero_norm_count,
            )
            sink(None, ranked)
        if removal_log is not None:
            removal_log.extend(removals)

    for at, name in enumerate(names):
        report.stages.append(StageReport(name, compute_stats(counts[at], counts[at + 1]), seconds[at]))
        if counts[at] and not counts[at + 1]:
            report.warnings.append(f"stage {name} removed all {counts[at]} pairs it was given")
    report.total = compute_stats(counts[0], counts[-1])
    return RunResult(pairs=kept, report=report, ranked=ranked)


def recommended_preset(
    language_pair: LanguagePair,
    n: int = 5,
    ratio_lo: float = SENT_RATIO_THRESHOLD,
    *,
    dedup_side: Side = Side.TARGET,
    ranking: RankingSpec | None = None,
) -> PipelineConfig:
    """The recommended heuristic combination as a ready pipeline config.

    Five stages: full punctuation+number-stripped dedup, n-gram dedup on
    the target side, the 5-word length floor on both sides, LID with the
    0.7 probability threshold on both sides, and the alpha-word-ratio
    floor (source side for ratio_lo < 0.8, both sides otherwise).
    dedup_side accepts TARGET (default) or BOTH, the two best-performing
    assignments.
    """
    if not PRESET_NGRAM_RANGE[0] <= n <= PRESET_NGRAM_RANGE[1]:
        raise ConfigError(
            f"preset n-gram order must lie in "
            f"{PRESET_NGRAM_RANGE[0]}..{PRESET_NGRAM_RANGE[1]}, got {n}"
        )
    if not 0.0 < ratio_lo <= 1.0:
        raise ConfigError(f"ratio_lo must lie in (0, 1], got {ratio_lo}")
    ratio_side = Side.BOTH if ratio_lo >= SENT_RATIO_STRICT else Side.SOURCE
    stages: tuple[StageSpec, ...] = (
        DedupSpec(norm=NormMode.STRIP_PUNCT_NUMS, ngram=None, side=dedup_side),
        DedupSpec(norm=NormMode.IDENTITY, ngram=n, side=Side.TARGET),
        LengthSpec(min_words=MIN_WORDS_DEFAULT, side=Side.BOTH),
        LidSpec(
            expected_source=language_pair.source_lang,
            expected_target=language_pair.target_lang,
            min_prob=LID_PROB_THRESHOLD,
            side=Side.BOTH,
        ),
        RatioSpec(kind=RatioKind.SENT_W_RATIO, lo=ratio_lo, hi=None, side=ratio_side),
    )
    return PipelineConfig(language_pair=language_pair, stages=stages, ranking=ranking)
