"""Cross-encoder disparity math and score-table reports.

Translation scores (e.g. ChrF++ points) are input data read from a TSV;
this module never produces them.  Disparity is the signed gap between a
reference encoder's score and another encoder's score on the same
setup.  The reduction percentage compares a heuristic's disparity to
the baseline disparity and is deliberately unclamped: values above 100%
(the heuristic flipped the gap) and below 0% (the gap widened) both
carry meaning.

Score TSV format: ``corpus<TAB>pair<TAB>model<TAB>heuristic<TAB>score``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import atomic_write, read_side_file
from .errors import DataError

ScoreKey = tuple[str, str, str, str]  # (corpus, language pair, model, heuristic)


@dataclass(frozen=True)
class ScoreTable:
    """Evaluation scores keyed by (corpus, pair, model, heuristic)."""

    rows: Mapping[ScoreKey, float]

    def __post_init__(self):
        for key, score in self.rows.items():
            if not math.isfinite(score):
                raise ValueError(f"non-finite score for {key}: {score}")

    def score(self, corpus: str, pair: str, model: str, heuristic: str) -> float:
        try:
            return self.rows[(corpus, pair, model, heuristic)]
        except KeyError:
            raise KeyError(f"no score for {(corpus, pair, model, heuristic)}") from None

    def models(self) -> list[str]:
        return sorted({key[2] for key in self.rows})

    def heuristics(self) -> list[str]:
        return sorted({key[3] for key in self.rows})

    def groups(self) -> list[tuple[str, str]]:
        return sorted({(key[0], key[1]) for key in self.rows})


def read_score_table(path: str | Path) -> ScoreTable:
    """Read a score TSV; lines starting with ``#`` are comments."""
    rows: dict[ScoreKey, float] = {}

    def add_row(fields: list[str]) -> None:
        key = (fields[0], fields[1], fields[2], fields[3])
        if key in rows:
            raise ValueError(f"duplicate key {key}")
        score = float(fields[4])
        if not math.isfinite(score):
            raise ValueError(f"non-finite score {fields[4]!r}")
        rows[key] = score

    for _ in read_side_file(path, 5, add_row, comments=True):
        pass
    return ScoreTable(rows)


def disparity(baseline_ref: float, baseline_other: float) -> float:
    """Signed score gap: reference minus other.  May be negative."""
    return baseline_ref - baseline_other


def disparity_reduction(delta_baseline: float, delta_heuristic: float) -> float | None:
    """How much of the baseline disparity a heuristic removed, in percent.

    Exceeds 100% when the heuristic flips the gap's sign, goes negative
    when the gap widened.  A zero baseline disparity makes the quantity
    undefined; None marks that case explicitly.
    """
    if delta_baseline == 0:
        return None
    return (delta_baseline - delta_heuristic) / delta_baseline * 100.0


def best_per_group(
    table: ScoreTable, group_by: Sequence[str] = ("corpus", "pair", "model")
) -> dict[tuple, tuple[str, float]]:
    """argmax score per group, reported as (heuristic tag, score).

    Ties resolve to the lexicographically smallest heuristic tag so the
    result is deterministic.
    """
    field_index = {"corpus": 0, "pair": 1, "model": 2, "heuristic": 3}
    unknown = [name for name in group_by if name not in field_index]
    if unknown:
        raise ValueError(f"unknown group fields: {unknown}")
    if not table.rows:
        raise ValueError("empty score table")
    best: dict[tuple, tuple[str, float]] = {}
    for key in sorted(table.rows):
        group = tuple(key[field_index[name]] for name in group_by)
        heuristic, score = key[3], table.rows[key]
        current = best.get(group)
        if current is None or score > current[1]:
            best[group] = (heuristic, score)
    return best


@dataclass(frozen=True, slots=True)
class DisparityRow:
    corpus: str
    pair: str
    model: str
    heuristic: str
    delta: float
    reduction_pct: float | None


def disparity_report(
    table: ScoreTable,
    reference_model: str,
    baseline_tag: str = "baseline",
) -> list[DisparityRow]:
    """Per-heuristic disparity of every model against the reference.

    For each (corpus, pair, model != reference): the baseline row holds
    the baseline disparity; each heuristic row holds its disparity and
    the reduction percentage relative to baseline.  Heuristic tags are
    used as-is; feed tags pre-aggregated with best_per_group when a
    coarser grouping is wanted.
    """
    rows: list[DisparityRow] = []
    for corpus, pair in table.groups():
        keys = [key for key in table.rows if key[:2] == (corpus, pair)]
        heuristics = sorted({key[3] for key in keys})
        models = sorted({key[2] for key in keys})
        if baseline_tag not in heuristics:
            raise DataError(
                f"no {baseline_tag!r} scores for {corpus}/{pair}; cannot anchor reductions"
            )
        if reference_model not in models:
            raise DataError(f"no scores for reference model {reference_model!r} in {corpus}/{pair}")
        for model in models:
            if model == reference_model:
                continue
            base_delta = disparity(
                table.score(corpus, pair, reference_model, baseline_tag),
                table.score(corpus, pair, model, baseline_tag),
            )
            rows.append(DisparityRow(corpus, pair, model, baseline_tag, base_delta, None))
            for heuristic in heuristics:
                if heuristic == baseline_tag:
                    continue
                try:
                    delta = disparity(
                        table.score(corpus, pair, reference_model, heuristic),
                        table.score(corpus, pair, model, heuristic),
                    )
                except KeyError:
                    continue  # heuristic not run for this model combination
                rows.append(
                    DisparityRow(
                        corpus,
                        pair,
                        model,
                        heuristic,
                        delta,
                        disparity_reduction(base_delta, delta),
                    )
                )
    return rows


def format_disparity_report(rows: Iterable[DisparityRow]) -> str:
    """Disparity rows as TSV text under a header line."""
    lines = ["corpus\tpair\tmodel\theuristic\tdelta\treduction_pct"]
    for row in rows:
        reduction = "NA" if row.reduction_pct is None else f"{row.reduction_pct:.2f}"
        lines.append(
            f"{row.corpus}\t{row.pair}\t{row.model}\t{row.heuristic}\t"
            f"{row.delta:.2f}\t{reduction}"
        )
    return "\n".join(lines) + "\n"


def write_disparity_report(rows: Iterable[DisparityRow], path: str | Path) -> None:
    with atomic_write(path) as out:
        out.write(format_disparity_report(rows))
