"""Noise taxonomy labels, heuristic coverage and annotation agreement.

Nine categories describe sentence-pair quality.  Three count as correct:

* CC   perfect translation pair
* CN   near perfect (minor spelling/punctuation issues)
* CB   full sentence but low-quality (boilerplate) translation

and six as errors:

* CS   correct but short (fewer than 5 words on a side)
* CCN  perfect/near-perfect pair whose overlap is dominated (>30%) by
       non-translatable content: numbers, acronyms, URLs
* UN   untranslated: one side copied (>30%) from its counterpart
* X    both sides valid language but semantically unrelated
* WL   a side is not in the expected language
* NL   a side is not linguistic content at all

Annotation files are TSV ``pair_id<TAB>annotator_id<TAB>label``; labels
are case-insensitive on read and uppercase on write.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import atomic_write, read_side_file
from .errors import DataError


class NoiseLabel(Enum):
    """One of the nine taxonomy categories."""

    CC = "CC"
    CN = "CN"
    CB = "CB"
    CS = "CS"
    CCN = "CCN"
    UN = "UN"
    X = "X"
    WL = "WL"
    NL = "NL"

    @classmethod
    def _missing_(cls, value):
        if isinstance(value, str):
            member = cls.__members__.get(value.strip().upper())
            if member is not None:
                return member
        return None

    @property
    def code(self) -> str:
        return self.value

    @property
    def is_correct(self) -> bool:
        return self in CORRECT_LABELS


CORRECT_LABELS = (NoiseLabel.CC, NoiseLabel.CN, NoiseLabel.CB)
ERROR_LABELS = (
    NoiseLabel.CS,
    NoiseLabel.CCN,
    NoiseLabel.UN,
    NoiseLabel.X,
    NoiseLabel.WL,
    NoiseLabel.NL,
)

# Tie-break priority when aggregating annotator votes: error categories
# first, in annotation-guideline order, then the correct categories.
FLOWCHART_PRIORITY = (
    NoiseLabel.NL,
    NoiseLabel.WL,
    NoiseLabel.UN,
    NoiseLabel.X,
    NoiseLabel.CCN,
    NoiseLabel.CS,
    NoiseLabel.CB,
    NoiseLabel.CN,
    NoiseLabel.CC,
)

# Which rule-based heuristic mitigates which noise category.  Dedup is
# absent by design: duplication is a corpus-level property, not a
# property of an individual pair.
_HEURISTIC_COVERAGE: dict[NoiseLabel, tuple[str, ...]] = {
    NoiseLabel.NL: ("lid", "sentwratio", "sentcratio"),
    NoiseLabel.WL: ("lid",),
    NoiseLabel.UN: ("lid",),
    NoiseLabel.CS: ("length",),
    NoiseLabel.CCN: ("lid", "sentwratio", "sentcratio"),
    NoiseLabel.X: ("stratio",),
    NoiseLabel.CB: ("stratio",),
    NoiseLabel.CC: (),
    NoiseLabel.CN: (),
}


def heuristic_coverage(label: NoiseLabel) -> tuple[str, ...]:
    """Heuristic kinds expected to remove pairs of the given category."""
    return _HEURISTIC_COVERAGE[label]


@dataclass(frozen=True, slots=True)
class Annotation:
    pair_id: int
    annotator_id: str
    label: NoiseLabel


@dataclass(frozen=True)
class AnnotationSet:
    """Labels assigned by annotators; one label per (pair, annotator)."""

    items: tuple[Annotation, ...]

    def __post_init__(self):
        seen = set()
        for item in self.items:
            key = (item.pair_id, item.annotator_id)
            if key in seen:
                raise ValueError(f"duplicate annotation for pair {key[0]} by {key[1]!r}")
            seen.add(key)

    def by_pair(self) -> dict[int, list[NoiseLabel]]:
        grouped: dict[int, list[NoiseLabel]] = defaultdict(list)
        for item in self.items:
            grouped[item.pair_id].append(item.label)
        return dict(grouped)


def read_annotations(path: str | Path) -> AnnotationSet:
    parse_row = lambda fields: Annotation(int(fields[0]), fields[1], NoiseLabel(fields[2]))
    items = tuple(read_side_file(path, 3, parse_row))
    try:
        return AnnotationSet(items)
    except ValueError as exc:  # one pair labeled twice by one annotator
        raise DataError(f"{path}: {exc}") from exc


def write_annotations(annotations: AnnotationSet, path: str | Path) -> None:
    with atomic_write(path) as out:
        for item in annotations.items:
            out.write(f"{item.pair_id}\t{item.annotator_id}\t{item.label.code}\n")


@dataclass(frozen=True)
class LabelDistribution:
    """Per-label percentages plus the correct/error aggregate split."""

    per_label: Mapping[NoiseLabel, float]
    correct_pct: float
    error_pct: float
    method: str


def _majority_label(labels: Iterable[NoiseLabel]) -> NoiseLabel:
    counts = Counter(labels)
    best_count = max(counts.values())
    for label in FLOWCHART_PRIORITY:
        if counts.get(label, 0) == best_count:
            return label
    raise AssertionError("unreachable: counts always hit a priority label")


def label_distribution(annotations: AnnotationSet, method: str = "majority") -> LabelDistribution:
    """Percentage of pairs per category.

    method "majority" aggregates each pair to its most-voted label
    (ties resolved by flowchart priority); method "mean" averages over
    individual annotations instead, weighting each vote equally.
    """
    grouped = annotations.by_pair()
    if not grouped:
        raise ValueError("empty annotation set")
    weights: Counter[NoiseLabel] = Counter()
    if method == "majority":
        for labels in grouped.values():
            weights[_majority_label(labels)] += 1
        total = len(grouped)
    elif method == "mean":
        for labels in grouped.values():
            for label in labels:
                weights[label] += 1
        total = sum(weights.values())
    else:
        raise ValueError(f"unknown aggregation method {method!r}")
    per_label = {label: 100.0 * weights.get(label, 0) / total for label in NoiseLabel}
    correct = sum(per_label[label] for label in CORRECT_LABELS)
    return LabelDistribution(
        per_label=per_label,
        correct_pct=correct,
        error_pct=100.0 - correct,
        method=method,
    )


def fleiss_kappa(annotations: AnnotationSet) -> float:
    """Fleiss' kappa over the annotation set.

    Requires at least two pairs and the same annotator count (>= 2) on
    every pair; a ragged set raises ValueError.  Returns 1.0 for the
    degenerate all-agree-on-one-category case where expected agreement
    is also 1.
    """
    grouped = annotations.by_pair()
    if len(grouped) < 2:
        raise ValueError("fleiss_kappa needs at least two annotated pairs")
    counts_per_pair = [Counter(labels) for labels in grouped.values()]
    n_raters = {sum(c.values()) for c in counts_per_pair}
    if len(n_raters) != 1:
        raise ValueError(f"ragged annotator counts per pair: {sorted(n_raters)}")
    n = n_raters.pop()
    if n < 2:
        raise ValueError("fleiss_kappa needs at least two annotators per pair")

    n_pairs = len(counts_per_pair)
    category_totals: Counter[NoiseLabel] = Counter()
    mean_agreement = 0.0
    for counts in counts_per_pair:
        category_totals.update(counts)
        mean_agreement += (sum(c * c for c in counts.values()) - n) / (n * (n - 1))
    mean_agreement /= n_pairs

    total_ratings = n_pairs * n
    expected = sum((c / total_ratings) ** 2 for c in category_totals.values())
    if expected == 1.0:
        return 1.0
    return (mean_agreement - expected) / (1.0 - expected)
