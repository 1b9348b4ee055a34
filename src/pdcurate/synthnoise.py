"""Deterministic synthetic corpora with planted, labeled noise.

Real web-mined noise audits need human annotators; this module builds
the machine-checkable stand-in.  A recipe fixes a seed, a total pair
count and per-category injection rates; generation then produces a
corpus where every pair carries its ground-truth label, so filter
precision and recall can be measured exactly.

Construction guarantees per category (clean pairs are 6-20 words of
pure-script vocabulary on both sides, aligned source-to-target):

* CS   one side truncated to at most 4 words
* WL   one side written in the counterpart language's vocabulary
* NL   one side replaced by digit/punctuation junk tokens
* UN   at least 30% of the target replaced by verbatim source tokens
* CCN  an identical number/URL span appended to both sides, exceeding
       30% of each side's characters
* X    target re-sampled independently of the source
* CN   a minor punctuation blemish appended to the target
* CB   a few tokens dropped from the target (no recall guarantee; the
       category has no mechanical definition)

Exact duplicates are planted separately: a copy of an earlier clean
pair, marked with the original's id.  Per-category counts follow a
floor rule: floor(rate * pair_count) pairs per requested category, the
remainder clean.  Identical recipes produce byte-identical corpora.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, Sequence

from . import pipeline as pl
from .corpus import LanguagePair, SentencePair, atomic_write, read_side_file
from .errors import ConfigError
from .pipeline import PipelineConfig, RemovalLog, run, stage_name
from .taxonomy import ERROR_LABELS, NoiseLabel

_INJECTION_ORDER = (
    NoiseLabel.CS,
    NoiseLabel.WL,
    NoiseLabel.NL,
    NoiseLabel.UN,
    NoiseLabel.CCN,
    NoiseLabel.X,
    NoiseLabel.CN,
    NoiseLabel.CB,
)

DUPLICATE_KEY = "DUP"


def builtin_vocabulary(lang: str) -> list[str]:
    """The pseudo-word list shipped for one of en/si/ta."""
    try:
        data = resources.files("pdcurate.data").joinpath(f"vocab_{lang}.txt").read_text("utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no built-in vocabulary for language {lang!r} (have en, si, ta)") from None
    return data.split()


@dataclass(frozen=True)
class NoiseRecipe:
    """Everything that determines a synthetic corpus."""

    seed: int
    pair_count: int
    rates: Mapping[NoiseLabel, float] = field(default_factory=dict)
    duplicate_rate: float = 0.0
    language_pair: LanguagePair = LanguagePair("en", "si")
    vocabularies: Mapping[str, Sequence[str]] | None = None

    def __post_init__(self):
        if not 1 <= self.pair_count <= sys.maxsize:  # a list holds at most sys.maxsize slots
            raise ConfigError(f"pair_count must lie in [1, {sys.maxsize}], got {self.pair_count}")
        for label, rate in self.rates.items():
            if label is NoiseLabel.CC:
                raise ConfigError("CC is the clean remainder; it takes no injection rate")
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"rate for {label.code} must lie in [0, 1], got {rate}")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ConfigError(f"duplicate_rate must lie in [0, 1], got {self.duplicate_rate}")
        total = sum(self.rates.values()) + self.duplicate_rate
        if total > 1.0 + 1e-9:
            raise ConfigError(f"injection rates sum to {total:.3f}, which exceeds 1")

    def vocabulary(self, lang: str) -> list[str]:
        if self.vocabularies is not None and lang in self.vocabularies:
            vocab = list(self.vocabularies[lang])
            if not vocab:
                raise ConfigError(f"vocabulary for {lang!r} is empty")
            for word in vocab:
                if word.split() != [word]:  # one token each, so every text fits on one line
                    raise ConfigError(f"vocabulary for {lang!r} has an empty word or one with whitespace: {word!r}")
            return vocab
        return builtin_vocabulary(lang)


def recipe_to_dict(recipe: NoiseRecipe) -> dict:
    data: dict = {
        "seed": recipe.seed,
        "pair_count": recipe.pair_count,
        "language_pair": str(recipe.language_pair),
        "rates": {label.code: rate for label, rate in recipe.rates.items()},
        "duplicate_rate": recipe.duplicate_rate,
    }
    if recipe.vocabularies is not None:
        data["vocabularies"] = {lang: list(words) for lang, words in recipe.vocabularies.items()}
    return data


_RECIPE_FIELDS = {
    "seed": pl._integer,
    "pair_count": pl._integer,
    "language_pair": pl._language_pair,
    "rates": lambda rates: {
        NoiseLabel(code): pl._number(rate) for code, rate in pl._mapping(rates).items()
    },
    "duplicate_rate": pl._number,
    "vocabularies": lambda vocabularies: {
        pl._text(lang): [pl._text(word) for word in pl._list(words)]
        for lang, words in pl._mapping(vocabularies).items()
    },
}


def recipe_from_dict(data: dict) -> NoiseRecipe:
    return pl._build(NoiseRecipe, "recipe", data, _RECIPE_FIELDS)


def load_recipe(path: str | Path) -> NoiseRecipe:
    return recipe_from_dict(pl._load_yaml(path, "recipe"))


@dataclass(frozen=True, slots=True)
class LabeledPair:
    """A sentence pair with its generation-time ground truth."""

    pair: SentencePair
    truth: NoiseLabel
    duplicate_of: int | None = None


class _Generator:
    def __init__(self, recipe: NoiseRecipe):
        self.rng = Random(recipe.seed)
        self.src_vocab = recipe.vocabulary(recipe.language_pair.source_lang)
        self.tgt_vocab = recipe.vocabulary(recipe.language_pair.target_lang)
        self.aligned = min(len(self.src_vocab), len(self.tgt_vocab))

    def _indices(self, count: int) -> list[int]:
        return [self.rng.randrange(self.aligned) for _ in range(count)]

    def clean_texts(self, min_words: int = 6, max_words: int = 20) -> tuple[str, str]:
        idxs = self._indices(self.rng.randint(min_words, max_words))
        source = " ".join(self.src_vocab[i] for i in idxs)
        target = " ".join(self.tgt_vocab[i] for i in idxs)
        return source, target

    def junk_token(self) -> str:
        style = self.rng.randrange(3)
        if style == 0:
            return str(self.rng.randrange(10_000_000))
        if style == 1:
            return f"{self.rng.randrange(100):03d}-{self.rng.randrange(10_000_000):07d}"
        return self.rng.choice(("!!", "%%", "##", "...", "??", "==", "++"))

    def overlap_span(self) -> str:
        return (
            f"www.site{self.rng.randrange(100_000)}.example "
            f"{self.rng.randrange(100):03d}-{self.rng.randrange(10_000_000):07d} "
            f"{self.rng.randrange(1_000_000_000)}"
        )

    def make(self, label: NoiseLabel) -> tuple[str, str]:
        rng = self.rng
        if label is NoiseLabel.CC:
            return self.clean_texts()
        if label is NoiseLabel.CS:
            source, target = self.clean_texts()
            short_idx = self._indices(rng.randint(1, 4))
            if rng.random() < 0.5:
                return " ".join(self.src_vocab[i] for i in short_idx), target
            return source, " ".join(self.tgt_vocab[i] for i in short_idx)
        if label is NoiseLabel.WL:
            source, target = self.clean_texts()
            wrong_idx = self._indices(rng.randint(6, 20))
            if rng.random() < 0.5:
                return (" ".join(self.tgt_vocab[i] for i in wrong_idx), target)
            return (source, " ".join(self.src_vocab[i] for i in wrong_idx))
        if label is NoiseLabel.NL:
            source, target = self.clean_texts()
            junk = " ".join(self.junk_token() for _ in range(rng.randint(6, 20)))
            return (junk, target) if rng.random() < 0.5 else (source, junk)
        if label is NoiseLabel.UN:
            idxs = self._indices(rng.randint(6, 20))
            src_words = [self.src_vocab[i] for i in idxs]
            tgt_words = [self.tgt_vocab[i] for i in idxs]
            copied = (len(idxs) + 1) // 2  # half the target copied verbatim
            tgt_words[-copied:] = src_words[-copied:]
            return " ".join(src_words), " ".join(tgt_words)
        if label is NoiseLabel.CCN:
            source, target = self.clean_texts(6, 10)
            span = self.overlap_span()
            # grow the shared span until it dominates both sides (>30% of chars)
            while len(span) <= 0.45 * (len(source) + len(span)) or len(span) <= 0.45 * (
                len(target) + len(span)
            ):
                span += f" {self.rng.randrange(1_000_000_000)}"
            return f"{source} {span}", f"{target} {span}"
        if label is NoiseLabel.X:
            source, _ = self.clean_texts()
            _, target = self.clean_texts()
            return source, target
        if label is NoiseLabel.CN:
            source, target = self.clean_texts()
            return source, target + " ,"
        if label is NoiseLabel.CB:
            idxs = self._indices(rng.randint(9, 20))
            keep = rng.randint(max(5, len(idxs) - 3), len(idxs) - 1)
            source = " ".join(self.src_vocab[i] for i in idxs)
            target = " ".join(self.tgt_vocab[i] for i in idxs[:keep])
            return source, target
        raise ConfigError(f"cannot synthesize label {label.code}")


def generate(recipe: NoiseRecipe) -> list[LabeledPair]:
    """Build the labeled corpus a recipe describes.

    Counts follow the floor rule; duplicates copy a random earlier clean
    pair and are guaranteed to appear after their original.
    """
    counts = {
        label: int(recipe.rates.get(label, 0.0) * recipe.pair_count)
        for label in _INJECTION_ORDER
    }
    dup_count = int(recipe.duplicate_rate * recipe.pair_count)
    noise_total = sum(counts.values()) + dup_count
    clean_count = recipe.pair_count - noise_total
    if dup_count > 0 and clean_count == 0:
        raise ConfigError("duplicates need at least one clean pair to copy")

    slots: list[object] = [NoiseLabel.CC] * clean_count
    for label in _INJECTION_ORDER:
        slots.extend([label] * counts[label])
    slots.extend([DUPLICATE_KEY] * dup_count)

    gen = _Generator(recipe)
    gen.rng.shuffle(slots)
    if dup_count > 0:
        # a duplicate must come after the clean pair it copies
        first_dup = slots.index(DUPLICATE_KEY)
        first_clean = slots.index(NoiseLabel.CC)
        if first_dup < first_clean:
            slots[first_dup], slots[first_clean] = slots[first_clean], slots[first_dup]

    out: list[LabeledPair] = []
    clean_seen: list[SentencePair] = []
    for pair_id, slot in enumerate(slots):
        if slot is DUPLICATE_KEY:
            original = clean_seen[gen.rng.randrange(len(clean_seen))]
            pair = SentencePair(pair_id, original.source, original.target)
            out.append(LabeledPair(pair, NoiseLabel.CC, duplicate_of=original.id))
            continue
        label: NoiseLabel = slot  # type: ignore[assignment]
        source, target = gen.make(label)
        pair = SentencePair(pair_id, source, target)
        out.append(LabeledPair(pair, label))
        if label is NoiseLabel.CC:
            clean_seen.append(pair)
    return out


def write_labeled_tsv(labeled: Iterable[LabeledPair], path: str | Path) -> None:
    """``id<TAB>truth<TAB>source<TAB>target`` per pair."""
    with atomic_write(path) as out:
        for item in labeled:
            out.write(f"{item.pair.id}\t{item.truth.code}\t{item.pair.source}\t{item.pair.target}\n")


def read_labeled_tsv(path: str | Path) -> list[LabeledPair]:
    parse_row = lambda f: LabeledPair(SentencePair(int(f[0]), f[2], f[3]), NoiseLabel(f[1]))
    return list(read_side_file(path, 4, parse_row))


@dataclass(frozen=True, slots=True)
class LabelScore:
    total: int
    removed: int

    @property
    def recall(self) -> float:
        return self.removed / self.total if self.total else 0.0


@dataclass
class FilterScore:
    """How a stage pipeline performed against planted ground truth."""

    per_label: dict[NoiseLabel, LabelScore]
    duplicates: LabelScore
    removed_total: int
    kept_total: int
    precision: float | None
    stage_removals: dict[str, Counter]
    before_pct: dict[NoiseLabel, float]
    after_pct: dict[NoiseLabel, float]

    def recall(self, label: NoiseLabel) -> float:
        return self.per_label[label].recall

    def to_text(self) -> str:
        lines = ["label   total  removed   recall  before%   after%"]
        for label in NoiseLabel:
            score = self.per_label[label]
            lines.append(
                f"{label.code:<6} {score.total:>6} {score.removed:>8} {score.recall:>8.3f} "
                f"{self.before_pct[label]:>7.2f} {self.after_pct[label]:>8.2f}"
            )
        lines.append(
            f"{DUPLICATE_KEY:<6} {self.duplicates.total:>6} {self.duplicates.removed:>8} "
            f"{self.duplicates.recall:>8.3f}"
        )
        if self.precision is not None:
            lines.append(f"removal precision: {self.precision:.3f}")
        lines.append(f"removed {self.removed_total}, kept {self.kept_total}")
        for stage, counter in self.stage_removals.items():
            parts = ", ".join(f"{key}={count}" for key, count in sorted(counter.items()))
            lines.append(f"  {stage}: {parts or 'nothing removed'}")
        return "\n".join(lines) + "\n"


def score_filters(
    labeled: Sequence[LabeledPair],
    config: PipelineConfig,
    *,
    predictor=None,
) -> FilterScore:
    """Run the config's stages over a labeled corpus and score removals.

    Recall per category counts a pair as caught when any stage removed
    it.  Removal precision counts planted duplicates as true noise;
    removals of genuine CC/CN/CB pairs count against it.  Ranking in the
    config is ignored: scoring targets the heuristics.
    """
    if not labeled:
        raise ValueError("score_filters needs a non-empty labeled corpus")
    removal_log: RemovalLog = []
    result = run(
        replace(config, ranking=None),
        [item.pair for item in labeled],
        removal_log=removal_log,
        predictor=predictor,
    )

    removed_stage_by_id: dict[int, str] = {}
    for pair_id, stage, _reason in removal_log:
        removed_stage_by_id.setdefault(pair_id, stage)

    keys = [DUPLICATE_KEY if item.duplicate_of is not None else item.truth.code for item in labeled]
    totals: Counter[str] = Counter(keys)
    removed: Counter[str] = Counter()
    kept_counts: Counter[NoiseLabel] = Counter()
    stage_removals: dict[str, Counter] = {
        stage_name(i, stage): Counter() for i, stage in enumerate(config.stages)
    }
    for item, key in zip(labeled, keys):
        stage = removed_stage_by_id.get(item.pair.id)
        if stage is None:
            kept_counts[item.truth] += 1
        else:
            removed[key] += 1
            stage_removals[stage][key] += 1

    noise_keys = (DUPLICATE_KEY, *(label.code for label in ERROR_LABELS))
    true_noise_removed = sum(removed[key] for key in noise_keys)
    removed_total = len(removed_stage_by_id)
    kept_total = len(result.pairs)
    n = len(labeled)
    before: Counter[NoiseLabel] = Counter(item.truth for item in labeled)

    return FilterScore(
        per_label={label: LabelScore(totals[label.code], removed[label.code]) for label in NoiseLabel},
        duplicates=LabelScore(totals[DUPLICATE_KEY], removed[DUPLICATE_KEY]),
        removed_total=removed_total,
        kept_total=kept_total,
        precision=(true_noise_removed / removed_total) if removed_total else None,
        stage_removals=stage_removals,
        before_pct={label: 100.0 * before.get(label, 0) / n for label in NoiseLabel},
        after_pct={
            label: (100.0 * kept_counts.get(label, 0) / kept_total if kept_total else 0.0)
            for label in NoiseLabel
        },
    )
