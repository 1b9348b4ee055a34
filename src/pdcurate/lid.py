"""Language identification: a Unicode-script detector plus file-backed tables.

The built-in detector classifies text into en/si/ta by counting letter
characters per script block:

* Sinhala  U+0D80 - U+0DFF
* Tamil    U+0B80 - U+0BFF
* Latin    basic + supplement + extended blocks

The three scripts are disjoint, so script frequency is exact for the
supported languages and keeps a whole curation run hermetic.  Learned
LID models are not reimplemented; their per-sentence predictions can be
exported to a TSV (``id<TAB>label<TAB>prob``) and served by a
lookup-backed predictor instead.

Text with no letters at all, or letters only outside the three tracked
scripts, is labeled ``und`` with probability 0; ``und`` never matches an
expected language, so such sentences always fail LID filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import SentencePair, Side, atomic_write, read_side_file
from .errors import PredictorError
from .textnorm import LazyTranslateTable

# letters are mapped to one marker char per script so counting runs at
# C speed inside str.translate / str.count
_MARK_LATIN = "L"
_MARK_SINHALA = "S"
_MARK_TAMIL = "T"
_MARK_OTHER = "O"

_LATIN_BLOCKS = (
    (0x0041, 0x005A),
    (0x0061, 0x007A),
    (0x00C0, 0x00FF),
    (0x0100, 0x024F),
    (0x1E00, 0x1EFF),
)
_SINHALA_BLOCK = (0x0D80, 0x0DFF)
_TAMIL_BLOCK = (0x0B80, 0x0BFF)

TIE_ORDER = ("en", "si", "ta")
SCRIPT_LANGS = frozenset(TIE_ORDER)


def _script_mark(codepoint: int) -> str | None:
    if not chr(codepoint).isalpha():
        return None
    if any(lo <= codepoint <= hi for lo, hi in _LATIN_BLOCKS):
        return _MARK_LATIN
    if _SINHALA_BLOCK[0] <= codepoint <= _SINHALA_BLOCK[1]:
        return _MARK_SINHALA
    if _TAMIL_BLOCK[0] <= codepoint <= _TAMIL_BLOCK[1]:
        return _MARK_TAMIL
    return _MARK_OTHER


_SCRIPT_MARKS = LazyTranslateTable(_script_mark)


@dataclass(frozen=True, slots=True)
class LidPrediction:
    """A predicted language label with its probability."""

    label: str
    prob: float

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prediction probability {self.prob} outside [0, 1]")


_UNDETERMINED = LidPrediction("und", 0.0)


def script_predict(text: str) -> LidPrediction:
    """Classify text by majority letter script.

    prob is the fraction of letters belonging to the majority script.
    Ties break in the fixed order en < si < ta.
    """
    marks = text.translate(_SCRIPT_MARKS)
    counts = [marks.count(_MARK_LATIN), marks.count(_MARK_SINHALA), marks.count(_MARK_TAMIL)]
    best = max(counts)
    if best == 0:
        # no letters, or none in a tracked script: no majority script
        return _UNDETERMINED
    return LidPrediction(TIE_ORDER[counts.index(best)], best / len(marks))


class LidPredictor:
    """Interface: deterministic prediction for one side of one pair."""

    def predict(self, text: str, pair_id: int | None = None, side: Side | None = None) -> LidPrediction:
        raise NotImplementedError


class ScriptPredictor(LidPredictor):
    """Built-in en/si/ta detector; ignores pair id and side context."""

    def predict(self, text: str, pair_id: int | None = None, side: Side | None = None) -> LidPrediction:
        return script_predict(text)


class TablePredictor(LidPredictor):
    """Serves precomputed predictions looked up by pair id.

    One table per side; one shared table is passed as both.  A missing
    id, or a checked side with no table, is a predictor failure; the
    filter layer fails such pairs closed.
    """

    def __init__(
        self,
        *,
        source: Mapping[int, LidPrediction] | None = None,
        target: Mapping[int, LidPrediction] | None = None,
    ):
        self._source = source
        self._target = target
        if source is None and target is None:
            raise ValueError("TablePredictor needs at least one prediction table")

    def predict(self, text: str, pair_id: int | None = None, side: Side | None = None) -> LidPrediction:
        if pair_id is None:
            raise PredictorError("table predictor needs a pair id")
        table = self._target if side is Side.TARGET else self._source
        if table is None:
            raise PredictorError(f"no prediction table loaded for side {side}")
        try:
            return table[pair_id]
        except KeyError:
            raise PredictorError(f"no prediction for pair id {pair_id}") from None


def load_prediction_table(path: str | Path) -> dict[int, LidPrediction]:
    """Parse a ``id<TAB>label<TAB>prob`` TSV into an id-keyed table.

    When an id appears on more than one row, the last row wins.
    """
    parse_row = lambda fields: (int(fields[0]), LidPrediction(fields[1], float(fields[2])))
    return dict(read_side_file(path, 3, parse_row))


def load_predictions(path: str | Path) -> TablePredictor:
    """Load one prediction file; the table serves whichever side is checked."""
    table = load_prediction_table(path)
    return TablePredictor(source=table, target=table)


def export_predictions(pairs: Iterable[SentencePair], side: Side, path: str | Path) -> int:
    """Write the script detector's predictions for one side of a corpus to the prediction TSV.

    Probabilities use shortest round-tripping float repr, so exporting
    and reloading reproduces identical predictions.
    """
    if side is Side.BOTH:
        raise ValueError("export one side at a time (source or target)")
    count = 0
    with atomic_write(path) as out:
        for pair in pairs:
            text = pair.source if side is Side.SOURCE else pair.target
            pred = script_predict(text)
            out.write(f"{pair.id}\t{pred.label}\t{pred.prob!r}\n")
            count += 1
    return count
