"""Language identification: a Unicode-script detector plus file-backed tables.

The built-in detector classifies text into en/si/ta by counting letter
characters per script block, with the code-point classes and kernels of
``textnorm``:

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

``script_predict`` is a one-text call of the block kernel, and
``export_predictions`` (``curate lid``) classifies a block of texts at a
time.  So does ``filters.lid_keep`` for the script detector:
``ScriptPredictor`` and any subclass that keeps its ``predict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import _PIECE_PAIRS, PairBlock, SentencePair, Side, _LazyNumpy, as_blocks, atomic_write, read_side_file
from .errors import PredictorError
from .textnorm import _count_letters, _per_text

np = _LazyNumpy(globals())

TIE_ORDER = ("en", "si", "ta")
SCRIPT_LANGS = frozenset(TIE_ORDER)
_LABELS = (*TIE_ORDER, "und")  # the detector's labels, by the code _script_labels gives them


@dataclass(frozen=True, slots=True)
class LidPrediction:
    """A predicted language label with its probability."""

    label: str
    prob: float

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prediction probability {self.prob} outside [0, 1]")


def _script_labels(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each text's majority letter script as its code in _LABELS, and that script's share of its letters.

    Ties break in the fixed order en < si < ta; a text with no letter in
    a tracked script is ``und`` with probability 0.
    """
    letters, *scripts = _per_text(texts, _count_letters, 4)
    best = np.max(scripts, axis=0)
    labels = np.argmax(scripts, axis=0)  # the first of tied scripts, as in TIE_ORDER
    labels[best == 0] = _LABELS.index("und")
    return labels, np.divide(best, letters, out=np.zeros(len(texts)), where=best > 0)


def script_predict(text: str) -> LidPrediction:
    """Classify text by majority letter script: ``_script_labels`` of one text.

    prob is the fraction of letters belonging to the majority script.
    Ties break in the fixed order en < si < ta.
    """
    (label,), (prob,) = (array.tolist() for array in _script_labels([text]))
    return LidPrediction(_LABELS[label], prob)


class LidPredictor:
    """Interface: deterministic prediction for one side of one pair."""

    def predict(self, text: str, pair_id: int | None = None, side: Side | None = None) -> LidPrediction:
        raise NotImplementedError


class ScriptPredictor(LidPredictor):
    """Built-in en/si/ta detector; ignores pair id and side context."""

    def predict(self, text: str, pair_id: int | None = None, side: Side | None = None) -> LidPrediction:
        return script_predict(text)


def _is_script_detector(predictor: LidPredictor | None) -> bool:
    """True for None, and for a predictor whose labels ``_script_labels`` gives a block at a time."""
    return predictor is None or type(predictor).predict is ScriptPredictor.predict


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


def export_predictions(pairs: Iterable[SentencePair] | Iterable[PairBlock], side: Side, path: str | Path) -> int:
    """Write the script detector's predictions for one side of a corpus to the prediction TSV.

    pairs are SentencePairs or ``PairBlock``s; ``_PIECE_PAIRS`` texts are
    classified at a time.  Probabilities use shortest round-tripping
    float repr, so exporting and reloading reproduces identical
    predictions.
    """
    if side is Side.BOTH:
        raise ValueError("export one side at a time (source or target)")
    count = 0
    with atomic_write(path) as out:
        for block in as_blocks(pairs, _PIECE_PAIRS):
            texts = block.sources if side is Side.SOURCE else block.targets
            for low in range(0, len(block), _PIECE_PAIRS):
                labels, probs = _script_labels(texts[low : low + _PIECE_PAIRS])
                ids = block.ids[low : low + _PIECE_PAIRS].tolist()
                rows = zip(ids, map(_LABELS.__getitem__, labels.tolist()), probs.tolist())
                out.write("".join(f"{pair_id}\t{label}\t{prob!r}\n" for pair_id, label, prob in rows))
            count += len(block)
            del block
    return count
