import random
from fractions import Fraction

import oracle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdcurate.corpus import SentencePair, Side
from pdcurate.errors import DataError, PredictorError
from pdcurate.lid import (
    LidPrediction,
    TablePredictor,
    export_predictions,
    load_prediction_table,
    load_predictions,
    script_predict,
)

import unicodedata

SINHALA = [
    chr(c) for c in range(0x0D80, 0x0E00) if unicodedata.category(chr(c)) == "Lo"
]
TAMIL = [chr(c) for c in range(0x0B80, 0x0C00) if unicodedata.category(chr(c)) == "Lo"]
LATIN = list("abcdefghijklmnopqrstuvwxyz")


def test_pure_english():
    assert script_predict("hello") == LidPrediction("en", 1.0)


def test_mixed_sinhala_latin():
    pred = script_predict("මම hello")
    assert pred.label == "en"
    assert pred.prob == pytest.approx(5 / 7)


def test_no_letters_is_und():
    assert script_predict("123 !!") == LidPrediction("und", 0.0)
    assert script_predict("") == LidPrediction("und", 0.0)


def test_untracked_script_is_und():
    assert script_predict("αβγ δε").label == "und"


def test_tie_breaks_in_fixed_order():
    assert script_predict("ab මම").label == "en"  # 2 vs 2 -> en wins
    assert script_predict("මම கங").label == "si"  # si beats ta on ties


def test_digits_do_not_count_as_letters():
    pred = script_predict("hello 12345 999")
    assert pred == LidPrediction("en", 1.0)


def brute_force_counts(text):
    import unicodedata

    counts = {"en": 0, "si": 0, "ta": 0}
    total = 0
    for ch in text:
        if not ch.isalpha():
            continue
        total += 1
        cp = ord(ch)
        if 0x0D80 <= cp <= 0x0DFF:
            counts["si"] += 1
        elif 0x0B80 <= cp <= 0x0BFF:
            counts["ta"] += 1
        elif (
            0x41 <= cp <= 0x5A
            or 0x61 <= cp <= 0x7A
            or 0xC0 <= cp <= 0xFF
            or 0x100 <= cp <= 0x24F
            or 0x1E00 <= cp <= 0x1EFF
        ):
            counts["en"] += 1
    return counts, total


def test_prob_matches_exact_rational_recount():
    rng = random.Random(123)
    alphabet = SINHALA + TAMIL + LATIN + list("0123456789 !?.")
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        pred = script_predict(text)
        counts, total = brute_force_counts(text)
        if total == 0 or max(counts.values()) == 0:
            assert pred == LidPrediction("und", 0.0)
        else:
            expected = max(counts.values())
            assert Fraction(pred.prob).limit_denominator(10**9) == Fraction(expected, total)
            assert counts[pred.label] == expected


@given(st.text(alphabet=st.sampled_from(["a", "b", "ම", "ක", "க", "α", "1", " "]), max_size=8))
def test_label_is_the_first_majority_script_in_tie_order(text):
    # few letters per script, so ties (en < si < ta) and und come up often
    counts, total = brute_force_counts(text)
    best = max(counts.values())
    if best == 0:
        assert script_predict(text) == LidPrediction("und", 0.0)
    else:
        label = next(lang for lang in ("en", "si", "ta") if counts[lang] == best)
        assert script_predict(text) == LidPrediction(label, best / total)


@given(st.text(alphabet=st.sampled_from(SINHALA), min_size=1))
def test_pure_sinhala_is_certain(text):
    assert script_predict(text) == LidPrediction("si", 1.0)


@given(st.text(alphabet=st.sampled_from(TAMIL), min_size=1))
def test_pure_tamil_is_certain(text):
    assert script_predict(text) == LidPrediction("ta", 1.0)


@given(st.text(alphabet=st.sampled_from(LATIN), min_size=1))
def test_pure_latin_is_certain(text):
    assert script_predict(text) == LidPrediction("en", 1.0)


@given(st.one_of(st.text(), st.text(st.sampled_from(SINHALA[:5] + TAMIL[:5] + list("aZé\u1e00ɏ්́ி1 Ω\U0001d400")))))
def test_script_predict_gives_the_oracles_label(text):
    assert script_predict(text) == LidPrediction(*oracle.script_label(text))


# ---------------------------------------------------------------- tables


def test_load_predictions_lookup(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("0\ten\t0.99\n1\tsi\t0.5\n")
    predictor = load_predictions(path)
    assert predictor.predict("ignored", pair_id=0, side=Side.SOURCE) == LidPrediction("en", 0.99)
    assert predictor.predict("ignored", pair_id=1, side=Side.TARGET) == LidPrediction("si", 0.5)


def test_load_predictions_missing_id_fails(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("0\ten\t0.99\n")
    predictor = load_predictions(path)
    with pytest.raises(PredictorError):
        predictor.predict("x", pair_id=7, side=Side.SOURCE)


def test_load_predictions_validates_prob(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("0\ten\t1.5\n")
    with pytest.raises(DataError, match="line 1"):
        load_predictions(path)


def test_load_predictions_malformed_line(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("0\ten\t0.9\nbroken line\n")
    with pytest.raises(DataError, match="line 2"):
        load_predictions(path)


def test_per_side_tables(tmp_path):
    src = tmp_path / "src.tsv"
    tgt = tmp_path / "tgt.tsv"
    src.write_text("0\ten\t0.9\n")
    tgt.write_text("0\tsi\t0.8\n")
    predictor = TablePredictor(
        source=load_prediction_table(src), target=load_prediction_table(tgt)
    )
    assert predictor.predict("x", pair_id=0, side=Side.SOURCE).label == "en"
    assert predictor.predict("x", pair_id=0, side=Side.TARGET).label == "si"


def test_export_import_round_trip(tmp_path):
    rng = random.Random(77)
    pairs = []
    for i in range(500):
        script = rng.choice([SINHALA, TAMIL, LATIN])
        text = " ".join(
            "".join(rng.choice(script) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 8))
        )
        pairs.append(SentencePair(i, text, text[::-1]))
    out = tmp_path / "exported.tsv"
    count = export_predictions(pairs, Side.SOURCE, out)
    assert count == len(pairs)
    reloaded = load_predictions(out)
    for pair in pairs:
        expected = script_predict(pair.source)
        assert reloaded.predict("", pair_id=pair.id, side=Side.SOURCE) == expected


def test_large_prediction_file_serves_all_ids(tmp_path):
    path = tmp_path / "big.tsv"
    with open(path, "w") as out:
        for i in range(100_000):
            out.write(f"{i}\ten\t0.{i % 10}\n")
    predictor = load_predictions(path)
    for pair_id in (0, 50_000, 99_999):
        assert predictor.predict("", pair_id=pair_id, side=Side.SOURCE).label == "en"
