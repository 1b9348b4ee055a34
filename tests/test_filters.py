import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pdcurate import textnorm
from pdcurate.corpus import SentencePair, Side
from pdcurate.errors import ConfigError, PredictorError
from pdcurate.filters import (
    STRATIO_BOUNDS,
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
    stratio_bounds_from_reference,
)
from pdcurate.lid import LidPrediction, LidPredictor, ScriptPredictor, TablePredictor
from pdcurate.textnorm import NormMode, normalize_texts, normalized_texts


def pair(source, target="target words here right now", pair_id=0):
    return SentencePair(pair_id, source, target)


# ---------------------------------------------------------------- length


def test_length_exactly_at_threshold_passes():
    assert length_pass(pair("a b c d e"), LengthSpec(min_words=5, side=Side.SOURCE))


def test_length_below_threshold_fails():
    assert not length_pass(pair("a b c d"), LengthSpec(min_words=5, side=Side.SOURCE))


def test_length_side_both_checks_both():
    p = SentencePair(0, "one two three four five", "a b c")
    assert not length_pass(p, LengthSpec(min_words=5, side=Side.BOTH))
    assert length_pass(p, LengthSpec(min_words=5, side=Side.SOURCE))
    assert not length_pass(p, LengthSpec(min_words=5, side=Side.TARGET))


def test_length_min_one_passes_any_nonempty():
    assert length_pass(pair("word"), LengthSpec(min_words=1, side=Side.SOURCE))
    assert not length_pass(pair(""), LengthSpec(min_words=1, side=Side.SOURCE))


def test_length_spec_validation():
    with pytest.raises(ConfigError):
        LengthSpec(min_words=0)


# ---------------------------------------------------------------- lid


EN_SI = LidSpec(expected_source="en", expected_target="si")


def test_lid_accepts_correct_languages():
    p = SentencePair(0, "hello good friend", "මම ගෙදර යමි")
    assert lid_pass(p, EN_SI, ScriptPredictor())


def test_lid_rejects_wrong_language():
    p = SentencePair(0, "මම ගෙදර යමි", "මම ගෙදර යමි")
    assert not lid_pass(p, EN_SI, ScriptPredictor())


def test_lid_threshold_rejects_mixed_script():
    # half English, half Sinhala on the source: majority en at prob ~0.5
    p = SentencePair(0, "hello එයාගෙ ගෙදරr", "මම ගෙදර යමි")
    spec = LidSpec(expected_source="en", expected_target="si", min_prob=0.7)
    plain = LidSpec(expected_source="en", expected_target="si")
    assert lid_pass(p, plain, ScriptPredictor())
    assert not lid_pass(p, spec, ScriptPredictor())


def test_lid_side_selection():
    p = SentencePair(0, "hello there", "hello there")
    assert lid_pass(p, LidSpec("en", "si", side=Side.SOURCE), ScriptPredictor())
    assert not lid_pass(p, LidSpec("en", "si", side=Side.TARGET), ScriptPredictor())
    assert not lid_pass(p, LidSpec("en", "si", side=Side.BOTH), ScriptPredictor())


class FailingPredictor(LidPredictor):
    def predict(self, text, pair_id=None, side=None):
        raise PredictorError("no prediction available")


def test_lid_predictor_failure_fails_closed_and_reports():
    failures = []
    p = pair("hello")
    verdict = lid_pass(p, EN_SI, FailingPredictor(), on_error=lambda *args: failures.append(args))
    assert verdict is False
    assert len(failures) == 1
    assert failures[0][0] is p


def test_lid_spec_validation():
    with pytest.raises(ConfigError):
        LidSpec("en", "si", min_prob=1.5)


# ---------------------------------------------------------------- ratio


def test_stratio_published_ensi_window():
    lo, hi = STRATIO_BOUNDS[("en", "si")]
    spec = RatioSpec(kind=RatioKind.ST_RATIO, lo=lo, hi=hi)
    ten = "w " * 10
    nine = "w " * 9
    five = "w " * 5
    assert ratio_pass(SentencePair(0, ten.strip(), nine.strip()), spec)  # 1.11
    assert not ratio_pass(SentencePair(0, ten.strip(), five.strip()), spec)  # 2.0


def test_stratio_zero_target_fails():
    spec = RatioSpec(kind=RatioKind.ST_RATIO, lo=0.5, hi=2.0)
    assert not ratio_pass(SentencePair(0, "words here", ""), spec)


def test_stratio_bounds_inclusive():
    spec = RatioSpec(kind=RatioKind.ST_RATIO, lo=0.5, hi=2.0)
    assert ratio_pass(SentencePair(0, "a", "a b"), spec)  # exactly 0.5
    assert ratio_pass(SentencePair(0, "a b", "a"), spec)  # exactly 2.0


def test_stratio_requires_hi():
    with pytest.raises(ConfigError):
        RatioSpec(kind=RatioKind.ST_RATIO, lo=0.5)


def test_sentwratio_example_thresholds():
    p = SentencePair(0, "hello world 123", "hello world 123")
    assert ratio_pass(p, RatioSpec(kind=RatioKind.SENT_W_RATIO, lo=0.6, side=Side.SOURCE))
    assert not ratio_pass(p, RatioSpec(kind=RatioKind.SENT_W_RATIO, lo=0.8, side=Side.SOURCE))


def test_sentcratio_uses_character_ratio():
    p = SentencePair(0, "ab 12", "clean words")
    # 2 alpha of 4 non-space chars = 0.5
    assert ratio_pass(p, RatioSpec(kind=RatioKind.SENT_C_RATIO, lo=0.5, side=Side.SOURCE))
    assert not ratio_pass(p, RatioSpec(kind=RatioKind.SENT_C_RATIO, lo=0.51, side=Side.SOURCE))


def test_sent_ratio_side_both_requires_all_sides():
    p = SentencePair(0, "clean words only", "junk 123 456 789")
    spec = RatioSpec(kind=RatioKind.SENT_W_RATIO, lo=0.6, side=Side.BOTH)
    assert not ratio_pass(p, spec)
    assert ratio_pass(p, RatioSpec(kind=RatioKind.SENT_W_RATIO, lo=0.6, side=Side.SOURCE))


def test_stratio_antisymmetric_under_swap():
    rng = random.Random(5)
    spec = RatioSpec(kind=RatioKind.ST_RATIO, lo=0.79, hi=1.39)
    inverted = RatioSpec(kind=RatioKind.ST_RATIO, lo=1 / 1.39, hi=1 / 0.79)
    for _ in range(200):
        src = "w " * rng.randint(1, 30)
        tgt = "w " * rng.randint(1, 30)
        p = SentencePair(0, src.strip(), tgt.strip())
        swapped = SentencePair(0, tgt.strip(), src.strip())
        assert ratio_pass(p, spec) == ratio_pass(swapped, inverted)


def test_filters_pure_and_order_independent():
    rng = random.Random(9)
    pairs = [
        SentencePair(i, "w " * rng.randint(1, 8), "v " * rng.randint(1, 8))
        for i in range(50)
    ]
    spec = LengthSpec(min_words=4, side=Side.BOTH)
    kept = {p.id for p in pairs if length_pass(p, spec)}
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    kept_shuffled = {p.id for p in shuffled if length_pass(p, spec)}
    assert kept == kept_shuffled


# ------------------------------------------------- stratio bound derivation


def test_bounds_zero_variance():
    assert stratio_bounds_from_reference([2, 4, 6], [2, 4, 6]) == (1.0, 1.0)


def test_bounds_hand_arithmetic():
    # ratios 0.5 and 1.5: mean 1.0, population stddev 0.5
    lo, hi = stratio_bounds_from_reference([1, 3], [2, 2])
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.5)


def test_bounds_recover_known_distribution():
    rng = np.random.default_rng(42)
    ratios = rng.normal(1.1, 0.25, size=1000)
    tgt = rng.integers(5, 40, size=1000)
    src = np.round(ratios * tgt).astype(int)
    keep = src > 0
    lo, hi = stratio_bounds_from_reference(src[keep].tolist(), tgt[keep].tolist())
    sample_ratios = src[keep] / tgt[keep]
    expected_lo = sample_ratios.mean() - sample_ratios.std()
    expected_hi = sample_ratios.mean() + sample_ratios.std()
    assert lo == pytest.approx(expected_lo, rel=1e-12)
    assert hi == pytest.approx(expected_hi, rel=1e-12)
    # and the analytic window is recovered to within a couple percent
    assert lo == pytest.approx(1.1 - 0.25, rel=0.10)
    assert hi == pytest.approx(1.1 + 0.25, rel=0.05)


def test_bounds_contract_violations():
    with pytest.raises(ValueError):
        stratio_bounds_from_reference([], [])
    with pytest.raises(ValueError):
        stratio_bounds_from_reference([1, 2], [3])
    with pytest.raises(ValueError):
        stratio_bounds_from_reference([1, 2], [3, 0])


# ------------------------------------------------- block functions


# every str.isspace kind; combining marks (acute, Sinhala and Tamil
# vowel signs and virama); astral letters; Greek; Latin from each
# tracked block; Sinhala and Tamil letters; digits (an Arabic-Indic
# one too), punctuation and a symbol
_CHARS = (
    list("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0       　")
    + list("්́ි்ி")
    + ["\U0001d400", "\U00010400"]
    + list("αβΩ")
    + list("abz\xc0\xffĀɏḀỿ")
    + list("අගදමර")
    + list("அமய")
    + list("09٣.,!-_$")
)
_texts = st.lists(st.sampled_from(_CHARS), max_size=12).map("".join)
_block_pairs = st.lists(st.tuples(_texts, _texts), max_size=20).map(
    lambda texts: [SentencePair(i, s, t) for i, (s, t) in enumerate(texts)]
)


def oracle_keeps(pairs, kind, side, tables=None, **params):
    """The oracle's verdict on each pair of a one-stage run, and its LID failure count."""
    rows = [(pair.id, pair.source, pair.target) for pair in pairs]
    result = oracle.run(rows, [{"kind": kind, "side": side.value, "params": params}], tables=tables)
    removed = {row[0] for row in result.removals}
    return [pair.id not in removed for pair in pairs], result.lid_failures


# prediction tables that miss some ids, each id's (label, prob)
_lid_table = st.dictionaries(
    st.integers(0, 19), st.tuples(st.sampled_from(["en", "si", "ta", "fr"]), st.sampled_from([0.5, 0.7, 0.95]))
)


@settings(max_examples=300, deadline=None)
@given(
    pairs=_block_pairs,
    side=st.sampled_from(list(Side)),
    chunk=st.sampled_from([1, 7, textnorm._CHUNK_CODEPOINTS]),
    min_words=st.integers(1, 4),
    lid=st.tuples(st.sampled_from(["en", "si", "ta", "und"]), st.sampled_from(["en", "si", "ta"])),
    min_prob=st.sampled_from([None, 0.5, 0.7]),
    kind=st.sampled_from(list(RatioKind)),
    lo=st.sampled_from([0.0, 0.5, 0.6, 0.8, 1.0]),
    tables=st.tuples(_lid_table, _lid_table),
)
def test_block_functions_match_the_per_pair_filters(
    pairs, side, chunk, min_words, lid, min_prob, kind, lo, tables
):
    # the block functions and the per-pair ones, one-pair calls of them, give the oracle's verdicts
    with mock.patch.object(textnorm, "_CHUNK_CODEPOINTS", chunk):
        spec = LengthSpec(min_words, side)
        expected, _ = oracle_keeps(pairs, "length", side, min_words=min_words)
        assert length_keep(pairs, spec).tolist() == [length_pass(p, spec) for p in pairs] == expected
        spec = LidSpec(*lid, min_prob=min_prob, side=side)
        params = dict(expected_source=lid[0], expected_target=lid[1], min_prob=min_prob)
        expected, _ = oracle_keeps(pairs, "lid", side, **params)
        predictor = ScriptPredictor()
        assert lid_keep(pairs, spec).tolist() == [lid_pass(p, spec, predictor) for p in pairs] == expected
        # a table that misses an id, and a predictor that always fails, fail the pair closed
        source, target = ({i: LidPrediction(*row) for i, row in table.items()} for table in tables)
        for predictor, oracle_tables in (
            (TablePredictor(source=source, target=target), dict(zip("st", tables))),
            (FailingPredictor(), {"s": None, "t": None}),
        ):
            expected, failures = oracle_keeps(pairs, "lid", side, oracle_tables, **params)
            block_failed, pair_failed = [], []
            keep = lid_keep(pairs, spec, predictor, lambda *args: block_failed.append(args[:2]))
            verdicts = [lid_pass(p, spec, predictor, lambda *args: pair_failed.append(args[:2])) for p in pairs]
            assert keep.tolist() == verdicts == expected
            # the block reports a side's failures before the next side's, so order by pair
            block_failed.sort(key=lambda failure: failure[0].id)
            assert block_failed == pair_failed and len(block_failed) == failures
        spec = RatioSpec(kind, lo, lo + 0.5 if kind is RatioKind.ST_RATIO else None, side)
        expected, _ = oracle_keeps(pairs, kind.value, side, lo=spec.lo, hi=spec.hi)
        assert ratio_keep(pairs, spec).tolist() == [ratio_pass(p, spec) for p in pairs] == expected


def test_lid_keep_asks_a_side_only_for_the_pairs_that_passed_the_side_before_it():
    class Recording(LidPredictor):
        def __init__(self):
            self.asked = []

        def predict(self, text, pair_id=None, side=None):
            self.asked.append((pair_id, side))
            if pair_id == 3:
                raise PredictorError("no prediction")
            return LidPrediction("en" if pair_id % 2 == 0 else "si", 0.5 if pair_id == 4 else 0.9)

    pairs = [SentencePair(i, f"source {i}", f"target {i}") for i in range(6)]
    predictor, failed = Recording(), []
    keep = lid_keep(pairs, LidSpec("en", "en", min_prob=0.7), predictor, lambda *args: failed.append(args[:2]))
    # 1 and 5 have the wrong label, 3 fails and 4 is below min_prob on the source side
    assert keep.tolist() == [True, False, True, False, False, False]
    assert predictor.asked == [(i, Side.SOURCE) for i in range(6)] + [(0, Side.TARGET), (2, Side.TARGET)]
    assert failed == [(pairs[3], Side.SOURCE)]


def test_block_functions_take_an_empty_block():
    assert length_keep([], LengthSpec()).tolist() == []
    assert lid_keep([], EN_SI).tolist() == []
    assert ratio_keep([], RatioSpec(RatioKind.ST_RATIO, 0.5, 2.0)).tolist() == []


@pytest.mark.parametrize(
    "keep, spec",
    [
        (length_keep, LengthSpec()),
        (lid_keep, LidSpec("en", "si", min_prob=0.7)),
        (ratio_keep, RatioSpec(RatioKind.SENT_W_RATIO, 0.6)),
        (ratio_keep, RatioSpec(RatioKind.SENT_C_RATIO, 0.6)),
    ],
    ids=["length", "lid", "sentwratio", "sentcratio"],
)
def test_a_filter_block_holds_a_chunk_of_code_points_not_the_block(keep, spec):
    # 2,048 texts of 5,000 code points each, 39 MiB as one uint32 array;
    # about 1.0 MiB was measured for each of these four kinds
    texts = ["abc de" * 833 + "xy" for _ in range(2_048)]
    pairs = [SentencePair(i, text, text) for i, text in enumerate(texts)]
    keep(pairs[:2], spec)  # numpy loads the code behind reduceat on first use
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        keep(pairs, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


# every str.isspace code point (all lie below U+3001); Nd digits of
# several scripts, astral too; P* and S*, with the underscore, currency
# and an astral emoji; combining marks; letters; a lone surrogate
_NORM_CHARS = (
    [chr(cp) for cp in range(0x3001) if chr(cp).isspace()]
    + list("09٣෦\U0001d7ce")
    + list(".,!-_«$€+\U0001f600")
    + list("්́ி")
    + list("abΩමத\U00010400")
    + ["\ud800"]
)
_norm_texts = st.lists(st.sampled_from(_NORM_CHARS), max_size=12).map("".join)


def decoded(texts, mode):
    """Each text as normalize_texts gives it, decoded from its chunk's code points."""
    out = [""] * len(texts)
    for at, codepoints, starts in normalize_texts(texts, mode):
        assert codepoints.dtype == np.uint32 and starts[0] == 0 and (np.diff(starts) > 0).all()
        text = str(codepoints.astype("<u4").tobytes(), "utf-32-le", "surrogatepass")
        for i, start, end in zip(at.tolist(), starts.tolist(), [*starts[1:].tolist(), len(text)]):
            out[i] = text[start:end]
    return out


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(_norm_texts, max_size=20),
    mode=st.sampled_from(list(NormMode)),
    chunk=st.sampled_from([1, 7, textnorm._CHUNK_CODEPOINTS]),
)
def test_normalize_texts_matches_normalize(texts, mode, chunk):
    # a text that normalizes to "" is in no chunk, so decodes as ""; the
    # strip modes collapse whitespace anyway, and IDENTITY collapses it here
    with mock.patch.object(textnorm, "_CHUNK_CODEPOINTS", chunk):
        assert decoded(texts, mode) == [" ".join(oracle.strip(text, mode.value).split()) for text in texts]
        assert normalized_texts(texts, mode) == decoded(texts, mode)


@pytest.mark.parametrize("mode", [NormMode.STRIP_NUMS, NormMode.STRIP_PUNCT_NUMS])
def test_normalizing_a_block_holds_a_chunk_of_code_points_not_the_block(mode):
    # 2,048 texts of 5,000 code points each, 39 MiB as one uint32 array;
    # each normalizes to one word, so the peak is the normalizer's own
    texts = ["3 \t٣7" * 999 + "words" for _ in range(2_048)]
    decoded(texts[:2], mode)  # numpy loads the code behind reduceat on first use
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        assert decoded(texts, mode) == ["words"] * len(texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
