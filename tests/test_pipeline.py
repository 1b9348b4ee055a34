import itertools
import tempfile
import time
from collections import Counter
from dataclasses import fields
from enum import Enum
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pdcurate import dedup, lid, pipeline
from pdcurate.corpus import LanguagePair, SentencePair, Side, compute_stats
from pdcurate.dedup import DedupSpec
from pdcurate.errors import ConfigError, DataError
from pdcurate.filters import LengthSpec, LidSpec, RatioKind, RatioSpec
from pdcurate.lid import LidPrediction, ScriptPredictor, TablePredictor
from pdcurate.pipeline import (
    LidPredictionFiles,
    PipelineConfig,
    RankingSpec,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
    parse_config,
    recommended_preset,
    run,
    stage_from_dict,
    stage_kind,
    stage_name,
)
from pdcurate.ranking import write_embeddings
from pdcurate.synthnoise import NoiseRecipe, generate, load_recipe, recipe_from_dict
from pdcurate.taxonomy import NoiseLabel
from pdcurate.textnorm import NormMode

EN_SI = LanguagePair("en", "si")


def labeled_corpus(**kwargs):
    defaults = dict(seed=5, pair_count=300, language_pair=EN_SI)
    defaults.update(kwargs)
    return generate(NoiseRecipe(**defaults))


# ---------------------------------------------------------------- preset


def test_preset_default_variant_structure():
    config = recommended_preset(EN_SI, n=5, ratio_lo=0.6)
    kinds = [type(stage).__name__ for stage in config.stages]
    assert kinds == ["DedupSpec", "DedupSpec", "LengthSpec", "LidSpec", "RatioSpec"]
    full_dedup, ngram_dedup, length, lid, ratio = config.stages
    assert full_dedup.norm is NormMode.STRIP_PUNCT_NUMS and full_dedup.ngram is None
    assert full_dedup.side is Side.TARGET
    assert ngram_dedup.ngram == 5 and ngram_dedup.side is Side.TARGET
    assert length.min_words == 5 and length.side is Side.BOTH
    assert lid.min_prob == 0.7 and lid.side is Side.BOTH
    assert lid.expected_source == "en" and lid.expected_target == "si"
    assert ratio.kind is RatioKind.SENT_W_RATIO and ratio.lo == 0.6
    assert ratio.side is Side.SOURCE


def test_preset_strict_ratio_variant_checks_both_sides():
    config = recommended_preset(LanguagePair("en", "ta"), n=6, ratio_lo=0.8)
    ratio = config.stages[-1]
    assert ratio.lo == 0.8 and ratio.side is Side.BOTH


def test_preset_dedup_side_option():
    config = recommended_preset(EN_SI, dedup_side=Side.BOTH)
    assert config.stages[0].side is Side.BOTH


def test_preset_rejects_unsupported_n():
    with pytest.raises(ConfigError):
        recommended_preset(EN_SI, n=3)
    with pytest.raises(ConfigError):
        recommended_preset(EN_SI, n=8)


def test_preset_round_trips_through_yaml():
    config = recommended_preset(EN_SI, n=6, ratio_lo=0.8)
    assert parse_config(dump_config(config)) == config


def test_config_round_trip_with_ranking(tmp_path):
    config = recommended_preset(
        EN_SI, ranking=RankingSpec("src.bin", "tgt.bin", 100_000)
    )
    path = tmp_path / "config.yaml"
    path.write_text(dump_config(config))
    assert load_config(path) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config("language_pair: en-si\nstges: []\n")
    with pytest.raises(ConfigError, match="unknown stage kind"):
        parse_config("language_pair: en-si\nstages:\n- kind: bogus\n")
    with pytest.raises(ConfigError, match="language_pair"):
        parse_config("stages: []\n")


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("language_pair: en-si\nstages:\n- {kind: dedup}\nstages: []\n", "stages", 4),
        ("language_pair: en-si\nstages:\n- {kind: length, side: st, side: s}\n", "side", 3),
    ],
    ids=["stages", "side"],
)
def test_config_rejects_a_repeated_key(tmp_path, text, key, line):
    # PyYAML alone keeps a repeated key's last value, so the first was silently ignored
    match = f"(?s)config is not valid YAML: .*found duplicate key '{key}'\n  in .*, line {line},"
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
    (tmp_path / "recipe.yaml").write_text("seed: 1\npair_count: 10\nrates: {CS: 0.5, CS: 0.1}\n")
    with pytest.raises(ConfigError, match="(?s)recipe is not valid YAML: .*found duplicate key 'CS'"):
        load_recipe(tmp_path / "recipe.yaml")


def test_the_repeated_key_check_spares_merged_keys_and_unhashable_keys():
    config = parse_config("language_pair: en-si\nstages:\n- {<<: {kind: length, side: st}, side: s}\n")
    assert config.stages[0].side is Side.SOURCE
    with pytest.raises(ConfigError, match="found unhashable key"):
        parse_config("language_pair: en-si\n? [a]\n: 1\n")


# ---------------------------------------------------------------- runs


def test_empty_stage_list_is_rank_only_baseline(tmp_path):
    labeled = labeled_corpus(pair_count=50)
    pairs = [item.pair for item in labeled]
    rng = np.random.default_rng(0)
    write_embeddings(rng.normal(size=(50, 6)).astype(np.float32), tmp_path / "s.bin")
    write_embeddings(rng.normal(size=(50, 6)).astype(np.float32), tmp_path / "t.bin")
    config = PipelineConfig(
        language_pair=EN_SI,
        stages=(),
        ranking=RankingSpec(str(tmp_path / "s.bin"), str(tmp_path / "t.bin"), 10),
    )
    result = run(config, pairs)
    assert len(result.pairs) == 10
    assert result.report.total.reduction_pct == 0.0
    assert result.ranked is not None
    scores = [entry.score for entry in result.ranked.entries]
    assert scores == sorted(scores, reverse=True)


def test_recommended_preset_removes_planted_noise():
    labeled = labeled_corpus(
        pair_count=400,
        rates={NoiseLabel.CS: 0.1, NoiseLabel.WL: 0.1, NoiseLabel.NL: 0.1},
        duplicate_rate=0.1,
    )
    config = recommended_preset(EN_SI)
    result = run(config, [item.pair for item in labeled])
    kept_ids = {pair.id for pair in result.pairs}
    for item in labeled:
        if item.truth in (NoiseLabel.CS, NoiseLabel.WL, NoiseLabel.NL):
            assert item.pair.id not in kept_ids
        if item.duplicate_of is not None:
            assert item.pair.id not in kept_ids


def test_run_is_deterministic():
    labeled = labeled_corpus(pair_count=300, rates={NoiseLabel.CS: 0.2})
    pairs = [item.pair for item in labeled]
    config = recommended_preset(EN_SI)
    first = run(config, pairs)
    second = run(config, pairs)
    assert first.pairs == second.pairs


def test_stage_bookkeeping_sums():
    labeled = labeled_corpus(
        pair_count=500, rates={NoiseLabel.CS: 0.1, NoiseLabel.NL: 0.1}, duplicate_rate=0.1
    )
    pairs = [item.pair for item in labeled]
    result = run(recommended_preset(EN_SI), pairs)
    report = result.report
    removed_per_stage = [
        stage.stats.pair_count - stage.stats.retained_count for stage in report.stages
    ]
    assert sum(removed_per_stage) == len(pairs) - len(result.pairs)
    assert report.total.pair_count == len(pairs)
    assert report.total.retained_count == len(result.pairs)
    retained = [stage.stats.retained_count for stage in report.stages]
    assert retained == sorted(retained, reverse=True)


def test_each_stage_is_charged_its_own_wall_time(monkeypatch):
    # the middle stage of three sleeps 20 ms per block; the others take about 1 ms a block
    pairs = [SentencePair(i, f"w{i} a b c d e", f"v{i} x y z u") for i in range(40)]
    stages = (
        DedupSpec(side=Side.BOTH),
        LengthSpec(min_words=5, side=Side.BOTH),
        RatioSpec(kind=RatioKind.SENT_W_RATIO, lo=0.6, hi=None, side=Side.SOURCE),
    )
    real_length_keep = pipeline.length_keep
    monkeypatch.setattr(pipeline, "length_keep", lambda *args: time.sleep(0.02) or real_length_keep(*args))
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", 8)
    report = run(PipelineConfig(language_pair=EN_SI, stages=stages), pairs).report
    slept = 0.02 * 5
    assert [stage.stats.retained_count for stage in report.stages] == [40, 40, 40]
    assert report.stages[1].wall_time_s >= slept
    assert report.stages[0].wall_time_s < slept and report.stages[2].wall_time_s < slept


def test_stateless_stage_permutation_keeps_same_set():
    labeled = labeled_corpus(
        pair_count=400, rates={NoiseLabel.CS: 0.15, NoiseLabel.NL: 0.15}
    )
    pairs = [item.pair for item in labeled]
    stages = [
        LengthSpec(5, Side.BOTH),
        LidSpec("en", "si", min_prob=0.7, side=Side.BOTH),
        RatioSpec(RatioKind.SENT_W_RATIO, 0.6, side=Side.SOURCE),
    ]
    kept_sets = []
    for perm in itertools.permutations(stages):
        config = PipelineConfig(language_pair=EN_SI, stages=tuple(perm))
        kept_sets.append({pair.id for pair in run(config, pairs).pairs})
    assert all(kept == kept_sets[0] for kept in kept_sets)


def test_output_is_subset_of_input():
    labeled = labeled_corpus(pair_count=300, rates={NoiseLabel.UN: 0.2})
    pairs = [item.pair for item in labeled]
    result = run(recommended_preset(EN_SI), pairs)
    original = {pair.id: pair for pair in pairs}
    for pair in result.pairs:
        assert original[pair.id] == pair


def test_script_lid_rejects_unsupported_language():
    config = PipelineConfig(
        language_pair=LanguagePair("en", "fr"),
        stages=(LidSpec("en", "fr", min_prob=0.7, side=Side.BOTH),),
    )
    pairs = [SentencePair(0, "hello", "bonjour")]
    with pytest.raises(ConfigError, match="fr"):
        run(config, pairs)
    with pytest.raises(ConfigError, match="fr"):
        run(config, pairs, predictor=type("Sub", (ScriptPredictor,), {})())

    # a subclass with its own predict is asked text by text, so it may predict any language
    class French(ScriptPredictor):
        def predict(self, text, pair_id=None, side=None):
            return LidPrediction("en" if side is Side.SOURCE else "fr", 1.0)

    assert run(config, pairs, predictor=French()).pairs == pairs


def test_a_script_predictor_subclass_is_asked_pair_by_pair():
    # only the built-in detector itself is decided a block at a time
    class AlwaysSinhala(ScriptPredictor):
        def predict(self, text, pair_id=None, side=None):
            return LidPrediction("si", 1.0)

    pairs = [SentencePair(0, "hello there friend", "මම ගෙදර යමි")]
    config = PipelineConfig(language_pair=EN_SI, stages=(LidSpec("si", "si"),))
    assert run(config, pairs, predictor=AlwaysSinhala()).pairs == pairs
    assert run(config, pairs, predictor=ScriptPredictor()).pairs == []


def test_a_script_predictor_subclass_that_keeps_predict_decides_a_block_at_a_time(monkeypatch):
    class Sub(ScriptPredictor):
        pass

    def script_predict(text):
        raise AssertionError("asked text by text")

    monkeypatch.setattr(lid, "script_predict", script_predict)
    pairs = [SentencePair(0, "hello there friend", "මම ගෙදර යමි"), SentencePair(1, "hello", "hello")]
    config = PipelineConfig(language_pair=EN_SI, stages=(LidSpec("en", "si"),))
    assert run(config, pairs, predictor=Sub()).pairs == pairs[:1]


def test_table_predictor_allows_any_language(tmp_path):
    preds = tmp_path / "preds.tsv"
    preds.write_text("0\tfr\t0.99\n")
    config_text = (
        "language_pair: en-fr\n"
        "stages:\n"
        "- kind: lid\n"
        "  side: t\n"
        f"lid_predictions: {{target: {preds} }}\n"
    )
    result = run(parse_config(config_text), [SentencePair(0, "hello", "bonjour")])
    assert len(result.pairs) == 1


def test_fail_fast_on_missing_embeddings(tmp_path):
    config = PipelineConfig(
        language_pair=EN_SI,
        stages=(),
        ranking=RankingSpec(str(tmp_path / "missing.bin"), str(tmp_path / "missing2.bin"), 5),
    )
    with pytest.raises(DataError, match="not found"):
        run(config, [SentencePair(0, "a", "b")])


def test_ranking_uses_original_ids_after_filtering(tmp_path):
    # embeddings give pair 3 the best score; filtering must not shift rows
    pairs = [
        SentencePair(0, "one two three four five", "a b c d e"),
        SentencePair(1, "short", "a"),
        SentencePair(2, "one two three four five six", "a b c d e f"),
        SentencePair(3, "one two three four five six seven", "a b c d e f g"),
    ]
    src = np.array([[1, 0], [1, 0], [2, 0], [1, 0]], dtype=np.float32)
    tgt = np.array([[0, 1], [1, 0], [2, 0], [1, 0]], dtype=np.float32)
    write_embeddings(src, tmp_path / "s.bin")
    write_embeddings(tgt, tmp_path / "t.bin")
    config = PipelineConfig(
        language_pair=EN_SI,
        stages=(LengthSpec(5, Side.SOURCE),),
        ranking=RankingSpec(str(tmp_path / "s.bin"), str(tmp_path / "t.bin"), 3),
    )
    result = run(config, pairs)
    assert [pair.id for pair in result.pairs] == [2, 3, 0]


def test_top_k_overshoot_warns_and_returns_all(tmp_path):
    pairs = [SentencePair(i, f"src {i}", f"tgt {i}") for i in range(4)]
    rng = np.random.default_rng(8)
    write_embeddings(rng.normal(size=(4, 3)).astype(np.float32), tmp_path / "s.bin")
    write_embeddings(rng.normal(size=(4, 3)).astype(np.float32), tmp_path / "t.bin")
    config = PipelineConfig(
        language_pair=EN_SI,
        stages=(),
        ranking=RankingSpec(str(tmp_path / "s.bin"), str(tmp_path / "t.bin"), 99),
    )
    result = run(config, pairs)
    assert len(result.pairs) == 4
    assert any("top_k" in warning for warning in result.report.warnings)


@pytest.mark.parametrize("k", [3, 4])
def test_ranking_rejects_a_repeated_pair_id(tmp_path, k):
    # ids index embedding rows, so two pairs with id 2 would share one row
    pairs = [SentencePair(i, f"src {i}", f"tgt {i}") for i in (2, 1, 2, 0)]
    write_embeddings(np.eye(3, dtype=np.float32), tmp_path / "e.bin")
    emb = str(tmp_path / "e.bin")
    config = PipelineConfig(language_pair=EN_SI, ranking=RankingSpec(emb, emb, k))
    with pytest.raises(DataError, match="pair id 2 appears more than once"):
        run(config, pairs)


def test_ranking_rejects_a_pair_id_repeated_in_a_later_batch(tmp_path, monkeypatch):
    # batches of two survivors: id 2 is in the first batch and again in the
    # second, where it would score highest and enter the pool twice
    pairs = [SentencePair(i, f"src {i}", f"tgt {i}") for i in (2, 1, 2, 0)]
    write_embeddings(np.array([[1, 0], [1, 1], [1, 0]], dtype=np.float32), tmp_path / "s.bin")
    write_embeddings(np.array([[0, 1], [1, 0], [1, 0]], dtype=np.float32), tmp_path / "t.bin")
    config = PipelineConfig(
        language_pair=EN_SI, ranking=RankingSpec(str(tmp_path / "s.bin"), str(tmp_path / "t.bin"), 2)
    )
    monkeypatch.setattr(pipeline, "_RANK_BATCH", 2)
    with pytest.raises(DataError, match="pair id 2 appears more than once"):
        run(config, pairs)


def test_dedup_builds_removal_reasons_only_for_a_removal_log(monkeypatch):
    texts = ["a b c d e f", "a b c d e g", "x y z w v u", "a b c d e f"]
    pairs = [SentencePair(i, texts[i % 4], texts[i % 4] + f" {i // 4}") for i in range(40)]
    spec = DedupSpec(norm=NormMode.IDENTITY, ngram=5, side=Side.SOURCE)
    config = PipelineConfig(language_pair=EN_SI, stages=(spec,))
    expected = []
    log = lambda pair, stage, reason: expected.append((pair.id, stage, reason))
    kept_ids = [pair.id for pair in dedup.DedupStream(pairs, spec, on_removed=log, stage_name="0:" + spec.describe())]
    assert kept_ids == [0, 2] and len(expected) == 38

    logged = []
    assert [pair.id for pair in run(config, pairs, removal_log=logged).pairs] == kept_ids
    assert logged == expected

    def no_reason(*args):
        raise AssertionError("a removal reason was built for no removal log")

    monkeypatch.setattr(dedup.DedupStream, "_reasons", no_reason)
    assert [pair.id for pair in run(config, pairs).pairs] == kept_ids


@pytest.mark.parametrize("one_shot", [False, True])
def test_a_ranked_run_without_a_sink_reads_its_input_again(tmp_path, one_shot):
    rng = np.random.default_rng(3)
    n = 300
    for name in ("s.bin", "t.bin"):
        write_embeddings(rng.normal(size=(n, 4)).astype(np.float32), tmp_path / name)
    pairs = [SentencePair(i, f"s{i} " * (i % 7), f"t{i}") for i in range(n)]
    config = PipelineConfig(
        language_pair=EN_SI,
        stages=(DedupSpec(norm=NormMode.IDENTITY, ngram=None, side=Side.SOURCE),),
        ranking=RankingSpec(str(tmp_path / "s.bin"), str(tmp_path / "t.bin"), 25),
    )
    result = run(config, iter(pairs) if one_shot else pairs)
    assert [pair.id for pair in result.pairs] == result.ranked.ids()
    assert result.pairs == [pairs[i] for i in result.ranked.ids()]

    sunk = []
    assert run(config, iter(pairs), sink=lambda *output: sunk.append(output)).pairs == []
    assert sunk == [(None, result.ranked)]


def test_removal_log_and_lid_failures(tmp_path):
    # a prediction table that only covers pair 0 makes pair 1 fail closed
    preds = tmp_path / "preds.tsv"
    preds.write_text("0\ten\t0.99\n")
    config_text = (
        "language_pair: en-si\n"
        "stages:\n"
        "- kind: lid\n"
        "  side: s\n"
        "  params: {min_prob: 0.7}\n"
        f"lid_predictions: {{source: {preds} }}\n"
    )
    config = parse_config(config_text)
    pairs = [SentencePair(0, "hello there", "x"), SentencePair(1, "hello again", "y")]
    removal_log = []
    result = run(config, pairs, removal_log=removal_log)
    assert [pair.id for pair in result.pairs] == [0]
    assert result.report.lid_failures == 1
    assert removal_log == [(1, "0:lid@s", "lid")]


@pytest.mark.parametrize(
    "given, side, missing",
    [("source", "t", "target"), ("source", "st", "target"), ("target", "s", "source"), ("target", "st", "source")],
)
def test_a_lid_stage_checking_a_side_with_no_prediction_file_is_a_config_error(tmp_path, given, side, missing):
    # every pair would fail closed on that side, so the run could only remove them all;
    # with side t or s, the given file is unread too, but the side with no file is named first
    preds = tmp_path / "preds.tsv"
    preds.write_text("0\ten\t0.99\n")
    stages = (LengthSpec(1), stage_from_dict({"kind": "lid", "side": side}, EN_SI))
    config = PipelineConfig(EN_SI, stages, lid_predictions=LidPredictionFiles(**{given: str(preds)}))
    message = f"stage 1:lid@{side} checks the {missing} side, but lid_predictions gives no {missing} file"
    with pytest.raises(ConfigError, match=message):
        run(config, [SentencePair(0, "hello there", "x")])


@pytest.mark.parametrize(
    "given, side, message",
    [
        (["path"], None, "lid_predictions gives a file, but no stage is a LID stage"),
        (["source"], None, "lid_predictions gives a file, but no stage is a LID stage"),
        (["source", "target"], "s", "lid_predictions gives a target file, but no LID stage checks the target side"),
        (["source", "target"], "t", "lid_predictions gives a source file, but no LID stage checks the source side"),
    ],
    ids=["path-and-no-lid-stage", "source-and-no-lid-stage", "unread-target", "unread-source"],
)
def test_a_prediction_file_that_no_lid_stage_reads_is_a_config_error(tmp_path, given, side, message):
    # the files do not parse, so loading one would be a DataError
    for key in given:
        (tmp_path / key).write_text("0\ten\t0.99\textra\n")
    stages = (LengthSpec(1),) + (() if side is None else (stage_from_dict({"kind": "lid", "side": side}, EN_SI),))
    files = LidPredictionFiles(**{key: str(tmp_path / key) for key in given})
    with pytest.raises(ConfigError) as err:
        run(PipelineConfig(EN_SI, stages, lid_predictions=files), [SentencePair(0, "hello there", "x")])
    assert str(err.value) == message


def test_a_library_run_warns_of_a_stage_that_removes_every_pair_it_is_given():
    pairs = [SentencePair(i, f"short {i}", f"text {i}") for i in range(3)]
    stages = (LengthSpec(1), LengthSpec(3), LengthSpec(5))  # the last stage is given no pair
    report = run(PipelineConfig(EN_SI, stages), pairs).report
    assert report.warnings == ["stage 1:length@st removed all 3 pairs it was given"]


def test_spilled_removal_rows_round_trip_any_text():
    texts = ["tab\there", "line\nfeed", "nul \x00 and \u2028 separator", "plain"]
    pairs = [SentencePair(i, texts[i % 4], texts[i % 4]) for i in range(14)]
    config = PipelineConfig(language_pair=EN_SI, stages=(DedupSpec(NormMode.IDENTITY, None, Side.SOURCE),))
    held, spilled = [], []
    run(config, pairs, removal_log=held)
    with mock.patch.object(pipeline, "_SPILL_ROWS", 3):
        run(config, pairs, removal_log=spilled)
    assert spilled == held
    assert [pair_id for pair_id, _, _ in held] == list(range(4, 14))
    assert {reason for _, _, reason in held} >= {"tab\there", "nul \x00 and \u2028 separator"}


def _spilling_dedup(monkeypatch) -> tuple[PipelineConfig, list[SentencePair], list]:
    """A one-stage config, ten pairs whose last nine it removes in three spilled blocks, and the spills."""
    monkeypatch.setattr(pipeline, "_SPILL_ROWS", 3)
    spills, make = [], tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args: spills.append(make(*args)) or spills[-1])
    config = PipelineConfig(language_pair=EN_SI, stages=(DedupSpec(NormMode.IDENTITY, None, Side.SOURCE),))
    return config, [SentencePair(i, "same", f"t{i}") for i in range(10)], spills


def test_removal_rows_are_read_once_and_closed_when_extend_returns(monkeypatch):
    config, pairs, spills = _spilling_dedup(monkeypatch)

    class Keeper:
        def extend(self, rows):
            self.rows, self.count, self.first = rows, len(rows), list(rows)
            with pytest.raises(ValueError, match="read once"):
                list(rows)

    keeper = Keeper()
    run(config, pairs, removal_log=keeper)
    assert keeper.count == 9 and [row[0] for row in keeper.first] == list(range(1, 10))
    assert len(spills) == 1 and spills[0].closed
    with pytest.raises(ValueError, match="read once"):  # run closed the rows
        list(keeper.rows)


@pytest.mark.parametrize("reads", [0, 4])
def test_removal_rows_are_closed_when_extend_raises(monkeypatch, reads):
    config, pairs, spills = _spilling_dedup(monkeypatch)

    class Failing:
        def extend(self, rows):
            self.rows = rows
            list(itertools.islice(rows, reads))
            raise OSError("the log's disk is full")

    failing = Failing()
    with pytest.raises(OSError, match="disk is full"):
        run(config, pairs, removal_log=failing)
    assert len(spills) == 1 and spills[0].closed
    with pytest.raises(ValueError, match="read once"):
        list(failing.rows)


def test_report_renders_both_formats():
    labeled = labeled_corpus(pair_count=100, rates={NoiseLabel.CS: 0.1})
    result = run(recommended_preset(EN_SI), [item.pair for item in labeled])
    text = result.report.to_text()
    tsv = result.report.to_tsv()
    assert "total" in text and "lid failures" in text
    assert tsv.startswith("section\tname\t")
    assert f"\t{len(labeled)}\t" in tsv


def test_both_report_formats_are_pinned():
    report = pipeline.RunReport(
        stages=[
            pipeline.StageReport("0:dedup[identity]@t", compute_stats(1000, 870), 1.25),
            pipeline.StageReport("1:length@st", compute_stats(870, 801), 0.0625),
        ],
        total=compute_stats(1000, 801),
        ranking=pipeline.RankingReport(requested_k=900, emitted=801, dim=8, zero_norm_count=2),
        lid_failures=3,
        warnings=["top_k 900 exceeds ranked corpus size 801; emitting everything"],
    )
    assert report.to_text() == (
        "stage                                    in          out    removed  reduction\n"
        "0:dedup[identity]@t                         1000        870        130    13.00%  (1.25s)\n"
        "1:length@st                                  870        801         69     7.93%  (0.06s)\n"
        "total                                       1000        801        199    19.90%\n"
        "ranking: top 900 of ranked corpus -> 801 pairs (dim 8, 2 zero-norm vectors)\n"
        "lid failures (failed closed): 3\n"
        "warning: top_k 900 exceeds ranked corpus size 801; emitting everything\n"
    )
    assert report.to_tsv() == (
        "section\tname\tin\tout\tremoved\treduction_pct\twall_time_s\n"
        "stage\t0:dedup[identity]@t\t1000\t870\t130\t13.00\t1.250\n"
        "stage\t1:length@st\t870\t801\t69\t7.93\t0.062\n"
        "total\t-\t1000\t801\t199\t19.90\t-\n"
        "ranking\ttop_k\t900\t801\t-\t-\t-\n"
        "ranking\tdim\t8\t-\t-\t-\t-\n"
        "ranking\tzero_norm\t2\t-\t-\t-\t-\n"
        "lid\tfailures\t3\t-\t-\t-\t-\n"
        "warning\ttop_k 900 exceeds ranked corpus size 801; emitting everything\t-\t-\t-\t-\t-\n"
    )


# ---------------------------------------------------------------- stage table


def test_config_round_trip_over_every_kind():
    data = {
        "language_pair": "en-si",
        "stages": [
            {"kind": "dedup", "side": "st", "params": {"norm": "nums", "ngram": 4}},
            {"kind": "dedup", "side": "t", "params": {"norm": "punctnums"}},
            {"kind": "length", "side": "s", "params": {"min_words": 3}},
            {"kind": "lid", "side": "t", "params": {"expected_target": "ta"}},
            {"kind": "lidthresh", "side": "st"},
            {"kind": "stratio", "params": {"lo": 0.79, "hi": 1.39}},
            {"kind": "sentwratio", "side": "s", "params": {"lo": 0.6}},
            {"kind": "sentcratio", "side": "t", "params": {"lo": 0.5}},
        ],
    }
    config = config_from_dict(data)
    assert config_from_dict(config_to_dict(config)) == config
    assert parse_config(dump_config(config)) == config
    kinds = [stage_kind(stage) for stage in config.stages]
    assert kinds == ["dedup", "dedup", "length", "lid", "lid", "stratio", "sentwratio", "sentcratio"]
    lidthresh = config.stages[4]
    assert lidthresh == LidSpec("en", "si", min_prob=0.7, side=Side.BOTH)
    assert config.stages[5].hi == 1.39


@pytest.mark.parametrize("kind", ["sentwratio", "sentcratio"])
def test_config_rejects_hi_on_floor_only_ratio(kind):
    text = f"language_pair: en-si\nstages:\n- {{kind: {kind}, params: {{lo: 0.1, hi: 0.5}}}}\n"
    with pytest.raises(ConfigError, match="hi"):
        parse_config(text)


def test_shared_prediction_table_rejected_for_lid_on_both_sides(tmp_path):
    preds = tmp_path / "preds.tsv"
    preds.write_text("0\ten\t0.99\n1\ten\t0.99\n")
    pairs = [SentencePair(0, "hello there", "x"), SentencePair(1, "hello again", "y")]

    def config(side, pair="en-si"):
        return parse_config(
            f"language_pair: {pair}\nstages:\n- {{kind: lid, side: {side}}}\n"
            f"lid_predictions: {{path: {preds} }}\n"
        )

    with pytest.raises(ConfigError, match="shared prediction table"):
        run(config("st"), pairs)
    # one checked side, or the same language on both, is well defined
    assert len(run(config("s"), pairs).pairs) == 2
    assert len(run(config("st", "en-en"), pairs).pairs) == 2


def test_per_side_prediction_files_naming_one_file_are_a_shared_table(tmp_path):
    preds = tmp_path / "preds.tsv"
    preds.write_text("0\ten\t0.99\n")
    (tmp_path / "link.tsv").symlink_to(preds)
    (tmp_path / "copy.tsv").write_bytes(preds.read_bytes())
    pairs = [SentencePair(0, "hello there", "x")]

    def config(target):
        return parse_config(
            "language_pair: en-si\nstages:\n- {kind: lid, side: st}\n"
            f"lid_predictions: {{source: {preds}, target: {tmp_path / target} }}\n"
        )

    with pytest.raises(ConfigError, match="shared prediction table"):
        run(config("link.tsv"), pairs)
    # a second file with the same rows is a per-side table like any other
    assert run(config("copy.tsv"), pairs).report.total.pair_count == 1


_WORDS = ["the", "cat", "sat", "on", "a", "mat", "Mat", "42", "7.5", "!!", "x_y", "මම", "ගෙදර", "යමි"]
_sentences = st.lists(st.sampled_from(_WORDS), max_size=7).map(" ".join)
_sides = st.sampled_from(list(Side))
_stage_specs = st.one_of(
    st.builds(
        DedupSpec,
        norm=st.sampled_from(list(NormMode)),
        ngram=st.sampled_from([None, 2, 3]),
        side=_sides,
    ),
    st.builds(LengthSpec, min_words=st.integers(1, 4), side=_sides),
    st.builds(
        LidSpec,
        expected_source=st.just("en"),
        expected_target=st.sampled_from(["si", "en"]),
        min_prob=st.sampled_from([None, 0.5, 0.9]),
        side=_sides,
    ),
    st.builds(
        RatioSpec,
        kind=st.just(RatioKind.ST_RATIO),
        lo=st.sampled_from([0.5, 0.8]),
        hi=st.sampled_from([1.0, 1.5]),
        side=_sides,
    ),
    st.builds(
        RatioSpec,
        kind=st.sampled_from([RatioKind.SENT_W_RATIO, RatioKind.SENT_C_RATIO]),
        lo=st.sampled_from([0.3, 0.6, 0.9]),
        side=_sides,
    ),
)


def _oracle_stage(stage):
    """A stage spec as a config lists it, which the oracle takes."""
    kind = {DedupSpec: "dedup", LengthSpec: "length", LidSpec: "lid"}.get(type(stage)) or stage.kind.value
    params = {f.name: getattr(stage, f.name) for f in fields(stage) if f.name not in ("kind", "side")}
    params = {name: value.value if isinstance(value, Enum) else value for name, value in params.items()}
    return {"kind": kind, "side": stage.side.value, "params": params}


def _naive_run(stages, pairs, table=None):
    """The oracle's stage-major run, with the one prediction table for both sides if given:
    the surviving ids, the removal rows and the LID failure count."""
    rows = [(pair.id, pair.source, pair.target) for pair in pairs]
    tables = None if table is None else {"s": table, "t": table}
    result = oracle.run(rows, [_oracle_stage(stage) for stage in stages], tables=tables)
    return [row[0] for row in result.rows], result.removals, result.lid_failures


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(st.tuples(_sentences, _sentences), max_size=14),
    stages=st.lists(_stage_specs, max_size=5),
    table_ids=st.one_of(st.none(), st.sets(st.integers(0, 13))),
)
def test_run_matches_naive_stage_major_reference(texts, stages, table_ids):
    pairs = [SentencePair(i, s, t) for i, (s, t) in enumerate(texts)]
    table = None
    if table_ids is None:
        predictor = ScriptPredictor()
    else:  # ids outside the table make the predictor fail, which fails the pair closed
        table = {i: oracle.script_label(pairs[i].source) for i in table_ids if i < len(pairs)}
        predictions = {i: LidPrediction(*prediction) for i, prediction in table.items()}
        predictor = TablePredictor(source=predictions, target=predictions)
    config = PipelineConfig(language_pair=EN_SI, stages=tuple(stages))
    removal_log = []
    result = run(config, pairs, removal_log=removal_log, predictor=predictor)
    expected_ids, expected_rows, expected_failures = _naive_run(stages, pairs, table)
    assert [pair.id for pair in result.pairs] == expected_ids
    assert removal_log == expected_rows
    assert result.report.lid_failures == expected_failures
    assert [stage.name for stage in result.report.stages] == [
        stage_name(i, stage) for i, stage in enumerate(stages)
    ]


# small integer rows score exactly alike in rank_corpus and the oracle; the
# repeated rows tie and the zero row scores 0 as a zero-norm vector
_PALETTE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 1), (1, 1, 1)]


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(st.tuples(_sentences, _sentences), max_size=14),
    stages=st.lists(_stage_specs, max_size=5),
    rows=st.lists(st.tuples(st.sampled_from(_PALETTE), st.sampled_from(_PALETTE)), min_size=14, max_size=14),
    k=st.one_of(st.none(), st.integers(1, 16)),
    block_pairs=st.sampled_from([1, 7, dedup._BLOCK_PAIRS, 10_000]),
    rank_batch=st.sampled_from([1, 2, 3, 5, 10_000]),
    spill_rows=st.sampled_from([1, 2, 5, pipeline._SPILL_ROWS]),
)
def test_block_and_batch_sizes_change_no_output(
    tmp_path_factory, texts, stages, rows, k, block_pairs, rank_batch, spill_rows
):
    """Any block size, ranking batch (max(k, rank_batch) survivors) and
    removal spill block give the stage-major output."""
    pairs = [SentencePair(i, s, t) for i, (s, t) in enumerate(texts)]
    ranking = None
    if k is not None:
        folder = tmp_path_factory.mktemp("emb")
        for side, path in enumerate((folder / "s.bin", folder / "t.bin")):
            write_embeddings(np.array([row[side] for row in rows], dtype=np.float32), path)
        ranking = RankingSpec(str(folder / "s.bin"), str(folder / "t.bin"), k)
    config = PipelineConfig(language_pair=EN_SI, stages=tuple(stages), ranking=ranking)
    predictor = ScriptPredictor()
    removal_log = []
    with mock.patch.object(dedup, "_BLOCK_PAIRS", block_pairs), mock.patch.object(
        pipeline, "_RANK_BATCH", rank_batch
    ), mock.patch.object(pipeline, "_SPILL_ROWS", spill_rows):
        result = run(config, pairs, removal_log=removal_log, predictor=predictor)

    survivors, expected_rows, expected_failures = _naive_run(stages, pairs)
    assert removal_log == expected_rows
    report = result.report
    assert report.lid_failures == expected_failures
    removed = Counter(stage for _, stage, _ in expected_rows)
    counts = [len(pairs)]
    for index, stage in enumerate(stages):
        counts.append(counts[-1] - removed[stage_name(index, stage)])
    assert [(s.stats.pair_count, s.stats.retained_count) for s in report.stages] == list(
        zip(counts, counts[1:])
    )
    assert (report.total.pair_count, report.total.retained_count) == (len(pairs), counts[-1])
    removed_all = [
        f"stage {stage_name(index, stage)} removed all {before} pairs it was given"
        for index, (stage, before, after) in enumerate(zip(stages, counts, counts[1:]))
        if before and not after
    ]
    if k is None:
        assert result.pairs == [pairs[i] for i in survivors]
        assert result.ranked is None and report.ranking is None and report.warnings == removed_all
        return
    scores = {i: oracle.cosine(*rows[i]) for i in survivors}
    order = sorted(survivors, key=lambda i: (-scores[i], i))[:k]
    zero_norm = sum(1 for i in survivors if not any(rows[i][0]) or not any(rows[i][1]))
    assert result.pairs == [pairs[i] for i in order]
    assert [(e.pair_id, e.score) for e in result.ranked.entries] == [(i, scores[i]) for i in order]
    assert result.ranked.zero_norm_count == report.ranking.zero_norm_count == zero_norm
    assert report.ranking.emitted == len(order)
    expected_warnings = []
    if k > len(survivors):
        expected_warnings.append(
            f"top_k {k} exceeds ranked corpus size {len(survivors)}; emitting everything"
        )
    assert report.warnings == expected_warnings + removed_all


# ---------------------------------------------------------------- config checks


def _recipe_text(key, value):
    values = {"seed": 1, "pair_count": 10, key: value}
    return "".join(f"{name}: {text}\n" for name, text in values.items())


_INTEGER_KEYS = {
    "min_words": lambda value: parse_config(
        f"language_pair: en-si\nstages:\n- {{kind: length, params: {{min_words: {value}}}}}\n"
    ).stages[0].min_words,
    "ngram": lambda value: parse_config(
        f"language_pair: en-si\nstages:\n- {{kind: dedup, params: {{ngram: {value}}}}}\n"
    ).stages[0].ngram,
    "top_k": lambda value: parse_config(
        "language_pair: en-si\nranking: {source_embeddings: s.bin, target_embeddings: t.bin, "
        f"top_k: {value}}}\n"
    ).ranking.top_k,
    "seed": lambda value: recipe_from_dict(yaml.safe_load(_recipe_text("seed", value))).seed,
    "pair_count": lambda value: recipe_from_dict(
        yaml.safe_load(_recipe_text("pair_count", value))
    ).pair_count,
}


@pytest.mark.parametrize("key", sorted(_INTEGER_KEYS))
def test_integer_keys_reject_fractions_and_booleans(key):
    parse = _INTEGER_KEYS[key]
    assert parse("4") == 4 and parse("4.0") == 4
    for value in ("5.9", "true", "ten", "[4]"):
        with pytest.raises(ConfigError, match=f"{key}: expected an integer"):
            parse(value)


@pytest.mark.parametrize(
    "stages, match",
    [
        ("- {kind: dedup, params: {ngrams: 5}}", r"unknown dedup params keys: \['ngrams'\]"),
        ("- {kind: length, parms: {min_words: 3}}", r"unknown stage keys: \['parms'\]"),
        ("- {kind: lid, params: {min_words: 3}}", r"unknown lid params keys: \['min_words'\]"),
        ("- {kind: length, params: {lo: 0.5}}", r"unknown length params keys: \['lo'\]"),
        ("- {kind: stratio, params: {hi: 1.2}}", "stratio params is missing lo"),
        ("- {side: st}", "stage is missing kind"),
        ("- {kind: length, side: 1}", "stage side: expected a string"),
        ("- {kind: length, side: sideways}", "unknown side"),
        ("- {kind: dedup, params: {norm: 5}}", "dedup params norm: expected a string"),
        ("- {kind: dedup, params: [norm]}", "stage params: expected a mapping"),
        ("- {kind: lid, params: {expected_source: 5}}", "expected_source: expected a string"),
        ("- {kind: sentwratio, params: {lo: .nan}}", "lo: expected a finite number"),
        ("- {kind: lidthresh, params: {min_prob: yes}}", "min_prob: expected a finite number"),
        ("- length", "stage must be a mapping"),
        ("  {kind: length}", "config stages: expected a list"),
    ],
)
def test_config_rejects_wrong_keys_and_types(stages, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(f"language_pair: en-si\nstages:\n{stages}\n")


@pytest.mark.parametrize(
    "section, match",
    [
        ("lid_predictions: {source: p.tsv, targets: p.tsv}", r"unknown lid_predictions keys: \['targets'\]"),
        ("lid_predictions: p.tsv", "lid_predictions must be a mapping"),
        ("ranking: {source_embeddings: s.bin, top_k: 5}", "ranking is missing target_embeddings"),
        ("ranking: {source_embeddings: s.bin, target_embeddings: 7, top_k: 5}", "expected a string"),
        ("report: [a]", "report: expected a string"),
    ],
)
def test_config_sections_reject_wrong_keys_and_types(section, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(f"language_pair: en-si\n{section}\n")
    with pytest.raises(ConfigError, match="language_pair: expected a string"):
        parse_config("language_pair: 5\n")


@pytest.mark.parametrize(
    "line, match",
    [
        ("rates: [CS]", "rates: expected a mapping"),
        ("rates: {CS: .nan}", "expected a finite number"),
        ("rates: {QQ: 0.1}", "QQ"),
        ("rates: {cs: 0.5, CS: 0.1}", "rates: label CS is given twice"),
        ("vocabularies: {en: 5}", "expected a list"),
        ("vocabularies: {en: [1, 2]}", "expected a string"),
    ],
)
def test_recipe_rejects_wrong_types(line, match):
    with pytest.raises(ConfigError, match=match):
        recipe_from_dict(yaml.safe_load(f"seed: 1\npair_count: 10\n{line}\n"))


def test_null_values_take_the_defaults():
    config = parse_config(
        "language_pair: en-si\nstages:\n- {kind: lidthresh, side: null, params: {min_prob: null}}\n"
        "- {kind: length, params: null}\nranking: null\nreport: null\n"
    )
    assert config.stages == (LidSpec("en", "si", min_prob=0.7), LengthSpec(min_words=5))
