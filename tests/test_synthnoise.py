import pytest

from pdcurate.corpus import LanguagePair, Side
from pdcurate.errors import ConfigError
from pdcurate.filters import LengthSpec, LidSpec
from pdcurate.lid import script_predict
from pdcurate.pipeline import PipelineConfig
from pdcurate.synthnoise import (
    NoiseRecipe,
    builtin_vocabulary,
    generate,
    read_labeled_tsv,
    score_filters,
    write_labeled_tsv,
)
from pdcurate.taxonomy import NoiseLabel

EN_SI = LanguagePair("en", "si")


def recipe(**kwargs):
    defaults = dict(seed=11, pair_count=400, language_pair=EN_SI)
    defaults.update(kwargs)
    return NoiseRecipe(**defaults)


def test_builtin_vocabularies_ship_enough_words():
    for lang in ("en", "si", "ta"):
        vocab = builtin_vocabulary(lang)
        assert len(vocab) >= 500
        assert all(word.isalpha() for word in vocab)
    with pytest.raises(ConfigError):
        builtin_vocabulary("fr")


def test_zero_rates_give_all_clean():
    labeled = generate(recipe())
    assert len(labeled) == 400
    assert all(item.truth is NoiseLabel.CC for item in labeled)
    assert all(item.duplicate_of is None for item in labeled)


def test_clean_pairs_meet_construction_guarantees():
    for item in generate(recipe(pair_count=200)):
        src_words = item.pair.source.split()
        tgt_words = item.pair.target.split()
        assert 6 <= len(src_words) <= 20
        assert len(src_words) == len(tgt_words)
        assert script_predict(item.pair.source) == script_predict(item.pair.source)
        assert script_predict(item.pair.source).label == "en"
        assert script_predict(item.pair.target).label == "si"


def test_floor_rule_counts_exact():
    labeled = generate(recipe(pair_count=1000, rates={NoiseLabel.CS: 0.1}))
    cs_items = [item for item in labeled if item.truth is NoiseLabel.CS]
    assert len(cs_items) == 100
    for item in cs_items:
        assert (
            len(item.pair.source.split()) <= 4 or len(item.pair.target.split()) <= 4
        )


def test_seeded_determinism():
    r = recipe(
        pair_count=500,
        rates={NoiseLabel.CS: 0.1, NoiseLabel.WL: 0.05, NoiseLabel.NL: 0.05},
        duplicate_rate=0.1,
    )
    first = generate(r)
    second = generate(r)
    assert first == second
    different = generate(recipe(seed=12, pair_count=500, rates={NoiseLabel.CS: 0.1}))
    assert different != first


def test_wl_pairs_have_wrong_script_side():
    labeled = generate(recipe(pair_count=600, rates={NoiseLabel.WL: 0.2}))
    for item in labeled:
        if item.truth is not NoiseLabel.WL:
            continue
        src_label = script_predict(item.pair.source).label
        tgt_label = script_predict(item.pair.target).label
        assert src_label != "en" or tgt_label != "si"


def test_nl_pairs_have_non_linguistic_side():
    labeled = generate(recipe(pair_count=600, rates={NoiseLabel.NL: 0.2}))
    nl_items = [item for item in labeled if item.truth is NoiseLabel.NL]
    assert nl_items
    for item in nl_items:
        labels = {script_predict(item.pair.source).label, script_predict(item.pair.target).label}
        assert "und" in labels


def test_un_pairs_copy_source_into_target():
    labeled = generate(recipe(pair_count=400, rates={NoiseLabel.UN: 0.25}))
    for item in labeled:
        if item.truth is not NoiseLabel.UN:
            continue
        src_words = item.pair.source.split()
        tgt_words = item.pair.target.split()
        shared = sum(1 for w in tgt_words if w in set(src_words))
        assert shared / len(tgt_words) >= 0.3


def test_ccn_pairs_share_dominant_span():
    labeled = generate(recipe(pair_count=400, rates={NoiseLabel.CCN: 0.25}))
    count = 0
    for item in labeled:
        if item.truth is not NoiseLabel.CCN:
            continue
        count += 1
        src, tgt = item.pair.source, item.pair.target
        shared = set(src.split()) & set(tgt.split())
        shared_chars = sum(len(tok) for tok in shared)
        assert shared_chars > 0.3 * len(src.replace(" ", ""))
        assert shared_chars > 0.3 * len(tgt.replace(" ", ""))
    assert count == 100


def test_duplicates_copy_earlier_clean_pairs():
    labeled = generate(recipe(pair_count=500, duplicate_rate=0.1))
    by_id = {item.pair.id: item for item in labeled}
    dups = [item for item in labeled if item.duplicate_of is not None]
    assert len(dups) == 50
    for dup in dups:
        original = by_id[dup.duplicate_of]
        assert original.pair.id < dup.pair.id
        assert original.pair.source == dup.pair.source
        assert original.pair.target == dup.pair.target
        assert original.duplicate_of is None


def test_rates_over_one_rejected():
    with pytest.raises(ConfigError, match="exceeds 1"):
        recipe(rates={NoiseLabel.CS: 0.7, NoiseLabel.WL: 0.5})
    with pytest.raises(ConfigError):
        recipe(rates={NoiseLabel.CC: 0.1})


def test_pair_count_out_of_range_rejected():
    for count in (0, 10**20):
        with pytest.raises(ConfigError, match="pair_count"):
            recipe(pair_count=count)


@pytest.mark.parametrize("word", ["", "alpha\nbeta", "alpha\tbeta", " alpha", "alpha\u2003beta"])
def test_vocabulary_word_must_be_one_token(word):
    bad = recipe(vocabularies={"en": ["gamma", word, "delta"]})
    with pytest.raises(ConfigError, match="vocabulary for 'en'") as err:
        bad.vocabulary("en")
    assert repr(word) in str(err.value)
    assert bad.vocabulary("si") == builtin_vocabulary("si")


def test_recipe_yaml_round_trip(tmp_path):
    import yaml

    from pdcurate.synthnoise import load_recipe, recipe_from_dict, recipe_to_dict

    original = recipe(
        pair_count=800,
        rates={NoiseLabel.CS: 0.1, NoiseLabel.CCN: 0.05},
        duplicate_rate=0.1,
    )
    assert recipe_from_dict(recipe_to_dict(original)) == original
    path = tmp_path / "recipe.yaml"
    path.write_text(yaml.safe_dump(recipe_to_dict(original)))
    assert load_recipe(path) == original
    with pytest.raises(ConfigError, match="unknown recipe keys"):
        recipe_from_dict({"seed": 1, "pair_count": 5, "bogus": 1})


def test_labeled_tsv_round_trip(tmp_path):
    labeled = generate(recipe(pair_count=50, rates={NoiseLabel.CS: 0.1, NoiseLabel.X: 0.1}))
    write_labeled_tsv(labeled, tmp_path / "labeled.tsv")
    reloaded = read_labeled_tsv(tmp_path / "labeled.tsv")
    assert [(i.pair, i.truth) for i in reloaded] == [(i.pair, i.truth) for i in labeled]


# ------------------------------------------------------------- scoring


def test_length_only_pipeline_catches_all_cs():
    labeled = generate(recipe(pair_count=1000, rates={NoiseLabel.CS: 0.1}))
    config = PipelineConfig(
        language_pair=EN_SI, stages=(LengthSpec(min_words=5, side=Side.BOTH),)
    )
    score = score_filters(labeled, config)
    assert score.recall(NoiseLabel.CS) == 1.0
    assert score.per_label[NoiseLabel.CC].removed == 0
    assert score.precision == 1.0


def test_empty_pipeline_removes_nothing():
    labeled = generate(recipe(pair_count=300, rates={NoiseLabel.CS: 0.1}))
    score = score_filters(labeled, PipelineConfig(language_pair=EN_SI, stages=()))
    assert score.removed_total == 0
    assert all(score.recall(label) == 0.0 for label in NoiseLabel)
    assert score.precision is None


def test_lid_threshold_catches_all_wl():
    labeled = generate(recipe(pair_count=1000, rates={NoiseLabel.WL: 0.1}))
    config = PipelineConfig(
        language_pair=EN_SI,
        stages=(LidSpec("en", "si", min_prob=0.7, side=Side.BOTH),),
    )
    score = score_filters(labeled, config)
    assert score.recall(NoiseLabel.WL) == 1.0
    assert score.per_label[NoiseLabel.CC].removed == 0


def test_score_reports_stage_attribution():
    labeled = generate(
        recipe(pair_count=500, rates={NoiseLabel.CS: 0.1, NoiseLabel.WL: 0.1})
    )
    config = PipelineConfig(
        language_pair=EN_SI,
        stages=(
            LengthSpec(min_words=5, side=Side.BOTH),
            LidSpec("en", "si", min_prob=0.7, side=Side.BOTH),
        ),
    )
    score = score_filters(labeled, config)
    length_stage, lid_stage = score.stage_removals
    assert score.stage_removals[length_stage]["CS"] == 50
    assert score.stage_removals[length_stage].get("CC", 0) == 0
    assert score.stage_removals[lid_stage].get("CC", 0) == 0
    assert score.stage_removals[lid_stage]["WL"] == 50
    text = score.to_text()
    assert "CS=50" in text and "WL=50" in text
