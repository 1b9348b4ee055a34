import errno
import gc
import io
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pdcurate
from pdcurate import cli, pipeline
from pdcurate.cli import main
from pdcurate.corpus import LanguagePair, SentencePair, read_corpus, write_corpus
from pdcurate.pipeline import dump_config, recommended_preset
from pdcurate.ranking import RankedCorpus, cosine, write_embeddings
from pdcurate.synthnoise import builtin_vocabulary


@pytest.fixture()
def corpus(tmp_path):
    pairs = [
        SentencePair(0, "one two three four five", "මම ගෙදර යමි හොඳයි දැන්"),
        SentencePair(1, "short one", "කෙටි එකක්"),
        SentencePair(2, "one two three four five", "මම ගෙදර යමි හොඳයි දැන්"),
        SentencePair(3, "alpha beta gamma delta epsilon", "අට නවය දහය එකොළහ දොළහ"),
    ]
    write_corpus(pairs, tmp_path / "s.txt", tmp_path / "t.txt")
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def test_help_exists_for_every_subcommand(capsys):
    for name in ("run", "preset", "dedup", "filter", "rank", "stats", "synth", "lid", "report"):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(name, "--help")
        assert exit_info.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_unknown_flag_exits_2(corpus):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(
            "dedup",
            "--source", str(corpus / "s.txt"),
            "--target", str(corpus / "t.txt"),
            "--out-dir", str(corpus / "out"),
            "--bogus-flag",
        )
    assert exit_info.value.code == 2


def test_missing_hi_for_stratio_exits_2(corpus, capsys):
    code = run_cli(
        "filter",
        "--kind", "stratio",
        "--lo", "0.5",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(corpus / "out"),
    )
    assert code == 2
    assert "stratio" in capsys.readouterr().err


def test_missing_input_file_exits_3(tmp_path, capsys):
    code = run_cli(
        "dedup",
        "--source", str(tmp_path / "missing.txt"),
        "--target", str(tmp_path / "missing2.txt"),
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 3


def test_dedup_removes_exact_duplicate(corpus, capsys):
    out = corpus / "out"
    code = run_cli(
        "dedup",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--norm", "identity",
        "--side", "st",
        "--out-dir", str(out),
        "--log", str(corpus / "removals.tsv"),
    )
    assert code == 0
    kept = list(read_corpus(out / "source.txt", out / "target.txt"))
    assert len(kept) == 3  # pair 2 was an exact copy of pair 0
    # the stage column has no "0:" position prefix, unlike the logs of run and filter
    assert (corpus / "removals.tsv").read_text() == "2\tdedup[identity]@st\tone two three four five\n"


def test_filter_length_matches_brute_force(corpus, capsys):
    out = corpus / "out"
    code = run_cli(
        "filter",
        "--kind", "length",
        "--min-words", "5",
        "--side", "st",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(out),
    )
    assert code == 0
    kept = list(read_corpus(out / "source.txt", out / "target.txt"))
    original = list(read_corpus(corpus / "s.txt", corpus / "t.txt"))
    expected = [
        p for p in original
        if len(p.source.split()) >= 5 and len(p.target.split()) >= 5
    ]
    assert [(p.source, p.target) for p in kept] == [(p.source, p.target) for p in expected]
    assert "removed 1" in capsys.readouterr().out


def test_rank_top_1_selects_highest_cosine(corpus):
    rng = np.random.default_rng(0)
    src = rng.normal(size=(4, 5)).astype(np.float32)
    tgt = rng.normal(size=(4, 5)).astype(np.float32)
    write_embeddings(src, corpus / "s.bin")
    write_embeddings(tgt, corpus / "t.bin")
    out = corpus / "out"
    code = run_cli(
        "rank",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--src-emb", str(corpus / "s.bin"),
        "--tgt-emb", str(corpus / "t.bin"),
        "--top-k", "1",
        "--out-dir", str(out),
    )
    assert code == 0
    best_id = max(range(4), key=lambda i: (cosine(src[i], tgt[i]), -i))
    kept = list(read_corpus(out / "source.txt", out / "target.txt"))
    original = list(read_corpus(corpus / "s.txt", corpus / "t.txt"))
    assert kept[0].source == original[best_id].source
    scores = (out / "scores.tsv").read_text().splitlines()
    assert len(scores) == 1
    assert scores[0].split("\t")[1] == str(best_id)


def test_rank_keeps_every_pair_without_top_k_and_matches_a_stage_free_run(tmp_path, capsys):
    # 20,000 pairs are three of the pipeline's ranking batches (8,192 pairs) when k is 3
    pairs = _stream_pairs(distinct=5000, n=20_000)
    write_corpus(pairs, tmp_path / "s.txt", tmp_path / "t.txt")
    # each pair takes one of seven vector pairs, so every score is tied and ids break the ties
    rng = np.random.default_rng(1)
    src_rows, tgt_rows = rng.normal(size=(2, 7, 4)).astype(np.float32)
    src_rows[0] = 0  # a zero-norm vector scores 0
    combo = rng.integers(0, 7, size=len(pairs))
    src, tgt = src_rows[combo], tgt_rows[combo]
    write_embeddings(src, tmp_path / "s.bin")
    write_embeddings(tgt, tmp_path / "t.bin")
    corpus = ["--source", str(tmp_path / "s.txt"), "--target", str(tmp_path / "t.txt")]
    emb = ["--src-emb", str(tmp_path / "s.bin"), "--tgt-emb", str(tmp_path / "t.bin")]

    assert run_cli("rank", *corpus, *emb, "--out-dir", str(tmp_path / "all")) == 0
    order = sorted(range(len(pairs)), key=lambda i: (-cosine(src[i], tgt[i]), i))
    kept = list(read_corpus(tmp_path / "all" / "source.txt", tmp_path / "all" / "target.txt"))
    assert [(p.source, p.target) for p in kept] == [(pairs[i].source, pairs[i].target) for i in order]
    scores = (tmp_path / "all" / "scores.tsv").read_text().splitlines()
    assert [int(row.split("\t")[1]) for row in scores] == order

    (tmp_path / "cfg.yaml").write_text(
        f"language_pair: en-si\nstages: []\nranking: {{source_embeddings: '{tmp_path / 's.bin'}', "
        f"target_embeddings: '{tmp_path / 't.bin'}', top_k: 3}}\n"
    )
    assert run_cli("rank", *corpus, *emb, "--top-k", "3", "--out-dir", str(tmp_path / "rank")) == 0
    assert run_cli("run", "--config", str(tmp_path / "cfg.yaml"), *corpus, "--out-dir", str(tmp_path / "run")) == 0
    for name in ("source.txt", "target.txt", "scores.tsv"):
        assert (tmp_path / "rank" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    assert len((tmp_path / "rank" / "scores.tsv").read_text().splitlines()) == 3
    assert "ranked 20000 pairs, wrote top 3 (dim 4)" in capsys.readouterr().out


def test_rank_store_truncated_during_the_run_exits_3(tmp_path, capsys, monkeypatch):
    pairs = _stream_pairs(distinct=5000, n=4000)
    write_corpus(pairs, tsv_path=tmp_path / "c.tsv")
    for name in ("s.bin", "t.bin"):
        write_embeddings(np.ones((len(pairs), 768), dtype=np.float32), tmp_path / name)
    load = pipeline.load_embeddings

    def load_then_truncate(path):
        store = load(path)
        os.truncate(path, 1 << 20)
        return store

    monkeypatch.setattr(pipeline, "load_embeddings", load_then_truncate)
    emb = ["--src-emb", str(tmp_path / "s.bin"), "--tgt-emb", str(tmp_path / "t.bin")]
    out = tmp_path / "out"
    assert run_cli("rank", "--tsv", str(tmp_path / "c.tsv"), *emb, "--out-dir", str(out)) == 3
    assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 's.bin'}: file ends before row 341;")
    assert not out.exists() or not any(out.iterdir())


def test_the_writer_hands_the_fetch_its_ids_as_an_array(tmp_path, monkeypatch):
    n = 50_000
    write_corpus(_stream_pairs(distinct=n, n=n), tmp_path / "s.txt", tmp_path / "t.txt")
    ids = np.random.default_rng(5).permutation(n)
    ranked = RankedCorpus(ids, np.linspace(1.0, 0.0, n))
    paths = {"source_path": tmp_path / "s.txt", "target_path": tmp_path / "t.txt", "tsv_path": None}
    write = cli._writer(tmp_path, paths)
    fetch, held = cli.fetch_pairs, []

    def fetch_measured(ids, *args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return fetch(ids, *args, **kwargs)

    monkeypatch.setattr(cli, "fetch_pairs", fetch_measured)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        write(None, ranked)
    finally:
        tracemalloc.stop()
    # a list of the ids would hold about 40 bytes per id while each fetch runs
    assert len(held) == 2 and max(held) < 2 * n
    scores = (tmp_path / "scores.tsv").read_text().splitlines()
    assert [int(row.split("\t")[1]) for row in scores] == ids.tolist()


@pytest.mark.parametrize("tsv", [False, True])
def test_a_corpus_changed_during_the_run_exits_3(tmp_path, capsys, monkeypatch, tsv):
    pairs = _stream_pairs(distinct=500, n=400)
    paths = {"tsv_path": tmp_path / "c.tsv"} if tsv else {"source_path": tmp_path / "s.txt", "target_path": tmp_path / "t.txt"}
    write_corpus(pairs, **paths)
    for name in ("s.bin", "t.bin"):
        write_embeddings(np.ones((len(pairs) + 1, 4), dtype=np.float32), tmp_path / name)
    load = pipeline.load_embeddings

    def load_then_append(path):
        # runs inside pl.run, after the corpus stamps were recorded; every
        # file gets a line, so the reader still finds the files aligned
        if path.endswith("s.bin"):
            for changed in paths.values():
                with open(changed, "a", encoding="utf-8") as out:
                    out.write("one more\tline\n" if tsv else "one more line\n")
        return load(path)

    monkeypatch.setattr(pipeline, "load_embeddings", load_then_append)
    corpus = ["--tsv", str(paths["tsv_path"])] if tsv else ["--source", str(paths["source_path"]), "--target", str(paths["target_path"])]
    emb = ["--src-emb", str(tmp_path / "s.bin"), "--tgt-emb", str(tmp_path / "t.bin")]
    out = tmp_path / "out"
    assert run_cli("rank", *corpus, *emb, "--top-k", "10", "--out-dir", str(out)) == 3
    first = next(iter(paths.values()))
    assert capsys.readouterr().err.startswith(f"data error: {first} changed during the run")
    assert not out.exists() or not any(out.iterdir())


def test_stats_against_reference(corpus, capsys):
    out = corpus / "out"
    run_cli(
        "dedup",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(out),
    )
    capsys.readouterr()
    code = run_cli(
        "stats",
        "--source", str(out / "source.txt"),
        "--target", str(out / "target.txt"),
        "--ref-source", str(corpus / "s.txt"),
        "--ref-target", str(corpus / "t.txt"),
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "pairs: 3" in output
    assert "reference: 4" in output
    assert "reduction: 25.00%" in output


def test_synth_with_score_config(tmp_path, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text(
        "language_pair: en-si\n"
        "stages:\n"
        "- kind: length\n"
        "  side: st\n"
        "  params: {min_words: 5}\n"
    )
    code = run_cli(
        "synth",
        "--pairs", "500",
        "--seed", "3",
        "--pair", "en-si",
        "--rate", "CS=0.1",
        "--out", str(tmp_path / "labeled.tsv"),
        "--score-config", str(config),
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "wrote 500 labeled pairs" in output
    assert "CS" in output
    lines = (tmp_path / "labeled.tsv").read_text().splitlines()
    assert len(lines) == 500
    assert sum(1 for line in lines if line.split("\t")[1] == "CS") == 50


def test_synth_bad_rate_exits_2(tmp_path):
    code = run_cli(
        "synth", "--pairs", "10", "--rate", "CS:0.1", "--out", str(tmp_path / "x.tsv")
    )
    assert code == 2


@pytest.mark.parametrize("first", ["CS=0.5", "cs=0.5"])
def test_synth_rejects_a_rate_label_given_twice(tmp_path, capsys, first):
    # the second --rate silently replaced the first
    code = run_cli("synth", "--pairs", "20", "--rate", first, "--rate", "CS=0.1", "--out", str(tmp_path / "x.tsv"))
    assert code == 2
    assert "label CS" in capsys.readouterr().err
    assert not (tmp_path / "x.tsv").exists()


@pytest.mark.parametrize("word", ["alpha\\nbeta", "alpha\\tbeta"])
def test_synth_rejects_a_vocabulary_word_with_whitespace(tmp_path, capsys, word):
    recipe = tmp_path / "r.yaml"
    recipe.write_text(f'seed: 1\npair_count: 5\nvocabularies: {{en: ["{word}", gamma, delta]}}\n')
    out = tmp_path / "out"
    code = run_cli(
        "synth", "--recipe", str(recipe), "--out", str(out / "l.tsv"),
        "--source-out", str(out / "s.txt"), "--target-out", str(out / "t.txt"),
    )
    assert code == 2
    assert "vocabulary for 'en'" in capsys.readouterr().err
    assert not out.exists()


def test_lid_export_and_reuse(corpus, capsys):
    preds = corpus / "preds.tsv"
    code = run_cli(
        "lid",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--side", "t",
        "--out", str(preds),
    )
    assert code == 0
    lines = preds.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].split("\t")[1] == "si"


def test_report_command(tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    scores.write_text(
        "ccmatrix\ten-si\tlaser3\tbaseline\t30.76\n"
        "ccmatrix\ten-si\txlmr\tbaseline\t5.55\n"
        "ccmatrix\ten-si\tlaser3\tcombined\t36.10\n"
        "ccmatrix\ten-si\txlmr\tcombined\t24.18\n"
    )
    code = run_cli("report", "--scores", str(scores), "--reference", "laser3")
    assert code == 0
    output = capsys.readouterr().out
    assert "25.21\tNA" in output
    assert "11.92\t52.72" in output
    out = tmp_path / "report.tsv"
    assert run_cli("report", "--scores", str(scores), "--reference", "laser3", "--out", str(out)) == 0
    assert out.read_bytes() == output.encode("utf-8")


def test_run_deterministic_across_threads(tmp_path, capsys):
    from pdcurate.corpus import LanguagePair
    from pdcurate.pipeline import dump_config, recommended_preset
    from pdcurate.synthnoise import NoiseRecipe, generate
    from pdcurate.taxonomy import NoiseLabel

    labeled = generate(
        NoiseRecipe(
            seed=9,
            pair_count=2000,
            rates={NoiseLabel.CS: 0.1, NoiseLabel.WL: 0.1},
            language_pair=LanguagePair("en", "si"),
        )
    )
    write_corpus((item.pair for item in labeled), tmp_path / "s.txt", tmp_path / "t.txt")
    config = tmp_path / "cfg.yaml"
    config.write_text(dump_config(recommended_preset(LanguagePair("en", "si"))))
    outputs = []
    for threads, out_name in ((1, "out1"), (4, "out4")):
        out = tmp_path / out_name
        code = run_cli(
            "run",
            "--config", str(config),
            "--source", str(tmp_path / "s.txt"),
            "--target", str(tmp_path / "t.txt"),
            "--out-dir", str(out),
            "--threads", str(threads),
        )
        assert code == 0
        outputs.append(
            ((out / "source.txt").read_bytes(), (out / "target.txt").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_env_variable_overrides_flag_default(corpus, capsys, monkeypatch):
    monkeypatch.setenv("CURATE_MIN_WORDS", "3")
    out = corpus / "out"
    code = run_cli(
        "filter",
        "--kind", "length",
        "--side", "s",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(out),
    )
    assert code == 0
    kept = list(read_corpus(out / "source.txt", out / "target.txt"))
    assert len(kept) == 3  # min-words 3 from the environment keeps 2-word pair out


def test_store_true_and_append_flags_read_the_environment(corpus, capsys, monkeypatch):
    monkeypatch.setenv("CURATE_REMOVAL_LOG", "1")
    (corpus / "cfg.yaml").write_text("language_pair: en-si\nstages:\n- {kind: dedup}\n")
    argv = ("--source", str(corpus / "s.txt"), "--target", str(corpus / "t.txt"))
    assert run_cli("run", "--config", str(corpus / "cfg.yaml"), *argv, "--out-dir", str(corpus / "out")) == 0
    rows = (corpus / "out" / "removals.tsv").read_text(encoding="utf-8").splitlines()
    assert [row.split("\t")[:2] for row in rows] == [["2", "0:dedup[identity]@st"]]

    monkeypatch.setenv("CURATE_RATE", "CN=0.2")
    assert run_cli("synth", "--pairs", "100", "--seed", "1", "--out", str(corpus / "labeled.tsv")) == 0
    labels = [line.split("\t")[1] for line in (corpus / "labeled.tsv").read_text(encoding="utf-8").splitlines()]
    assert labels.count("CN") == 20


def _write_corpus_embeddings(corpus) -> tuple[str, ...]:
    """Embedding flags for the corpus fixture's four pairs."""
    rng = np.random.default_rng(0)
    for name in ("s.bin", "t.bin"):
        write_embeddings(rng.normal(size=(4, 5)).astype(np.float32), corpus / name)
    return ("--src-emb", str(corpus / "s.bin"), "--tgt-emb", str(corpus / "t.bin"))


def test_rank_warns_when_top_k_exceeds_the_corpus(corpus, capsys):
    argv = ("--source", str(corpus / "s.txt"), "--target", str(corpus / "t.txt"), "--out-dir", str(corpus / "out"))
    assert run_cli("rank", *argv, *_write_corpus_embeddings(corpus), "--top-k", "10") == 0
    assert "warning: --top-k 10 exceeds corpus size 4; keeping all" in capsys.readouterr().err


def test_a_ranked_run_reports_top_k_above_the_survivors_and_copies_its_report(corpus, capsys):
    emb = _write_corpus_embeddings(corpus)
    (corpus / "cfg.yaml").write_text(
        "language_pair: en-si\nstages:\n- {kind: dedup}\n"
        f"ranking: {{source_embeddings: {emb[1]}, target_embeddings: {emb[3]}, top_k: 10}}\n"
        f"report: {corpus / 'copy.txt'}\n"
    )
    out = corpus / "out"
    argv = ("--source", str(corpus / "s.txt"), "--target", str(corpus / "t.txt"), "--out-dir", str(out))
    assert run_cli("run", "--config", str(corpus / "cfg.yaml"), *argv) == 0
    warning = "top_k 10 exceeds ranked corpus size 3; emitting everything"
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert f"\nwarning: {warning}\n" in text
    assert f"\nwarning\t{warning}\t-\t-\t-\t-\t-\n" in (out / "report.tsv").read_text(encoding="utf-8")
    assert (corpus / "copy.txt").read_text(encoding="utf-8") == text


def test_filter_lid_counts_a_pair_missing_from_the_predictions(corpus, capsys):
    preds = corpus / "preds.tsv"
    preds.write_text("".join(f"{i}\ten\t0.99\n" for i in (0, 2, 3)))
    code = run_cli(
        "filter",
        "--kind", "lid",
        "--pair", "en-si",
        "--side", "s",
        "--src-predictions", str(preds),
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(corpus / "out"),
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "kept 3, removed 1 (lid@s)" in output
    assert "lid failures (failed closed): 1\n" in output


def test_tsv_input_gives_tsv_output(tmp_path):
    (tmp_path / "c.tsv").write_text("dup source\tdup target\ndup source\tdup target\nfresh\tnew\n")
    out = tmp_path / "out"
    code = run_cli(
        "dedup",
        "--tsv", str(tmp_path / "c.tsv"),
        "--side", "st",
        "--out-dir", str(out),
    )
    assert code == 0
    lines = (out / "corpus.tsv").read_text().splitlines()
    assert lines == ["dup source\tdup target", "fresh\tnew"]


def test_killed_run_leaves_no_partial_output(tmp_path):
    """SIGKILL mid-run: the output path either absent or complete."""
    n = 120_000
    with open(tmp_path / "s.txt", "w") as src, open(tmp_path / "t.txt", "w") as tgt:
        for i in range(n):
            src.write(f"source line {i} padded with words\n")
            tgt.write(f"target line {i} padded with words\n")
    out_dir = tmp_path / "out"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "pdcurate.cli",
            "dedup",
            "--source", str(tmp_path / "s.txt"),
            "--target", str(tmp_path / "t.txt"),
            "--out-dir", str(out_dir),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    time.sleep(0.35)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait()
    for name in ("source.txt", "target.txt"):
        path = out_dir / name
        if path.exists():
            assert len(path.read_text().splitlines()) == n


def test_filter_rejects_hi_on_floor_only_ratio(corpus, capsys):
    code = run_cli(
        "filter",
        "--kind", "sentwratio",
        "--lo", "0.1",
        "--hi", "0.5",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(corpus / "out"),
    )
    assert code == 2
    assert "hi" in capsys.readouterr().err


# the prediction flags each case gives, all naming one file
_TABLE_FLAGS = {
    False: ("--predictions",),
    True: ("--predictions", "--src-predictions"),
    "same file": ("--src-predictions", "--tgt-predictions"),
}


@pytest.mark.parametrize(
    "per_side, match",
    [(False, "shared prediction table"), (True, "not both"), ("same file", "shared prediction table")],
)
def test_filter_rejects_ambiguous_prediction_tables(corpus, capsys, per_side, match):
    preds = corpus / "preds.tsv"
    preds.write_text("".join(f"{i}\ten\t0.99\n" for i in range(4)))
    # a second spelling of the same path: the check compares files, not strings
    spellings = (str(preds), os.path.join(str(corpus), ".", "preds.tsv"))
    code = run_cli(
        "filter",
        "--kind", "lid",
        "--pair", "en-si",
        "--side", "st",
        *(arg for flag, path in zip(_TABLE_FLAGS[per_side], spellings) for arg in (flag, path)),
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(corpus / "out"),
    )
    assert code == 2
    assert match in capsys.readouterr().err


def test_removal_log_is_independent_of_hash_seed(tmp_path):
    # every later pair shares several 3-grams with an earlier kept pair,
    # so the reported key depends on the order in which keys are probed
    rows = []
    for i in range(40):
        base = f"w{i} x{i} y{i} z{i} v{i} u{i}"
        rows.append((base, f"t{i}"))
        rows.append((f"{base} extra{i}", f"t{i} copy"))
    pairs = (SentencePair(i, s, t) for i, (s, t) in enumerate(rows))
    write_corpus(pairs, tmp_path / "s.txt", tmp_path / "t.txt")
    config = tmp_path / "cfg.yaml"
    config.write_text(
        "language_pair: en-si\nstages:\n- {kind: dedup, side: s, params: {norm: identity, ngram: 3}}\n"
    )
    logs = []
    for seed in ("1", "2"):
        out = tmp_path / f"out{seed}"
        subprocess.run(
            [
                sys.executable, "-m", "pdcurate.cli", "run",
                "--config", str(config),
                "--source", str(tmp_path / "s.txt"),
                "--target", str(tmp_path / "t.txt"),
                "--out-dir", str(out),
                "--removal-log",
            ],
            check=True,
            stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        logs.append((out / "removals.tsv").read_bytes())
    assert logs[0].count(b"\n") == 40
    assert logs[0] == logs[1]


def test_a_run_loads_no_openssl(tmp_path, capsys):
    # importing hashlib starts OpenSSL (_hashlib), about 3.6 MiB of RSS;
    # nothing in a run, dedup keys included, needs it.  numpy 1.x loads it
    # anyway on import, through numpy.random, so there the run is checked
    # only for loading nothing more, and the source for importing no hashlib
    source = Path(pdcurate.__file__).parent
    assert [path.name for path in source.glob("*.py") if "hashlib" in path.read_text(encoding="utf-8")] == []
    assert run_cli(
        "synth", "--pairs", "300", "--seed", "1", "--duplicates", "0.4",
        "--out", str(tmp_path / "labeled.tsv"),
        "--source-out", str(tmp_path / "s.txt"), "--target-out", str(tmp_path / "t.txt"),
    ) == 0
    vectors = np.random.default_rng(0).normal(size=(300, 4)).astype(np.float32)
    write_embeddings(vectors, tmp_path / "e.bin")
    capsys.readouterr()
    emb = str(tmp_path / "e.bin")
    assert run_cli("preset", "--pair", "en-si", "--src-emb", emb, "--tgt-emb", emb, "--top-k", "30") == 0
    (tmp_path / "cfg.yaml").write_text(capsys.readouterr().out)
    script = (
        "import sys\n"
        "import numpy\n"
        "preloaded = '_hashlib' in sys.modules\n"
        "from pdcurate.cli import main\n"
        "code = main(['run', '--config', 'cfg.yaml', '--source', 's.txt', '--target', 't.txt',"
        " '--out-dir', 'out', '--removal-log'])\n"
        "print(code, preloaded, '_hashlib' in sys.modules)\n"
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("CURATE_")}
    env["PYTHONPATH"] = str(source.parent)  # the package under test
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, env=env, check=True
    )
    code, preloaded, loaded = proc.stdout.splitlines()[-1].split()
    assert (code, loaded) == ("0", preloaded), proc.stderr
    assert (tmp_path / "out" / "removals.tsv").stat().st_size > 0


_PAIRS_TSV = "one two three four five\tsix seven eight nine ten\nhello world\tමම ගෙදර\n"
_CONFIG = "language_pair: en-si\n"
_RUN = ("run", "--config", "cfg.yaml", "--tsv", "c.tsv", "--out-dir", "out")

# each case: files to write, curate arguments, expected exit code (0 done, 2 config, 3 data)
_HOSTILE_CASES = {
    "unknown dedup param": (
        {"cfg.yaml": _CONFIG + "stages:\n- {kind: dedup, params: {ngrams: 5}}\n"}, _RUN, 2
    ),
    "unknown lid_predictions key": (
        {
            "cfg.yaml": _CONFIG + "stages:\n- {kind: lid}\n"
            "lid_predictions: {source: p.tsv, targets: p.tsv}\n",
            "p.tsv": "0\ten\t0.9\n",
        },
        _RUN,
        2,
    ),
    "top_k not an integer": (
        {
            "cfg.yaml": _CONFIG + "ranking: {source_embeddings: e.bin, "
            "target_embeddings: e.bin, top_k: ten}\n"
        },
        _RUN,
        2,
    ),
    "norm not a string": ({"cfg.yaml": _CONFIG + "stages:\n- {kind: dedup, params: {norm: 5}}\n"}, _RUN, 2),
    "side not a string": ({"cfg.yaml": _CONFIG + "stages:\n- {kind: length, side: 1}\n"}, _RUN, 2),
    "fractional min_words": (
        {"cfg.yaml": _CONFIG + "stages:\n- {kind: length, params: {min_words: 5.9}}\n"}, _RUN, 2
    ),
    "config not UTF-8": ({"cfg.yaml": b"language_pair: en-si\n# \xff\n"}, _RUN, 2),
    "recipe rates not a mapping": (
        {"r.yaml": "seed: 1\npair_count: 10\nrates: [CS]\n"},
        ("synth", "--recipe", "r.yaml", "--out", "l.tsv"),
        2,
    ),
    "pair_count too large for a list": (
        {"r.yaml": "seed: 1\npair_count: 100000000000000000000\n"},
        ("synth", "--recipe", "r.yaml", "--out", "l.tsv"),
        2,
    ),
    "prediction table not UTF-8": (
        {
            "cfg.yaml": _CONFIG + "stages:\n- {kind: lid, side: s}\nlid_predictions: {path: p.tsv}\n",
            "p.tsv": b"0\ten\t0.9\n\xff\xfe\ten\t0.9\n",
        },
        _RUN,
        3,
    ),
    "embedding file with a wrong magic": (
        {
            "cfg.yaml": _CONFIG + "ranking: {source_embeddings: e.bin, "
            "target_embeddings: e.bin, top_k: 1}\n",
            "e.bin": b"PDCEMB0X\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x80\x3f",
        },
        _RUN,
        3,
    ),
    "embedding file with zero rows": (
        {
            "cfg.yaml": _CONFIG + "ranking: {source_embeddings: e.bin, "
            "target_embeddings: e.bin, top_k: 1}\n",
            "e.bin": b"PDCEMB01\x00\x00\x00\x00\x03\x00\x00\x00",
        },
        _RUN,
        3,
    ),
    "missing score table": ({}, ("report", "--scores", "missing.tsv", "--reference", "x"), 3),
    "stats with only --ref-target": ({}, ("stats", "--tsv", "c.tsv", "--ref-target", "c.tsv"), 2),
    "stats with --ref-tsv and --ref-source/--ref-target": (
        {},
        (
            "stats", "--tsv", "c.tsv", "--ref-tsv", "c.tsv",
            "--ref-source", "c.tsv", "--ref-target", "c.tsv",
        ),
        2,
    ),
    "synth with only --source-out": (
        {}, ("synth", "--pairs", "10", "--out", "l.tsv", "--source-out", "s.txt"), 2
    ),
    "top_k above sys.maxsize emits everything": (
        {
            "cfg.yaml": _CONFIG + "ranking: {source_embeddings: e.bin, "
            "target_embeddings: e.bin, top_k: 100000000000000000000}\n",
            "e.bin": b"PDCEMB01\x02\x00\x00\x00\x01\x00\x00\x00" + b"\x00\x00\x80\x3f" * 2,
        },
        _RUN,
        0,
    ),
    "rank --top-k above sys.maxsize emits everything": (
        {"e.bin": b"PDCEMB01\x02\x00\x00\x00\x01\x00\x00\x00" + b"\x00\x00\x80\x3f" * 2},
        (
            "rank", "--tsv", "c.tsv", "--src-emb", "e.bin", "--tgt-emb", "e.bin",
            "--top-k", "100000000000000000000", "--out-dir", "out",
        ),
        0,
    ),
    "rank --top-k 0": (
        {"e.bin": b"PDCEMB01\x02\x00\x00\x00\x01\x00\x00\x00" + b"\x00\x00\x80\x3f" * 2},
        (
            "rank", "--tsv", "c.tsv", "--src-emb", "e.bin", "--tgt-emb", "e.bin",
            "--top-k", "0", "--out-dir", "out",
        ),
        2,
    ),
    "preset --top-k without embeddings": ({}, ("preset", "--pair", "en-si", "--top-k", "5"), 2),
    "lid --out a directory": ({}, ("lid", "--tsv", "c.tsv", "--side", "t", "--out", "."), 3),
    "synth --out a directory": ({}, ("synth", "--pairs", "10", "--out", "."), 3),
    "dedup --log a directory": ({}, ("dedup", "--tsv", "c.tsv", "--out-dir", "out", "--log", "."), 3),
    "non-finite score": (
        {"s.tsv": "c\tp\tm\tbaseline\tnan\n"}, ("report", "--scores", "s.tsv", "--reference", "m"), 3
    ),
}


@pytest.mark.parametrize("case", sorted(_HOSTILE_CASES))
def test_hostile_input_exits_with_config_or_data_code(tmp_path, case):
    files, argv, expected = _HOSTILE_CASES[case]
    (tmp_path / "c.tsv").write_text(_PAIRS_TSV)
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    env = {key: value for key, value in os.environ.items() if not key.startswith("CURATE_")}
    env["PYTHONPATH"] = str(Path(pdcurate.__file__).parents[1])  # the package under test
    proc = subprocess.run(
        [sys.executable, "-m", "pdcurate.cli", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expected, proc.stderr
    assert "internal error" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "--tsv", "c.tsv", "--src-emb", "e.bin", "--tgt-emb", "e.bin", "--out-dir", "out"),
        ("preset", "--pair", "en-si", "--src-emb", "e.bin", "--tgt-emb", "e.bin"),
    ],
    ids=["rank", "preset"],
)
def test_top_k_below_one_from_the_environment_is_a_config_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("CURATE_TOP_K", "0")
    assert run_cli(*argv) == 2
    assert "must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        "run --config cfg.yaml --source s.txt --target t.txt --out-dir out --removal-log",
        "preset --pair en-si",
        "stats --source a.txt --target b.txt --ref-source a.txt --ref-target b.txt",
        "synth --pairs 50 --seed 1 --duplicates 0.2 --out l.tsv --source-out ls.txt --target-out lt.txt",
        "lid --source a.txt --target b.txt --side t --out p.tsv",
        "report --scores scores.tsv --reference laser3",
    ],
    ids=["run", "preset", "stats", "synth", "lid", "report"],
)
def test_importing_the_cli_does_not_load_numpy(tmp_path, command):
    # nor do these commands; the run has dedup stages on an empty corpus and no ranking
    (tmp_path / "s.txt").write_text("")
    (tmp_path / "t.txt").write_text("")
    (tmp_path / "a.txt").write_text("one two three four\nfive six\n")
    (tmp_path / "b.txt").write_text("මම ගෙදර යනවා\nseven eight\n", encoding="utf-8")
    (tmp_path / "cfg.yaml").write_text(
        "language_pair: en-si\nstages:\n- {kind: dedup}\n- {kind: dedup, params: {ngram: 5}}\n"
    )
    (tmp_path / "scores.tsv").write_text(
        "cc\ten-si\tlaser3\tbaseline\t30.76\ncc\ten-si\txlmr\tbaseline\t5.55\n"
        "cc\ten-si\tlaser3\tcombined\t36.10\ncc\ten-si\txlmr\tcombined\t24.18\n"
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("CURATE_")}
    env["PYTHONPATH"] = str(Path(pdcurate.__file__).parents[1])
    code = (
        "import sys, pdcurate.cli; print('numpy' in sys.modules); "
        f"code = pdcurate.cli.main({command.split()!r}); print(code, 'numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_each_module_binds_numpy_at_its_first_use(tmp_path, capsys):
    # a preset-plus-ranking run uses numpy in corpus, dedup, filters, pipeline and ranking
    write_corpus(_stream_pairs(distinct=50, n=200), tmp_path / "s.txt", tmp_path / "t.txt")
    write_embeddings(np.random.default_rng(3).normal(size=(200, 8)), tmp_path / "e.bin")
    emb = str(tmp_path / "e.bin")
    assert run_cli("preset", "--pair", "en-si", "--src-emb", emb, "--tgt-emb", emb, "--top-k", "30") == 0
    (tmp_path / "cfg.yaml").write_text(capsys.readouterr().out)
    env = {key: value for key, value in os.environ.items() if not key.startswith("CURATE_")}
    env["PYTHONPATH"] = str(Path(pdcurate.__file__).parents[1])
    run = "run --config cfg.yaml --source s.txt --target t.txt --out-dir out".split()
    script = (
        "import sys, types, pdcurate.cli\n"
        "from pdcurate import corpus, dedup, filters, pipeline, ranking\n"
        "modules = (corpus, dedup, filters, pipeline, ranking)\n"
        "print('numpy' in sys.modules, any(isinstance(getattr(m, 'np', None), types.ModuleType) for m in modules))\n"
        f"code = pdcurate.cli.main({run!r})\n"
        "print(code, all(getattr(m, 'np', None) is sys.modules['numpy'] for m in modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False False"
    assert proc.stdout.splitlines()[-1] == "0 True"


@pytest.mark.skipif(sys.platform != "linux", reason="reads the thread count from /proc/self/status")
@pytest.mark.parametrize("preset", [None, "2"])
def test_a_ranked_run_pins_openblas_to_one_thread(tmp_path, preset):
    write_corpus(_stream_pairs(distinct=50, n=200), tmp_path / "s.txt", tmp_path / "t.txt")
    write_embeddings(np.random.default_rng(3).normal(size=(200, 8)), tmp_path / "e.bin")
    env = {key: value for key, value in os.environ.items() if not key.startswith("CURATE_")}
    env["PYTHONPATH"] = str(Path(pdcurate.__file__).parents[1])
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    rank = "rank --source s.txt --target t.txt --src-emb e.bin --tgt-emb e.bin --top-k 5 --out-dir out".split()
    code = (
        "import os, sys, pdcurate.cli; print('numpy' in sys.modules); "
        f"code = pdcurate.cli.main({rank!r}); "
        "threads = open('/proc/self/status').read().split('Threads:')[1].split()[0]; "
        "print(code, 'numpy' in sys.modules, threads, os.environ['OPENBLAS_NUM_THREADS'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    code, numpy_loaded, threads, pinned = proc.stdout.splitlines()[-1].split()
    assert (code, numpy_loaded, pinned) == ("0", "True", preset or "1")
    if preset is None:
        assert threads == "1"


def test_filter_flag_of_another_kind_is_rejected(corpus, capsys, monkeypatch):
    monkeypatch.setenv("CURATE_MIN_WORDS", "3")
    code = run_cli(
        "filter",
        "--kind", "lid",
        "--pair", "en-si",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(corpus / "out"),
    )
    assert code == 2
    assert "unknown lid params keys: ['min_words']" in capsys.readouterr().err


def test_filter_length_defaults_to_five_words(corpus, capsys):
    code = run_cli(
        "filter",
        "--kind", "length",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(corpus / "out"),
    )
    assert code == 0
    assert "kept 3, removed 1" in capsys.readouterr().out


def test_dedup_bad_norm_from_environment_exits_2(corpus, capsys, monkeypatch):
    monkeypatch.setenv("CURATE_NORM", "bogus")
    code = run_cli(
        "dedup",
        "--source", str(corpus / "s.txt"),
        "--target", str(corpus / "t.txt"),
        "--out-dir", str(corpus / "out"),
    )
    assert code == 2
    assert "normalization mode" in capsys.readouterr().err


# ---------------------------------------------------------------- streaming writes

# run and filter write their output while they read, so the corpora below
# span several blocks of pairs (2,048 each) before the last line is read
_STREAM_CONFIG = "language_pair: en-si\nstages:\n- {kind: dedup}\n- {kind: length}\n"


def _stream_pairs(distinct: int, n: int = 5000) -> list[SentencePair]:
    return [
        SentencePair(i, f"w{i % distinct} alpha beta gamma delta", f"t{i % distinct} මම ගෙදර යමි හොඳයි")
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "command, case",
    [
        ("run", "invalid UTF-8"),
        ("run", "three TSV fields"),
        ("run", "uncovered embedding id"),
        ("filter", "invalid UTF-8"),
        ("filter", "three TSV fields"),
    ],
)
def test_failure_on_the_last_line_leaves_the_out_dir_as_it_was(tmp_path, capsys, command, case):
    pairs = _stream_pairs(distinct=5000)
    config_text = _STREAM_CONFIG
    if case == "three TSV fields":
        write_corpus(pairs, tsv_path=tmp_path / "c.tsv")
        with open(tmp_path / "c.tsv", "a", encoding="utf-8") as out:
            out.write("one\ttwo\tthree\n")
        corpus = ["--tsv", str(tmp_path / "c.tsv")]
    else:
        write_corpus(pairs, tmp_path / "s.txt", tmp_path / "t.txt")
        corpus = ["--source", str(tmp_path / "s.txt"), "--target", str(tmp_path / "t.txt")]
    if case == "invalid UTF-8":
        with open(tmp_path / "s.txt", "ab") as src, open(tmp_path / "t.txt", "ab") as tgt:
            src.write(b"last alpha beta gamma delta\n")
            tgt.write(b"last \xff\n")
    if case == "uncovered embedding id":  # the last pair survives, and its id has no row
        write_embeddings(np.ones((len(pairs) - 1, 4), dtype=np.float32), tmp_path / "e.bin")
        emb = tmp_path / "e.bin"
        config_text += f"ranking: {{source_embeddings: '{emb}', target_embeddings: '{emb}', top_k: 10}}\n"
    (tmp_path / "cfg.yaml").write_text(config_text)
    out = tmp_path / "out"
    out.mkdir()
    (out / "source.txt").write_bytes(b"an earlier run\n")
    if command == "run":
        argv = ["run", "--config", str(tmp_path / "cfg.yaml"), "--removal-log"]
    else:
        argv = ["filter", "--kind", "length", "--log", str(out / "removals.tsv")]
    assert run_cli(*argv, *corpus, "--out-dir", str(out)) == 3
    assert "data error" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["source.txt"]
    assert (out / "source.txt").read_bytes() == b"an earlier run\n"


@pytest.mark.parametrize("command", ["dedup", "run"])
def test_an_output_that_cannot_be_written_leaves_no_output_file(tmp_path, capsys, command):
    write_corpus(_stream_pairs(distinct=4000), tsv_path=tmp_path / "c.tsv")
    (tmp_path / "cfg.yaml").write_text(_STREAM_CONFIG)
    out = tmp_path / "out"
    if command == "dedup":
        (tmp_path / "logdir").mkdir()
        argv = ["dedup", "--log", str(tmp_path / "logdir")]
    else:
        (out / "removals.tsv").mkdir(parents=True)
        argv = ["run", "--config", str(tmp_path / "cfg.yaml"), "--removal-log"]
    assert run_cli(*argv, "--tsv", str(tmp_path / "c.tsv"), "--out-dir", str(out)) == 3
    assert "it is a directory" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.rglob("*") if path.is_file()) == ["c.tsv", "cfg.yaml"]


def test_a_closed_stdout_keeps_the_written_files(corpus, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    out = corpus / "out"
    code = run_cli("dedup", "--source", str(corpus / "s.txt"), "--target", str(corpus / "t.txt"), "--out-dir", str(out))
    assert code == 0
    assert len((out / "source.txt").read_text(encoding="utf-8").splitlines()) == 3


@pytest.mark.parametrize("names", [("source.txt", "target.txt"), ("corpus.tsv",)], ids=["two-file", "tsv"])
def test_in_place_run_matches_a_run_into_a_fresh_directory(tmp_path, capsys, names):
    data = tmp_path / "data"
    paths = [data / name for name in names]
    if len(paths) == 1:
        write_corpus(_stream_pairs(distinct=4000), tsv_path=paths[0])
        corpus = ["--tsv", str(paths[0])]
    else:
        write_corpus(_stream_pairs(distinct=4000), *paths)
        corpus = ["--source", str(paths[0]), "--target", str(paths[1])]
    (tmp_path / "cfg.yaml").write_text(_STREAM_CONFIG)
    for out in (tmp_path / "fresh", data):
        argv = ["run", "--config", str(tmp_path / "cfg.yaml"), *corpus, "--out-dir", str(out), "--removal-log"]
        assert run_cli(*argv) == 0
    for name in (*names, "removals.tsv"):
        assert (data / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert len((data / names[0]).read_text(encoding="utf-8").splitlines()) == 4000


_RSS_RUN = """
import resource, sys
from pdcurate import pipeline
from pdcurate.cli import main
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kib(*argv: str) -> int:
    """The peak RSS of ``curate *argv`` run in a fresh interpreter, which must exit 0."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("CURATE_")}
    env["PYTHONPATH"] = str(Path(pdcurate.__file__).parents[1])
    # a child starts with the ru_maxrss of the process that started it,
    # so each measured interpreter is started from a small one, not from pytest
    launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    child = [sys.executable, "-c", _RSS_RUN, *argv]
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *child], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    return peak_kib


@pytest.mark.skipif(sys.platform != "linux", reason="needs ru_maxrss in KiB")
@pytest.mark.parametrize("command", ["run", "rank", "rank-all", "dedup"])
def test_run_peak_memory_does_not_grow_with_the_corpus(tmp_path, command):
    # rank-all is rank without --top-k, which ranks every pair
    rng = random.Random(11)
    en, si = builtin_vocabulary("en"), builtin_vocabulary("si")
    (tmp_path / "cfg.yaml").write_text(dump_config(recommended_preset(LanguagePair("en", "si"))))
    peaks = []
    for n in (5_000, 50_000):
        folder = tmp_path / str(n)
        folder.mkdir()
        with open(folder / "s.txt", "w", encoding="utf-8") as src, open(
            folder / "t.txt", "w", encoding="utf-8"
        ) as tgt:
            for _ in range(n):
                k = rng.randint(6, 14)
                src.write(" ".join(rng.choices(en, k=k)) + "\n")
                tgt.write(" ".join(rng.choices(si, k=k)) + "\n")
        emb = ["--src-emb", str(folder / "e.bin"), "--tgt-emb", str(folder / "e.bin")]
        args = {
            "run": ["--config", str(tmp_path / "cfg.yaml")],
            "rank": [*emb, "--top-k", "100"],
            "rank-all": emb,
            "dedup": ["--norm", "punctnums"],
        }[command]
        if command.startswith("rank"):
            write_embeddings(np.random.default_rng(n).normal(size=(n, 8)).astype(np.float32), folder / "e.bin")
        peaks.append(_peak_rss_kib(
            command.removesuffix("-all"), *args,
            "--source", str(folder / "s.txt"), "--target", str(folder / "t.txt"),
            "--out-dir", str(folder / "out"),
        ))
    grown_mib = (peaks[1] - peaks[0]) / 1024
    assert grown_mib < 10, f"peak RSS grew by {grown_mib:.1f} MiB from 5k to 50k pairs"


# the benchmark's boilerplate_tsv config: both dedup stages strip numbers
_BOILERPLATE_CONFIG = (
    "language_pair: en-si\nstages:\n"
    "- {kind: dedup, side: st, params: {norm: nums, ngram: null}}\n"
    "- {kind: dedup, side: st, params: {norm: nums, ngram: 4}}\n"
)


def _write_boilerplate_tsv(path: Path, n: int, seed: int) -> None:
    """40% fresh pairs, 60% copies of an earlier fresh pair with a number
    appended and, five times in six, one word swapped on each side."""
    rng = random.Random(seed)
    en, si = builtin_vocabulary("en"), builtin_vocabulary("si")
    templates = []
    with open(path, "w", encoding="utf-8") as out:
        for _ in range(n):
            if templates and rng.random() < 0.6:
                src, tgt = (list(words) for words in rng.choice(templates))
                if rng.random() < 5 / 6:
                    src[rng.randrange(len(src))] = rng.choice(en)
                    tgt[rng.randrange(len(tgt))] = rng.choice(si)
                number = str(rng.randrange(1, 100_000))
                src, tgt = src + [number], tgt + [number]
            else:
                k = rng.randint(6, 14)
                src, tgt = rng.choices(en, k=k), rng.choices(si, k=k)
                templates.append((src, tgt))
            out.write(f"{' '.join(src)}\t{' '.join(tgt)}\n")


@pytest.mark.skipif(sys.platform != "linux", reason="needs ru_maxrss in KiB")
def test_removal_log_peak_memory_does_not_grow_with_the_removals(tmp_path):
    _write_boilerplate_tsv(tmp_path / "c.tsv", 60_000, seed=5)
    (tmp_path / "cfg.yaml").write_text(_BOILERPLATE_CONFIG)
    argv = ["run", "--config", str(tmp_path / "cfg.yaml"), "--tsv", str(tmp_path / "c.tsv")]
    without = _peak_rss_kib(*argv, "--out-dir", str(tmp_path / "plain"))
    with_log = _peak_rss_kib(*argv, "--out-dir", str(tmp_path / "logged"), "--removal-log")
    removed = len((tmp_path / "logged" / "removals.tsv").read_bytes().splitlines())
    assert removed > 30_000
    gap_mib = (with_log - without) / 1024
    assert gap_mib < 2.5, f"--removal-log raised the peak RSS by {gap_mib:.1f} MiB for {removed} removals"


def _spilling_run(tmp_path) -> list[str]:
    """run argv over a corpus whose first stage removes enough pairs to spill."""
    write_corpus(_stream_pairs(distinct=10, n=3 * pipeline._SPILL_ROWS), tmp_path / "s.txt", tmp_path / "t.txt")
    (tmp_path / "cfg.yaml").write_text(_STREAM_CONFIG)
    return [
        "run", "--config", str(tmp_path / "cfg.yaml"), "--out-dir", str(tmp_path / "out"),
        "--source", str(tmp_path / "s.txt"), "--target", str(tmp_path / "t.txt"), "--removal-log",
    ]


@pytest.mark.parametrize("case", ["success", "invalid UTF-8 on the last line", "removals.tsv is a directory"])
def test_removal_spills_leave_the_temp_dir_empty(tmp_path, monkeypatch, capsys, case):
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    argv = _spilling_run(tmp_path)
    if case == "invalid UTF-8 on the last line":
        with open(tmp_path / "s.txt", "ab") as src, open(tmp_path / "t.txt", "ab") as tgt:
            src.write(b"last alpha beta gamma delta\n")
            tgt.write(b"last \xff\n")
    if case == "removals.tsv is a directory":  # the spills are full, but no one reads them
        (tmp_path / "out" / "removals.tsv").mkdir(parents=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv) == (0 if case == "success" else 3)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert list(spill_dir.iterdir()) == []
    if case == "success":
        rows = (tmp_path / "out" / "removals.tsv").read_text(encoding="utf-8").splitlines()
        assert [row.split("\t")[0] for row in rows] == [str(i) for i in range(10, 3 * pipeline._SPILL_ROWS)]
    else:
        assert [path.name for path in tmp_path.glob("out/*")] == (["removals.tsv"] if "directory" in case else [])


def test_a_spill_that_cannot_be_written_exits_3(tmp_path, monkeypatch, capsys):
    spills = []

    class FullDisk(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: spills.append(FullDisk()) or spills[-1])
    assert run_cli(*_spilling_run(tmp_path)) == 3
    assert "data error: cannot spill removal rows" in capsys.readouterr().err
    assert spills and all(spill.closed for spill in spills)
    assert list(tmp_path.glob("out/*")) == []
