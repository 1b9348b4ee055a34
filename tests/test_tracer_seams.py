"""The benchmark's tracer still finds every seam of the package it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pdcurate
from pdcurate.corpus import SentencePair, write_corpus
from pdcurate.ranking import write_embeddings

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_seam_on_the_recommended_preset(tmp_path):
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    pairs = [
        SentencePair(i, " ".join(words[i % 7 : i % 7 + 6]), "මම ගෙදර යමි හොඳයි දැන් අද")
        for i in range(40)
    ]
    write_corpus(pairs, tmp_path / "s.txt", tmp_path / "t.txt")
    vectors = np.random.default_rng(0).normal(size=(len(pairs), 4)).astype(np.float32)
    write_embeddings(vectors, tmp_path / "e.bin")
    env = {key: value for key, value in os.environ.items() if not key.startswith("CURATE_")}
    env["PYTHONPATH"] = str(Path(pdcurate.__file__).parents[1])  # the package under test
    preset = subprocess.run(
        [
            sys.executable, "-m", "pdcurate.cli", "preset", "--pair", "en-si",
            "--src-emb", "e.bin", "--tgt-emb", "e.bin", "--top-k", "5",
        ],
        cwd=tmp_path, capture_output=True, text=True, env=env, check=True,
    )
    (tmp_path / "cfg.yaml").write_text(preset.stdout)
    proc = subprocess.run(
        [
            sys.executable, str(TRACER), "--out", "trace.json", "--",
            "run", "--config", "cfg.yaml", "--source", "s.txt", "--target", "t.txt",
            "--out-dir", "out", "--removal-log",
        ],
        cwd=tmp_path, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["missing"] == []
    assert trace["exit_code"] == 0
    assert set(trace["dedup"]) == {"0", "1"}  # both dedup stages were traced
