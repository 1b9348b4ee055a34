"""The benchmark's web_preset generator is criterion 7's corpus.

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench/tests

The acceptance fixture's generator lives in ``tests/test_acceptance.py``
and the benchmark's in ``perfbench/workloads.py``; with criterion 7's
parameters (seed 99, 1,000,000 pairs) both must write the same
``source.txt`` and ``target.txt`` byte for byte, so the benchmark and
the acceptance gate measure one corpus.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def _acceptance_module():
    spec = importlib.util.spec_from_file_location(
        "acceptance_for_parity", ROOT / "tests" / "test_acceptance.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digests(directory: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in ("source.txt", "target.txt")
    )


def test_web_preset_generator_matches_criterion_7_fixture(tmp_path):
    fixture_dir = tmp_path / "fixture"
    bench_dir = tmp_path / "bench"
    fixture_dir.mkdir()
    bench_dir.mkdir()
    _acceptance_module()._write_million_pair_corpus(fixture_dir, 1_000_000)
    workloads.write_two_file(
        workloads.web_pairs(99, 1_000_000), bench_dir / "source.txt", bench_dir / "target.txt"
    )
    assert _digests(bench_dir) == _digests(fixture_dir)
