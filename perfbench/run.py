"""Benchmark of ``curate run`` on three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload web_preset --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``web_preset``,
``rank_only``, ``boilerplate_tsv``.  One invocation

1. generates the workload's inputs from ``--seed`` and computes the
   independent reference outputs (``reference.py``), in a child process;
2. runs the real CLI, ``python3 -m pdcurate.cli run``, as a child
   process with ``PYTHONPATH=src``, one child at a time, alternating a
   run on the corpus with two set-up runs (same command and config on an
   empty corpus), until ``--seconds`` have passed;
3. checks every child's outputs against the reference;
4. with ``--trace 1``, makes one more run in a traced child
   (``tracer.py``) and reports the per-layer metrics instead.

End-to-end metrics, each the median over the runs of one invocation:

* ``pairs_per_s``: input pairs / wall time of one child, spawn to exit;
* ``cpu_s``: user + system CPU time of that child, from its own rusage;
* ``peak_rss_mib``: ``ru_maxrss`` of that child alone, from ``os.wait4``;
* ``setup_s``: wall time of a set-up run.

``failed_frac`` (runs that exited non-zero, timed out or failed the
reference check, over runs attempted) is printed, and carried by the
``failed`` and ``attempted`` fields of the result.

Every child gets its own ``PYTHONHASHSEED``, derived from the seed and
the run index, and no ``CURATE_*`` variable.  Inputs, outputs and the
trace's spans go to ``.perfbench_work/<workload>`` under the checkout.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
TOTAL_BUDGET_S = 170.0
CHILD_TIMEOUT_S = 120.0
MIN_RUNS = 3
# A set-up run is short and its wall time noisy, so each corpus run is
# followed by two of them: the median of set-up time gets twice the samples.
SETUPS_PER_RUN = 2
RESERVE_S = 20.0


class BenchError(Exception):
    pass


def hash_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def child_env(seed_for_hash: int) -> dict[str, str]:
    """The caller's environment without CURATE_* overrides, package from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CURATE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed_for_hash)
    return env


class Child:
    """One finished child process: exit code, wall time and its own rusage."""

    def __init__(self, argv, env, out_dir: Path, timeout: float):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.timed_out = False
        with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
            self.started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(timeout, self._kill, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.ended = time.perf_counter()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall_s = self.ended - self.started
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mib = usage.ru_maxrss / 1024.0  # Linux reports KiB

    def _kill(self, proc) -> None:
        self.timed_out = True
        proc.kill()

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out

    def stderr_tail(self) -> str:
        return (self.out_dir / "stderr.txt").read_text(errors="replace")[-2000:]


def git_sha() -> str:
    """HEAD of the checkout itself; never of a repository above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg": list(os.getloadavg()),
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.perf_counter() + TOTAL_BUDGET_S
        self.work = WORK_ROOT / workload
        self.input = self.work / "input"
        self.hash_seeds: dict[str, int] = {}

    def timeout(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 1.0:
            raise BenchError("out of time budget")
        return min(CHILD_TIMEOUT_S, left)

    def helper(self, *args: str) -> dict:
        """Run a benchmark helper script in its own process; parse its JSON."""
        child = Child(
            [sys.executable, *args], child_env(0), self.work / "helper", self.timeout()
        )
        if not child.ok:
            raise BenchError(f"{args[0]} {args[1]} failed:\n{child.stderr_tail()}")
        lines = (child.out_dir / "stdout.txt").read_text().strip().splitlines()
        return json.loads(lines[-1])

    def cli_args(self, empty: bool, out_dir: Path) -> list[str]:
        spec = self.spec
        args = ["run", "--config", str(self.input / "config.yaml"), "--out-dir", str(out_dir)]
        if spec.tsv:
            args += ["--tsv", str(self.input / ("empty.tsv" if empty else "corpus.tsv"))]
        else:
            prefix = "empty." if empty else ""
            args += [
                "--source", str(self.input / f"{prefix}source.txt"),
                "--target", str(self.input / f"{prefix}target.txt"),
            ]
        if spec.removal_log:
            args.append("--removal-log")
        return args

    def cli_run(self, label: str, empty: bool) -> Child:
        out_dir = self.work / "runs" / label
        self.hash_seeds[label] = hash_seed(self.seed, label)
        argv = [sys.executable, "-m", "pdcurate.cli", *self.cli_args(empty, out_dir)]
        return Child(argv, child_env(self.hash_seeds[label]), out_dir, self.timeout())

    def check_package(self) -> None:
        child = Child(
            [sys.executable, "-c", "import pdcurate, sys; sys.stdout.write(pdcurate.__file__)"],
            child_env(0),
            self.work / "helper",
            self.timeout(),
        )
        where = (child.out_dir / "stdout.txt").read_text()
        expected = ROOT / "src" / "pdcurate"
        if not child.ok or Path(where).resolve().parent != expected.resolve():
            raise BenchError(f"pdcurate does not import from {expected}: {where or child.stderr_tail()}")

    def run(self) -> dict:
        if not (ROOT / "src" / "pdcurate" / "cli.py").is_file():
            raise BenchError(f"no pdcurate sources under {ROOT / 'src'}; run from a checkout root")
        env_info = environment()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.check_package()
        started = time.perf_counter()
        prepared = self.helper(
            str(BENCH_DIR / "reference.py"), "prepare",
            "--workload", self.workload, "--seed", str(self.seed), "--dir", str(self.work),
        )
        prepare_s = time.perf_counter() - started
        pairs = self.spec.pairs

        warm = self.cli_run("setup_warm", empty=True)  # compiles bytecode, fills caches
        runs: list[Child] = []
        setups: list[Child] = [warm]
        window_start = time.perf_counter()
        while len(runs) < MIN_RUNS or time.perf_counter() - window_start < self.seconds:
            cycle_start = time.perf_counter()
            runs.append(self.cli_run(f"run_{len(runs):03d}", empty=False))
            for _ in range(SETUPS_PER_RUN):
                setups.append(self.cli_run(f"setup_{len(setups) - 1:03d}", empty=True))
            # keep room for one more cycle, the traced run and the checks
            needed = 3 * (time.perf_counter() - cycle_start) + RESERVE_S
            if self.deadline - time.perf_counter() < needed:
                break

        traced = None
        if self.trace:
            label = "traced"
            out_dir = self.work / "runs" / label
            self.hash_seeds[label] = hash_seed(self.seed, label)
            argv = [
                sys.executable, str(BENCH_DIR / "tracer.py"), "--out", str(self.work / "trace_raw.json"),
                "--", *self.cli_args(False, out_dir),
            ]
            traced = Child(argv, child_env(self.hash_seeds[label]), out_dir, self.timeout())

        children = {c.out_dir.name: c for c in [*setups, *runs, *([traced] if traced else [])]}
        checks = self.helper(
            str(BENCH_DIR / "reference.py"), "check", "--dir", str(self.work),
            *(str(c.out_dir) for c in children.values() if c.ok),
        )
        failures = {}
        for name, child in children.items():
            if child.timed_out:
                failures[name] = ["timed out"]
            elif child.code != 0:
                failures[name] = [f"exit code {child.code}", child.stderr_tail()]
            elif not checks[name]["ok"]:
                failures[name] = checks[name]["errors"]
        good_runs = [c for c in runs if c.out_dir.name not in failures]
        good_setups = [c for c in setups if c.out_dir.name not in failures and c is not warm]
        if not good_runs or not good_setups:
            raise BenchError(f"no run succeeded: {json.dumps(failures)[:2000]}")

        samples = {
            "pairs_per_s": [pairs / c.wall_s for c in good_runs],
            "cpu_s": [c.cpu_s for c in good_runs],
            "peak_rss_mib": [c.peak_rss_mib for c in good_runs],
            "setup_s": [c.wall_s for c in good_setups],
        }
        digests = {checks[c.out_dir.name]["removals_digest"] for c in good_runs}
        reason_variants = len(digests - {None})

        summary = {
            "workload": self.workload,
            "seed": self.seed,
            "environment": env_info,
            "prepare_s": prepare_s,
            "reference": prepared,
            "runs": len(runs),
            "setup_runs": len(setups) - 1,
            "hash_seeds": self.hash_seeds,
            "samples": samples,
            "failures": failures,
            "dedup.reason_variants": reason_variants,
        }
        result = {"attempted": len(children), "failed": len(failures), "samples": samples, "summary": summary}
        if traced is not None:
            if traced.out_dir.name in failures:
                raise BenchError(f"traced run failed: {failures[traced.out_dir.name]}")
            untraced = statistics.median(c.wall_s for c in good_runs)
            result["layers"] = self.layers(traced, untraced, reason_variants)
        shutil.rmtree(self.input, ignore_errors=True)
        return result

    def layers(self, traced: Child, untraced_wall: float, reason_variants: int) -> dict:
        raw = json.loads((self.work / "trace_raw.json").read_text())
        process = {
            "trace_id": raw["trace_id"], "span_id": -1, "parent_id": None,
            "name": "process", "start": traced.started, "end": traced.ended,
        }
        for span in raw["spans"]:
            if span["parent_id"] is None:
                span["parent_id"] = -1
        raw["spans"].insert(0, process)
        self_times = tracer.self_times(raw["spans"])
        for span in raw["spans"]:
            span["self_s"] = self_times[span["span_id"]]
        (self.work / "spans.json").write_text(json.dumps(raw, indent=1))
        (self.work / "trace_raw.json").unlink()
        if raw["missing"]:
            print(f"warning: seams not found, their metrics read 0: {raw['missing']}", file=sys.stderr)
        return tracer.layer_metrics(raw, traced.wall_s, untraced_wall, reason_variants)


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of curate run on seeded workloads")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = declared_metrics()
        result = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    summary = result["summary"]
    print("benchmark: " + json.dumps(summary, sort_keys=True))
    units = declared["end_to_end"]
    for name, values in result["samples"].items():
        q1, q3 = quartiles(values)
        print(
            f"{name:<14} {statistics.median(values):>12.4f} {units[name]:<8} "
            f"median of {len(values)} (q1 {q1:.4f}, q3 {q3:.4f})"
        )
    print(f"{'failed_frac':<14} {result['failed'] / result['attempted']:>12.4f} {'fraction':<8} "
          f"{result['failed']} of {result['attempted']} runs")

    if args.trace:
        units = declared["per_layer"]
        values = result["layers"]
    else:
        values = {name: statistics.median(v) for name, v in result["samples"].items()}
    if set(values) != set(units):
        print(f"benchmark failed: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    if args.trace:
        for name in units:
            print(f"{name:<32} {values[name]:>16.6f} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
