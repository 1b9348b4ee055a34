"""Traced in-process run of ``curate``: spans at layer boundaries, counts per call.

Run from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/tracer.py --out TRACE.json -- run --config ... --out-dir ...

It installs wrappers, defined in this file, around the public functions
of each ``pdcurate`` module where the calling module looks them up, then
calls ``pdcurate.cli.main`` with the given arguments in this process.
No file of the package changes.  Spans and per-call totals stay in
memory and are written to TRACE.json when the run ends.

* Layer boundaries get a span each (name, start, end, parent, one trace
  id per run): ``pipeline.run``, ``corpus.read``, ``dedup.<i>``, the
  ranking calls and the writers.  Stateless filter stages run per pair,
  possibly on worker threads, so their span runs from the first call of
  the stage's predicate to the end of its last call.
* Per-pair functions (``normalize``, ``word_ngrams``, ``char_ratios``,
  ``script_predict``, the filter predicates) are counted and their time
  summed from the wrappers, over every thread; with the filter thread
  pool in use, those sums include time spent waiting for the GIL.
  ``SeenIndex`` probes and inserts are counted, not timed, and charged
  to the dedup stage that is pulling pairs at the time.
* A span's self time is its duration minus the part its child spans
  cover.  ``dedup.<i>.s`` further subtracts the ``normalize`` and
  ``word_ngrams`` time of that stage, which ``textnorm.*`` reports.

A seam that a later version of the package no longer has is listed under
``missing`` in TRACE.json, and the metrics it fed read 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time
import uuid
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter


class _ThreadTotals:
    """Per-thread counters, merged after the run, so threads never race."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.first = {}
        self.last = {}

    def add(self, name: str, started: float, ended: float) -> None:
        self.calls[name] += 1
        self.seconds[name] += ended - started
        if name not in self.first:
            self.first[name] = started
        self.last[name] = ended


class Tracer:
    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.counts = defaultdict(int)  # main-thread counters
        self.dedup = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._open: list[int] = []
        self._active_dedup: list[int] = []
        self._dedup_ids = itertools.count()
        self._local = threading.local()
        self._all_totals: list[_ThreadTotals] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ spans

    def _new_span(self, name: str, started: float) -> dict:
        span = {
            "trace_id": self.trace_id,
            "span_id": next(self._ids),
            "parent_id": self._open[-1] if self._open else None,
            "name": name,
            "start": started,
            "end": None,
        }
        self.spans.append(span)
        return span

    def span(self, name: str, fn, on_result=None):
        """Wrap a call that is one layer boundary: one span per call."""

        def wrapper(*args, **kwargs):
            span = self._new_span(name, perf())
            self._open.append(span["span_id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span["end"] = perf()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    # ------------------------------------------------------------ per call

    def totals(self) -> _ThreadTotals:
        mine = getattr(self._local, "totals", None)
        if mine is None:
            mine = self._local.totals = _ThreadTotals()
            with self._lock:
                self._all_totals.append(mine)
        return mine

    def per_call(self, name: str, fn, on_result=None, charge_dedup: bool = False):
        """Wrap a per-pair function: count calls and sum their time.

        With charge_dedup, the time is also charged to the dedup stage
        pulling pairs at the time, so that stage's self time excludes it.
        """

        def wrapper(*args, **kwargs):
            started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf()
                self.totals().add(name, started, ended)
                if charge_dedup and self._active_dedup and threading.current_thread() is threading.main_thread():
                    self.dedup[self._active_dedup[-1]]["textnorm_s"] += ended - started
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def merged(self):
        calls = defaultdict(int)
        seconds = defaultdict(float)
        first: dict[str, float] = {}
        last: dict[str, float] = {}
        for part in self._all_totals:
            for name, n in part.calls.items():
                calls[name] += n
            for name, spent in part.seconds.items():
                seconds[name] += spent
            for name, started in part.first.items():
                first[name] = min(first.get(name, started), started)
            for name, ended in part.last.items():
                last[name] = max(last.get(name, ended), ended)
        return calls, seconds, first, last

    # ------------------------------------------------------------ streams

    def read_stream(self, pairs, paths):
        """Time every pull from the corpus reader; one span first to last."""
        span = None
        spent = 0.0
        iterator = iter(pairs)
        while True:
            started = perf()
            if span is None:
                span = self._new_span("corpus.read", started)
            try:
                pair = next(iterator)
            except StopIteration:
                break
            finally:
                spent += perf() - started
            yield pair
        span["end"] = perf()
        self.counts["corpus.read_s"] += spent
        self.counts["corpus.bytes_read"] += sum(os.path.getsize(p) for p in paths)

    def dedup_stage(self, real_cls):
        """A DedupStream stand-in: one span per stage, pairs in/out, self time."""
        tracer = self

        class TracedDedupStream:
            def __init__(self, pairs, spec, **kwargs):
                self._i = next(tracer._dedup_ids)
                self._stats = tracer.dedup[self._i]
                self._inner = real_cls(self._pull(pairs), spec, **kwargs)

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def _pull(self, pairs):
                iterator = iter(pairs)
                while True:
                    started = perf()
                    try:
                        pair = next(iterator)
                    except StopIteration:
                        break
                    finally:
                        self._stats["upstream_s"] += perf() - started
                    self._stats["pairs_in"] += 1
                    yield pair

            def __iter__(self):
                iterator = iter(self._inner)
                span = None
                while True:
                    started = perf()
                    if span is None:
                        span = tracer._new_span(f"dedup.{self._i}", started)
                    tracer._active_dedup.append(self._i)
                    try:
                        pair = next(iterator)
                    except StopIteration:
                        break
                    finally:
                        tracer._active_dedup.pop()
                        self._stats["active_s"] += perf() - started
                    self._stats["pairs_out"] += 1
                    yield pair
                span["end"] = perf()

        return TracedDedupStream

    def count_index(self, name: str, fn, grows: bool = False):
        """Count SeenIndex calls for the dedup stage pulling pairs now."""

        def wrapper(index, key):
            stats = self.dedup[self._active_dedup[-1] if self._active_dedup else -1]
            stats[name] += 1
            if not grows:
                return fn(index, key)
            before = len(index)
            fn(index, key)
            stats["index_size"] += len(index) - before

        return wrapper


def _patch(tracer: Tracer, module, name: str, make) -> None:
    """Replace module.name by make(original); record a seam that is gone."""
    original = getattr(module, name, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{name}")
        return
    setattr(module, name, make(original))


def install(tracer: Tracer) -> None:
    from pdcurate import cli, dedup, filters, lid, pipeline

    def read_corpus(real):
        def wrapper(source_path=None, target_path=None, *, tsv_path=None):
            paths = [p for p in (source_path, target_path, tsv_path) if p is not None]
            return tracer.read_stream(real(source_path, target_path, tsv_path=tsv_path), paths)

        return wrapper

    def written(name):
        def record(result, args, kwargs):
            paths = [p for p in (*args[1:], *kwargs.values()) if isinstance(p, (str, os.PathLike))]
            tracer.counts[name] += sum(os.path.getsize(p) for p in paths if os.path.isfile(p))

        return record

    def loaded(store, args, kwargs):
        tracer.counts["ranking.embedding_bytes"] += store.vectors.nbytes

    def ranked(result, args, kwargs):
        tracer.counts["ranking.ranked_n"] += len(result)

    def run_args(result, args, kwargs):
        tracer.counts["pipeline.threads"] = kwargs.get("threads", 1)

    def removal_rows(result, args, kwargs):
        tracer.counts["cli.removal_log_rows"] += len(args[0])

    _patch(tracer, cli, "read_corpus", read_corpus)
    _patch(tracer, cli, "write_corpus", lambda f: tracer.span("corpus.write", f, written("corpus.bytes_written")))
    _patch(tracer, cli, "write_ranked_tsv", lambda f: tracer.span("ranking.write_ranked_tsv", f))
    _patch(tracer, cli, "_write_removal_log", lambda f: tracer.span("cli.removal_log", f, removal_rows))
    _patch(tracer, pipeline, "run", lambda f: tracer.span("pipeline.run", f, run_args))
    for module in (pipeline, cli):
        _patch(tracer, module, "DedupStream", tracer.dedup_stage)
        _patch(tracer, module, "load_embeddings", lambda f: tracer.span("ranking.load_embeddings", f, loaded))
        _patch(tracer, module, "rank_corpus", lambda f: tracer.span("ranking.rank_corpus", f, ranked))
        _patch(tracer, module, "top_k", lambda f: tracer.span("ranking.top_k", f))

    def ngrams_emitted(result):
        tracer.totals().calls["textnorm.ngrams_emitted"] += len(result)

    _patch(tracer, dedup, "normalize", lambda f: tracer.per_call("textnorm.normalize", f, charge_dedup=True))
    _patch(
        tracer, dedup, "word_ngrams",
        lambda f: tracer.per_call("textnorm.word_ngrams", f, ngrams_emitted, charge_dedup=True),
    )
    _patch(tracer, filters, "char_ratios", lambda f: tracer.per_call("textnorm.char_ratios", f))
    _patch(tracer, lid, "script_predict", lambda f: tracer.per_call("lid.script_predict", f))

    index_cls = getattr(dedup, "SeenIndex", None)
    if index_cls is None:
        tracer.missing.append("pdcurate.dedup.SeenIndex")
    else:
        index_cls.__contains__ = tracer.count_index("probes", index_cls.__contains__)
        index_cls.add = tracer.count_index("inserts", index_cls.add, grows=True)

    def predicate(kind_of):
        def make(real):
            def wrapper(pair, spec, *args, **kwargs):
                name = kind_of(spec)
                on_error = kwargs.get("on_error")
                if on_error is not None:

                    def counted(*err_args):
                        tracer.totals().calls["lid.failures"] += 1
                        on_error(*err_args)

                    kwargs["on_error"] = counted
                started = perf()
                try:
                    verdict = real(pair, spec, *args, **kwargs)
                finally:
                    totals = tracer.totals()
                    totals.add(name, started, perf())
                if verdict:
                    totals.calls[name + ".kept"] += 1
                return verdict

            return wrapper

        return make

    _patch(tracer, pipeline, "length_pass", predicate(lambda spec: "filters.length"))
    _patch(tracer, pipeline, "ratio_pass", predicate(lambda spec: f"filters.{spec.kind.value}"))
    _patch(tracer, pipeline, "lid_pass", predicate(lambda spec: "lid"))


def _stage_spans(tracer: Tracer, first: dict, last: dict) -> None:
    """Add one span per stateless stage: first predicate call to end of last."""
    run_span = next((s for s in tracer.spans if s["name"] == "pipeline.run"), None)
    for name in sorted(first, key=first.get):
        if name.startswith("filters.") and not name.endswith(".kept") or name == "lid":
            tracer.spans.append(
                {
                    "trace_id": tracer.trace_id,
                    "span_id": next(tracer._ids),
                    "parent_id": run_span["span_id"] if run_span else None,
                    "name": name,
                    "start": first[name],
                    "end": last[name],
                }
            )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent_id"]].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children[span["span_id"]], key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["span_id"]] = span["end"] - span["start"] - covered
    return result


def layer_metrics(trace: dict, process_wall: float, untraced_wall: float, reason_variants: int) -> dict:
    """The benchmark's per-layer metrics from one trace, as name -> value."""
    spans = trace["spans"]
    calls = defaultdict(int, trace["calls"])
    seconds = defaultdict(float, trace["seconds"])
    counts = defaultdict(float, trace["counts"])
    selfs = self_times(spans)

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    run_spans = [s for s in spans if s["name"] == "pipeline.run"]
    writers = total("corpus.write") + total("ranking.write_ranked_tsv") + total("cli.removal_log")
    m = {
        "corpus.read_s": counts["corpus.read_s"],
        "corpus.bytes_read": counts["corpus.bytes_read"],
        "corpus.write_s": total("corpus.write"),
        "corpus.bytes_written": counts["corpus.bytes_written"],
    }
    for short in ("normalize", "word_ngrams", "char_ratios"):
        m[f"textnorm.{short}_calls"] = calls[f"textnorm.{short}"]
        m[f"textnorm.{short}_s"] = seconds[f"textnorm.{short}"]
    m["textnorm.ngrams_emitted"] = calls["textnorm.ngrams_emitted"]
    for i in ("0", "1"):
        st = defaultdict(float, trace["dedup"].get(i, {}))
        probes, inserts = st["probes"], st["inserts"]
        m[f"dedup.{i}.s"] = st["active_s"] - st["textnorm_s"] - st["upstream_s"]
        m[f"dedup.{i}.pairs_in"] = st["pairs_in"]
        m[f"dedup.{i}.pairs_out"] = st["pairs_out"]
        m[f"dedup.{i}.probes"] = probes
        m[f"dedup.{i}.inserts"] = inserts
        m[f"dedup.{i}.index_size"] = st["index_size"]
        m[f"dedup.{i}.hashes_per_insert"] = (probes + inserts) / inserts if inserts else 0.0
        m[f"dedup.{i}.removed_per_probe"] = (st["pairs_in"] - st["pairs_out"]) / probes if probes else 0.0
    m["dedup.reason_variants"] = reason_variants
    for kind in ("length", "sentwratio"):
        m[f"filters.{kind}.s"] = total(f"filters.{kind}")
        m[f"filters.{kind}.pairs_in"] = calls[f"filters.{kind}"]
        m[f"filters.{kind}.pairs_out"] = calls[f"filters.{kind}.kept"]
    m["lid.s"] = total("lid")
    m["lid.script_predict_calls"] = calls["lid.script_predict"]
    m["lid.script_predict_s"] = seconds["lid.script_predict"]
    m["lid.failures"] = calls["lid.failures"]
    m["ranking.load_embeddings_s"] = total("ranking.load_embeddings")
    m["ranking.embedding_bytes"] = counts["ranking.embedding_bytes"]
    m["ranking.rank_corpus_s"] = total("ranking.rank_corpus")
    m["ranking.ranked_n"] = counts["ranking.ranked_n"]
    m["ranking.top_k_s"] = total("ranking.top_k")
    m["ranking.write_ranked_tsv_s"] = total("ranking.write_ranked_tsv")
    m["pipeline.run_s"] = total("pipeline.run")
    m["pipeline.self_s"] = sum(selfs[s["span_id"]] for s in run_spans)
    m["pipeline.threads"] = counts["pipeline.threads"]
    m["cli.self_s"] = process_wall - total("pipeline.run") - writers
    m["cli.removal_log_s"] = total("cli.removal_log")
    m["cli.removal_log_rows"] = counts["cli.removal_log_rows"]
    m["trace.overhead_s"] = process_wall - untraced_wall
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process curate run")
    parser.add_argument("--out", required=True, help="where to write spans and totals (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    install(tracer)
    from pdcurate import cli

    started = perf()
    code = cli.main(cli_args)
    ended = perf()
    calls, seconds, first, last = tracer.merged()
    _stage_spans(tracer, first, last)
    root = {
        "trace_id": tracer.trace_id,
        "span_id": 0,
        "parent_id": None,
        "name": "cli.main",
        "start": started,
        "end": ended,
    }
    for span in tracer.spans:
        if span["parent_id"] is None:
            span["parent_id"] = 0
    trace = {
        "trace_id": tracer.trace_id,
        "exit_code": code,
        "spans": [root, *tracer.spans],
        "calls": dict(calls),
        "seconds": dict(seconds),
        "counts": dict(tracer.counts),
        "dedup": {str(i): dict(stats) for i, stats in sorted(tracer.dedup.items())},
        "missing": tracer.missing,
    }
    Path(args.out).write_text(json.dumps(trace), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
