"""The ``curate`` command line tool.

One subcommand per capability so that full ablation grids (every
heuristic, side and threshold combination) can be scripted from the
shell:

* ``curate run``     full config-driven pipeline
* ``curate preset``  print the recommended pipeline config as YAML
* ``curate dedup``   one deduplication stage
* ``curate filter``  one stateless filter stage
* ``curate rank``    cosine ranking and top-k extraction
* ``curate stats``   corpus counts and reduction vs a reference
* ``curate synth``   generate a labeled synthetic corpus
* ``curate lid``     export script-detector predictions for caching
* ``curate report``  disparity/reduction tables from a score TSV

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
error.  Every value flag can also be set through an environment
variable: ``--min-words`` reads ``CURATE_MIN_WORDS``, ``--top-k`` reads
``CURATE_TOP_K`` and so on.  Each corpus flag group is given whole:
both of ``--source/--target`` or ``--tsv`` alone, and the same for
``stats``' ``--ref-*`` flags and ``synth``'s ``--source-out/--target-out``;
``preset``'s ``--src-emb``, ``--tgt-emb`` and ``--top-k`` go all three or
none (``CURATE_TOP_K`` counts as ``--top-k``).  ``--threads`` (on run
only) is accepted for compatibility and has no effect: the stages run a
block of pairs at a time, in order, in one thread.

``dedup`` and ``filter`` are one-stage runs of the same pipeline as
``run``, and ``rank`` is a stage-free run of it with ranking.  ``run``,
``dedup`` and ``filter`` write the output corpus while they read the
input.  Ranking holds ids and scores, never texts: at most about
2 * max(k, 8192) of them with ``--top-k k``, and all of them, 16 bytes
per pair, without it.  The top-k pairs are then read back from the
input files by line number, so an input file that changes during the
run is a data error.  ``run --removal-log``, ``dedup --log``
and ``filter --log`` stream the removal rows from the run's per-stage
spills in the temp dir (TMPDIR) into the log, so the log costs about
its own size on disk, not in memory.  All output files are written atomically
and published together: each goes to a temp file, and the temp files
are renamed into place only when the command succeeds.  An interrupted
or failed command unlinks them, so it leaves no output file at all.

``main`` sets ``OPENBLAS_NUM_THREADS=1`` unless it is already set, before
numpy is first imported: no kernel here makes a multithreaded BLAS call,
and OpenBLAS would otherwise start an idle worker thread per extra core.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import pipeline as pl
from .corpus import LanguagePair, Side, atomic_write, compute_stats, corpus_stamps, deferred_renames
from .corpus import fetch_pairs, read_corpus, write_corpus
from .dedup import DedupStream
from .errors import ConfigError, CurateError, DataError
from .filters import SENT_RATIO_THRESHOLD
from .lid import export_predictions
from .metrics import disparity_report, format_disparity_report, read_score_table, write_disparity_report
from .ranking import load_embeddings, rank_corpus, top_k, write_ranked_tsv
from .synthnoise import generate, load_recipe, recipe_from_dict, score_filters, write_labeled_tsv
from .textnorm import NormMode

# DedupStream, load_embeddings, rank_corpus and top_k are unused here; they
# are imported only because the benchmark's tracer wraps them on this module.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_TICK_EVERY = 100_000


class _EnvArgumentParser(argparse.ArgumentParser):
    """argparse with CURATE_<DEST> environment defaults for every option.

    CURATE_TOP_K=10 acts like --top-k 10, CURATE_MIN_WORDS=4 like
    --min-words 4, and so on; explicit flags always win.  String
    defaults go through the normal argparse type conversion.
    """

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if not action.option_strings or action.dest is argparse.SUPPRESS:
            return action
        raw = os.environ.get(f"CURATE_{action.dest.upper()}")
        if raw is None:
            return action
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            action.default = raw.strip().lower() in ("1", "true", "yes", "on")
        elif isinstance(action, argparse._AppendAction):
            action.default = [raw]
        else:
            action.default = raw
        action.required = False
        return action


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", help="source-side text file")
    parser.add_argument("--target", help="target-side text file")
    parser.add_argument("--tsv", help="source<TAB>target file instead of two files")


def _flag_group(args, source: str, target: str, tsv: str | None = None) -> dict | None:
    """The paths of one corpus flag group as corpus I/O keywords; None when none is given.

    The source and target flags go together, the TSV flag (if the group
    has one) goes alone; any other mix is a ConfigError.
    """
    paths = {
        "source_path": getattr(args, source),
        "target_path": getattr(args, target),
        "tsv_path": getattr(args, tsv) if tsv else None,
    }
    given = [key for key, path in paths.items() if path is not None]
    if given not in ([], ["source_path", "target_path"], ["tsv_path"]):
        usage = f"--{source} and --{target} together" + (f", or --{tsv} alone" if tsv else "")
        raise ConfigError("give " + usage.replace("_", "-"))
    return paths if given else None


def _open_corpus(args):
    """The command's corpus as read_corpus's stream, and its paths as keywords."""
    paths = _flag_group(args, "source", "target", "tsv")
    if paths is None:
        raise ConfigError("need --source and --target (or --tsv)")
    return read_corpus(**paths), paths


def _ticker(pairs, label: str):
    count = 0
    for pair in pairs:
        count += 1
        if count % _TICK_EVERY == 0:
            print(f"{label}: {count} pairs", file=sys.stderr)
        yield pair


def _writer(out_dir: Path, paths: dict) -> pl.Sink:
    """A pipeline sink that writes the output corpus, and scores.tsv after ranking.

    The ranked pairs are read back from the corpus files at paths, which
    must not change after this call.
    """
    stamps = corpus_stamps(**paths)

    def write(pairs, ranked) -> None:
        if ranked is not None:
            pairs = fetch_pairs(ranked.id_array, stamps, **paths)
        if paths["tsv_path"] is not None:
            write_corpus(pairs, tsv_path=out_dir / "corpus.tsv")
        else:
            write_corpus(pairs, out_dir / "source.txt", out_dir / "target.txt")
        if ranked is not None:
            write_ranked_tsv(ranked, fetch_pairs(ranked.id_array, stamps, **paths), out_dir / "scores.tsv")

    return write


def _run(config: pl.PipelineConfig, args, log_path=None, stage: str | None = None) -> pl.RunReport:
    """Run config over the command's corpus and write the output into --out-dir.

    With log_path, the removal rows go there, streamed from the run's
    spills; stage, if given, replaces each row's stage name.
    """
    pairs, paths = _open_corpus(args)
    sink = _writer(Path(args.out_dir), paths)  # records the corpus stamps before the run
    # extend writes the log file; it looks _write_removal_log up when called, so
    # a wrapper on that name (as an instrumented run puts there) gets the rows
    log = None
    if log_path is not None:
        log = SimpleNamespace(extend=lambda rows: _write_removal_log(rows, log_path, stage))
    return pl.run(config, _ticker(pairs, "read"), removal_log=log, sink=sink).report


def _parse(from_string, value: str):
    """from_string(value), with a ValueError raised as a ConfigError."""
    try:
        return from_string(value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_removal_log(rows, path, stage: str | None = None) -> None:
    """Write (id, stage, reason) rows as TSV lines; stage, if given, names every row's stage."""
    with atomic_write(path) as out:
        for pair_id, row_stage, reason in rows:
            out.write(f"{pair_id}\t{stage or row_stage}\t{reason}\n")


# ---------------------------------------------------------------- run


def cmd_run(args) -> int:
    config = pl.load_config(args.config)
    out_dir = Path(args.out_dir)
    started = time.perf_counter()
    report = _run(config, args, out_dir / "removals.tsv" if args.removal_log else None)
    written = report.total.retained_count if report.ranking is None else report.ranking.emitted
    report_text = report.to_text()
    with atomic_write(out_dir / "report.txt") as out:
        out.write(report_text)
    with atomic_write(out_dir / "report.tsv") as out:
        out.write(report.to_tsv())
    if config.report:
        with atomic_write(config.report) as out:
            out.write(report_text)
    print(report_text, end="")
    print(f"wrote {written} pairs to {out_dir} in {time.perf_counter() - started:.1f}s")
    return EXIT_OK


def cmd_preset(args) -> int:
    ranking = None
    if args.src_emb or args.tgt_emb or args.top_k is not None:
        if not (args.src_emb and args.tgt_emb) or args.top_k is None:
            raise ConfigError("ranking needs --src-emb, --tgt-emb and --top-k together")
        ranking = pl.RankingSpec(args.src_emb, args.tgt_emb, args.top_k)
    config = pl.recommended_preset(
        _parse(LanguagePair.from_string, args.pair),
        n=args.ngram,
        ratio_lo=args.ratio,
        dedup_side=_parse(Side.from_string, args.dedup_side),
        ranking=ranking,
    )
    sys.stdout.write(pl.dump_config(config))
    return EXIT_OK


# ---------------------------------------------------------------- dedup


def cmd_dedup(args) -> int:
    entry = {"kind": "dedup", "side": args.side, "params": {"norm": args.norm, "ngram": args.ngram}}
    spec = pl.stage_from_dict(entry, None)
    # the log names the only stage without run's "0:" position prefix
    report = _run(pl.PipelineConfig(LanguagePair("en", "si"), stages=(spec,)), args, args.log, spec.describe())
    written = report.total.retained_count
    print(f"kept {written}, removed {report.total.pair_count - written} ({spec.describe()})")
    return EXIT_OK


# ---------------------------------------------------------------- filter


def cmd_filter(args) -> int:
    language_pair = _parse(LanguagePair.from_string, args.pair) if args.pair else None
    params = {"min_words": args.min_words, "min_prob": args.min_prob, "lo": args.lo, "hi": args.hi}
    entry = {
        "kind": args.kind,
        "side": args.side,
        "params": {key: value for key, value in params.items() if value is not None},
    }
    lid_predictions = None
    if args.predictions or args.src_predictions or args.tgt_predictions:
        lid_predictions = pl.LidPredictionFiles(
            path=args.predictions, source=args.src_predictions, target=args.tgt_predictions
        )
    config = pl.PipelineConfig(
        language_pair=language_pair or LanguagePair("en", "si"),
        stages=(pl.stage_from_dict(entry, language_pair),),
        lid_predictions=lid_predictions,
    )
    report = _run(config, args, args.log)
    written = report.total.retained_count
    print(f"kept {written}, removed {report.total.pair_count - written} ({args.kind}@{args.side})")
    if report.lid_failures:
        print(f"lid failures (failed closed): {report.lid_failures}")
    return EXIT_OK


# ---------------------------------------------------------------- rank


def cmd_rank(args) -> int:
    # without --top-k the one batch of survivors holds every id
    k = sys.maxsize if args.top_k is None else args.top_k
    ranking = pl.RankingSpec(args.src_emb, args.tgt_emb, k)
    report = _run(pl.PipelineConfig(LanguagePair("en", "si"), ranking=ranking), args)
    count, ranked = report.total.pair_count, report.ranking
    if args.top_k is not None and args.top_k > count:
        print(f"warning: --top-k {args.top_k} exceeds corpus size {count}; keeping all", file=sys.stderr)
    print(f"ranked {count} pairs, wrote top {ranked.emitted} (dim {ranked.dim})")
    if ranked.zero_norm_count:
        print(f"zero-norm vectors scored 0: {ranked.zero_norm_count}")
    return EXIT_OK


# ---------------------------------------------------------------- stats


def cmd_stats(args) -> int:
    reference_paths = _flag_group(args, "ref_source", "ref_target", "ref_tsv")
    count = sum(1 for _ in _open_corpus(args)[0])
    print(f"pairs: {count}")
    if reference_paths is not None:
        reference = sum(1 for _ in read_corpus(**reference_paths))
        print(f"reference: {reference}")
        print(f"reduction: {compute_stats(reference, count).reduction_pct:.2f}%")
    return EXIT_OK


# ---------------------------------------------------------------- synth


def cmd_synth(args) -> int:
    corpus_paths = _flag_group(args, "source_out", "target_out")
    if args.recipe is not None:
        if args.pairs is not None or args.rate:
            raise ConfigError("give either --recipe or inline --pairs/--rate flags, not both")
        recipe = load_recipe(args.recipe)
    else:
        if args.pairs is None:
            raise ConfigError("need --pairs N (or a --recipe file)")
        rates = {}
        for entry in args.rate or []:
            try:
                code, value = entry.split("=")
                rate = float(value)
            except ValueError:
                raise ConfigError(f"--rate takes LABEL=FRACTION, got {entry!r}") from None
            if code in rates:  # recipe_from_dict rejects one label spelled two ways, like cs and CS
                raise ConfigError(f"--rate gives label {code} twice")
            rates[code] = rate
        recipe = recipe_from_dict(
            {
                "seed": args.seed,
                "pair_count": args.pairs,
                "rates": rates,
                "duplicate_rate": args.duplicates,
                "language_pair": args.pair,
            }
        )
    labeled = generate(recipe)
    write_labeled_tsv(labeled, args.out)
    print(f"wrote {len(labeled)} labeled pairs to {args.out}")
    if corpus_paths is not None:
        write_corpus((item.pair for item in labeled), **corpus_paths)
        print(f"wrote corpus to {args.source_out} / {args.target_out}")
    if args.score_config:
        config = pl.load_config(args.score_config)
        score = score_filters(labeled, config)
        print(score.to_text(), end="")
    return EXIT_OK


# ---------------------------------------------------------------- lid


def cmd_lid(args) -> int:
    side = _parse(Side.from_string, args.side)
    if side is Side.BOTH:
        raise ConfigError("export one side at a time: --side s or --side t")
    pairs, _ = _open_corpus(args)
    count = export_predictions(_ticker(pairs, "read"), side, args.out)
    print(f"wrote {count} predictions to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- report


def cmd_report(args) -> int:
    table = read_score_table(args.scores)
    rows = disparity_report(table, args.reference, baseline_tag=args.baseline_tag)
    if args.out:
        write_disparity_report(rows, args.out)
        print(f"wrote {len(rows)} report rows to {args.out}")
    else:
        sys.stdout.write(format_disparity_report(rows))
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _EnvArgumentParser(
        prog="curate",
        description="Heuristic filtering and similarity ranking for parallel corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full pipeline from a config file")
    p_run.add_argument("--config", required=True, help="pipeline config (YAML)")
    _add_corpus_args(p_run)
    p_run.add_argument("--out-dir", required=True)
    p_run.add_argument("--removal-log", action="store_true", help="also write removals.tsv")
    p_run.add_argument(
        "--threads",
        type=int,
        default="1",
        help="accepted for compatibility; has no effect (stages run serially)",
    )
    p_run.set_defaults(func=cmd_run)

    p_preset = sub.add_parser("preset", help="print the recommended pipeline config")
    p_preset.add_argument("--pair", required=True, help="language pair tag, like en-si")
    p_preset.add_argument("--ngram", type=int, default="5")
    p_preset.add_argument("--ratio", type=float, default=SENT_RATIO_THRESHOLD)
    p_preset.add_argument("--dedup-side", default="t", choices=["t", "st"])
    p_preset.add_argument("--src-emb")
    p_preset.add_argument("--tgt-emb")
    p_preset.add_argument("--top-k", type=int)
    p_preset.set_defaults(func=cmd_preset)

    p_dedup = sub.add_parser("dedup", help="apply one deduplication stage")
    _add_corpus_args(p_dedup)
    p_dedup.add_argument("--norm", default="identity", choices=[mode.value for mode in NormMode])
    p_dedup.add_argument("--ngram", type=int, default=None, help="n-gram overlap order (omit for full-sentence)")
    p_dedup.add_argument("--side", default="st", help="s, t or st")
    p_dedup.add_argument("--out-dir", required=True)
    p_dedup.add_argument("--log", help="write removal log TSV here")
    p_dedup.set_defaults(func=cmd_dedup)

    p_filter = sub.add_parser("filter", help="apply one stateless filter")
    _add_corpus_args(p_filter)
    p_filter.add_argument(
        "--kind",
        required=True,
        choices=[kind for kind in pl._STAGE_KINDS_BY_NAME if kind != "dedup"],
    )
    p_filter.add_argument("--side", default="st", help="s, t or st")
    p_filter.add_argument("--min-words", type=int, default=None)
    p_filter.add_argument("--min-prob", type=float, default=None)
    p_filter.add_argument("--lo", type=float, default=None)
    p_filter.add_argument("--hi", type=float, default=None)
    p_filter.add_argument("--pair", help="expected languages for LID, like en-si")
    p_filter.add_argument("--predictions", help="id/label/prob TSV used for any checked side")
    p_filter.add_argument("--src-predictions", help="prediction TSV for the source side")
    p_filter.add_argument("--tgt-predictions", help="prediction TSV for the target side")
    p_filter.add_argument("--out-dir", required=True)
    p_filter.add_argument("--log", help="write removal log TSV here")
    p_filter.set_defaults(func=cmd_filter)

    p_rank = sub.add_parser("rank", help="rank by cosine similarity and slice top-k")
    _add_corpus_args(p_rank)
    p_rank.add_argument("--src-emb", required=True)
    p_rank.add_argument("--tgt-emb", required=True)
    p_rank.add_argument("--top-k", type=int, default=None)
    p_rank.add_argument("--out-dir", required=True)
    p_rank.set_defaults(func=cmd_rank)

    p_stats = sub.add_parser("stats", help="pair counts and reduction vs a reference corpus")
    _add_corpus_args(p_stats)
    p_stats.add_argument("--ref-source")
    p_stats.add_argument("--ref-target")
    p_stats.add_argument("--ref-tsv")
    p_stats.set_defaults(func=cmd_stats)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p_synth.add_argument("--recipe", help="YAML recipe file instead of inline flags")
    p_synth.add_argument("--pairs", type=int, help="total pair count")
    p_synth.add_argument("--seed", type=int, default="0")
    p_synth.add_argument("--pair", default="en-si")
    p_synth.add_argument(
        "--rate",
        action="append",
        metavar="LABEL=FRACTION",
        help="injection rate, repeatable (e.g. --rate CS=0.1)",
    )
    p_synth.add_argument("--duplicates", type=float, default="0")
    p_synth.add_argument("--out", required=True, help="labeled TSV output path")
    p_synth.add_argument("--source-out", help="also write the bare corpus: source side")
    p_synth.add_argument("--target-out", help="also write the bare corpus: target side")
    p_synth.add_argument("--score-config", help="score these stages against the planted truth")
    p_synth.set_defaults(func=cmd_synth)

    p_lid = sub.add_parser("lid", help="export script-detector predictions for caching")
    _add_corpus_args(p_lid)
    p_lid.add_argument("--side", required=True, help="s or t")
    p_lid.add_argument("--out", required=True)
    p_lid.set_defaults(func=cmd_lid)

    p_report = sub.add_parser("report", help="disparity tables from a score TSV")
    p_report.add_argument("--scores", required=True)
    p_report.add_argument("--reference", required=True, help="reference model tag")
    p_report.add_argument("--baseline-tag", default="baseline")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # importing this module loads no numpy
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with deferred_renames():
            try:
                return args.func(args)
            except BrokenPipeError:  # only stdout's reader has gone; the files are whole
                return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CurateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
