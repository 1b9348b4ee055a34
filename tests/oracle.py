"""An independent reference for ``curate run``: the files and counts a run must give.

It imports nothing from ``pdcurate`` and shares no code with it, so a
bug that a block kernel and a per-text function of the package share
still shows.  Every rule is written the plain way, a character at a
time:

* tokens are ``str.split()``;
* the strip modes and the alpha ratios read ``unicodedata`` categories:
  ``nums`` drops Nd, ``punctnums`` drops Nd, P* and S*, and alpha is
  L* or M*;
* script LID counts the ``str.isalpha`` letters of each script's Unicode
  blocks; the majority script wins, ties in the order en, si, ta;
* dedup keeps one set of key strings per side, and a removed pair's
  reason is its first key, source keys before target keys, that an
  earlier kept pair holds on the same side;
* ranking scores ``dot / (sqrt(|a|^2) * sqrt(|b|^2))`` of integer
  vectors, clamped to [-1, 1], and sorts by (-score, id).

Each stage sees the whole list of survivors of the stage before, in id
order.  Stages are given as a config file lists them:
``{"kind", "side", "params"}`` mappings.  This module is a helper of the
tests and holds no test itself.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field

SIDES = {"s": ("s",), "t": ("t",), "st": ("s", "t")}

# ---------------------------------------------------------------- text


def stripped(char: str, norm: str) -> bool:
    category = unicodedata.category(char)
    return norm != "identity" and (category == "Nd" or norm == "punctnums" and category[0] in "PS")


def strip(text: str, norm: str) -> str:
    """The text after norm: unchanged for ``identity``, else the kept characters' tokens joined by one space."""
    if norm == "identity":
        return text
    return " ".join("".join(char for char in text if not stripped(char, norm)).split())


def dedup_keys(text: str, norm: str, ngram: int | None) -> list[str]:
    """The text's dedup keys in positional order: its stripped text, or its n-token windows."""
    normalized = strip(text, norm)
    if ngram is None:
        return [normalized]
    words = normalized.split()
    return [" ".join(words[at : at + ngram]) for at in range(len(words) - ngram + 1)]


def is_alpha(char: str) -> bool:
    return unicodedata.category(char)[0] in "LM"


def alpha_char_ratio(text: str) -> float:
    """Alpha characters among the non-whitespace ones; 1.0 when there is none."""
    chars = [char for char in text if not char.isspace()]
    return sum(map(is_alpha, chars)) / len(chars) if chars else 1.0


def alpha_word_ratio(text: str) -> float:
    """Tokens of alpha characters only among all tokens; 1.0 when there is none."""
    words = text.split()
    return sum(all(map(is_alpha, word)) for word in words) / len(words) if words else 1.0


SCRIPTS = (
    ("en", ((0x0041, 0x005A), (0x0061, 0x007A), (0x00C0, 0x00FF), (0x0100, 0x024F), (0x1E00, 0x1EFF))),
    ("si", ((0x0D80, 0x0DFF),)),
    ("ta", ((0x0B80, 0x0BFF),)),
)


def script_label(text: str) -> tuple[str, float]:
    """(label, probability): the majority letter script and its share of all letters, or ("und", 0.0)."""
    letters = [ord(char) for char in text if char.isalpha()]
    counts = [sum(any(lo <= cp <= hi for lo, hi in blocks) for cp in letters) for _, blocks in SCRIPTS]
    best = max(counts)
    if best == 0:
        return "und", 0.0
    return SCRIPTS[counts.index(best)][0], best / len(letters)


# ---------------------------------------------------------------- stages


def dedup(rows: list, norm: str, ngram: int | None, side: str) -> tuple[list, list[tuple[int, str]]]:
    """The kept rows, and (id, reason) of each removed one; rows are (id, source, target)."""
    seen = {"s": set(), "t": set()}
    kept, removed = [], []
    for row in rows:
        keys = [(name, dedup_keys(row[1 if name == "s" else 2], norm, ngram)) for name in SIDES[side]]
        reason = next((key for name, side_keys in keys for key in side_keys if key in seen[name]), None)
        if reason is None:
            for name, side_keys in keys:
                seen[name].update(side_keys)
            kept.append(row)
        else:
            removed.append((row[0], reason))
    return kept, removed


def stage_name(index: int, stage: dict) -> str:
    kind, params, side = stage["kind"], stage.get("params") or {}, stage.get("side", "st")
    if kind == "dedup":
        ngram = params.get("ngram")
        return f"{index}:dedup[{params.get('norm') or 'identity'}]{'' if ngram is None else f'-{ngram}gram'}@{side}"
    return f"{index}:{'lid' if kind == 'lidthresh' else kind}@{side}"


@dataclass
class Run:
    """What a run gives: the output rows in output order, removal rows, and report counts."""

    rows: list
    removals: list[tuple[int, str, str]] = field(default_factory=list)
    stages: list[tuple[str, int, int]] = field(default_factory=list)  # (name, in, out)
    lid_failures: int = 0
    scores: list[float] | None = None  # of rows, when ranked
    ranking: tuple[int, int, int, int] | None = None  # requested k, emitted, dim, zero-norm pairs
    warnings: list[str] = field(default_factory=list)


def _lid(row, expected: dict, min_prob, sides, tables) -> tuple[bool, bool]:
    """(kept, failed) of one pair; the sides are checked in order, and the first that fails decides."""
    for name in sides:
        if tables is None:
            label, prob = script_label(row[1 if name == "s" else 2])
        elif tables.get(name) is None or row[0] not in tables[name]:
            return False, True
        else:
            label, prob = tables[name][row[0]]
        if label != expected[name] or min_prob is not None and prob < min_prob:
            return False, False
    return True, False


def run(
    rows: list,
    stages: list[dict],
    language_pair: tuple[str, str] = ("en", "si"),
    tables: dict | None = None,
    ranking: tuple[list, list, int] | None = None,
) -> Run:
    """Run the stages over rows, (id, source, target) in id order, then rank the survivors.

    tables, if given, maps "s" and "t" to {id: (label, prob)} or None
    (no table for that side), for LID in place of the script detector.
    ranking is (source vectors, target vectors, k), the vectors lists
    of integer tuples indexed by id.
    """
    result = Run(rows=list(rows))
    for index, stage in enumerate(stages):
        kind, params, side = stage["kind"], stage.get("params") or {}, stage.get("side", "st")
        name = stage_name(index, stage)
        before = result.rows
        if kind == "dedup":
            kept, removed = dedup(before, params.get("norm") or "identity", params.get("ngram"), side)
            result.removals += [(pair_id, name, reason) for pair_id, reason in removed]
        else:
            kept = []
            for row in before:
                texts = [row[1 if checked == "s" else 2] for checked in SIDES[side]]
                if kind == "length":
                    keep = all(len(text.split()) >= params.get("min_words", 5) for text in texts)
                elif kind in ("lid", "lidthresh"):
                    expected = {
                        "s": params.get("expected_source", language_pair[0]),
                        "t": params.get("expected_target", language_pair[1]),
                    }
                    min_prob = params.get("min_prob", 0.7 if kind == "lidthresh" else None)
                    keep, failed = _lid(row, expected, min_prob, SIDES[side], tables)
                    result.lid_failures += failed
                elif kind == "stratio":
                    source, target = len(row[1].split()), len(row[2].split())
                    keep = target > 0 and params["lo"] <= source / target <= params["hi"]
                else:
                    ratio = alpha_char_ratio if kind == "sentcratio" else alpha_word_ratio
                    keep = all(ratio(text) >= params["lo"] for text in texts)
                if keep:
                    kept.append(row)
                else:
                    result.removals.append((row[0], name, "lid" if kind == "lidthresh" else kind))
        result.stages.append((name, len(before), len(kept)))
        result.rows = kept
    if ranking is not None:
        _rank(result, *ranking)
    return result


def cosine(a, b) -> float:
    norms = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(x * x for x in b))
    return 0.0 if norms == 0.0 else min(1.0, max(-1.0, sum(x * y for x, y in zip(a, b)) / norms))


def _rank(result: Run, sources: list, targets: list, k: int) -> None:
    survivors = result.rows
    scored = sorted(((cosine(sources[row[0]], targets[row[0]]), row) for row in survivors), key=lambda s: (-s[0], s[1][0]))
    result.rows = [row for _, row in scored[:k]]
    result.scores = [score for score, _ in scored[:k]]
    zero = sum(1 for row in survivors if not any(sources[row[0]]) or not any(targets[row[0]]))
    result.ranking = (k, len(result.rows), len(sources[0]), zero)
    if k > len(survivors):
        result.warnings.append(f"top_k {k} exceeds ranked corpus size {len(survivors)}; emitting everything")


# ---------------------------------------------------------------- files


def read_rows(files: dict[str, str]) -> list[tuple[int, str, str]]:
    """The (id, source, target) rows of a corpus given as {"corpus.tsv": text} or {"source.txt", "target.txt"}.

    Lines end in LF; nothing else splits them.
    """
    if "corpus.tsv" in files:
        pairs = [line.split("\t") for line in _lines(files["corpus.tsv"])]
        return [(pair_id, source, target) for pair_id, (source, target) in enumerate(pairs)]
    pairs = zip(_lines(files["source.txt"]), _lines(files["target.txt"]))
    return [(pair_id, source, target) for pair_id, (source, target) in enumerate(pairs)]


def _lines(text: str) -> list[str]:
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _reduction(before: int, after: int) -> str:
    return f"{0.0 if before == 0 else round(100.0 * (before - after) / before, 2):.2f}"


def run_files(result: Run, tsv: bool, total: int) -> dict[str, str]:
    """The output files of ``curate run --removal-log``: the corpus, scores.tsv, removals.tsv
    and report.tsv without its wall-time column; total is the input's pair count."""
    files = {}
    if tsv:
        files["corpus.tsv"] = "".join(f"{source}\t{target}\n" for _, source, target in result.rows)
    else:
        files["source.txt"] = "".join(f"{source}\n" for _, source, _ in result.rows)
        files["target.txt"] = "".join(f"{target}\n" for _, _, target in result.rows)
    if result.scores is not None:
        files["scores.tsv"] = "".join(
            f"{rank}\t{pair_id}\t{score:.6f}\t{source}\t{target}\n"
            for rank, (score, (pair_id, source, target)) in enumerate(zip(result.scores, result.rows), start=1)
        )
    files["removals.tsv"] = "".join(f"{pair_id}\t{stage}\t{reason}\n" for pair_id, stage, reason in result.removals)
    report = ["section\tname\tin\tout\tremoved\treduction_pct"]
    survivors = result.stages[-1][2] if result.stages else total
    for name, before, after in [*result.stages, ("-", total, survivors)]:
        section = "total" if name == "-" else "stage"
        report.append(f"{section}\t{name}\t{before}\t{after}\t{before - after}\t{_reduction(before, after)}")
    if result.ranking is not None:
        k, emitted, dim, zero = result.ranking
        report += [f"ranking\ttop_k\t{k}\t{emitted}\t-\t-", f"ranking\tdim\t{dim}\t-\t-\t-", f"ranking\tzero_norm\t{zero}\t-\t-\t-"]
    report.append(f"lid\tfailures\t{result.lid_failures}\t-\t-\t-")
    warnings = result.warnings + [
        f"stage {name} removed all {before} pairs it was given" for name, before, after in result.stages if before and not after
    ]
    report += [f"warning\t{warning}\t-\t-\t-\t-" for warning in warnings]
    files["report.tsv"] = "\n".join(report) + "\n"
    return files
