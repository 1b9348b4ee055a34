"""Independent expected outputs for the benchmark's workloads, and the checks.

The reference shares no code with ``pdcurate``: dedup is a plain set of
exact key strings, language ID counts letters per script block
directly, and ranking is ``sorted()`` by (-score, id).  It is computed
once per seed, before any timed run, by::

    python3 perfbench/reference.py prepare --workload NAME --seed N --dir WORK

which writes the inputs to ``WORK/input`` and the expected outputs to
``WORK/expected``.  After the timed runs::

    python3 perfbench/reference.py check --dir WORK RUN_DIR...

compares each run's outputs with them and prints one JSON object per
run directory: output files must match byte for byte, and so must the
id and stage columns of ``removals.tsv``.  The reason column is checked
for validity instead of bytes: it must be a key of the removed pair's
checked side that an earlier kept pair on the same side also has.

Both steps run in their own process so that run.py's own process
stays small: a child's ``ru_maxrss`` counts the address space it was
forked from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np

import workloads

# ---------------------------------------------------------------- text


class _Categories(dict):
    def __missing__(self, ch: str) -> str:
        value = self[ch] = unicodedata.category(ch)
        return value


_CATEGORY = _Categories()


def strip_for(norm: str, text: str) -> str:
    """``nums`` drops Nd; ``punctnums`` drops Nd, P* and S*; spaces collapse."""
    if norm == "identity":
        return text
    if norm == "nums":
        kept = (ch for ch in text if _CATEGORY[ch] != "Nd")
    else:
        kept = (ch for ch in text if _CATEGORY[ch] != "Nd" and _CATEGORY[ch][0] not in "PS")
    return " ".join("".join(kept).split())


def dedup_keys(text: str, norm: str, ngram: int | None) -> set[str]:
    normalized = strip_for(norm, text)
    if ngram is None:
        return {normalized}
    words = normalized.split()
    return {" ".join(words[i : i + ngram]) for i in range(len(words) - ngram + 1)}


_LATIN = ((0x41, 0x5A), (0x61, 0x7A), (0xC0, 0xFF), (0x100, 0x24F), (0x1E00, 0x1EFF))


class _Scripts(dict):
    def __missing__(self, ch: str) -> str:
        cp = ord(ch)
        if not ch.isalpha():
            value = None
        elif any(lo <= cp <= hi for lo, hi in _LATIN):
            value = "en"
        elif 0x0D80 <= cp <= 0x0DFF:
            value = "si"
        elif 0x0B80 <= cp <= 0x0BFF:
            value = "ta"
        else:
            value = "other"
        self[ch] = value
        return value


_SCRIPT = _Scripts()


def lid_label(text: str) -> tuple[str, float]:
    """Majority letter script, ties in the order en, si, ta; ``und`` without one."""
    counts = {"en": 0, "si": 0, "ta": 0, "other": 0}
    for ch, n in Counter(text).items():
        script = _SCRIPT[ch]
        if script is not None:
            counts[script] += n
    letters = sum(counts.values())
    best = max(("en", "si", "ta"), key=lambda lang: counts[lang])
    if letters == 0 or counts[best] == 0:
        return "und", 0.0
    return best, counts[best] / letters


def alpha_word_ratio(text: str) -> float:
    words = text.split()
    if not words:
        return 1.0
    alpha = sum(1 for w in words if all(_CATEGORY[ch][0] in "LM" for ch in w))
    return alpha / len(words)


# ---------------------------------------------------------------- stages


def sides(side: str, src: str, tgt: str) -> list[tuple[str, str]]:
    return [(s, text) for s, text in (("s", src), ("t", tgt)) if s in side]


def dedup(rows, norm, ngram, side, stage, removals, reasons):
    seen = {"s": set(), "t": set()}
    kept = []
    for pid, src, tgt in rows:
        keys = [(s, dedup_keys(text, norm, ngram)) for s, text in sides(side, src, tgt)]
        hits = set()
        for s, ks in keys:
            hits |= ks & seen[s]
        if hits:
            removals.append((pid, stage))
            reasons[pid] = hits
            continue
        for s, ks in keys:
            seen[s] |= ks
        kept.append((pid, src, tgt))
    return kept


def keep_if(rows, test, stage, removals):
    kept = []
    for row in rows:
        if test(row):
            kept.append(row)
        else:
            removals.append((row[0], stage))
    return kept


def web_preset_stages(rows, removals, reasons):
    rows = dedup(rows, "punctnums", None, "t", "0:dedup[punctnums]@t", removals, reasons)
    rows = dedup(rows, "identity", 5, "t", "1:dedup[identity]-5gram@t", removals, reasons)
    rows = keep_if(rows, lambda r: len(r[1].split()) >= 5 and len(r[2].split()) >= 5, "2:length@st", removals)

    def lid_ok(row):
        for text, lang in ((row[1], "en"), (row[2], "si")):
            label, prob = lid_label(text)
            if label != lang or prob < 0.7:
                return False
        return True

    rows = keep_if(rows, lid_ok, "3:lid@st", removals)
    return keep_if(rows, lambda r: alpha_word_ratio(r[1]) >= 0.6, "4:sentwratio@s", removals)


def boilerplate_stages(rows, removals, reasons):
    rows = dedup(rows, "nums", None, "st", "0:dedup[nums]@st", removals, reasons)
    return dedup(rows, "nums", 4, "st", "1:dedup[nums]-4gram@st", removals, reasons)


STAGES = {
    "web_preset": web_preset_stages,
    "rank_only": lambda rows, removals, reasons: rows,
    "boilerplate_tsv": boilerplate_stages,
}


def load_store(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    count, dim = struct.unpack("<II", raw[8:16])
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(count, dim)


def cosine_scores(ids: list[int], src: np.ndarray, tgt: np.ndarray) -> list[float]:
    a = src[ids].astype(np.float64)
    b = tgt[ids].astype(np.float64)
    norms = np.sqrt((a * a).sum(axis=1)) * np.sqrt((b * b).sum(axis=1))
    dots = (a * b).sum(axis=1)
    return [0.0 if n == 0.0 else min(1.0, max(-1.0, d / n)) for d, n in zip(dots.tolist(), norms.tolist())]


# ---------------------------------------------------------------- prepare


def read_rows(workload, input_dir: Path):
    if workload.tsv:
        lines = (input_dir / "corpus.tsv").read_text(encoding="utf-8").split("\n")[:-1]
        return [(i, *line.split("\t")) for i, line in enumerate(lines)]
    src = (input_dir / "source.txt").read_text(encoding="utf-8").split("\n")[:-1]
    tgt = (input_dir / "target.txt").read_text(encoding="utf-8").split("\n")[:-1]
    return list(zip(range(len(src)), src, tgt))


def expected_outputs(workload, input_dir: Path):
    """(file name -> expected text, removed pair id -> valid reasons)."""
    removals: list[tuple[int, str]] = []
    reasons: dict[int, set[str]] = {}
    kept = STAGES[workload.name](read_rows(workload, input_dir), removals, reasons)
    files = {}
    if workload.dim is not None:
        src = load_store(input_dir / "src.bin")
        tgt = load_store(input_dir / "tgt.bin")
        scores = cosine_scores([pid for pid, _, _ in kept], src, tgt)
        ranked = sorted(zip(scores, kept), key=lambda item: (-item[0], item[1][0]))[: workload.top_k]
        kept = [row for _, row in ranked]
        files["scores.tsv"] = "".join(
            f"{rank}\t{pid}\t{score:.6f}\t{s}\t{t}\n"
            for rank, (score, (pid, s, t)) in enumerate(ranked, start=1)
        )
    if workload.tsv:
        files["corpus.tsv"] = "".join(f"{s}\t{t}\n" for _, s, t in kept)
    else:
        files["source.txt"] = "".join(s + "\n" for _, s, _ in kept)
        files["target.txt"] = "".join(t + "\n" for _, _, t in kept)
    if workload.removal_log:
        files["removals.ids"] = "".join(f"{pid}\t{stage}\n" for pid, stage in removals)
    return files, reasons


def empty_outputs(workload) -> dict[str, str]:
    names = ["corpus.tsv"] if workload.tsv else ["source.txt", "target.txt"]
    if workload.dim is not None:
        names.append("scores.tsv")
    if workload.removal_log:
        names.append("removals.ids")
    return {name: "" for name in names}


def prepare(name: str, seed: int, work: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    workloads.generate(workload, seed, work / "input")
    files, reasons = expected_outputs(workload, work / "input")
    for label, content in (("expected", files), ("expected_empty", empty_outputs(workload))):
        out = work / label
        out.mkdir(parents=True, exist_ok=True)
        for file_name, text in content.items():
            (out / file_name).write_text(text, encoding="utf-8")
    (work / "expected" / "reasons.json").write_text(
        json.dumps({str(pid): sorted(keys) for pid, keys in reasons.items()}), encoding="utf-8"
    )
    return {"pairs": workload.pairs, "dedup_removed": len(reasons)}


# ---------------------------------------------------------------- check


def check_run(run_dir: Path, expected_dir: Path, reasons: dict[str, set[str]]) -> dict:
    """Compare one run directory with the expected files."""
    errors = []
    digest = None
    for path in sorted(expected_dir.iterdir()):
        if path.name == "reasons.json":
            continue
        if path.name == "removals.ids":
            actual_path = run_dir / "removals.tsv"
        else:
            actual_path = run_dir / path.name
        if not actual_path.is_file():
            errors.append(f"missing {actual_path.name}")
            continue
        actual = actual_path.read_bytes()
        if path.name != "removals.ids":
            if actual != path.read_bytes():
                errors.append(f"{actual_path.name} differs from the reference")
            continue
        digest = hashlib.sha256(actual).hexdigest()
        rows = [line.split("\t") for line in actual.decode("utf-8").split("\n")[:-1]]
        if any(len(row) != 3 for row in rows):
            errors.append("removals.tsv has a row without 3 fields")
            continue
        ids = "".join(f"{pid}\t{stage}\n" for pid, stage, _ in rows)
        if ids.encode("utf-8") != path.read_bytes():
            errors.append("removals.tsv id/stage columns differ from the reference")
        invalid = [pid for pid, _, reason in rows if reason not in reasons.get(pid, ())]
        if invalid:
            errors.append(f"{len(invalid)} invalid removal reasons, first at id {invalid[0]}")
    return {"ok": not errors, "errors": errors, "removals_digest": digest}


def check(work: Path, run_dirs: list[Path]) -> dict:
    """Check each run; directories named ``setup*`` ran on the empty corpus."""
    reasons = {
        pid: set(keys)
        for pid, keys in json.loads((work / "expected" / "reasons.json").read_text("utf-8")).items()
    }
    results = {}
    for run_dir in run_dirs:
        expected_dir = work / ("expected_empty" if run_dir.name.startswith("setup") else "expected")
        results[run_dir.name] = check_run(run_dir, expected_dir, reasons)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_prep = sub.add_parser("prepare")
    p_prep.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p_prep.add_argument("--seed", type=int, required=True)
    p_prep.add_argument("--dir", required=True)
    p_check = sub.add_parser("check")
    p_check.add_argument("--dir", required=True)
    p_check.add_argument("runs", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "prepare":
        result = prepare(args.workload, args.seed, Path(args.dir))
    else:
        result = check(Path(args.dir), [Path(run) for run in args.runs])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
