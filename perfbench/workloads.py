"""Seeded inputs for the benchmark's three workloads.

Every generator here depends only on its seed and on the vocabulary
files in ``perfbench/data``, never on the ``pdcurate`` package, so the
benchmark's inputs cannot change when the package does.  Each workload
writes its corpus, its embedding stores (when it ranks) and its
``config.yaml`` into one directory; the CLI receives only those files.

* ``web_preset``: the acceptance suite's criterion 7 corpus, run through
  the recommended preset plus ranking (8-dim embeddings, top_k = 10%).
  Dedup inserts almost every key; LID is the next-largest stage.
* ``rank_only``: clean pairs, no heuristic stage, ranking with
  encoder-sized (768-dim) embeddings.  Embedding load and ranking
  dominate time and memory; dedup, filters and LID do no work.
* ``boilerplate_tsv``: a TSV corpus where 60% of pairs are templated
  near-duplicates of an earlier pair, dedup stages only, with a removal
  log.  Dedup runs mostly on its probe path, the reverse of
  ``web_preset``.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

EMBEDDING_MAGIC = b"PDCEMB01"


def vocabulary(lang: str) -> list[str]:
    return (DATA_DIR / f"vocab_{lang}.txt").read_text(encoding="utf-8").split()


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: int
    tsv: bool
    dim: int | None  # embedding dimension; None means no ranking stage
    removal_log: bool

    @property
    def top_k(self) -> int:
        return max(1, self.pairs // 10)


WORKLOADS = {
    "web_preset": Workload("web_preset", pairs=70_000, tsv=False, dim=8, removal_log=False),
    "rank_only": Workload("rank_only", pairs=32_000, tsv=False, dim=768, removal_log=False),
    "boilerplate_tsv": Workload("boilerplate_tsv", pairs=60_000, tsv=True, dim=None, removal_log=True),
}

# The recommended preset, spelled out so the benchmark does not ask the
# package to build it: punctnums dedup on t, 5-gram dedup on t, length 5
# on st, LID (min_prob 0.7) on st, word-ratio floor 0.6 on s.
WEB_PRESET_STAGES = """\
- kind: dedup
  side: t
  params: {norm: punctnums, ngram: null}
- kind: dedup
  side: t
  params: {norm: identity, ngram: 5}
- kind: length
  side: st
  params: {min_words: 5}
- kind: lid
  side: st
  params: {expected_source: en, expected_target: si, min_prob: 0.7}
- kind: sentwratio
  side: s
  params: {lo: 0.6, hi: null}
"""

BOILERPLATE_STAGES = """\
- kind: dedup
  side: st
  params: {norm: nums, ngram: null}
- kind: dedup
  side: st
  params: {norm: nums, ngram: 4}
"""


def web_pairs(seed: int, n_pairs: int):
    """Criterion 7's generator: 8% exact re-draws, 8% 1-4-word pairs,
    4% English on both sides, the rest clean en-si.

    Yields (source, target) in corpus order; with seed 99 and 1M pairs
    it reproduces the acceptance fixture byte for byte.
    """
    rng = random.Random(seed)
    en = vocabulary("en")
    si = vocabulary("si")
    reservoir: list[tuple[str, str]] = []
    for _ in range(n_pairs):
        draw = rng.random()
        if draw < 0.08 and reservoir:
            source, target = reservoir[rng.randrange(len(reservoir))]
        elif draw < 0.16:
            source = " ".join(rng.choices(en, k=rng.randint(1, 4)))
            target = " ".join(rng.choices(si, k=rng.randint(1, 4)))
        elif draw < 0.20:
            source = " ".join(rng.choices(en, k=rng.randint(6, 12)))
            target = " ".join(rng.choices(en, k=rng.randint(6, 12)))
        else:
            k = rng.randint(6, 14)
            source = " ".join(rng.choices(en, k=k))
            target = " ".join(rng.choices(si, k=k))
            if len(reservoir) < 5000:
                reservoir.append((source, target))
        yield source, target


def clean_pairs(seed: int, n_pairs: int):
    """Aligned en-si pairs of 6-14 words that pass every heuristic."""
    rng = random.Random(seed)
    en = vocabulary("en")
    si = vocabulary("si")
    for _ in range(n_pairs):
        k = rng.randint(6, 14)
        yield " ".join(rng.choices(en, k=k)), " ".join(rng.choices(si, k=k))


def boilerplate_pairs(seed: int, n_pairs: int):
    """40% fresh en-si pairs, 60% templated copies of an earlier fresh pair.

    A templated copy has a number appended to both sides and, in five
    cases out of six, one word swapped on each side.  ``nums`` dedup
    strips the number, so the plain copies fall to full-sentence dedup
    and the word-swapped ones to 4-gram dedup.
    """
    rng = random.Random(seed)
    en = vocabulary("en")
    si = vocabulary("si")
    templates: list[tuple[list[str], list[str]]] = []
    for _ in range(n_pairs):
        if templates and rng.random() < 0.6:
            src, tgt = (list(words) for words in templates[rng.randrange(len(templates))])
            if rng.random() < 5 / 6:
                src[rng.randrange(len(src))] = rng.choice(en)
                tgt[rng.randrange(len(tgt))] = rng.choice(si)
            number = str(rng.randrange(1, 100_000))
            yield " ".join(src) + " " + number, " ".join(tgt) + " " + number
        else:
            k = rng.randint(6, 14)
            src = rng.choices(en, k=k)
            tgt = rng.choices(si, k=k)
            templates.append((src, tgt))
            yield " ".join(src), " ".join(tgt)


def write_two_file(pairs, source_path: Path, target_path: Path) -> None:
    with open(source_path, "w", encoding="utf-8") as src_out, open(
        target_path, "w", encoding="utf-8"
    ) as tgt_out:
        for source, target in pairs:
            src_out.write(source + "\n")
            tgt_out.write(target + "\n")


def write_tsv(pairs, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for source, target in pairs:
            out.write(f"{source}\t{target}\n")


def write_embeddings(matrix, path: Path) -> None:
    """The package's binary store: magic, count (u32), dim (u32), f32 rows."""
    import numpy as np

    with open(path, "wb") as out:
        out.write(struct.pack("<8sII", EMBEDDING_MAGIC, matrix.shape[0], matrix.shape[1]))
        out.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def config_text(workload: Workload, input_dir: Path) -> str:
    stages = {"web_preset": WEB_PRESET_STAGES, "boilerplate_tsv": BOILERPLATE_STAGES}
    text = "language_pair: en-si\n"
    body = stages.get(workload.name)
    text += "stages:\n" + body if body else "stages: []\n"
    if workload.dim is not None:
        text += (
            "ranking:\n"
            f"  source_embeddings: {input_dir / 'src.bin'}\n"
            f"  target_embeddings: {input_dir / 'tgt.bin'}\n"
            f"  top_k: {workload.top_k}\n"
        )
    return text


def generate(workload: Workload, seed: int, input_dir: Path) -> None:
    """Write the corpus, embeddings and config of one workload.

    Also writes an empty corpus beside it (``empty.tsv`` or
    ``empty.source.txt``/``empty.target.txt``): set-up time is measured
    by running the same config on it.
    """
    input_dir.mkdir(parents=True, exist_ok=True)
    maker = {"web_preset": web_pairs, "rank_only": clean_pairs, "boilerplate_tsv": boilerplate_pairs}
    rows = maker[workload.name](seed, workload.pairs)
    if workload.tsv:
        write_tsv(rows, input_dir / "corpus.tsv")
        write_tsv((), input_dir / "empty.tsv")
    else:
        write_two_file(rows, input_dir / "source.txt", input_dir / "target.txt")
        write_two_file((), input_dir / "empty.source.txt", input_dir / "empty.target.txt")
    if workload.dim is not None:
        import numpy as np  # imported here so that run.py's process stays small

        rng = np.random.default_rng(seed)
        for name in ("src.bin", "tgt.bin"):
            write_embeddings(
                rng.standard_normal((workload.pairs, workload.dim), dtype=np.float32),
                input_dir / name,
            )
    (input_dir / "config.yaml").write_text(config_text(workload, input_dir), encoding="utf-8")
