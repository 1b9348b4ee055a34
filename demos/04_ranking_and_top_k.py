"""Cosine ranking over externally-computed sentence embeddings.

Embeddings arrive as files (binary or TSV), one row per pair id.  Pairs
are scored by the cosine of their two vectors, sorted descending with
ties broken by id, and the top-k slice becomes the training corpus.
"""

import tempfile
from pathlib import Path

import numpy as np

from pdcurate import SentencePair, load_embeddings, rank_corpus, top_k, write_embeddings
from pdcurate.ranking import write_ranked_tsv

workdir = Path(tempfile.mkdtemp(prefix="pdcurate-demo-"))
rng = np.random.default_rng(0)

pairs = [SentencePair(i, f"source sentence {i}", f"target sentence {i}") for i in range(8)]

# simulate encoder output: aligned pairs point the same way, noise doesn't
src = rng.normal(size=(8, 16)).astype(np.float32)
tgt = src + rng.normal(scale=[[0.2]] * 4 + [[2.0]] * 4, size=(8, 16)).astype(np.float32)

write_embeddings(src, workdir / "src.bin")             # 16-byte header + float32 rows
write_embeddings(tgt, workdir / "tgt.tsv", fmt="tsv")  # same data, text encoding

ranked = rank_corpus(pairs, load_embeddings(workdir / "src.bin"), load_embeddings(workdir / "tgt.tsv"))
print("rank  id  score")
for entry in ranked.entries:
    print(f"{entry.rank:>4}  {entry.pair_id:>2}  {entry.score:+.4f}")

best = top_k(ranked, 3)
print(f"\ntop-3 ids: {best.ids()}  (the lightly-noised half ranks first)")

write_ranked_tsv(best, [pairs[i] for i in best.ids()], workdir / "scores.tsv")  # the pairs in rank order
print(f"score sidecar written to {workdir / 'scores.tsv'}:")
print((workdir / "scores.tsv").read_text(), end="")
