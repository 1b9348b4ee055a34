"""Deduplication at different granularities.

Web-mined corpora repeat themselves: exact copies, copies that differ
only in numbers or punctuation, and near-copies that share long word
spans.  Each variant below catches one of these, and they chain.
"""

from pdcurate import (
    DedupSpec,
    LanguagePair,
    NormMode,
    PipelineConfig,
    SentencePair,
    Side,
    dedup_stream,
    run,
)

pairs = [
    SentencePair(0, "order 66 confirmed today !", "tgt a"),
    SentencePair(1, "order 67 confirmed today .", "tgt b"),   # same after stripping digits+punct
    SentencePair(2, "the quick brown fox jumps over it", "tgt c"),
    SentencePair(3, "a quick brown fox jumps over me", "tgt d"),  # shares a 5-gram with 2
    SentencePair(4, "completely unrelated sentence here", "tgt e"),
]


def show(title, spec):
    stream = dedup_stream(pairs, spec, on_removed=lambda p, s, r: print(f"    removed #{p.id} (matched {r!r})"))
    kept = [p.id for p in stream]
    print(f"  kept {kept}")
    print()


print("identity dedup, source side: nothing is an exact copy")
show("identity", DedupSpec(norm=NormMode.IDENTITY, side=Side.SOURCE))

print("punctuation+number-stripped dedup: pair 1 collapses onto pair 0")
show("punctnums", DedupSpec(norm=NormMode.STRIP_PUNCT_NUMS, side=Side.SOURCE))

print("5-gram dedup: pair 3 shares 'quick brown fox jumps over' with pair 2")
show("5gram", DedupSpec(ngram=5, side=Side.SOURCE))

print("chaining stages through pipeline.run, the order used by the recommended pipeline:")
config = PipelineConfig(
    language_pair=LanguagePair("en", "si"),
    stages=(
        DedupSpec(norm=NormMode.STRIP_PUNCT_NUMS, side=Side.SOURCE),
        DedupSpec(ngram=5, side=Side.SOURCE),
    ),
)
result = run(config, pairs)
print(f"  kept {[p.id for p in result.pairs]}")
for stage in result.report.stages:
    print(f"  {stage.name}: removed {stage.stats.pair_count - stage.stats.retained_count}")
