import itertools
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pdcurate import dedup
from pdcurate.corpus import LanguagePair, PairBlock, SentencePair, Side
from pdcurate.dedup import DedupSpec, DedupStream, SeenIndex, dedup_stream
from pdcurate.errors import ConfigError
from pdcurate.pipeline import PipelineConfig, run
from pdcurate.textnorm import NormMode


def pairs_of(*rows):
    return [SentencePair(i, s, t) for i, (s, t) in enumerate(rows)]


def oracle_dedup(pairs, spec):
    """The oracle's kept pairs and (id, reason) removals."""
    rows = [(pair.id, pair.source, pair.target) for pair in pairs]
    kept, removed = oracle.dedup(rows, spec.norm.value, spec.ngram, spec.side.value)
    return [SentencePair(*row) for row in kept], removed


def brute_force_dedup(pairs, spec):
    """The oracle's kept pairs and removal count."""
    kept, removed = oracle_dedup(pairs, spec)
    return kept, len(removed)


def run_dedup(pairs, spec):
    stream = dedup_stream(pairs, spec)
    kept = list(stream)
    return kept, stream.removed_count


def test_exact_duplicate_source_side():
    pairs = pairs_of(("a", "x"), ("a", "y"))
    kept, removed = run_dedup(pairs, DedupSpec(side=Side.SOURCE))
    assert [p.id for p in kept] == [0]
    assert removed == 1


def test_punctnums_normalized_duplicate():
    pairs = pairs_of(("Call 077!", "x"), ("Call 099!", "y"))
    spec = DedupSpec(norm=NormMode.STRIP_PUNCT_NUMS, side=Side.SOURCE)
    kept, removed = run_dedup(pairs, spec)
    assert [p.id for p in kept] == [0]
    assert removed == 1


def test_bigram_overlap_removes_second():
    pairs = pairs_of(("a b c", "x"), ("b c d", "y"))
    kept, removed = run_dedup(pairs, DedupSpec(ngram=2, side=Side.SOURCE))
    assert [p.id for p in kept] == [0]
    assert removed == 1


def test_too_short_for_ngrams_always_kept():
    pairs = pairs_of(("a b", "x"), ("c d", "y"))
    kept, removed = run_dedup(pairs, DedupSpec(ngram=3, side=Side.SOURCE))
    assert [p.id for p in kept] == [0, 1]
    assert removed == 0


def test_side_both_removes_on_either_side():
    pairs = pairs_of(("s0", "t0"), ("s0", "fresh"), ("fresh2", "t0"), ("new", "new2"))
    kept, removed = run_dedup(pairs, DedupSpec(side=Side.BOTH))
    assert [p.id for p in kept] == [0, 3]
    assert removed == 2


def test_empty_normalizations_collide_on_empty_key():
    pairs = pairs_of(("2024", "x"), ("999", "y"), ("word", "z"))
    spec = DedupSpec(norm=NormMode.STRIP_NUMS, side=Side.SOURCE)
    kept, removed = run_dedup(pairs, spec)
    assert [p.id for p in kept] == [0, 2]
    assert removed == 1


def test_out_of_order_ids_rejected(monkeypatch):
    pairs = [SentencePair(1, "a", "b"), SentencePair(0, "c", "d")]
    with pytest.raises(ValueError, match="out of order"):
        list(dedup_stream(pairs, DedupSpec()))
    # ids that do not continue from one block to the next, iterated or passed to dedup_columns
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", 1)
    with pytest.raises(ValueError) as iterated:
        list(dedup_stream(pairs, DedupSpec()))
    stream = DedupStream((), DedupSpec())
    assert stream.dedup_columns(PairBlock.of(pairs[:1]))[0].tolist() == [True]
    assert stream.dedup_columns(PairBlock.of([]))[0].tolist() == []
    with pytest.raises(ValueError) as passed:
        stream.dedup_columns(PairBlock.of(pairs[1:]))
    assert str(passed.value) == str(iterated.value) == "pair ids out of order: 0 after 1 (stream must be id-sorted)"
    # each iteration checks its ids afresh; the index stays
    stream = dedup_stream(pairs[:1], DedupSpec())
    assert (list(stream), list(stream), stream.removed_count) == (pairs[:1], [], 1)


def test_ngram_out_of_range_rejected():
    with pytest.raises(ConfigError):
        DedupSpec(ngram=1)
    with pytest.raises(ConfigError):
        DedupSpec(ngram=11)


def test_removal_log_records_stage_and_reason():
    log = []
    pairs = pairs_of(("a b c", "x"), ("a b d", "y"))
    spec = DedupSpec(ngram=2, side=Side.SOURCE)
    list(dedup_stream(pairs, spec, on_removed=lambda p, s, r: log.append((p.id, s, r))))
    assert log == [(1, spec.describe(), "a b")]


def random_corpus(rng, size):
    """Small vocab + digits/punct so every mode exercises collisions."""
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    decorations = ["", "!", "?", "...", "77", "9", ","]
    rows = []
    for _ in range(size):
        words = [
            rng.choice(vocab) + rng.choice(decorations)
            for _ in range(rng.randint(1, 8))
        ]
        src = " ".join(words)
        tgt = " ".join(
            rng.choice(vocab) + rng.choice(decorations) for _ in range(rng.randint(1, 8))
        )
        rows.append((src, tgt))
    # sprinkle exact duplicates of earlier rows
    for _ in range(size // 10):
        rows.append(rows[rng.randrange(len(rows))])
    return pairs_of(*rows)


@pytest.mark.parametrize("norm", list(NormMode))
@pytest.mark.parametrize("ngram", [None, 2, 4])
@pytest.mark.parametrize("side", list(Side))
def test_oracle_equivalence_randomized(norm, ngram, side):
    rng = random.Random(hash((norm.value, ngram, side.value)) & 0xFFFF)
    for _ in range(3):
        pairs = random_corpus(rng, rng.randint(20, 120))
        spec = DedupSpec(norm=norm, ngram=ngram, side=side)
        kept, removed = run_dedup(pairs, spec)
        expected_kept, expected_removed = brute_force_dedup(pairs, spec)
        assert [p.id for p in kept] == [p.id for p in expected_kept]
        assert removed == expected_removed


def test_determinism_and_idempotence():
    rng = random.Random(7)
    pairs = random_corpus(rng, 150)
    spec = DedupSpec(norm=NormMode.STRIP_PUNCT_NUMS, ngram=3, side=Side.BOTH)
    first, removed_first = run_dedup(pairs, spec)
    second, removed_second = run_dedup(pairs, spec)
    assert first == second and removed_first == removed_second
    again, removed_again = run_dedup(first, spec)
    assert again == first
    assert removed_again == 0


def test_full_sentence_pass_leaves_no_duplicate_keys():
    rng = random.Random(11)
    pairs = random_corpus(rng, 200)
    spec = DedupSpec(norm=NormMode.STRIP_NUMS, side=Side.SOURCE)
    kept, _ = run_dedup(pairs, spec)
    keys = [oracle.strip(p.source, spec.norm.value) for p in kept]
    assert len(keys) == len(set(keys))


def run_chain(pairs, specs):
    """Chain dedup stages through pipeline.run; kept ids and removals per stage."""
    config = PipelineConfig(language_pair=LanguagePair("en", "si"), stages=tuple(specs))
    result = run(config, pairs)
    removed = [stage.stats.pair_count - stage.stats.retained_count for stage in result.report.stages]
    return [p.id for p in result.pairs], removed


def test_chain_single_spec_matches_dedup_stream():
    rng = random.Random(3)
    pairs = random_corpus(rng, 80)
    spec = DedupSpec(norm=NormMode.IDENTITY, side=Side.BOTH)
    chain_kept, chain_removed = run_chain(pairs, [spec])
    direct_kept, direct_removed = run_dedup(pairs, spec)
    assert chain_kept == [p.id for p in direct_kept]
    assert chain_removed == [direct_removed]


def test_chain_per_stage_counts():
    # pair 1 is an exact duplicate, pair 3 shares a 5-gram with pair 2
    pairs = pairs_of(
        ("one two three four five six", "t0"),
        ("one two three four five six", "t1"),
        ("a b c d e f g", "t2"),
        ("z a b c d e x", "t3"),
        ("totally different text here now", "t4"),
    )
    specs = [
        DedupSpec(norm=NormMode.IDENTITY, side=Side.SOURCE),
        DedupSpec(ngram=5, side=Side.SOURCE),
    ]
    kept, removed = run_chain(pairs, specs)
    assert kept == [0, 2, 4]
    assert removed == [1, 1]
    assert sum(removed) == len(pairs) - len(kept)


def test_chain_order_matters():
    # under strip-nums, pair 1 duplicates pair 0; pair 2 only shares a
    # bigram with pair 1.  Running full dedup first shields pair 2.
    pairs = pairs_of(
        ("a1 b2", "t0"),
        ("a9 b7", "t1"),
        ("a9 b7 z", "t2"),
    )
    spec_a = DedupSpec(norm=NormMode.STRIP_NUMS, side=Side.SOURCE)
    spec_b = DedupSpec(ngram=2, side=Side.SOURCE)
    kept_ab, _ = run_chain(pairs, [spec_a, spec_b])
    kept_ba, _ = run_chain(pairs, [spec_b, spec_a])
    assert kept_ab != kept_ba
    # each order must still match composing the brute-force stages
    for specs, kept in ((spec_a, spec_b), kept_ab), ((spec_b, spec_a), kept_ba):
        step1, _ = brute_force_dedup(pairs, specs[0])
        step2, _ = brute_force_dedup(step1, specs[1])
        assert kept == [p.id for p in step2]


def test_seen_index_contract():
    index = SeenIndex()
    assert 7 not in index
    assert len(index) == 0
    index.add([7, 2**64 - 1, 7])  # one block; a repeat is stored once
    assert 7 in index and 2**64 - 1 in index
    assert 8 not in index
    assert len(index) == 2
    index.add(np.array([8, 7], dtype=np.uint64))
    assert 8 in index
    assert len(index) == 3
    assert index.hits(np.array([6, 7, 8], dtype=np.uint64)).tolist() == [False, True, True]


def test_seen_index_matches_a_set_across_merged_runs():
    rng = np.random.default_rng(3)
    index, reference = SeenIndex(), set()
    for size in rng.integers(1, 300, size=60):
        block = rng.integers(0, 2_000, size=size).astype(np.uint64)
        index.add(block)
        reference.update(block.tolist())
        assert len(index) == len(reference)
    probe = np.arange(2_100, dtype=np.uint64)
    assert index.hits(probe).tolist() == [key in reference for key in range(2_100)]


def test_seen_index_costs_at_most_16_bytes_per_fingerprint():
    rng = np.random.default_rng(0)
    blocks = [np.frombuffer(rng.bytes(8 * 4_000), dtype=np.uint64) for _ in range(55)]
    SeenIndex().add(blocks[0][:10])  # numpy loads the code behind unique and sort on first use
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        index = SeenIndex()
        for block in blocks:
            index.add(block)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) >= 200_000
    assert held <= 16 * len(index)


def test_merging_two_runs_holds_no_second_copy_of_them():
    # runs of 2^16, 2^15, ..., 1 keys; one more key merges them all into one
    # run of 2^17, the last merge joining two runs of 2^16 keys
    rng = np.random.default_rng(1)
    keys = np.unique(np.frombuffer(rng.bytes(8 * 140_000), dtype=np.uint64))[: 1 << 17]
    rng.shuffle(keys)
    index = SeenIndex()
    tracemalloc.start()
    try:
        at = 0
        for k in range(16, -1, -1):
            index.add(keys[at : at + (1 << k)])
            at += 1 << k
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        index.add(keys[at:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) == 1 << 17
    # growing the older run in place costs 8 B per key of the newer one,
    # 0.5 MiB here; a merged copy of both cost 1.0 MiB
    assert peak - before <= 0.6 * 8 * len(index)


def test_seen_index_merges_runs_under_a_profile_hook():
    # a profile or trace hook (cProfile, a debugger, coverage) holds references
    # that numpy's resize would count; the cascading merges must still work
    rng = np.random.default_rng(4)
    index, reference = SeenIndex(), set()
    sys.setprofile(lambda *args: None)
    try:
        for size in [1, 1, 2, 4, 8, 16, 3, 32, 64, 5, 128]:
            block = rng.integers(0, 1_000, size=size).astype(np.uint64)
            index.add(block)
            reference.update(block.tolist())
    finally:
        sys.setprofile(None)
    assert len(index) == len(reference)
    probe = np.arange(1_000, dtype=np.uint64)
    assert index.hits(probe).tolist() == [key in reference for key in range(1_000)]


@pytest.mark.parametrize("norm, ngram", [(NormMode.IDENTITY, None), (NormMode.STRIP_NUMS, None), (NormMode.IDENTITY, 2)])
@pytest.mark.parametrize("side, probes", [(Side.SOURCE, 3), (Side.TARGET, 3), (Side.BOTH, 5)])
def test_the_index_is_probed_once_per_block_side_with_open_pairs(monkeypatch, norm, ngram, side, probes):
    # blocks of two: the second block's sources are both in the index, so
    # with side BOTH its targets are not probed; the third block's target is
    calls = []
    real_hits = SeenIndex.hits
    monkeypatch.setattr(SeenIndex, "hits", lambda index, keys: calls.append(len(keys)) or real_hits(index, keys))
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", 2)
    pairs = pairs_of(
        ("a b c", "x y z"), ("d e f", "u v w"), ("a b c", "p q r"), ("d e f", "s t o"), ("g h i", "x y z")
    )
    kept, removed = run_dedup(pairs, DedupSpec(norm=norm, ngram=ngram, side=side))
    assert [p.id for p in kept] == {Side.SOURCE: [0, 1, 4], Side.TARGET: [0, 1, 2, 3], Side.BOTH: [0, 1]}[side]
    assert len(calls) == probes


def test_fingerprint_collisions_are_accepted(monkeypatch):
    # a constant fingerprint makes every key collide with the first kept one
    monkeypatch.setattr(dedup, "_fingerprints", lambda codepoints, starts: np.full(len(starts), 42, dtype=np.uint64))
    pairs = pairs_of(("first", "x"), ("second", "y"))
    kept, removed = run_dedup(pairs, DedupSpec(side=Side.SOURCE))
    assert [p.id for p in kept] == [0]  # a false positive, accepted by design
    assert removed == 1


def test_each_key_is_fingerprinted_once(monkeypatch):
    # one fingerprint call per chunk of code points (raw for full-sentence
    # IDENTITY keys, normalized otherwise), over all of its texts
    # (full-sentence keys) or tokens (n-gram keys).  A target is not
    # normalized once its source key is found in the index.  One index
    # insert per block, of keys the block's probe showed absent, so not
    # through add's own probe.
    chunks, calls, inserts = [], [], []
    real_fingerprints, real_insert = dedup._fingerprints, SeenIndex._insert

    def counted(chunker):
        def chunked(*args):
            for chunk in chunker(*args):
                chunks.append(chunk)
                yield chunk

        return chunked

    monkeypatch.setattr(dedup, "_chunks", counted(dedup._chunks))
    monkeypatch.setattr(dedup, "normalize_texts", counted(dedup.normalize_texts))
    monkeypatch.setattr(
        dedup, "_fingerprints", lambda codepoints, starts: calls.append(len(starts)) or real_fingerprints(codepoints, starts)
    )
    monkeypatch.setattr(SeenIndex, "_insert", lambda index, keys: inserts.append(keys) or real_insert(index, keys))
    monkeypatch.setattr(SeenIndex, "add", None)
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", 7)
    pairs = random_corpus(random.Random(5), 100)
    blocks = -(-len(pairs) // 7)
    for spec in (DedupSpec(ngram=2, side=Side.BOTH), DedupSpec(side=Side.BOTH)):
        chunks.clear(), calls.clear(), inserts.clear()
        kept, removed = run_dedup(pairs, spec)
        assert kept and removed
        assert blocks < len(calls) == len(chunks) <= 2 * blocks  # a block side is one chunk here
        segments = [
            len(at) if spec.ngram is None else int((codepoints == 0x20).sum()) + len(at)
            for at, codepoints, _ in chunks
        ]
        assert calls == segments  # texts or tokens
        assert len(inserts) == blocks
    assert len(pairs) < sum(calls) < 2 * len(pairs)  # full-sentence keys: some targets were skipped


@pytest.mark.parametrize("norm", list(NormMode))
@pytest.mark.parametrize("ngram", [None, 2])
def test_a_lone_surrogate_is_keyed_like_any_code_point(norm, ngram):
    pairs = [SentencePair(0, "a \ud800 b", "x"), SentencePair(1, "a \ud800 b", "y"), SentencePair(2, "a \udfff b", "z")]
    spec = DedupSpec(norm=norm, ngram=ngram, side=Side.SOURCE)
    log = {}
    stream = dedup_stream(pairs, spec, on_removed=lambda pair, _, reason: log.setdefault(pair.id, reason))
    assert [p.id for p in stream] == [0, 2]
    assert log == brute_force_reasons(pairs, spec) == {1: "a \ud800 b" if ngram is None else "a \ud800"}


def thue_morse(k):
    """The Thue-Morse word of length 2^k over "ab", and its complement."""
    word = "".join("ab"[bin(i).count("1") % 2] for i in range(1 << k))
    return word, word.translate(str.maketrans("ab", "ba"))


@pytest.mark.parametrize("k", [10, 11, 12])
def test_thue_morse_words_get_distinct_fingerprints(k):
    word, complement = thue_morse(k)
    if k >= 11:
        # what a polynomial mod 2^64 over the characters cannot tell apart,
        # whatever its base (Pachocki and Radoszewski 2013)
        polynomial = [0, 0]
        for a, b in zip(word, complement):
            polynomial = [(h * dedup._POLY + ord(c)) % 2**64 for h, c in zip(polynomial, (a, b))]
        assert polynomial[0] == polynomial[1]
    keys, _ = DedupStream([], DedupSpec(side=Side.SOURCE))._keys([word, complement])
    assert keys[0] != keys[1]
    tokens = [dedup._fingerprints(np.array([ord(c) for c in text], dtype=np.uint32), np.array([0])) for text in (word, complement)]
    assert tokens[0] != tokens[1]


# keys of the same texts as an earlier run computed them, so keys that
# depend on numpy's version or its integer promotion rules fail here
_PINNED_TEXTS = ["hello world", "මම ගෙදර යමි", "\U0001f600", "a \ud800 b", ""]


def test_full_sentence_keys_are_pinned():
    keys, counts = DedupStream([], DedupSpec(side=Side.SOURCE))._keys(_PINNED_TEXTS)
    assert counts.tolist() == [1] * 5
    assert keys.dtype == np.uint64
    assert [hex(key) for key in keys.tolist()] == [
        "0x1bab0aa35fad613d", "0xbbbca637c368f0fc", "0x6260cee358ceed8c", "0x41e0d77e34e7bc22", "0x0"
    ]


def test_ngram_keys_are_pinned():
    keys, counts = DedupStream([], DedupSpec(ngram=2, side=Side.SOURCE))._keys(_PINNED_TEXTS)
    assert counts.tolist() == [1, 2, 0, 2, 0]
    assert keys.dtype == np.uint64
    assert [hex(key) for key in keys.tolist()] == [
        "0x19ca31398081e375", "0x15480338415e4de2", "0x52f243ce9099d0b8", "0xde5fae8f5929aa5c", "0xb223f940545e823e"
    ]


@pytest.mark.parametrize("norm", list(NormMode))
@pytest.mark.parametrize("ngram", [None, 5])
def test_fingerprinting_a_block_holds_a_chunk_of_code_points_not_the_block(norm, ngram):
    # 2,048 texts of 5,000 code points each, 39 MiB as one uint32 array and
    # 78 MiB as one uint64 array; about 1.3 MiB (full-sentence) and 1.6 MiB
    # (5-gram) over the keys was measured
    texts = ["abc de" * 833 + "xy" for _ in range(2_048)]
    stream = DedupStream([], DedupSpec(norm=norm, ngram=ngram))
    stream._keys(texts[:2])  # numpy loads the code behind reduceat on first use
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        keys, _ = stream._keys(texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(keys) == (len(texts) if ngram is None else 830 * len(texts))
    assert peak < 3 * 1024 * 1024 + 8 * len(keys)


def brute_force_reasons(pairs, spec):
    """The oracle's reasons: each removed pair's first key, in probe order, held by an earlier kept pair."""
    return dict(oracle_dedup(pairs, spec)[1])


@pytest.mark.parametrize("block_pairs", [1, 7, dedup._BLOCK_PAIRS, 10_000])
def test_block_size_does_not_change_kept_ids_or_reasons(monkeypatch, block_pairs):
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", block_pairs)
    rng = random.Random(block_pairs)
    for norm, ngram, side in itertools.product(list(NormMode), [None, 2, 4], list(Side)):
        pairs = random_corpus(rng, rng.randint(20, 90))
        spec = DedupSpec(norm=norm, ngram=ngram, side=side)
        log = {}
        stream = dedup_stream(pairs, spec, on_removed=lambda pair, _, reason: log.setdefault(pair.id, reason))
        kept = [p.id for p in stream]
        expected_kept, expected_removed = brute_force_dedup(pairs, spec)
        assert kept == [p.id for p in expected_kept], (norm, ngram, side)
        assert stream.removed_count == expected_removed == len(log)
        assert log == brute_force_reasons(pairs, spec), (norm, ngram, side)
        # the same blocks, passed to dedup_columns one call each
        fed, fed_kept, rows = DedupStream((), spec), [], []
        for at in range(0, len(pairs), block_pairs):
            block = PairBlock.of(pairs[at : at + block_pairs])
            keep, reasons = fed.dedup_columns(block, True)
            fed_kept += block.ids[keep].tolist()
            rows += zip(block.ids[~keep].tolist(), reasons)
        assert fed_kept == kept and fed.removed_count == stream.removed_count, (norm, ngram, side)
        assert rows == sorted(log.items()), (norm, ngram, side)


# whitespace of several kinds, leading, trailing and in runs; digits,
# punctuation, an astral emoji and a lone surrogate
_messy_texts = st.lists(st.sampled_from(["a", "b", "ෆ", "7", "!", " ", "\t", "\u00a0", "\U0001f600", "\ud800"]), max_size=8).map(
    "".join
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_messy_texts, _messy_texts), max_size=30),
    norm=st.sampled_from(list(NormMode)),
    ngram=st.sampled_from([None, 2, 3]),
    side=st.sampled_from(list(Side)),
    block_pairs=st.sampled_from([1, 4, dedup._BLOCK_PAIRS]),
)
def test_messy_whitespace_keeps_the_brute_force_ids_and_reasons(rows, norm, ngram, side, block_pairs):
    pairs = pairs_of(*rows)
    spec = DedupSpec(norm=norm, ngram=ngram, side=side)
    log = {}
    with mock.patch.object(dedup, "_BLOCK_PAIRS", block_pairs):
        stream = dedup_stream(pairs, spec, on_removed=lambda pair, _, reason: log.setdefault(pair.id, reason))
        kept = [p.id for p in stream]
    assert kept == [p.id for p in brute_force_dedup(pairs, spec)[0]]
    assert log == brute_force_reasons(pairs, spec)


@pytest.mark.parametrize("block_pairs", [1, 7, dedup._BLOCK_PAIRS, 10_000])
def test_an_ngram_repeated_inside_its_own_text_is_not_a_duplicate(monkeypatch, block_pairs):
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", block_pairs)
    rng = random.Random(block_pairs)
    words = ["alpha", "beta", "gamma!", "77"]
    rows = [("a b a b", "x y x y"), ("c d c d", "a b"), ("a b", "z z z z")]
    for _ in range(60):
        phrase = " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
        other = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
        rows.append((" ".join([phrase] * rng.randint(2, 3)), other))
    pairs = pairs_of(*rows)
    for norm, ngram, side in itertools.product(list(NormMode), [2, 4], list(Side)):
        spec = DedupSpec(norm=norm, ngram=ngram, side=side)
        log = {}
        stream = dedup_stream(pairs, spec, on_removed=lambda pair, _, reason: log.setdefault(pair.id, reason))
        kept = [p.id for p in stream]
        expected_kept, expected_removed = brute_force_dedup(pairs, spec)
        assert kept == [p.id for p in expected_kept], (norm, ngram, side)
        assert stream.removed_count == expected_removed == len(log)
        assert log == brute_force_reasons(pairs, spec), (norm, ngram, side)
    kept, _ = run_dedup(pairs[:3], DedupSpec(ngram=2, side=Side.SOURCE))
    assert [p.id for p in kept] == [0, 1]


def logged_reasons(pairs, spec):
    log = {}
    stream = dedup_stream(pairs, spec, on_removed=lambda pair, _, reason: log.setdefault(pair.id, reason))
    return [p.id for p in stream], log, stream


@pytest.mark.parametrize("block_pairs", [1, 3, dedup._BLOCK_PAIRS])
def test_a_first_window_repeated_in_the_block_beats_a_later_index_hit(monkeypatch, block_pairs):
    # at three pairs a block, pair 4's first window repeats kept pair 3 in
    # its block, and its last window is in the index since pair 0
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", block_pairs)
    pairs = pairs_of(("c d", "x"), ("e f", "x"), ("g h", "x"), ("a b", "x"), ("a b c d", "x"), ("i j", "x"))
    spec = DedupSpec(ngram=2, side=Side.SOURCE)
    kept, log, _ = logged_reasons(pairs, spec)
    assert kept == [0, 1, 2, 3, 5]
    assert log == brute_force_reasons(pairs, spec) == {4: "a b"}


@pytest.mark.parametrize("block_pairs", [1, 3, dedup._BLOCK_PAIRS])
def test_a_source_repeated_in_the_block_beats_a_target_index_hit(monkeypatch, block_pairs):
    # at three pairs a block, pair 4's source repeats kept pair 3 in its
    # block, and its target is in the index since pair 0
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", block_pairs)
    pairs = pairs_of(("s0", "T"), ("s1", "t1"), ("s2", "t2"), ("S", "t3"), ("S", "T"), ("s5", "t5"))
    spec = DedupSpec(side=Side.BOTH)
    kept, log, _ = logged_reasons(pairs, spec)
    assert kept == [0, 1, 2, 3, 5]
    assert log == brute_force_reasons(pairs, spec) == {4: "S"}


@pytest.mark.parametrize("block_pairs", [1, 3, dedup._BLOCK_PAIRS])
@pytest.mark.parametrize("ngram", [None, 2])
@pytest.mark.parametrize("side", [Side.SOURCE, Side.BOTH])
def test_the_index_holds_each_kept_key_of_each_side_once(monkeypatch, block_pairs, ngram, side):
    monkeypatch.setattr(dedup, "_BLOCK_PAIRS", block_pairs)
    # the first pair repeats a window inside each of its texts
    rows = [("a b a b", "x y x y"), ("", "")] + [(p.source, p.target) for p in random_corpus(random.Random(11), 200)]
    pairs = pairs_of(*rows)
    spec = DedupSpec(norm=NormMode.STRIP_NUMS, ngram=ngram, side=side)
    kept, log, stream = logged_reasons(pairs, spec)
    assert log == brute_force_reasons(pairs, spec)

    sides = [name for name in ("source", "target") if getattr(side, f"checks_{name}")]
    distinct = {
        (name, key)
        for p in pairs
        if p.id in kept
        for name in sides
        for key in oracle.dedup_keys(getattr(p, name), spec.norm.value, ngram)
    }
    assert len(pairs) > len(kept) and len(stream._index) == len(distinct)
