"""``curate run``'s files against the independent oracle in ``tests/oracle.py``."""

import ast
import struct
import tempfile
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pdcurate import cli

ORACLE = Path(oracle.__file__)


def test_the_oracle_imports_nothing_from_pdcurate():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.append(node.module)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
            "__import__",
            "import_module",
        ):
            raise AssertionError("the oracle imports a module by name")
    assert imported and not [name for name in imported if name.split(".")[0] == "pdcurate"]


# words of each tracked script, with combining marks (Sinhala and Tamil
# vowel signs and virama) and letters at the ends of Latin blocks; an
# astral letter of no tracked script, an astral symbol, Nd digits of
# three scripts, punctuation and symbols (the underscore, currency,
# math); CR and whitespace that only str.split sees (none of it ends a
# corpus line); no tab, which a corpus line cannot hold
_PIECES = [
    "the", "cat", "Mat", "Zoë", "ỿ", "42", "7.5", "!!", "x_y", "$5", "a+b",
    "මම", "ගෙදර", "යමි", "අද", "ක්‍ර", "කෙ", "தமிழ்", "கங", "யமி",
    "\U0001d400", "\U0001f600", "٣", "෦", "«»",
]
_SEPARATORS = [" ", " ", "  ", "\r", "\xa0", "\u2009", "\u3000", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_texts = st.lists(st.sampled_from(_PIECES + _SEPARATORS), max_size=7).map("".join)
# appended to a pool text, so that rows differ in what a strip mode drops:
# Nd digits, P* and S* (an astral one too), some after a space
_DECORATIONS = ["", "7", " ٣", "!", " «", "_", "$", " +", "\U0001f600", "$7", "+", " x"]
_sides = st.sampled_from(["s", "t", "st"])


def _stage(kind, side, **params):
    return {"kind": kind, "side": side, "params": {key: value for key, value in params.items() if value is not None}}


_dedup = st.builds(
    lambda norm, ngram, side: _stage("dedup", side, norm=norm, ngram=ngram),
    st.sampled_from(["identity", "nums", "punctnums"]), st.sampled_from([None, 2, 3]), _sides,
)
_stages = st.one_of(
    _dedup,
    _dedup,  # drawn twice as often as each filter kind: its keys depend on the strip classes
    st.builds(lambda n, side: _stage("length", side, min_words=n), st.integers(1, 4), _sides),
    st.builds(
        lambda kind, min_prob, side: _stage(kind, side, min_prob=min_prob),
        st.sampled_from(["lid", "lidthresh"]), st.sampled_from([None, 0.5, 0.9]), _sides,
    ),
    st.builds(
        lambda lo, hi, side: _stage("stratio", side, lo=lo, hi=hi),
        st.sampled_from([0.5, 0.8]), st.sampled_from([1.0, 1.5]), _sides,
    ),
    st.builds(
        lambda kind, lo, side: _stage(kind, side, lo=lo),
        st.sampled_from(["sentwratio", "sentcratio"]), st.sampled_from([0.3, 0.6, 0.9, 1.0]), _sides,
    ),
)
# prediction rows (id, label, prob); an id may be missing or repeat, and the last row wins
_table = st.none() | st.lists(
    st.tuples(st.integers(0, 15), st.sampled_from(["en", "si", "ta", "fr"]), st.sampled_from([0.5, 0.7, 0.95])),
    max_size=20,
)
# small integer components, so that every dot product and squared norm is
# exact; the zero vector scores 0, and repeated vectors tie
_PALETTE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 1), (1, 1, 1), (-1, 0, 2), (0, -1, 0)]


def _store(vectors) -> bytes:
    """A binary embedding store: magic, count and dim, then the float32 components."""
    flat = [component for vector in vectors for component in vector]
    return b"PDCEMB01" + struct.pack(f"<II{len(flat)}f", len(vectors), len(vectors[0]), *flat)


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(st.tuples(_texts, _texts), min_size=1, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_DECORATIONS), st.sampled_from(_DECORATIONS)), min_size=1, max_size=14),
    tsv=st.booleans(),
    language_pair=st.sampled_from([("en", "si"), ("en", "ta"), ("si", "ta")]),
    stages=st.lists(_stages, max_size=4),
    tables=st.none() | st.tuples(_table, _table),
    vectors=st.lists(st.tuples(st.sampled_from(_PALETTE), st.sampled_from(_PALETTE)), min_size=14, max_size=14),
    k=st.none() | st.integers(1, 16),
)
# rows that differ only in what each strip mode drops, through every
# strip mode and both granularities
@example(
    pool=[("cat sat on", "මම යමි"), ("x_y 42", "தமிழ் கங")],
    picks=[(0, "", ""), (0, "$", "7"), (0, " +", "!"), (1, "\U0001f600", " «"), (1, "_", "$7"), (0, "7", ""), (1, "", " x"), (1, " y", "")],
    tsv=False,
    language_pair=("en", "si"),
    stages=[_stage("dedup", "t", norm="nums"), _stage("dedup", "s", norm="punctnums"), _stage("dedup", "st", ngram=2)],
    tables=None,
    vectors=[((1, 0, 0), (1, 0, 0))] * 14,
    k=None,
)
# alpha ratios over combining marks and a zero-width joiner, script LID
# with a floor on letters at the ends of the Latin and Sinhala blocks,
# and four survivors that tie in score, of which k keeps two
@example(
    pool=[("the cat", "මම යමි"), ("Zoë ỿ", "අද කෙ"), ("αβ 7", "ක්‍ර කෙ")],
    picks=[(0, "", ""), (1, "", ""), (2, "", ""), (0, " x", "7"), (1, "!", ""), (0, "", ""), (1, "", "")],
    tsv=True,
    language_pair=("en", "si"),
    stages=[_stage("sentwratio", "t", lo=1.0), _stage("sentcratio", "st", lo=0.9), _stage("lid", "st", min_prob=0.9)],
    tables=None,
    vectors=[((1, 0, 0), (1, 1, 0))] * 14,
    k=2,
)
def test_curate_run_matches_the_oracle(pool, picks, tsv, language_pair, stages, tables, vectors, k):
    rows = []
    for pair_id, (pick, source_end, target_end) in enumerate(picks):
        source, target = pool[pick % len(pool)]
        rows.append((pair_id, source + source_end, target + target_end))
    config = {"language_pair": "-".join(language_pair), "stages": stages}
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        if tsv:
            inputs = {"corpus.tsv": "".join(f"{source}\t{target}\n" for _, source, target in rows)}
        else:
            inputs = {
                "source.txt": "".join(f"{source}\n" for _, source, _ in rows),
                "target.txt": "".join(f"{target}\n" for _, _, target in rows),
            }
        for name, text in inputs.items():
            (folder / name).write_bytes(text.encode("utf-8"))
        assert oracle.read_rows(inputs) == rows
        predictions = None
        if tables is not None and tables != (None, None):
            config["lid_predictions"] = {}
            predictions = {}
            for side, key, table in zip("st", ("source", "target"), tables):
                predictions[side] = None if table is None else {i: (label, prob) for i, label, prob in table}
                if table is not None:
                    (folder / f"{side}.preds").write_text("".join(f"{i}\t{label}\t{prob!r}\n" for i, label, prob in table))
                    config["lid_predictions"][key] = str(folder / f"{side}.preds")
        ranking = None
        if k is not None and rows:
            sources, targets = ([pair[side] for pair in vectors[: len(rows)]] for side in (0, 1))
            (folder / "src.bin").write_bytes(_store(sources))
            (folder / "tgt.bin").write_bytes(_store(targets))
            config["ranking"] = {"source_embeddings": str(folder / "src.bin"), "target_embeddings": str(folder / "tgt.bin"), "top_k": k}
            ranking = (sources, targets, k)
        (folder / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        corpus = ["--tsv", str(folder / "corpus.tsv")] if tsv else [
            "--source", str(folder / "source.txt"), "--target", str(folder / "target.txt")
        ]
        out = folder / "out"
        argv = ["run", "--config", str(folder / "config.yaml"), *corpus, "--out-dir", str(out), "--removal-log"]
        # a LID stage that checks a side with no prediction file could only remove
        # every pair, and a prediction file that no LID stage reads is ignored
        checked = {side for stage in stages if stage["kind"] in ("lid", "lidthresh") for side in stage["side"]}
        if predictions is not None and any((predictions[side] is None) == (side in checked) for side in "st"):
            assert cli.main(argv) == 2
            assert not out.exists()
            return
        assert cli.main(argv) == 0

        expected = oracle.run_files(oracle.run(rows, stages, language_pair, predictions, ranking), tsv, len(rows))
        assert sorted(path.name for path in out.iterdir()) == sorted([*expected, "report.txt"])
        # read as bytes: a text may end in CR, which universal newlines would turn into LF
        actual = {name: (out / name).read_bytes().decode("utf-8") for name in expected}
        # the last column of report.tsv holds the wall times
        actual["report.tsv"] = "".join(line.rsplit("\t", 1)[0] + "\n" for line in actual["report.tsv"].split("\n")[:-1])
        assert actual == expected
