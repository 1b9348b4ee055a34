"""Parallel-corpus curation: heuristic filters, ranking and quality metrics.

The package splits into small focused modules:

* corpus     sentence-pair records, streaming I/O, reduction stats
* textnorm   tokenization, normalization variants, n-grams
* dedup      full-sentence and n-gram deduplication
* filters    length, language-ID and ratio predicates
* lid        script-based language detection and prediction tables
* ranking    embedding stores, cosine scoring, top-k extraction
* pipeline   config-driven composition and the recommended preset
* taxonomy   noise categories, heuristic coverage, annotator agreement
* synthnoise labeled synthetic corpora for filter evaluation
* metrics    disparity math over evaluation-score tables
"""

from .corpus import (
    CorpusStats,
    LanguagePair,
    SentencePair,
    Side,
    compute_stats,
    read_corpus,
    write_corpus,
)
from .dedup import DedupSpec, SeenIndex, dedup_stream
from .errors import ConfigError, CurateError, DataError
from .filters import (
    LengthSpec,
    LidSpec,
    RatioKind,
    RatioSpec,
    length_pass,
    lid_pass,
    ratio_pass,
    stratio_bounds_from_reference,
)
from .lid import (
    LidPrediction,
    LidPredictor,
    ScriptPredictor,
    TablePredictor,
    export_predictions,
    load_predictions,
    script_predict,
)
from .metrics import ScoreTable, best_per_group, disparity, disparity_reduction
from .pipeline import (
    PipelineConfig,
    RankingSpec,
    RunReport,
    RunResult,
    load_config,
    recommended_preset,
    run,
)
from .ranking import (
    EmbeddingStore,
    RankedCorpus,
    cosine,
    load_embeddings,
    rank_corpus,
    top_k,
    write_embeddings,
)
from .synthnoise import LabeledPair, NoiseRecipe, generate, score_filters
from .taxonomy import AnnotationSet, NoiseLabel, fleiss_kappa, heuristic_coverage, label_distribution
from .textnorm import NormMode, char_ratios, normalize, tokenize, word_ngrams

__version__ = "0.1.0"
