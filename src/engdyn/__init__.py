"""Engagement-dynamics toolkit.

Fits logistic growth curves to per-topic cumulative engagement, scores
topics by Speed Index and Love-Hate balance, extracts topic candidates
from term co-occurrence graphs, and compares categories with rank tests.
"""

from .curvefit import FitOptions, FitResult, fit, initial_guess, sigmoid
from .errors import (DegenerateFit, DomainError, EmptyArticle, EngdynError,
                     InsufficientData, InvalidInput, TooManyBins,
                     UndefinedCorrelation, ZeroEngagement)
from .metrics import TopicMetrics, love_hate, speed_index, topic_metrics
from .model import (CATEGORIES, ParseResult, PostTable, TopicSeries,
                    build_series, load_posts, parse_posts, read_categories)
from .stats import (CorrelationResult, MannWhitneyResult, PairwiseTestMatrix,
                    mann_whitney_u, pairwise_category_tests, spearman)
from .synth import SynthSpec, generate_corpus, generate_topic, sample_times
from .topicgraph import (TermGraph, cluster_report, extract_terms,
                         extract_terms_chunk, load_stopwords, louvain,
                         modularity, project)

__version__ = "0.1.0"

__all__ = [
    "CATEGORIES", "CorrelationResult", "DegenerateFit", "DomainError",
    "EmptyArticle", "EngdynError", "FitOptions", "FitResult",
    "InsufficientData", "InvalidInput", "MannWhitneyResult",
    "PairwiseTestMatrix", "ParseResult", "PostTable", "SynthSpec", "TermGraph",
    "TooManyBins", "TopicMetrics", "TopicSeries", "UndefinedCorrelation",
    "ZeroEngagement", "build_series", "cluster_report", "extract_terms",
    "extract_terms_chunk", "fit", "generate_corpus", "generate_topic",
    "initial_guess", "load_posts", "load_stopwords", "louvain", "love_hate",
    "mann_whitney_u", "modularity", "pairwise_category_tests", "parse_posts",
    "project", "read_categories", "sample_times", "sigmoid", "spearman",
    "speed_index", "topic_metrics",
]
