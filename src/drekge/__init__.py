"""Translation-based knowledge-graph embeddings with per-relation domain
ellipsoid penalties for link prediction."""

from .data import (Domain, KnowledgeGraph, Vocab, build_graph,
                   classify_relations, extract_domains, load_graph)
from .domains import (DomainModel, fit_all_domains, load_domains,
                      penalties_all, save_domains)
from .ellipsoid import (Ellipsoid, FitConfig, distance, fit, gradient,
                        quad_form, score_test)
from .errors import (ConfigurationError, DataError, DegeneratePointError,
                     DrekgeError, FormatError, NumericalError, ParseError,
                     StaleDomainModelError, TrainingDivergedError,
                     UnknownLabelError)
from .evaluation import EvalReport, evaluate, format_report, rank_of_gold
from .models import (EmbeddingModel, TrainConfig, load_model, save_model,
                     score_triple, train)

__version__ = "0.1.0"

__all__ = [
    "Domain", "KnowledgeGraph", "Vocab", "build_graph", "classify_relations",
    "extract_domains", "load_graph",
    "DomainModel", "fit_all_domains", "load_domains", "penalties_all",
    "save_domains",
    "Ellipsoid", "FitConfig", "distance", "fit", "gradient", "quad_form",
    "score_test",
    "ConfigurationError", "DataError", "DegeneratePointError", "DrekgeError",
    "FormatError", "NumericalError", "ParseError", "StaleDomainModelError",
    "TrainingDivergedError", "UnknownLabelError",
    "EvalReport", "evaluate", "format_report", "rank_of_gold",
    "EmbeddingModel", "TrainConfig", "load_model", "save_model",
    "score_triple", "train",
    "__version__",
]
