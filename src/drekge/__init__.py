"""Translation-based knowledge-graph embeddings with per-relation domain
ellipsoid penalties for link prediction."""

import os

# BLAS runs on one thread (evaluation with domains adds one helper
# thread, whose penalties are the serial pass's; see
# evaluation._rank_split): a BLAS library reads its thread count once,
# when numpy loads it, so the count is set here, before any submodule
# imports numpy. One thread also keeps the rounding of the large
# products, and so a trained projected model, the same on every host. A
# value already in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .data import (KnowledgeGraph, Vocab, build_graph, classify_relations,
                   load_graph)
from .domains import (DomainModel, fit_all_domains, load_domains,
                      penalties_all, save_domains, slot_members)
from .ellipsoid import (Ellipsoid, FitConfig, distance, fit, gradient,
                        quad_form, score_test)
from .errors import (ConfigurationError, DataError, DegeneratePointError,
                     DrekgeError, FormatError, NumericalError, ParseError,
                     StaleDomainModelError, TrainingDivergedError,
                     UnknownLabelError)
from .evaluation import EvalReport, evaluate, format_report
from .models import (EmbeddingModel, TrainConfig, load_model, save_model,
                     score_triple, train)

__version__ = "0.1.0"

__all__ = [
    "KnowledgeGraph", "Vocab", "build_graph", "classify_relations",
    "load_graph",
    "DomainModel", "fit_all_domains", "load_domains", "penalties_all",
    "save_domains", "slot_members",
    "Ellipsoid", "FitConfig", "distance", "fit", "gradient", "quad_form",
    "score_test",
    "ConfigurationError", "DataError", "DegeneratePointError", "DrekgeError",
    "FormatError", "NumericalError", "ParseError", "StaleDomainModelError",
    "TrainingDivergedError", "UnknownLabelError",
    "EvalReport", "evaluate", "format_report",
    "EmbeddingModel", "TrainConfig", "load_model", "save_model",
    "score_triple", "train",
    "__version__",
]
