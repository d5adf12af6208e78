"""Link-prediction evaluation.

For every held-out triple, each side is predicted in turn: the entity in
that slot is replaced by every known entity, candidates are scored, and
the gold entity's rank is recorded. The ``raw`` setting ranks against
all entities; ``filtered`` drops candidates that would form another
triple known to be true anywhere in the dataset. Ranks are optimistic by
default (1 + number of strictly better candidates); a pessimistic mode
also counts ties, and the report carries a tie-rate diagnostic so
degenerate scorers are visible.

When a domain model is supplied, each candidate's out-of-domain penalty
for the slot being filled is added onto its baseline score, unscaled, so
the two terms can be compared directly in the scale diagnostic. Each
query is scored once: the baseline ranks and the penalized ranks are both
taken from those scores, and both reports come out of the one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (CATEGORIES, HEAD, TAIL, KnowledgeGraph, classify_relations)
from .domains import DomainModel, _slot_penalties, check_compatible
from .errors import ConfigurationError, NumericalError
from .models import (EmbeddingModel, _projection_key, _relation_groups,
                     project_all, score_all)

SETTINGS = ("raw", "filtered")
COMBINED = "combined"
HITS_AT = (1, 3, 10)

TIE_BREAKS = ("optimistic", "pessimistic")


@dataclass
class MetricBlock:
    mean_rank: float
    hits: dict[int, float]   # cutoff -> percentage of ranks <= cutoff
    n: int


@dataclass
class EvalReport:
    overall: dict[tuple[str, str], MetricBlock]
    by_category: dict[tuple[str, str, str], MetricBlock]
    n_test: int
    tie_rate: float
    # predictions whose slot had no fitted domain (skipped or unseen);
    # they received a zero penalty
    missing_domain_predictions: int
    term_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    # with domains: the unpenalized report ranked from the same scores
    baseline: EvalReport | None = None


def rank_of_gold(scores: np.ndarray, gold: int,
                 known: np.ndarray | None = None,
                 tie_break: str = "optimistic") -> tuple[int, int]:
    """(rank, tie count) of the gold entity among the candidates left
    after filtering.

    ``known`` holds distinct entity ids that are filtered out of the
    competition; the gold entity itself is never filtered, listed or
    not. Rank is 1 plus the number of strictly better candidates;
    pessimistic ranking also counts every tied competitor. Lower scores
    are better.
    """
    gold_score = scores[gold]
    better = int(np.count_nonzero(scores < gold_score))
    ties = int(np.count_nonzero(scores == gold_score)) - 1
    if known is not None:
        rivals = scores[known]
        better -= int(np.count_nonzero(rivals < gold_score))
        ties -= int(np.count_nonzero(rivals == gold_score)) \
            - int(np.count_nonzero(known == gold))
    rank = 1 + better
    if tie_break == "pessimistic":
        rank += ties
    return rank, ties


def _ranks(scores: np.ndarray, gold: int, known: np.ndarray,
           tie_break: str) -> tuple[int, int, int, int]:
    """(raw rank, raw ties, filtered rank, filtered ties)."""
    return (*rank_of_gold(scores, gold, None, tie_break),
            *rank_of_gold(scores, gold, known, tie_break))


# the score terms summarized over predictions; a report without domains
# carries the first two
_TERMS = ("gold_baseline", "median_baseline", "gold_penalty",
          "median_penalty")


def _rank_slot(graph: KnowledgeGraph, model: EmbeddingModel,
               domain_model: DomainModel | None, relation: int, side: str,
               cand: np.ndarray, rows: np.ndarray, triples: np.ndarray,
               tie_break: str, ranks: np.ndarray, terms: np.ndarray | None,
               missing: np.ndarray) -> None:
    """Rank every prediction of one slot for the triples sharing its
    relation (rows ``rows`` of the split ``triples``), from the slot's
    ``project_all`` candidates ``cand``.

    Triple ``i`` of the split predicts its head into row ``2 i`` and its
    tail into row ``2 i + 1`` of ``ranks`` (baseline and penalized
    ``_ranks``), ``terms`` (one row per ``_TERMS`` entry; not computed
    when ``None``) and ``missing``. The slot's penalties and their median
    are computed once; each query is scored once, and the baseline and
    penalized ranks both come from those scores.
    """
    col = 0 if side == HEAD else 1
    # the caller checked domain_model against the model once
    pen = None if domain_model is None else \
        _slot_penalties(domain_model, relation, side, cand)
    med_pen = 0.0 if pen is None else float(np.median(pen))
    for test_idx, (h, _, t) in zip(rows.tolist(), triples[rows].tolist()):
        row = 2 * test_idx + col
        if side == HEAD:
            gold = h
            base = score_all(model, relation, tail=t, projected=cand)
            known = graph.heads_by_rt[(relation, t)]
        else:
            gold = t
            base = score_all(model, relation, head=h, projected=cand)
            known = graph.tails_by_hr[(h, relation)]
        scores = base if pen is None else base + pen
        # penalties are >= 0, so this also covers the baseline scores
        if not np.isfinite(scores).all():
            raise NumericalError(f"non-finite score for relation {relation}")

        ranks[0, row] = _ranks(base, gold, known, tie_break)
        ranks[1, row] = ranks[0, row] if pen is None \
            else _ranks(scores, gold, known, tie_break)
        missing[row] = pen is None
        if terms is not None:
            terms[:, row] = (base[gold], np.median(base),
                             0.0 if pen is None else pen[gold], med_pen)


def _split_triples(graph: KnowledgeGraph, model: EmbeddingModel,
                   split: str) -> np.ndarray:
    """The triples of ``split``, after checking that ``model`` fits the
    graph and that the split has triples."""
    if split not in ("test", "valid"):
        raise ConfigurationError(f"unknown evaluation split {split!r}")
    if model.n_entities != graph.n_entities \
            or model.n_relations != graph.n_relations:
        raise ConfigurationError("model entity/relation counts do not match "
                                 "the graph")
    triples = graph.test if split == "test" else graph.valid
    if len(triples) == 0:
        raise ConfigurationError(f"{split} split is empty")
    return triples


def _rank_split(graph: KnowledgeGraph, model: EmbeddingModel,
                domain_model: DomainModel | None,
                triples: np.ndarray, tie_break: str,
                with_terms: bool) \
        -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The one ranking pass over ``triples``: (ranks, terms, missing) as
    ``_rank_slot`` fills them, ``terms`` only ``with_terms``.

    Work is grouped by relation, each group in split order, so each
    slot's penalties are computed once per group. Candidates are
    projected once per distinct projection (once per call for transe,
    once per relation for transr, once per slot for stranse), and no
    other (k, |E|) array is held.
    """
    n_pred = 2 * len(triples)
    ranks = np.empty((2, n_pred, 4), dtype=np.int64)  # baseline, penalized
    terms = np.empty((len(_TERMS), n_pred)) if with_terms else None
    missing = np.empty(n_pred, dtype=bool)
    # one candidate array, (k, E) in memory: a projection is made once
    # and kept while the next slots share it
    key = cand = None
    for relation, rows in _relation_groups(triples[:, 1]):
        for side in (HEAD, TAIL):
            slot_key = _projection_key(model, relation, side)
            if cand is None or slot_key != key:
                cand = None   # free the last candidates before the next
                key, cand = slot_key, project_all(model, relation, side)
            _rank_slot(graph, model, domain_model, relation, side, cand,
                       rows, triples, tie_break, ranks, terms, missing)
    return ranks, terms, missing


def _block(ranks: np.ndarray) -> MetricBlock:
    hits = {k: float(100.0 * np.count_nonzero(ranks <= k) / len(ranks))
            for k in HITS_AT}
    return MetricBlock(float(ranks.mean()), hits, int(len(ranks)))


def _summary(values: np.ndarray) -> dict[str, float]:
    qs = np.quantile(values, [0.0, 0.25, 0.50, 0.75, 1.0])
    return {"min": float(qs[0]), "p25": float(qs[1]), "median": float(qs[2]),
            "p75": float(qs[3]), "max": float(qs[4])}


def _report(ranks: np.ndarray, sides: np.ndarray, cats: np.ndarray,
            n_test: int, missing_domain: int,
            term_stats: dict[str, dict[str, float]]) -> EvalReport:
    """Aggregate per-prediction ``_ranks`` rows (in split order, head
    before tail) overall and per category."""
    overall: dict[tuple[str, str], MetricBlock] = {}
    by_category: dict[tuple[str, str, str], MetricBlock] = {}
    for setting, col in zip(SETTINGS, (0, 2)):   # rank columns of _ranks
        side_ranks = {}
        for side in (HEAD, TAIL):
            sel = sides == side
            side_ranks[side] = ranks[sel, col]
            overall[(setting, side)] = _block(side_ranks[side])
            for cat in CATEGORIES:
                in_cat = cats[sel] == cat
                if in_cat.any():
                    by_category[(setting, side, cat)] = _block(
                        side_ranks[side][in_cat])
        overall[(setting, COMBINED)] = _block(
            np.concatenate([side_ranks[HEAD], side_ranks[TAIL]]))
        for cat in CATEGORIES:
            pieces = [by_category[(setting, side, cat)]
                      for side in (HEAD, TAIL)
                      if (setting, side, cat) in by_category]
            if pieces:
                n = sum(p.n for p in pieces)
                by_category[(setting, COMBINED, cat)] = MetricBlock(
                    sum(p.mean_rank * p.n for p in pieces) / n,
                    {k: sum(p.hits[k] * p.n for p in pieces) / n
                     for k in HITS_AT},
                    n)
    tie_rate = float(np.mean(ranks[:, 1] > 0))
    return EvalReport(overall, by_category, n_test, tie_rate, missing_domain,
                      term_stats)


def evaluate(graph: KnowledgeGraph, model: EmbeddingModel,
             domain_model: DomainModel | None = None, *,
             split: str = "test",
             tie_break: str = "optimistic") -> EvalReport:
    """Rank the gold entity of every triple in the chosen split, both
    sides, raw and filtered, and aggregate overall and per category.

    Every query is scored once, in one serial ``_rank_split`` pass. With
    a domain model the returned report is the penalized one, and its
    ``baseline`` is the report without penalties, ranked from the same
    scores in the same pass (equal to ``evaluate(graph, model)``).
    """
    triples = _split_triples(graph, model, split)
    if tie_break not in TIE_BREAKS:
        raise ConfigurationError(f"unknown tie break mode {tie_break!r}")
    if domain_model is not None:
        check_compatible(domain_model, model)
    ranks, terms, missing = _rank_split(graph, model, domain_model, triples,
                                        tie_break, with_terms=True)

    categories = classify_relations(graph)
    cats = np.repeat([categories[r] for r in triples[:, 1].tolist()], 2)
    sides = np.tile([HEAD, TAIL], len(triples))
    stats = {term: _summary(values) for term, values in zip(_TERMS, terms)}
    baseline = _report(ranks[0], sides, cats, len(triples), 0,
                       {term: stats[term] for term in _TERMS[:2]})
    if domain_model is None:
        return baseline

    report = _report(ranks[1], sides, cats, len(triples),
                     int(np.count_nonzero(missing)), stats)
    report.baseline = baseline
    return report


def validation_hits10(graph: KnowledgeGraph, model: EmbeddingModel) -> float:
    """Filtered combined Hits@10 on the validation split (early stopping):
    the value ``evaluate(graph, model, split="valid")`` reports, read
    from the ranks of the same pass without the report's categories and
    score terms."""
    triples = _split_triples(graph, model, "valid")
    ranks, _, _ = _rank_split(graph, model, None, triples, "optimistic",
                              with_terms=False)
    return _block(ranks[0, :, 2]).hits[10]   # filtered rank column of _ranks


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _metric_items(block: MetricBlock) -> list[tuple[str, float]]:
    return [("mean_rank", block.mean_rank)] + \
        [(f"hits@{k}", block.hits[k]) for k in HITS_AT]


def format_report(report: EvalReport, title: str = "evaluation") -> str:
    lines = [f"# {title}",
             f"n_test={report.n_test}",
             f"tie_rate={report.tie_rate:.4f}",
             f"missing_domain_predictions={report.missing_domain_predictions}"]
    for (setting, side), block in report.overall.items():
        metrics = " ".join(f"{name}={value:.4f}"
                           for name, value in _metric_items(block))
        lines.append(f"{setting} {side} n={block.n} {metrics}")
    for (setting, side, cat), block in report.by_category.items():
        metrics = " ".join(f"{name}={value:.4f}"
                           for name, value in _metric_items(block))
        lines.append(f"{setting} {side} [{cat}] n={block.n} {metrics}")
    if report.term_stats:
        lines.append("# score term scales over predictions")
        for term, stats in report.term_stats.items():
            vals = " ".join(f"{k}={v:.4f}" for k, v in stats.items())
            lines.append(f"term {term} {vals}")
    return "\n".join(lines) + "\n"


def csv_rows(report: EvalReport) -> list[tuple[str, str, str, str, float]]:
    """(setting, side, category, metric, value) rows; overall blocks use
    category ``all``."""
    rows = []
    for (setting, side), block in report.overall.items():
        for name, value in _metric_items(block):
            rows.append((setting, side, "all", name, value))
    for (setting, side, cat), block in report.by_category.items():
        for name, value in _metric_items(block):
            rows.append((setting, side, cat, name, value))
    return rows


def comparison_rows(base: EvalReport, dre: EvalReport) \
        -> list[tuple[str, str, str, str, float, float, float]]:
    """(setting, side, category, metric, baseline, with_domains, delta)."""
    base_map = {row[:4]: row[4] for row in csv_rows(base)}
    rows = []
    for setting, side, cat, name, value in csv_rows(dre):
        if (setting, side, cat, name) in base_map:
            b = base_map[(setting, side, cat, name)]
            rows.append((setting, side, cat, name, b, value, value - b))
    return rows


def format_comparison(base: EvalReport, dre: EvalReport) -> str:
    lines = ["# baseline vs domain-penalized (delta = penalized - baseline)"]
    for setting, side, cat, name, b, v, d in comparison_rows(base, dre):
        scope = "all" if cat == "all" else f"[{cat}]"
        lines.append(f"{setting} {side} {scope} {name}: "
                     f"{b:.4f} -> {v:.4f} (delta {d:+.4f})")
    return "\n".join(lines) + "\n"
