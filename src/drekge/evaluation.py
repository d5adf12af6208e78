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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import (CATEGORIES, HEAD, TAIL, KnowledgeGraph, classify_relations)
from .domains import DomainModel, _slot_penalties, check_compatible
from .errors import ConfigurationError, NumericalError
from .models import EmbeddingModel, project_all, score_all

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
                 allowed: np.ndarray | None = None,
                 tie_break: str = "optimistic") -> tuple[int, int]:
    """(rank, tie count) of the gold entity within the allowed candidates.

    ``allowed`` is a boolean mask over all entities (the gold entity is
    always considered allowed). Rank is 1 plus the number of strictly
    better candidates; pessimistic ranking also counts every tied
    competitor. Lower scores are better.
    """
    gold_score = scores[gold]
    if allowed is None:
        better = int(np.count_nonzero(scores < gold_score))
        ties = int(np.count_nonzero(scores == gold_score)) - 1
    else:
        sel = scores[allowed]
        better = int(np.count_nonzero(sel < gold_score))
        ties = int(np.count_nonzero(sel == gold_score))
        if allowed[gold]:
            ties -= 1
    rank = 1 + better
    if tie_break == "pessimistic":
        rank += ties
    return rank, ties


# one scored prediction: its place in the split, and the (raw rank, raw
# ties, filtered rank, filtered ties) of the baseline scores and of the
# penalized ones (the baseline's again when the slot has no penalty)
@dataclass
class _Record:
    test_idx: int
    side: str
    base: tuple[int, int, int, int]
    pen: tuple[int, int, int, int]
    missing_domain: bool
    gold_base: float
    gold_pen: float
    med_base: float
    med_pen: float


def _ranks(scores: np.ndarray, gold: int, allowed: np.ndarray,
           tie_break: str) -> tuple[int, int, int, int]:
    return (*rank_of_gold(scores, gold, None, tie_break),
            *rank_of_gold(scores, gold, allowed, tie_break))


def _eval_relation_group(graph: KnowledgeGraph, model: EmbeddingModel,
                         domain_model: DomainModel | None, relation: int,
                         items: list[tuple[int, int, int]],
                         tie_break: str) -> list[_Record]:
    """Score every prediction for test triples sharing one relation.

    Each slot is projected once and each query scored once, into one
    scratch buffer per group; the baseline and penalized ranks both come
    from those scores.
    """
    n_e = graph.n_entities
    proj = {side: project_all(model, relation, side) for side in (HEAD, TAIL)}
    pens = {side: None for side in (HEAD, TAIL)}
    if domain_model is not None:
        # evaluate checked domain_model against the model once
        pens = {side: _slot_penalties(domain_model, relation, side,
                                      proj[side])
                for side in (HEAD, TAIL)}
    scratch = np.empty((n_e, model.rel_dim))

    records = []
    for test_idx, h, t in items:
        for side, gold, fixed in ((HEAD, h, t), (TAIL, t, h)):
            if side == HEAD:
                base = score_all(model, relation, tail=fixed,
                                 projected=proj[HEAD], out=scratch)
                known = graph.heads_by_rt[(relation, fixed)]
            else:
                base = score_all(model, relation, head=fixed,
                                 projected=proj[TAIL], out=scratch)
                known = graph.tails_by_hr[(fixed, relation)]
            pen = pens[side]
            scores = base if pen is None else base + pen
            # penalties are >= 0, so this also covers the baseline scores
            if not np.isfinite(scores).all():
                raise NumericalError(f"non-finite score for relation {relation}")

            allowed = np.ones(n_e, dtype=bool)
            allowed[known] = False
            allowed[gold] = True
            base_ranks = _ranks(base, gold, allowed, tie_break)
            records.append(_Record(
                test_idx, side, base_ranks,
                base_ranks if pen is None
                else _ranks(scores, gold, allowed, tie_break),
                pen is None,
                float(base[gold]),
                0.0 if pen is None else float(pen[gold]),
                float(np.median(base)),
                0.0 if pen is None else float(np.median(pen))))
    return records


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
             split: str = "test", tie_break: str = "optimistic",
             threads: int = 1) -> EvalReport:
    """Rank the gold entity of every triple in the chosen split, both
    sides, raw and filtered, and aggregate overall and per category.

    Work is grouped by relation so each projection is computed once per
    group; groups are independent, and ``threads`` > 1 evaluates them
    concurrently with results merged in a fixed order. With a domain
    model the returned report is the penalized one, and its ``baseline``
    is the report without penalties, ranked from the same scores in the
    same pass (equal to ``evaluate(graph, model)``).
    """
    if split not in ("test", "valid"):
        raise ConfigurationError(f"unknown evaluation split {split!r}")
    if tie_break not in TIE_BREAKS:
        raise ConfigurationError(f"unknown tie break mode {tie_break!r}")
    if model.n_entities != graph.n_entities \
            or model.n_relations != graph.n_relations:
        raise ConfigurationError("model entity/relation counts do not match "
                                 "the graph")
    if domain_model is not None:
        check_compatible(domain_model, model)
    triples = graph.test if split == "test" else graph.valid
    if not triples:
        raise ConfigurationError(f"{split} split is empty")

    groups: dict[int, list[tuple[int, int, int]]] = {}
    for idx, (h, r, t) in enumerate(triples):
        groups.setdefault(r, []).append((idx, h, t))
    ordered = sorted(groups)

    def run(relation: int) -> list[_Record]:
        return _eval_relation_group(graph, model, domain_model, relation,
                                    groups[relation], tie_break)

    if threads > 1 and len(ordered) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run, ordered))
    else:
        chunks = [run(r) for r in ordered]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda rec: (rec.test_idx, rec.side))

    categories = classify_relations(graph)
    cat_of = np.array([categories[r] for _, r, _ in triples])
    sides = np.array([rec.side for rec in records])
    cats = cat_of[np.array([rec.test_idx for rec in records])]
    base_stats = {
        "gold_baseline": _summary(np.array([r.gold_base for r in records])),
        "median_baseline": _summary(np.array([r.med_base for r in records])),
    }
    baseline = _report(np.array([rec.base for rec in records]), sides, cats,
                       len(triples), 0, base_stats)
    if domain_model is None:
        return baseline

    report = _report(np.array([rec.pen for rec in records]), sides, cats,
                     len(triples),
                     sum(rec.missing_domain for rec in records),
                     {**base_stats,
                      "gold_penalty": _summary(
                          np.array([r.gold_pen for r in records])),
                      "median_penalty": _summary(
                          np.array([r.med_pen for r in records]))})
    report.baseline = baseline
    return report


def validation_hits10(graph: KnowledgeGraph, model: EmbeddingModel,
                      threads: int = 1) -> float:
    """Filtered combined Hits@10 on the validation split (early stopping)."""
    report = evaluate(graph, model, None, split="valid", threads=threads)
    return report.overall[("filtered", COMBINED)].hits[10]


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
