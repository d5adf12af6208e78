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

This module is the one place a query becomes scores: ``evaluate`` and
``validation_hits10`` rank whole splits, and ``score_query`` scores one
partial triple (``drekge predict``). Every path checks that the model
fits the graph, takes its penalties from ``domains.penalties_all`` (which
checks the domain model against the embedding model) and refuses a
non-finite score.

Ranking a split does not score every candidate exactly. Each query
makes one ``_Screen`` call, which scores every candidate cheaply
(``models._coordinate_scores`` in float32 for transe's L1, the GEMM form
||x||^2 + 2 a^T x + ||a||^2 for L2) and bounds each exact score by its
screen value plus or minus a radius, from the worst-case rounding of
both and the candidate's own norm; a query no screen bounds gets its
exact scores, the same loop in float64, as zero-width bounds. Only the
candidates whose bounds cannot place them against the gold are
re-scored exactly, with the gold and its filtered rivals, in the order
the loop adds, so every rank, tie count and score term is the one the
exact scores give, bit for bit. ``score_query`` prints scores, so it
scores every one.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import (CATEGORIES, HEAD, TAIL, KnowledgeGraph, _groups,
                   classify_relations)
from .domains import DomainModel, check_compatible, penalties_all
from .errors import ConfigurationError, NumericalError
from .models import (EmbeddingModel, _anchor, _coordinate_scores,
                     _projection_key, _score_rows, check_fits, project_all,
                     score_all)

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


def _ranks(scores: np.ndarray, gold: int, known: np.ndarray,
           tie_break: str) -> tuple[int, int, int, int]:
    """(raw rank, raw ties, filtered rank, filtered ties) of the gold
    entity; lower scores are better. Rank is 1 plus the number of
    strictly better candidates; pessimistic ranking also counts every
    tied one. Filtered drops ``known``, distinct entity ids, but never
    the gold, listed or not: the known rivals' share of the raw counts,
    each candidate counted once, is taken away."""
    gold_score = scores[gold]
    better = int(np.count_nonzero(scores < gold_score))
    ties = int(np.count_nonzero(scores == gold_score)) - 1
    rivals = scores[known]
    kept_better = better - int(np.count_nonzero(rivals < gold_score))
    kept_ties = ties - int(np.count_nonzero(rivals == gold_score)) \
        + int(np.count_nonzero(known == gold))
    if tie_break == "pessimistic":
        return 1 + better + ties, ties, 1 + kept_better + kept_ties, kept_ties
    return 1 + better, ties, 1 + kept_better, kept_ties


# the score terms summarized over predictions; a report without domains
# carries the first two
_TERMS = ("gold_baseline", "median_baseline", "gold_penalty",
          "median_penalty")


def _combined(base: np.ndarray, pen: np.ndarray | None,
              relation: int) -> np.ndarray:
    """Baseline scores plus the slot's penalties (``base`` itself when
    there are none), refused unless every one is finite. Penalties are
    >= 0, so this also covers the baseline scores."""
    scores = base if pen is None else base + pen
    if not np.isfinite(scores).all():
        raise NumericalError(f"non-finite score for relation {relation}")
    return scores


def score_query(graph: KnowledgeGraph, model: EmbeddingModel,
                domain_model: DomainModel | None, relation: int, *,
                head: int | None = None, tail: int | None = None) \
        -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(baseline, penalties, combined) scores of every entity in the
    open slot of one query, with exactly one of ``head`` and ``tail``
    fixed. ``penalties`` is None without a domain model or when the slot
    has no ellipsoid; ``combined`` is then the baseline. The open slot is
    projected once, for the scores and the penalties."""
    check_fits(model, graph)
    side = TAIL if tail is None else HEAD
    cand = project_all(model, relation, side)
    base = score_all(model, relation, head=head, tail=tail, projected=cand)
    pen = None if domain_model is None else \
        penalties_all(domain_model, model, relation, side, cand)
    return base, pen, _combined(base, pen, relation)


def _split_triples(graph: KnowledgeGraph, model: EmbeddingModel,
                   split: str) -> np.ndarray:
    """The triples of ``split``, after checking that ``model`` fits the
    graph and that the split has triples."""
    if split not in ("test", "valid"):
        raise ConfigurationError(f"unknown evaluation split {split!r}")
    check_fits(model, graph)
    triples = graph.test if split == "test" else graph.valid
    if len(triples) == 0:
        raise ConfigurationError(f"{split} split is empty")
    return triples


# unit roundoffs of float32, in which the L1 screen adds, and of
# float64, in which the L2 screen and every exact score add
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
# a query is screened only while its upper bounds stay below this: every
# exact score is then finite
_CEILING = 2.0 ** 500


class _Screen:
    """The one call through which every query of one
    ``_projection_key`` gets its candidates' bounds and exact scores.

    ``rows`` is the slot's ``project_all`` result, (|E|, k), the
    candidates' exact float64 vectors, which ``_coordinate_scores`` and
    ``_score_rows`` score (transe's is ``entity_vecs`` itself). L1
    screens transe with ``_coordinate_scores`` over one C-ordered
    float32 (k, |E|) copy of ``rows``; L2 screens from the GEMM form
    ||x||^2 + 2 a^T x + ||a||^2 over ``rows``, with one (|E|,) vector of
    squared norms and no further (k, |E|) array. Both keep the (|E|,)
    candidate norms that their radii scale with. A projected L1 variant
    is not screened: its float32 block would be held beside the float64
    projection that exact scores must read (a projection's bits depend
    on its width), half as much candidate memory again, so its queries
    take zero-width bounds.
    """

    def __init__(self, model: EmbeddingModel, relation: int, side: str):
        self.dissimilarity = model.dissimilarity
        self.rows = project_all(model, relation, side)
        self.on = not (self.dissimilarity == "l1" and len(model.proj))
        if not self.on:
            return
        # an entity past float32's range (L1), or one whose squared norm
        # overflows (L2), screens as inf: its queries take zero-width bounds
        with np.errstate(over="ignore", invalid="ignore"):
            if self.dissimilarity == "l1":
                self.block = np.ascontiguousarray(self.rows.T,
                                                  dtype=np.float32)
                # each candidate's ||x||_1, one coordinate row at a time:
                # np.abs of all the rows would be a float64 copy of them
                self.norms = np.zeros(len(self.rows))
                for coords in self.block:
                    self.norms += np.abs(coords)
            else:
                self.squares = np.einsum("ij,ij->i", self.rows, self.rows)
                self.norms = np.sqrt(self.squares)

    def __call__(self, anchor: np.ndarray, pen: np.ndarray | None,
                 pen_max: float, relation: int):
        """(lo, hi, exact) for the query of ``anchor``: float64 bounds
        lo <= s <= hi on each candidate's exact score s, and
        ``exact(ids)``, the exact scores of the candidates ``ids``. A
        query the screen does not bound (it is off, a bound is not
        finite and below ``_CEILING``, or the largest bound plus
        ``pen_max``, the slot's largest penalty, overflows) gets
        zero-width bounds lo = hi = s, its ``_coordinate_scores`` over
        ``rows``, once ``_combined`` has refused a non-finite s with the
        slot's penalties ``pen``.

        Each candidate's radius, v +- radius for its screen value v, is
        twice the sum of the screen's and the exact loop's worst-case
        rounding (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2002, ch. 3), which scale with its own norm ||x||
        and the query's ||a||; the factor of two also absorbs the
        rounding of lo and hi. L1 in float32, with k coordinates:
        rounding x and a costs u32 (|x_i| + |a_i|) a coordinate, the sum
        (k - 1) u32 its terms, and the exact float64 loop far less, so
        (k + 2) u32 (||x||_1 + ||a||_1) bounds both, with an absolute
        k 2^-148 for float32's subnormals. L2 bounds the squared sums:
        the GEMM form (in any summation order) and the exact loop are
        each within gamma_{k+2} (||x|| + ||a||)^2 of ||x + a||^2, a
        square root moves a difference d by at most sqrt(d), and the two
        square roots round by u64 of their result each; as
        sqrt(d + e) <= sqrt(d) + sqrt(e), the radius is linear in
        ||x|| + ||a||, with an absolute term for subnormals.
        """
        k, top = len(anchor), math.inf
        if self.on:
            with np.errstate(over="ignore", invalid="ignore"):
                if self.dissimilarity == "l1":
                    values = _coordinate_scores(
                        self.block, anchor.astype(np.float32),
                        "l1").astype(np.float64)
                    radius = self.norms + float(np.abs(anchor).sum())
                    radius *= 2 * (k + 2) * _U32
                    radius += 2 * k * 2.0 ** -148
                else:
                    square = float(anchor @ anchor)
                    values = self.rows @ anchor
                    values *= 2
                    values += self.squares
                    values += square
                    np.sqrt(np.maximum(values, 0.0, out=values), out=values)
                    radius = self.norms + math.sqrt(square)
                    radius *= 2 * (math.sqrt(2 * (k + 2) * _U64) + 2 * _U64)
                    radius += 2 * math.sqrt(k * 2.0 ** -1060)
                lo = values - radius
                hi = np.add(values, radius, out=radius)
                top = float(hi.max())
        if top < _CEILING and top + pen_max < math.inf:
            return lo, hi, partial(_score_rows, self.rows, anchor=anchor,
                                   dissimilarity=self.dissimilarity)
        scores = _coordinate_scores(self.rows.T, anchor, self.dissimilarity)
        _combined(scores, pen, relation)
        return scores, scores, scores.take


def _split(lo: np.ndarray, hi: np.ndarray,
           center: float) -> tuple[np.ndarray, np.ndarray]:
    """(below, band) masks: the candidates whose exact score is certainly
    below ``center`` (hi below it), and those their bounds leave
    undecided (lo at or below it, hi not)."""
    below = hi < center
    return below, (lo <= center) ^ below


def _settled(exact: np.ndarray, cand: np.ndarray, gold: int,
             known: np.ndarray, below: np.ndarray,
             tie_break: str) -> np.ndarray:
    """``_ranks`` of the gold from the exact scores of the candidates
    ``cand`` (sorted ids, the gold's included), plus the candidates
    outside ``cand`` that ``below`` counts as certainly better: they
    are unfiltered rivals, better in both settings."""
    more = np.count_nonzero(below) - np.count_nonzero(below[cand])
    return np.add(_ranks(exact, int(np.searchsorted(cand, gold)),
                         np.searchsorted(cand, known), tie_break),
                  (more, 0, more, 0))


def _screened_median(lo: np.ndarray, hi: np.ndarray, exact) -> float:
    """``np.median`` of the exact scores s, from their bounds. Order
    statistics are monotone, so lo_(j) <= s_(j) <= hi_(j): a candidate
    whose hi is below the lower middle lo_(j) is certainly below s_(j),
    and one whose lo is above the upper middle hi_(j') certainly above
    s_(j'). Only the candidates in between are re-scored by
    ``exact(ids)``; sorted, they hold s_(j) at j minus the count below."""
    n = len(lo)
    first, last = (n - 1) // 2, n // 2
    floor = np.partition(lo, first)[first]
    ceiling = np.partition(hi, last)[last]
    below = hi < floor
    count = int(np.count_nonzero(below))
    band = np.sort(exact(np.flatnonzero((lo <= ceiling) & ~below)))
    # np.median's own arithmetic: the mean of the one or two middle values
    return float(np.mean(band[[first - count, last - count]]))


def _rank_query(model: EmbeddingModel, screen: _Screen, relation: int,
                fixed: dict[str, int], gold: int, known: np.ndarray,
                pen: np.ndarray | None, pen_max: float, tie_break: str,
                with_median: bool):
    """(baseline ``_ranks``, penalized ``_ranks``, gold score, median
    score) of one query, the one of ``fixed`` (``head=`` or ``tail=``),
    from one ``screen`` call: see ``_rank_split``. The median is 0.0
    unless ``with_median``."""
    anchor = _anchor(model, relation, **fixed)
    lo, hi, exact = screen(anchor, pen, pen_max, relation)
    (gold_score,) = exact([gold])
    median = _screened_median(lo, hi, exact) if with_median else 0.0
    below, band = _split(lo, hi, gold_score)
    if pen is not None:
        # rounding is monotone: fl(lo + p) <= fl(s + p) <= fl(hi + p).
        # New arrays: zero-width bounds are the scores ``exact`` reads
        lo, hi = lo + pen, hi + pen
        below_pen, band_pen = _split(lo, hi, gold_score + pen[gold])
        band |= band_pen
    band[np.append(known, gold)] = True
    cand = np.flatnonzero(band)
    base = exact(cand)
    ranks = _settled(base, cand, gold, known, below, tie_break)
    return (ranks, ranks if pen is None
            else _settled(base + pen[cand], cand, gold, known, below_pen,
                          tie_break),
            gold_score, median)


def _rank_split(graph: KnowledgeGraph, model: EmbeddingModel,
                domain_model: DomainModel | None,
                triples: np.ndarray, tie_break: str,
                with_terms: bool) \
        -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The one ranking loop over ``triples``: (ranks, terms, missing).

    Triple ``i`` predicts its head into row ``2 i`` and its tail into
    row ``2 i + 1`` of ``ranks`` (baseline and penalized ``_ranks``),
    ``terms`` (one row per ``_TERMS`` entry; None unless ``with_terms``)
    and ``missing``. The baseline and penalized ranks both come from one
    ``_Screen`` call per query (``_rank_query``).

    Work is grouped by relation, each group in split order, so each
    slot's penalties and their median are computed once per group. A
    ``_Screen`` is built once per ``_projection_key`` (once per call for
    transe, once per relation for transr, once per slot for stranse).

    With a domain model, the domain file is checked against the model
    once, on the calling thread, and one helper thread computes
    penalties one slot ahead: whenever the next slot has this slot's
    ``_projection_key``, its ``penalties_all`` over the same
    ``_Screen.rows`` is started before this slot's penalties are taken.
    That is every transe slot, each transr relation's tail slot (while
    its head slot is ranked) and no stranse slot. Each penalty array is
    the one a serial call makes, so ranks do not depend on scheduling,
    and a helper's exception is raised here, at the slot that needs its
    penalties. Without a domain model no thread is started.

    Ranks are exact. A query's ``_Screen`` call bounds every
    candidate's exact score s by lo <= s <= hi, then the gold, its
    filtered rivals and every candidate whose bounds hold the gold's
    exact score are re-scored exactly by the call's ``exact``; the
    bounds decide the rest, certainly below or above the gold. A
    penalized score is fl(s + p): rounding is monotone, so fl(lo + p)
    and fl(hi + p) bound it. Ties are only ever decided exactly, so
    ranks and tie counts are those of ``score_all``'s scores, and so is
    the ``median_baseline`` term (``_screened_median``). A query the
    screen does not bound (a projected L1 variant, a bound past
    ``_CEILING`` as an entity beyond float32's range makes it, a slot
    with a non-finite penalty) gets zero-width bounds, lo = hi = s, from
    the same call, and ``exact`` reads them.
    """
    n_pred = 2 * len(triples)
    ranks = np.empty((2, n_pred, 4), dtype=np.int64)  # baseline, penalized
    terms = np.empty((len(_TERMS), n_pred)) if with_terms else None
    missing = np.empty(n_pred, dtype=bool)
    slots = [(relation, side, _projection_key(model, relation, side), col,
              rows)
             for relation, rows in _groups(triples[:, 1])
             for col, side in enumerate((HEAD, TAIL))]
    helper = nullcontext()
    if domain_model is not None:
        # imported here: it adds about 10 ms to every process that
        # imports the package, and only this pass starts a thread
        from concurrent.futures import ThreadPoolExecutor
        check_compatible(domain_model, model)
        helper = ThreadPoolExecutor(max_workers=1)
    key = screen = ahead = None
    with helper as pool:
        for (relation, side, slot_key, col, rows), after in zip(
                slots, slots[1:] + [None]):
            if screen is None or slot_key != key:
                screen = None   # free the last candidates before the next
                key, screen = slot_key, _Screen(model, relation, side)
            pen = None   # and the last slot's penalties
            if domain_model is not None:
                pending, ahead = ahead, None
                if after is not None and after[2] == key:
                    # the next slot reads these rows: start its penalties
                    ahead = pool.submit(penalties_all, domain_model, model,
                                        *after[:2], screen.rows)
                pen = pending.result() if pending is not None else \
                    penalties_all(domain_model, model, relation, side,
                                  screen.rows)
            med_pen = 0.0 if pen is None else float(np.median(pen))
            pen_max = 0.0 if pen is None else float(pen.max())
            for i, (h, _, t) in zip(rows.tolist(), triples[rows].tolist()):
                row = 2 * i + col
                if side == HEAD:
                    gold, fixed = h, {"tail": t}
                    known = graph.heads_by_rt[(relation, t)]
                else:
                    gold, fixed = t, {"head": h}
                    known = graph.tails_by_hr[(h, relation)]
                ranks[0, row], ranks[1, row], gold_score, median = \
                    _rank_query(model, screen, relation, fixed, gold, known,
                                pen, pen_max, tie_break, with_terms)
                missing[row] = pen is None
                if with_terms:
                    terms[:, row] = (gold_score, median,
                                     0.0 if pen is None else pen[gold],
                                     med_pen)
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
    before tail) overall and per category, each block from the ranks it
    covers: a combined block from the head and tail ranks together."""
    overall: dict[tuple[str, str], MetricBlock] = {}
    by_category: dict[tuple[str, str, str], MetricBlock] = {}
    for setting, col in zip(SETTINGS, (0, 2)):   # rank columns of _ranks
        for side in (HEAD, TAIL, COMBINED):
            on_side = sides == side if side != COMBINED \
                else np.ones(len(sides), dtype=bool)
            overall[(setting, side)] = _block(ranks[on_side, col])
            for cat in CATEGORIES:
                sel = on_side & (cats == cat)
                if sel.any():
                    by_category[(setting, side, cat)] = _block(
                        ranks[sel, col])
    tie_rate = float(np.mean(ranks[:, 1] > 0))
    return EvalReport(overall, by_category, n_test, tie_rate, missing_domain,
                      term_stats)


def evaluate(graph: KnowledgeGraph, model: EmbeddingModel,
             domain_model: DomainModel | None = None, *,
             split: str = "test",
             tie_break: str = "optimistic") -> EvalReport:
    """Rank the gold entity of every triple in the chosen split, both
    sides, raw and filtered, and aggregate overall and per category.

    Every query is scored once, in one ``_rank_split`` pass. With a
    domain model the returned report is the penalized one, and its
    ``baseline`` is the report without penalties, ranked from the same
    scores in the same pass (equal to ``evaluate(graph, model)``); one
    helper thread computes the penalties of the next slot while this
    one is ranked, and it has ended when this returns or raises.
    """
    triples = _split_triples(graph, model, split)
    if tie_break not in TIE_BREAKS:
        raise ConfigurationError(f"unknown tie break mode {tie_break!r}")
    ranks, terms, missing = _rank_split(graph, model, domain_model, triples,
                                        tie_break, with_terms=True)

    cats = np.repeat(classify_relations(graph)[triples[:, 1]], 2)
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
