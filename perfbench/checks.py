"""Output checks for one pipeline run, against an independent numpy
reference.

The reference scores candidates with its own per-variant formulas and
penalizes them through the full quadratic-form matrix M = L L^T; it
shares no ranking code with the package. Two scores within
``TIE_TOL * max(1, |gold score|)`` of each other count as tied, and a
tie may fall either way: the package's rank must lie between the
reference's optimistic and pessimistic rank. Printed scores carry six
decimals, so they are compared to ``PRINT_TOL``.

Every check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

TIE_TOL = 1e-9
PRINT_TOL = 1e-6
HITS = (1, 3, 10)
SIDES = ("head", "tail")
METRICS = ("mean_rank",) + tuple(f"hits@{k}" for k in HITS)


def ids(splits) -> tuple[dict, dict]:
    """Entity and relation ids in first-seen order over the splits."""
    ent: dict[str, int] = {}
    rel: dict[str, int] = {}
    for split in splits:
        for h, r, t in split:
            ent.setdefault(h, len(ent))
            rel.setdefault(r, len(rel))
            ent.setdefault(t, len(ent))
    return ent, rel


def _finite(*arrays) -> bool:
    return all(a is None or bool(np.isfinite(a).all()) for a in arrays)


def check_artifacts(drekge, model_path: str, domains_path: str,
                    train) -> list[tuple[str, bool, str]]:
    out = []
    model = drekge.models.load_model(model_path)
    ok = _finite(model.entity_vecs, model.relation_vecs, model.head_proj,
                 model.tail_proj)
    out.append(("model_loads_finite", ok, model_path))
    dm = drekge.domains.load_domains(domains_path)
    ok = all(_finite(e.center, e.factor) for e in dm.ellipsoids.values())
    out.append(("domains_load_finite", ok, domains_path))
    out.append(("domains_match_model",
                dm.model_fingerprint == model.fingerprint(), ""))
    n_domains = 2 * len({r for _, r, _ in train})
    out.append(("domains_account_for_every_slot",
                dm.n_fitted + len(dm.skipped) == n_domains,
                f"{dm.n_fitted} fitted + {len(dm.skipped)} skipped, "
                f"{n_domains} training domains"))
    return out


def check_csv(path: str, n_entities: int) -> list[tuple[str, bool, str]]:
    problems = []
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["setting", "side", "category", "metric",
                               "baseline", "with_domains", "delta"]:
        problems.append("bad header")
    for row in rows[1:]:
        if len(row) != 7 or row[3] not in METRICS:
            problems.append(f"bad row {row}")
            continue
        try:
            base, with_dom, delta = (float(x) for x in row[4:])
        except ValueError:
            problems.append(f"unparsable row {row}")
            continue
        if not all(math.isfinite(v) for v in (base, with_dom, delta)):
            problems.append(f"non-finite row {row}")
            continue
        lo, hi = (1.0, n_entities) if row[3] == "mean_rank" else (0.0, 100.0)
        if not (lo <= base <= hi and lo <= with_dom <= hi):
            problems.append(f"out of range {row}")
        if abs(delta - (with_dom - base)) > 1e-9 * max(1.0, abs(with_dom)):
            problems.append(f"delta mismatch {row}")
        if row[2] == "all":
            seen.add((row[0], row[1], row[3]))
    want = {(s, side, m) for s in ("raw", "filtered")
            for side in SIDES + ("combined",) for m in METRICS}
    if want - seen:
        problems.append(f"missing overall rows {sorted(want - seen)}")
    return [("csv_parses_in_range", not problems, "; ".join(problems[:3]))]


# ---------------------------------------------------------------------------
# reference ranking
# ---------------------------------------------------------------------------

def _matrix(model, relation: int, side: str):
    if model.variant == "transe":
        return None
    if model.variant == "transr":
        return model.head_proj[relation]
    return model.head_proj[relation] if side == "head" \
        else model.tail_proj[relation]


class Reference:
    """Brute-force scores over every entity, cached per relation slot."""

    def __init__(self, model, domain_model):
        self.model = model
        self.dm = domain_model
        self._cand: dict[tuple[int, str], np.ndarray] = {}
        self._pen: dict[tuple[int, str], np.ndarray | None] = {}

    def candidates(self, relation: int, side: str) -> np.ndarray:
        key = (relation, side)
        if key not in self._cand:
            w = _matrix(self.model, relation, side)
            ent = self.model.entity_vecs
            self._cand[key] = ent if w is None \
                else np.einsum("kd,ed->ek", w, ent)
        return self._cand[key]

    def penalties(self, relation: int, side: str) -> np.ndarray | None:
        """Radial distance outside the slot's ellipsoid; None if unfitted."""
        key = (relation, side)
        if key not in self._pen:
            ell = self.dm.ellipsoids.get(key) if self.dm else None
            if ell is None:
                self._pen[key] = None
            else:
                m = ell.factor @ ell.factor.T
                v = self.candidates(relation, side) - ell.center
                q = ((v @ m) * v).sum(axis=1)
                n = np.sqrt((v * v).sum(axis=1))
                pen = np.zeros(len(q))
                out = q >= 1.0
                pen[out] = (1.0 - 1.0 / np.sqrt(q[out])) * n[out]
                self._pen[key] = pen
        return self._pen[key]

    def base(self, relation: int, fixed: int, open_side: str) -> np.ndarray:
        """Scores with every entity in ``open_side`` and ``fixed`` in the
        other slot."""
        model = self.model
        fixed_side = "tail" if open_side == "head" else "head"
        w = _matrix(model, relation, fixed_side)
        vec = model.entity_vecs[fixed]
        fixed_vec = vec if w is None else w @ vec
        cand = self.candidates(relation, open_side)
        if open_side == "tail":
            u = fixed_vec + model.relation_vecs[relation] - cand
        else:
            u = cand + model.relation_vecs[relation] - fixed_vec
        if model.dissimilarity == "l1":
            return np.abs(u).sum(axis=1)
        return np.sqrt((u * u).sum(axis=1))

    def scores(self, relation, fixed, open_side, with_domains):
        base = self.base(relation, fixed, open_side)
        pen = self.penalties(relation, open_side) if with_domains else None
        return base, pen, base if pen is None else base + pen


def _rank_bounds(scores: np.ndarray, gold: int,
                 excluded: np.ndarray) -> tuple[int, int]:
    """(optimistic, pessimistic) rank of gold among the non-excluded."""
    g = scores[gold]
    tol = TIE_TOL * max(1.0, abs(g))
    keep = np.ones(len(scores), dtype=bool)
    keep[excluded] = False
    keep[gold] = False
    s = scores[keep]
    better = int((s < g - tol).sum())
    ties = int((np.abs(s - g) <= tol).sum())
    return 1 + better, 1 + better + ties


def check_evaluation(drekge, splits, vocab, sample, ref: Reference
                     ) -> list[tuple[str, bool, str]]:
    """``evaluation.evaluate`` on a graph whose test split is ``sample``
    must match the reference, baseline and penalized, raw and filtered.
    ``vocab`` is ``ids(splits)``; the sample graph must assign the same
    ids because every entity and relation occurs in train."""
    train, valid, _ = splits
    ent, rel = vocab
    model, domain_model = ref.model, ref.dm
    graph = drekge.data.build_graph(train, valid, sample)
    if graph.entities.labels != list(ent) or graph.n_entities != \
            model.n_entities:
        return [("evaluation_matches_reference", False,
                 "sample graph ids differ from the trained graph")]

    known = np.array([(ent[h], rel[r], ent[t])
                      for split in (train, valid, sample)
                      for h, r, t in split], dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    out = []
    for with_domains in (False, True):
        bounds = {(s, side): [] for s in ("raw", "filtered") for side in SIDES}
        for h, r, t in sample:
            h, r, t = ent[h], rel[r], ent[t]
            same_r = known[:, 1] == r
            for side, gold, fixed, true_ids in (
                    ("head", h, t, known[same_r & (known[:, 2] == t), 0]),
                    ("tail", t, h, known[same_r & (known[:, 0] == h), 2])):
                _, _, scores = ref.scores(r, fixed, side, with_domains)
                bounds[("raw", side)].append(_rank_bounds(scores, gold, empty))
                bounds[("filtered", side)].append(
                    _rank_bounds(scores, gold, true_ids))
        report = drekge.evaluation.evaluate(
            graph, model, domain_model if with_domains else None)
        problems = []
        for setting in ("raw", "filtered"):
            for side in SIDES + ("combined",):
                pairs = bounds[(setting, side)] if side != "combined" else \
                    bounds[(setting, "head")] + bounds[(setting, "tail")]
                lo = np.array([p[0] for p in pairs], dtype=float)
                hi = np.array([p[1] for p in pairs], dtype=float)
                block = report.overall[(setting, side)]
                eps = 1e-9
                if not lo.mean() - eps <= block.mean_rank <= hi.mean() + eps:
                    problems.append(f"{setting} {side} mean_rank "
                                    f"{block.mean_rank} not in "
                                    f"[{lo.mean()}, {hi.mean()}]")
                for k in HITS:
                    least = 100.0 * (hi <= k).mean()
                    most = 100.0 * (lo <= k).mean()
                    if not least - eps <= block.hits[k] <= most + eps:
                        problems.append(f"{setting} {side} hits@{k} "
                                        f"{block.hits[k]} not in "
                                        f"[{least}, {most}]")
        name = "penalized" if with_domains else "baseline"
        out.append((f"evaluation_{name}_matches_reference", not problems,
                    "; ".join(problems[:3])))
    return out


def check_predict(vocab, ref: Reference, head: str, relation: str,
                  stdout: str, top: int) -> tuple[str, bool, str]:
    """``predict --head H --relation R`` top rows against the reference."""
    ent, rel = vocab
    base, pen, comb = ref.scores(rel[relation], ent[head], "tail", True)
    expected = np.sort(comb, kind="stable")[:top]

    def close(a, b):
        return abs(a - b) <= PRINT_TOL + TIE_TOL * abs(b)

    lines = stdout.strip().splitlines()
    problems = []
    if not lines or lines[0].split("\t") != ["rank", "entity", "baseline",
                                             "penalty", "combined", "domain"]:
        problems.append("bad header")
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != min(top, len(ent)):
        problems.append(f"{len(rows)} rows, expected {top}")
    seen = set()
    for i, row in enumerate(rows[:len(expected)]):
        try:
            rank, label = int(row[0]), row[1]
            b, p, c = (float(x) for x in row[2:5])
            flag = row[5]
            e = ent[label]
        except (IndexError, KeyError, ValueError):
            problems.append(f"unparsable row {row}")
            continue
        ref_pen = 0.0 if pen is None else float(pen[e])
        if rank != i + 1 or label in seen:
            problems.append(f"row {i + 1} rank/entity {row}")
        seen.add(label)
        if not (close(c, expected[i]) and close(c, comb[e])
                and close(b, base[e]) and close(p, ref_pen)):
            problems.append(f"row {i + 1} scores {row} vs reference "
                            f"{base[e]:.6f} {ref_pen:.6f} {expected[i]:.6f}")
        want = "-" if pen is None else ("in" if ref_pen == 0.0 else "out")
        borderline = pen is not None and ref_pen <= PRINT_TOL
        if flag != want and not borderline:
            problems.append(f"row {i + 1} flag {flag}, expected {want}")
    return ("predict_matches_reference", not problems, "; ".join(problems[:3]))
