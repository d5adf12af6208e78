"""Per-relation domain ellipsoids over a trained embedding space.

For every relation the training split defines a head domain and a tail
domain (the entities seen in that slot). Each domain with enough members
gets one ellipsoid fitted to the member entities after projecting them
the same way the scoring function does, so the surfaces live in each
relation's own space. Domains below the member threshold are recorded as
skipped and contribute a zero penalty.

A fitted set of ellipsoids is only valid against the exact embedding
model it was fitted on; a 64-bit fingerprint of the serialized model is
stored and checked on use.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import HEAD, TAIL, KnowledgeGraph, extract_domains
from .ellipsoid import (Ellipsoid, FitConfig, fit_stack, score_test,
                        scores_test, scores_train_stack)
from .errors import (ConfigurationError, FormatError, NumericalError,
                     StaleDomainModelError)
from .models import (EmbeddingModel, project_all, project_entities,
                     project_slots)

DOMAIN_MAGIC = "DREDOM"
DOMAIN_VERSION = "v1"

MIN_MEMBERS = 2

_SIDE_FLAGS = {HEAD: 0, TAIL: 1}
_FLAG_SIDES = {0: HEAD, 1: TAIL}


@dataclass
class DomainModel:
    rel_dim: int
    model_fingerprint: int
    ellipsoids: dict[tuple[int, str], Ellipsoid]
    skipped: tuple[tuple[int, str], ...]

    @property
    def n_fitted(self) -> int:
        return len(self.ellipsoids)


def check_compatible(domain_model: DomainModel, model: EmbeddingModel) -> None:
    """Stale ellipsoids (fingerprint mismatch) or a domain file whose
    size or relation ids cannot belong to ``model`` are refused."""
    if domain_model.model_fingerprint != model.fingerprint():
        raise StaleDomainModelError(
            "domain ellipsoids were fitted against a different embedding "
            "model (fingerprint mismatch); refit them")
    if domain_model.rel_dim != model.rel_dim:
        raise FormatError(f"domain ellipsoids have dimension "
                          f"{domain_model.rel_dim}, the model {model.rel_dim}")
    rels = [r for r, _ in (*domain_model.ellipsoids, *domain_model.skipped)]
    if rels and (min(rels) < 0 or max(rels) >= model.n_relations):
        raise FormatError(f"domain relation id outside the model's "
                          f"{model.n_relations} relations")


def _domain_seed(base: int, relation: int, flag: int) -> int:
    # independent, scheduling-order-free stream per domain
    return int(np.random.SeedSequence((base, relation, flag)).generate_state(1)[0])


def _domain_order(key: tuple[int, str]) -> tuple[int, int]:
    return key[0], _SIDE_FLAGS[key[1]]


def fit_all_domains(graph: KnowledgeGraph, model: EmbeddingModel,
                    config: FitConfig | None = None,
                    min_members: int = MIN_MEMBERS,
                    on_domain=None) -> DomainModel:
    """Fit ellipsoids for every training domain with enough members.

    The paper fits each domain on its own, so all domains with the same
    member count are fitted together as one stack, one size at a time;
    each still draws its batches from its own seed and ends exactly as a
    lone ``fit`` of its projected members would. After the fits,
    ``on_domain(relation, side, n_members, mean_score)`` is called once
    per domain in (relation, side) order, with the mean training score of
    its members at the fitted surface, or None when it was skipped. A fit
    that ends with a non-finite center or factor (a learning rate that
    overflows) raises NumericalError naming the first such domain found.
    """
    config = config or FitConfig()
    if model.n_entities != graph.n_entities \
            or model.n_relations != graph.n_relations:
        raise ConfigurationError("model entity/relation counts do not match "
                                 "the graph")
    domains = extract_domains(graph)
    keys = sorted(domains, key=_domain_order)
    by_size: dict[int, list[tuple[int, str]]] = {}
    for key in keys:
        if len(domains[key].members) >= min_members:
            by_size.setdefault(len(domains[key].members), []).append(key)

    ellipsoids: dict[tuple[int, str], Ellipsoid] = {}
    scores: dict[tuple[int, str], float] = {}
    for group in by_size.values():
        relations = np.array([r for r, _ in group], dtype=np.int64)
        sides = [side for _, side in group]
        points = project_slots(
            model, np.array([domains[key].members for key in group],
                            dtype=np.int64), relations, sides)
        seeds = [_domain_seed(config.seed, r, _SIDE_FLAGS[side])
                 for r, side in group]
        centers, factors = fit_stack(points, config, seeds)
        diverged = np.flatnonzero(~(np.isfinite(centers).all(axis=1)
                                    & np.isfinite(factors).all(axis=(1, 2))))
        if diverged.size:
            relation, side = group[diverged[0]]
            raise NumericalError(f"domain r{relation}/{side}: fit diverged "
                                 f"(non-finite center or factor)")
        means = scores_train_stack(centers, factors, points).mean(axis=1)
        for i, key in enumerate(group):
            ellipsoids[key] = Ellipsoid(centers[i], factors[i])
            scores[key] = float(means[i])

    if on_domain is not None:
        for key in keys:
            on_domain(*key, len(domains[key].members), scores.get(key))
    return DomainModel(model.rel_dim, model.fingerprint(),
                       {key: ellipsoids[key] for key in keys
                        if key in ellipsoids},
                       tuple(key for key in keys if key not in ellipsoids))


def penalty(domain_model: DomainModel, model: EmbeddingModel, entity: int,
            relation: int, side: str) -> float:
    """Out-of-domain penalty for one entity in one slot of a relation.

    Zero for anything inside the domain surface, and for domains that
    were skipped or never observed in training.
    """
    check_compatible(domain_model, model)
    ell = domain_model.ellipsoids.get((relation, side))
    if ell is None:
        return 0.0
    return score_test(ell, project_entities(model, entity, relation, side))


def penalties_all(domain_model: DomainModel, model: EmbeddingModel,
                  relation: int, side: str,
                  projected: np.ndarray | None = None) -> np.ndarray | None:
    """Penalties for every entity in one slot, or None when the domain
    has no ellipsoid (callers can then skip the addition entirely)."""
    check_compatible(domain_model, model)
    ell = domain_model.ellipsoids.get((relation, side))
    if ell is None:
        return None
    if projected is None:
        projected = project_all(model, relation, side)
    return scores_test(ell, projected)


def _slot_penalties(domain_model: DomainModel, relation: int, side: str,
                    projected: np.ndarray) -> np.ndarray | None:
    """``penalties_all`` of points already projected into the slot,
    without the compatibility check, for a caller that made it once."""
    ell = domain_model.ellipsoids.get((relation, side))
    return None if ell is None else scores_test(ell, projected)


# ---------------------------------------------------------------------------
# serialization
#
#   DREDOM v1 <rel_dim> <n_fitted> <n_skipped> <fingerprint hex16>\n
#   per fitted domain, sorted by (relation, side flag):
#     int64 relation, int64 side flag (0 head / 1 tail),
#     center (k float64), packed lower triangle (k(k+1)/2 float64)
#   per skipped domain: int64 relation, int64 side flag
#   all numbers little-endian
# ---------------------------------------------------------------------------

_FINGERPRINT = re.compile("[0-9a-fA-F]{16}")
_SLOT = np.dtype([("relation", "<i8"), ("flag", "<i8")])
_SAVE_BLOCK = 256


def _fitted_record(k: int) -> np.dtype:
    return np.dtype([*_SLOT.descr, ("center", "<f8", (k,)),
                     ("tril", "<f8", (k * (k + 1) // 2,))])


def _with_slots(records: np.ndarray, keys) -> np.ndarray:
    records["relation"] = [relation for relation, _ in keys]
    records["flag"] = [_SIDE_FLAGS[side] for _, side in keys]
    return records


def save_domains(domain_model: DomainModel, path: str) -> None:
    k = domain_model.rel_dim
    record = _fitted_record(k)
    rows, cols = np.tril_indices(k)
    keys = sorted(domain_model.ellipsoids, key=_domain_order)
    skipped = _with_slots(np.empty(len(domain_model.skipped), dtype=_SLOT),
                          sorted(domain_model.skipped, key=_domain_order))
    with open(path, "wb") as fh:
        fh.write(f"{DOMAIN_MAGIC} {DOMAIN_VERSION} {k} "
                 f"{len(keys)} {len(skipped)} "
                 f"{domain_model.model_fingerprint:016x}\n".encode("ascii"))
        # in blocks, so the copy being written stays a few MiB
        for lo in range(0, len(keys), _SAVE_BLOCK):
            block = keys[lo:lo + _SAVE_BLOCK]
            ells = [domain_model.ellipsoids[key] for key in block]
            fitted = _with_slots(np.empty(len(block), dtype=record), block)
            fitted["center"] = [ell.center for ell in ells]
            fitted["tril"] = [ell.factor[rows, cols] for ell in ells]
            fh.write(fitted.tobytes())
        fh.write(skipped.tobytes())


def load_domains(path: str) -> DomainModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line")
    fields = raw[:nl].decode("ascii", errors="replace").split(" ")
    if len(fields) != 6 or fields[0] != DOMAIN_MAGIC:
        raise FormatError(f"{path}: not a {DOMAIN_MAGIC} file")
    if fields[1] != DOMAIN_VERSION:
        raise FormatError(f"{path}: unsupported version {fields[1]!r}")
    try:
        k, n_fitted, n_skipped = (int(x) for x in fields[2:5])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header counts") from exc
    # int(x, 16) alone would also take a sign, underscores and spaces
    if not _FINGERPRINT.fullmatch(fields[5]):
        raise FormatError(f"{path}: fingerprint must be 16 hex digits")
    fingerprint = int(fields[5], 16)
    if k < 1 or n_fitted < 0 or n_skipped < 0:
        raise FormatError(f"{path}: bad header counts")

    # sized in Python ints before any dtype is built: a huge k would
    # not fit a dtype's shape
    record_size = _SLOT.itemsize + 8 * (k + k * (k + 1) // 2)
    body = memoryview(raw)[nl + 1:]
    expected = n_fitted * record_size + n_skipped * _SLOT.itemsize
    if len(body) != expected:
        raise FormatError(f"{path}: body is {len(body)} bytes, expected "
                          f"{expected}")
    record = _fitted_record(k)
    fitted = np.frombuffer(body, dtype=record, count=n_fitted)
    skipped = np.frombuffer(body, dtype=_SLOT, count=n_skipped,
                            offset=n_fitted * record_size)

    # the first bad record decides the message, checked in the order
    # side flag, finiteness, diagonal sign
    diag = fitted["tril"][:, np.cumsum(np.arange(1, k + 1)) - 1]
    bad_flag = (fitted["flag"] != 0) & (fitted["flag"] != 1)
    non_finite = ~(np.isfinite(fitted["center"]).all(axis=1)
                   & np.isfinite(fitted["tril"]).all(axis=1))
    bad = np.flatnonzero(bad_flag | non_finite | (diag <= 0).any(axis=1))
    if bad.size:
        i = bad[0]
        if bad_flag[i]:
            raise FormatError(f"{path}: bad side flag {fitted['flag'][i]}")
        if non_finite[i]:
            raise FormatError(f"{path}: non-finite ellipsoid values")
        raise FormatError(f"{path}: factor diagonal must be positive")
    bad_flag = (skipped["flag"] != 0) & (skipped["flag"] != 1)
    if bad_flag.any():
        raise FormatError(f"{path}: bad side flag "
                          f"{skipped['flag'][np.argmax(bad_flag)]}")
    fitted_keys, skipped_keys = _slot_keys(fitted), _slot_keys(skipped)
    slots = Counter(fitted_keys + skipped_keys)
    if len(slots) < n_fitted + n_skipped:
        relation, side = next(key for key, n in slots.items() if n > 1)
        raise FormatError(f"{path}: domain r{relation}/{side} is listed "
                          f"twice")

    centers = fitted["center"].astype(np.float64)
    factors = np.zeros((n_fitted, k, k))
    packed = fitted["tril"]
    # row by row: k slice copies take under half the time of one
    # fancy-indexed triangle assignment
    for i in range(k):
        start = i * (i + 1) // 2
        factors[:, i, :i + 1] = packed[:, start:start + i + 1]
    return DomainModel(k, fingerprint,
                       {key: Ellipsoid(centers[i], factors[i])
                        for i, key in enumerate(fitted_keys)},
                       tuple(skipped_keys))


def _slot_keys(records: np.ndarray) -> list[tuple[int, str]]:
    return [(relation, _FLAG_SIDES[flag]) for relation, flag
            in zip(records["relation"].tolist(), records["flag"].tolist())]
