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

import struct
from dataclasses import dataclass, replace

import numpy as np

from .data import HEAD, TAIL, KnowledgeGraph, extract_domains
from .ellipsoid import (Ellipsoid, FitConfig, fit, score_test, scores_test,
                        scores_train)
from .errors import ConfigurationError, FormatError, StaleDomainModelError
from .models import EmbeddingModel, project_all, project_entities

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

    Domains are visited in (relation, side) order. ``on_domain(relation,
    side, n_members, mean_score)`` is called as each domain is done:
    after its fit, with the mean training score of its members at the
    fitted surface, or at once with None when it is skipped.
    """
    config = config or FitConfig()
    if model.n_entities != graph.n_entities \
            or model.n_relations != graph.n_relations:
        raise ConfigurationError("model entity/relation counts do not match "
                                 "the graph")
    domains = extract_domains(graph)
    ellipsoids: dict[tuple[int, str], Ellipsoid] = {}
    skipped = []
    for key in sorted(domains, key=_domain_order):
        relation, side = key
        members = domains[key].members
        mean_score = None
        if len(members) < min_members:
            skipped.append(key)
        else:
            points = project_entities(model, np.array(members, dtype=np.int64),
                                      relation, side)
            cfg = replace(config, seed=_domain_seed(config.seed, relation,
                                                    _SIDE_FLAGS[side]))
            ell = ellipsoids[key] = fit(points, cfg)
            mean_score = float(scores_train(ell, points).mean())
        if on_domain is not None:
            on_domain(relation, side, len(members), mean_score)

    return DomainModel(model.rel_dim, model.fingerprint(), ellipsoids,
                       tuple(skipped))


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

def save_domains(domain_model: DomainModel, path: str) -> None:
    k = domain_model.rel_dim
    tril = np.tril_indices(k)
    with open(path, "wb") as fh:
        fh.write(f"{DOMAIN_MAGIC} {DOMAIN_VERSION} {k} "
                 f"{len(domain_model.ellipsoids)} {len(domain_model.skipped)} "
                 f"{domain_model.model_fingerprint:016x}\n".encode("ascii"))
        for relation, side in sorted(domain_model.ellipsoids, key=_domain_order):
            ell = domain_model.ellipsoids[(relation, side)]
            fh.write(struct.pack("<qq", relation, _SIDE_FLAGS[side]))
            fh.write(np.ascontiguousarray(ell.center, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(ell.factor[tril], dtype="<f8").tobytes())
        for relation, side in sorted(domain_model.skipped, key=_domain_order):
            fh.write(struct.pack("<qq", relation, _SIDE_FLAGS[side]))


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
    if len(fields[5]) != 16:
        raise FormatError(f"{path}: fingerprint must be 16 hex digits")
    try:
        fingerprint = int(fields[5], 16)
    except ValueError as exc:
        raise FormatError(f"{path}: garbled fingerprint") from exc
    if k < 1 or n_fitted < 0 or n_skipped < 0:
        raise FormatError(f"{path}: bad header counts")

    tril = np.tril_indices(k)
    n_tril = k * (k + 1) // 2
    rec = 16 + 8 * (k + n_tril)
    body = raw[nl + 1:]
    if len(body) != n_fitted * rec + n_skipped * 16:
        raise FormatError(f"{path}: body is {len(body)} bytes, expected "
                          f"{n_fitted * rec + n_skipped * 16}")

    ellipsoids = {}
    offset = 0
    for _ in range(n_fitted):
        relation, flag = struct.unpack_from("<qq", body, offset)
        if flag not in _FLAG_SIDES:
            raise FormatError(f"{path}: bad side flag {flag}")
        offset += 16
        center = np.frombuffer(body, dtype="<f8", count=k,
                               offset=offset).astype(np.float64)
        offset += 8 * k
        packed = np.frombuffer(body, dtype="<f8", count=n_tril, offset=offset)
        offset += 8 * n_tril
        factor = np.zeros((k, k))
        factor[tril] = packed
        if not (np.isfinite(center).all() and np.isfinite(packed).all()):
            raise FormatError(f"{path}: non-finite ellipsoid values")
        if (np.diagonal(factor) <= 0).any():
            raise FormatError(f"{path}: factor diagonal must be positive")
        ellipsoids[(relation, _FLAG_SIDES[flag])] = Ellipsoid(center, factor)

    skipped = []
    for _ in range(n_skipped):
        relation, flag = struct.unpack_from("<qq", body, offset)
        if flag not in _FLAG_SIDES:
            raise FormatError(f"{path}: bad side flag {flag}")
        offset += 16
        skipped.append((relation, _FLAG_SIDES[flag]))
    return DomainModel(k, fingerprint, ellipsoids, tuple(skipped))
