"""Shared builders for randomized and hand-crafted test inputs."""

from __future__ import annotations

import os

import numpy as np

from drekge import domains, models
from drekge.data import SIDES, KnowledgeGraph, build_graph
from drekge.domains import DomainModel
from drekge.ellipsoid import Ellipsoid
from drekge.models import EmbeddingModel


def random_graph(rng: np.random.Generator, n_entities: int = 30,
                 n_relations: int = 4, n_train: int = 60, n_valid: int = 8,
                 n_test: int = 12) -> KnowledgeGraph:
    """Random triples with every relation and entity seeded in training
    so held-out relations always have training statistics."""
    def triple(r=None):
        h, t = rng.integers(0, n_entities, size=2)
        r = rng.integers(0, n_relations) if r is None else r
        return (f"e{h:03d}", f"r{r}", f"e{t:03d}")

    train = [triple(r) for r in range(n_relations)]
    train += [triple() for _ in range(max(0, n_train - n_relations))]
    valid = [triple() for _ in range(n_valid)]
    test = [triple() for _ in range(n_test)]
    return build_graph(train, valid, test)


def save_graph(graph: KnowledgeGraph, directory: str) -> None:
    """Write the three splits back as triple files, plus id-map files."""
    os.makedirs(directory, exist_ok=True)
    ent = graph.entities.labels
    rel = graph.relations.labels
    for name, split in (("train", graph.train), ("valid", graph.valid),
                        ("test", graph.test)):
        with open(os.path.join(directory, f"{name}.txt"), "w",
                  encoding="utf-8") as fh:
            for h, r, t in split.tolist():
                fh.write(f"{ent[h]}\t{rel[r]}\t{ent[t]}\n")
    for name, labels in (("entity2id", ent), ("relation2id", rel)):
        with open(os.path.join(directory, f"{name}.txt"), "w",
                  encoding="utf-8") as fh:
            for idx, label in enumerate(labels):
                fh.write(f"{label}\t{idx}\n")


def random_model(rng: np.random.Generator, graph: KnowledgeGraph,
                 variant: str = "transe", dim: int = 6,
                 dissimilarity: str = "l1",
                 rel_dim: int | None = None) -> EmbeddingModel:
    """Unstructured random parameters; projections are random too so the
    projected code paths differ from identity. ``rel_dim`` (default
    ``dim``) is the size of the relation space the projections map to."""
    n_e, n_r = graph.n_entities, graph.n_relations
    k = dim if rel_dim is None else rel_dim
    ent = rng.normal(size=(n_e, dim))
    rel = rng.normal(size=(n_r, k))
    head_proj = tail_proj = None
    if variant in ("transr", "stranse"):
        head_proj = rng.normal(scale=0.6, size=(n_r, k, dim))
    if variant == "stranse":
        tail_proj = rng.normal(scale=0.6, size=(n_r, k, dim))
    return EmbeddingModel(variant, dissimilarity, ent, rel, head_proj,
                          tail_proj)


def model_bytes(model: EmbeddingModel) -> bytes:
    """The bytes ``models.save_model`` writes for ``model``."""
    return b"".join(models._model_chunks(model))


def random_ellipsoid(rng: np.random.Generator, k: int,
                     center_scale: float = 1.0) -> Ellipsoid:
    factor = np.tril(rng.normal(scale=0.4, size=(k, k)))
    np.fill_diagonal(factor, np.abs(rng.normal(scale=0.5, size=k)) + 0.3)
    return Ellipsoid(rng.normal(scale=center_scale, size=k), factor)


def domain_members(graph: KnowledgeGraph) -> dict[tuple[int, str], list[int]]:
    """The training domains of ``domains.slot_members`` as
    {(relation, side): sorted member ids}."""
    codes, members = domains.slot_members(graph)
    return {(code // 2, SIDES[code % 2]): ids.tolist()
            for code, ids in zip(codes.tolist(), members)}


def domain_model(rel_dim: int, fingerprint: int,
                 ellipsoids: dict[tuple[int, str], Ellipsoid],
                 skipped=()) -> DomainModel:
    """The domain model of ``ellipsoids`` ((relation, side) -> Ellipsoid)
    and ``skipped`` (relation, side) slots, packed into the records a
    domain file holds, each sorted by slot."""
    flags = {"head": 0, "tail": 1}
    keys = sorted(ellipsoids, key=lambda key: (key[0], flags[key[1]]))
    fitted = np.zeros(len(keys), dtype=domains._fitted_record(rel_dim))
    rows, cols = np.tril_indices(rel_dim)
    for i, key in enumerate(keys):
        fitted[i]["relation"], fitted[i]["flag"] = key[0], flags[key[1]]
        fitted[i]["center"] = ellipsoids[key].center
        fitted[i]["tril"] = ellipsoids[key].factor[rows, cols]
    slots = sorted((r, flags[side]) for r, side in skipped)
    return DomainModel(rel_dim, fingerprint, fitted,
                       np.array(slots, dtype=domains._SLOT))


def random_domain_model(rng: np.random.Generator, graph: KnowledgeGraph,
                        model: EmbeddingModel,
                        coverage: float = 0.7) -> DomainModel:
    """Random ellipsoids over a random subset of (relation, side) pairs."""
    ellipsoids = {}
    skipped = []
    for r in range(graph.n_relations):
        for side in ("head", "tail"):
            if rng.random() < coverage:
                ellipsoids[(r, side)] = random_ellipsoid(rng, model.rel_dim)
            else:
                skipped.append((r, side))
    return domain_model(model.rel_dim, model.fingerprint(), ellipsoids,
                        skipped)


def surface_points(rng: np.random.Generator, n: int, center: np.ndarray,
                   semi_axes: np.ndarray) -> np.ndarray:
    """Points exactly on an axis-aligned ellipsoid surface: unit
    directions scaled per axis."""
    dirs = rng.normal(size=(n, len(center)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return center + dirs * semi_axes


def country_capital_kg() -> KnowledgeGraph:
    """20 entities, 2 relations. Nine countries all border each other,
    and so do their nine capitals, which pulls each group into its own
    compact cluster; ``has_capital`` links the two clusters. Two drifter
    entities appear only in the validation split, so training never
    pulls them toward either cluster and they stay far from both
    domains."""
    countries = [f"country_{i}" for i in range(9)]
    capitals = [f"capital_{i}" for i in range(9)]
    train = [(countries[i], "has_capital", capitals[i]) for i in range(9)]
    train += [(countries[i], "borders", countries[j])
              for i in range(9) for j in range(9) if i != j]
    train += [(capitals[i], "borders", capitals[j])
              for i in range(9) for j in range(9) if i != j]
    valid = [("drifter_0", "borders", "drifter_1")]
    test = [(countries[i], "has_capital", capitals[i]) for i in (1, 4, 7)]
    test += [(countries[2], "borders", countries[3])]
    return build_graph(train, valid, test)
