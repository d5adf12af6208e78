"""Seeded synthetic knowledge graphs with published WN18 / FB15k shapes,
and the CLI stage plan run on each.

Structure that drives the cost of the pipeline is fixed by the shape, not
by the seed: entity-type sizes, the relation-to-type map and the
per-relation train counts (a Zipf-like law over relation rank) are the
same for every seed. The seed only picks which entities fill each triple,
which test triples are drawn, and the labels' order. Two seeds therefore
give graphs of the same cost, which keeps run-to-run spread small.

Every entity and every relation occurs in the train split, so any graph
built from the same train/valid files and a subset of the test triples
assigns the same integer ids.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    n_types: int        # entity types; each relation slot draws from one
    zipf: float         # exponent of the relation-frequency law


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    # (label, argv tail) per train call; {model}, {init} are filled in
    train: tuple[tuple[str, tuple[str, ...]], ...]
    fit_epochs: int


WORKLOADS = {
    "wn18-transe": Workload(
        name="wn18-transe",
        why="WN18 shape (41k entities, 18 relations): few huge groups, so "
            "the per-candidate L1 ranking kernel over 41k entities "
            "dominates evaluate and in-training validation",
        shape=Shape(n_entities=40943, n_relations=18, n_train=141442,
                    n_valid=30, n_test=60, n_types=6, zipf=1.0),
        train=(("transe", ("--variant", "transe", "--dataset", "wn18",
                           "--epochs", "2", "--eval-every", "1")),),
        fit_epochs=3,
    ),
    "fb15k-transr-l2": Workload(
        name="fb15k-transr-l2",
        why="FB15k shape (15k entities, 1345 relations): 2690 mostly tiny "
            "domains and many small test groups, so per-call projection, "
            "fit and L2 transr SGD costs dominate",
        shape=Shape(n_entities=14951, n_relations=1345, n_train=30000,
                    n_valid=60, n_test=80, n_types=40, zipf=1.1),
        train=(("transe", ("--variant", "transe", "--dataset", "fb15k",
                           "--dissim", "l2", "--epochs", "2",
                           "--eval-every", "0")),
               ("transr", ("--variant", "transr", "--dataset", "fb15k",
                           "--dissim", "l2", "--epochs", "1",
                           "--eval-every", "0", "--init-model", "{init}"))),
        fit_epochs=2,
    ),
}


def _relation_counts(shape: Shape) -> np.ndarray:
    """Train triples per relation rank: one each, the rest by Zipf weight
    with largest-remainder rounding (deterministic)."""
    w = 1.0 / np.arange(1, shape.n_relations + 1) ** shape.zipf
    extra = shape.n_train - shape.n_relations
    ideal = extra * w / w.sum()
    counts = np.floor(ideal).astype(np.int64)
    short = extra - int(counts.sum())
    counts[np.argsort(-(ideal - counts), kind="stable")[:short]] += 1
    return counts + 1


def _slot_types(shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Head and tail entity type per relation rank, fixed by the shape.
    Types are dealt round-robin so every type backs some slot."""
    r = np.arange(shape.n_relations)
    heads = r % shape.n_types
    tails = (r * 7 + 3) % shape.n_types
    return heads, tails


class _Pools:
    """Per-type entity pools that hand out unseen entities first."""

    def __init__(self, rng: np.random.Generator, entity_type: np.ndarray,
                 n_types: int):
        self.rng = rng
        self.members = [rng.permutation(np.flatnonzero(entity_type == k))
                        for k in range(n_types)]
        self.cursor = [0] * n_types

    def draw(self, kind: int, n: int) -> np.ndarray:
        pool = self.members[kind]
        start = self.cursor[kind]
        fresh = pool[start:start + n]
        self.cursor[kind] = start + len(fresh)
        rest = self.rng.choice(pool, size=n - len(fresh))
        return np.concatenate([fresh, rest])

    def all_used(self) -> bool:
        return all(c == len(m) for c, m in zip(self.cursor, self.members))


def generate(shape: Shape, seed: int):
    """(train, valid, test) as lists of label triples."""
    rng = np.random.default_rng(seed)
    entity_type = np.arange(shape.n_entities) % shape.n_types
    head_type, tail_type = _slot_types(shape)
    counts = _relation_counts(shape)

    pools = _Pools(rng, entity_type, shape.n_types)
    rows = []
    for r in range(shape.n_relations):   # largest relations first
        c = int(counts[r])
        rows.append(np.stack([pools.draw(head_type[r], c), np.full(c, r),
                              pools.draw(tail_type[r], c)], axis=1))
    if not pools.all_used():
        raise ValueError("shape leaves some entity type uncovered")
    train = np.concatenate(rows)[rng.permutation(shape.n_train)]

    freq = counts / counts.sum()

    def held_out(n: int) -> np.ndarray:
        rel = rng.choice(shape.n_relations, size=n, p=freq)
        heads = [rng.choice(pools.members[head_type[r]]) for r in rel]
        tails = [rng.choice(pools.members[tail_type[r]]) for r in rel]
        return np.stack([heads, rel, tails], axis=1)

    valid = held_out(shape.n_valid)
    test = held_out(shape.n_test)

    ent_label = [f"e{i:05d}" for i in rng.permutation(shape.n_entities)]
    rel_label = [f"r{i:04d}" for i in rng.permutation(shape.n_relations)]

    def labels(arr):
        return [(ent_label[h], rel_label[r], ent_label[t]) for h, r, t in arr]

    return labels(train), labels(valid), labels(test)


def write_tsv(path: str, triples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples))


def write_workload(workload: Workload, seed: int, directory: str):
    """Generate the graph and write train/valid/test TSVs; returns the
    label triples and the three paths."""
    os.makedirs(directory, exist_ok=True)
    splits = generate(workload.shape, seed)
    paths = []
    for name, triples in zip(("train", "valid", "test"), splits):
        path = os.path.join(directory, f"{name}.txt")
        write_tsv(path, triples)
        paths.append(path)
    return splits, tuple(paths)
