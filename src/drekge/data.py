"""Knowledge-graph data handling.

Triple files are UTF-8 text, one ``head<TAB>relation<TAB>tail`` per line.
Labels are opaque strings; integer ids are assigned by first appearance
while scanning train, then valid, then test. Duplicate triples are kept
in the per-split lists and collapsed in the gold index.
"""

from __future__ import annotations

import os
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParseError

HEAD = "head"
TAIL = "tail"
SIDES = (HEAD, TAIL)

CAT_1_TO_1 = "1-to-1"
CAT_1_TO_N = "1-to-N"
CAT_N_TO_1 = "N-to-1"
CAT_N_TO_N = "N-to-N"
CATEGORIES = (CAT_1_TO_1, CAT_1_TO_N, CAT_N_TO_1, CAT_N_TO_N)

# hpt/tph threshold separating "one" from "many" on each side
CATEGORY_THRESHOLD = 1.5


class Vocab:
    """Bidirectional label <-> integer id mapping, insertion ordered."""

    def __init__(self):
        self.labels: list[str] = []
        self._index: dict[str, int] = {}

    def add(self, label: str) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self.labels)
            self._index[label] = idx
            self.labels.append(label)
        return idx

    def id(self, label: str) -> int | None:
        return self._index.get(label)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index


@dataclass(frozen=True)
class Domain:
    """Member entities observed on one side of a relation in training."""

    relation: int
    side: str
    members: tuple[int, ...]


@dataclass
class KnowledgeGraph:
    entities: Vocab
    relations: Vocab
    train: list[tuple[int, int, int]]
    valid: list[tuple[int, int, int]]
    test: list[tuple[int, int, int]]
    gold: set[tuple[int, int, int]] = field(repr=False)
    # filtered-evaluation lookup: known tails of (h, r), known heads of (r, t)
    tails_by_hr: dict[tuple[int, int], np.ndarray] = field(repr=False)
    heads_by_rt: dict[tuple[int, int], np.ndarray] = field(repr=False)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)


def _parse_file(path: str) -> list[tuple[str, str, str]]:
    triples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(path, line_no,
                                 f"expected 3 tab-separated fields, got {len(fields)}")
            triples.append((fields[0], fields[1], fields[2]))
    return triples


def build_graph(train: list[tuple[str, str, str]],
                valid: list[tuple[str, str, str]],
                test: list[tuple[str, str, str]]) -> KnowledgeGraph:
    """Assemble a graph from label triples already split three ways."""
    entities = Vocab()
    relations = Vocab()
    splits = []
    for raw in (train, valid, test):
        ids = [(entities.add(h), relations.add(r), entities.add(t))
               for h, r, t in raw]
        splits.append(ids)

    gold = set()
    tails: dict[tuple[int, int], set[int]] = {}
    heads: dict[tuple[int, int], set[int]] = {}
    for split in splits:
        for h, r, t in split:
            gold.add((h, r, t))
            tails.setdefault((h, r), set()).add(t)
            heads.setdefault((r, t), set()).add(h)

    tails_arr = {k: np.array(sorted(v), dtype=np.int64) for k, v in tails.items()}
    heads_arr = {k: np.array(sorted(v), dtype=np.int64) for k, v in heads.items()}
    return KnowledgeGraph(entities, relations, splits[0], splits[1], splits[2],
                          gold, tails_arr, heads_arr)


def load_graph(train_path: str, valid_path: str, test_path: str,
               format: str = "tsv") -> KnowledgeGraph:
    if format != "tsv":
        raise ConfigurationError(f"unknown triple file format {format!r}")
    return build_graph(_parse_file(train_path), _parse_file(valid_path),
                       _parse_file(test_path))


def save_graph(graph: KnowledgeGraph, directory: str) -> None:
    """Write the three splits back as triple files, plus id-map files."""
    os.makedirs(directory, exist_ok=True)
    ent = graph.entities.labels
    rel = graph.relations.labels
    for name, split in (("train", graph.train), ("valid", graph.valid),
                        ("test", graph.test)):
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            for h, r, t in split:
                fh.write(f"{ent[h]}\t{rel[r]}\t{ent[t]}\n")
    for name, labels in (("entity2id", ent), ("relation2id", rel)):
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            for idx, label in enumerate(labels):
                fh.write(f"{label}\t{idx}\n")


def is_gold(graph: KnowledgeGraph, triple: tuple[int, int, int]) -> bool:
    """True if the triple appears in any split."""
    return tuple(triple) in graph.gold


def extract_domains(graph: KnowledgeGraph) -> dict[tuple[int, str], Domain]:
    """Collect, per relation, the head and tail entity sets seen in training.

    Only the training split contributes; held-out triples must not leak
    into the regions the ellipsoids are fitted on.
    """
    members: dict[tuple[int, str], set[int]] = {}
    for h, r, t in graph.train:
        members.setdefault((r, HEAD), set()).add(h)
        members.setdefault((r, TAIL), set()).add(t)
    return {key: Domain(key[0], key[1], tuple(sorted(ids)))
            for key, ids in members.items()}


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a non-negative integer array."""
    s = np.sort(codes)
    return s[np.diff(s, prepend=-1) != 0]


def _relation_stats(graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """(hpt, tph) per relation over distinct training triples.

    hpt = distinct pairs / distinct tails, tph = distinct pairs / distinct
    heads. Relations absent from training get 0 for both.
    """
    n_e, n_r = graph.n_entities, graph.n_relations
    h, r, t = np.fromiter(chain.from_iterable(graph.train), dtype=np.int64,
                          count=3 * len(graph.train)).reshape(-1, 3).T
    # distinct (r, h) and (r, t) as sorted codes r * |E| + entity, and
    # distinct (r, h, t) as (index of its (r, h) code) * |E| + t
    rh = r * n_e + h
    heads = _distinct(rh)
    tails = _distinct(r * n_e + t)
    pairs = _distinct(np.searchsorted(heads, rh) * n_e + t)

    n_pairs = np.bincount(heads[pairs // n_e] // n_e, minlength=n_r)
    hpt = np.zeros(n_r)
    tph = np.zeros(n_r)
    seen = n_pairs > 0
    hpt[seen] = n_pairs[seen] / np.bincount(tails // n_e, minlength=n_r)[seen]
    tph[seen] = n_pairs[seen] / np.bincount(heads // n_e, minlength=n_r)[seen]
    return hpt, tph


def classify_relations(graph: KnowledgeGraph) -> dict[int, str]:
    """Assign each relation one of the four mapping categories.

    A side counts as "many" when its average multiplicity exceeds the
    threshold: tph > 1.5 means a head maps to many tails, hpt > 1.5 means
    a tail maps to many heads.
    """
    hpt, tph = _relation_stats(graph)
    out = {}
    for r in range(graph.n_relations):
        many_tails = tph[r] > CATEGORY_THRESHOLD
        many_heads = hpt[r] > CATEGORY_THRESHOLD
        if many_tails and many_heads:
            out[r] = CAT_N_TO_N
        elif many_tails:
            out[r] = CAT_1_TO_N
        elif many_heads:
            out[r] = CAT_N_TO_1
        else:
            out[r] = CAT_1_TO_1
    return out


def corrupt_head_probs(graph: KnowledgeGraph) -> np.ndarray:
    """Per-relation probability of corrupting the head side.

    Used by the relation-aware negative sampler: sides with higher
    multiplicity are corrupted more often, which lowers the odds of
    drawing a false negative. Relations without statistics fall back
    to an even split.
    """
    hpt, tph = _relation_stats(graph)
    denom = hpt + tph
    probs = np.full(graph.n_relations, 0.5)
    seen = denom > 0
    probs[seen] = tph[seen] / denom[seen]
    return probs
