"""Knowledge-graph data handling.

Triple files are UTF-8 text, one ``head<TAB>relation<TAB>tail`` per line.
Labels are opaque strings; integer ids are assigned by first appearance
while scanning train, then valid, then test. Duplicate triples are kept
in the per-split lists and collapsed in the gold index.

The filter index (the known tails of each (h, r) and the known heads of
each (r, t), over all splits) is built from sorted int64 codes: one sort
per side, one candidate array per side, and each key's candidates a
slice of it.
"""

from __future__ import annotations

import gc
import operator
import os
from collections.abc import Iterable, Mapping, Set
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ParseError

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

    def __init__(self, labels: Iterable[str] = ()):
        self.labels: list[str] = list(dict.fromkeys(labels))
        self._index: dict[str, int] = dict(zip(self.labels,
                                               range(len(self.labels))))

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


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a non-negative integer array."""
    s = np.sort(codes)
    return s[np.diff(s, prepend=-1) != 0]


class _FilterIndex(Mapping):
    """Read-only map from a key (a, b), with 0 <= a < n_a and
    0 <= b < n_b, to the sorted int64 entities known with it.

    Keys are the sorted distinct codes a * n_b + b. Each distinct
    (key, entity) pair is the code (position of its key) * |E| + entity,
    so no code can overflow or alias another pair; one sort of those
    codes lays every key's entities out as a slice of one array.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, entity: np.ndarray,
                 n_a: int, n_b: int, n_entities: int):
        self._shape = (n_a, n_b)
        key = a * n_b + b
        self._keys = _distinct(key)
        pairs = _distinct(np.searchsorted(self._keys, key) * n_entities
                          + entity)
        self._starts = np.searchsorted(
            pairs, np.arange(len(self._keys) + 1) * n_entities)
        self._entities = pairs % n_entities
        self._entities.flags.writeable = False

    def _find(self, key) -> int:
        try:
            a, b = map(operator.index, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        n_a, n_b = self._shape
        if 0 <= a < n_a and 0 <= b < n_b:
            code = a * n_b + b
            i = int(self._keys.searchsorted(code))
            if i < len(self._keys) and self._keys[i] == code:
                return i
        raise KeyError(key)

    def __getitem__(self, key) -> np.ndarray:
        i = self._find(key)
        return self._entities[self._starts[i]:self._starts[i + 1]]

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        n_b = self._shape[1]
        return (divmod(code, n_b) for code in self._keys.tolist())

    @property
    def n_pairs(self) -> int:
        return len(self._entities)


class _GoldSet(Set):
    """Read-only set of the distinct (h, r, t) of all splits, answered
    from the known-tails index: (h, r, t) is gold when t is among the
    known tails of (h, r)."""

    def __init__(self, tails_by_hr: _FilterIndex):
        self._tails = tails_by_hr

    def __contains__(self, triple) -> bool:
        try:
            h, r, t = triple
            t = operator.index(t)
            tails = self._tails[(h, r)]
        except (TypeError, ValueError, KeyError):
            return False
        i = int(tails.searchsorted(t))
        return i < len(tails) and tails[i] == t

    def __len__(self) -> int:
        return self._tails.n_pairs

    def __iter__(self):
        for (h, r), tails in self._tails.items():
            for t in tails.tolist():
                yield h, r, t


@dataclass
class KnowledgeGraph:
    entities: Vocab
    relations: Vocab
    train: list[tuple[int, int, int]]
    valid: list[tuple[int, int, int]]
    test: list[tuple[int, int, int]]
    gold: Set[tuple[int, int, int]] = field(repr=False)
    # filtered-evaluation lookup: known tails of (h, r), known heads of (r, t)
    tails_by_hr: Mapping[tuple[int, int], np.ndarray] = field(repr=False)
    heads_by_rt: Mapping[tuple[int, int], np.ndarray] = field(repr=False)
    # read-only (n_train, 3) int64 ids of the training split
    train_ids: np.ndarray = field(repr=False)

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


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its state after.

    Loading a graph allocates a tuple per triple and creates no reference
    cycles, but every few hundred allocations trigger a collection that
    scans them; on a WN18-sized graph that was about a fifth of
    ``build_graph``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def build_graph(train: list[tuple[str, str, str]],
                valid: list[tuple[str, str, str]],
                test: list[tuple[str, str, str]]) -> KnowledgeGraph:
    """Assemble a graph from label triples already split three ways."""
    with _gc_paused():
        rows = [*train, *valid, *test]
        heads, rels, tails = zip(*rows) if rows else ((), (), ())
        entities = Vocab(chain.from_iterable(zip(heads, tails)))
        relations = Vocab(rels)
        ids = np.empty((len(rows), 3), dtype=np.int64)
        for col, labels, vocab in ((0, heads, entities), (1, rels, relations),
                                   (2, tails, entities)):
            ids[:, col] = np.fromiter(map(vocab._index.__getitem__, labels),
                                      dtype=np.int64, count=len(rows))
        ids.flags.writeable = False

        ends = np.cumsum([len(train), len(valid), len(test)])
        splits = [list(zip(*part.T.tolist()))
                  for part in np.split(ids, ends[:2])]
        n_e, n_r = len(entities), len(relations)
        h, r, t = ids.T
        tails_by_hr = _FilterIndex(h, r, t, n_e, n_r, n_e)
        heads_by_rt = _FilterIndex(r, t, h, n_r, n_e, n_e)
        return KnowledgeGraph(entities, relations, *splits,
                              _GoldSet(tails_by_hr), tails_by_hr, heads_by_rt,
                              ids[:ends[0]])


def load_graph(train_path: str, valid_path: str,
               test_path: str) -> KnowledgeGraph:
    with _gc_paused():
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
    """True if the triple appears in any split; False for an id outside
    the graph's entities or relations."""
    return tuple(triple) in graph.gold


def extract_domains(graph: KnowledgeGraph) -> dict[tuple[int, str], Domain]:
    """Collect, per relation, the head and tail entity sets seen in training.

    Only the training split contributes; held-out triples must not leak
    into the regions the ellipsoids are fitted on.
    """
    n_e = graph.n_entities
    out = {}
    for side, codes in zip(SIDES, _slot_codes(graph)):
        slots = _distinct(codes)
        rels, first = np.unique(slots // n_e, return_index=True)
        for r, ids in zip(rels.tolist(), np.split(slots % n_e, first[1:])):
            out[(r, side)] = Domain(r, side, tuple(ids.tolist()))
    return out


def _slot_codes(graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per training triple, its (r, h) and its (r, t) as r * |E| + entity."""
    h, r, t = graph.train_ids.T
    base = r * graph.n_entities
    return base + h, base + t


def _relation_stats(graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """(hpt, tph) per relation over distinct training triples.

    hpt = distinct pairs / distinct tails, tph = distinct pairs / distinct
    heads. Relations absent from training get 0 for both.
    """
    n_e, n_r = graph.n_entities, graph.n_relations
    t = graph.train_ids[:, 2]
    rh, rt = _slot_codes(graph)
    # distinct (r, h) and (r, t) codes, and distinct (r, h, t) as
    # (index of its (r, h) code) * |E| + t
    heads = _distinct(rh)
    tails = _distinct(rt)
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
