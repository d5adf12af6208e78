"""Knowledge-graph data handling.

Triple files are UTF-8 text, one ``head<TAB>relation<TAB>tail`` per line,
blank lines ignored. A line without exactly three non-empty fields, or a
byte that is not valid UTF-8, raises ``ParseError`` with the path and the
1-based line number. Lines end where file iteration ends them (``\n``,
``\r\n`` or a lone ``\r``); any other character, form feeds and Unicode
line separators included, is part of a label. Labels are opaque strings;
integer ids are assigned by first appearance while scanning train, then
valid, then test. The three files reach the ids as one flat stream of
labels, in one pass that also writes each label's id; no object is made
per line. Each split is a read-only block of rows of one int64 id
array; duplicate triples are kept there and collapsed in the filter
index.

The filter index (the known tails of each (h, r) and the known heads of
each (r, t), over all splits) is built on first use, so only ranking
pays for it: ``evaluate`` and validation during training. It is built
from sorted int64 codes: one sort per side, one candidate array per
side, and each key's candidates a slice of it.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, cycle

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
    """Bidirectional label <-> integer id mapping, insertion ordered.

    The labels are held as one UTF-8 blob, in id order, each preceded
    and followed by ``\n``, and no Python object is kept per label. A
    lookup is one search of the blob for ``\nlabel\n`` and a count of
    the line ends before the match; ``labels`` decodes a new list on
    every access.
    """

    def __init__(self, index: dict[str, int]):
        """The vocabulary of an index that maps its labels, in insertion
        order, to 0, 1, 2, ...; a label holding ``\n`` is refused."""
        self._blob = "\n".join(chain(("",), index, ("",))).encode("utf-8")
        self._n = len(index)
        if self._blob.count(b"\n") != self._n + 1:
            bad = next(label for label in index if "\n" in label)
            raise ValueError(f"label {bad!r} contains a line end")

    def id(self, label: str) -> int | None:
        # "a\nb" would match the labels "a" and "b" in a row
        if "\n" in label:
            return None
        # lone surrogates (undecodable command-line bytes) encode to bytes
        # that valid UTF-8 never holds, so they are found nowhere
        at = self._blob.find(b"\n" + label.encode("utf-8", "surrogatepass")
                             + b"\n")
        return None if at < 0 else self._blob.count(b"\n", 0, at)

    @property
    def labels(self) -> list[str]:
        """A new list of the labels in id order, decoded from the blob."""
        return self._blob.decode("utf-8").split("\n")[1:-1]

    def __len__(self) -> int:
        return self._n


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


@dataclass
class KnowledgeGraph:
    entities: Vocab
    relations: Vocab
    # read-only (n_train + n_valid + n_test, 3) int64 (h, r, t) ids of all
    # splits, in split order, and each split's block of rows of it
    ids: np.ndarray = field(repr=False)
    train: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)
    test: np.ndarray = field(repr=False)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    # filtered-evaluation lookup, built on first use: known tails of
    # (h, r), known heads of (r, t)
    @cached_property
    def tails_by_hr(self) -> Mapping[tuple[int, int], np.ndarray]:
        h, r, t = self.ids.T
        return _FilterIndex(h, r, t, self.n_entities, self.n_relations,
                            self.n_entities)

    @cached_property
    def heads_by_rt(self) -> Mapping[tuple[int, int], np.ndarray]:
        h, r, t = self.ids.T
        return _FilterIndex(r, t, h, self.n_relations, self.n_entities,
                            self.n_entities)


def _read_text(path: str) -> str:
    """The whole file in one text-mode read (universal newlines); a byte
    that is not UTF-8 raises ``ParseError`` naming its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        # read() decodes the whole file in one call, so err.object holds
        # all of its bytes and everything before err.start is valid
        before = err.object[:err.start].decode("utf-8")
        breaks = before.count("\n") + before.count("\r") \
            - before.count("\r\n")
        bad = err.object[err.start]
        raise ParseError(path, breaks + 1, f"not valid UTF-8: byte "
                         f"0x{bad:02x} ({err.reason})") from None


def _raise_first_bad_line(path: str, text: str) -> None:
    """Rescan ``text`` line by line and raise ``ParseError`` for the first
    line without exactly three non-empty fields."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(path, line_no,
                             f"expected 3 tab-separated fields, got {len(fields)}")
        if "" in fields:
            name = ("head", "relation", "tail")[fields.index("")]
            raise ParseError(path, line_no, f"empty {name} field")


def _well_formed(text: str) -> bool:
    """True when every non-blank line of ``text`` has two tabs and no
    empty field, tested on all lines at once from the positions of the
    tabs and line ends (single bytes in UTF-8)."""
    code = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    seps = np.flatnonzero((code == ord("\t")) | (code == ord("\n")))
    # every separator, between a line end before the text and one after it
    pos = np.concatenate(([-1], seps, [len(code)]))
    is_end = np.concatenate(([True], code[seps] == ord("\n"), [True]))
    # two neighbouring separators with nothing between them enclose an
    # empty field, unless both are line ends (a blank line)
    if ((np.diff(pos) == 1) & ~(is_end[:-1] & is_end[1:])).any():
        return False
    # per line: the separators inside it are its tabs
    ends = np.flatnonzero(is_end)
    tabs = np.diff(ends) - 1
    blank = np.diff(pos[ends]) == 1
    return bool(((tabs == 2) | blank).all())


def _parse_file(path: str) -> list[str]:
    """The labels of one file's triples, head, relation and tail of each,
    in line order.

    One read, one test of every line at once (``_well_formed``), and one
    split of the text into fields on tabs and line ends: ``\n`` is the
    only line end the text-mode read leaves, so no label is split on a
    form feed or a Unicode line separator as ``str.splitlines`` would.
    Only a file that fails the test is rescanned line by line, to name
    its first bad line.
    """
    text = _read_text(path)
    if not _well_formed(text):
        _raise_first_bad_line(path, text)
    # blank lines, and the end of the last line, leave empty pieces
    return list(filter(None, text.replace("\n", "\t").split("\t")))


def _build(labels: Iterable[str], sizes: list[int]) -> KnowledgeGraph:
    """The graph of a flat stream of labels (head, relation, tail of each
    triple) holding ``sizes`` train, valid and test triples. One pass
    looks each label up in its vocabulary's index, which gives a new
    label the next id, and writes the id into the int64 id array."""
    n = sum(sizes)
    entity_index = defaultdict(count().__next__)
    relation_index = defaultdict(count().__next__)
    # dict.__getitem__ on a defaultdict falls back to its factory, which
    # hands a missing label the next id
    ids = np.fromiter(
        map(dict.__getitem__,
            cycle((entity_index, relation_index, entity_index)), labels),
        dtype=np.int64, count=3 * n).reshape(n, 3)
    ids.flags.writeable = False
    return KnowledgeGraph(Vocab(entity_index), Vocab(relation_index), ids,
                          *np.split(ids, np.cumsum(sizes)[:2]))


def build_graph(train: list[tuple[str, str, str]],
                valid: list[tuple[str, str, str]],
                test: list[tuple[str, str, str]]) -> KnowledgeGraph:
    """Assemble a graph from label triples already split three ways, ids
    by first appearance (train, then valid, then test; in each triple
    head, relation, tail), through the one pass ``load_graph`` makes."""
    splits = (train, valid, test)
    return _build(chain.from_iterable(chain.from_iterable(splits)),
                  [len(split) for split in splits])


def load_graph(train_path: str, valid_path: str,
               test_path: str) -> KnowledgeGraph:
    """The graph of three triple files, whose labels go in file order
    through the one id pass ``build_graph`` also makes."""
    fields = [_parse_file(path) for path in (train_path, valid_path,
                                             test_path)]
    return _build(chain.from_iterable(fields),
                  [len(labels) // 3 for labels in fields])


def _slot_codes(graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per training triple, its (r, h) and its (r, t) as r * |E| + entity."""
    h, r, t = graph.train.T
    base = r * graph.n_entities
    return base + h, base + t


def _relation_stats(graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """(hpt, tph) per relation over distinct training triples.

    hpt = distinct pairs / distinct tails, tph = distinct pairs / distinct
    heads. Relations absent from training get 0 for both.
    """
    n_e, n_r = graph.n_entities, graph.n_relations
    t = graph.train[:, 2]
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
