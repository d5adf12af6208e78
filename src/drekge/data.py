"""Knowledge-graph data handling.

Triple files are UTF-8 text, one ``head<TAB>relation<TAB>tail`` per line,
blank lines ignored. A line without exactly three non-empty fields, or a
byte that is not valid UTF-8, raises ``ParseError`` with the path and the
1-based line number. Lines end where file iteration ends them (``\n``,
``\r\n`` or a lone ``\r``); any other character, form feeds and Unicode
line separators included, is part of a label. Labels are opaque strings;
integer ids are assigned by first appearance while scanning train, then
valid, then test.

Loading works on the files' bytes and makes no Python object per line,
per field or per label. The tab and line-end positions that test every
line at once also give each field's byte offset and length. Equal
labels have equal lengths, so each vocabulary's fields are grouped by
length, and each group is packed into uint64 words and sorted once; a
run of equal words is one label, and the labels are ranked by the field
where each first appears. Each vocabulary's blob is cut from the same
bytes in one gather, each label from its first field. ``build_graph``
feeds in-memory labels to the same id assignment, from their UTF-8
encodings. Each split is a read-only block of rows of one int64 id
array; duplicate triples are kept there and collapsed in the filter
index.

Three tables group entity ids by a key, and ``_index`` builds each with
one sort of the int64 codes key * |E| + entity: the filter index (the
known tails of each (h, r) and the known heads of each (r, t), over all
splits), the training domains of ``domains.slot_members`` and the
per-relation counts behind ``classify_relations`` and
``corrupt_head_probs``. Each key's entities are a slice of one array. A
graph whose codes could pass 2**63 (|E|^2 * |R| > 2**63) raises
``DataError``. The filter index is built on first use, so only ranking
pays for it: ``evaluate`` and validation during training.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DataError, ParseError

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

    def __init__(self, blob: bytes):
        """The vocabulary of a blob laid out as above: ``\n``, then each
        label followed by ``\n``."""
        self._blob = blob
        self._n = blob.count(b"\n") - 1

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


def _groups(values: np.ndarray):
    """(value, row indices) for each distinct value of a non-negative
    integer array, ascending; rows keep their order within a group."""
    order = np.argsort(values, kind="stable")
    ids = values[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    return zip(ids[starts].tolist(), np.split(order, starts[1:]))


def _index(keys: np.ndarray, entity: np.ndarray,
           n_entities: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, starts, entities) of pairs of non-negative int64 keys and
    entity ids below ``n_entities``: the sorted distinct keys, and every
    key's sorted distinct entities in one int64 array, those of the i-th
    key at ``entities[starts[i]:starts[i + 1]]``. One sort of the codes
    key * |E| + entity makes them; codes that could pass 2**63 raise
    ``DataError`` before any is made."""
    if (int(keys.max(initial=-1)) + 1) * n_entities > 2 ** 63:
        raise DataError(f"{n_entities} entities and keys up to "
                        f"{int(keys.max())} make (key, entity) codes past "
                        f"2**63: |E|^2 * |R| must be at most 2**63")
    key, entities = np.divmod(_distinct(keys * n_entities + entity),
                              n_entities)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    return key[starts], np.append(starts, len(key)), entities


class _FilterIndex(Mapping):
    """Read-only map from a key (a, b), with 0 <= a < n_a and
    0 <= b < n_b, to the sorted int64 entities known with it: the
    ``_index`` of the key codes a * n_b + b."""

    def __init__(self, a: np.ndarray, b: np.ndarray, entity: np.ndarray,
                 n_a: int, n_b: int, n_entities: int):
        self._shape = (n_a, n_b)
        self._keys, self._starts, self._entities = _index(
            a * n_b + b, entity, n_entities)
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


def _read_text(path: str) -> bytes:
    """The file's bytes with every line end (``\r\n`` or a lone ``\r``)
    made ``\n``, as a text-mode read would leave them; a byte that is not
    UTF-8 raises ``ParseError`` naming its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as err:
            # everything before err.start is valid UTF-8, so its line
            # ends are single bytes
            before = raw[:err.start]
            breaks = before.count(b"\n") + before.count(b"\r") \
                - before.count(b"\r\n")
            raise ParseError(path, breaks + 1, f"not valid UTF-8: byte "
                             f"0x{raw[err.start]:02x} ({err.reason})") from None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw


def _field_offsets(path: str, text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The byte offset and the byte length of every field of ``text``
    (head, relation and tail of each line, in line order). All lines are
    tested at once from the positions of the tabs and line ends. The
    first line that is neither blank nor three non-empty fields raises
    ``ParseError`` naming ``path``, the line and its field count, or its
    first empty field when the count is 3."""
    code = np.frombuffer(text, dtype=np.uint8)
    seps = np.flatnonzero((code == ord("\t")) | (code == ord("\n")))
    # every separator, between a line end before the text and one after it
    pos = np.concatenate(([-1], seps, [len(code)]))
    is_end = np.concatenate(([True], code[seps] == ord("\n"), [True]))
    gaps = np.diff(pos) - 1
    # line k runs from separator ends[k] to ends[k + 1]; the separators
    # inside it are its tabs
    ends = np.flatnonzero(is_end)
    tabs = np.diff(ends) - 1
    miscounted = np.flatnonzero((tabs != 2) & (np.diff(pos[ends]) != 1))
    # two neighbouring separators with nothing between them enclose an
    # empty field, unless both are line ends (a blank line)
    empty = np.flatnonzero((gaps == 0) & ~(is_end[:-1] & is_end[1:]))
    if len(miscounted) or len(empty):
        # an empty field lies on the line of the last line end before it
        line = int(min([*miscounted[:1],
                        *np.searchsorted(ends, empty[:1], "right") - 1]))
        if tabs[line] != 2:
            message = f"expected 3 tab-separated fields, got {tabs[line] + 1}"
        else:
            field_name = ("head", "relation", "tail")[empty[0] - ends[line]]
            message = f"empty {field_name} field"
        raise ParseError(path, line + 1, message)
    fields = gaps > 0
    return (pos[:-1] + 1)[fields], gaps[fields]


def _read_fields(path: str) -> tuple[bytes, np.ndarray, np.ndarray]:
    """One triple file's bytes (line ends made ``\n``) and the offsets and
    lengths of its fields."""
    text = _read_text(path)
    return text, *_field_offsets(path, text)


# bytes per packed word of a label
_WORD = 8


def _label_runs(code: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Write into ``out``, in stream order, the label id of each field of
    one vocabulary: the ``lengths[i]`` bytes of ``code`` at ``starts[i]``.
    Ids go by first appearance in the stream.

    Equal labels have equal lengths, so fields are grouped by length.
    Each group's bytes are read as little-endian uint64 words, the bytes
    past the label zeroed in the last word, and sorted; each run of
    equal words is one label, first seen at the least stream position
    in the run. Returns those positions in id order.
    """
    if not len(starts):
        return np.empty(0, dtype=np.int64)
    # unaligned words at every byte offset; ``code`` ends in _WORD spare
    # bytes, so a field's last word never reads past it
    words_at = np.ndarray((len(code) - _WORD + 1,), dtype="<u8",
                          buffer=code, strides=(1,))
    grouped, run_starts = [], []
    for size, fields in _groups(lengths):
        at = starts[fields]
        words = np.empty((max(1, -(-size // _WORD)), len(at)), dtype="<u8")
        for j in range(len(words)):
            words[j] = words_at[at + _WORD * j]
        words[-1] &= np.uint64(256 ** (size - _WORD * (len(words) - 1)) - 1)
        order = np.argsort(words[0]) if len(words) == 1 \
            else np.lexsort(words)
        words = words[:, order]
        new = np.zeros(len(fields), dtype=bool)
        new[0] = True
        for row in words:
            new[1:] |= row[1:] != row[:-1]
        grouped.append(fields[order])
        run_starts.append(new)
    # every group's fields, each run of one label in a row
    fields = np.concatenate(grouped)
    heads = np.flatnonzero(np.concatenate(run_starts))
    first = np.minimum.reduceat(fields, heads)
    id_of_run = np.empty_like(first)
    id_of_run[np.argsort(first)] = np.arange(len(first))
    stream = np.empty(len(starts), dtype=np.int64)
    stream[fields] = np.repeat(id_of_run, np.diff(heads, append=len(fields)))
    out[...] = stream.reshape(out.shape)
    return np.sort(first)


def _blob(code: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ``Vocab`` blob whose label i is the ``size[i]`` bytes of
    ``code`` at ``at[i]``: each label in id order, preceded and followed
    by ``\n``."""
    # byte k of the labels laid end to end is in label ``label[k]``; it
    # goes after that label's id + 1 line ends
    label = np.repeat(np.arange(len(at)), size)
    k = np.arange(len(label))
    blob = np.full(len(at) + len(k) + 1, ord("\n"), dtype=np.uint8)
    blob[k + label + 1] = code[k + (at - np.cumsum(size) + size)[label]]
    return blob


def _build(chunks: list[bytes], starts: np.ndarray, lengths: np.ndarray,
           sizes: list[int]) -> KnowledgeGraph:
    """The graph of a flat stream of fields (head, relation, tail of each
    triple) holding ``sizes`` train, valid and test triples: field i is
    the ``lengths[i]`` bytes at ``starts[i]`` of the concatenated
    ``chunks``. Each vocabulary's ids come from ``_label_runs``, and its
    blob is cut from those bytes at each label's first field, with no
    Python object per field or per label."""
    n = sum(sizes)
    # the output before the temporaries, so freeing them leaves no hole
    # under it
    ids = np.empty((n, 3), dtype=np.int64)
    code = np.frombuffer(b"".join([*chunks, bytes(_WORD)]), dtype=np.uint8)
    starts, lengths = starts.reshape(n, 3), lengths.reshape(n, 3)
    blobs = []
    # entities label the head and tail columns, relations the middle one
    for cols in (slice(0, 3, 2), slice(1, 2)):
        at, size = starts[:, cols].ravel(), lengths[:, cols].ravel()
        first = _label_runs(code, at, size, ids[:, cols])
        blobs.append(_blob(code, at[first], size[first]))
    # free the file bytes before making the blobs' bytes objects, which
    # live as long as the graph, so those reuse the space the file bytes
    # held rather than pinning a new region under it
    del code
    ids.flags.writeable = False
    return KnowledgeGraph(*(Vocab(blob.tobytes()) for blob in blobs), ids,
                          *np.split(ids, np.cumsum(sizes)[:2]))


def build_graph(train: list[tuple[str, str, str]],
                valid: list[tuple[str, str, str]],
                test: list[tuple[str, str, str]]) -> KnowledgeGraph:
    """Assemble a graph from label triples already split three ways, ids
    by first appearance (train, then valid, then test; in each triple
    head, relation, tail), through the one id assignment ``load_graph``
    makes. A label holding ``\n`` is refused with a ``ValueError``."""
    splits = (train, valid, test)
    labels = [label.encode("utf-8") for label in
              chain.from_iterable(chain.from_iterable(splits))]
    text = b"".join(labels)
    if b"\n" in text:
        bad = next(label for label in chain.from_iterable(
            chain.from_iterable(splits)) if "\n" in label)
        raise ValueError(f"label {bad!r} contains a line end")
    lengths = np.fromiter(map(len, labels), dtype=np.int64,
                          count=len(labels))
    return _build([text], np.cumsum(lengths) - lengths, lengths,
                  [len(split) for split in splits])


def load_graph(train_path: str, valid_path: str,
               test_path: str) -> KnowledgeGraph:
    """The graph of three triple files, whose fields go in file order
    through the one id assignment ``build_graph`` also makes."""
    texts, starts, lengths = zip(*map(_read_fields, (train_path, valid_path,
                                                     test_path)))
    shifts = np.cumsum([0, *map(len, texts)])
    return _build(list(texts),
                  np.concatenate([at + shift for at, shift
                                  in zip(starts, shifts)]),
                  np.concatenate(lengths), [len(at) // 3 for at in starts])


def _relation_stats(graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """(hpt, tph) per relation over distinct training triples.

    hpt = distinct pairs / distinct tails, tph = distinct pairs / distinct
    heads. Relations absent from training get 0 for both.
    """
    n_e, n_r = graph.n_entities, graph.n_relations
    h, r, t = graph.train.T
    # each distinct (r, h) code, with its distinct tails
    heads, starts, _ = _index(r * n_e + h, t, n_e)
    n_pairs = np.bincount(heads // n_e, np.diff(starts), n_r)
    n_heads = np.bincount(heads // n_e, minlength=n_r)
    n_tails = np.bincount(_distinct(r * n_e + t) // n_e, minlength=n_r)
    hpt = np.zeros(n_r)
    tph = np.zeros(n_r)
    seen = n_pairs > 0
    hpt[seen] = n_pairs[seen] / n_tails[seen]
    tph[seen] = n_pairs[seen] / n_heads[seen]
    return hpt, tph


def classify_relations(graph: KnowledgeGraph) -> np.ndarray:
    """The mapping category of each relation, as an (|R|,) array of
    ``CATEGORIES`` strings.

    A side counts as "many" when its average multiplicity exceeds the
    threshold: tph > 1.5 means a head maps to many tails, hpt > 1.5 means
    a tail maps to many heads.
    """
    hpt, tph = _relation_stats(graph)
    return np.array(CATEGORIES)[(tph > CATEGORY_THRESHOLD)
                                + 2 * (hpt > CATEGORY_THRESHOLD)]


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
