"""Translation-based embedding models and their trainer.

Three variants share one score shape: project head and tail entities into
the relation's space, translate by the relation vector, and measure the
residual with an L1 or L2 norm. ``transe`` uses no projection,
``stranse`` separate head and tail matrices per relation, and ``transr``
is ``stranse`` whose tail matrices *are* its head matrices: one array,
stored once in the v1 file. Lower scores mean more plausible triples.

The projected variants are trained staged: their entity and relation
vectors start from an already trained ``transe`` model and the projection
matrices start at identity.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import HEAD, TAIL, KnowledgeGraph, corrupt_head_probs
from .errors import ConfigurationError, FormatError, TrainingDivergedError

VARIANTS = ("transe", "transr", "stranse")
DISSIMILARITIES = ("l1", "l2")

MODEL_MAGIC = "DREKGE"
MODEL_VERSION = "v1"

# a header count as the writers print it: decimal digits, no sign, no
# leading zero
_COUNT = re.compile("0|[1-9][0-9]*")


@dataclass
class TrainConfig:
    variant: str = "transe"
    dim: int = 50
    rel_dim: int | None = None   # projection target size; defaults to dim
    lr: float = 0.001
    margin: float = 2.0
    batch_size: int = 120
    dissimilarity: str = "l1"
    epochs: int = 1000
    negative_sampling: str = "uniform"
    normalize_entities: bool = False
    seed: int = 0
    eval_every: int = 25   # validation cadence (epochs) when a validator is given
    patience: int = 50     # validations without improvement before stopping

    @property
    def k(self) -> int:
        return self.dim if self.rel_dim is None else self.rel_dim

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.dissimilarity not in DISSIMILARITIES:
            raise ConfigurationError(
                f"unknown dissimilarity {self.dissimilarity!r}")
        if self.negative_sampling not in ("uniform", "bernoulli"):
            raise ConfigurationError(
                f"unknown negative sampling {self.negative_sampling!r}")
        if self.dim < 1 or self.k < 1:
            raise ConfigurationError("embedding dimensions must be >= 1")
        # written so that NaN fails too
        if not (0 < self.lr < math.inf and 0 < self.margin < math.inf):
            raise ConfigurationError("lr and margin must be positive and "
                                     "finite")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        for name in ("seed", "eval_every", "patience"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.variant == "transe" and self.k != self.dim:
            raise ConfigurationError("transe has no projection; rel_dim "
                                     "must equal dim")


@dataclass
class EmbeddingModel:
    variant: str
    dissimilarity: str
    entity_vecs: np.ndarray            # (|E|, d)
    relation_vecs: np.ndarray          # (|R|, k)
    head_proj: np.ndarray | None = None  # (|R|, k, d); projected variants
    tail_proj: np.ndarray | None = None  # (|R|, k, d); transr: head_proj itself
    _fingerprint: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.variant == "transr":
            if self.tail_proj is not None and self.tail_proj is not self.head_proj:
                raise ConfigurationError("transr has one matrix per relation")
            self.tail_proj = self.head_proj

    @property
    def n_entities(self) -> int:
        return self.entity_vecs.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation_vecs.shape[0]

    @property
    def dim(self) -> int:
        return self.entity_vecs.shape[1]

    @property
    def rel_dim(self) -> int:
        return self.relation_vecs.shape[1]

    def fingerprint(self) -> int:
        """64-bit hash of the serialized parameters; ties domain models
        to the exact embedding state they were fitted against."""
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=8)
            for chunk in _model_chunks(self):
                digest.update(chunk)
            self._fingerprint = int.from_bytes(digest.digest(), "little")
        return self._fingerprint


def check_fits(model: EmbeddingModel, graph: KnowledgeGraph) -> None:
    """Refuse a model whose entity or relation count is not the graph's:
    its ids could not name the graph's entities and relations."""
    if model.n_entities != graph.n_entities \
            or model.n_relations != graph.n_relations:
        raise ConfigurationError("model entity/relation counts do not match "
                                 "the graph")


def project_slots(model: EmbeddingModel, entities: np.ndarray,
                  relations: np.ndarray, sides) -> np.ndarray:
    """Rows of entity ids (G, m), row g mapped into the space of slot
    ``sides[g]`` of ``relations[g]``, as a (G, m, k) stack: the rows are
    gathered first, then projected in one stacked product. A (1, 1)
    block projects one entity into one slot."""
    vecs = model.entity_vecs[entities]
    if model.head_proj is None:
        return vecs
    mats = model.head_proj[relations]
    if model.tail_proj is not model.head_proj:
        tail = np.array([side == TAIL for side in sides], dtype=bool)
        mats[tail] = model.tail_proj[relations[tail]]
    return vecs @ mats.transpose(0, 2, 1)


def project_all(model: EmbeddingModel, relation: int, side: str) -> np.ndarray:
    """All entity vectors mapped into the relation's space for one slot,
    as an (|E|, k) array whose row e is entity e.

    It is stored column-major: its transpose is a C-ordered (k, |E|)
    array, so each coordinate runs contiguously across every entity and
    a sum over the coordinates is k row additions across |E|. transe's
    result is a transposed copy of ``entity_vecs``; a projected variant
    makes one product ``W @ entity_vecs.T``. The copy belongs to the
    caller, so it goes stale once the parameters change.
    """
    proj = model.head_proj if side == HEAD else model.tail_proj
    if proj is None:
        return np.ascontiguousarray(model.entity_vecs.T).T
    return (proj[relation] @ model.entity_vecs.T).T


def _projection_key(model: EmbeddingModel, relation: int, side: str):
    """Slots with equal keys get equal ``project_all`` results: every
    transe slot, and the two slots of one transr relation, whose one
    matrix serves both."""
    if model.head_proj is None:
        return None
    if model.tail_proj is model.head_proj:
        return relation
    return relation, side


def _norms(diff: np.ndarray, dissimilarity: str) -> np.ndarray:
    """Norms over the last axis."""
    if dissimilarity == "l1":
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff * diff).sum(axis=-1))


def score_triple(model: EmbeddingModel, triple: tuple[int, int, int]) -> float:
    h, r, t = triple
    head, tail = project_slots(model, np.array([[h], [t]]), np.array([r, r]),
                               (HEAD, TAIL))[:, 0]
    return float(_norms(head + model.relation_vecs[r] - tail,
                        model.dissimilarity))


def score_all(model: EmbeddingModel, relation: int, *, head: int | None = None,
              tail: int | None = None,
              projected: np.ndarray | None = None) -> np.ndarray:
    """Scores with every entity substituted into the open slot.

    Exactly one of ``head`` and ``tail`` is fixed. ``projected`` lets a
    caller reuse ``project_all`` output for the open slot across many
    queries with the same relation. Each coordinate's |t_i - X_i| (or
    its square) is formed across all |E| candidates, one row of their
    (k, |E|) layout at a time, and added into one |E|-length sum, so no
    (k, |E|) residual is ever held.
    """
    if (head is None) == (tail is None):
        raise ConfigurationError("fix exactly one of head and tail")
    r_vec = model.relation_vecs[relation]
    fixed, fixed_side, side = (head, HEAD, TAIL) if tail is None \
        else (tail, TAIL, HEAD)
    (anchor,) = project_slots(model, np.array([[fixed]]),
                              np.array([relation]), (fixed_side,))[0]
    # t - x is -(x - t): the same magnitude, so the same |.| and square
    anchor = -(anchor + r_vec) if tail is None else r_vec - anchor
    cand = projected if projected is not None \
        else project_all(model, relation, side)
    term = np.empty(model.n_entities)
    total = np.zeros(model.n_entities)
    for row, offset in zip(cand.T, anchor):
        np.add(row, offset, out=term)
        if model.dissimilarity == "l1":
            np.abs(term, out=term)
        else:
            np.multiply(term, term, out=term)
        total += term
    return total if model.dissimilarity == "l1" else np.sqrt(total, out=total)


def _norm_grad(u: np.ndarray, dissimilarity: str) -> np.ndarray:
    """d||u||/du rows; the L1 subgradient at zero coordinates is zero and
    the L2 gradient at the zero vector is the zero vector."""
    if dissimilarity == "l1":
        return np.sign(u)
    n = _norms(u, "l2")
    out = np.zeros_like(u)
    nz = n > 0
    out[nz] = u[nz] / n[nz][..., None]
    return out


def _groups(values: np.ndarray):
    """(value, row indices) for each distinct value of a non-negative
    integer array, ascending; rows keep their order within a group."""
    order = np.argsort(values, kind="stable")
    ids = values[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    return zip(ids[starts].tolist(), np.split(order, starts[1:]))


def _relation_grads(model: EmbeddingModel, triples: np.ndarray,
                    g: np.ndarray):
    """Per relation present, the gradients of sum_i g_i . u_i (u_i row
    i's residual) w.r.t. the rows' head and tail entities and the
    relation's two matrices. Each group is computed as it is yielded."""
    ent = model.entity_vecs
    for relation, rows in _groups(triples[:, 1]):
        g_r = g[rows]
        yield (relation, rows,
               g_r @ model.head_proj[relation],
               -(g_r @ model.tail_proj[relation]),
               g_r.T @ ent[triples[rows, 0]],
               -(g_r.T @ ent[triples[rows, 2]]))


def score_gradients(model: EmbeddingModel, triple: tuple[int, int, int]) -> dict:
    """Analytic gradients of ``score_triple`` w.r.t. each parameter block.

    Returns a dict with ``head``, ``relation``, ``tail`` vectors and,
    for projected variants, ``head_proj`` / ``tail_proj`` matrices (the
    per-relation slices; transr's one matrix gets their sum). This is
    the one-row case of the training update.
    """
    row = np.array([triple], dtype=np.int64)
    g = _norm_grad(_residuals(model, row), model.dissimilarity)
    if model.head_proj is None:
        return {"head": g[0], "relation": g[0].copy(), "tail": -g[0]}
    ((_, _, head, tail, head_proj, tail_proj),) = \
        _relation_grads(model, row, g)
    return {"head": head[0], "relation": g[0], "tail": tail[0],
            "head_proj": head_proj, "tail_proj": tail_proj}


def _init_model(graph: KnowledgeGraph, config: TrainConfig,
                init: EmbeddingModel | None, rng: np.random.Generator) -> EmbeddingModel:
    n_e, n_r = graph.n_entities, graph.n_relations
    d, k = config.dim, config.k
    if init is not None:
        check_fits(init, graph)
    if config.variant == "transe":
        if init is not None:
            if init.variant != "transe" or init.dim != d:
                raise ConfigurationError("transe can only resume from a "
                                         "transe model of the same dim")
            return EmbeddingModel("transe", config.dissimilarity,
                                  init.entity_vecs.copy(),
                                  init.relation_vecs.copy())
        bound = 6.0 / np.sqrt(d)
        return EmbeddingModel(
            "transe", config.dissimilarity,
            rng.uniform(-bound, bound, size=(n_e, d)),
            rng.uniform(-bound, bound, size=(n_r, d)))

    # projected variants start from a trained transe state
    if init is None:
        raise ConfigurationError(
            f"{config.variant} training needs a trained transe model as init")
    if init.variant != "transe":
        raise ConfigurationError("staged init must be a transe model, got "
                                 f"{init.variant!r}")
    if init.dim != d or init.rel_dim != k:
        raise ConfigurationError("staged init requires matching dimensions "
                                 f"(base {init.dim}, requested d={d} k={k})")
    eye = np.broadcast_to(np.eye(k, d), (n_r, k, d)).copy()
    tail = eye.copy() if config.variant == "stranse" else None
    return EmbeddingModel(config.variant, config.dissimilarity,
                          init.entity_vecs.copy(), init.relation_vecs.copy(),
                          head_proj=eye, tail_proj=tail)


def _scatter_add(table: np.ndarray, ids: np.ndarray,
                 rows: np.ndarray) -> None:
    """``np.add.at(table, ids, rows)`` for a 2-D ``table``, run on its
    flat view with one element index ``id * k + column`` per value: the
    same element additions in the same order, so the same bits, on
    numpy's fast 1-D path. ``table`` must be C-contiguous, so that the
    flat array is a view and not a copy."""
    if not table.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous")
    k = table.shape[1]
    index = (ids[:, None] * k + np.arange(k)).ravel()
    np.add.at(table.reshape(-1), index, rows.ravel())


def _batch_update(model: EmbeddingModel, lr: float,
                  pos: np.ndarray, neg: np.ndarray, g_pos: np.ndarray,
                  g_neg: np.ndarray) -> None:
    """Apply one mini-batch of margin-violation gradient steps.

    ``pos``/``neg`` are (B, 3) id arrays for the violating pairs and
    ``g_pos``/``g_neg`` the norm gradients of their residuals. All
    gradients are evaluated at the batch-start parameters. Repeated ids
    accumulate in ``_scatter_add``, one step after another in the order
    the steps are listed: the relation steps in pair order; for transe
    the positive heads, positive tails, negative heads, then negative
    tails; for the projected variants the heads of the positives and
    then of the negatives, followed by their tails in the same order.
    """
    ent = model.entity_vecs
    _scatter_add(model.relation_vecs, pos[:, 1], -lr * (g_pos - g_neg))
    if model.head_proj is None:
        _scatter_add(ent, np.concatenate([pos[:, 0], pos[:, 2],
                                          neg[:, 0], neg[:, 2]]),
                     np.concatenate([-lr * g_pos, lr * g_pos,
                                     lr * g_neg, -lr * g_neg]))
        return

    # one signed pass over both halves of sum f(pos) - f(neg); entities
    # move after the loop, each relation's matrices once they are read
    triples = np.concatenate([pos, neg])
    n = len(triples)
    d_ent = np.empty((2 * n, model.dim))
    for relation, rows, head, tail, head_proj, tail_proj in _relation_grads(
            model, triples, np.concatenate([g_pos, -g_neg])):
        d_ent[rows] = head
        d_ent[n + rows] = tail
        model.head_proj[relation] -= lr * head_proj
        model.tail_proj[relation] -= lr * tail_proj
    _scatter_add(ent, np.concatenate([triples[:, 0], triples[:, 2]]),
                 -lr * d_ent)


def _check_finite(model: EmbeddingModel, epoch: int) -> None:
    for name, arr in zip(("entity_vecs", "relation_vecs", "head_proj",
                          "tail_proj"), _param_arrays(model)):
        if not np.isfinite(arr).all():
            raise TrainingDivergedError(epoch, name)


def _snapshot(model: EmbeddingModel) -> list[np.ndarray]:
    return [a.copy() for a in _param_arrays(model)]


def _restore(model: EmbeddingModel, snap: list[np.ndarray]) -> None:
    for dst, src in zip(_param_arrays(model), snap):
        dst[...] = src


def train(graph: KnowledgeGraph, config: TrainConfig,
          init: EmbeddingModel | None = None, *,
          validator=None, on_epoch=None) -> EmbeddingModel:
    """Train one embedding model with margin ranking SGD.

    Each positive triple gets one corrupted negative per epoch (head or
    tail replaced by a random entity; the ``bernoulli`` sampler biases
    the side by relation multiplicity). Pairs violating
    ``margin + f(pos) - f(neg) > 0`` contribute gradient steps.

    ``on_epoch(epoch, mean_loss)`` is called once per epoch.
    ``validator(model) -> float`` (higher is better) is called every
    ``eval_every`` epochs; after ``patience`` validations without
    improvement training stops and the best-scoring parameters are
    returned. A fixed seed makes the run bit-reproducible.
    """
    config.validate()
    if len(graph.train) == 0:
        raise ConfigurationError("training split is empty")
    rng = np.random.default_rng(config.seed)
    model = _init_model(graph, config, init, rng)

    triples = graph.train
    n = len(triples)
    # per relation, the chance that a negative replaces the head
    head_probs = corrupt_head_probs(graph) \
        if config.negative_sampling == "bernoulli" \
        else np.full(graph.n_relations, 0.5)

    best_score = -np.inf
    best_params: list[np.ndarray] | None = None
    stale = 0

    for epoch in range(config.epochs):
        if config.normalize_entities:
            norms = np.linalg.norm(model.entity_vecs, axis=1, keepdims=True)
            np.divide(model.entity_vecs, norms, out=model.entity_vecs,
                      where=norms > 0)
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            pos = triples[order[start:start + config.batch_size]]
            b = len(pos)
            corrupt_head = rng.random(b) < head_probs[pos[:, 1]]
            repl = rng.integers(0, graph.n_entities, size=b)
            neg = pos.copy()
            neg[corrupt_head, 0] = repl[corrupt_head]
            neg[~corrupt_head, 2] = repl[~corrupt_head]

            u = _residuals(model, np.concatenate([pos, neg]))
            f = _norms(u, model.dissimilarity)
            viol = config.margin + f[:b] - f[b:]
            mask = viol > 0
            loss_sum += float(viol[mask].sum())
            if mask.any():
                g = _norm_grad(u[np.concatenate([mask, mask])],
                               model.dissimilarity)
                _batch_update(model, config.lr, pos[mask], neg[mask],
                              *np.split(g, 2))

        mean_loss = loss_sum / n
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(epoch)
        _check_finite(model, epoch)
        if on_epoch is not None:
            on_epoch(epoch, mean_loss)

        if validator is not None and config.eval_every > 0 \
                and (epoch + 1) % config.eval_every == 0:
            score = float(validator(model))
            if score > best_score:
                best_score = score
                best_params = _snapshot(model)
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break

    if best_params is not None:
        _restore(model, best_params)
    model._fingerprint = None
    return model


def _residuals(model: EmbeddingModel, triples: np.ndarray) -> np.ndarray:
    """(B, k) translation residuals for a batch of id triples."""
    ent, rel = model.entity_vecs, model.relation_vecs
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    if model.head_proj is None:
        return ent[h] + rel[r] - ent[t]
    out = np.empty((len(triples), model.rel_dim))
    for relation, rows in _groups(r):
        out[rows] = (ent[h[rows]] @ model.head_proj[relation].T
                     + rel[relation]
                     - ent[t[rows]] @ model.tail_proj[relation].T)
    return out


# ---------------------------------------------------------------------------
# serialization
#
# Model files are an ASCII header line followed by raw little-endian
# float64 parameter rows and an 8-byte payload length footer:
#
#   DREKGE v1 <variant> <n_entities> <n_relations> <dim> <rel_dim> <dissim>\n
#   entity_vecs, relation_vecs, [head_proj (transr: both slots)], [tail_proj]
#   <uint64 little-endian: payload byte count>
# ---------------------------------------------------------------------------

_N_MATRICES = {"transe": 0, "transr": 1, "stranse": 2}


def _param_arrays(model: EmbeddingModel) -> list[np.ndarray]:
    """Every distinct parameter array, in file order."""
    out = [model.entity_vecs, model.relation_vecs]
    if model.head_proj is not None:
        out.append(model.head_proj)
    if model.tail_proj is not model.head_proj:
        out.append(model.tail_proj)
    return out


def _model_chunks(model: EmbeddingModel):
    """The model file as buffers: header, parameter arrays, footer."""
    yield (f"{MODEL_MAGIC} {MODEL_VERSION} {model.variant} "
           f"{model.n_entities} {model.n_relations} "
           f"{model.dim} {model.rel_dim} {model.dissimilarity}\n"
           ).encode("ascii")
    payload = 0
    for arr in _param_arrays(model):
        data = np.ascontiguousarray(arr, dtype="<f8")
        payload += data.nbytes
        yield data
    yield struct.pack("<Q", payload)


def save_model(model: EmbeddingModel, path: str) -> None:
    with open(path, "wb") as fh:
        for chunk in _model_chunks(model):
            fh.write(chunk)


def read_artifact(path: str, magic: str, n_fields: int,
                  counts: slice) -> tuple[list, memoryview]:
    """The header fields and the body of a v1 artifact file, accepted
    only in the form its writer prints: an ASCII line of ``n_fields``
    fields joined by single spaces, the first ``magic`` and the second
    ``v1``, then the body. The fields in ``counts`` come back as ints;
    each must match ``_COUNT``. The body is a view of the bytes read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line")
    fields = raw[:nl].decode("ascii", errors="replace").split(" ")
    if len(fields) != n_fields or fields[0] != magic:
        raise FormatError(f"{path}: not a {magic} file")
    if fields[1] != "v1":
        raise FormatError(f"{path}: unsupported version {fields[1]!r}")
    if not all(_COUNT.fullmatch(x) for x in fields[counts]):
        raise FormatError(f"{path}: bad header counts")
    fields[counts] = [int(x) for x in fields[counts]]
    return fields, memoryview(raw)[nl + 1:]


def load_model(path: str) -> EmbeddingModel:
    (_, _, variant, n_e, n_r, d, k, dissim), body = read_artifact(
        path, MODEL_MAGIC, 8, slice(3, 7))
    if variant not in VARIANTS:
        raise FormatError(f"{path}: unknown variant {variant!r}")
    if dissim not in DISSIMILARITIES:
        raise FormatError(f"{path}: unknown dissimilarity {dissim!r}")
    if min(n_e, n_r, d, k) < 1:
        raise FormatError(f"{path}: bad header counts")

    shapes = [(n_e, d), (n_r, k)] + [(n_r, k, d)] * _N_MATRICES[variant]
    # Python ints, so that a huge header cannot wrap around
    sizes = [math.prod(shape) for shape in shapes]
    expected = sum(sizes) * 8

    if len(body) != expected + 8:
        raise FormatError(f"{path}: payload is {len(body)} bytes, expected "
                          f"{expected + 8}")
    (footer,) = struct.unpack("<Q", body[expected:])
    if footer != expected:
        raise FormatError(f"{path}: payload length check failed "
                          f"({footer} != {expected})")
    if variant == "transe" and k != d:
        raise FormatError(f"{path}: transe has no projection; its rel_dim "
                          f"{k} must equal its dim {d}")

    flat = np.frombuffer(body, dtype="<f8", count=expected // 8)
    cuts = np.cumsum(sizes)[:-1]
    arrays = [part.astype(np.float64).reshape(shape)
              for part, shape in zip(np.split(flat, cuts), shapes)]
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise FormatError(f"{path}: non-finite parameter values")
    return EmbeddingModel(variant, dissim, *arrays)
