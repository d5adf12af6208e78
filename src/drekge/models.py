"""Translation-based embedding models and their trainer.

Three variants share one score shape: project head and tail entities into
the relation's space, translate by the relation vector, and measure the
residual with an L1 or L2 norm. A model holds its projection matrices in
one array ``proj`` of s matrices per relation, and s names the variant:
``transe`` has none (the identity), ``transr`` one for both slots and
``stranse`` one per slot. Matrix 0 projects heads and matrix s - 1 tails.
Lower scores mean more plausible triples.

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

from .data import HEAD, TAIL, KnowledgeGraph, _groups, corrupt_head_probs
from .errors import ConfigurationError, FormatError, TrainingDivergedError

VARIANTS = ("transe", "transr", "stranse")
DISSIMILARITIES = ("l1", "l2")

MODEL_MAGIC = "DREKGE"
# the version field of every artifact header, model and domain files alike
ARTIFACT_VERSION = "v1"

# most elements that one ``np.add.at`` call of ``_scatter_add`` indexes
_SCATTER_CHUNK = 1 << 17

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
    dissimilarity: str
    entity_vecs: np.ndarray            # (|E|, d)
    relation_vecs: np.ndarray          # (|R|, k)
    proj: np.ndarray | None = None     # (s, |R|, k, d); None: s = 0
    _fingerprint: int | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        # refuse what no scorer reads as written; load_model relies on it
        if self.dissimilarity not in DISSIMILARITIES:
            raise ValueError(f"unknown dissimilarity {self.dissimilarity!r}")
        if self.proj is None:
            self.proj = np.empty((0, self.n_relations, self.rel_dim, self.dim))
        shape = np.shape(self.proj)
        if shape[1:] != (self.n_relations, self.rel_dim, self.dim) \
                or shape[0] >= len(VARIANTS):
            raise ValueError(
                f"proj has shape {shape}, expected (s, {self.n_relations}, "
                f"{self.rel_dim}, {self.dim}) with s in 0..2")
        if not shape[0] and self.rel_dim != self.dim:
            raise ValueError(f"transe has no projection; its rel_dim "
                             f"{self.rel_dim} must equal its dim {self.dim}")

    @property
    def variant(self) -> str:
        return VARIANTS[len(self.proj)]

    @property
    def head_proj(self) -> np.ndarray | None:
        """(|R|, k, d) head matrices; None for transe."""
        return self.proj[0] if len(self.proj) else None

    @property
    def tail_proj(self) -> np.ndarray | None:
        """(|R|, k, d) tail matrices; transr's are its head matrices."""
        return self.proj[-1] if len(self.proj) else None

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


def _slot(model: EmbeddingModel, side: str) -> int:
    """The index in ``proj`` of the matrix that projects ``side``."""
    if side not in (HEAD, TAIL):
        raise ConfigurationError(f"unknown side {side!r}")
    return 0 if side == HEAD else len(model.proj) - 1


def project_slots(model: EmbeddingModel, entities: np.ndarray,
                  relations: np.ndarray, sides) -> np.ndarray:
    """Rows of entity ids (G, m), row g mapped into the space of slot
    ``sides[g]`` of ``relations[g]``, as a (G, m, k) stack: the rows are
    gathered first, then projected in one stacked product. A (1, 1)
    block projects one entity into one slot."""
    slots = [_slot(model, side) for side in sides]
    vecs = model.entity_vecs[entities]
    if not len(model.proj):
        return vecs
    return vecs @ model.proj[slots, relations].transpose(0, 2, 1)


def project_all(model: EmbeddingModel, relation: int, side: str) -> np.ndarray:
    """All entity vectors mapped into the relation's space for one slot,
    as an (|E|, k) array whose row e is entity e. It is read-only:
    transe's is ``entity_vecs`` itself. A projected variant makes one
    product ``W @ entity_vecs.T``, stored column-major (its transpose is
    a C-ordered (k, |E|) array, each coordinate contiguous across every
    entity), whose bits depend on the product's width, so an exact score
    of a projected candidate is always read from the full projection,
    never from a projection of a subset. It goes stale once the
    parameters change. A relation id outside the model is refused, for
    every variant, not wrapped around.
    """
    slot = _slot(model, side)
    if not 0 <= relation < model.n_relations:
        raise ConfigurationError(f"relation {relation} is outside the "
                                 f"model")
    if not len(model.proj):
        return model.entity_vecs
    return (model.proj[slot, relation] @ model.entity_vecs.T).T


def _projection_key(model: EmbeddingModel, relation: int, side: str):
    """Slots with equal keys get equal ``project_all`` results: every
    transe slot, and the two slots of one transr relation, whose one
    matrix serves both."""
    if not len(model.proj):
        return None
    return _slot(model, side), relation


def _norms(diff: np.ndarray, dissimilarity: str) -> np.ndarray:
    """Norms over the last axis."""
    if dissimilarity == "l1":
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff * diff).sum(axis=-1))


def score_triple(model: EmbeddingModel, triple: tuple[int, int, int]) -> float:
    """The score of one id triple: the one-row case of the training
    forward path, ``_residuals`` then ``_norms``."""
    h, r, t = triple
    if not (0 <= r < model.n_relations
            and 0 <= min(h, t) and max(h, t) < model.n_entities):
        raise ConfigurationError(f"triple {triple} names an id outside "
                                 f"the model")
    row = np.array([triple], dtype=np.int64)
    return float(_norms(_residuals(model, row), model.dissimilarity)[0])


def _anchor(model: EmbeddingModel, relation: int, *,
            head: int | None = None, tail: int | None = None) -> np.ndarray:
    """The (k,) offset a of one query, with exactly one of ``head`` and
    ``tail`` fixed: a candidate whose open-slot vector is x scores
    ||x + a||, each coordinate's term formed as x_i + a_i."""
    if (head is None) == (tail is None):
        raise ConfigurationError("fix exactly one of head and tail")
    fixed, fixed_side = (head, HEAD) if tail is None else (tail, TAIL)
    if not (0 <= relation < model.n_relations
            and 0 <= fixed < model.n_entities):
        raise ConfigurationError(f"relation {relation} or entity {fixed} "
                                 f"is outside the model")
    r_vec = model.relation_vecs[relation]
    (anchor,) = project_slots(model, np.array([[fixed]]),
                              np.array([relation]), (fixed_side,))[0]
    # t - x is -(x - t): the same magnitude, so the same |.| and square
    return -(anchor + r_vec) if tail is None else r_vec - anchor


def _coordinate_scores(columns: np.ndarray, offsets: np.ndarray,
                       dissimilarity: str) -> np.ndarray:
    """||x + a|| of n candidates x, row i of ``columns`` (k, n) their
    coordinate i, for the query ``offsets`` a (k,): the one
    per-coordinate candidate loop. Each |x_i + a_i| (or its square) is
    added into one n-length sum, left to right over the coordinates,
    all in ``columns.dtype``: no (k, n) residual is held."""
    n = columns.shape[1]
    term, total = np.empty(n, columns.dtype), np.zeros(n, columns.dtype)
    for row, offset in zip(columns, offsets):
        np.add(row, offset, out=term)
        if dissimilarity == "l1":
            np.abs(term, out=term)
        else:
            np.multiply(term, term, out=term)
        total += term
    return total if dissimilarity == "l1" else np.sqrt(total, out=total)


def score_all(model: EmbeddingModel, relation: int, *, head: int | None = None,
              tail: int | None = None,
              projected: np.ndarray | None = None) -> np.ndarray:
    """Scores with every entity substituted into the open slot.

    Exactly one of ``head`` and ``tail`` is fixed. ``projected`` lets a
    caller reuse ``project_all`` output for the open slot across many
    queries with the same relation. ``_coordinate_scores`` scores the
    candidates' (k, |E|) transpose, and ``_score_rows`` gives any subset
    of its scores bit for bit.
    """
    anchor = _anchor(model, relation, head=head, tail=tail)
    cand = projected if projected is not None \
        else project_all(model, relation, TAIL if tail is None else HEAD)
    return _coordinate_scores(cand.T, anchor, model.dissimilarity)


def _score_rows(rows: np.ndarray, ids, anchor: np.ndarray,
                dissimilarity: str) -> np.ndarray:
    """``score_all``'s scores of the candidates ``ids``, whose open-slot
    vectors are those rows of ``rows`` (|E|, k), for the query of
    ``anchor``: the kernel for a gathered subset. The gathered (m, k)
    rows are the one array made: each row's terms are formed in place
    and added left to right by one in-place accumulation, as
    ``_coordinate_scores`` adds them (its first addition, onto 0, is
    exact), so the bits are the same."""
    term = rows[ids]
    term += anchor
    if dissimilarity == "l1":
        np.abs(term, out=term)
    else:
        np.multiply(term, term, out=term)
    total = np.add.accumulate(term, axis=1, out=term)[:, -1]
    return total.copy() if dissimilarity == "l1" else np.sqrt(total)


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


def _relation_grads(model: EmbeddingModel, triples: np.ndarray,
                    g: np.ndarray):
    """The gradients of sum_i g_i . u_i (u_i row i's residual), one group
    of rows at a time, as ``(rows, head, tail, mats)``: ``head`` and
    ``tail`` are w.r.t. the rows' head and tail entities, and ``mats``
    holds ``(slot, relation, gradient)`` for the group's head matrix and
    then its tail matrix. transe has no matrix, so its one group is every
    row, with ``g`` and ``-g``. A projected variant yields one group per
    relation present, each computed as it is yielded."""
    if not len(model.proj):
        yield slice(None), g, -g, ()
        return
    ent = model.entity_vecs
    for relation, rows in _groups(triples[:, 1]):
        g_r = g[rows]
        yield (rows, g_r @ model.proj[0, relation],
               -(g_r @ model.proj[-1, relation]),
               ((0, relation, g_r.T @ ent[triples[rows, 0]]),
                (-1, relation, -(g_r.T @ ent[triples[rows, 2]]))))


def score_gradients(model: EmbeddingModel, triple: tuple[int, int, int]) -> dict:
    """Analytic gradients of ``score_triple`` w.r.t. each parameter block.

    Returns a dict with ``head``, ``relation``, ``tail`` vectors and,
    for projected variants, ``head_proj`` / ``tail_proj`` matrices (the
    per-relation slices; transr's one matrix gets their sum). This is
    the one-row case of ``_relation_grads``, the training update's
    backward path.
    """
    row = np.array([triple], dtype=np.int64)
    g = _norm_grad(_residuals(model, row), model.dissimilarity)
    ((_, head, tail, mats),) = _relation_grads(model, row, g)
    grads = {"head": head[0], "relation": g[0].copy(), "tail": tail[0]}
    grads.update(zip(("head_proj", "tail_proj"), [m for _, _, m in mats]))
    return grads


def _init_model(graph: KnowledgeGraph, config: TrainConfig,
                init: EmbeddingModel | None, rng: np.random.Generator) -> EmbeddingModel:
    n_e, n_r = graph.n_entities, graph.n_relations
    d, k = config.dim, config.k
    s = VARIANTS.index(config.variant)
    if init is None:
        if s:
            raise ConfigurationError(f"{config.variant} training needs a "
                                     "trained transe model as init")
        bound = 6.0 / np.sqrt(d)
        return EmbeddingModel(
            config.dissimilarity,
            rng.uniform(-bound, bound, size=(n_e, d)),
            rng.uniform(-bound, bound, size=(n_r, d)))
    # a copy of a trained transe state, with s identity matrices
    check_fits(init, graph)
    if init.variant != "transe":
        raise ConfigurationError("staged init must be a transe model, got "
                                 f"{init.variant!r}")
    if init.dim != d or init.rel_dim != k:
        raise ConfigurationError("staged init requires matching dimensions "
                                 f"(base {init.dim}, requested d={d} k={k})")
    return EmbeddingModel(config.dissimilarity, init.entity_vecs.copy(),
                          init.relation_vecs.copy(),
                          np.broadcast_to(np.eye(k, d), (s, n_r, k, d)).copy())


def _scatter_add(table: np.ndarray, ids: np.ndarray,
                 rows: np.ndarray) -> None:
    """``np.add.at(table, ids, rows)`` for a 2-D ``table``, run on its
    flat view with one element index ``id * k + column`` per value: the
    same element additions in the same order, so the same bits, on
    numpy's fast 1-D path. The rows go in order in chunks of at most
    ``_SCATTER_CHUNK`` elements (one row if a row is longer), so no
    index outgrows one chunk. ``table`` must be C-contiguous, so that
    the flat array is a view and not a copy."""
    if not table.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous")
    k = table.shape[1]
    flat, columns = table.reshape(-1), np.arange(k)
    step = max(1, _SCATTER_CHUNK // k)
    for lo in range(0, len(ids), step):
        # a temporary, so one chunk's index is freed before the next's
        np.add.at(flat, (ids[lo:lo + step, None] * k + columns).ravel(),
                  rows[lo:lo + step].ravel())


def _batch_update(model: EmbeddingModel, lr: float, triples: np.ndarray,
                  g: np.ndarray) -> None:
    """Apply one mini-batch of margin-violation gradient steps.

    ``triples`` is a (2m, 3) id array, the m violating positives and then
    their negatives, and ``g`` the norm gradients of their residuals with
    the negatives' half negated: one signed pass over sum f(pos) - f(neg).
    All gradients are evaluated at the batch-start parameters. Repeated
    ids accumulate in ``_scatter_add``, one step after another in the
    order the steps are listed: the relation steps in pair order; the
    heads of every row, then their tails; then relation by relation its
    head matrix and its tail matrix (transr's one matrix takes both).
    """
    m, n = len(triples) // 2, len(triples)
    _scatter_add(model.relation_vecs, triples[:m, 1], -lr * (g[:m] + g[m:]))
    # entities move after the loop, each matrix once it is read
    d_ent = np.empty((2 * n, model.dim))
    for rows, head, tail, mats in _relation_grads(model, triples, g):
        d_ent[:n][rows] = head
        d_ent[n:][rows] = tail
        for slot, relation, grad in mats:
            model.proj[slot, relation] -= lr * grad
    # scaled in place: the (2n, d) steps are the update's largest array
    d_ent *= -lr
    _scatter_add(model.entity_vecs,
                 np.concatenate([triples[:, 0], triples[:, 2]]), d_ent)


def _check_finite(model: EmbeddingModel, epoch: int) -> None:
    for name, arr in zip(("entity_vecs", "relation_vecs", "head_proj",
                          "tail_proj"), _param_arrays(model)):
        if not np.isfinite(arr).all():
            raise TrainingDivergedError(epoch, name)


def _snapshot(model: EmbeddingModel,
              snap: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """The parameters copied into the arrays of ``snap``, which are
    made on the first call: a refresh holds no second copy."""
    if snap is None:
        return [a.copy() for a in _param_arrays(model)]
    for dst, src in zip(snap, _param_arrays(model)):
        np.copyto(dst, src)
    return snap


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
    returned. A fixed seed makes the run bit-reproducible on any host
    as long as numpy's BLAS runs on one thread, as it does when drekge
    is imported before numpy: a threaded BLAS splits the projected
    variants' matrix gradients over the cores, and the split changes
    their rounding.
    """
    config.validate()
    if len(graph.train) == 0:
        raise ConfigurationError("training split is empty")
    rng = np.random.default_rng(config.seed)
    model = _init_model(graph, config, init, rng)
    # the model holds copies; a caller that passed the init as a
    # temporary no longer keeps it alive through training
    del init

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

            pairs = np.concatenate([pos, neg])
            u = _residuals(model, pairs)
            f = _norms(u, model.dissimilarity)
            viol = config.margin + f[:b] - f[b:]
            mask = viol > 0
            loss_sum += float(viol[mask].sum())
            if mask.any():
                both = np.concatenate([mask, mask])
                g = _norm_grad(u[both], model.dissimilarity)
                g[len(g) // 2:] *= -1     # the loss holds -f(neg)
                _batch_update(model, config.lr, pairs[both], g)

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
                best_params = _snapshot(model, best_params)
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
    if not len(model.proj):
        return ent[h] + rel[r] - ent[t]
    out = np.empty((len(triples), model.rel_dim))
    for relation, rows in _groups(r):
        out[rows] = (ent[h[rows]] @ model.proj[0, relation].T
                     + rel[relation]
                     - ent[t[rows]] @ model.proj[-1, relation].T)
    return out


# ---------------------------------------------------------------------------
# serialization
#
# Model files are an ASCII header line followed by raw little-endian
# float64 parameter rows and an 8-byte payload length footer:
#
#   DREKGE v1 <variant> <n_entities> <n_relations> <dim> <rel_dim> <dissim>\n
#   entity_vecs, relation_vecs, proj (its s matrices per relation, so the
#   header's variant gives s: none, head_proj, or head_proj and tail_proj)
#   <uint64 little-endian: payload byte count>
# ---------------------------------------------------------------------------


def _param_arrays(model: EmbeddingModel) -> list[np.ndarray]:
    """Every parameter array, in file order; ``proj`` as its s slots."""
    return [model.entity_vecs, model.relation_vecs, *model.proj]


def _model_chunks(model: EmbeddingModel):
    """The model file as buffers: header, parameter arrays, footer."""
    yield (f"{MODEL_MAGIC} {ARTIFACT_VERSION} {model.variant} "
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
    """The header fields and the body of an artifact file, accepted only
    in the form its writer prints: an ASCII line of ``n_fields`` fields
    joined by single spaces, the first ``magic`` and the second
    ``ARTIFACT_VERSION``, then the body. The fields in ``counts`` come
    back as ints; each must match ``_COUNT``. The body is a view of the
    bytes read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line")
    fields = raw[:nl].decode("ascii", errors="replace").split(" ")
    if len(fields) != n_fields or fields[0] != magic:
        raise FormatError(f"{path}: not a {magic} file")
    if fields[1] != ARTIFACT_VERSION:
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
    if min(n_e, n_r, d, k) < 1:
        raise FormatError(f"{path}: bad header counts")

    shapes = [(n_e, d), (n_r, k), (VARIANTS.index(variant), n_r, k, d)]
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

    flat = np.frombuffer(body, dtype="<f8", count=expected // 8)
    cuts = np.cumsum(sizes)[:-1]
    arrays = [part.astype(np.float64).reshape(shape)
              for part, shape in zip(np.split(flat, cuts), shapes)]
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise FormatError(f"{path}: non-finite parameter values")
    try:
        return EmbeddingModel(dissim, *arrays)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
