"""Translation-based embedding models and their trainer.

Three variants share one score shape: project head and tail entities into
the relation's space, translate by the relation vector, and measure the
residual with an L1 or L2 norm. ``transe`` uses no projection, ``transr``
one shared projection matrix per relation, ``stranse`` separate head and
tail projections. Lower scores mean more plausible triples.

The projected variants are trained staged: their entity and relation
vectors start from an already trained ``transe`` model and the projection
matrices start at identity.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import HEAD, KnowledgeGraph, corrupt_head_probs
from .errors import ConfigurationError, FormatError, TrainingDivergedError

VARIANTS = ("transe", "transr", "stranse")
DISSIMILARITIES = ("l1", "l2")

MODEL_MAGIC = "DREKGE"
MODEL_VERSION = "v1"


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
        if self.lr <= 0 or self.margin <= 0:
            raise ConfigurationError("lr and margin must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.variant == "transe" and self.k != self.dim:
            raise ConfigurationError("transe has no projection; rel_dim "
                                     "must equal dim")


@dataclass
class EmbeddingModel:
    variant: str
    dissimilarity: str
    entity_vecs: np.ndarray            # (|E|, d)
    relation_vecs: np.ndarray          # (|R|, k)
    head_proj: np.ndarray | None = None  # (|R|, k, d); transr shares it for tails
    tail_proj: np.ndarray | None = None  # (|R|, k, d); stranse only
    _fingerprint: int | None = field(default=None, repr=False, compare=False)

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
            digest = hashlib.blake2b(model_bytes(self), digest_size=8)
            self._fingerprint = int.from_bytes(digest.digest(), "little")
        return self._fingerprint


def _projection(model: EmbeddingModel, relation: int, side: str) -> np.ndarray | None:
    if model.variant == "transe":
        return None
    if model.variant == "transr":
        return model.head_proj[relation]
    return model.head_proj[relation] if side == HEAD else model.tail_proj[relation]


def project_entity(model: EmbeddingModel, entity: int, relation: int,
                   side: str) -> np.ndarray:
    """Entity vector mapped into the relation's space for one slot."""
    vec = model.entity_vecs[entity]
    w = _projection(model, relation, side)
    return vec.copy() if w is None else w @ vec


def project_entities(model: EmbeddingModel, entities: np.ndarray,
                     relation: int, side: str) -> np.ndarray:
    """Selected entity vectors mapped into the relation's space for one
    slot: the rows are gathered first, then projected in one product."""
    vecs = model.entity_vecs[entities]
    w = _projection(model, relation, side)
    return vecs if w is None else vecs @ w.T


def project_all(model: EmbeddingModel, relation: int, side: str) -> np.ndarray:
    """All entity vectors mapped into the relation's space for one slot."""
    w = _projection(model, relation, side)
    return model.entity_vecs if w is None else model.entity_vecs @ w.T


def _norms(diff: np.ndarray, dissimilarity: str) -> np.ndarray:
    if dissimilarity == "l1":
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff ** 2).sum(axis=-1))


def score_triple(model: EmbeddingModel, triple: tuple[int, int, int]) -> float:
    h, r, t = triple
    u = (project_entity(model, h, r, HEAD) + model.relation_vecs[r]
         - project_entity(model, t, r, "tail"))
    return float(_norms(u, model.dissimilarity))


def score_all(model: EmbeddingModel, relation: int, *, head: int | None = None,
              tail: int | None = None,
              projected: np.ndarray | None = None) -> np.ndarray:
    """Scores with every entity substituted into the open slot.

    Exactly one of ``head`` and ``tail`` is fixed. ``projected`` lets a
    caller reuse ``project_all`` output for the open slot across many
    queries with the same relation.
    """
    if (head is None) == (tail is None):
        raise ConfigurationError("fix exactly one of head and tail")
    r_vec = model.relation_vecs[relation]
    if tail is None:
        cand = projected if projected is not None \
            else project_all(model, relation, "tail")
        target = project_entity(model, head, relation, HEAD) + r_vec
        diff = target[None, :] - cand
    else:
        cand = projected if projected is not None \
            else project_all(model, relation, HEAD)
        offset = r_vec - project_entity(model, tail, relation, "tail")
        diff = cand + offset[None, :]
    return _norms(diff, model.dissimilarity)


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


def score_gradients(model: EmbeddingModel, triple: tuple[int, int, int]) -> dict:
    """Analytic gradients of ``score_triple`` w.r.t. each parameter block.

    Returns a dict with ``head``, ``relation``, ``tail`` vectors and,
    for projected variants, ``head_proj`` / ``tail_proj`` matrices (the
    per-relation slices). Used to cross-check training updates against
    finite differences.
    """
    h, r, t = triple
    h_vec = model.entity_vecs[h]
    t_vec = model.entity_vecs[t]
    w1 = _projection(model, r, HEAD)
    w2 = _projection(model, r, "tail")
    u = ((h_vec if w1 is None else w1 @ h_vec) + model.relation_vecs[r]
         - (t_vec if w2 is None else w2 @ t_vec))
    g = _norm_grad(u, model.dissimilarity)
    grads = {
        "head": g if w1 is None else w1.T @ g,
        "relation": g.copy(),
        "tail": -g if w2 is None else -(w2.T @ g),
    }
    if model.variant == "transr":
        # one shared matrix touches both slots
        grads["head_proj"] = np.outer(g, h_vec - t_vec)
    elif model.variant == "stranse":
        grads["head_proj"] = np.outer(g, h_vec)
        grads["tail_proj"] = -np.outer(g, t_vec)
    return grads


def _init_model(graph: KnowledgeGraph, config: TrainConfig,
                init: EmbeddingModel | None, rng: np.random.Generator) -> EmbeddingModel:
    n_e, n_r = graph.n_entities, graph.n_relations
    d, k = config.dim, config.k
    if init is not None:
        if init.n_entities != n_e or init.n_relations != n_r:
            raise ConfigurationError("base model entity/relation counts do "
                                     "not match the graph")
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


def _batch_update(model: EmbeddingModel, lr: float,
                  pos: np.ndarray, neg: np.ndarray, g_pos: np.ndarray,
                  g_neg: np.ndarray) -> None:
    """Apply one mini-batch of margin-violation gradient steps.

    ``pos``/``neg`` are (B, 3) id arrays for the violating pairs and
    ``g_pos``/``g_neg`` the norm gradients of their residuals. All
    gradients are evaluated at the batch-start parameters; duplicate ids
    accumulate.
    """
    ent, rel = model.entity_vecs, model.relation_vecs
    hp, hn = pos[:, 0], neg[:, 0]
    r = pos[:, 1]
    tp, tn = pos[:, 2], neg[:, 2]

    np.add.at(rel, r, -lr * (g_pos - g_neg))

    if model.variant == "transe":
        np.add.at(ent, np.concatenate([hp, tp, hn, tn]),
                  np.concatenate([-lr * g_pos, lr * g_pos,
                                  lr * g_neg, -lr * g_neg]))
        return

    w1 = model.head_proj[r]
    w2 = w1 if model.variant == "transr" else model.tail_proj[r]
    h_pos, t_pos = ent[hp], ent[tp]
    h_neg, t_neg = ent[hn], ent[tn]

    back1_pos = np.einsum("bkd,bk->bd", w1, g_pos)
    back2_pos = np.einsum("bkd,bk->bd", w2, g_pos)
    back1_neg = np.einsum("bkd,bk->bd", w1, g_neg)
    back2_neg = np.einsum("bkd,bk->bd", w2, g_neg)
    np.add.at(ent, np.concatenate([hp, tp, hn, tn]),
              np.concatenate([-lr * back1_pos, lr * back2_pos,
                              lr * back1_neg, -lr * back2_neg]))

    if model.variant == "transr":
        d_pos = np.einsum("bk,bd->bkd", g_pos, h_pos - t_pos)
        d_neg = np.einsum("bk,bd->bkd", g_neg, h_neg - t_neg)
        np.add.at(model.head_proj, r, -lr * (d_pos - d_neg))
    else:
        np.add.at(model.head_proj, r,
                  -lr * (np.einsum("bk,bd->bkd", g_pos, h_pos)
                         - np.einsum("bk,bd->bkd", g_neg, h_neg)))
        np.add.at(model.tail_proj, r,
                  lr * (np.einsum("bk,bd->bkd", g_pos, t_pos)
                        - np.einsum("bk,bd->bkd", g_neg, t_neg)))


def _check_finite(model: EmbeddingModel, epoch: int) -> None:
    for name, arr in (("entity_vecs", model.entity_vecs),
                      ("relation_vecs", model.relation_vecs),
                      ("head_proj", model.head_proj),
                      ("tail_proj", model.tail_proj)):
        if arr is not None and not np.isfinite(arr).all():
            raise TrainingDivergedError(epoch, name)


def _snapshot(model: EmbeddingModel) -> list[np.ndarray]:
    return [a.copy() for a in (model.entity_vecs, model.relation_vecs,
                               model.head_proj, model.tail_proj)
            if a is not None]


def _restore(model: EmbeddingModel, snap: list[np.ndarray]) -> None:
    arrays = [a for a in (model.entity_vecs, model.relation_vecs,
                          model.head_proj, model.tail_proj) if a is not None]
    for dst, src in zip(arrays, snap):
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

    triples = np.asarray(graph.train, dtype=np.int64)
    n = len(triples)
    head_probs = None
    if config.negative_sampling == "bernoulli":
        head_probs = corrupt_head_probs(graph)

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
            if head_probs is None:
                corrupt_head = rng.random(b) < 0.5
            else:
                corrupt_head = rng.random(b) < head_probs[pos[:, 1]]
            repl = rng.integers(0, graph.n_entities, size=b)
            neg = pos.copy()
            neg[corrupt_head, 0] = repl[corrupt_head]
            neg[~corrupt_head, 2] = repl[~corrupt_head]

            u_pos = _residuals(model, pos)
            u_neg = _residuals(model, neg)
            f_pos = _norms(u_pos, model.dissimilarity)
            f_neg = _norms(u_neg, model.dissimilarity)
            viol = config.margin + f_pos - f_neg
            mask = viol > 0
            loss_sum += float(viol[mask].sum())
            if mask.any():
                _batch_update(model, config.lr, pos[mask], neg[mask],
                              _norm_grad(u_pos[mask], model.dissimilarity),
                              _norm_grad(u_neg[mask], model.dissimilarity))

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
    if model.variant == "transe":
        return ent[h] + rel[r] - ent[t]
    w1 = model.head_proj[r]
    w2 = w1 if model.variant == "transr" else model.tail_proj[r]
    return (np.einsum("bkd,bd->bk", w1, ent[h]) + rel[r]
            - np.einsum("bkd,bd->bk", w2, ent[t]))


# ---------------------------------------------------------------------------
# serialization
#
# Model files are an ASCII header line followed by raw little-endian
# float64 parameter rows and an 8-byte payload length footer:
#
#   DREKGE v1 <variant> <n_entities> <n_relations> <dim> <rel_dim> <dissim>\n
#   entity_vecs, relation_vecs, [head_proj], [tail_proj]
#   <uint64 little-endian: payload byte count>
# ---------------------------------------------------------------------------

def _param_arrays(model: EmbeddingModel) -> list[np.ndarray]:
    out = [model.entity_vecs, model.relation_vecs]
    if model.head_proj is not None:
        out.append(model.head_proj)
    if model.tail_proj is not None:
        out.append(model.tail_proj)
    return out


def model_bytes(model: EmbeddingModel) -> bytes:
    header = (f"{MODEL_MAGIC} {MODEL_VERSION} {model.variant} "
              f"{model.n_entities} {model.n_relations} "
              f"{model.dim} {model.rel_dim} {model.dissimilarity}\n")
    buf = io.BytesIO()
    buf.write(header.encode("ascii"))
    payload = 0
    for arr in _param_arrays(model):
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        payload += len(data)
        buf.write(data)
    buf.write(struct.pack("<Q", payload))
    return buf.getvalue()


def save_model(model: EmbeddingModel, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(model_bytes(model))


def load_model(path: str) -> EmbeddingModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line")
    fields = raw[:nl].decode("ascii", errors="replace").split(" ")
    if len(fields) != 8 or fields[0] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a {MODEL_MAGIC} model file")
    if fields[1] != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {fields[1]!r}")
    variant, dissim = fields[2], fields[7]
    if variant not in VARIANTS:
        raise FormatError(f"{path}: unknown variant {variant!r}")
    if dissim not in DISSIMILARITIES:
        raise FormatError(f"{path}: unknown dissimilarity {dissim!r}")
    try:
        n_e, n_r, d, k = (int(x) for x in fields[3:7])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header counts") from exc
    if min(n_e, n_r, d, k) < 1:
        raise FormatError(f"{path}: bad header counts")

    shapes = [(n_e, d), (n_r, k)]
    if variant in ("transr", "stranse"):
        shapes.append((n_r, k, d))
    if variant == "stranse":
        shapes.append((n_r, k, d))
    expected = sum(int(np.prod(s)) for s in shapes) * 8

    body = raw[nl + 1:]
    if len(body) != expected + 8:
        raise FormatError(f"{path}: payload is {len(body)} bytes, expected "
                          f"{expected + 8}")
    (footer,) = struct.unpack("<Q", body[expected:])
    if footer != expected:
        raise FormatError(f"{path}: payload length check failed "
                          f"({footer} != {expected})")

    arrays = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape)) * 8
        flat = np.frombuffer(body[offset:offset + size], dtype="<f8")
        arrays.append(flat.astype(np.float64).reshape(shape))
        offset += size
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise FormatError(f"{path}: non-finite parameter values")
    head_proj = arrays[2] if len(arrays) > 2 else None
    tail_proj = arrays[3] if len(arrays) > 3 else None
    return EmbeddingModel(variant, dissim, arrays[0], arrays[1],
                          head_proj, tail_proj)
