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

In memory a ``DomainModel`` holds the records of its file, and this is
the only module that knows their layout:

    DREDOM v1 <rel_dim> <n_fitted> <n_skipped> <fingerprint hex16>\\n
    per fitted domain, in ascending slot code 2 * relation + side flag:
      int64 relation, int64 side flag (0 head / 1 tail),
      center (k float64), packed lower triangle (k(k+1)/2 float64)
    per skipped domain, in the same order: int64 relation, int64 side flag
    all numbers little-endian

A load accepts only this form, so a loaded ``DomainModel`` is a
read-only view of its file and saves back to the same bytes.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import HEAD, SIDES, TAIL, KnowledgeGraph, _groups, _index
from .ellipsoid import (Ellipsoid, FitConfig, fit_stack, scores_test,
                        scores_train_stack)
from .errors import (ConfigurationError, FormatError, NumericalError,
                     StaleDomainModelError)
from .models import (ARTIFACT_VERSION, EmbeddingModel, _id, check_fits,
                     project_all, project_slots, read_artifact)

DOMAIN_MAGIC = "DREDOM"

MIN_MEMBERS = 2

# most bytes in each of one stack's arrays: its (G, m, d) member vectors
# and (G, k, d) projection matrices, its (G, m, k) member clouds, and its
# (G, k, k) factors and their one gradient together. The fit's per-step
# temporaries have those shapes, so capping G keeps a fit's memory flat
# however many domains share a member count
STACK_BYTES = 4 << 20

_SIDE_FLAGS = {HEAD: 0, TAIL: 1}

_FINGERPRINT = re.compile("[0-9a-f]{16}")
_SLOT = np.dtype([("relation", "<i8"), ("flag", "<i8")])


def _fitted_record(k: int) -> np.dtype:
    return np.dtype([*_SLOT.descr, ("center", "<f8", (k,)),
                     ("tril", "<f8", (k * (k + 1) // 2,))])


def _codes(relation: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """The slot codes 2 * relation + side flag, unsigned, so that no
    non-negative relation id wraps and codes sort as (relation, flag)
    pairs do."""
    return 2 * relation.astype(np.uint64) + flag.astype(np.uint64)


class _Ellipsoids(Mapping):
    """Read-only map from (relation, side) to the ellipsoid of a fitted
    record, found by binary search on the sorted slot codes. Each access
    expands the record into a fresh center and a fresh C-ordered (k, k)
    factor."""

    def __init__(self, fitted: np.ndarray, k: int):
        self._fitted = fitted
        self._codes = _codes(fitted["relation"], fitted["flag"])
        self._k = k
        # with no records, a header's k may be too large to index
        self._tril = np.tril_indices(k) if len(fitted) else None

    def __getitem__(self, key) -> Ellipsoid:
        try:
            relation, side = key
            code = 2 * operator.index(relation) + _SIDE_FLAGS[side]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        codes = self._codes
        i = int(codes.searchsorted(code)) if 0 <= code < 2 ** 64 \
            else len(codes)
        if i == len(codes) or codes[i] != code:
            raise KeyError(key)
        record = self._fitted[i]
        factor = np.zeros((self._k, self._k))
        factor[self._tril] = record["tril"]
        return Ellipsoid(record["center"].copy(), factor)

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        return ((code >> 1, SIDES[code & 1]) for code in self._codes.tolist())


@dataclass(frozen=True, eq=False)
class DomainModel:
    """The records of a domain file: ``fitted`` (relation, flag, center,
    packed lower-triangular factor) and ``skipped`` (relation, flag),
    each sorted by slot code, with no negative relation id; a model is
    checked for this when it is built, and its records are read-only
    from then on. Compared by identity: record arrays have no single
    truth value."""

    rel_dim: int
    model_fingerprint: int
    fitted: np.ndarray
    skipped: np.ndarray

    def __post_init__(self) -> None:
        """Refuse records that a lookup would miss or misread: bad slots,
        non-finite or non-positive-diagonal ellipsoids, repeats, disorder."""
        fitted, skipped, k = self.fitted, self.skipped, self.rel_dim
        if fitted.dtype["center"].shape != (k,) \
                or fitted.dtype["tril"].shape != (k * (k + 1) // 2,):
            raise FormatError(f"domain records are not of dimension {k}")
        relation = np.concatenate([fitted["relation"], skipped["relation"]])
        flag = np.concatenate([fitted["flag"], skipped["flag"]])
        bad = np.flatnonzero((relation < 0) | ((flag != 0) & (flag != 1)))
        if bad.size:
            raise FormatError(f"bad domain slot: relation "
                              f"{relation[bad[0]]}, side flag "
                              f"{flag[bad[0]]}")
        # the first bad record decides the message, checked in the order
        # finiteness, diagonal sign
        diag = fitted["tril"][:, np.cumsum(np.arange(1, k + 1)) - 1]
        non_finite = ~(np.isfinite(fitted["center"]).all(axis=1)
                       & np.isfinite(fitted["tril"]).all(axis=1))
        bad = np.flatnonzero(non_finite | (diag <= 0).any(axis=1))
        if bad.size:
            raise FormatError("non-finite ellipsoid values"
                              if non_finite[bad[0]] else
                              "factor diagonal must be positive")
        codes = _codes(relation, flag)
        lists = codes[:len(fitted)], codes[len(fitted):]
        # a repeat next to itself, or a skipped slot that is also fitted,
        # is named before any order is checked
        twice = np.concatenate([part[1:][part[1:] == part[:-1]]
                                for part in lists]
                               + [lists[1][np.isin(lists[1], lists[0])]])
        if twice.size:
            code = int(twice[0])
            raise FormatError(f"domain r{code >> 1}/{SIDES[code & 1]} "
                              f"is listed twice")
        if any((part[1:] < part[:-1]).any() for part in lists):
            raise FormatError("domain records are not in ascending slot "
                              "order")
        # checked records stay as checked: lookups cache their slot codes
        fitted.flags.writeable = skipped.flags.writeable = False

    @property
    def n_fitted(self) -> int:
        return len(self.fitted)

    @cached_property
    def ellipsoids(self) -> Mapping[tuple[int, str], Ellipsoid]:
        return _Ellipsoids(self.fitted, self.rel_dim)


def check_compatible(domain_model: DomainModel, model: EmbeddingModel) -> None:
    """Stale ellipsoids (fingerprint mismatch) or a domain file whose
    size or relation ids cannot belong to ``model`` are refused. Records
    are sorted by slot code, so the first and last hold the least and
    greatest relation ids."""
    if domain_model.model_fingerprint != model.fingerprint():
        raise StaleDomainModelError(
            "domain ellipsoids were fitted against a different embedding "
            "model (fingerprint mismatch); refit them")
    if domain_model.rel_dim != model.rel_dim:
        raise FormatError(f"domain ellipsoids have dimension "
                          f"{domain_model.rel_dim}, the model {model.rel_dim}")
    for slots in (domain_model.fitted, domain_model.skipped):
        if len(slots) and not (0 <= slots["relation"][0]
                               and slots["relation"][-1] < model.n_relations):
            raise FormatError(f"domain relation id outside the model's "
                              f"{model.n_relations} relations")


def _domain_seed(base: int, relation: int, flag: int) -> int:
    # independent, scheduling-order-free stream per domain
    return int(np.random.SeedSequence((base, relation, flag)).generate_state(1)[0])


def slot_members(graph: KnowledgeGraph
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training domains as ``(codes, starts, members)``: the
    ascending slot codes 2 * relation + side flag of every slot seen in
    training, and every slot's members as sorted distinct int64 entity
    ids in one array, those of the i-th slot at
    ``members[starts[i]:starts[i + 1]]``, so ``np.diff(starts)`` is
    each slot's member count. One sort of the (slot, entity) codes lays
    every slot's members out in turn.

    Only the training split contributes; held-out triples must not leak
    into the regions the ellipsoids are fitted on.
    """
    h, r, t = graph.train.T
    return _index(np.concatenate([2 * r, 2 * r + 1]), np.concatenate([h, t]),
                  graph.n_entities)


def fit_all_domains(graph: KnowledgeGraph, model: EmbeddingModel,
                    config: FitConfig | None = None,
                    min_members: int = MIN_MEMBERS,
                    on_domain=None) -> DomainModel:
    """Fit ellipsoids for every training domain with enough members.

    The paper fits each domain on its own, so all domains with the same
    member count are fitted together, one size at a time, in stacks of
    at most ``STACK_BYTES`` of gathered member vectors and matrices, of
    member clouds, and of factors with their step's gradient product;
    each still draws its batches from its own seed and ends exactly as
    a lone ``fit`` of its projected members would. Each stack's centers and
    factor triangles are packed straight into the fitted records. After
    the fits, ``on_domain(relation, side, n_members, mean_score)`` is
    called once per domain in (relation, side) order, with the mean
    training score of its members at the fitted surface, or None when it
    was skipped. A fit that ends with a non-finite center or factor (a
    learning rate that overflows) raises NumericalError naming the first
    such domain found.
    """
    config = config or FitConfig()
    config.validate()
    if min_members < 0:
        raise ConfigurationError("min_members must be >= 0")
    check_fits(model, graph)
    codes, starts, members = slot_members(graph)
    slots = np.zeros(len(codes), dtype=_SLOT)
    slots["relation"], slots["flag"] = np.divmod(codes, 2)
    sizes = np.diff(starts)
    is_fitted = sizes >= min_members
    kept = np.flatnonzero(is_fitted)
    k, d = model.rel_dim, model.dim
    fitted = np.zeros(len(kept), dtype=_fitted_record(k))
    fitted[["relation", "flag"]] = slots[kept]

    tril = np.tril_indices(k)
    means = np.empty(len(fitted))
    # member counts in the order of their first slot, so the first
    # slot's fit runs, and is checked, first
    for size, group in sorted(_groups(sizes[kept]), key=lambda g: g[1][0]):
        # a domain's (k, k) factor and the (k + 1, k) product its step
        # makes count 2k + 1 rows of k
        cap = max(1, STACK_BYTES // (8 * max(k, d)
                                     * max(2 * k + 1, size)))
        for lo in range(0, len(group), cap):
            rows = group[lo:lo + cap]
            relations = fitted["relation"][rows].tolist()
            flags = fitted["flag"][rows].tolist()
            points = project_slots(
                model, members[starts[kept[rows], None] + np.arange(size)],
                fitted["relation"][rows], [SIDES[f] for f in flags])
            seeds = [_domain_seed(config.seed, r, f)
                     for r, f in zip(relations, flags)]
            centers, factors = fit_stack(points, config, seeds)
            diverged = np.flatnonzero(
                ~(np.isfinite(centers).all(axis=1)
                  & np.isfinite(factors).all(axis=(1, 2))))
            if diverged.size:
                i = diverged[0]
                raise NumericalError(
                    f"domain r{relations[i]}/{SIDES[flags[i]]}: fit "
                    f"diverged (non-finite center or factor)")
            means[rows] = scores_train_stack(centers, factors,
                                             points).mean(axis=1)
            fitted["center"][rows] = centers
            fitted["tril"][rows] = factors[:, tril[0], tril[1]]

    if on_domain is not None:
        scores = iter(means.tolist())
        for (relation, flag), size, fit in zip(
                slots.tolist(), sizes.tolist(), is_fitted.tolist()):
            on_domain(relation, SIDES[flag], size,
                      next(scores) if fit else None)
    return DomainModel(k, model.fingerprint(), fitted, slots[~is_fitted])


def penalties_all(domain_model: DomainModel, model: EmbeddingModel,
                  relation: int, side: str,
                  projected: np.ndarray | None = None) -> np.ndarray | None:
    """Out-of-domain penalties for every entity in one slot of a
    relation: zero anywhere inside the domain surface, the radial
    distance outside. None when the slot has no ellipsoid (it was skipped
    or never observed in training), so callers can skip the addition. A
    relation id that is not an integer or is outside the model is
    refused, as ``project_all`` refuses it."""
    check_compatible(domain_model, model)
    if side not in SIDES:
        raise ConfigurationError(f"unknown side {side!r}")
    relation = _id(relation, model.n_relations, "relation")
    ell = domain_model.ellipsoids.get((relation, side))
    if ell is None:
        return None
    if projected is None:
        projected = project_all(model, relation, side)
    return scores_test(ell, projected)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_domains(domain_model: DomainModel, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{DOMAIN_MAGIC} {ARTIFACT_VERSION} {domain_model.rel_dim} "
                 f"{domain_model.n_fitted} {len(domain_model.skipped)} "
                 f"{domain_model.model_fingerprint:016x}\n".encode("ascii"))
        fh.write(domain_model.fitted)
        fh.write(domain_model.skipped)


def load_domains(path: str) -> DomainModel:
    (_, _, k, n_fitted, n_skipped, fingerprint), body = read_artifact(
        path, DOMAIN_MAGIC, 6, slice(2, 5))
    # int(x, 16) alone would also take a sign, underscores, spaces and
    # upper case
    if not _FINGERPRINT.fullmatch(fingerprint):
        raise FormatError(f"{path}: fingerprint must be 16 hex digits, "
                          f"in lower case")
    if k < 1:
        raise FormatError(f"{path}: bad header counts")

    # sized in Python ints before any dtype is built: a huge k would
    # not fit a dtype's shape
    record_size = _SLOT.itemsize + 8 * (k + k * (k + 1) // 2)
    expected = n_fitted * record_size + n_skipped * _SLOT.itemsize
    if len(body) != expected:
        raise FormatError(f"{path}: body is {len(body)} bytes, expected "
                          f"{expected}")
    try:
        record = _fitted_record(k)
    except ValueError:
        # a file with no fitted records can pass the length check with
        # any k
        raise FormatError(f"{path}: dimension {k} is too large for a "
                          f"domain record") from None
    fitted = np.frombuffer(body, dtype=record, count=n_fitted)
    skipped = np.frombuffer(body, dtype=_SLOT, count=n_skipped,
                            offset=n_fitted * record_size)
    try:
        return DomainModel(k, int(fingerprint, 16), fitted, skipped)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
