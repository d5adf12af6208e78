"""In-memory span tracer for one drekge process, and the per-layer
metrics derived from its spans.

``install`` wraps every public function of the ``data``, ``models``,
``ellipsoid``, ``domains``, ``evaluation`` and ``cli`` modules in every
drekge module binding that refers to it (``drekge.models.score_all`` and
``drekge.evaluation.score_all`` get the same wrapper), plus
``EmbeddingModel.fingerprint``. ``models.train`` gets a wrapper that
chains its ``on_epoch`` hook and validator into epoch and validation
spans. Nothing in the package itself changes.

A span is ``[id, parent, name, thread, start, end, fields]``. Spans live
in a list until the process ends. The parent is the innermost open span
on the same thread; a span opened on a worker thread with nothing open
there is adopted by the innermost span open on the main thread, so the
fits a thread pool runs hang under the ``fit_all_domains`` call that
started the pool. A span's self time is its duration minus the union of
its children's intervals, whatever thread they ran on.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("data", "models", "ellipsoid", "domains", "evaluation", "cli")

ID, PARENT, NAME, THREAD, START, END, FIELDS = range(7)

REPORT_SPANS = {"evaluation.format_report", "evaluation.format_comparison",
                "evaluation.comparison_rows", "evaluation.csv_rows"}


class Tracer:
    """Spans of one process; ids start at ``id_base`` so that spans of
    several processes can be merged."""

    def __init__(self, id_base: int = 0):
        self.spans: list[list] = []
        self.clock = time.perf_counter
        self._ids = itertools.count(id_base)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _open(self, name: str, fields: dict | None = None) -> list:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else None
        if parent is None and tid != self._main:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        rec = [next(self._ids), parent, name, tid, self.clock(), None,
               fields if fields is not None else {}]
        stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = self.clock()
        self._stacks[rec[THREAD]].pop()
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, **fields):
        rec = self._open(name, fields)
        try:
            yield rec[FIELDS]
        finally:
            self._close(rec)

    def record(self, name: str, start: float, end: float, **fields) -> None:
        """Add a closed span under the current one (for hook-timed work)."""
        stack = self._stacks.get(threading.get_ident())
        parent = stack[-1] if stack else None
        self.spans.append([next(self._ids), parent, name,
                           threading.get_ident(), start, end, fields])

    def wrap(self, fn, name: str, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if describe is not None:
                rec[FIELDS].update(describe(args, kwargs, result))
            return result
        return traced


# fields recorded per call, computed after the span has ended
def _lines(args, kwargs, graph):
    return {"lines": len(graph.train) + len(graph.valid) + len(graph.test)}


def _fit_size(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        config = sys.modules["drekge.ellipsoid"].FitConfig()
    return {"points": len(args[0]), "epochs": config.epochs}


def _fit_all(args, kwargs, result):
    return {"threads": kwargs.get("threads", 1), "fitted": result.n_fitted,
            "skipped": len(result.skipped)}


def _penalties(args, kwargs, result):
    if result is None:
        return {"n": 0, "outside": 0}
    return {"n": int(result.size), "outside": int((result > 0).sum())}


def _evaluate(args, kwargs, result):
    return {"predictions": 2 * result.n_test}


DESCRIBE = {
    "data.load_graph": _lines,
    "ellipsoid.fit": _fit_size,
    "domains.fit_all_domains": _fit_all,
    "domains.penalties_all": _penalties,
    "evaluation.evaluate": _evaluate,
}


def _wrap_train(tracer: Tracer, train):
    """Span ``models.train``; time each epoch's SGD from the end of the
    previous epoch's hooks to its ``on_epoch`` call, and each validation
    through the validator it was given."""
    @functools.wraps(train)
    def traced(graph, config, *args, validator=None, on_epoch=None,
               **kwargs):
        with tracer.span("models.train", variant=config.variant):
            mark = [tracer.clock()]

            def epoch_hook(epoch, mean_loss):
                tracer.record("models.epoch", mark[0], tracer.clock(),
                              triples=len(graph.train))
                if on_epoch is not None:
                    on_epoch(epoch, mean_loss)
                mark[0] = tracer.clock()

            checked = None
            if validator is not None:
                inner = tracer.wrap(validator, "models.validation")

                def checked(model):
                    try:
                        return inner(model)
                    finally:
                        mark[0] = tracer.clock()

            return train(graph, config, *args, validator=checked,
                         on_epoch=epoch_hook, **kwargs)
    return traced


def install(tracer: Tracer, package: str = "drekge") -> None:
    """Wrap the public functions of every layer module in place."""
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    replace = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replace[fn] = _wrap_train(tracer, fn) if name == "models.train" \
                else tracer.wrap(fn, name, DESCRIBE.get(name))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replace:
                setattr(mod, attr, replace[value])
    model_cls = sys.modules[f"{package}.models"].EmbeddingModel
    model_cls.fingerprint = tracer.wrap(model_cls.fingerprint,
                                        "models.fingerprint")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        kids = [(max(lo, s[START]), min(hi, s[END]))
                for lo, hi in children.get(s[ID], ())]
        out[s[ID]] = (s[END] - s[START]) - _union([k for k in kids
                                                   if k[1] > k[0]])
    return out


def _stage_of(spans: list[list]) -> dict[int, str | None]:
    """Span id -> the CLI stage it ran in (its ``stage.*`` ancestor)."""
    by_id = {s[ID]: s for s in spans}

    def stage(s):
        while s is not None and not s[NAME].startswith("stage."):
            s = by_id.get(s[PARENT])
        return None if s is None else s[NAME][len("stage."):]

    return {s[ID]: stage(s) for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) from one traced pipeline's spans."""
    stage = _stage_of(spans)
    selfs = self_times(spans)

    def pick(name, in_stage=None):
        return [s for s in spans if s[NAME] == name
                and (in_stage is None or stage[s[ID]] == in_stage)]

    def dur(items):
        return sum(s[END] - s[START] for s in items)

    def total(name, field):
        return sum(s[FIELDS].get(field, 0) for s in pick(name))

    out: dict[str, tuple[float, str]] = {}

    # data
    loads = pick("data.load_graph")
    load_s = dur(loads)
    build_s = dur(pick("data.build_graph"))
    out["data.load_graph_calls"] = (len(loads), "count")
    out["data.load_graph_s"] = (load_s, "s")
    out["data.build_graph_s"] = (build_s, "s")
    out["data.parse_lines_per_s"] = (
        _ratio(total("data.load_graph", "lines"), load_s - build_s), "1/s")

    # models
    epochs = pick("models.epoch")
    epoch_s = dur(epochs)
    out["models.train_epoch_s"] = (epoch_s, "s")
    out["models.train_triples_per_s"] = (
        _ratio(total("models.epoch", "triples"), epoch_s), "1/s")
    for short in ("validation", "project_all", "score_all"):
        items = pick(f"models.{short}")
        out[f"models.{short}_calls"] = (len(items), "count")
        out[f"models.{short}_s"] = (dur(items), "s")
    for short in ("fingerprint", "save_model", "load_model"):
        out[f"models.{short}_s"] = (dur(pick(f"models.{short}")), "s")

    # ellipsoid
    fits = pick("ellipsoid.fit")
    fit_ms = [1e3 * (s[END] - s[START]) for s in fits]
    fit_s = dur(fits)
    out["ellipsoid.fit_calls"] = (len(fits), "count")
    out["ellipsoid.fit_s"] = (fit_s, "s")
    out["ellipsoid.fit_p50_ms"] = (statistics.median(fit_ms) if fits else 0.0,
                                   "ms")
    out["ellipsoid.fit_max_ms"] = (max(fit_ms, default=0.0), "ms")
    point_epochs = sum(s[FIELDS]["points"] * s[FIELDS]["epochs"]
                       for s in fits)
    out["ellipsoid.fit_point_epochs_per_s"] = (_ratio(point_epochs, fit_s),
                                               "1/s")
    scores_train = pick("ellipsoid.scores_train")
    out["ellipsoid.scores_train_calls"] = (len(scores_train), "count")
    out["ellipsoid.scores_train_s"] = (dur(scores_train), "s")
    out["ellipsoid.scores_test_s"] = (dur(pick("ellipsoid.scores_test")), "s")

    # domains
    fit_all = pick("domains.fit_all_domains")
    fit_all_s = dur(fit_all)
    threads = max((s[FIELDS]["threads"] for s in fit_all), default=1)
    out["domains.fit_all_s"] = (fit_all_s, "s")
    out["domains.fitted"] = (total("domains.fit_all_domains", "fitted"),
                             "count")
    out["domains.skipped"] = (total("domains.fit_all_domains", "skipped"),
                              "count")
    out["domains.fit_parallel_efficiency"] = (
        _ratio(fit_s, threads * fit_all_s), "ratio")
    pens = pick("domains.penalties_all")
    out["domains.penalties_all_calls"] = (len(pens), "count")
    out["domains.penalties_all_s"] = (dur(pens), "s")
    out["domains.penalty_outside_fraction"] = (
        _ratio(total("domains.penalties_all", "outside"),
               total("domains.penalties_all", "n")), "fraction")
    out["domains.save_s"] = (dur(pick("domains.save_domains")), "s")
    out["domains.load_s"] = (dur(pick("domains.load_domains")), "s")

    # evaluation, counted inside the evaluate stage only (validation
    # during training is reported under models.validation_*)
    evals = pick("evaluation.evaluate", "evaluate")
    eval_s = dur(evals)
    predictions = max((s[FIELDS].get("predictions", 0) for s in evals),
                      default=0)
    ranks = pick("evaluation.rank_of_gold", "evaluate")
    out["evaluation.evaluate_calls"] = (len(evals), "count")
    out["evaluation.evaluate_s"] = (eval_s, "s")
    out["evaluation.predictions"] = (predictions, "count")
    out["evaluation.predictions_per_s"] = (_ratio(predictions, eval_s), "1/s")
    out["evaluation.self_s"] = (sum(selfs[s[ID]] for s in evals), "s")
    out["evaluation.rank_of_gold_calls"] = (len(ranks), "count")
    out["evaluation.rank_of_gold_s"] = (dur(ranks), "s")
    out["evaluation.score_all_per_prediction"] = (
        _ratio(len(pick("models.score_all", "evaluate")), predictions),
        "ratio")
    by_id = {s[ID]: s for s in spans}
    report = [s for s in spans if s[NAME] in REPORT_SPANS
              and stage[s[ID]] == "evaluate"
              and by_id.get(s[PARENT], [None] * 3)[NAME] not in REPORT_SPANS]
    out["evaluation.report_s"] = (dur(report), "s")

    # cli: stage wall and CPU time, and what the CLI adds on its own
    for name in ("train", "fit_domains", "evaluate", "predict"):
        items = pick(f"stage.{name}")
        out[f"cli.{name}_s"] = (dur(items), "s")
        out[f"cli.{name}_cpu_s"] = (sum(s[FIELDS]["cpu_s"] for s in items),
                                    "s")
    out["cli.self_s"] = (sum(selfs[s[ID]] for s in spans
                             if s[NAME].startswith("cli.")), "s")
    return out
