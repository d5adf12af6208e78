"""Command line interface.

Four subcommands cover the pipeline: ``train`` fits an embedding model,
``fit-domains`` fits the per-relation ellipsoids over a trained model,
``evaluate`` runs link prediction (baseline, and side by side with the
domain penalty when a domain file is given), ``predict`` ranks
completions for one partial triple. Every score comes from the
``evaluation`` module, so ``evaluate`` and ``predict`` make the same
model-graph, domain-model and finiteness checks; this module resolves
labels, orders the results and writes them.

Option precedence is command line > config file (``--config``, JSON) >
built-in dataset presets > library defaults. Logs go to stderr; output
files are written atomically so failed runs leave nothing behind.

Exit codes: 0 success, 1 usage or configuration error, 2 broken input
data or artifact files, 3 numerical failure (diverged training or
domain fit, or a non-finite candidate score).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import data, domains, ellipsoid, evaluation, models
from .errors import ConfigurationError, DrekgeError, UnknownLabelError

log = logging.getLogger("drekge")

# the config file keys every subcommand reads: its triple files
_DATA_KEYS = ["train", "valid", "test"]

# best published configurations per dataset and variant
PRESETS = {
    ("wn18", "transe"): dict(dim=50, lr=0.001, margin=2.0, batch=120, dissim="l1"),
    ("fb15k", "transe"): dict(dim=50, lr=0.001, margin=1.0, batch=120, dissim="l1"),
    ("wn18", "transr"): dict(dim=50, lr=0.001, margin=4.0, batch=1440, dissim="l1"),
    ("fb15k", "transr"): dict(dim=50, lr=0.001, margin=1.0, batch=4800, dissim="l1"),
    ("wn18", "stranse"): dict(dim=50, lr=0.0005, margin=5.0, batch=120, dissim="l1"),
    ("fb15k", "stranse"): dict(dim=100, lr=0.0001, margin=1.0, batch=120, dissim="l1"),
}

# staged variants refine an existing model, so they get a shorter budget
DEFAULT_EPOCHS = {"transe": 1000, "transr": 500, "stranse": 500}

# per subcommand, its config file keys (the flags' dests) and the library
# parameter each sets; an option nobody sets keeps the library's default
_TRAIN_KEYS = {"dim": "dim", "rel_dim": "rel_dim", "lr": "lr",
               "margin": "margin", "batch": "batch_size",
               "dissim": "dissimilarity", "epochs": "epochs",
               "neg_sampling": "negative_sampling", "seed": "seed",
               "eval_every": "eval_every", "patience": "patience"}
_FIT_KEYS = {"fit_lr": "lr", "fit_epochs": "epochs",
             "fit_batch": "batch_size", "seed": "seed",
             "min_members": "min_members"}


class _UsageError(ConfigurationError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def config_value(self, key: str, value):
        """A config file value for ``key``, checked with the ``type`` and
        ``choices`` of the flag that sets it. The value must already be
        of the type that flag parses to (a number will do for a float),
        so ``"2"`` or ``1.5`` is no value for an int flag."""
        action = next(a for a in self._actions if a.dest == key)
        convert = action.type or str
        try:
            parsed = convert(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            parsed = None
        want = (int, float) if convert is float else type(parsed)
        if parsed is None or isinstance(value, bool) \
                or not isinstance(value, want) \
                or (action.choices is not None
                    and parsed not in action.choices):
            raise _UsageError(f"config file key {key!r}: invalid "
                              f"{action.option_strings[0]} value {value!r}")
        return parsed


@contextmanager
def _atomic_output(path: str):
    """Yield a temp path; move it into place only if the block succeeds."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _closest(label: str, labels: list[str], n: int = 5) -> list[str]:
    """The first ``n`` of ``labels`` in a stable sort by edit distance to
    ``label``, over code points. Every distance is computed, one DP per
    label length: row i holds, for each label of that length, the
    distances from the first i characters of ``label`` to its prefixes."""
    sizes = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
    starts = np.cumsum(sizes) - sizes
    points = np.frombuffer("".join(labels).encode("utf-32-le"), dtype="<u4")
    dist = np.empty(len(labels), dtype=np.int64)
    for size, rows in data._groups(sizes):
        j = np.arange(size + 1)
        known = points[starts[rows, None] + j[:-1]]
        row = np.tile(j, (len(rows), 1))
        for i, char in enumerate(label, 1):
            # substitution and deletion come from the previous row
            row[:, 1:] = np.minimum(row[:, :-1] + (known != ord(char)),
                                    row[:, 1:] + 1)
            row[:, 0] = i
            # insertion: cell j is the least cell j' <= j plus j - j'
            row = np.minimum.accumulate(row - j, axis=1) + j
        dist[rows] = row[:, -1]
    return [labels[i] for i in np.argsort(dist, kind="stable")[:n]]


def _resolve_label(label: str, vocab: data.Vocab, kind: str) -> int:
    idx = vocab.id(label)
    if idx is not None:
        return idx
    raise UnknownLabelError(label, kind, _closest(label, vocab.labels))


def _load_config_file(path: str, known: set[str]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must hold a JSON object")
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(
            f"unknown config file keys: {', '.join(sorted(unknown))}")
    return raw


def _resolve(args: argparse.Namespace, option_names: list[str],
             presets: dict | None = None) -> dict:
    """Merge flag values over config file values over preset values."""
    resolved = dict(presets or {})
    if getattr(args, "config", None):
        raw = _load_config_file(args.config, set(option_names))
        resolved.update({key: args.parser.config_value(key, value)
                         for key, value in raw.items()})
    for name in option_names:
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value
    return resolved


def _settings(opts: dict, keys: dict[str, str]) -> dict:
    """The library parameters of the resolved options in ``keys``."""
    return {keys[key]: value for key, value in opts.items() if key in keys}


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return value


def _load_graph(opts: dict) -> data.KnowledgeGraph:
    """The graph from the triple files that ``_resolve`` found."""
    for name in _DATA_KEYS:
        if opts.get(name) is None:
            raise _UsageError(f"--{name} is required")
    return data.load_graph(*(opts[name] for name in _DATA_KEYS))


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--train", help="training triple file (tsv)")
    parser.add_argument("--valid", help="validation triple file (tsv)")
    parser.add_argument("--test", help="test triple file (tsv)")
    parser.add_argument("--config", help="JSON file with option defaults")


def cmd_train(args: argparse.Namespace) -> int:
    # argparse admits only the datasets and variants PRESETS pairs
    presets = None if args.dataset is None \
        else PRESETS[args.dataset, args.variant]
    opts = _resolve(args, [*_DATA_KEYS, *_TRAIN_KEYS], presets)
    graph = _load_graph(opts)
    settings = _settings(opts, _TRAIN_KEYS)
    settings.setdefault("epochs", DEFAULT_EPOCHS[args.variant])
    config = models.TrainConfig(variant=args.variant,
                                normalize_entities=args.normalize_entities,
                                **settings)

    def on_epoch(epoch: int, mean_loss: float) -> None:
        log.info("epoch %d mean loss %.6f", epoch, mean_loss)

    validator = None
    if len(graph.valid) and config.eval_every > 0:
        def validator(model: models.EmbeddingModel) -> float:
            hits = evaluation.validation_hits10(graph, model)
            log.info("validation filtered hits@10 %.2f", hits)
            return hits

    log.info("training %s: %d entities, %d relations, %d triples",
             config.variant, graph.n_entities, graph.n_relations,
             len(graph.train))
    # the init goes in as a temporary, so that train can free it once
    # the new model holds its copies
    model = models.train(
        graph, config,
        models.load_model(args.init_model) if args.init_model else None,
        validator=validator, on_epoch=on_epoch)
    with _atomic_output(args.out) as tmp:
        models.save_model(model, tmp)
    log.info("wrote model to %s", args.out)
    return 0


def cmd_fit_domains(args: argparse.Namespace) -> int:
    opts = _resolve(args, [*_DATA_KEYS, *_FIT_KEYS])
    graph = _load_graph(opts)
    model = models.load_model(args.model)
    settings = _settings(opts, _FIT_KEYS)
    fit_args = {"min_members": settings.pop("min_members")} \
        if "min_members" in settings else {}

    def on_domain(relation, side, n_members, mean_score):
        if mean_score is None:
            log.info("domain r%d/%s: %d members, skipped", relation, side,
                     n_members)
        else:
            log.info("domain r%d/%s: %d members, mean fit score %.6f",
                     relation, side, n_members, mean_score)

    domain_model = domains.fit_all_domains(
        graph, model, ellipsoid.FitConfig(**settings), on_domain=on_domain,
        **fit_args)
    with _atomic_output(args.out) as tmp:
        domains.save_domains(domain_model, tmp)
    log.info("wrote %d ellipsoids (%d skipped) to %s",
             domain_model.n_fitted, len(domain_model.skipped), args.out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_graph(_resolve(args, _DATA_KEYS))
    model = models.load_model(args.model)

    domain_model = domains.load_domains(args.domains) if args.domains else None

    # one ranking pass; with domains the baseline rides along
    report = evaluation.evaluate(graph, model, domain_model,
                                 split=args.split, tie_break=args.tie_break)
    base = report if domain_model is None else report.baseline
    text = evaluation.format_report(base, title="baseline")
    if domain_model is not None:
        text += evaluation.format_report(report, title="with domain penalty")
        text += evaluation.format_comparison(base, report)
        rows = evaluation.comparison_rows(base, report)
        header = "setting,side,category,metric,baseline,with_domains,delta"
    else:
        rows = evaluation.csv_rows(base)
        header = "setting,side,category,metric,value"

    if args.report_out:
        with _atomic_output(args.report_out) as tmp:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
        log.info("wrote report to %s", args.report_out)
    else:
        sys.stdout.write(text)
    if args.csv_out:
        with _atomic_output(args.csv_out) as tmp:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(header + "\n")
                for row in rows:
                    fh.write(",".join(str(x) for x in row) + "\n")
        log.info("wrote csv to %s", args.csv_out)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    graph = _load_graph(_resolve(args, _DATA_KEYS))
    model = models.load_model(args.model)
    domain_model = domains.load_domains(args.domains) if args.domains else None

    relation = _resolve_label(args.relation, graph.relations, "relation")
    fixed = "head" if args.head is not None else "tail"
    anchor = {fixed: _resolve_label(getattr(args, fixed), graph.entities,
                                    "entity")}
    base, pens, combined = evaluation.score_query(graph, model, domain_model,
                                                  relation, **anchor)

    top = min(args.top, graph.n_entities)
    order = np.argsort(combined, kind="stable")[:top]
    labels = graph.entities.labels
    print("rank\tentity\tbaseline\tpenalty\tcombined\tdomain")
    for rank, ent in enumerate(order, start=1):
        pen = 0.0 if pens is None else float(pens[ent])
        flag = "-" if pens is None else ("in" if pen == 0.0 else "out")
        print(f"{rank}\t{labels[ent]}\t{base[ent]:.6f}"
              f"\t{pen:.6f}\t{combined[ent]:.6f}\t{flag}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="drekge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an embedding model")
    _add_data_args(p)
    p.add_argument("--variant", choices=models.VARIANTS, default="transe")
    p.add_argument("--dataset", choices=["wn18", "fb15k"], default=None,
                   help="apply the published configuration for this dataset")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--rel-dim", type=int, default=None, dest="rel_dim")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--dissim", choices=models.DISSIMILARITIES, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--neg-sampling", choices=["uniform", "bernoulli"],
                   default=None, dest="neg_sampling")
    p.add_argument("--normalize-entities", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=None, dest="eval_every")
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--init-model", default=None,
                   help="trained transe model to stage from (required for "
                        "transr/stranse)")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train, parser=p)

    p = sub.add_parser("fit-domains", help="fit per-relation domain ellipsoids")
    _add_data_args(p)
    p.add_argument("--model", required=True, help="trained embedding model")
    p.add_argument("--fit-lr", type=float, default=None, dest="fit_lr")
    p.add_argument("--fit-epochs", type=int, default=None, dest="fit_epochs")
    p.add_argument("--fit-batch", type=int, default=None, dest="fit_batch")
    p.add_argument("--min-members", type=int, default=None, dest="min_members")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output domain file")
    p.set_defaults(func=cmd_fit_domains, parser=p)

    p = sub.add_parser("evaluate", help="run link-prediction evaluation")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--domains", default=None,
                   help="domain file; adds a penalized run and deltas")
    p.add_argument("--split", choices=["test", "valid"], default="test")
    p.add_argument("--tie-break", choices=evaluation.TIE_BREAKS,
                   default="optimistic", dest="tie_break")
    p.add_argument("--report-out", default=None, dest="report_out")
    p.add_argument("--csv-out", default=None, dest="csv_out")
    p.set_defaults(func=cmd_evaluate, parser=p)

    p = sub.add_parser("predict", help="rank completions for a partial triple")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--domains", default=None)
    p.add_argument("--relation", required=True)
    anchor = p.add_mutually_exclusive_group(required=True)
    anchor.add_argument("--head", default=None)
    anchor.add_argument("--tail", default=None)
    p.add_argument("--top", type=_positive_int, default=10)
    p.set_defaults(func=cmd_predict, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow is reported once, by its NumericalError (exit 3)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (DrekgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _UsageError):
            parser.print_usage(sys.stderr)
        return exc.exit_code if isinstance(exc, DrekgeError) else 2


if __name__ == "__main__":
    sys.exit(main())
