"""End-to-end and per-layer benchmark of the drekge CLI pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload wn18-transe --seed 1 --seconds 55 --trace 0

Generates the workload's seeded graph, then runs the user path
``train`` -> ``fit-domains`` -> ``evaluate --domains`` -> ``predict``,
each stage a fresh process calling ``drekge.cli.main`` (``worker.py``):
a closed loop with one client, each stage starting when the previous
one returns. Thread counts are the CLI's own defaults. Every output is
checked against an independent reference (``checks.py``).

``--trace 0`` reports the end-to-end metrics. It repeats the pipeline,
each time preceded by a fresh set-up process, at least twice and then
while another repetition still fits in ``--seconds``. A repetition runs
``predict`` for two seeded test queries of its own and must write the
same artifacts as the first. Each metric is the median over repetitions;
``predict_s`` is the median over every ``predict`` process.

``--trace 1`` runs the pipeline untraced, then again with every layer
module wrapped (``tracer.py``), and reports the per-layer metrics plus
the tracing overhead: traced ``pipeline_s`` minus untraced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the
package source next to this directory the script exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import checks      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

MIN_REPS = 2
MAX_REPS = 8
PROBES_PER_REP = 1
PREDICTS_PER_REP = 2
EVAL_SAMPLE = 12
TOP = 10
RUN_LIMIT_S = 170.0
THREADS_ENV = "DREKGE_THREADS"

# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def environment() -> tuple[dict, dict]:
    """(record, environment variables for the worker)."""
    nproc = len(os.sched_getaffinity(0))
    cpu_count = os.cpu_count() or 1
    env = dict(os.environ)
    pinned = cpu_count > nproc and THREADS_ENV not in env
    if pinned:
        env[THREADS_ENV] = str(nproc)
    forced = env.get(THREADS_ENV)
    pool = int(forced) if forced else cpu_count
    record = {
        "cpu_model": _cpu_model(), "nproc": nproc, "os_cpu_count": cpu_count,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(),
        f"{THREADS_ENV}_set_to_nproc": pinned,
        "stage_threads": {"train": int(forced) if forced else 1,
                          "fit_domains": pool, "evaluate": pool},
    }
    return record, env


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def stage_plan(workload, paths, out_dir: str, seed: int, queries):
    """[(stage, argv)] for one pipeline writing into ``out_dir``, with
    one ``predict`` per (head, relation) query."""
    data = ["--train", paths[0], "--valid", paths[1], "--test", paths[2]]
    stages = []
    model = ""
    for label, extra in workload.train:
        out = os.path.join(out_dir, f"{label}.bin")
        argv = [a.replace("{init}", model) for a in extra]
        stages.append(("train", ["train", *data, *argv, "--seed", str(seed),
                                 "--out", out]))
        model = out
    dom = os.path.join(out_dir, "domains.bin")
    stages.append(("fit_domains", [
        "fit-domains", *data, "--model", model,
        "--fit-epochs", str(workload.fit_epochs), "--seed", str(seed),
        "--out", dom]))
    stages.append(("evaluate", [
        "evaluate", *data, "--model", model, "--domains", dom,
        "--report-out", os.path.join(out_dir, "report.txt"),
        "--csv-out", os.path.join(out_dir, "metrics.csv")]))
    for head, relation in queries:
        stages.append(("predict", [
            "predict", *data, "--model", model, "--domains", dom,
            "--relation", relation, "--head", head, "--top", str(TOP)]))
    return stages


def run_stage(base: str, index: int, stage: str, argv, *, trace: bool,
              env: dict, limit: float) -> dict:
    """Run one CLI stage in a fresh worker process. Wall time is taken
    around the process, so it includes interpreter start and imports."""
    name = os.path.join(base, f"{index}-{stage}")
    plan = {"src": SRC, "argv": argv, "stage": stage, "trace": trace,
            "id_base": index * 10_000_000, "out": name + ".json",
            "spans_out": name + ".spans.json"}
    with open(name + ".plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    t0 = time.perf_counter()
    with open(name + ".out", "w", encoding="utf-8") as out, \
            open(name + ".log", "w", encoding="utf-8") as log:
        try:
            subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                            name + ".plan.json"], stdout=out, stderr=log,
                           env=env, cwd=ROOT, timeout=max(1.0, limit),
                           check=False)
        except subprocess.TimeoutExpired:
            print(f"{name} timed out", file=sys.stderr)
    wall = time.perf_counter() - t0
    try:
        with open(plan["out"], encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"rc": None, "cpu_s": 0.0, "maxrss_kb": 0}
    with open(name + ".out", encoding="utf-8") as fh:
        result.update(stage=stage, wall_s=wall, stdout=fh.read())
    if result["rc"] != 0:
        with open(name + ".log", encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
    if trace and os.path.exists(plan["spans_out"]):
        with open(plan["spans_out"], encoding="utf-8") as fh:
            result["spans"] = json.load(fh)
    return result


def run_pipeline(base: str, stages, *, trace: bool, env: dict,
                 deadline: float) -> dict:
    """Run the stages in order, each in its own process, until one fails."""
    ran = []
    for i, (stage, argv) in enumerate(stages):
        ran.append(run_stage(base, i, stage, argv, trace=trace, env=env,
                             limit=deadline - time.monotonic()))
        if ran[-1]["rc"] != 0:
            break
    return {"stages": ran,
            "spans": [s for r in ran for s in r.get("spans", [])]}


def setup_probe(paths, env: dict) -> float | None:
    """Seconds a fresh process takes to import drekge and load the graph."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), SRC, *paths],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
        check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def stage_totals(report: dict) -> dict:
    """Stage wall and CPU seconds, summed per stage name, and the peak
    RSS of the largest stage process."""
    out = {"peak_rss_mb": max((s["maxrss_kb"] for s in report["stages"]),
                              default=0) / 1024.0}
    for name in ("train", "fit_domains", "evaluate", "predict"):
        ran = [s for s in report["stages"] if s["stage"] == name]
        out[f"{name}_s"] = sum(s["wall_s"] for s in ran)
        out[f"{name}_cpu_s"] = sum(s["cpu_s"] for s in ran)
    return out


def end_to_end(reports: list[dict], setups: list[float]) -> dict:
    """Median over repetitions of each stage, and over every ``predict``
    process for one predict; the pipeline sums them."""
    def median(key):
        return statistics.median(stage_totals(r)[key] for r in reports)

    predicts = [s for r in reports for s in r["stages"]
                if s["stage"] == "predict"]

    def predict_median(key):
        return statistics.median(s[key] for s in predicts) if predicts \
            else 0.0

    metrics = {"setup_s": (statistics.median(setups) if setups else 0.0, "s")}
    for name in ("train", "fit_domains", "evaluate"):
        metrics[f"{name}_s"] = (median(f"{name}_s"), "s")
    metrics["predict_s"] = (predict_median("wall_s"), "s")
    stages = ("train", "fit_domains", "evaluate", "predict")
    metrics["pipeline_s"] = (sum(metrics[f"{n}_s"][0] for n in stages), "s")
    metrics["pipeline_cpu_s"] = (
        sum(median(f"{n}_cpu_s") for n in stages[:3])
        + predict_median("cpu_s"), "s")
    metrics["peak_rss_mb"] = (median("peak_rss_mb"), "MiB")
    return metrics


def pipeline_s(report: dict) -> float:
    totals = stage_totals(report)
    return sum(totals[f"{n}_s"]
               for n in ("train", "fit_domains", "evaluate", "predict"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def stage_checks(stages, report: dict) -> list[tuple[str, bool, str]]:
    """One operation per planned stage: it must exit 0."""
    ran = report["stages"]
    results = []
    for i, (_, argv) in enumerate(stages):
        rc = ran[i]["rc"] if i < len(ran) else None
        results.append((f"stage_{i}_{argv[0]}_exit_0", rc == 0, f"rc={rc}"))
    return results


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _argv(stages, name: str) -> list[str]:
    return next(argv for stage, argv in stages if stage == name)


def output_checks(drekge, workload, splits, stages, eval_sample
                  ) -> tuple[list[tuple[str, bool, str]], object, object]:
    """Artifact, CSV, report and evaluation checks on one pipeline's
    outputs; also returns the vocabulary and reference for predicts."""
    predict_argv, eval_argv = _argv(stages, "predict"), _argv(stages,
                                                             "evaluate")
    model_path = _arg(predict_argv, "--model")
    dom_path = _arg(predict_argv, "--domains")
    results = checks.check_artifacts(drekge, model_path, dom_path, splits[0])
    results += checks.check_csv(_arg(eval_argv, "--csv-out"),
                                workload.shape.n_entities)
    results.append(("report_written",
                    os.path.getsize(_arg(eval_argv, "--report-out")) > 0, ""))
    vocab = checks.ids(splits)
    ref = checks.Reference(drekge.models.load_model(model_path),
                           drekge.domains.load_domains(dom_path))
    results += checks.check_evaluation(drekge, splits, vocab, eval_sample, ref)
    return results, vocab, ref


def predict_checks(vocab, ref, stages, report) -> list[tuple[str, bool, str]]:
    return [checks.check_predict(vocab, ref, _arg(argv, "--head"),
                                 _arg(argv, "--relation"), ran["stdout"], TOP)
            for (stage, argv), ran in zip(stages, report["stages"])
            if stage == "predict"]


def same_outputs(name: str, a_dir: str, b_dir: str) -> tuple[str, bool, str]:
    """Two pipelines on the same inputs must write byte-identical
    models, domains, report and CSV."""
    differ = []
    for entry in sorted(os.listdir(a_dir)):
        if entry.endswith((".bin", ".csv", ".txt")):
            with open(os.path.join(a_dir, entry), "rb") as fa, \
                    open(os.path.join(b_dir, entry), "rb") as fb:
                if fa.read() != fb.read():
                    differ.append(entry)
    return (name, not differ, ", ".join(differ))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_failed_ratio {failed / attempted:.6g} fraction "
          f"({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "drekge", "__init__.py")):
        print(f"error: no drekge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import drekge

    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        record, env = environment()
        print("# env " + json.dumps(record, sort_keys=True))
        phases = {}
        mark = time.monotonic()
        splits, paths = workloads.write_workload(
            workload, args.seed, os.path.join(work, "data"))
        phases["generate"] = time.monotonic() - mark
        rng = np.random.default_rng([args.seed, 1])
        test = splits[2]
        queries = [test[i][:2] for i in rng.choice(
            len(test), size=MAX_REPS * PREDICTS_PER_REP, replace=False)]
        eval_sample = [test[i] for i in sorted(rng.choice(
            len(test), size=min(len(test), EVAL_SAMPLE), replace=False))]

        def pipeline(name, rep, trace=False):
            base = os.path.join(work, name)
            os.makedirs(base, exist_ok=True)
            stages = stage_plan(workload, paths, base, args.seed, queries[
                rep * PREDICTS_PER_REP:(rep + 1) * PREDICTS_PER_REP])
            report = run_pipeline(base, stages, trace=trace, env=env,
                                  deadline=started + RUN_LIMIT_S)
            return base, stages, report

        runs = []
        setups = []
        mark = time.monotonic()
        if args.trace == 0:
            while len(runs) < MAX_REPS:
                for _ in range(PROBES_PER_REP):
                    setup = setup_probe(paths, env)
                    if setup is not None:
                        setups.append(setup)
                rep_start = time.monotonic()
                runs.append(pipeline(f"rep{len(runs)}", len(runs)))
                now = time.monotonic()
                if len(runs) >= MIN_REPS and \
                        now - mark + (now - rep_start) > args.seconds:
                    break
        else:
            runs.append(pipeline("plain", 0))
            runs.append(pipeline("traced", 0, trace=True))
        phases["measure"] = time.monotonic() - mark

        mark = time.monotonic()
        results = [r for _, stages, report in runs
                   for r in stage_checks(stages, report)]
        if all(ok for _, ok, _ in results):
            first_dir, first_stages, _ = runs[-1 if args.trace else 0]
            found, vocab, ref = output_checks(drekge, workload, splits,
                                              first_stages, eval_sample)
            results += found
            for base, stages, report in runs:
                if base != first_dir:
                    results.append(same_outputs(
                        f"{os.path.basename(base)}_outputs_identical",
                        first_dir, base))
                if args.trace == 0 or base == first_dir:
                    results += predict_checks(vocab, ref, stages, report)
        phases["check"] = time.monotonic() - mark

        metrics: dict[str, tuple[float, str]] = {}
        if args.trace == 0:
            probes = PROBES_PER_REP * len(runs)
            results.append(("setup_probes_ran", len(setups) == probes,
                            f"{len(setups)} of {probes}"))
            metrics = end_to_end([report for _, _, report in runs], setups)
        else:
            plain, traced = runs[0][2], runs[1][2]
            spans = traced["spans"]
            metrics.update(tracer.per_layer(spans))
            metrics["trace.overhead_s"] = (pipeline_s(traced)
                                           - pipeline_s(plain), "s")
            metrics["trace.spans"] = (len(spans), "count")

        for base, _, report in runs:
            totals = stage_totals(report)
            print(f"# {os.path.basename(base)} " + " ".join(
                f"{k}={v:.3f}" for k, v in totals.items()))
        failed = [r for r in results if not r[1]]
        for name, ok, detail in failed:
            print(f"# check failed: {name} {detail}")
        print(f"# checks passed: {len(results) - len(failed)}"
              f"/{len(results)}, repetitions: {len(runs)}")
        phases["total"] = time.monotonic() - started
        print("# phase seconds " + json.dumps(
            {k: round(v, 2) for k, v in phases.items()}))
        _emit(not failed, len(results), len(failed), metrics)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
