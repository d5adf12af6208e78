"""Run one drekge CLI stage in this process, as ``drekge`` would.

Usage: python3 worker.py PLAN.json

The plan names the source tree, the argv for ``drekge.cli.main``, the
stage name, whether to trace, and where to write results. The result
holds the exit code and this process's user plus system CPU time (all
threads) and peak RSS. With tracing on, every layer module is wrapped
before ``main`` runs and the spans are written when it returns.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import traceback


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from drekge import cli

    tracer = None
    if plan["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer(plan["id_base"])
        tracing.install(tracer)

    span = tracer.span(f"stage.{plan['stage']}") if tracer \
        else contextlib.nullcontext({})
    with span as fields:
        cpu0 = _cpu()
        try:
            rc = cli.main(plan["argv"])
        except Exception:   # a crash is a failed stage; keep its traceback
            traceback.print_exc()
            rc = -1
        fields["cpu_s"] = _cpu() - cpu0
    sys.stdout.flush()

    ru = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        with open(plan["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    tmp = plan["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "cpu_s": ru.ru_utime + ru.ru_stime,
                   "maxrss_kb": ru.ru_maxrss}, fh)
    os.replace(tmp, plan["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
