"""The repository benchmark: compile, run, train and serve.

Run from the repository root::

    python3 perfbench/run.py --workload taso-zoo --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
measured pass untraced, then with every layer entry point wrapped, then
untraced again, and reports per-layer calls and self time, the tracing
overhead and the reconciliation of self time with wall-clock; it also
writes a Chrome trace-event file under ``perfbench/out/``.  Only the
workload's own work is traced: its searches or requests, plus executing
the optimised graphs where that is part of the workload
(``TRACE_EXECUTION``); reference checks run after the tracing is undone.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``BENCHMARK.json`` for the
metrics and workloads.
"""

from __future__ import annotations

import os

# Pin BLAS threading before numpy is imported anywhere, so both sides of a
# comparison run the same kernels with the same thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
#: Largest share of the traced pass's wall-clock that the named layers'
#: self time may miss (benchmark glue and idle time count as missed).
RECONCILE_TOLERANCE = 0.05

WORKLOADS = {
    "taso-zoo": "taso_zoo",
    "xrlflow-transformer": "xrlflow_transformer",
    "service-mix": "service_mix",
}


def _fresh(workload, state, seed: int):
    """Close ``state`` and set the workload up again (untimed)."""
    if hasattr(workload, "close"):
        workload.close(state)
    return workload.setup(seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import common
    import layers
    from spans import Recorder

    spec = json.loads(BENCH.read_text())
    workload = importlib.import_module(WORKLOADS[args.workload])
    host = common.host_facts()
    failures = common.Failures()

    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(workload, "close"):
            workload.close(state)  # keep only the last repeat's state
        imported = common.import_seconds(workload.IMPORTS)
        started = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(imported + time.perf_counter() - started)

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host,
              "setup_s_samples": setup_times}
    if not args.trace:
        # ``PASSES`` measured passes, each on freshly set-up inputs;
        # ``search_s`` is their median.
        walls = []
        for index in range(workload.PASSES):
            if index:
                state = _fresh(workload, state, args.seed)
            out = workload.run_pass(state, failures)
            walls.append(out["wall_s"])
            if index:
                failures.check(out["signature"] == signature,
                               "two passes of one seed differ")
            signature = out["signature"]
        out["wall_s"] = statistics.median(walls)
        report["search_s_samples"] = walls
        execution = workload.execute(state, out, args.seed,
                                     time.perf_counter() + args.seconds,
                                     failures)
        done = workload.finish(state, out, execution, failures)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = dict(done["metrics"],
                      setup_s=statistics.median(setup_times),
                      peak_rss_mb=common.peak_rss_mb())
        counters = None
    else:
        # The same pass three times on freshly set-up inputs: untraced (it
        # carries the process's one-time warm-up), traced, and untraced
        # again as the overhead baseline.  All three must agree.
        first = workload.run_pass(state, failures)
        state = _fresh(workload, state, args.seed)
        rec = Recorder()
        layers.install(rec)
        execution = None
        try:
            traced_start = time.perf_counter()
            root = rec.open("bench")
            out = workload.run_pass(state, failures, rec)
            if workload.TRACE_EXECUTION:
                execution = workload.execute(
                    state, out, args.seed,
                    time.perf_counter() + args.seconds, failures)
            rec.close(root)
            wall_s = time.perf_counter() - traced_start
        finally:
            rec.restore()
        if execution is None:
            execution = workload.execute(
                state, out, args.seed, time.perf_counter() + args.seconds,
                failures)
        done = workload.finish(state, out, execution, failures, rec)
        state = _fresh(workload, state, args.seed)
        baseline = workload.run_pass(state, failures)
        failures.check(first["signature"] == out["signature"]
                       == baseline["signature"],
                       "traced and untraced passes of one seed differ")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, summary = layers.per_layer_metrics(
            rec, wall_s, baseline["wall_s"], out["wall_s"])
        failures.check(values["trace.reconcile_err"] <= RECONCILE_TOLERANCE,
                       "per-layer self time does not add up to wall-clock")
        counters = {name: values[name] for name in layers.DETERMINISTIC}
        summary["per_layer"] = values
        stem = f"{args.workload}-seed{args.seed}"
        rec.write_chrome_trace(common.OUT / f"trace-{stem}.json")
        common.write_json(common.OUT / f"layers-{stem}.json", summary)
        report["layers"] = summary
        report["end_to_end_traced"] = done["metrics"]

    for problem in common.repeat_check(args.workload, args.seed,
                                       out["signature"], counters):
        failures.check(False, problem)
    if hasattr(workload, "close"):
        workload.close(state)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    report.update(metrics=metrics, details=done["details"],
                  rows=done["rows"], failures=failures.reasons,
                  attempted=failures.attempted)
    common.write_json(
        common.OUT / f"result-{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json", report)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"host={json.dumps(host, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in done["details"].items():
        print(f"  ({name} {value:.6g})")
    failed_frac = failures.failed / max(1, failures.attempted)
    print(f"failed_frac {failed_frac:.4f} "
          f"({failures.failed} of {failures.attempted} operations)")
    for reason in failures.reasons[:20]:
        print(f"FAILED: {reason}")
    print("verdict:", "correct" if not failures.failed else "INCORRECT")
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
