"""taso-zoo: compile-then-run of the paper's evaluation suite.

Each of the seven paper models plus resnet18 is optimised by TASO and by
Tensat with their registry default configs, one search after another.
Then every input graph and every optimised graph is executed warm under
``NumpyExecutor`` and checked with ``differential_check``.  The seed draws
each model's batch size and the differential inputs.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

from common import SHAPES, Failures, execute_and_check, geomean, timing

IMPORTS = ["repro.models", "repro.service.registry", "repro.exec"]
MODELS = ["inception_v3", "squeezenet", "resnext50", "bert", "dalle", "tt",
          "vit", "resnet18"]
OPTIMISERS = ["taso", "tensat"]
BATCHES = (1, 2)
#: Executing the optimised graphs is part of this workload, so the traced
#: run covers it.
TRACE_EXECUTION = True
#: Measured passes per run; ``search_s`` is their median.
PASSES = 1


def setup(seed: int) -> Dict[str, Any]:
    from repro.models import build_model
    from repro.service.registry import create_optimiser

    rng = random.Random(seed)
    batches = {m: rng.choice(BATCHES) for m in MODELS}
    return {
        "batches": batches,
        "graphs": {m: build_model(m, batch_size=batches[m], **SHAPES[m])
                   for m in MODELS},
        "optimisers": {(m, o): create_optimiser(o)
                       for m in MODELS for o in OPTIMISERS},
    }


def run_pass(state: Dict[str, Any], failures: Failures,
             rec=None) -> Dict[str, Any]:
    """One serial pass of all 16 searches; the time of every TASO queue
    pop is taken from the optimiser's per-iteration progress hook."""
    results = {}
    steps: List[float] = []
    wall_s = 0.0
    for model in MODELS:
        graph = state["graphs"][model]
        for name in OPTIMISERS:
            optimiser = state["optimisers"][(model, name)]
            marks: List[float] = []
            if name == "taso":
                optimiser.progress_callback = \
                    lambda *_: marks.append(time.perf_counter())
            if rec is not None:
                rec.set_rid(f"{name}:{model}")
            started = time.perf_counter()
            ok, result = failures.run(f"{name}:{model} optimise",
                                      optimiser.optimise, graph, model)
            marks.append(time.perf_counter())
            wall_s += marks[-1] - started
            steps.extend(b - a for a, b in zip(marks, marks[1:]))
            if ok:
                results[(model, name)] = result
    return {
        "wall_s": wall_s,
        "results": results,
        "steps": steps,
        "signature": {
            f"{name}:{model}": [r.final_graph.structural_hash(),
                                r.applied_rules, repr(r.speedup)]
            for (model, name), r in sorted(results.items())},
    }


def execute(state: Dict[str, Any], out: Dict[str, Any], seed: int,
            deadline: float, failures: Failures) -> Dict[str, Any]:
    results = out["results"]
    groups = []
    for model in MODELS:
        optimised = {name: (results[(model, name)].final_graph,
                            results[(model, name)].applied_rules)
                     for name in OPTIMISERS if (model, name) in results}
        groups.append({"label": model, "batch": state["batches"][model],
                       "initial": state["graphs"][model],
                       "optimised": optimised})
    return execute_and_check(groups, seed, deadline, failures)


def finish(state: Dict[str, Any], out: Dict[str, Any],
           execution: Dict[str, Any], failures: Failures,
           rec=None) -> Dict[str, Any]:
    results = out["results"]
    steps = timing(out["steps"], 1e3)
    rows = [{"model": m, "optimiser": o, "batch": state["batches"][m],
             "nodes": r.initial_graph.num_nodes,
             "search_s": r.optimisation_time_s, "sim_speedup": r.speedup,
             "rules": len(r.applied_rules)}
            for (m, o), r in sorted(results.items())]
    return {
        "metrics": {
            "search_s": out["wall_s"],
            "sim_speedup": geomean(r.speedup for r in results.values()),
            "exec_speedup": execution["exec_speedup"],
            "opt_exec_ms": execution["opt_exec_ms"],
        },
        "details": {"taso_step_ms_p50": steps["p50"],
                    "taso_step_ms_p90": steps["p90"],
                    "taso_steps": steps["n"],
                    "exec_pairs": execution["pairs"]},
        "rows": rows + execution["rows"],
    }
