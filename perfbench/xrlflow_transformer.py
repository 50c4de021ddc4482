"""xrlflow-transformer: train X-RLflow, then run its evaluation episodes.

``XRLflow.optimise`` on bert and vit with an ``XRLflowConfig.fast``-sized
config: 24 episodes of at most 6 steps, a PPO update every 6 episodes
(four per model), 3 evaluation episodes; the seed is
``XRLflowConfig.seed``.  An episode also ends when the policy picks No-Op,
which happens more or less often depending on the seed; the short horizon
keeps episode lengths, and so training time, from swinging with it.  The
optimised graphs are then executed and checked like taso-zoo's (outside
the traced run).  The per-decision and per-update times come from the
traced run's ``rl.act``, ``rl.step`` and ``rl.update`` spans.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from common import SHAPES, Failures, execute_and_check, geomean, timing
from spans import END, NAME, PARENT, START, Recorder

IMPORTS = ["repro.models", "repro.core.xrlflow", "repro.exec"]
MODELS = ["bert", "vit"]
CONFIG = {"num_episodes": 24, "max_steps": 6, "update_frequency": 6,
          "eval_episodes": 3}
TRACE_EXECUTION = False
#: Measured passes per run; ``search_s`` is their median.
PASSES = 1


def setup(seed: int) -> Dict[str, Any]:
    from repro.core.config import XRLflowConfig
    from repro.core.xrlflow import XRLflow
    from repro.models import build_model

    return {
        "graphs": {m: build_model(m, **SHAPES[m]) for m in MODELS},
        "agents": {m: XRLflow(XRLflowConfig.fast(**CONFIG, seed=seed))
                   for m in MODELS},
    }


def _in_training(span: list) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == "rl.train":
            return True
        parent = parent[PARENT]
    return False


def _durations(rec: Recorder, name: str) -> List[float]:
    """Seconds of each ``name`` span taken while training, in call order."""
    spans = sorted((s for s in rec.spans
                    if s[NAME] == name and _in_training(s)),
                   key=lambda s: s[START])
    return [(s[END] - s[START]) / 1e9 for s in spans]


def run_pass(state: Dict[str, Any], failures: Failures,
             rec=None) -> Dict[str, Any]:
    results = {}
    wall_s = 0.0
    for model, agent in state["agents"].items():
        if rec is not None:
            rec.set_rid(f"xrlflow:{model}")
        started = time.perf_counter()
        ok, result = failures.run(f"xrlflow:{model} optimise",
                                  agent.optimise, state["graphs"][model],
                                  model)
        wall_s += time.perf_counter() - started
        if ok:
            results[model] = result
    return {
        "wall_s": wall_s,
        "results": results,
        "signature": {model: [r.final_graph.structural_hash(),
                              r.applied_rules, repr(r.speedup)]
                      for model, r in sorted(results.items())},
    }


def execute(state: Dict[str, Any], out: Dict[str, Any], seed: int,
            deadline: float, failures: Failures) -> Dict[str, Any]:
    groups = [{"label": model, "batch": 1, "initial": state["graphs"][model],
               "optimised": {"xrlflow": (r.final_graph, r.applied_rules)}}
              for model, r in out["results"].items()]
    return execute_and_check(groups, seed, deadline, failures)


def finish(state: Dict[str, Any], out: Dict[str, Any],
           execution: Dict[str, Any], failures: Failures,
           rec: Optional[Recorder] = None) -> Dict[str, Any]:
    results = out["results"]
    train_s = sum(r.stats["train_time_s"] for r in results.values())
    eval_s = sum(r.optimisation_time_s for r in results.values())
    rows = [{"model": m, "nodes": r.initial_graph.num_nodes,
             "train_s": r.stats["train_time_s"],
             "eval_s": r.optimisation_time_s, "sim_speedup": r.speedup,
             "rules": len(r.applied_rules)} for m, r in results.items()]
    details = {"train_s": train_s, "eval_s": eval_s}
    if rec is not None:
        # Decision and update times come from the traced pass's spans.
        decisions = timing([a + s for a, s in zip(_durations(rec, "rl.act"),
                                                  _durations(rec, "rl.step"))],
                           1e3)
        updates = _durations(rec, "rl.update")
        details.update(rl_step_ms_p50=decisions["p50"],
                       rl_step_ms_p90=decisions["p90"],
                       rl_decisions=decisions["n"],
                       ppo_update_s=timing(updates)["p50"],
                       ppo_updates=len(updates))
    return {
        "metrics": {
            "search_s": out["wall_s"],
            "sim_speedup": geomean(r.speedup for r in results.values()),
            "exec_speedup": execution["exec_speedup"],
            "opt_exec_ms": execution["opt_exec_ms"],
        },
        "details": details,
        "rows": rows + execution["rows"],
    }
