"""service-mix: two closed-loop clients of ``OptimisationService.optimise``.

The service runs the default thread backend with two workers and a
persistent cache directory in a fresh temporary directory.  In each
phase, each client requests every (model, optimiser, small-budget config)
key once plus a seeded Zipf draw of repeats, in seeded order; each request
carries a freshly built graph, built during set-up, so hashing the request
fingerprint is not hidden by the per-object memo.

Phase A starts with an empty cache (misses, dedup attaches, memory hits,
disk publishes).  Phase B restarts the service on the same directory and
replays a new draw (persistent-tier reads, then memory hits).  Afterwards,
outside the traced run, every served key is searched once directly, and
each result's final graph hash must equal the direct one; one fixed key per
model is executed and checked.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, List

from common import (OUT, SHAPES, Failures, execute_and_check, geomean,
                    timing)
from spans import WAIT

IMPORTS = ["repro.models", "repro.service.api", "repro.exec"]
MODELS = ["squeezenet", "resnet18", "vit", "tt"]
BUDGETS = {
    "taso": [{"max_iterations": 3}, {"max_iterations": 6}],
    "greedy": [{"max_iterations": 3}, {"max_iterations": 6}],
    "tensat": [{"round_limit": 1}, {"round_limit": 2}],
}
#: Keys in Zipf rank order; the seed draws the request sequence.  Each
#: model's first key (``taso``, smallest budget) is the one executed.
KEYS = [(model, optimiser, budget)
        for budget in (0, 1) for optimiser in BUDGETS for model in MODELS]
EXECUTED = {model: next(k for k in KEYS if k[0] == model) for model in MODELS}
CLIENTS = 2
#: Zipf-drawn repeats per client on top of every key once.  The 24
#: searches (with their coalesced twins) are the slowest ~12% of requests,
#: so the time-to-result p90 sits at their fast end, and phase B's
#: uncontended memory hits are well over half, so p50 is one of those.
REPEATS = {"A": 4, "B": 70}
ZIPF_S = 1.0
TIMEOUT_S = 120.0
TRACE_EXECUTION = False
#: Measured passes per run; ``search_s`` is their median.  One pass
#: is short, so three steady it.
PASSES = 3


def _label(key) -> str:
    model, optimiser, budget = key
    return f"{optimiser}{budget}:{model}"


def _start(cache_dir: str):
    from repro.service.api import OptimisationService
    return OptimisationService(num_workers=2, cache_dir=cache_dir)


def setup(seed: int) -> Dict[str, Any]:
    from repro.models import build_model

    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(KEYS))]
    draws = {}
    for phase, repeats in REPEATS.items():
        # Each client asks for every key once per phase, so the searches
        # (phase A) and persistent reads (phase B) are the same set on
        # every seed, and the second client's ask is a coalesced follower
        # or a memory hit; the seed draws the repeats and the order.
        draws[phase] = []
        for _ in range(CLIENTS):
            keys = KEYS + rng.choices(KEYS, weights, k=repeats)
            rng.shuffle(keys)
            draws[phase].append(keys)
    # One fresh graph per request.
    graphs = {phase: [[build_model(key[0], **SHAPES[key[0]]) for key in keys]
                      for keys in clients]
              for phase, clients in draws.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=OUT)
    return {"draws": draws, "graphs": graphs, "cache_dir": cache_dir,
            "service": _start(cache_dir)}


def close(state: Dict[str, Any]) -> None:
    state["service"].close()
    shutil.rmtree(state["cache_dir"], ignore_errors=True)


def _phase(service, draws: List[list], graphs: List[list],
           failures: Failures, rec, records: List[dict], phase: str) -> float:
    lock = threading.Lock()

    def client(index: int, keys: list) -> None:
        span = rec.open("bench") if rec is not None else None
        for n, (key, graph) in enumerate(zip(keys, graphs[index])):
            model, optimiser, budget = key
            if rec is not None:
                rec.set_rid(f"{phase}{index}.{n}:{_label(key)}")
            started = time.perf_counter()
            ok, result = failures.run(
                f"{_label(key)} request", service.optimise, graph,
                optimiser, config=BUDGETS[optimiser][budget],
                model_name=model, timeout=TIMEOUT_S)
            ttr = time.perf_counter() - started
            if ok:
                with lock:
                    records.append({"phase": phase, "key": key, "ttr": ttr,
                                    "result": result})
        if span is not None:
            rec.close(span)

    threads = [threading.Thread(target=client, args=(i, keys))
               for i, keys in enumerate(draws)]
    started = time.perf_counter()
    waiting = rec.open("bench.join", WAIT) if rec is not None else None
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT_S * len(KEYS))
        failures.check(not thread.is_alive(), "client thread did not finish")
    if waiting is not None:
        rec.close(waiting)
    return time.perf_counter() - started


def run_pass(state: Dict[str, Any], failures: Failures,
             rec=None) -> Dict[str, Any]:
    records: List[dict] = []
    first = state["service"]
    wall_a = _phase(first, state["draws"]["A"], state["graphs"]["A"],
                    failures, rec, records, "A")
    first.close()
    state["service"] = second = _start(state["cache_dir"])
    wall_b = _phase(second, state["draws"]["B"], state["graphs"]["B"],
                    failures, rec, records, "B")
    stats = [first.stats(), second.stats()]
    if rec is not None:
        for name in ("memory_hits", "persistent_hits", "misses"):
            rec.count(f"service.cache.{name}",
                      sum(s["cache"][name] for s in stats))
        rec.count("service.dedup.coalesced",
                  sum(s["dedup"]["coalesced"] for s in stats))
        for record in records:
            result = record["result"]
            if not (result.cache_hit or result.coalesced):
                rec.sample("service.queue_time_s", result.queue_time_s)
                rec.count("service.job.run_s", result.run_time_s)
    served = {}
    for record in records:
        search = record["result"].search
        served.setdefault(record["key"], search)
    return {
        "wall_s": wall_a + wall_b,
        "records": records,
        "stats": stats,
        "signature": {_label(key): [s.final_graph.structural_hash(),
                                    s.applied_rules, repr(s.speedup)]
                      for key, s in sorted(served.items())},
    }


def execute(state: Dict[str, Any], out: Dict[str, Any], seed: int,
            deadline: float, failures: Failures) -> Dict[str, Any]:
    """Execute and check each model's fixed key (``EXECUTED``)."""
    from repro.models import build_model

    served = {r["key"]: r["result"].search for r in out["records"]}
    groups = []
    for model, key in EXECUTED.items():
        if failures.check(key in served, f"{_label(key)} was not served"):
            search = served[key]
            groups.append({"label": model, "batch": 1,
                           "initial": build_model(model, **SHAPES[model]),
                           "optimised": {_label(key): (search.final_graph,
                                                       search.applied_rules)},
                           "speedup": search.speedup})
    result = execute_and_check(groups, seed, deadline, failures)
    result["sim_speedup"] = geomean(g["speedup"] for g in groups)
    return result


def finish(state: Dict[str, Any], out: Dict[str, Any],
           execution: Dict[str, Any], failures: Failures,
           rec=None) -> Dict[str, Any]:
    from repro.models import build_model
    from repro.service.registry import create_optimiser

    records = out["records"]
    # Reference: every served key searched once, directly.
    direct = {}
    keys = sorted({r["key"] for r in records})
    for key in keys:
        model, optimiser, budget = key
        ok, result = failures.run(
            f"{_label(key)} direct",
            create_optimiser(optimiser, **BUDGETS[optimiser][budget]).optimise,
            build_model(model, **SHAPES[model]), model)
        if ok:
            direct[key] = result
    for record in records:
        expected = direct.get(record["key"])
        got = record["result"].search.final_graph.structural_hash()
        failures.check(
            expected is not None
            and got == expected.final_graph.structural_hash(),
            f"{_label(record['key'])} served hash differs from direct search")

    ttr = timing([r["ttr"] for r in records], 1e3)
    stats = out["stats"]
    return {
        "metrics": {
            "search_s": out["wall_s"],
            "sim_speedup": execution["sim_speedup"],
            "exec_speedup": execution["exec_speedup"],
            "opt_exec_ms": execution["opt_exec_ms"],
        },
        "details": {
            "ttr_ms_p50": ttr["p50"],
            "ttr_ms_p90": ttr["p90"],
            "requests": ttr["n"],
            "requests_per_s": ttr["n"] / out["wall_s"],
            "distinct_keys": len(keys),
            "searches": sum(not (r["result"].cache_hit
                                 or r["result"].coalesced)
                            for r in records),
            "coalesced": sum(s["dedup"]["coalesced"] for s in stats),
            "persistent_hits": sum(s["cache"]["persistent_hits"]
                                   for s in stats),
        },
        "rows": [{"phase": r["phase"], "key": _label(r["key"]),
                  "ttr_ms": r["ttr"] * 1e3,
                  "cache_hit": r["result"].cache_hit,
                  "coalesced": r["result"].coalesced} for r in records]
        + execution["rows"],
    }
