"""The layer taxonomy: which public entry points the traced run wraps, and
how the recorder's spans and counters become the per-layer metrics.

Span names are ``<layer>.<boundary>``; every span gives ``<name>.calls``
and ``<name>.self_s``.  Module-level functions are patched in every module
that imported them by name, since patching the defining module alone would
miss those callers.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from spans import NAME, WAIT, Recorder

#: Spans whose calls/self_s are reported as per-layer metrics.
TIMED = [
    "ir.hash", "ir.copy", "ir.topo",
    "rules.match", "rules.materialise", "rules.dce",
    "cost.estimate", "cost.e2e",
    "search.egraph.explore", "search.egraph.extract",
    "exec.run", "exec.diff",
    "rl.encode", "rl.embed", "rl.act", "rl.step", "rl.update",
    "nn.backward", "nn.optim",
    "service.submit", "service.fingerprint", "service.cache.get",
    "service.cache.put", "service.lease.acquire",
]

#: Per-layer metrics that are not ``calls``/``self_s`` of a timed span,
#: with their units.
DERIVED = {
    "ir.hash.nodes": "count",
    "rules.candidates": "count",
    "cost.node.calls": "count",
    "cost.nodes_per_candidate": "ratio",
    "search.self_s": "s",
    "search.candidates": "count",
    "search.novel_ratio": "ratio",
    "exec.fallback_ops": "count",
    "rl.obs_cache.hit_ratio": "ratio",
    "service.cache.hit_ratio": "ratio",
    "service.cache.persistent_hits": "count",
    "service.queue.wait_s_p50": "s",
    "service.job.run_s": "s",
    "service.dedup.coalesced": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.reconcile_err": "ratio",
    "trace.unattributed_s": "s",
    "trace.idle_s": "s",
}

#: Span-name prefixes of the program's layers.  Self time of any other span
#: (the benchmark's own ``bench`` spans) is not attributed to a layer.
LAYERS = ("ir", "rules", "cost", "search", "exec", "rl", "nn", "service")

#: Work counters that must repeat exactly across two runs of one seed.
DETERMINISTIC = ["cost.node.calls", "ir.hash.calls",
                 "rules.materialise.calls", "search.candidates",
                 "rl.update.calls"]


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units: Dict[str, str] = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


# -- hooks run inside a span after the wrapped call returned -----------------

def _hash_nodes(rec: Recorder, args: tuple, _result: Any) -> None:
    rec.count("ir.hash.nodes", args[0].num_nodes)


def _candidates(rec: Recorder, _args: tuple, result: Any) -> None:
    # RuleSet.lazy_candidates can run inside the incremental engine's own
    # call; count candidates once, at the outermost matcher.
    if not any(span[NAME] == "rules.match" for span in rec.stack()[:-1]):
        rec.count("rules.candidates", len(result))


def _search_stats(rec: Recorder, _args: tuple, result: Any) -> None:
    stats = result.stats
    rec.count("search.candidates", stats.get("candidates_evaluated", 0.0))
    rec.count("search.graphs_seen", stats.get("graphs_seen", 0.0))


def _fallbacks(rec: Recorder, _args: tuple, report: Any) -> None:
    rec.count("exec.fallback_ops", sum(report.fallback_ops.values()))


def _env_created(rec: Recorder, args: tuple, _result: Any) -> None:
    # Kept so their observation-cache counters can be read at the end.
    rec.samples["rl.envs"].append(args[0])


def _job_rid(args: tuple) -> str:
    return args[0].label


def install(rec: Recorder) -> None:
    """Wrap every entry point of the layer taxonomy."""
    from repro.core.xrlflow import XRLflow
    from repro.cost.cost_model import CostModel
    from repro.cost.e2e import E2ESimulator
    from repro.exec import differential as exec_differential
    import repro.exec as exec_pkg
    from repro.exec.executor import NumpyExecutor
    from repro.ir.graph import Graph
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.rl.embed import IncrementalEmbedder
    from repro.rl.env import GraphRewriteEnv
    from repro.rl.features import FeatureCache
    from repro.rl.ppo import PPOUpdater, XRLflowAgent
    from repro.rules import base as rules_base
    from repro.rules import rulesets as rules_rulesets
    from repro.rules.base import Candidate, RuleSet
    from repro.rules.incremental import IncrementalCandidateEngine
    from repro.search import pet as search_pet
    from repro.search.egraph import GraphSpace
    from repro.search.greedy import TASOOptimizer
    from repro.search.tensat import TensatOptimizer
    from repro.service import api as service_api
    from repro.service import cache as service_cache
    from repro.service import worker as service_worker
    from repro.service.api import OptimisationService
    from repro.service.cache import FingerprintCache
    from repro.service.lease import LeaseManager

    w = rec.wrap
    # ir
    w(Graph, "structural_hash", "ir.hash", after=_hash_nodes)
    w(Graph, "copy", "ir.copy")
    w(Graph, "topological_order", "ir.topo")
    # rules
    w(IncrementalCandidateEngine, "lazy_candidates", "rules.match",
      after=_candidates)
    w(RuleSet, "lazy_candidates", "rules.match", after=_candidates)
    w(RuleSet, "all_candidates", "rules.match", after=_candidates)
    w(Candidate, "materialise", "rules.materialise")
    for module in (rules_base, rules_rulesets, search_pet):
        w(module, "eliminate_dead_nodes", "rules.dce")
    # cost
    for attr in ("estimate", "estimate_cached", "estimate_delta"):
        w(CostModel, attr, "cost.estimate")
    rec.wrap_count(CostModel, "node_cost_ms", "cost.node.calls")
    w(E2ESimulator, "latency_ms", "cost.e2e")
    # search (greedy and PET inherit TASOOptimizer.optimise)
    w(TASOOptimizer, "optimise", "search", after=_search_stats)
    w(TensatOptimizer, "optimise", "search")
    w(GraphSpace, "explore", "search.egraph.explore")
    w(GraphSpace, "extract", "search.egraph.extract")
    # exec: run() delegates to run_detailed(), which differential_check
    # also calls directly.
    w(NumpyExecutor, "run_detailed", "exec.run", after=_fallbacks)
    for module in (exec_differential, exec_pkg):
        w(module, "differential_check", "exec.diff")
    # rl / nn
    w(FeatureCache, "encode", "rl.encode")
    w(IncrementalEmbedder, "embed", "rl.embed")
    w(XRLflowAgent, "act", "rl.act")
    w(GraphRewriteEnv, "step", "rl.step")
    w(GraphRewriteEnv, "__init__", "rl.env_init", after=_env_created)
    w(PPOUpdater, "update", "rl.update")
    w(XRLflow, "train", "rl.train")
    w(XRLflow, "optimise", "rl.optimise")
    w(Tensor, "backward", "nn.backward")
    w(Adam, "step", "nn.optim")
    # service
    w(OptimisationService, "__init__", "service.start")
    w(OptimisationService, "close", "service.close")
    w(OptimisationService, "submit", "service.submit")
    w(OptimisationService, "result", "service.wait", kind=WAIT)
    for module in (service_worker, service_cache):
        w(module, "request_fingerprint", "service.fingerprint")
    w(FingerprintCache, "get", "service.cache.get")
    w(FingerprintCache, "put", "service.cache.put")
    w(LeaseManager, "acquire", "service.lease.acquire")
    w(service_api, "execute_request", "service.job", rid=_job_rid)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rec: Recorder, wall_s: float,
                      untraced_s: float, traced_s: float
                      ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metric values plus the full self-time summary.

    ``wall_s`` is the traced pass's wall-clock measured outside the
    recorder; ``untraced_s``/``traced_s`` are the wall-clocks of the same
    measured pass without and with tracing.
    """
    times = rec.self_times()
    self_s, calls = times["self_s"], times["calls"]
    counts = rec.counts
    values: Dict[str, float] = {}
    for name in TIMED:
        values[f"{name}.calls"] = float(calls.get(name, 0))
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    values["ir.hash.nodes"] = counts["ir.hash.nodes"]
    values["rules.candidates"] = counts["rules.candidates"]
    values["cost.node.calls"] = counts["cost.node.calls"]
    values["cost.nodes_per_candidate"] = _ratio(
        counts["cost.node.calls"], values["rules.materialise.calls"])
    values["search.self_s"] = self_s.get("search", 0.0)
    values["search.candidates"] = counts["search.candidates"]
    values["search.novel_ratio"] = _ratio(counts["search.graphs_seen"],
                                          counts["search.candidates"])
    values["exec.fallback_ops"] = counts["exec.fallback_ops"]

    hits = misses = 0.0
    for env in rec.samples.get("rl.envs", []):
        stats = env.encode_cache_stats()
        hits += stats.get("observation_hits", 0.0)
        misses += stats.get("observation_misses", 0.0)
    values["rl.obs_cache.hit_ratio"] = _ratio(hits, hits + misses)

    cache_hits = counts["service.cache.memory_hits"] + \
        counts["service.cache.persistent_hits"]
    values["service.cache.hit_ratio"] = _ratio(
        cache_hits, cache_hits + counts["service.cache.misses"])
    values["service.cache.persistent_hits"] = \
        counts["service.cache.persistent_hits"]
    waits: List[float] = rec.samples.get("service.queue_time_s", [])
    values["service.queue.wait_s_p50"] = \
        statistics.median(waits) if waits else 0.0
    values["service.job.run_s"] = counts["service.job.run_s"]
    values["service.dedup.coalesced"] = counts["service.dedup.coalesced"]

    # The layers' self times must add up to the wall-clock: the time in the
    # benchmark's own spans and idle time count against them.
    attributed = sum(v for k, v in self_s.items()
                     if k.split(".", 1)[0] in LAYERS)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = _ratio(traced_s - untraced_s, untraced_s)
    values["trace.reconcile_err"] = _ratio(abs(wall_s - attributed), wall_s)
    values["trace.unattributed_s"] = sum(self_s.values()) - attributed
    values["trace.idle_s"] = times["idle_s"]

    summary = {
        "wall_s": wall_s,
        "idle_s": times["idle_s"],
        "attributed_s": attributed,
        "self_s": self_s,
        "calls": calls,
        "counts": dict(counts),
        "spans": len(rec.spans),
    }
    return values, summary
