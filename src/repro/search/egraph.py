"""A bounded graph-space explorer standing in for Tensat's e-graph.

Tensat represents the space of equivalent graphs compactly in an e-graph and
extracts the cheapest representative.  A full congruence-closure e-graph over
our mutable dataflow IR is out of scope; instead :class:`GraphSpace` keeps an
explicit population of distinct (structurally hashed) graphs grown by rewrite
application rounds.  It preserves the *behavioural* properties Tensat's
evaluation depends on:

* exploration is bounded by a node budget and an iteration budget, so the
  space is usually **not** saturated (exactly as the paper reports for the
  real system),
* "multi-pattern" rules (the merge rules, which blow up the e-graph on
  transformer graphs) are only applied for the first ``multi_pattern_rounds``
  rounds, mirroring Tensat's ``k`` parameter,
* extraction picks the representative with the lowest cost-model estimate,
  because per-node cost extraction cannot use an end-to-end signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..cost.cost_model import CostModel
from ..ir.graph import Graph
from ..rules.base import RuleSet

__all__ = ["GraphSpace", "SaturationStats"]

#: Rule categories treated as "multi-pattern" (they match pairs of operators
#: and therefore grow the space combinatorially, like Tensat's multi-pattern
#: rewrites do for matrix multiplications).
MULTI_PATTERN_CATEGORIES = {"merge"}


@dataclass
class SaturationStats:
    """Diagnostics of one saturation run."""

    rounds: int = 0
    graphs_explored: int = 0
    total_nodes: int = 0
    saturated: bool = False
    node_budget_hit: bool = False
    applied_rules: Dict[str, int] = field(default_factory=dict)


class GraphSpace:
    """Bounded exploration of the rewrite closure of a graph."""

    def __init__(self, ruleset: RuleSet,
                 node_limit: int = 20000,
                 round_limit: int = 10,
                 multi_pattern_rounds: int = 1,
                 per_round_cap: int = 200):
        self.ruleset = ruleset
        self.node_limit = int(node_limit)
        self.round_limit = int(round_limit)
        self.multi_pattern_rounds = int(multi_pattern_rounds)
        self.per_round_cap = int(per_round_cap)

    # ------------------------------------------------------------------
    def explore(self, graph: Graph,
                on_round: Optional[Callable[
                    [int, List[Tuple[Graph, List[str]]]], None]] = None,
                ) -> Tuple[List[Tuple[Graph, List[str]]], SaturationStats]:
        """Grow the space from ``graph``.

        ``on_round(round_number, population)`` — when given — is invoked
        after every completed saturation round with the 1-based round
        number and the population grown so far; the Tensat optimiser uses
        it to stream per-round progress.

        Returns the population as ``(graph, applied-rule-names)`` pairs (the
        root graph is always first) plus run statistics.
        """
        stats = SaturationStats()
        population: List[Tuple[Graph, List[str]]] = [(graph, [])]
        hashes: Set[str] = {graph.structural_hash()}
        total_nodes = graph.num_nodes
        frontier = [0]  # indices into population

        for round_index in range(self.round_limit):
            stats.rounds = round_index + 1
            new_frontier: List[int] = []
            additions = 0
            allow_multi = round_index < self.multi_pattern_rounds
            for idx in frontier:
                current, applied = population[idx]
                rules = [rule for rule in self.ruleset
                         if allow_multi
                         or rule.category not in MULTI_PATTERN_CATEGORIES]
                for rule, cand_graph, h in self._evaluations(current, rules):
                    num_nodes = cand_graph.num_nodes
                    if h in hashes:
                        continue
                    if total_nodes + num_nodes > self.node_limit:
                        stats.node_budget_hit = True
                        break
                    if additions >= self.per_round_cap:
                        break
                    hashes.add(h)
                    population.append((cand_graph, applied + [rule.name]))
                    new_frontier.append(len(population) - 1)
                    total_nodes += num_nodes
                    additions += 1
                    stats.applied_rules[rule.name] = (
                        stats.applied_rules.get(rule.name, 0) + 1)
                if stats.node_budget_hit or additions >= self.per_round_cap:
                    break
            if on_round is not None:
                on_round(round_index + 1, population)
            if not new_frontier:
                stats.saturated = not stats.node_budget_hit
                break
            if stats.node_budget_hit:
                break
            frontier = new_frontier

        stats.graphs_explored = len(population)
        stats.total_nodes = total_nodes
        return population, stats

    def _evaluations(self, current: Graph, rules):
        """Yield ``(rule, graph, hash)`` for every rewrite candidate of
        ``current`` that applies, in enumeration order."""
        for rule in rules:
            for candidate in rule.lazy_candidates(current):
                cand_graph = candidate.materialise()
                if cand_graph is not None:
                    yield rule, cand_graph, cand_graph.structural_hash()

    # ------------------------------------------------------------------
    def extract(self, population: List[Tuple[Graph, List[str]]],
                cost_model: CostModel) -> Tuple[Graph, List[str], float]:
        """Pick the representative with the lowest cost-model estimate.

        Every population member descends from the root by graph copies, so
        the cached estimate only re-derives the nodes its rewrites touched
        (bit-for-bit equal to a full estimate).
        """
        best_graph, best_rules = population[0]
        best_cost = cost_model.estimate_cached(best_graph)
        for candidate, rules in population[1:]:
            cost = cost_model.estimate_cached(candidate)
            if cost < best_cost:
                best_graph, best_rules, best_cost = candidate, rules, cost
        return best_graph, best_rules, best_cost
