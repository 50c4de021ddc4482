"""Helpers shared by the workloads: statistics, host facts, set-up timing,
executed-latency measurement with differential checks, and the same-seed
repeat check."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Graph shapes of the executed workloads.  Node counts are those of the
#: default builders (92-395 nodes); only spatial and sequence extents are
#: cut, so that executing every graph in float64 numpy on one core fits a
#: run (inception_v3 at 299 px takes ~1.1 s per execution, at 107 px
#: ~0.2 s).
SHAPES = {
    "inception_v3": {"image_size": 107},
    "squeezenet": {"image_size": 80},
    "resnext50": {"image_size": 80},
    "resnet18": {"image_size": 80},
    "bert": {"seq_len": 32},
    "vit": {"image_size": 80},
    "dalle": {"text_len": 16, "image_tokens": 32},
    "tt": {"audio_frames": 32, "label_len": 8},
}


class Failures:
    """Operations attempted and the ones that failed, with reasons.

    Shared by client threads, hence the lock.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, reason: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.reasons.append(reason)
        return ok

    def run(self, label: str, fn, *args, **kwargs):
        """Call ``fn`` and return ``(ok, result)``; a raised exception
        counts as one failed operation and gives ``(False, None)``."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps going and reports it
            self.check(False, f"{label}: {type(exc).__name__}: {exc}")
            return False, None
        self.check(True, "")
        return True, result

    @property
    def failed(self) -> int:
        return len(self.reasons)


# -- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; NaN when every operation behind it failed."""
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timing(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """p50/p90 and the sample count of a timing series."""
    return {"p50": percentile(values, 50) * scale,
            "p90": percentile(values, 90) * scale, "n": len(values)}


# -- host ---------------------------------------------------------------------

def host_facts() -> Dict[str, Any]:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(modules: Sequence[str]) -> float:
    """Import time of ``modules`` in a fresh interpreter (waited for)."""
    code = ("import time\nt = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "print(time.perf_counter() - t)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def src_digest() -> str:
    """Digest of the program and benchmark sources (keys repeat records)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True,
                              default=str))
    os.replace(tmp, path)


def repeat_check(workload: str, seed: int, signature: Dict[str, Any],
                 counters: Optional[Dict[str, float]]) -> List[str]:
    """Compare this run's outputs with an earlier run of the same seed.

    Records are keyed by the source digest, so only runs of identical code
    are compared.  Returns the mismatches; an empty list also when there is
    no earlier record yet.
    """
    path = OUT / f"repeat-{workload}-seed{seed}-{src_digest()}.json"
    problems: List[str] = []
    record: Dict[str, Any] = {}
    if path.exists():
        record = json.loads(path.read_text())
        if record["signature"] != signature:
            problems.append("outputs differ from an earlier run of this seed")
        earlier = record.get("counters")
        if counters is not None and earlier is not None and \
                earlier != counters:
            problems.append(f"work counters differ: {earlier} vs {counters}")
    record["signature"] = signature
    if counters is not None:
        record["counters"] = counters
    write_json(path, record)
    return problems


# -- execution ----------------------------------------------------------------

def _exact(rule_names: Sequence[str]) -> bool:
    from repro.rules.rulesets import default_ruleset
    rules = default_ruleset()
    return all(rules.rule(name).exactly_equivalent for name in rule_names)


def execute_and_check(groups: List[Dict[str, Any]], seed: int,
                      deadline: float, failures: Failures,
                      min_rounds: int = 3, max_rounds: int = 15
                      ) -> Dict[str, Any]:
    """Validate, differentially check and time every optimised graph.

    ``groups`` holds one dict per input graph: ``label``, ``batch``,
    ``initial`` and ``optimised`` (name -> ``(graph, applied_rules)``).
    Each group gets its own executor, dropped afterwards so parameter
    buffers do not pile up.  The differential check (one trial, inputs from
    ``seed``) doubles as the warm-up.  Timing rounds then run the initial
    and every optimised graph in turn, reversing the order each round, so
    each pair is measured interleaved; each group's rounds fill its share of
    the time left before ``deadline`` (``min_rounds`` to ``max_rounds``).
    """
    import repro.exec as rexec

    rows = []
    ratios: List[float] = []
    opt_ms_per_sample = 0.0
    for index, group in enumerate(groups):
        executor = rexec.NumpyExecutor()
        initial = group["initial"]
        feeds = rexec.random_inputs(initial, seed=seed)
        graphs = {"initial": initial}
        for name, (graph, rules) in group["optimised"].items():
            label = f"{group['label']}/{name}"
            ok, _ = failures.run(f"{label} validate", graph.validate)
            if not ok:
                continue
            ok, report = failures.run(
                f"{label} differential", rexec.differential_check,
                initial, graph, executor=executor, trials=1, seed=seed,
                require_values=_exact(rules))
            if ok and failures.check(
                    bool(report),
                    f"{label} differential: {'; '.join(report.problems)}"):
                graphs[name] = graph
        budget = (deadline - time.perf_counter()) / (len(groups) - index)
        times: Dict[str, List[float]] = {name: [] for name in graphs}
        order = list(graphs)
        spent = 0.0
        rounds = 0
        while rounds < min_rounds or (
                rounds < max_rounds and spent * (rounds + 1) / rounds < budget):
            started = time.perf_counter()
            for name in (order if rounds % 2 == 0 else order[::-1]):
                began = time.perf_counter()
                executor.run(graphs[name], feeds)
                times[name].append((time.perf_counter() - began) * 1e3)
            spent += time.perf_counter() - started
            rounds += 1
        medians = {name: statistics.median(ts) for name, ts in times.items()}
        for name in graphs:
            if name == "initial":
                continue
            ratios.append(medians["initial"] / medians[name])
            opt_ms_per_sample += medians[name] / group["batch"]
        rows.append({"label": group["label"], "batch": group["batch"],
                     "rounds": rounds, "median_ms": medians})
        del executor
    return {
        "exec_speedup": geomean(ratios),
        "opt_exec_ms": opt_ms_per_sample,
        "pairs": len(ratios),
        "rows": rows,
    }
