"""Span recorder used only by the traced benchmark run.

The program under test carries no instrumentation of its own: this module
wraps its public entry points from the outside (class attributes and the
module-level names other modules imported) and restores them afterwards.

Each wrapped call records one span: name, start, end, parent span, the
request id current on its thread, and the thread id.  Spans stay in memory
until the run ends.  Self time is computed afterwards by a sweep over all
threads: at every instant each thread is "in" its innermost open span, and
the wall-clock of that instant is shared equally between the threads whose
innermost span is busy work (a client blocked on a result is not).  Summed
over all span names plus the idle time, the shares add up to the wall-clock
the spans cover, so the per-layer table reconciles with the wall-clock of
the traced pass by construction of exclusive time, not by scaling.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Span kinds: ``busy`` spans own the time they cover; ``wait`` spans mark a
#: thread that is blocked on another thread's work.
BUSY, WAIT = "busy", "wait"

# Span record layout (a list, mutated once when the span closes).
NAME, START, END, PARENT, RID, TID, KIND = range(7)


class Recorder:
    """In-memory spans, counters and samples for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        # Counters are bumped from worker threads too; ``+=`` on a dict
        # entry is not atomic.
        self._count_lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------
    def stack(self) -> list:
        """This thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_rid(self) -> str:
        return getattr(self._local, "rid", "")

    def set_rid(self, rid: str) -> None:
        self._local.rid = rid

    def open(self, name: str, kind: str = BUSY) -> list:
        stack = self.stack()
        span = [name, time.perf_counter_ns(), 0,
                stack[-1] if stack else None, self.current_rid(),
                threading.get_ident(), kind]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    # -- patching ----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, had_own, original))

    def wrap(self, owner: Any, attr: str, name: str, kind: str = BUSY,
             after: Optional[Callable[["Recorder", tuple, Any], None]] = None,
             rid: Optional[Callable[[tuple], str]] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``after(recorder, args, result)`` runs inside the span once the call
        returned, for counters derived from the call.  ``rid(args)`` names a
        request id that the call's spans (and its children's) carry.
        """
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                previous = self.current_rid()
                if rid is not None:
                    self.set_rid(rid(args))
                span = self.open(name, kind)
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(self, args, result)
                    return result
                finally:
                    self.close(span)
                    if rid is not None:
                        self.set_rid(previous)
            return wrapper
        self._patch(owner, attr, make)

    def wrap_count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot, tiny calls)."""
        count = self.count

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                count(name)
                return fn(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> Dict[str, Any]:
        """Exclusive time and calls per span name, and idle time."""
        by_thread: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            by_thread[span[TID]].append(span)
        events = []  # (time, order, tid, span-or-None); ends sort first
        for tid, spans in by_thread.items():
            for t0, t1, span in _innermost_segments(spans):
                events.append((t0, 1, tid, span))
                events.append((t1, 0, tid, None))
        events.sort(key=lambda e: (e[0], e[1]))
        self_ns: Dict[str, float] = defaultdict(float)
        idle_ns = 0.0
        active: Dict[int, list] = {}
        previous = events[0][0] if events else 0
        for when, _order, tid, span in events:
            if when > previous:
                busy = [s for s in active.values() if s[KIND] == BUSY]
                if busy:
                    share = (when - previous) / len(busy)
                    for s in busy:
                        self_ns[s[NAME]] += share
                else:
                    idle_ns += when - previous
                previous = when
            if span is None:
                active.pop(tid, None)
            else:
                active[tid] = span
        calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[NAME]] += 1
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "calls": dict(calls),
            "idle_s": idle_ns / 1e9,
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (Perfetto, chrome://tracing)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((s[START] for s in self.spans), default=0)
        events = []
        for i, span in enumerate(self.spans):
            parent = span[PARENT]
            events.append({
                "name": span[NAME],
                "cat": span[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": (span[START] - origin) / 1e3,
                "dur": (span[END] - span[START]) / 1e3,
                "pid": 1,
                "tid": span[TID],
                "args": {"id": i, "rid": span[RID], "kind": span[KIND],
                         "parent": index.get(id(parent)) if parent else None},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _innermost_segments(spans: List[list]):
    """Split one thread's nested spans into ``(t0, t1, innermost span)``."""
    spans = sorted(spans, key=lambda s: (s[START], -s[END]))
    out = []
    stack: List[list] = []
    cursor = 0
    for span in spans:
        while stack and stack[-1][END] <= span[START]:
            top = stack.pop()
            if top[END] > cursor:
                out.append((cursor, top[END], top))
            cursor = max(cursor, top[END])
        if stack and span[START] > cursor:
            out.append((cursor, span[START], stack[-1]))
        stack.append(span)
        cursor = span[START]
    while stack:
        top = stack.pop()
        if top[END] > cursor:
            out.append((cursor, top[END], top))
        cursor = max(cursor, top[END])
    return out
