"""In-memory span recorder with one stack per thread.

A span is (name, start, end, parent, thread, request, rows).  Spans nest
through the calling thread's stack.  A span opened on an empty stack in a
worker thread takes the main thread's innermost open span as its parent:
that is the call which submitted the work (``cli.run`` around the thread
pool), so job time on pool threads counts as covered time of that span.

A span's self time is its duration minus the union of its children's
intervals, clipped to the span.  Children on one thread never overlap;
children on pool threads may, and the union keeps them from being counted
twice.  busy time per name sums only the outermost span of that name on
each ancestry chain, so recursive calls (a product field evaluating its
factors) are not counted twice either.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    request: object
    start: float
    end: float = float("nan")
    rows: int = 0


@dataclass
class Stat:
    calls: int = 0
    rows: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
        return stack

    def begin(self, name: str, request=None) -> Span:
        stack = self._stack()
        tid = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif tid != self._main and self._stacks.get(self._main):
            parent = self._stacks[self._main][-1]
        else:
            parent = None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span = Span(len(self.spans), name,
                        None if parent is None else parent.id, tid, request,
                        self.clock())
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, rows: int = 0):
        span.end = self.clock()
        span.rows = rows
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    def wrap(self, fn, name: str, rows=None, request=None):
        """fn with a span around every call.

        rows(result) -> int counts work done; request(args) -> id tags the
        span and its descendants (the job a call belongs to).
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, None if request is None else request(args))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(span, 0 if rows is None or result is None
                         else int(rows(result)))
        return traced


def _union_length(intervals, lo: float, hi: float) -> float:
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def summarize(spans: list[Span]) -> dict[str, Stat]:
    """Per-name calls, rows, busy_s and self_s over finished spans."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    stats: dict[str, Stat] = {}
    for s in spans:
        st = stats.setdefault(s.name, Stat())
        duration = s.end - s.start
        st.calls += 1
        st.rows += s.rows
        st.self_s += duration - _union_length(children.get(s.id, ()),
                                              s.start, s.end)
        anc = s.parent
        while anc is not None and by_id[anc].name != s.name:
            anc = by_id[anc].parent
        if anc is None:
            st.busy_s += duration
    return stats


def span_records(spans: list[Span]) -> list[list]:
    """Spans as plain lists for writing out: id, name, parent, thread,
    request, start, end, rows."""
    return [[s.id, s.name, s.parent, s.thread,
             None if s.request is None else list(s.request),
             s.start, s.end, s.rows] for s in spans]
