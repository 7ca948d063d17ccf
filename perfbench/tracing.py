"""In-memory spans around calls into driftmc, recorded from the benchmark.

The benchmark does not change the program: it replaces a module attribute
(``driftmc.engine.simulate``, ``driftmc.training.forward``, ...) with a
wrapper that opens a span, calls the original and closes the span, and puts
the original back afterwards.  Each module is wrapped in the namespace that
calls the function, so the caller is known too.

A span records its name, the namespace it was called from, its thread, its
parent, start, end and an optional work count (path steps).  Each thread has
its own parent stack.  Estimator calls fan work out to a thread pool; a span
opened on a pool thread whose own stack is empty takes the innermost open
fan-out span as its parent, so pool work nests under the estimate that
dispatched it.
"""

import contextlib
import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    site: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    work: int = 0
    result: object = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanout = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, site, fanout=False):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1].id
            else:
                parent = self._fanout[-1].id if self._fanout else None
            span = Span(id=next(self._ids), name=name, site=site,
                        thread=threading.get_ident(), parent=parent,
                        start=time.perf_counter())
            self.spans.append(span)
            if fanout:
                self._fanout.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            if self._fanout and self._fanout[-1] is span:
                self._fanout.pop()

    def call(self, name, site, fn, *args, fanout=False, keep_result=False,
             work=None, **kwargs):
        """Run ``fn`` inside a span and return its result."""
        span = self.open(name, site, fanout=fanout)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if work is not None:
            span.work = int(work(args, kwargs, result))
        if keep_result:
            span.result = result
        return result


@dataclass(frozen=True)
class Hook:
    """One function to wrap: ``owner.attr`` reported as ``name``.

    ``work(args, kwargs, result)`` gives the span's work count.
    """

    owner: object
    attr: str
    name: str
    fanout: bool = False
    keep_result: bool = False
    work: object = None


@contextlib.contextmanager
def instrumented(tracer, hooks):
    """Install the hooks on ``tracer``; restore the original attributes on
    exit, even when the body raises."""
    saved = []
    try:
        for hook in hooks:
            raw = inspect.getattr_static(hook.owner, hook.attr)
            saved.append((hook.owner, hook.attr, raw))
            traced = _wrap(tracer, hook, getattr(hook.owner, hook.attr))
            if isinstance(raw, classmethod):
                traced = staticmethod(traced)
            setattr(hook.owner, hook.attr, traced)
        yield tracer
    finally:
        while saved:
            setattr(*saved.pop())


def _wrap(tracer, hook, original):
    site = hook.owner.__name__

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(hook.name, site, original, *args,
                           fanout=hook.fanout, keep_result=hook.keep_result,
                           work=hook.work, **kwargs)
    return traced


def children_of(spans):
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def _covered(intervals):
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its children cover.

    Children on other threads count by the union of their intervals, so a
    fan-out span whose pool kept every moment busy has no self time.
    """
    children = children_of(spans)
    out = {}
    for span in spans:
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(span.id, ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[span.id] = span.duration - _covered(clipped)
    return out


def blocking_times(spans):
    """Span id -> its share of the wall time of the outermost spans.

    At each instant the innermost open spans (those with no open child)
    share that instant equally, so the shares of a span tree add up to its
    root's duration even when pool threads run in parallel.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    ids = {span.id for span in spans}
    open_children = {span.id: 0 for span in spans}
    active = set()
    out = {span.id: 0.0 for span in spans}
    last = None
    for when, is_start, span in events:
        if last is not None and when > last and active:
            leaves = [s for s in active if open_children[s] == 0]
            share = (when - last) / len(leaves)
            for s in leaves:
                out[s] += share
        last = when
        if is_start:
            active.add(span.id)
            if span.parent in ids:
                open_children[span.parent] += 1
        else:
            active.discard(span.id)
            if span.parent in ids:
                open_children[span.parent] -= 1
    return out
