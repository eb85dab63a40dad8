"""In-memory span tracer that wraps flowfx's public functions from outside.

``install`` replaces each public function of the traced modules at every
name a caller looks up: the attribute of the module that defines it and
every ``from .module import name`` binding in another flowfx module (for
example ``metrics.stft`` and ``flow.cfg_combine``).  ``cli`` loads eval
files on a thread pool, so ``install`` also swaps ``cli.ThreadPoolExecutor``
for a pool that hands the submitting span to the worker; worker spans then
nest under the span that queued them and carry its request id.

A span is (id, parent, name, start, end, request).  Self time is a span's
duration minus the part of its interval that its child spans cover.

Private helpers named in ``counted`` (such as ``net._core``) get no span,
which would take their time out of their callers' self time; each call
only adds one to the count ``<layer>.<helper>.calls``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: str | None


class Tracer:
    """Records spans and counts while installed; passes calls through
    untouched once uninstalled.

    ``modules`` maps a short layer name to the module whose public
    functions are wrapped; a span is named ``<layer>.<function>``.
    ``observers`` maps a span name to ``observe(tracer, args, kwargs,
    result)``, called after each successful call to record counts.
    ``counted`` names private module-level helpers, ``<layer>.<helper>``,
    whose calls are counted; callers must look them up as module globals.
    """

    def __init__(self, modules: dict, observers: dict | None = None, counted=()):
        self.modules = modules
        self.observers = observers or {}
        self.counted = counted
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self._seen: set = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: tuple = (None, None)  # (request id, its root span id)
        self._saved: list = []

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def current(self):
        """Id of the innermost open span on this thread, else the request's."""
        stack = self._stack()
        return stack[-1] if stack else self._request[1]

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def seen(self, key) -> bool:
        """True when ``key`` was already passed since the last ``reset_seen``."""
        with self._lock:
            if key in self._seen:
                return True
            self._seen.add(key)
            return False

    def reset_seen(self) -> None:
        with self._lock:
            self._seen.clear()

    @contextmanager
    def request(self, request_id: str):
        """Open the root span of one request; spans opened on any thread
        until it closes carry ``request_id``."""
        sid = self._next_id()
        self._request = (request_id, sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._request = (None, None)
            self._record(Span(sid, None, "request", start, end, request_id))

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            request, root = tracer._request
            parent = stack[-1] if stack else root
            sid = tracer._next_id()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(Span(sid, parent, name, start, end, request))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        tracer = self
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counted

    def _run_under(self, parent, fn, *args, **kwargs):
        """Run a pool task with ``parent`` as the base of this thread's stack."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        package = next(iter(self.modules.values())).__name__.split(".")[0]
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])
        for name in self.counted:
            layer, attr = name.split(".")
            module = self.modules[layer]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._counter(name, fn))
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._run_under, tracer.current(), fn, *args, **kwargs)

        for module in self.modules.values():
            if vars(module).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                self._saved.append((module, "ThreadPoolExecutor", ThreadPoolExecutor))
                module.ThreadPoolExecutor = TracedPool

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved = []

    # -- analysis -----------------------------------------------------------

    def self_times(self, key=lambda span: span.name):
        """Per ``key(span)`` (the span name by default): (calls, total self
        seconds, total inclusive seconds)."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            k = key(span)
            calls[k] += 1
            incl_s[k] += duration
            self_s[k] += duration - covered(children.get(span.id, ()), span.start, span.end)
        return {k: (calls[k], self_s[k], incl_s[k]) for k in calls}


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
