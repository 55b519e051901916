"""Host-time span profiler: wall-clock attribution of the simulator's layers.

The simulator keeps two clocks.  Model time is the ledger clock and is
exact; this module measures the other one, *host time*, which is how
long the Python simulator takes to produce those ledgers.  It lives in
the benchmark on purpose: nothing in ``repro`` reads a wall clock (lint
rule ``DET001``), so the profiler wraps calls *into* each layer from the
outside instead.

A :class:`Profiler` replaces public functions and methods with timing
wrappers while :meth:`Profiler.installed` is active and restores the
originals afterwards.  Every wrapped call records one span
``(name, start, end, parent)`` on ``time.perf_counter_ns``.  A span's
*self time* is its duration minus the time covered by its child spans,
so the self times of all spans under a root add up to the root's
duration exactly (integer nanoseconds, no rounding).

Patching follows the names callers look up:

* a method is wrapped on the class that defines it and on every
  subclass that overrides it (:meth:`Profiler.patch_methods`);
* a module-level function is rebound in every loaded ``repro`` module
  whose namespace holds it, since ``from x import f`` makes a second
  binding (:meth:`Profiler.patch_function`).
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter_ns

# spans a Perfetto export holds at most (the first ones, in start order)
HOST_TRACE_SPANS = 50_000
# the benchmark's own bookkeeping around a wrapped call: before(args,
# kwargs) may return a token that after(token, args, result) receives.
# Each hook call is a child span named HOOK_SPAN, so its time is not
# the wrapped layer's self time.
HOOK_SPAN = "bench.hooks"
Before = Callable[[tuple, dict], object]
After = Callable[[object, tuple, object], None]


class Profiler:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span columns; cleared in place by reset() because the
        # wrappers hold direct references to them
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def reset(self) -> None:
        """Drop every recorded span and count (patches stay installed)."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot reset the profiler inside an open span")
        self.span_name.clear()
        self.span_start.clear()
        self.span_end.clear()
        self.span_parent.clear()
        self.counts.clear()

    def parent_name(self) -> str | None:
        """Name of the span enclosing the innermost open span."""
        if len(self._stack) < 3:
            return None
        return self.names[self.span_name[self._stack[-2]]]

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Before | None = None,
        after: After | None = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.intern(name)
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack = self._stack

        if before is None and after is None:
            # the hot path (one span per admitted request): no hook calls

            def wrapper(*args, **kwargs):
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(i)
                starts.append(_now())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = _now()
                    stack.pop()

        else:
            hook = self.intern(HOOK_SPAN)

            def timed_hook(i, call, *hook_args):
                # a leaf span under span i; not pushed on the stack, so
                # parent_name() inside the hook still sees span i's parent
                h = len(starts)
                names.append(hook)
                parents.append(i)
                ends.append(0)
                starts.append(_now())
                try:
                    return call(*hook_args)
                finally:
                    ends[h] = _now()

            def wrapper(*args, **kwargs):
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(i)
                starts.append(_now())
                try:
                    token = None
                    if before is not None:
                        token = timed_hook(i, before, args, kwargs)
                    result = fn(*args, **kwargs)
                    if after is not None:
                        timed_hook(i, after, token, args, result)
                    return result
                finally:
                    ends[i] = _now()
                    stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def wrap_iterator_factory(self, name: str, fn: Callable) -> Callable:
        """Wrap a function returning an iterator (e.g. a generator
        method) so that every ``next()`` on the result is a span: the
        work of a lazy generator happens there, not in the call."""
        prof = self

        def factory(*args, **kwargs):
            return _TimedIterator(prof.wrap(name, iter(fn(*args, **kwargs)).__next__))

        return functools.update_wrapper(factory, fn)

    def counted(self, key: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted in ``counts[key]`` but no span:
        for hot leaf functions where a span per call would swamp the
        measurement."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark's own code (a root, or a call
        into a layer the benchmark makes directly)."""
        i = len(self.span_start)
        self.span_name.append(self.intern(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(i)
        self.span_start.append(_now())
        try:
            yield
        finally:
            self.span_end[i] = _now()
            self._stack.pop()

    # -- patching --------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_methods(
        self,
        base: type,
        attrs: tuple[str, ...],
        name: str,
        *,
        iterator: bool = False,
        before: Before | None = None,
        after: After | None = None,
    ) -> None:
        """Wrap ``attrs`` on ``base`` and on every subclass that defines
        its own version of them."""
        seen: set[type] = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                fn = cls.__dict__.get(attr)
                if not isinstance(fn, types.FunctionType):
                    continue  # absent, or a property/staticmethod
                if iterator:
                    wrapped = self.wrap_iterator_factory(name, fn)
                else:
                    wrapped = self.wrap(name, fn, before=before, after=after)
                self._set(cls, attr, wrapped)

    def patch_function(
        self,
        fn: Callable,
        name: str,
        *,
        count_only: bool = False,
        before: Before | None = None,
        after: After | None = None,
    ) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        if count_only:
            wrapped = self.counted(name, fn)
        else:
            wrapped = self.wrap(name, fn, before=before, after=after)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install: Callable[[Profiler], None]) -> Iterator[Profiler]:
        """Apply ``install(self)``'s patches for the duration of the block."""
        try:
            install(self)
            yield self
        finally:
            self.unpatch()

    # -- analysis --------------------------------------------------------
    def _columns(self) -> tuple[np.ndarray, ...]:
        name = np.asarray(self.span_name, dtype=np.int64)
        start = np.asarray(self.span_start, dtype=np.int64)
        end = np.asarray(self.span_end, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        return name, start, end, parent

    def self_times_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus the children's
        durations, summed over that name's spans (integer ns)."""
        name, start, end, parent = self._columns()
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        per_name = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(per_name, name, own)
        calls = np.bincount(name, minlength=len(self.names))
        return {
            self.names[i]: int(per_name[i])
            for i in range(len(self.names))
            if calls[i]
        }

    def min_self_ns(self) -> int:
        """Smallest self time of any single span (never negative when
        spans nest properly)."""
        name, start, end, parent = self._columns()
        if not len(start):
            return 0
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return int((dur - child).min())

    def call_counts(self) -> dict[str, int]:
        calls = np.bincount(
            np.asarray(self.span_name, dtype=np.int64), minlength=len(self.names)
        )
        return {self.names[i]: int(c) for i, c in enumerate(calls) if c}

    def durations_ns(self, name: str) -> np.ndarray:
        """Inclusive duration of every span called ``name``."""
        nid = self._ids.get(name)
        col, start, end, _ = self._columns()
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        mask = col == nid
        return end[mask] - start[mask]

    def root_ns(self) -> int:
        """Total duration of the root spans (the traced host time)."""
        _, start, end, parent = self._columns()
        roots = parent < 0
        return int((end[roots] - start[roots]).sum())

    def chrome_trace(self, *, label: str) -> dict:
        """The recorded spans as a Chrome/Perfetto trace (host clock,
        microseconds from the first span).  At most
        :data:`HOST_TRACE_SPANS` spans are exported, in start order."""
        name, start, end, parent = self._columns()
        n = min(len(start), HOST_TRACE_SPANS)
        t0 = int(start.min()) if len(start) else 0
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": f"{label} (host wall clock)"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "simulator"}},
        ]
        for i in range(n):
            p = int(parent[i])
            events.append({
                "name": self.names[int(name[i])],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (int(start[i]) - t0) / 1e3,
                "dur": (int(end[i]) - int(start[i])) / 1e3,
                "args": {"parent": self.names[int(name[p])] if p >= 0 else ""},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "host",
                "spans_recorded": len(start),
                "spans_exported": n,
            },
        }


class _TimedIterator:
    __slots__ = ("_next",)

    def __init__(self, timed_next: Callable) -> None:
        self._next = timed_next

    def __iter__(self) -> _TimedIterator:
        return self

    def __next__(self):
        return self._next()
