"""Outside-in span tracing for the end-to-end benchmark.

The program has no spans at its layer boundaries yet, so the traced run
wraps the public functions of each module from the outside, for the
duration of one round, and restores them afterwards.  Untraced rounds
run the unmodified program.

Two kinds of boundary are recorded:

* a **span** (name, start, end, parent id, simulated day) for calls
  made at most a few times per app and day;
* a **leaf** aggregate (call count and total seconds, no record per
  call) for calls made many times per download or request, such as an
  alias-table draw.  A leaf must not call another traced function;
* a **count** (calls only) for the hottest calls, whose own cost is
  below what timing them would add: their time stays in the caller's
  self time.

Both add their duration to the enclosing span, so a span's self time is
its duration minus the time its children cover.  The layer of a
boundary is the first dotted component of its name; the layers are the
modules of ``repro``.  The current span lives in a context variable, so
asyncio tasks started inside a span (the service's crawl workers) report
to it; coroutines themselves are wrapped only where the whole await is
owned by one caller (``EcosystemService.tick``), because a span around
an interleaved coroutine would count its siblings' time as its own.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Column names of one recorded span.
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "day", "child_s")

# Positions in a span record (a list, mutated while the span is open).
_ID, _PARENT, _NAME, _START, _END, _DAY, _CHILD = range(7)

#: Layers in report order; ``unattributed`` is time in no traced boundary
#: (the benchmark's own loop and program code between boundaries).
LAYERS = (
    "marketplace",
    "crawler",
    "resilience",
    "store",
    "analysis",
    "core",
    "service",
    "unattributed",
)


@dataclass
class Trace:
    """What one traced phase recorded."""

    spans: List[list] = field(default_factory=list)
    leaves: Dict[str, List[float]] = field(default_factory=dict)
    _by_id: Dict[int, list] = field(default_factory=dict, repr=False)

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer; every traced second lands in exactly one."""
        totals = {layer: 0.0 for layer in LAYERS}
        for record in self.spans:
            layer = record[_NAME].split(".", 1)[0]
            if layer not in totals:
                layer = "unattributed"
            totals[layer] += record[_END] - record[_START] - record[_CHILD]
        for name, (_, seconds) in self.leaves.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``."""
        return [r[_END] - r[_START] for r in self.spans if r[_NAME] == name]

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        return sum(r[_END] - r[_START] - r[_CHILD] for r in self.spans if r[_NAME] == name)

    def outermost(self, prefix: str) -> List[list]:
        """Spans named under ``prefix`` with no ancestor under it."""
        if len(self._by_id) != len(self.spans):
            self._by_id = {record[_ID]: record for record in self.spans}
        by_id = self._by_id
        found = []
        for record in self.spans:
            if not record[_NAME].startswith(prefix):
                continue
            parent = by_id.get(record[_PARENT])
            while parent is not None and not parent[_NAME].startswith(prefix):
                parent = by_id.get(parent[_PARENT])
            if parent is None:
                found.append(record)
        return found

    def busy_seconds(self, prefix: str) -> float:
        """Wall time covered by spans named under ``prefix``."""
        return sum(r[_END] - r[_START] for r in self.outermost(prefix))

    def leaf_calls(self, prefix: str) -> int:
        """Calls counted by leaf boundaries named under ``prefix``."""
        return int(sum(c for n, (c, _) in self.leaves.items() if n.startswith(prefix)))


class Tracer:
    """Records spans and leaf aggregates from wrapped functions."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
            "bench_e2e_span", default=None
        )
        self._day: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench_e2e_day", default=-1
        )
        self._next_id = 1
        self._trace = Trace()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> Tuple[list, Optional[list], contextvars.Token]:
        """Open a span under the current one; pass the result to :meth:`close`."""
        parent = self._current.get()
        record = [self._next_id, parent[_ID] if parent else 0, name, 0.0, 0.0,
                  self._day.get(), 0.0]
        self._next_id += 1
        token = self._current.set(record)
        record[_START] = time.perf_counter()
        return record, parent, token

    def close(self, state: Tuple[list, Optional[list], contextvars.Token]) -> None:
        """Close a span opened by :meth:`open`, in the same context."""
        record, parent, token = state
        record[_END] = end = time.perf_counter()
        self._current.reset(token)
        if parent is not None:
            parent[_CHILD] += end - record[_START]
        self._trace.spans.append(record)

    def drain(self) -> Trace:
        """Everything recorded since the last drain."""
        trace = self._trace
        # Leaf wrappers keep a reference to their aggregate, so the live
        # aggregates are zeroed in place and the drained trace gets copies.
        self._trace = Trace(leaves=trace.leaves)
        trace = Trace(spans=trace.spans,
                      leaves={name: list(agg) for name, agg in trace.leaves.items()})
        for aggregate in self._trace.leaves.values():
            aggregate[0], aggregate[1] = 0, 0.0
        return trace

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, day_of: Optional[Callable]):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if day_of is not None:
                    self._day.set(int(day_of(*args, **kwargs)))
                state = self.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.close(state)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if day_of is not None:
                # Not reset on exit: the crawl that follows a simulated
                # day belongs to that day.
                self._day.set(int(day_of(*args, **kwargs)))
            state = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(state)

        return traced

    def _leaf_wrapper(self, name: str, fn: Callable):
        aggregate = self._trace.leaves.setdefault(name, [0, 0.0])
        current = self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                aggregate[0] += 1
                aggregate[1] += elapsed
                parent = current.get()
                if parent is not None:
                    parent[_CHILD] += elapsed

        return traced

    def _count_wrapper(self, name: str, fn: Callable):
        aggregate = self._trace.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            aggregate[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _steps_wrapper(self, name: str, fn: Callable):
        """Wrap a function returning a generator: each resume is a span."""
        tracer = self

        class _TracedSteps:
            def __init__(self, steps):
                self._steps = steps

            def __iter__(self):
                return self

            def __next__(self):
                return self.send(None)

            def send(self, value):
                state = tracer.open(name)
                try:
                    return self._steps.send(value)
                finally:
                    tracer.close(state)

            def throw(self, *args):
                return self._steps.throw(*args)

            def close(self):
                return self._steps.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedSteps(fn(*args, **kwargs))

        return traced

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def wrap_method(self, cls, method: str, name: str, kind: str = "span",
                    day_of: Optional[Callable] = None) -> None:
        """Trace ``cls.method`` as a ``span``, ``leaf``, ``count`` or ``steps`` boundary."""
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._make(kind, name, raw.__func__, day_of))
        else:
            wrapper = self._make(kind, name, raw, day_of)
        self._replace(cls, method, wrapper)

    def wrap_function(self, module, function: str, name: str,
                      kind: str = "span") -> None:
        """Trace a module-level function everywhere it is bound.

        Modules that imported the function by name hold their own
        reference, so every loaded ``repro`` module binding the same
        object is patched too.
        """
        original = getattr(module, function)
        wrapper = self._make(kind, name, original, None)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                loaded.__dict__.get(function) is original
            ):
                self._replace(loaded, function, wrapper)

    def _make(self, kind: str, name: str, fn: Callable, day_of):
        if kind == "span":
            return self._span_wrapper(name, fn, day_of)
        if kind == "leaf":
            return self._leaf_wrapper(name, fn)
        if kind == "count":
            return self._count_wrapper(name, fn)
        if kind == "steps":
            return self._steps_wrapper(name, fn)
        raise ValueError(f"unknown boundary kind {kind!r}")

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
