"""Spans around the public entry points of each layer, installed from outside.

The tracer wraps a function in place: it replaces the attribute on the
module (or class) that defines it, and on every other loaded module that
imported the same object by name, so calls through any of those names
open a span.  :meth:`Tracer.uninstall` puts every original back, which is
what keeps an untraced run untraced.

A span records its name, start and end (``perf_counter_ns``), its parent
span and optional attributes.  A span's *self time* is its duration minus
the durations of its direct children.  Spans nest per thread, so children
never overlap one another and never outlast their parent; :func:`audit`
checks both.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: ``name`` may be a string or a callable ``(args, kwargs) -> str`` for
#: spans named after an argument (e.g. the regime a trace runs under).
SpanName = Union[str, Callable[[tuple, dict], str]]

#: ``(span, args, kwargs, result) -> None``: sets attributes after a call.
OnResult = Callable[["Span", tuple, dict, Any], None]


@dataclass
class Span:
    name: str
    start_ns: int
    parent: int  # index of the parent span, -1 for a root
    end_ns: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` plus a dotted ``attr`` path
    (``"run_trace"`` or ``"ResultCache.load_stage"``)."""

    module: str
    attr: str
    name: SpanName
    on_result: Optional[OnResult] = None


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # (setter, holder, attribute, original) in installation order.
        self._patches: List[Tuple[Callable[[Any, str, Any], None], Any, str, Any]] = []

    # -- spans ----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter_ns(), stack[-1] if stack else -1)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span

    def wrap(self, fn: Callable, name: SpanName, on_result: Optional[OnResult] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            index = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index).attrs["error"] = True
                raise
            span = tracer.close(index)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True  # type: ignore[attr-defined]
        return traced

    # -- patching -------------------------------------------------------

    def _patch(self, setter: Callable[[Any, str, Any], None], holder: Any, attr: str,
               original: Any, replacement: Any) -> None:
        setter(holder, attr, replacement)
        self._patches.append((setter, holder, attr, original))

    def install(self, targets: Sequence[Target], extra_holders: Sequence[Any] = ()) -> None:
        """Wrap every target.  ``extra_holders`` are objects (such as
        registry entries) whose attributes may also hold a target; any
        attribute bound to a wrapped original is redirected too."""
        replaced: Dict[int, Tuple[Any, Any]] = {}
        for target in targets:
            owner: Any = importlib.import_module(target.module)
            path = target.attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self.wrap(original, target.name, target.on_result)
            self._patch(setattr, owner, attr, original, wrapper)
            replaced[id(original)] = (original, wrapper)
        if not replaced:
            return
        # Names imported elsewhere with ``from module import name``.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(setattr, module, attr, value, hit[1])
        for holder in extra_holders:
            for attr, value in list(vars(holder).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(object.__setattr__, holder, attr, value, hit[1])

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            setter, holder, attr, original = self._patches.pop()
            setter(holder, attr, original)


# -- analysis -------------------------------------------------------------


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Per span: duration minus the summed durations of its direct children."""
    out = [span.duration_ns for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration_ns
    return out


def audit(spans: Sequence[Span]) -> List[str]:
    """Violations of span nesting: a child outside its parent's interval,
    or children whose summed time exceeds the parent's duration."""
    problems: List[str] = []
    child_total = [0] * len(spans)
    for index, span in enumerate(spans):
        if span.end_ns < span.start_ns:
            problems.append(f"span {index} ({span.name}) ends before it starts")
        if span.parent < 0:
            continue
        parent = spans[span.parent]
        if span.start_ns < parent.start_ns or span.end_ns > parent.end_ns:
            problems.append(f"span {index} ({span.name}) escapes parent {parent.name}")
        child_total[span.parent] += span.duration_ns
    for index, span in enumerate(spans):
        if child_total[index] > span.duration_ns:
            problems.append(f"children of span {index} ({span.name}) exceed it")
    return problems


def wrapper_cost_ns(calls: int = 10000, repeats: int = 5) -> float:
    """What one wrapped call costs over a plain call (ns), measured on a
    wrapper shaped like the layer targets': a span named by a callable,
    with an ``on_result`` hook.  The best of ``repeats`` timings of each."""

    def plain(value: Any) -> Any:
        return value

    wrapped = Tracer().wrap(plain, lambda args, kwargs: "probe", lambda *_: None)

    def per_call(fn: Callable[[Any], Any]) -> float:
        best = None
        for _ in range(repeats):
            started = time.perf_counter_ns()
            for value in range(calls):
                fn(value)
            elapsed = time.perf_counter_ns() - started
            best = elapsed if best is None else min(best, elapsed)
        return best / calls

    return max(0.0, per_call(wrapped) - per_call(plain))


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, Any]]:
    """Per span name: ``calls``, ``self_s``, ``total_s`` and every numeric
    attribute summed (booleans count the spans where they are true)."""
    selfs = self_times_ns(spans)
    table: Dict[str, Dict[str, Any]] = {}
    for span, own in zip(spans, selfs):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own / 1e9
        row["total_s"] += span.duration_ns / 1e9
        for key, value in span.attrs.items():
            if isinstance(value, (bool, int, float)):
                row[key] = row.get(key, 0) + value
            else:
                row.setdefault(key, set()).add(value)
    for row in table.values():
        for key, value in list(row.items()):
            if isinstance(value, set):
                row[key] = len(value)  # distinct attribute values
    return table
