"""Per-layer tracing for the gpdkit benchmark, from outside the library.

The tracer wraps public gpdkit functions and methods and rebinds each
wrapper in every gpdkit module namespace that refers to the original,
including module-level tuples and dicts such as the CLI's validator
table.  Nothing under src/ changes, and uninstall() restores every
binding, so untraced runs execute the library with no wrapper present.

Spans are aggregated as they close: per span name the tracer keeps the
call count, the self time (the span's duration minus the time its child
spans cover), optional size counters and the set of distinct argument
keys.  Times are integer nanoseconds from one clock, so the accounting
identity "sum of self times == sum of root span durations" holds
exactly when the nesting arithmetic is right; check_accounting() tests
it after each pass.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    sizes: dict[str, int] = field(default_factory=dict)
    keys: set = field(default_factory=set)


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    span is the reported name ("bundles.division_map"); several targets
    may share a span (the generators).  key maps the call's arguments to
    a hashable key for the distinct-argument ratio; size maps
    (args, result) to {counter name: amount}.
    """

    span: str
    module: str
    attr: str
    owner: str | None = None  # class name when attr is a method
    key: Callable | None = None
    size: Callable | None = None


class Tracer:
    """Span aggregation plus wrapper installation.

    Only calls made while active is true are recorded; a wrapped call
    outside that window passes straight through.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.active = False
        self.stats: dict[str, SpanStats] = {}
        self.root_ns = 0
        self._stack: list[int] = []
        self._alive: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.stats = {}
        self.root_ns = 0
        self._stack = []
        self._alive = {}

    def pin(self, obj: object) -> int:
        """id(obj), keeping obj alive so the id is not reused in a pass."""
        self._alive.setdefault(id(obj), obj)
        return id(obj)

    def wrap(self, span: str, fn: Callable, key=None, size=None) -> Callable:
        """A wrapper recording one span per call of fn while active."""
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            start = clock()
            stack.append(0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                children = stack.pop()
                st = self.stats.get(span)
                if st is None:
                    st = self.stats[span] = SpanStats()
                st.calls += 1
                st.self_ns += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    self.root_ns += duration
                if key is not None:
                    st.keys.add(key(self, *args))
                if size is not None and result is not None:
                    for name, amount in size(args, result).items():
                        st.sizes[name] = st.sizes.get(name, 0) + amount

        return traced

    # -- accounting ------------------------------------------------------

    def check_accounting(self, wall_ns: int) -> tuple[bool, str]:
        """Self times must sum exactly to the root span durations, and
        the roots must fit inside the measured wall time of the pass."""
        total = sum(st.self_ns for st in self.stats.values())
        loop_ns = wall_ns - self.root_ns
        if total != self.root_ns:
            return False, (
                f"self times sum to {total} ns but root spans cover "
                f"{self.root_ns} ns"
            )
        if loop_ns < 0:
            return False, f"root spans exceed the pass wall time by {-loop_ns} ns"
        return True, f"self {total} ns + loop {loop_ns} ns == wall {wall_ns} ns"

    # -- installation ----------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target and rebind it wherever gpdkit refers to it."""
        replacements: dict[int, Callable] = {}
        for t in targets:
            home = sys.modules[t.module]
            holder = getattr(home, t.owner) if t.owner else home
            original = holder.__dict__[t.attr] if t.owner else getattr(home, t.attr)
            wrapped = self.wrap(t.span, original, t.key, t.size)
            replacements[id(original)] = wrapped
            if t.owner:
                self._set(holder, t.attr, wrapped)
        for name, module in sorted(sys.modules.items()):
            if name != "gpdkit" and not name.startswith("gpdkit."):
                continue
            for attr, value in list(vars(module).items()):
                new = _substitute(value, replacements)
                if new is not value:
                    self._set(module, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)
        self.active = False

    def _set(self, holder: object, attr: str, value: object) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)


def _substitute(value: object, replacements: dict[int, Callable]) -> object:
    """value with wrapped callables in place of originals, looking into
    tuples, lists and dicts; value itself when nothing is replaced."""
    if callable(value) and id(value) in replacements:
        return replacements[id(value)]
    if isinstance(value, (tuple, list)):
        items = [_substitute(v, replacements) for v in value]
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items)
    elif isinstance(value, dict):
        items = {k: _substitute(v, replacements) for k, v in value.items()}
        if any(items[k] is not value[k] for k in value):
            return items
    return value
