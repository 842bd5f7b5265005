"""Outside-in tracing: wrap the program's public entry points from here.

Nothing under ``src/`` knows it is being measured.  A :class:`Patcher`
swaps a public function or method for a wrapper and puts the original
back afterwards; functions are replaced in every loaded ``repro`` module
that bound them at import time (``from repro.codec.motion import
estimate_motion`` gives ``repro.core.agent`` its own reference).

A :class:`Tracer` keeps one span stack per thread, so a span's *self*
time is its duration minus the time its child spans on the same thread
cover.  A call that re-enters the span already on top of its thread's
stack (``super().transmit`` inside an overriding ``transmit``) stays part
of that span: one boundary crossing, one span.  Spans are kept in memory
and read out once the run is over.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Patcher", "Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One finished span: a crossing of a layer boundary on one thread."""

    name: str
    thread: int
    start: float
    end: float
    self_s: float
    parent: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patcher:
    """Replaces attributes and restores every original on :meth:`restore`."""

    #: Only the program's own modules are searched for bound names.
    PREFIX = "repro"

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls: type, attr: str, make_wrapper) -> None:
        """Wrap ``cls.attr`` (a plain function defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(original))
        self._undo.append((cls, attr, original))

    def function(self, func, make_wrapper) -> None:
        """Wrap ``func`` under its name in every module that bound it."""
        wrapper = make_wrapper(func)
        name = func.__name__
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.PREFIX or mod_name.startswith(self.PREFIX + ".")):
                continue
            if getattr(module, name, None) is func:
                setattr(module, name, wrapper)
                self._undo.append((module, name, func))
                hits += 1
        if not hits:
            raise LookupError(f"{func.__module__}.{name} is bound in no loaded {self.PREFIX} module")

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Per-thread span stacks with self time, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def enter(self, name: str) -> bool:
        """Open a span; ``False`` when ``name`` is already on top (re-entry)."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return False
        stack.append([name, self._clock(), 0.0])
        return True

    def exit(self) -> None:
        """Close the innermost open span of the calling thread."""
        stack = self._stack()
        name, start, child = stack.pop()
        end = self._clock()
        duration = end - start
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        span = Span(name, threading.get_ident(), start, end, duration - child, parent)
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside span ``name``; ``after(result, args, kwargs)`` runs
        once per opened span, after the span closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if opened:
                    self.exit()
            if opened and after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # ---------------------------------------------------------- read-out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_by_name(self, thread: int | None = None) -> dict[str, float]:
        """Self seconds per span name (on one thread, or all)."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if thread is None or s.thread == thread:
                out[s.name] += s.self_s
        return dict(out)
