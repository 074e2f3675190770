"""Span tracing from outside the program, for the benchmark's traced run.

:class:`Tracer` replaces a fixed set of public methods, at class level,
with timing wrappers inside :meth:`Tracer.installed`, and restores the
originals when the context ends. Every call becomes a :class:`Span` (name, start,
end, parent) kept in memory; :meth:`Tracer.write` dumps them when the
benchmark ends. The wrappers only observe: they call the original with
the same arguments and hand back its return value, so a traced run
follows the same trajectory as an untraced one.

Spans nest per thread (the sweep service runs its store calls on its own
thread), and each span is tagged with the benchmark phase that was open
when it started (``run``, ``record``, ``replay``, ...), so layer metrics
can be taken over the phase they belong to.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed call. ``info`` holds what the wrapper read at exit."""

    __slots__ = ("name", "start", "end", "parent", "phase", "child_time", "info")

    def __init__(self, name: str, parent: Optional["Span"], phase: str) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.phase = phase
        self.child_time = 0.0
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans."""
        return self.duration - self.child_time


def _targets() -> List[Tuple[type, str, str, Optional[Callable]]]:
    """``(class, method, span name, observe)`` for every wrapped boundary.

    ``observe(instance_or_cls, result)`` returns the span's ``info``.
    """
    from repro.core.candidates import EffectiveCandidateCache
    from repro.core.columnar import BatchContext, ColumnarIndex
    from repro.core.scheduler import HotScheduler
    from repro.core.world import World
    from repro.experiments.store import TrialStore
    from repro.trace.reader import TraceReader
    from repro.trace.writer import TraceWriter

    return [
        (HotScheduler, "next_event", "scheduler.next_event",
         lambda sched, event: (sched, event is not None)),
        (EffectiveCandidateCache, "refresh", "candidates.refresh",
         lambda cache, effective: (cache, len(effective))),
        (ColumnarIndex, "sync", "columnar.sync", None),
        (BatchContext, "inter_rows", "columnar.inter_rows", None),
        (World, "apply", "world.apply", None),
        (TraceWriter, "on_event", "trace.on_event", None),
        (TraceWriter, "write_checkpoint", "trace.checkpoint", None),
        (TraceWriter, "finalize", "trace.finalize",
         lambda writer, _path: writer.seq),
        (TraceReader, "load", "trace.load", None),
        (TrialStore, "get", "store.get", None),
        (TrialStore, "put", "store.put", None),
    ]


class Tracer:
    """Installs the wrappers and collects spans; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = ""
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.phase)
        self.spans.append(span)  # list.append is atomic across threads
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    def _wrap(self, func: Callable, name: str, observe: Optional[Callable]) -> Callable:
        tracer = self

        def wrapper(owner, *args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(owner, *args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                span.info = observe(owner, result)
            return result

        return wrapper

    # -- lifecycle ------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target method for the duration of the context."""
        saved: List[Tuple[type, str, Any]] = []
        try:
            for cls, method, name, observe in _targets():
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    patched: Any = classmethod(self._wrap(original.__func__, name, observe))
                else:
                    patched = self._wrap(original, name, observe)
                saved.append((cls, method, original))
                setattr(cls, method, patched)
            yield self
        finally:
            for cls, method, original in reversed(saved):
                setattr(cls, method, original)

    @contextmanager
    def open_phase(self, phase: str) -> Iterator[Span]:
        """A root span for one benchmark phase; nested spans inherit it."""
        previous, self.phase = self.phase, phase
        span = self._open(f"phase.{phase}")
        try:
            yield span
        finally:
            self._close(span)
            self.phase = previous

    # -- queries --------------------------------------------------------

    def select(self, name: str, phases: Optional[Tuple[str, ...]] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.name == name and (phases is None or s.phase in phases)
        ]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        ids: Dict[int, int] = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "phase": s.phase,
                }
                fh.write(json.dumps(record) + "\n")
