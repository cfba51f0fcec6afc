"""In-memory spans recorded around calls into the engine's modules.

A span is a name, a start and an end on the ``perf_counter`` clock, the
index of the span that encloses it, and the id of the operation it belongs
to. Spans are only ever recorded from the benchmark's side of each public
call, so the engine itself carries no instrumentation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans, each tagged with the current operation id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []

    def next_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def interpose(self, module: Any, attr: str, name: str) -> Iterator[None]:
        """Record a span around every call to ``module.attr`` made while the
        context is open. Callers that look the name up in ``module`` at call
        time, as a module's own functions do with what it imported, reach
        the wrapper; the engine itself is not changed."""
        original = getattr(module, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, original, *args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def totals(self, op: int) -> dict[str, float]:
        """Summed duration per span name within one operation."""
        out: dict[str, float] = {}
        for s in self.op_spans(op):
            out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def self_times(self, op: int) -> dict[str, float]:
        """Summed self time per span name within one operation: each span's
        duration minus the durations of its direct children."""
        out = self.totals(op)
        for s in self.op_spans(op):
            if s.parent is not None:
                parent = self.spans[s.parent]
                out[parent.name] -= s.duration
        return out

    def to_json(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]
