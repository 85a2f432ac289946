"""Spans recorded from outside the program, kept in memory until the pass ends.

A span is ``{"name", "start", "end", "parent", "op"}``: times are seconds
since the tracer was created, ``parent`` is the index of the enclosing
span (``None`` for a root) and ``op`` the identifier every span of one
operation shares.  The benchmark opens spans in two ways, both from its
own files: explicitly, ``with tracer.span("jobs.run", op=3): handle.run()``,
and by :meth:`Tracer.patched`, which for the duration of a block replaces
public methods of the program (``JoinSession.run``, ``ShardPlan.build`` …)
with wrappers that open a span around the original — so the spans of the
layers *inside* ``JobHandle.run()`` nest under the benchmark's own span
without a line of ``src/`` changing.

A layer's self time is its span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Span = Dict[str, object]
#: ``(owner class, attribute, span name)``.
Target = Tuple[type, str, str]


class Tracer:
    """Collects spans; one instance per traced pass (thread-safe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: Optional[float],
        parent: Optional[int] = None,
        op: Optional[int] = None,
    ) -> int:
        """Record a span from ``perf_counter`` readings; returns its index."""
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        span = {
            "name": name,
            "start": start - self._epoch,
            "end": None if end is None else end - self._epoch,
            "parent": parent,
            "op": op,
        }
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[int]:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        index = self.add(
            name, time.perf_counter(), None, stack[-1] if stack else None, op
        )
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter() - self._epoch

    def _wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap each target method in a span for the duration of the block."""
        undo = []
        try:
            for owner, attribute, name in targets:
                raw = inspect.getattr_static(owner, attribute)
                undo.append((owner, attribute, raw, attribute in vars(owner)))
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapper = self._wrap(raw, name)
                setattr(owner, attribute, wrapper)
            yield
        finally:
            for owner, attribute, raw, owned in reversed(undo):
                if owned:
                    setattr(owner, attribute, raw)
                else:
                    delattr(owner, attribute)

    def total(self, name: str, op: Optional[int] = None) -> Optional[float]:
        """Summed duration of the spans called ``name`` (of one op, if given)."""
        durations = [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and (op is None or span["op"] == op)
        ]
        return sum(durations) if durations else None


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    result = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            result[span["parent"]] -= span["end"] - span["start"]
    return result


def summarise(spans: Sequence[Span], op: int) -> Dict[str, Dict[str, float]]:
    """Per span name, over the spans of one op: count, duration, self time."""
    summary: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        if span["op"] != op:
            continue
        row = summary.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own
    return summary


def nesting_problems(spans: Sequence[Span], slack: float = 1e-6) -> List[str]:
    """Every span that is open-ended, escapes its parent, or has negative
    self time (children of one thread never overlap, so they must fit)."""
    problems = []
    for index, span in enumerate(spans):
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {index} ({span['name']}) never closed")
            continue
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            if (
                span["start"] < parent["start"] - slack
                or span["end"] > parent["end"] + slack
            ):
                problems.append(
                    f"span {index} ({span['name']}) escapes its parent "
                    f"{span['parent']} ({parent['name']})"
                )
    if not problems:
        for index, own in enumerate(self_times(spans)):
            if own < -slack:
                problems.append(
                    f"span {index} ({spans[index]['name']}) has negative "
                    f"self time {own:.6f}"
                )
    return problems
