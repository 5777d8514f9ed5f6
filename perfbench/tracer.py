"""An in-memory span tracer for the benchmark's traced runs.

The benchmark records a span around each public call it makes into a
layer of the program, and around instance-level wrappers it installs on
objects it receives (sessions, networks, the service).  Nothing inside
the program is changed.  A span is ``(name, start, end, parent, attrs)``
on the ``perf_counter`` clock; spans are kept in memory and written out
once, at the end of the run.

A span's *self time* is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, context managers), so the
self times of a tree add up to the root's duration.  :data:`TOLERANCE`
bounds how far that sum may sit from a stopwatch the caller holds around
the same operation, which covers the tracer's own bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Allowed gap between the summed self times of an operation's span tree
#: and an independent stopwatch around it: 1% of the stopwatch plus 2 ms.
TOLERANCE = (0.01, 0.002)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_time")

    def __init__(self, name: str, start: float, parent: Optional[int], attrs: Dict[str, Any]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += record.duration

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        attrs_of: Optional[Callable[..., Dict[str, Any]]] = None,
        after: Optional[Callable[[Span, Any], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a traced wrapper on the instance itself.

        *attrs_of* maps the call's arguments to span attributes; *after*
        sees the span and the return value (for attributes known only
        once the call returns).  Wrapping the same attribute twice is a
        no-op, so shared objects can be offered more than once.
        """
        if attr in vars(obj):
            return
        original = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(name, **attrs) as record:
                value = original(*args, **kwargs)
                if after is not None and record is not None:
                    after(record, value)
                return value

        setattr(obj, attr, traced)

    def tree(self, root: Span) -> List[Span]:
        """*root* and every span below it."""
        index = self.spans.index(root)
        inside = {index}
        members = [root]
        for position in range(index + 1, len(self.spans)):
            span = self.spans[position]
            if span.parent in inside:
                inside.add(position)
                members.append(span)
        return members

    def self_time_by_name(self, spans: List[Span]) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "self": span.self_time,
                            "attrs": span.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


def within_tolerance(summed: float, stopwatch: float) -> bool:
    relative, absolute = TOLERANCE
    return abs(summed - stopwatch) <= relative * stopwatch + absolute
