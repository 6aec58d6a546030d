"""From-outside span recorder for the layer budget (stdlib only).

The benchmark times layer boundaries by wrapping *public callables* of
``src/repro`` from here, not by reading the product's own tracer — the
instrument must keep measuring the same thing while ``obs/`` is being
reworked.  A span is ``(request, id, parent, name, start, end, busy)``;
``busy`` is the time the callable itself was running, which equals
``end - start`` for a plain call and is the summed *resume* time for a
generator (the consumer's time between resumes is not the generator's).

Self time of a span = its busy time minus the busy time of its direct
children, so the self times of one request add up to the busy time of
its top-level spans — the property the budget check relies on.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

_clock = time.perf_counter


@dataclass(slots=True)
class Span:
    request: int
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    busy: float = 0.0


class Recorder:
    """Collects spans in memory; one instance per traced pass.

    Single-threaded by design: the traced pass replays requests
    sequentially in the benchmark process, so "the span on top of the
    stack" is the caller of whatever starts next.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[Any, str, Any]] = []
        #: wrapped names that did not exist (their metrics report null)
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        stack = self._stack
        span = Span(self.request, len(self.spans),
                    stack[-1].span_id if stack else None, name, _clock())
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span, since: float) -> None:
        self._stack.pop()
        span.end = _clock()
        span.busy += span.end - since

    def timed(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped to run under a span named ``name``."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span, span.start)
        return wrapper

    def timed_iterator(self, name: str, func: Callable,
                       on_done: Optional[Callable] = None) -> Callable:
        """An iterator-returning ``func`` wrapped to run under *one*
        span whose busy time is the time spent inside the call and
        inside each resume — not the consumer's time between resumes.

        ``on_done(*args, **kwargs)`` runs when the iterator is finished
        with (counts that are only final then).
        """
        @functools.wraps(func)
        def wrapper(*args, **kwargs) -> Iterator:
            span = self._open(name)
            try:
                inner = iter(func(*args, **kwargs))
            finally:
                self._close(span, span.start)
            return resume(span, inner, args, kwargs)

        def resume(span: Span, inner: Iterator, args, kwargs) -> Iterator:
            stack = self._stack
            try:
                while True:
                    stack.append(span)
                    tick = _clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span, tick)
                    yield item
            finally:
                if on_done is not None:
                    on_done(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, *,
             generator: bool = False,
             on_done: Optional[Callable] = None) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Returns ``False`` (and remembers the name) when the attribute no
        longer exists, so a renamed boundary yields a null metric, not a
        crash.  Class methods, static methods and plain functions keep
        their binding behaviour.
        """
        raw = getattr(owner, "__dict__", {}).get(attr) \
            if owner is not None else None
        if raw is None:
            self.missing.append(name)
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        func = raw.__func__ if kind is not None else raw

        wrapper = self.timed_iterator(name, func, on_done) if generator \
            else self.timed(name, func)
        self.patch(owner, attr,
                   kind(wrapper) if kind is not None else wrapper)
        return True

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember what it was."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id → self time (busy minus direct children's busy)."""
        own = {span.span_id: span.busy for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.busy
        return own

    def totals_by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self and busy seconds, and span count."""
        own = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"self": 0.0, "busy": 0.0, "count": 0})
            row["self"] += own[span.span_id]
            row["busy"] += span.busy
            row["count"] += 1
        return table

    def dump(self, path) -> None:
        """One JSON line per span (name, start, end, busy, parent,
        request), written when the pass is over."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "request": span.request, "id": span.span_id,
                    "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end,
                    "busy": span.busy}) + "\n")
