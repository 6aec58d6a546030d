"""Request tracing: a span tree per request, propagated end-to-end.

One request through the Figure 1 stack touches many layers — HTTP
accept, CGI dispatch, macro load and parse, variable substitution, one
or more SQL executions, report rendering, emission.  The tracer records
that as a tree of **spans**, all carrying one **trace id** that is

* generated where the request enters (:mod:`repro.http.async_server` /
  :class:`repro.http.router.Router`),
* threaded through the CGI environment (``REPRO_TRACE_ID`` — so a
  subprocess CGI run and the app-server worker see it),
* carried across the app-server's frames and back: a worker runs its
  own span tree under the propagated id and ships it home in the
  RESPONSE frame as flat rows (:meth:`Span.export`), where the
  dispatcher grafts them into the live request trace
  (:meth:`Tracer.graft`).

The current span travels in a :mod:`contextvars` context variable, so
nested layers need no plumbing and the streaming-generator path stays
correct (the router re-activates the request span around each chunk it
pulls — see :meth:`ActiveSpan.activate`).

**Gating**: the tracer is off by default.  Every instrumentation point
first checks :attr:`Tracer.enabled` (an attribute read) and, when off,
:meth:`Tracer.span` returns a shared no-op context manager — the no-op
cost of the whole subsystem is a dict lookup per request, and the
*enabled* cost is bounded by the ≤5% bar of
``benchmarks/bench_obs_overhead.py``.

Finished root spans are delivered to **sinks** (the structured request
log, the slow-query log, the metrics bridge — see
:mod:`repro.obs.sinks`); a sink that raises is disabled for the
delivery, never the request.
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import os
import threading
import time
from typing import Callable, Iterator, Optional

from repro.errors import CgiProtocolError

__all__ = ["Span", "ActiveSpan", "Tracer", "TRACER", "new_trace_id",
           "TraceSummary", "summarize",
           "statement_digest"]

_current_span: contextvars.ContextVar[Optional["Span"]] = \
    contextvars.ContextVar("repro_current_span", default=None)

# itertools.count.__next__ is atomic in CPython, so neither counter
# needs a lock; both sit on the per-request hot path.
_span_ids = itertools.count(1)
_trace_counter = itertools.count(1)

_digest_cache: dict[str, str] = {}
_DIGEST_CACHE_LIMIT = 1024


def new_trace_id() -> str:
    """A process-unique trace id: pid, coarse time, and a counter."""
    return (f"{_pid_prefix()}-{int(time.time()):x}-"
            f"{next(_trace_counter) & 0xFFFF:04x}")


def _pid_prefix() -> str:
    # Re-derived on pid change so forked workers (the app server) mint
    # ids under their own pid, not the parent's cached one.
    global _PID, _PID_HEX
    pid = os.getpid()
    if pid != _PID:
        _PID, _PID_HEX = pid, f"{pid:x}"
    return _PID_HEX


_PID = -1
_PID_HEX = ""


def statement_digest(sql: str) -> str:
    """A short stable digest of one SQL statement's text.

    Slow-query log lines and ``sql.execute`` spans carry this so
    operators can group occurrences of the same (dynamically assembled)
    statement without shipping the full text everywhere.  Digests are
    memoised: a server executes the same handful of (assembled)
    statements over and over, and hashing is hot-path work.
    """
    digest = _digest_cache.get(sql)
    if digest is None:
        digest = hashlib.sha1(
            sql.encode("utf-8", "replace")).hexdigest()[:12]
        if len(_digest_cache) >= _DIGEST_CACHE_LIMIT:
            _digest_cache.clear()
        _digest_cache[sql] = digest
    return digest


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start",
                 "end", "_attrs", "_children", "remote")

    def __init__(self, name: str, trace_id: str,
                 parent_id: Optional[int] = None,
                 attrs: Optional[dict] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        # attrs/children stay unallocated until used: most spans carry
        # neither, and several are minted per request.
        self._attrs: Optional[dict] = attrs
        self._children: Optional[list[Span]] = None
        #: True for spans rebuilt from an exported tree (another
        #: process's clock); their offsets are relative to the graft
        #: root, not this process's request span.
        self.remote = False

    @property
    def attrs(self) -> dict:
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = {}
        return attrs

    @property
    def children(self) -> list["Span"]:
        children = self._children
        if children is None:
            children = self._children = []
        return children

    def add_child(self, span: "Span") -> None:
        children = self._children
        if children is None:
            self._children = [span]
        else:
            children.append(span)

    def set(self, key: str, value) -> None:
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = {}
        attrs[key] = value

    @property
    def duration_ms(self) -> float:
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1000.0

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        if self._children:
            for child in self._children:
                yield from child.walk()

    def phase_totals(self) -> dict[str, float]:
        """Total milliseconds per span name across the subtree."""
        totals: dict[str, float] = {}
        for span in self.walk():
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + span.duration_ms)
        return {name: round(ms, 3) for name, ms in totals.items()}

    # -- the trace-log form -------------------------------------------------

    def to_dict(self) -> dict:
        """Nested JSON-ready form; offsets are relative to the parent."""
        return self._to_dict(parent=None)

    def _to_dict(self, parent: Optional["Span"]) -> dict:
        if parent is None or parent.remote != self.remote:
            offset = 0.0
        else:
            offset = (self.start - parent.start) * 1000.0
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "offset_ms": round(offset, 3),
            "duration_ms": round(self.duration_ms, 3),
        }
        if self._attrs:
            record["attrs"] = dict(self._attrs)
        if self._children:
            record["children"] = [child._to_dict(self)
                                  for child in self._children]
        return record

    # -- the cross-process form --------------------------------------------

    def export(self) -> list[list]:
        """This subtree as flat rows, for another process to graft.

        One row per span, depth-first from this one: ``[name,
        parent_row, offset_us, duration_us, attrs]``.  ``parent_row``
        indexes an earlier row (``-1`` on this span's own row), offsets
        count from this span's start, and both times are whole
        microseconds.  No ids travel: the grafting side mints its own
        under its own trace (:meth:`from_rows`).
        """
        base = self.start
        rows: list[list] = []
        stack: list[tuple[Span, int]] = [(self, -1)]
        while stack:
            span, parent_row = stack.pop()
            end = span.end
            rows.append([span.name, parent_row,
                         int((span.start - base) * 1e6),
                         0 if end is None else int((end - span.start) * 1e6),
                         span._attrs or {}])
            if span._children:
                stack += zip(reversed(span._children),
                             itertools.repeat(len(rows) - 1))
        return rows

    @classmethod
    def from_rows(cls, rows: list, trace_id: str,
                  parent_id: Optional[int] = None) -> "Span":
        """Rebuild an exported subtree (:meth:`export`) in ``trace_id``.

        Timing is reconstructed on a synthetic clock: the rebuilt root
        starts at 0 and every span at its recorded offset, so durations
        and layout survive while absolute times (another process's
        ``perf_counter``) do not.  Every rebuilt span is ``remote``.
        The rows come off a socket, so a malformed one — not five
        fields of the exported types, or a parent row that is not an
        earlier row (``-1`` on row 0 only) — raises
        :class:`~repro.errors.CgiProtocolError`.
        """
        spans: list[Span] = []
        for index, row in enumerate(rows):
            if type(row) is not list or list(map(type, row)) != _ROW_TYPES:
                raise CgiProtocolError(
                    f"span row {index} is not [str, int, int, int, dict]")
            name, parent_row, offset_us, duration_us, attrs = row
            if index == 0 and parent_row == -1:
                span = cls(name, trace_id, parent_id, attrs or None)
            elif 0 <= parent_row < index:
                parent = spans[parent_row]
                span = cls(name, trace_id, parent.span_id, attrs or None)
                parent.add_child(span)
            else:
                raise CgiProtocolError(
                    f"span row {index} names parent row {parent_row}")
            span.start = offset_us / 1e6
            span.end = span.start + duration_us / 1e6
            span.remote = True
            spans.append(span)
        if not spans:
            raise CgiProtocolError("no span rows to rebuild")
        return spans[0]


#: The field types of one exported row (``type(True)`` is not ``int``),
#: compared as lists: see ``repro.appserver.protocol._ENV_TYPES``.
_ROW_TYPES = [str, int, int, int, dict]


class TraceSummary:
    """One walk's worth of facts about a finished trace.

    Every aggregating consumer of a delivered root needs the same
    traversal: per-phase duration totals, the ``sql.execute`` spans,
    and whether anything in the tree errored.  Walking once and
    fanning the summary out (see :class:`repro.obs.sinks.FanoutSink`)
    keeps the per-request delivery cost flat no matter how many
    consumers are wired — this sits on the hot path of every traced
    request, inside the ≤5% overhead bar.
    """

    __slots__ = ("root", "totals", "sql_spans", "has_error")

    def __init__(self, root: "Span", totals: dict,
                 sql_spans: Optional[list], has_error: bool):
        self.root = root
        #: span name -> total milliseconds across the tree.
        self.totals = totals
        #: every ``sql.execute`` span, in delivery order (or ``None``).
        self.sql_spans = sql_spans
        #: True when any span in the tree carries an ``error`` attr.
        self.has_error = has_error


#: Span name the SQL-aware consumers match (one definition would be
#: circular: sinks and sql.digest both mirror this string).
_SQL_SPAN = "sql.execute"


def summarize(root: "Span") -> TraceSummary:
    """Collect a :class:`TraceSummary` in one iterative walk."""
    totals: dict[str, float] = {}
    sql_spans: Optional[list] = None
    has_error = False
    stack = [root]
    while stack:
        span = stack.pop()
        children = span._children
        if children:
            stack.extend(children)
        name = span.name
        end = span.end
        duration = 0.0 if end is None else (end - span.start) * 1000.0
        if name in totals:
            totals[name] += duration
        else:
            totals[name] = duration
        attrs = span._attrs
        if attrs:
            if "error" in attrs:
                has_error = True
            if name == _SQL_SPAN:
                if sql_spans is None:
                    sql_spans = [span]
                else:
                    sql_spans.append(span)
        elif name == _SQL_SPAN:
            if sql_spans is None:
                sql_spans = [span]
            else:
                sql_spans.append(span)
    return TraceSummary(root, totals, sql_spans, has_error)


class ActiveSpan:
    """A begun span plus its context activation, for explicit lifecycles.

    The router uses this shape because a streaming response outlives
    ``Router.handle``: the span deactivates when handle returns and is
    re-activated around each chunk the transport pulls, finishing only
    when the stream closes.
    """

    __slots__ = ("tracer", "span", "_token", "_finished")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span
        self._token = _current_span.set(span)
        self._finished = False

    def activate(self) -> None:
        """Make this span current again (streaming re-entry)."""
        if self._token is None:
            self._token = _current_span.set(self.span)

    def deactivate(self) -> None:
        """Restore the previous current span."""
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None

    def finish(self) -> None:
        """End the span, restore context, deliver a finished root."""
        if self._finished:
            return
        self._finished = True
        self.deactivate()
        self.span.finish()
        if self.span.parent_id is None:
            self.tracer._deliver(self.span)


class _NoopSpan:
    """Absorbs attribute writes when tracing is off."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass


class _NoopContext:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc_info: object) -> None:
        pass


NOOP_SPAN = _NoopSpan()
_NOOP_CONTEXT = _NoopContext()


class _SpanContext:
    """Context manager for one interior span."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _current_span.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> None:
        _current_span.reset(self._token)
        self._span.finish()
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        if self._span.parent_id is None:
            self._tracer._deliver(self._span)


class Tracer:
    """The process-wide span factory and sink fan-out."""

    def __init__(self) -> None:
        #: The gate every instrumentation point checks first.
        self.enabled = False
        self._sinks: list[Callable[[Span], None]] = []
        #: immutable snapshot delivery iterates — rebuilt under the
        #: lock on every add/remove, read lock-free per request.
        self._sinks_snapshot: tuple[Callable[[Span], None], ...] = ()
        self._lock = threading.Lock()

    # -- configuration -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        """Register a callable invoked with every finished root span."""
        with self._lock:
            self._sinks.append(sink)
            self._sinks_snapshot = tuple(self._sinks)

    def remove_sink(self, sink: Callable[[Span], None]) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
            self._sinks_snapshot = tuple(self._sinks)

    def clear_sinks(self) -> None:
        with self._lock:
            self._sinks.clear()
            self._sinks_snapshot = ()

    # -- span creation -----------------------------------------------------

    def span(self, name: str, attrs: Optional[dict] = None):
        """Context manager for one span under the current one.

        With tracing off (or on a thread with no active request span
        and no need for a root — a bare ``span`` call still roots its
        own trace) the disabled path returns a shared no-op.
        """
        if not self.enabled:
            return _NOOP_CONTEXT
        parent = _current_span.get()
        if parent is None:
            span = Span(name, new_trace_id(), None, attrs)
        else:
            span = Span(name, parent.trace_id, parent.span_id, attrs)
            parent.add_child(span)
        return _SpanContext(self, span)

    def leaf(self, name: str) -> Optional[Span]:
        """A started child :class:`Span` under the current span, or
        ``None`` when tracing is off or no span is current.

        For hot leaf phases (variable substitution runs several times
        per request): the span is attached but *not* made current, so
        the caller skips the context-variable set/reset a ``with
        span(...)`` pays.  The caller must ``finish()`` it.
        """
        if not self.enabled:
            return None
        parent = _current_span.get()
        if parent is None:
            return None
        span = Span(name, parent.trace_id, parent.span_id)
        parent.add_child(span)
        return span

    def begin(self, name: str, *, trace_id: Optional[str] = None,
              attrs: Optional[dict] = None) -> Optional[ActiveSpan]:
        """Open a root span with an explicit lifecycle.

        Returns ``None`` when tracing is off, so callers can keep a
        single ``if act is not None`` guard.
        """
        if not self.enabled:
            return None
        span = Span(name, trace_id or new_trace_id(), None, attrs)
        return ActiveSpan(self, span)

    def child_of(self, parent: Optional[Span],
                 name: str) -> Optional[Span]:
        """A started child of an *explicit* parent span (cross-thread).

        The scatter-gather merge hands each shard worker a span created
        on the request thread — creating them there, before the workers
        start, keeps ``parent``'s lazy child-list initialisation
        single-threaded.  Returns ``None`` when tracing is off or there
        is no parent; the caller must ``finish()`` it.
        """
        if not self.enabled or parent is None:
            return None
        span = Span(name, parent.trace_id, parent.span_id)
        parent.add_child(span)
        return span

    # -- context introspection ---------------------------------------------

    def current(self) -> Optional[Span]:
        return _current_span.get()

    def current_trace_id(self) -> str:
        span = _current_span.get()
        return span.trace_id if span is not None else ""

    # -- cross-process stitches --------------------------------------------

    def graft(self, rows: list) -> Optional[Span]:
        """Attach exported span rows (:meth:`Span.export`) under the
        current span, in its trace.

        This is how worker-side spans join the dispatcher's trace: the
        RESPONSE frame carries the worker's rows, the dispatcher grafts
        them while its request span is still current.  No-op without an
        active span (nothing to graft onto).  Malformed rows raise
        :class:`~repro.errors.CgiProtocolError` and attach nothing.
        """
        parent = _current_span.get()
        if not self.enabled or parent is None or not rows:
            return None
        grafted = Span.from_rows(rows, parent.trace_id, parent.span_id)
        parent.add_child(grafted)
        return grafted

    # -- delivery ----------------------------------------------------------

    def _deliver(self, root: Span) -> None:
        for sink in self._sinks_snapshot:
            try:
                sink(root)
            except Exception:  # noqa: BLE001 - observability must never
                pass           # take the request down


#: The process-wide tracer every layer imports.  Disabled by default;
#: ``repro serve`` (and the worker processes it spawns) enable it.
TRACER = Tracer()
