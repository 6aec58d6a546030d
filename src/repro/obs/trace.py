"""Request tracing: one record per request, propagated end-to-end.

One request through the Figure 1 stack touches many layers — HTTP
accept, CGI dispatch, macro load and parse, variable substitution, one
or more SQL executions, report rendering, emission.  The tracer records
that as one :class:`Trace` per request: a **trace id** and the request's
spans as **flat rows**, in the shape the app-server frame carries them
(:meth:`Span.export`)::

    [name, parent_row, start, end, attrs]

``parent_row`` indexes an earlier row (``-1`` on the root, row 0);
``start``/``end`` are this process's ``perf_counter`` seconds (``end``
is ``None`` while the span runs) and export as whole microseconds.  The
instrumentation points fill the record as the request runs: a hot
site appends its row with :meth:`Trace.open` and sets its ``END``; an
enclosing span is a ``with tracer.span(...)`` block.  The trace id is

* generated where the request enters (:mod:`repro.http.async_server` /
  :class:`repro.http.router.Router`),
* threaded through the CGI environment (``REPRO_TRACE_ID`` — so a
  subprocess CGI run and the app-server worker see it),
* carried across the app-server's frames and back: a worker records its
  own trace under the propagated id and ships its rows home in the
  RESPONSE frame, where the dispatcher appends them to the live
  request's record (:meth:`Tracer.graft`).

The request's record travels in a :mod:`contextvars` context variable,
so nested layers need no plumbing and the streaming path stays correct
(the router re-activates the record around each chunk it pulls — see
:meth:`Trace.activate`).

**Gating**: the tracer is off by default.  Every instrumentation point
first asks :meth:`Tracer.current` (an attribute read and a context
variable read) and does nothing without a record.  Enabled, a
``report_hot`` request that reuses a kept page fills three rows; served,
default tracing costs it ~7.9 µs of CPU against ``--no-trace`` (the
harness's ``obs.cpu_us_per_request``, median of 4 pairs on a 2-core
x86 host; ~12.6 µs with the span tree this record replaced), about a
fifth of the request (``docs/observability.md`` §4).

A finished record is delivered to **sinks**, plain callables: the
metrics bridge and the statement-digest store fold its rows in one
pass; the trace log, the slow-query log and the tail sampler read it as
a span tree — a :class:`Trace` *is* its root :class:`Span`, a view
whose tree (children, :meth:`Span.walk`, :meth:`Span.to_dict`) is
derived from the rows only when read.  A sink that raises is skipped
for the delivery, never the request.
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

__all__ = ["Span", "Trace", "Tracer", "TRACER", "new_trace_id",
           "statement_digest", "NAME", "PARENT", "START", "END", "ATTRS"]

#: The fields of one row (see the module docstring).
NAME, PARENT, START, END, ATTRS = range(5)

_current_trace: contextvars.ContextVar[Optional["Trace"]] = \
    contextvars.ContextVar("repro_current_trace", default=None)

_perf_counter = time.perf_counter

# itertools.count.__next__ is atomic in CPython, so the counter needs
# no lock; it sits on the per-request hot path.
_trace_counter = itertools.count(1)

_digest_cache: dict[str, str] = {}
_DIGEST_CACHE_LIMIT = 1024


def new_trace_id() -> str:
    """A process-unique trace id: pid, coarse time, and a counter."""
    global _PREFIX
    now = int(_time())
    second, prefix = _PREFIX
    if now != second:
        prefix = f"{os.getpid():x}-{now:x}-"
        _PREFIX = (now, prefix)
    return prefix + "%04x" % (next(_trace_counter) & 0xFFFF)


def _forget_prefix() -> None:
    # A forked child (an acceptor process) mints ids under its own pid.
    global _PREFIX
    _PREFIX = (-1, "")


_time = time.time
#: (second, "pid-second-") of the last id minted
_PREFIX = (-1, "")
os.register_at_fork(after_in_child=_forget_prefix)


def statement_digest(sql: str) -> str:
    """A short stable digest of one SQL statement's raw text.

    Memoised: a server executes the same handful of (assembled)
    statements over and over, and hashing is hot-path work.  The
    ``sql.execute`` rows carry the *normalised* digest instead
    (:func:`repro.sql.digest.statement_digest`).
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
    """One row of a :class:`Trace`, read as a node of its span tree.

    A view: it holds the record's rows and an index, so reading the
    tree costs nothing until a reader asks for it, and setting a field
    writes the row.  The span id is the row index; the root's parent id
    is ``None``.
    """

    __slots__ = ("rows", "index", "trace_id")

    def __init__(self, rows: list, index: int, trace_id: str):
        self.rows = rows
        self.index = index
        self.trace_id = trace_id

    def __eq__(self, other: object) -> bool:
        """Two views of the same row are the same span."""
        return (isinstance(other, Span) and other.rows is self.rows
                and other.index == self.index)

    def __hash__(self) -> int:
        return hash((id(self.rows), self.index))

    @property
    def name(self) -> str:
        return self.rows[self.index][NAME]

    @property
    def span_id(self) -> int:
        return self.index

    @property
    def parent_id(self) -> Optional[int]:
        parent = self.rows[self.index][PARENT]
        return None if parent < 0 else parent

    @property
    def start(self) -> float:
        return self.rows[self.index][START]

    @start.setter
    def start(self, value: float) -> None:
        self.rows[self.index][START] = value

    @property
    def end(self) -> Optional[float]:
        return self.rows[self.index][END]

    @end.setter
    def end(self, value: Optional[float]) -> None:
        self.rows[self.index][END] = value

    @property
    def attrs(self) -> dict:
        row = self.rows[self.index]
        attrs = row[ATTRS]
        if attrs is None:
            attrs = row[ATTRS] = {}
        return attrs

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    @property
    def duration_ms(self) -> float:
        row = self.rows[self.index]
        end = row[END]
        return 0.0 if end is None else (end - row[START]) * 1000.0

    def finish(self) -> None:
        row = self.rows[self.index]
        if row[END] is None:
            row[END] = _perf_counter()

    # -- the tree, derived from the rows -----------------------------------

    def _kids(self) -> dict[int, list[int]]:
        """Row index -> child row indexes, for the rows after this one
        (a child always comes after its parent)."""
        kids: dict[int, list[int]] = {}
        rows = self.rows
        for index in range(self.index + 1, len(rows)):
            kids.setdefault(rows[index][PARENT], []).append(index)
        return kids

    @property
    def children(self) -> list["Span"]:
        rows, index, trace_id = self.rows, self.index, self.trace_id
        return [Span(rows, child, trace_id)
                for child in self._kids().get(index, ())]

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        kids = self._kids()
        rows, trace_id = self.rows, self.trace_id
        stack = [self.index]
        while stack:
            index = stack.pop()
            yield Span(rows, index, trace_id)
            stack.extend(reversed(kids.get(index, ())))

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
        return self._to_dict(self.index, self._kids(), None)

    def _to_dict(self, index: int, kids: dict, parent_start) -> dict:
        name, _, start, end, attrs = self.rows[index]
        record = {
            "name": name,
            "trace_id": self.trace_id,
            "span_id": index,
            "offset_ms": 0.0 if parent_start is None
            else round((start - parent_start) * 1000.0, 3),
            "duration_ms": 0.0 if end is None
            else round((end - start) * 1000.0, 3),
        }
        if attrs:
            record["attrs"] = dict(attrs)
        children = kids.get(index)
        if children:
            record["children"] = [self._to_dict(child, kids, start)
                                  for child in children]
        return record

    # -- the cross-process form --------------------------------------------

    def export(self) -> list[list]:
        """This subtree as rows for another process: ``[name,
        parent_row, offset_us, duration_us, attrs]``, parents before
        children in the order they started.  ``parent_row`` indexes an
        earlier exported row (``-1`` on this span's own row); offsets
        count from this span's start, both times in whole (rounded)
        microseconds.  No ids travel: the receiving side appends the
        rows to its own record (:meth:`Tracer.graft`)."""
        rows = self.rows
        first = self.index
        base = rows[first][START]
        if first == 0:
            picked = rows
            parents = None
        else:
            position = {first: 0}
            picked = [rows[first]]
            parents = [-1]
            for index in range(first + 1, len(rows)):
                parent = rows[index][PARENT]
                if parent in position:
                    position[index] = len(picked)
                    picked.append(rows[index])
                    parents.append(position[parent])
        exported = []
        for at, (name, parent, start, end, attrs) in enumerate(picked):
            exported.append([
                name, parent if parents is None else parents[at],
                round((start - base) * 1e6),
                0 if end is None else round((end - start) * 1e6),
                attrs or {}])
        return exported

    @classmethod
    def from_rows(cls, rows: list, trace_id: str) -> "Trace":
        """A finished record of exported rows (:meth:`export`) under
        ``trace_id``, on a synthetic clock (each span starts at its
        recorded offset), ready to read or deliver.  Malformed rows
        raise :class:`~repro.errors.CgiProtocolError`."""
        _check_rows(rows)
        trace = Trace(None, rows[0][NAME], trace_id, rows[0][ATTRS] or None)
        trace._finished = True
        trace.rows = _local_rows(rows, 0.0, 0)
        return trace


#: The field types of one exported row (``type(True)`` is not ``int``),
#: compared as lists: see ``repro.appserver.protocol._ENV_TYPES``.
_ROW_TYPES = [str, int, int, int, dict]


def _check_rows(rows: list) -> None:
    """Raise :class:`CgiProtocolError` unless ``rows`` are exported rows:
    each five fields of the exported types, row 0 the only root, every
    other row's parent an earlier row.  The rows come off a socket."""
    if not rows:
        raise CgiProtocolError("no span rows to rebuild")
    for index, row in enumerate(rows):
        if type(row) is not list or list(map(type, row)) != _ROW_TYPES:
            raise CgiProtocolError(
                f"span row {index} is not [str, int, int, int, dict]")
        parent_row = row[PARENT]
        if not (index == 0 and parent_row == -1
                or 0 <= parent_row < index):
            raise CgiProtocolError(
                f"span row {index} names parent row {parent_row}")


def _local_rows(rows: list, base: float, shift: int) -> list[list]:
    """Exported rows as live ones: row 0 starts at ``base``, the others
    at their offsets from it; parents move by ``shift`` rows (row 0's
    parent is the caller's to set)."""
    first = rows[0][START]
    local = []
    for name, parent, offset_us, duration_us, attrs in rows:
        start = base + (offset_us - first) / 1e6
        local.append([name, parent + shift if parent >= 0 else -1,
                      start, start + duration_us / 1e6, attrs or None])
    return local


class Trace(Span):
    """One request's record: its trace id and its spans as flat rows.

    A trace is also its own root :class:`Span` (row 0).  The router
    (and the worker) owns its lifecycle: :meth:`activate` makes it the
    record the instrumentation points fill, :meth:`deactivate` stops
    that across a streaming ``yield``, :meth:`finish` ends the root and
    delivers the record to the tracer's sinks.
    """

    __slots__ = ("tracer", "parent", "_token", "_finished")

    def __init__(self, tracer: Optional["Tracer"], name: str,
                 trace_id: str, attrs: Optional[dict] = None):
        self.rows = [[name, -1, _perf_counter(), None, attrs]]
        self.index = 0
        self.trace_id = trace_id
        self.tracer = tracer
        #: the row new spans attach under: the innermost open
        #: ``tracer.span`` block, else the root
        self.parent = 0
        self._token = None
        self._finished = False

    def open(self, name: str, attrs: Optional[dict] = None,
             start: Optional[float] = None,
             parent: Optional[int] = None) -> list:
        """Append a started row and return it: under ``parent`` (a row
        index), by default the current parent.

        For the hot sites: the row is not made the parent of later
        spans, and the caller ends it by setting ``row[END]`` (or
        accrues into it).
        """
        row = [name, self.parent if parent is None else parent,
               _perf_counter() if start is None else start, None, attrs]
        self.rows.append(row)
        return row

    def graft(self, rows: list) -> Span:
        """Append another process's exported rows (:meth:`Span.export`)
        under the current parent, their root starting where the parent
        started (the clocks are not comparable; the offsets inside the
        grafted rows are kept).  Malformed rows raise
        :class:`~repro.errors.CgiProtocolError` and attach nothing."""
        _check_rows(rows)
        own = self.rows
        parent = self.parent
        local = _local_rows(rows, own[parent][START], len(own))
        local[0][PARENT] = parent
        grafted = len(own)
        own.extend(local)
        return Span(own, grafted, self.trace_id)

    # -- lifecycle -----------------------------------------------------------

    def activate(self) -> None:
        """Make this the record the current context fills."""
        if self._token is None:
            self._token = _current_trace.set(self)

    def deactivate(self) -> None:
        """Restore the previous record (streaming: across a yield)."""
        if self._token is not None:
            _current_trace.reset(self._token)
            self._token = None

    def finish(self) -> None:
        """End the root, restore the context, deliver the record to the
        tracer's sinks (a sink that raises is skipped, never the
        request)."""
        if self._finished:
            return
        self._finished = True
        if self._token is not None:
            _current_trace.reset(self._token)
            self._token = None
        root = self.rows[0]
        if root[END] is None:
            root[END] = _perf_counter()
        if self.tracer is not None:
            for sink in self.tracer._sinks_snapshot:
                try:
                    sink(self)
                except Exception:  # noqa: BLE001 - observability must
                    pass           # never take the request down


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
    """``with tracer.span(name)``: an enclosing span of the current
    record (the parent of spans opened inside the block), or — with no
    record current — a new record of its own, delivered on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_trace", "_index",
                 "_outer")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Optional[dict]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        trace = _current_trace.get()
        if trace is None:
            trace = Trace(self._tracer, self._name, new_trace_id(),
                          self._attrs)
            trace.activate()
            self._trace, self._index = trace, 0
            return trace
        self._trace = trace
        self._index = len(trace.rows)
        self._outer = trace.parent
        trace.open(self._name, self._attrs)
        trace.parent = self._index
        return Span(trace.rows, self._index, trace.trace_id)

    def __exit__(self, exc_type, exc, _tb) -> None:
        trace = self._trace
        row = trace.rows[self._index]
        if row[END] is None:
            row[END] = _perf_counter()
        if exc_type is not None:
            if row[ATTRS] is None:
                row[ATTRS] = {}
            row[ATTRS].setdefault("error", exc_type.__name__)
        if self._index == 0:
            trace.finish()
        else:
            trace.parent = self._outer


class Tracer:
    """The process-wide record factory and sink fan-out."""

    def __init__(self) -> None:
        #: The gate every instrumentation point checks first.
        self.enabled = False
        self._sinks: list[Callable[[Trace], None]] = []
        #: immutable snapshot delivery iterates — rebuilt under the
        #: lock on every add/remove, read lock-free per request.
        self._sinks_snapshot: tuple[Callable[[Trace], None], ...] = ()
        self._lock = threading.Lock()

    # -- configuration -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def add_sink(self, sink: Callable[[Trace], None]) -> None:
        """Register a callable invoked with every finished record."""
        with self._lock:
            self._sinks.append(sink)
            self._sinks_snapshot = tuple(self._sinks)

    def remove_sink(self, sink: Callable[[Trace], None]) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
            self._sinks_snapshot = tuple(self._sinks)

    def clear_sinks(self) -> None:
        with self._lock:
            self._sinks.clear()
            self._sinks_snapshot = ()

    # -- records and spans -------------------------------------------------

    def begin(self, name: str, *, trace_id: Optional[str] = None,
              attrs: Optional[dict] = None) -> Optional[Trace]:
        """Start and activate a request's record (its root span is
        ``name``).  Returns ``None`` when tracing is off, so callers
        keep a single ``if trace is not None`` guard."""
        if not self.enabled:
            return None
        trace = Trace(self, name, trace_id or new_trace_id(), attrs)
        trace._token = _current_trace.set(trace)
        return trace

    def current(self) -> Optional[Trace]:
        """The record the current context fills, or ``None`` (tracing
        off, or no request running here).  Every instrumentation point
        starts with this."""
        return _current_trace.get() if self.enabled else None

    def current_trace_id(self) -> str:
        trace = _current_trace.get()
        return trace.trace_id if trace is not None else ""

    def span(self, name: str, attrs: Optional[dict] = None):
        """Context manager for an enclosing span of the current record.

        With tracing off it is a shared no-op; with no record current a
        bare ``span`` starts (and on exit delivers) a record of its own.
        """
        if not self.enabled:
            return _NOOP_CONTEXT
        return _SpanContext(self, name, attrs)

    def graft(self, rows: list) -> Optional[Span]:
        """Append exported rows (:meth:`Span.export`) to the current
        record, under its current parent (:meth:`Trace.graft`).

        This is how worker-side spans join the dispatcher's trace: the
        RESPONSE frame carries the worker's rows, the dispatcher grafts
        them inside its ``appserver.dispatch`` span.  No-op without a
        current record.
        """
        trace = self.current()
        if trace is None or not rows:
            return None
        return trace.graft(rows)


#: The process-wide tracer every layer imports.  Disabled by default;
#: ``repro serve`` (and the worker processes it spawns) enable it.
TRACER = Tracer()
