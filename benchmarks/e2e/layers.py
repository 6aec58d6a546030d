"""The traced pass: an in-process layer budget, measured from outside.

The pass assembles the same stack ``repro serve`` runs — through public
constructors, with the product's own tracing off — wraps the public
callables at each layer boundary with :class:`spans.Recorder`, and
replays the head of the workload's request sequence twice in this
process: once untraced (the in-process baseline) and once traced (the
budget).  A layer is a ``src/repro/`` package; ``self_us`` is span busy
time minus child spans, averaged per request.

These are the only names the harness reaches into ``repro`` for.  A name
that disappears turns its metric into ``null``; it does not crash.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import stats
from httpclient import encode_request
from spans import Recorder
from target import database_name, tree_cpu_seconds
from workloads import NO_RECYCLE, Request, Workload

#: (owner module, owner attribute or "" for the module itself, callable,
#: layer span name).  Order is irrelevant; every row is optional.
BOUNDARIES = (
    ("repro.http.message", "HttpRequest", "parse", "http.parse"),
    ("repro.http.router", "Router", "handle", "http.router"),
    ("repro.http.message", "HttpResponse", "drain", "http.serialize"),
    ("repro.http.message", "HttpResponse", "serialize", "http.serialize"),
    ("repro.cgi.gateway", "CgiGateway", "dispatch", "cgi.dispatch"),
    ("repro.cgi.gateway", "Db2WwwProgram", "run", "cgi.program"),
    ("repro.core.macrofile", "MacroLibrary", "load", "core.load"),
    ("repro.core.engine", "MacroEngine", "execute", "core.execute"),
    ("repro.core.report", "ReportGenerator", "render_iter", "core.render"),
    ("repro.sql.gateway", "DatabaseRegistry", "connect", "sql.connect"),
    ("repro.sql.gateway", "MacroSqlSession", "execute", "sql.session"),
    ("repro.sql.gateway", "MacroSqlSession", "finish", "sql.session"),
    ("repro.sql.querycache", "QueryResultCache", "get", "sql.cache"),
    ("repro.sql.querycache", "QueryResultCache", "put", "sql.cache"),
    ("repro.sql.connection", "Connection", "execute", "sql.backend"),
    ("repro.sql.connection", "Connection", "commit", "sql.backend"),
    ("repro.sql.connection", "Connection", "rollback", "sql.backend"),
    ("repro.appserver.dispatcher", "AppServerDispatcher", "run",
     "appserver.dispatch"),
)
LAYERS = tuple(dict.fromkeys(row[3] for row in BOUNDARIES))

#: Blocks the traced pass alternates between untraced and traced replay.
_BLOCKS = 4
_CODECS = ("encode_request", "decode_request",
           "encode_response", "decode_response")


def _resolve(module: str, attr: str = "") -> Any:
    """``module.attr`` (or the module), or ``None`` when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, attr, None) if attr else owner


# -- the in-process stack --------------------------------------------------

@dataclass
class Stack:
    """The assembled request path plus what must be shut down after."""

    router: Any
    cache: Any = None
    dispatcher: Any = None

    def close(self) -> None:
        if self.dispatcher is not None:
            self.dispatcher.shutdown()


def build_stack(workload: Workload, macros: Path, database: Path, *,
                appserver: Optional[bool] = None) -> Stack:
    """What ``repro serve`` assembles for this workload, in-process.

    ``appserver`` overrides the workload's own gateway choice (the
    app-server workload also needs the plain in-process stack, as the
    baseline its hop is measured against).
    """
    from repro.cgi.gateway import CgiGateway
    from repro.http.router import Router

    if appserver is None:
        appserver = "appserver" in workload.serve_args
    name = database_name(workload)
    if appserver:
        from repro.appserver import AppServerDispatcher
        # The environment `repro serve --gateway appserver --no-trace`
        # hands its workers (cli._worker_env).
        dispatcher = AppServerDispatcher(
            {"REPRO_MACRO_DIR": str(macros),
             f"REPRO_DATABASE_{name}": str(database),
             "REPRO_QUERY_CACHE": "128", "REPRO_POOL_SIZE": "1"},
            workers=2, recycle_after=NO_RECYCLE)
        gateway = CgiGateway()
        gateway.install("db2www", dispatcher)
        return Stack(Router(gateway=gateway), dispatcher=dispatcher)
    from repro.apps.site import build_site
    from repro.core.engine import EngineConfig, MacroEngine
    from repro.core.macrofile import MacroLibrary
    from repro.sql.gateway import DatabaseRegistry
    from repro.sql.querycache import QueryResultCache

    registry = DatabaseRegistry()
    registry.register_path(name, str(database))
    cache = QueryResultCache(max_entries=128)
    engine = MacroEngine(registry, config=EngineConfig(query_cache=cache))
    site = build_site(engine, MacroLibrary(macros, stat_ttl=1.0))
    return Stack(site.router, cache=cache)


def serve_in_process(router: Any, raw: bytes) -> tuple[int, bytes]:
    """parse → handle → drain → serialize: the work between the edge's
    socket read and socket write.  Returns ``(status, body)``."""
    from repro.http.message import HttpRequest

    response = router.handle(HttpRequest.parse(raw))
    response.drain()
    body = response.body
    response.serialize()
    return response.status, body


def expected_pages(router: Any, requests: Sequence[Request]
                   ) -> dict[str, tuple[int, str]]:
    """``target -> (length, sha1)`` of each page, computed in-process
    over the same files the launched server will read."""
    pages = {}
    for request in requests:
        status, body = serve_in_process(router, _raw(request))
        if status != 200:
            raise RuntimeError(
                f"expected page for {request.target} came back {status}")
        pages[request.target] = (len(body), hashlib.sha1(body).hexdigest())
    return pages


def _raw(request: Request) -> bytes:
    return encode_request(request.method, request.target, "127.0.0.1",
                          request.body, request.content_type)


# -- replay ----------------------------------------------------------------

@dataclass
class Replay:
    per_request_s: list[float]
    cpu_s: float

    def extend(self, other: "Replay") -> None:
        self.per_request_s += other.per_request_s
        self.cpu_s += other.cpu_s

    @property
    def mean_us(self) -> float:
        return 1e6 * sum(self.per_request_s) / len(self.per_request_s)

    @property
    def p50_us(self) -> float:
        return 1e6 * stats.median(self.per_request_s)

    @property
    def cpu_us(self) -> float:
        return 1e6 * self.cpu_s / len(self.per_request_s)


def _children_cpu() -> float:
    """CPU seconds of reaped children and live descendants (app-server
    workers), at /proc's tick resolution."""
    times = os.times()
    return (times.children_user + times.children_system
            + tree_cpu_seconds(os.getpid(), skip_root=True))


def replay(router: Any, requests: Sequence[Request],
           verify: Callable[[Request, int, bytes], bool],
           recorder: Optional[Recorder] = None, *,
           first: int = 0) -> Replay:
    """Serve ``requests`` sequentially in-process, timing each one.

    Wall time and this process's CPU are taken around the serve call
    alone, so the output check costs neither; child processes' CPU is
    read before and after the whole replay.
    """
    raws = [_raw(request) for request in requests]
    times = []
    own_cpu = 0.0
    children_before = _children_cpu()
    for number, (request, raw) in enumerate(zip(requests, raws)):
        if recorder is not None:
            recorder.request = first + number
        cpu_tick = time.process_time()
        tick = time.perf_counter()
        status, body = serve_in_process(router, raw)
        times.append(time.perf_counter() - tick)
        own_cpu += time.process_time() - cpu_tick
        verify(request, status, body)
    return Replay(times, own_cpu + _children_cpu() - children_before)


def install_wrappers(recorder: Recorder, counters: dict[str, int]) -> None:
    """Wrap every boundary that still exists."""
    def count_rows(_generator, _section, result, *_rest, **_kw) -> None:
        if getattr(result, "is_query", False):
            counters["rows"] += result.row_total

    for module, owner_name, attr, name in BOUNDARIES:
        owner = _resolve(module, owner_name)
        is_render = name == "core.render"
        recorder.wrap(owner, attr, name, generator=is_render,
                      on_done=count_rows if is_render else None)


# -- the budget ------------------------------------------------------------

@dataclass
class Budget:
    """Everything the traced pass measured for one workload."""

    untraced: Replay
    traced: Replay
    self_us: dict[str, Optional[float]]
    busy_us: dict[str, float]
    counts: dict[str, float]
    rows_per_request: float
    cache_hit_ratio: Optional[float]
    appserver_retries: Optional[float]
    codec_us: Optional[float]
    missing: list[str] = field(default_factory=list)

    @property
    def sum_error_pct(self) -> float:
        total = sum(value for value in self.self_us.values()
                    if value is not None)
        return 100.0 * abs(total - self.traced.mean_us) / self.traced.mean_us

    @property
    def trace_overhead_pct(self) -> float:
        # Medians: a worker recycle or a stall in one replay must not
        # read as tracing cost.
        return 100.0 * (self.traced.p50_us - self.untraced.p50_us) \
            / self.untraced.p50_us


def traced_pass(stack: Stack, warmup: Sequence[Request],
                requests: Sequence[Request],
                verify: Callable[[Request, int, bytes], bool],
                trace_path: Optional[Path] = None) -> Budget:
    """Replay untraced and traced; reduce the spans to a layer table.

    ``warmup`` is replayed first and discarded, as it is against a
    launched target: caches fill and lazy set-up finishes off the clock.
    """
    count = len(requests)
    replay(stack.router, warmup, verify)
    cache_before = stack.cache.stats() if stack.cache is not None else None
    pool_before = stack.dispatcher.stats() \
        if stack.dispatcher is not None else None

    recorder = Recorder()
    counters = {"rows": 0}
    captured: list[tuple[Any, bytes]] = []
    protocol = _resolve("repro.appserver.protocol")
    untraced, traced = Replay([], 0.0), Replay([], 0.0)
    # Untraced and traced replays alternate block by block, so drift in
    # the machine's speed over the pass lands on both alike.
    size = -(-count // _BLOCKS)
    for start in range(0, count, size):
        block = requests[start:start + size]
        untraced.extend(replay(stack.router, block, verify))
        install_wrappers(recorder, counters)
        if stack.dispatcher is not None and protocol is not None:
            _capture_frames(recorder, protocol, captured)
        try:
            traced.extend(replay(stack.router, block, verify, recorder,
                                 first=start))
        finally:
            recorder.unwrap_all()
    if trace_path is not None:
        recorder.dump(trace_path)

    table = recorder.totals_by_name()
    missing = set(recorder.missing)
    self_us = {}
    for layer in LAYERS:
        if layer in table:
            self_us[layer] = 1e6 * table[layer]["self"] / count
        else:
            self_us[layer] = None if layer in missing else 0.0
    hit_ratio = None
    if cache_before is not None:
        after = stack.cache.stats()
        hits = after["hits"] - cache_before["hits"]
        lookups = hits + after["misses"] - cache_before["misses"]
        hit_ratio = hits / lookups if lookups else 0.0
    retries = None
    if pool_before is not None:
        after = stack.dispatcher.stats()
        retries = float(sum(after[key] - pool_before[key] for key in
                            ("crash_retries", "busy_timeouts")))
    return Budget(
        untraced=untraced, traced=traced, self_us=self_us,
        busy_us={name: 1e6 * row["busy"] / count
                 for name, row in table.items()},
        counts={name: row["count"] / count for name, row in table.items()},
        rows_per_request=counters["rows"] / count,
        cache_hit_ratio=hit_ratio, appserver_retries=retries,
        codec_us=_codec_cost(protocol, captured) if captured else None,
        missing=sorted(missing))


def _capture_frames(recorder: Recorder, protocol: Any,
                    captured: list[tuple[Any, bytes]]) -> None:
    """Keep each dispatched ``(CgiRequest, response payload)`` pair so
    the four frame codecs can be timed on real frames afterwards."""
    pending: list[Any] = []
    encode = getattr(protocol, "encode_request", None)
    decode = getattr(protocol, "decode_response", None)
    if encode is None or decode is None:
        recorder.missing.append("appserver.codec")
        return

    def encode_request(request):
        pending.append(request)
        return encode(request)

    def decode_response(payload):
        if pending:
            captured.append((pending.pop(), payload))
        return decode(payload)

    recorder.patch(protocol, "encode_request", encode_request)
    recorder.patch(protocol, "decode_response", decode_response)


def _codec_cost(protocol: Any, captured: list[tuple[Any, bytes]]
                ) -> Optional[float]:
    """Mean microseconds per request spent in all four frame codecs."""
    codecs = [getattr(protocol, name, None) for name in _CODECS]
    if any(codec is None for codec in codecs):
        return None
    encode_request, decode_request, encode_response, decode_response = codecs
    tick = time.perf_counter()
    for request, payload in captured:
        decode_request(encode_request(request))
        encode_response(decode_response(payload))
    return 1e6 * (time.perf_counter() - tick) / len(captured)
