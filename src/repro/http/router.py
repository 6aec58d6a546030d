"""The web server's request routing: static pages and ``/cgi-bin/``.

"Typically, an organization makes itself accessible to the Web public by
maintaining a home page on a web server" (Section 1) — static HTML files —
while "dynamic creation of Web pages" goes through the CGI protocol
(Section 2.3).  The router implements both halves and is shared by the
socket server and the in-process transport, so every test and benchmark
exercises the same dispatch logic regardless of transport.
"""

from __future__ import annotations

import email.utils
import json
import mimetypes
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.blocking import WouldBlock
from repro.cgi.environ import CgiEnvironment, cgi_headers, split_cgi_path
from repro.cgi.gateway import CgiGateway
from repro.cgi.request import CgiRequest
from repro.errors import (
    DeadlineExceededError,
    OverloadShedError,
    UnknownCgiProgramError,
)
from repro.html.entities import escape_html
from repro.http.headers import Headers
from repro.http.message import (
    SUPPORTED_METHODS,
    HttpRequest,
    HttpResponse,
    html_response,
)
from repro.http.urls import normalize_path
from repro.obs.trace import END, TRACER, new_trace_id
from repro.overload.retryafter import retry_after_header
from repro.strictint import parse_decimal

CGI_PREFIX = "/cgi-bin/"

#: The multi-tenant URL namespace (see repro.tenancy.web.TenantHost).
TENANT_PREFIX = "/t/"

#: Scrape endpoints served when a metrics registry is attached.
METRICS_PATH = "/metrics"
STATUSZ_PATH = "/statusz"

#: Statement-digest analytics (served when a statement store is attached).
STATEMENTS_PATH = "/statements"


class Router:
    """Maps HTTP requests to static files, registered pages, or CGI."""

    def __init__(self, *, document_root: Optional[str | Path] = None,
                 gateway: Optional[CgiGateway] = None,
                 server_name: str = "localhost", server_port: int = 80,
                 access_log=None, metrics=None, tracer=None,
                 overload=None, tenants=None, statements=None):
        self.document_root = (Path(document_root)
                              if document_root is not None else None)
        self.gateway = gateway or CgiGateway()
        self.server_name = server_name
        self.server_port = server_port
        #: optional repro.http.accesslog.AccessLog; every handled
        #: request is recorded in Common Log Format.
        self.access_log = access_log
        #: optional repro.obs.metrics.MetricsRegistry; when attached the
        #: router records request counters + latency histograms and
        #: serves the ``/metrics`` (text scrape) and ``/statusz``
        #: (JSON) endpoints off it.
        self.metrics = metrics
        #: the tracer consulted per request (the process-wide one unless
        #: a test injects its own).
        self.tracer = tracer or TRACER
        #: optional repro.overload.OverloadController; when attached
        #: every request passes admission control first — shed requests
        #: answer 503 + Retry-After (or 504 when their deadline expired
        #: in the queue) without touching the gateway.
        self.overload = overload
        #: optional repro.tenancy.web.TenantHost; when attached, paths
        #: under ``/t/`` dispatch to it — tenant resolution, visibility
        #: auth, quotas and JSON negotiation all live there.
        self.tenants = tenants
        #: optional repro.sql.digest.StatementStats; when attached the
        #: per-digest statement analytics are served at ``/statements``.
        self.statements = statements
        #: optional zero-arg callable run before any observability read
        #: (``/metrics``, ``/statusz``, ``/statements``).  ``repro
        #: serve`` points this at the ``flush`` of the fanout that takes
        #: its file sinks off the request thread, so a scrape sees the
        #: tail sampler's counts up to date.
        self.obs_flush = None
        self._pages: dict[str, tuple[str, bytes]] = {}
        # per-registry resolved metric objects; rebuilt if self.metrics
        # is swapped (tests do) so _observe pays no name lookups.
        self._observe_cache: Optional[tuple] = None

    # -- registration ------------------------------------------------------

    def add_page(self, path: str, html: str, *,
                 content_type: str = "text/html; charset=utf-8") -> None:
        """Register an in-memory static page (tests, home pages)."""
        if not path.startswith("/"):
            path = "/" + path
        self._pages[path] = (content_type, html.encode("utf-8"))

    # -- dispatch ----------------------------------------------------------

    def handle(self, request: HttpRequest, *,
               remote_addr: str = "127.0.0.1",
               trace_id: str = "",
               deadline=None, edge: str = "") -> HttpResponse:
        """Answer one request.  ``edge`` names the thread the socket edge
        answers it on (``loop`` or ``executor``), for the request span."""
        tracer = self.tracer
        start = time.perf_counter()
        # -- admission control (before any per-request work) --------------
        ticket = None
        if self.overload is not None:
            try:
                ticket = self.overload.admit(request,
                                             client_key=remote_addr,
                                             deadline=deadline)
            except OverloadShedError as exc:
                return self._settle_unadmitted(
                    request, _shed_response(exc), remote_addr, start,
                    trace_id=trace_id)
            except DeadlineExceededError as exc:
                return self._settle_unadmitted(
                    request, _error(504, str(exc)), remote_addr, start,
                    trace_id=trace_id)
        elif deadline is not None and deadline.expired:
            return self._settle_unadmitted(
                request, _error(504, "request deadline expired before "
                                     "dispatch"), remote_addr, start,
                trace_id=trace_id)
        trace = None
        if tracer.enabled:
            target = request.target
            path, _, query = target.partition("?")
            attrs = {"method": request.method, "path": path,
                     "target": target if query else path}
            if edge:
                attrs["edge"] = edge
            trace = tracer.begin("request", trace_id=trace_id or None,
                                 attrs=attrs)
        try:
            response = self._route(request, remote_addr, deadline)
        except WouldBlock:
            # The edge's loop attempt stopped before anything that
            # blocks: no trace, no books — the edge runs it again.
            if trace is not None:
                trace.deactivate()
            raise
        except BaseException:
            if ticket is not None:
                self.overload.release(ticket, status=500)
            if trace is not None:
                attrs["error"] = True
                trace.finish()
            raise
        if trace is not None:
            attrs["status"] = response.status
            response.headers.set("X-Trace-Id", trace.trace_id)
        if response.body_iter is not None:
            # Streamed page: bytes are still unknown and the engine keeps
            # working as the transport pulls chunks.  Wrap the stream so
            # the access-log entry carries the true byte count, metrics
            # see the full wall time, the admission slot is held until
            # the stream closes, and the request's record is current
            # around each pull — all settled when the stream closes.
            response.body_iter = self._accounted_stream(
                request, response, remote_addr, trace, start,
                response.body_iter, ticket)
            if trace is not None:
                trace.deactivate()
            return response
        if ticket is not None:
            self.overload.release(ticket, status=response.status)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._observe(request, response, sum(map(len, response.parts)),
                      elapsed_ms)
        if self.access_log is not None:
            self.access_log.record(request, response,
                                   remote_addr=remote_addr)
        if trace is not None:
            trace.finish()
        return response

    def _settle_unadmitted(self, request: HttpRequest,
                           response: HttpResponse, remote_addr: str,
                           start: float, *,
                           trace_id: str = "") -> HttpResponse:
        """Book a shed/expired request: counted and logged, untraced.

        Shedding exists to cost ~nothing, so no span is opened; the
        request still shows up in the metrics and the access log (a
        503 the operator cannot see is a 503 they cannot tune away).
        The response still carries ``X-Trace-Id`` — a shed client's
        support ticket needs something to quote even though no trace
        was recorded.
        """
        if self.tracer.enabled:
            response.headers.set("X-Trace-Id",
                                 trace_id or new_trace_id())
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._observe(request, response, response.size, elapsed_ms)
        if self.access_log is not None:
            self.access_log.record(request, response,
                                   remote_addr=remote_addr)
        return response

    def _observe(self, request: HttpRequest, response: HttpResponse,
                 size: int, elapsed_ms: float) -> None:
        """Record the per-request counters and the latency histogram."""
        metrics = self.metrics
        if metrics is None:
            return
        cache = self._observe_cache
        if cache is None or cache[0] is not metrics:
            cache = (metrics,
                     metrics.counter("http_requests_total"),
                     metrics.counter("http_errors_total"),
                     metrics.counter("http_response_bytes_total"),
                     metrics.histogram("request_latency_ms"))
            self._observe_cache = cache
        _, requests, errors, resp_bytes, latency = cache
        with metrics.lock:  # the one lock of the registry's metrics
            requests.inc_locked()
            if response.status >= 400:
                errors.inc_locked()
            resp_bytes.inc_locked(size)
            latency.observe_locked(elapsed_ms)

    def _accounted_stream(self, request: HttpRequest,
                          response: HttpResponse, remote_addr: str,
                          trace, start: float,
                          body_iter: Iterator[bytes],
                          ticket=None) -> Iterator[bytes]:
        """Wrap a streaming body: count bytes, settle the books at close.

        The generator runs in whatever thread the transport pulls from;
        the request's record is (re)activated inside each ``__next__``
        and deactivated across the ``yield``, so engine-side spans
        recorded while producing a chunk land in the request while the
        transport's own context stays clean.
        """
        def stream() -> Iterator[bytes]:
            emitted = 0
            emit = None
            if trace is not None:
                emit = trace.open("emit")
            try:
                if trace is not None:
                    trace.activate()
                try:
                    for chunk in body_iter:
                        emitted += len(chunk)
                        if trace is not None:
                            trace.deactivate()
                        yield chunk
                        if trace is not None:
                            trace.activate()
                except BaseException as exc:
                    if trace is not None:
                        trace.set("error", type(exc).__name__)
                    raise
            finally:
                if ticket is not None:
                    # The slot is busy for as long as the engine feeds
                    # the stream; release when the last chunk settles.
                    self.overload.release(ticket, status=response.status)
                if emit is not None:
                    emit[END] = time.perf_counter()
                # Any buffered prefix went over the wire before the
                # stream; the logged size covers both.
                total = emitted + response.size
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                self._observe(request, response, total, elapsed_ms)
                if self.access_log is not None:
                    self.access_log.record(request, response,
                                           remote_addr=remote_addr,
                                           size=total)
                if trace is not None:
                    trace.set("bytes", total)
                    trace.finish()
        return stream()

    def _route(self, request: HttpRequest, remote_addr: str,
               deadline=None) -> HttpResponse:
        if request.method not in SUPPORTED_METHODS:
            return _error(501, f"method {request.method} not implemented")
        path = normalize_path(request.path)
        if self.tenants is not None and path.startswith(TENANT_PREFIX):
            response = self.tenants.handle(self, request, path,
                                           remote_addr, deadline)
        elif path.startswith(CGI_PREFIX):
            response = self._handle_cgi(request, path, remote_addr,
                                        deadline)
        elif request.method == "POST":
            return _error(405, "POST is only supported for CGI programs")
        elif self.metrics is not None and path == METRICS_PATH:
            response = self._serve_metrics()
        elif self.metrics is not None and path == STATUSZ_PATH:
            response = self._serve_statusz()
        elif self.statements is not None and path == STATEMENTS_PATH:
            response = self._serve_statements(request)
        else:
            response = self._handle_static(path, request)
        if request.method == "HEAD":
            # The headers its GET gets, no body: the GET's length, or
            # none when the GET streams (the transport then frames the
            # head as it would the stream).
            response.head = True
            if response.body_iter is not None:
                # Close the stream so its finally blocks (transaction
                # brackets) run here, on the thread that opened them.
                body_iter, response.body_iter = response.body_iter, None
                close = getattr(body_iter, "close", None)
                if close is not None:
                    close()
            else:
                response.headers.set("Content-Length", str(response.size))
            response.body = b""
        return response

    # -- scrape endpoints --------------------------------------------------

    def _flush_obs(self) -> None:
        """Settle deferred trace delivery before a read (if wired)."""
        if self.obs_flush is not None:
            try:
                self.obs_flush()
            except Exception:  # noqa: BLE001 - a scrape must not 500
                pass           # because the drain hiccuped

    def _serve_metrics(self) -> HttpResponse:
        """The Prometheus-style text scrape."""
        self._flush_obs()
        headers = Headers()
        headers.set("Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8")
        return HttpResponse(status=200, headers=headers,
                            body=self.metrics.render_text().encode("utf-8"))

    def _serve_statusz(self) -> HttpResponse:
        """The JSON status page (nested registry snapshot)."""
        self._flush_obs()
        body = json.dumps(self.metrics.snapshot(), sort_keys=True,
                          indent=2, default=str) + "\n"
        headers = Headers()
        headers.set("Content-Type", "application/json; charset=utf-8")
        return HttpResponse(status=200, headers=headers,
                            body=body.encode("utf-8"))

    def _serve_statements(self, request: HttpRequest) -> HttpResponse:
        """Per-digest statement analytics (``?limit=N`` caps the rows)."""
        self._flush_obs()
        limit = 0
        for part in (request.query or "").split("&"):
            key, _, value = part.partition("=")
            if key == "limit":
                limit = parse_decimal(value)
                if limit is None:
                    return _error(400, f"bad limit: {value!r}")
        body = json.dumps(self.statements.snapshot(limit=limit),
                          sort_keys=True, indent=2, default=str) + "\n"
        headers = Headers()
        headers.set("Content-Type", "application/json; charset=utf-8")
        return HttpResponse(status=200, headers=headers,
                            body=body.encode("utf-8"))

    # -- CGI ---------------------------------------------------------------

    def _handle_cgi(self, request: HttpRequest, path: str,
                    remote_addr: str, deadline=None) -> HttpResponse:
        try:
            script_name, program, path_info = split_cgi_path(
                path, CGI_PREFIX)
        except ValueError as exc:
            return _error(404, str(exc))
        environ = CgiEnvironment(
            request_method=request.method,
            script_name=script_name,
            path_info=path_info,
            query_string=request.query,
            content_type=request.headers.get("Content-Type"),
            content_length=len(request.body),
            server_name=self.server_name,
            server_port=self.server_port,
            remote_addr=remote_addr,
            http_headers=cgi_headers(request.headers),
            trace_id=self.tracer.current_trace_id(),
        )
        cgi_request = CgiRequest(environ=environ, stdin=request.body,
                                 deadline=deadline)
        try:
            cgi_response = self.gateway.dispatch(program, cgi_request)
        except UnknownCgiProgramError as exc:
            return _error(404, str(exc))
        headers = Headers(cgi_response.headers)
        headers.setdefault("Content-Type", "text/html")
        return HttpResponse(status=cgi_response.status, headers=headers,
                            parts=cgi_response.parts,
                            body_iter=cgi_response.body_iter)

    # -- static files ------------------------------------------------------

    def _handle_static(self, path: str,
                       request: HttpRequest) -> HttpResponse:
        page = self._pages.get(path)
        if page is None and path.endswith("/"):
            page = self._pages.get(path + "index.html")
        if page is not None:
            content_type, body = page
            headers = Headers()
            headers.set("Content-Type", content_type)
            return HttpResponse(status=200, headers=headers, body=body)
        if self.document_root is not None:
            return self._serve_file(path, request)
        return _error(404, f"no such page: {path}")

    def _serve_file(self, path: str,
                    request: HttpRequest) -> HttpResponse:
        assert self.document_root is not None
        relative = path.lstrip("/")
        candidate = (self.document_root / relative).resolve()
        root = self.document_root.resolve()
        # normalize_path already collapsed "..", but symlinks could still
        # escape; re-check containment after resolution.
        if not str(candidate).startswith(str(root)):
            return _error(403, "path escapes the document root")
        if candidate.is_dir():
            candidate = candidate / "index.html"
        if not candidate.is_file():
            return _error(404, f"no such page: {path}")
        # Conditional GET (HTTP/1.0 §10.9): Last-Modified out,
        # If-Modified-Since in, 304 when the file has not changed.
        mtime = int(candidate.stat().st_mtime)
        last_modified = email.utils.formatdate(mtime, usegmt=True)
        since_header = request.headers.get("If-Modified-Since")
        if since_header:
            since = email.utils.parsedate_to_datetime(since_header) \
                if _parseable_date(since_header) else None
            if since is not None and mtime <= since.timestamp():
                headers = Headers()
                headers.set("Last-Modified", last_modified)
                return HttpResponse(status=304, headers=headers)
        content_type, _ = mimetypes.guess_type(str(candidate))
        headers = Headers()
        headers.set("Content-Type", content_type or "text/html")
        headers.set("Last-Modified", last_modified)
        return HttpResponse(status=200, headers=headers,
                            body=candidate.read_bytes())


def _parseable_date(text: str) -> bool:
    try:
        return email.utils.parsedate_to_datetime(text) is not None
    except (TypeError, ValueError):
        return False


def _shed_response(exc: OverloadShedError) -> HttpResponse:
    response = _error(503, str(exc))
    response.headers.set("Retry-After",
                         retry_after_header(exc.retry_after))
    return response


def _error(status: int, detail: str) -> HttpResponse:
    from repro.http.status import reason_for
    reason = reason_for(status)
    return html_response(
        f"<HTML><HEAD><TITLE>{status} {reason}</TITLE></HEAD>\n"
        f"<BODY><H1>{status} {reason}</H1>"
        f"<P>{escape_html(detail)}</P></BODY></HTML>\n",
        status=status)
