"""The edge's connection protocol, driven without sockets.

``_Connection`` is an :class:`asyncio.Protocol`: everything it does is a
reaction to a callback, so a fake transport, a loop that never runs and
an executor the test steps by hand reach every ordering the socket
tests can only provoke by sleeping — pipelining behind a hand-off,
both backpressure directions, the timer's three states.  None of the
fakes has ``create_task``, ``run_in_executor`` or a stream reader: a
buffered request that reached for one would fail here.

The tests at the end need more of the real thing: the request path's
call count (the cost guard with no noise band), a slow reader over a
socket, and the listen backlog.
"""

import re
import socket
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

import repro.http
from repro.apps import urlquery as urlquery_app
from repro.cgi.gateway import Db2WwwProgram, FunctionProgram
from repro.cgi.request import CgiResponse
from repro.core.macrofile import MacroLibrary
from repro.http.async_server import (
    _PIPELINE_BUDGET,
    AsyncHttpServer,
    _Connection,
)
from repro.http.router import Router
from repro.obs.metrics import MetricsRegistry
from repro.sql.querycache import QueryResultCache

HELLO = b"GET /hello HTTP/1.1\r\nHost: t\r\n\r\n"
SLOW = b"GET /cgi-bin/slow HTTP/1.1\r\nHost: t\r\n\r\n"
REPORT = (b"GET /cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_URL=yes"
          b"&DBFIELDS=title HTTP/1.1\r\nHost: t\r\n\r\n")


class FakeTimer:
    def __init__(self, when, callback):
        self.when, self.callback, self.cancelled = when, callback, False

    def cancel(self):
        self.cancelled = True


class FakeLoop:
    """The four loop calls the buffered request path may make."""

    def __init__(self):
        self.now = 1000.0
        self.timers = []
        self.posted = []
        self.errors = []

    def time(self):
        return self.now

    def call_at(self, when, callback):
        self.timers.append(FakeTimer(when, callback))
        return self.timers[-1]

    def call_soon_threadsafe(self, callback, *args):
        self.posted.append((callback, args))

    def call_exception_handler(self, context):
        self.errors.append(context)

    def run_posted(self):
        while self.posted:
            callback, args = self.posted.pop(0)
            callback(*args)

    def advance(self, seconds):
        """Move the clock, firing every timer that comes due."""
        self.now += seconds
        while True:
            due = [timer for timer in self.timers
                   if not timer.cancelled and timer.when <= self.now]
            if not due:
                return
            timer = min(due, key=lambda t: t.when)
            self.timers.remove(timer)
            timer.callback()


class FakeSocket:
    def __init__(self):
        self.options = []

    def setsockopt(self, *option):
        self.options.append(option)


class FakeTransport:
    def __init__(self, protocol, *, pause_on_write=False):
        self.protocol = protocol
        self.pause_on_write = pause_on_write
        self.socket = FakeSocket()
        self.written = b""
        self.writes = []  # each write's bytes object, as handed over
        self.closed = False
        self.aborted = False
        self.reading = True

    def get_extra_info(self, name):
        return {"peername": ("10.1.2.3", 4321),
                "socket": self.socket}.get(name)

    def set_write_buffer_limits(self, high=None, low=None):
        self.high = high

    def write(self, data):
        self.written += data
        self.writes.append(data)
        if self.pause_on_write:  # a reader more than high-water behind
            self.pause_on_write = False
            self.protocol.pause_writing()

    def close(self):
        self.closed = True

    def abort(self):
        self.closed = self.aborted = True

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


class FakeExecutor:
    """``submit`` queues; the test plays the executor thread."""

    def __init__(self):
        self.jobs = []

    def submit(self, fn):
        future = Future()
        self.jobs.append((fn, future))
        return future

    def run_next(self):
        fn, future = self.jobs.pop(0)
        try:
            future.set_result(fn())
        except Exception as exc:
            future.set_exception(exc)


class Edge:
    """An unstarted server with fake loop and executor, and its router's
    calls on record."""

    def __init__(self, **kwargs):
        self.metrics = MetricsRegistry()
        self.router = Router(metrics=self.metrics)
        self.router.add_page("/hello", "<H1>Hello</H1>")
        self.router.gateway.install("slow", FunctionProgram(
            lambda request: CgiResponse(body=b"slow answer")))
        self.handled = []
        handle = self.router.handle

        def recording(request, **kw):
            self.handled.append(request.path)
            if request.path.endswith("/boom"):
                raise RuntimeError("router bug")
            return handle(request, **kw)

        self.router.handle = recording
        self.server = AsyncHttpServer(self.router, **kwargs)
        self.loop = FakeLoop()
        self.executor = self.server._executor = FakeExecutor()

    def connect(self, **transport_kwargs):
        protocol = _Connection(self.server, self.loop)
        transport = FakeTransport(protocol, **transport_kwargs)
        protocol.connection_made(transport)
        return protocol, transport

    def finish_one(self):
        """An executor thread finishes a request; the loop hears of it."""
        self.executor.run_next()
        self.loop.run_posted()


def mount_reports(edge):
    """DB2WWW over the URL query app, with a query cache, at ``db2www``."""
    app = urlquery_app.install(rows=20)
    app.engine.config.query_cache = QueryResultCache()
    edge.router.gateway.install("db2www",
                                Db2WwwProgram(app.engine, app.library))
    return app


@pytest.fixture()
def make_edge():
    """``Edge(**kwargs)``, its listener closed when the test ends."""
    edges = []

    def make(**kwargs):
        edges.append(Edge(**kwargs))
        return edges[-1]

    yield make
    for edge in edges:
        edge.server.shutdown()


@pytest.fixture()
def edge(make_edge):
    return make_edge(timeout=30.0, idle_timeout=5.0)


def statuses(written: bytes) -> list[bytes]:
    return re.findall(rb"HTTP/1\.[01] (\d{3}) ", written)


class TestPipeliningBehindAHandOff:
    def test_three_pipelined_requests_are_answered_in_order(self, edge):
        protocol, transport = edge.connect()
        protocol.data_received(SLOW + HELLO + HELLO)
        # the first is with the executor; nothing behind it has started
        assert len(edge.executor.jobs) == 1
        assert edge.handled == [] and transport.written == b""
        edge.finish_one()
        assert edge.handled == ["/cgi-bin/slow", "/hello", "/hello"]
        assert statuses(transport.written) == [b"200"] * 3
        assert transport.written.index(b"slow answer") \
            < transport.written.index(b"Hello")
        assert transport.written.count(b"Hello") == 2
        assert not transport.closed
        assert edge.metrics.flat()["edge_requests_total"] == 3

    def test_a_request_split_across_reads_waits_for_its_tail(self, edge):
        protocol, transport = edge.connect()
        protocol.data_received(HELLO[:9])
        assert transport.written == b""
        protocol.data_received(HELLO[9:])
        assert statuses(transport.written) == [b"200"]

    def test_nagle_is_off_on_every_connection(self, edge):
        """asyncio only disables Nagle on sockets whose ``proto`` is
        TCP, and an accepted socket's is 0: left on, a pipelined burst
        of small responses stalls ~40 ms on the peer's delayed ACK."""
        _, transport = edge.connect()
        assert transport.socket.options == [
            (socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)]

    def test_the_remote_address_reaches_the_router(self, edge):
        seen = []
        edge.router.gateway.install("who", FunctionProgram(
            lambda request: seen.append(request.environ.remote_addr)
            or CgiResponse(body=b"ok")))
        protocol, _ = edge.connect()
        protocol.data_received(b"GET /cgi-bin/who HTTP/1.0\r\n\r\n")
        edge.finish_one()
        assert seen == ["10.1.2.3"]


class TestBackpressure:
    def test_paused_writer_starts_no_further_request(self, edge):
        protocol, transport = edge.connect(pause_on_write=True)
        protocol.data_received(HELLO + HELLO)
        # the first response put the client past the high-water mark
        assert edge.handled == ["/hello"]
        assert statuses(transport.written) == [b"200"]
        assert edge.metrics.flat()["edge_backpressure_waits_total"] == 1
        protocol.data_received(HELLO)  # more arrives: still held back
        assert edge.handled == ["/hello"]
        protocol.resume_writing()
        assert edge.handled == ["/hello"] * 3
        assert statuses(transport.written) == [b"200"] * 3

    def test_pipelined_bytes_past_the_budget_pause_reading(self, edge):
        protocol, transport = edge.connect()
        protocol.data_received(SLOW)
        padded = HELLO[:-2] + b"X-Pad: " + b"x" * 4000 + b"\r\n\r\n"
        fits = _PIPELINE_BUDGET // len(padded)
        protocol.data_received(padded * fits)
        assert transport.reading  # inside the budget
        protocol.data_received(padded)
        assert not transport.reading
        assert edge.handled == []
        edge.finish_one()
        # the backlog was answered, the buffer drained, reading resumed
        assert transport.reading
        assert edge.handled == ["/cgi-bin/slow"] + ["/hello"] * (fits + 1)
        assert protocol.buffer == b""

    def test_a_large_body_in_flight_is_not_pipelining(self, edge):
        """The budget bounds bytes *behind* a request being answered; a
        body still arriving must keep being read."""
        protocol, transport = edge.connect()
        protocol.data_received(
            b"POST /cgi-bin/slow HTTP/1.0\r\nContent-Length: "
            + str(4 * _PIPELINE_BUDGET).encode() + b"\r\n\r\n")
        for _ in range(4):
            assert transport.reading
            protocol.data_received(b"x" * _PIPELINE_BUDGET)
        assert len(edge.executor.jobs) == 1


class TestBodyWrites:
    """A buffered response's parts: small ones joined into one write, a
    large one (a cached report's rows) written as the very bytes object
    its result's row memo holds."""

    def served(self, edge, rows, target):
        app = urlquery_app.install(rows=rows)
        app.engine.config.query_cache = QueryResultCache()
        edge.router.gateway.install("db2www",
                                    Db2WwwProgram(app.engine, app.library))
        protocol, transport = edge.connect()
        for _ in range(2):  # the second is a query-cache hit
            transport.writes.clear()
            protocol.data_received(
                b"GET " + target + b" HTTP/1.1\r\nHost: t\r\n\r\n")
            while edge.executor.jobs:
                edge.finish_one()
        (cached,) = app.engine.config.query_cache._entries.values()
        return transport, cached[1]

    def test_a_report_hot_page_leaves_in_one_write(self, edge):
        transport, _ = self.served(
            edge, 150, REPORT.split()[1])  # the report_hot page
        (message,) = transport.writes
        assert statuses(message) == [b"200"]
        head, body = message.split(b"\r\n\r\n", 1)
        assert b"Content-Length: %d" % len(body) in head

    def test_large_rows_are_written_by_reference(self, edge):
        transport, result = self.served(
            edge, 1000, b"/cgi-bin/db2www/urlquery.d2w/report"
                        b"?DBFIELDS=title")
        rows = result.rendered[3]
        assert len(rows) > 100_000
        assert [part is rows for part in transport.writes] \
            == [False, True, False]  # head + page header, rows, footer
        message = b"".join(transport.writes)
        head, body = message.split(b"\r\n\r\n", 1)
        assert b"Content-Length: %d" % len(body) in head
        assert body.count(b"<LI> <A HREF=") == 1000


class TestTheOneTimer:
    def test_idle_connection_is_closed_at_idle_timeout(self, edge):
        protocol, transport = edge.connect()
        edge.loop.advance(4.9)
        assert not transport.closed
        edge.loop.advance(0.2)
        assert transport.closed

    def test_request_being_answered_is_never_timed_out(self, edge):
        protocol, transport = edge.connect()
        protocol.data_received(SLOW)
        edge.loop.advance(120.0)  # far past both limits
        assert not transport.closed
        edge.finish_one()
        assert statuses(transport.written) == [b"200"]
        # and the idle limit starts over from the answer
        edge.loop.advance(4.9)
        assert not transport.closed
        edge.loop.advance(0.2)
        assert transport.closed

    def test_begun_request_gets_the_longer_timeout(self, edge):
        protocol, transport = edge.connect()
        protocol.data_received(HELLO[:9])
        edge.loop.advance(29.0)  # past idle_timeout, inside timeout
        assert not transport.closed
        protocol.data_received(HELLO[9:11])  # each read starts it over
        edge.loop.advance(29.0)
        assert not transport.closed
        edge.loop.advance(1.5)
        assert transport.closed and transport.written == b""

    def test_shorter_request_timeout_is_not_slept_through(self, make_edge):
        """A request that begins while the timer is set for the longer
        idle limit is still cut off at its own."""
        edge = make_edge(timeout=2.0, idle_timeout=30.0)
        protocol, transport = edge.connect()
        edge.loop.advance(1.0)
        protocol.data_received(HELLO[:9])
        edge.loop.advance(1.9)
        assert not transport.closed
        edge.loop.advance(0.2)
        assert transport.closed

    def test_serving_requests_arms_no_further_timer(self, edge):
        protocol, _ = edge.connect()
        for _ in range(50):
            protocol.data_received(HELLO)
            protocol.data_received(SLOW)
            edge.finish_one()
        assert len(edge.loop.timers) == 1

    def test_unread_closing_response_is_aborted_after_timeout(self, edge):
        """A client that never reads its answer must not hold the slot:
        ``close`` waits for a flush that will never come."""
        protocol, transport = edge.connect(pause_on_write=True)
        protocol.data_received(
            b"GET /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert transport.closed and not transport.aborted
        edge.loop.advance(29.0)
        assert not transport.aborted
        edge.loop.advance(1.5)
        assert transport.aborted

    def test_a_slow_reader_that_keeps_reading_is_not_cut(self, edge):
        protocol, transport = edge.connect(pause_on_write=True)
        protocol.data_received(HELLO + HELLO)
        for _ in range(3):  # it falls behind again each time
            edge.loop.advance(20.0)
            protocol.resume_writing()
            protocol.pause_writing()
        assert not transport.closed
        assert edge.handled == ["/hello"] * 2
        edge.loop.advance(30.5)  # ...until it stops reading for good
        assert transport.aborted

    def test_a_lost_connection_cancels_its_timer(self, edge):
        protocol, _ = edge.connect()
        assert edge.server.active_connections == 1
        protocol.connection_lost(None)
        assert edge.loop.timers[0].cancelled
        assert edge.server.active_connections == 0


class TestFramingAtEof:
    def test_eof_mid_body_is_400_and_never_routed(self, edge):
        protocol, transport = edge.connect()
        protocol.data_received(b"POST /cgi-bin/slow HTTP/1.0\r\n"
                               b"Content-Length: 100\r\n\r\nabc")
        assert transport.written == b""
        assert protocol.eof_received() is True
        assert statuses(transport.written) == [b"400"]
        assert b"3 of 100" in transport.written
        assert b"Connection: close" in transport.written
        assert transport.closed
        assert edge.handled == [] and edge.executor.jobs == []

    def test_half_closed_client_still_gets_its_answer(self, edge):
        protocol, transport = edge.connect()
        protocol.data_received(SLOW + HELLO)
        protocol.eof_received()
        assert not transport.closed
        edge.finish_one()
        assert statuses(transport.written) == [b"200"] * 2
        assert transport.closed


class TestRouterFailure:
    @pytest.mark.parametrize("target", ["/boom", "/cgi-bin/boom"])
    def test_exception_closes_that_connection_only(self, edge, target):
        """Raised in-loop (a page) and on the executor (a program)."""
        broken, broken_transport = edge.connect()
        healthy, healthy_transport = edge.connect()
        broken.data_received(
            f"GET {target} HTTP/1.1\r\n\r\n".encode() + HELLO)
        if edge.executor.jobs:
            edge.finish_one()
        assert broken_transport.closed
        assert broken_transport.written == b""
        (context,) = edge.loop.errors
        assert isinstance(context["exception"], RuntimeError)
        healthy.data_received(HELLO)
        assert statuses(healthy_transport.written) == [b"200"]
        assert not healthy_transport.closed

    def test_shed_connection_is_answered_503_and_not_counted(self, make_edge):
        edge = make_edge(max_connections=1)
        edge.connect()
        _, shed = edge.connect()
        assert statuses(shed.written) == [b"503"]
        assert b"Retry-After" in shed.written and shed.closed
        assert edge.server.active_connections == 1
        assert len(edge.loop.timers) == 1  # the shed one armed none


class TestShutdownSweep:
    def test_connection_made_after_the_shutdown_sweep_is_aborted(
            self, edge):
        """A connection accepted in the loop iteration that stops the
        server reaches ``connection_made`` after the sweep."""
        _, early = edge.connect()
        edge.server._drop_connections()
        assert early.aborted
        _, late = edge.connect()
        assert late.aborted and late.written == b""
        assert edge.server.active_connections == 1  # the early one only
        assert len(edge.loop.timers) == 1  # the late one armed none


WRITE_MACRO = """%DEFINE DATABASE = "URLDB"
%SQL{ INSERT INTO urldb (url, title) VALUES ('http://w/', 'written') %}
%HTML_INPUT{<P>write%}
%HTML_REPORT{%EXEC_SQL<P>done%}
"""
LONG_MACRO = """%DEFINE DATABASE = "URLDB"
%SQL{ WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c
      WHERE x < 300000) SELECT count(*) AS n FROM c
%SQL_REPORT{%ROW{<P>$(V_n)</P>%}%}
%}
%HTML_INPUT{<P>long%}
%HTML_REPORT{%EXEC_SQL%}
"""


def get(macro: str) -> bytes:
    return f"GET /cgi-bin/db2www/{macro}/report HTTP/1.1\r\n\r\n".encode()


@pytest.mark.usefixtures("no_ambient_faults")
class TestAnsweredOnTheLoop:
    """Every GET or HEAD of a DB2WWW page is tried inside
    ``data_received``, cache misses included; a step that would block
    hands it to the executor, to run again from the start; anything
    else goes there at once."""

    def reports(self, edge):
        """The reports mounted, their pool warm: an idle connection, as
        a served process has after its first request."""
        app = mount_reports(edge)
        app.library.add_text("write.d2w", WRITE_MACRO)
        app.library.add_text("long.d2w", LONG_MACRO)
        app.registry.connect("URLDB").close()
        protocol, transport = edge.connect()
        return app, protocol, transport

    def test_a_report_never_leaves_the_loop(self, edge):
        """Its first run misses, leases the idle connection and reads
        on the loop; its second is all hits."""
        app, protocol, transport = self.reports(edge)
        protocol.data_received(REPORT)
        first = transport.written
        protocol.data_received(REPORT)
        assert edge.executor.jobs == [] and edge.loop.posted == []
        assert statuses(transport.written) == [b"200"] * 2
        assert transport.written[len(first):].split(b"\r\n\r\n", 1)[1] \
            == first.split(b"\r\n\r\n", 1)[1]
        flat = edge.metrics.flat()
        assert flat["edge_handoff_wait_ms_count"] == 0
        assert flat["edge_loop_abandoned_total"] == 0
        stats = app.engine.config.query_cache.stats()
        assert (stats["misses"], stats["stores"], stats["hits"]) == (1, 1, 1)

    def test_a_page_that_spills_leaves_the_loop(self, edge, spill):
        """The statement runs on the loop; at the spill its cursor and
        bracket are closed and the attempt stops, booking nothing."""
        app, protocol, _ = self.reports(edge)
        spill()
        protocol.data_received(REPORT)
        assert len(edge.executor.jobs) == 1
        assert edge.metrics.flat()["edge_loop_abandoned_total"] == 1
        assert "http_requests_total" not in edge.router.metrics.flat()
        assert app.engine.config.query_cache.stats()["misses"] == 0

    def test_a_write_stops_the_attempt_before_it_runs(self, edge):
        """So the replay on a thread writes once."""
        app, protocol, transport = self.reports(edge)

        def rows():
            with app.database.connect() as conn:
                return conn.execute("SELECT count(*) FROM urldb "
                                    "WHERE title = 'written'").fetchall()

        protocol.data_received(get("write.d2w"))
        assert len(edge.executor.jobs) == 1 and rows() == [(0,)]
        edge.finish_one()
        assert statuses(transport.written) == [b"200"]
        assert rows() == [(1,)]

    def test_a_statement_past_the_step_bound_goes_to_a_thread(self, edge):
        _, protocol, transport = self.reports(edge)
        start = time.perf_counter()
        protocol.data_received(get("long.d2w"))
        on_loop = time.perf_counter() - start
        assert len(edge.executor.jobs) == 1
        assert edge.metrics.flat()["edge_loop_abandoned_total"] == 1
        edge.finish_one()
        assert statuses(transport.written) == [b"200"]
        assert b"<P>300000</P>" in transport.written
        assert on_loop < 0.02   # the whole statement takes ~40 ms

    @pytest.mark.parametrize("raw", [
        REPORT.replace(b"GET", b"POST", 1),
        # A program that does not say it is loop-safe (a plain
        # function, the app-server dispatcher) is never tried either.
        REPORT.replace(b"GET /cgi-bin/db2www/", b"HEAD /cgi-bin/plain/"),
    ])
    def test_writes_and_streams_are_never_tried(self, edge, raw):
        app, protocol, _ = self.reports(edge)
        edge.router.gateway.install("plain", FunctionProgram(
            Db2WwwProgram(app.engine, app.library).run))
        for _ in range(2):
            protocol.data_received(raw)
            assert len(edge.executor.jobs) == 1
            edge.finish_one()
        assert edge.metrics.flat()["edge_loop_abandoned_total"] == 0


# -- the cost guard ---------------------------------------------------------

HTTP_DIR = str(Path(repro.http.__file__).parent)

#: Python calls into ``src/repro/http/`` made on *every* thread to answer
#: one keep-alive GET — measured, plus a little.  A change that raises a
#: count has made every request dearer: find out why before raising a
#: ceiling.  ``cgi`` is an all-hit report, answered on the loop;
#: ``handoff`` a program the loop never tries; ``abandoned`` a report
#: whose macro file is statted on every load, tried on the loop, stopped
#: at the stat and replayed on a thread.
CALL_CEILING = {"static": 40, "cgi": 45, "handoff": 50,
                "abandoned": 62}  # measured: 36, 41, 46 and 57
#: The same CGI report before the loop answered any (every one handed
#: off): its all-thread count.  Answering on the loop must stay cheaper.
PARENT_ALL_THREAD_CGI_CALLS = 58


def http_calls(run) -> int:
    """``call`` events in frames from ``src/repro/http/`` during ``run``."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(HTTP_DIR):
            count += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


class TestRequestPathCallCount:
    def measure(self, edge, kind, tmp_path) -> int:
        protocol, transport = edge.connect()
        if kind == "static":
            return http_calls(lambda: protocol.data_received(HELLO))
        if kind == "handoff":
            raw = SLOW
        else:
            app = mount_reports(edge)
            raw = REPORT
            if kind == "abandoned":
                (tmp_path / urlquery_app.MACRO_NAME).write_text(
                    urlquery_app.URLQUERY_MACRO, encoding="utf-8")
                edge.router.gateway.install("db2www", Db2WwwProgram(
                    app.engine, MacroLibrary(tmp_path, stat_ttl=0.0)))
            protocol.data_received(raw)  # fills the cache
            if edge.executor.jobs:
                edge.finish_one()

        def one():
            # The executor thread's share counts too: the test plays it.
            protocol.data_received(raw)
            if edge.executor.jobs:
                edge.finish_one()

        count = http_calls(one)
        assert statuses(transport.written)[-1] == b"200"
        return count

    @pytest.mark.parametrize("kind", sorted(CALL_CEILING))
    def test_call_count_is_exact_and_under_its_ceiling(self, make_edge, kind,
                                                       tmp_path):
        self.measure(make_edge(), kind, tmp_path)  # first use fills caches
        counts = {self.measure(make_edge(), kind, tmp_path)
                  for _ in range(3)}
        assert len(counts) == 1, f"call count is not deterministic: {counts}"
        (count,) = counts
        assert count <= CALL_CEILING[kind], (
            f"one {kind} request now costs {count} calls in http/ "
            f"(ceiling {CALL_CEILING[kind]})")
        assert CALL_CEILING["cgi"] < PARENT_ALL_THREAD_CGI_CALLS


# -- backpressure over a real socket ----------------------------------------

class TestSlowReaderOverASocket:
    def test_large_pipelined_responses_arrive_whole_and_in_order(self):
        """Two 4 MiB pages to a client that reads late: far past the
        high-water mark and the kernel's buffers, so the second request
        waits for ``resume_writing`` — and nothing is lost or reordered."""
        metrics = MetricsRegistry()
        router = Router(metrics=metrics)
        pages = {name: name.encode() * (4 << 20) for name in "ab"}
        for name, body in pages.items():
            router.add_page(f"/{name}", body.decode())
        with AsyncHttpServer(router, metrics=metrics) as server:
            with socket.create_connection((server.host, server.port),
                                          timeout=10.0) as sock:
                sock.sendall(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n"
                             b"Connection: close\r\n\r\n")
                time.sleep(0.3)  # the edge is stuck on this reader now
                assert router.metrics.counter(
                    "http_requests_total").value == 1
                data = b""
                while chunk := sock.recv(1 << 20):
                    data += chunk
        first, _, rest = data.partition(b"\r\n\r\n")
        assert b"200 OK" in first and rest.startswith(pages["a"])
        second, _, body = rest[len(pages["a"]):].partition(b"\r\n\r\n")
        assert b"200 OK" in second and body == pages["b"]
        assert metrics.counter("edge_backpressure_waits_total").value >= 1


# -- the listen backlog -----------------------------------------------------

class TestListenBacklog:
    def test_backlog_survives_create_server(self):
        """``create_server(sock=...)`` listens again with its own default
        of 100 unless told otherwise.  Stall the loop so nothing is
        accepted, then connect 300 times: every handshake must complete
        out of the kernel's queue, none waiting on a SYN retransmit."""
        clients = []
        metrics = MetricsRegistry()
        with AsyncHttpServer(Router(), backlog=512,
                             metrics=metrics) as server:
            server._loop.call_soon_threadsafe(time.sleep, 1.0)
            time.sleep(0.05)  # the loop is asleep now
            try:
                for _ in range(300):
                    clients.append(socket.create_connection(
                        (server.host, server.port), timeout=0.5))
            finally:
                for client in clients:
                    client.close()
            # and once it wakes, the loop finds all 300 in its queue
            accepted = metrics.counter("edge_connections_total")
            deadline = time.monotonic() + 10.0
            while (accepted.value < 300 or server.active_connections) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert accepted.value == 300
            assert server.active_connections == 0
