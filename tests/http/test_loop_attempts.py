"""Reports answered on the edge's event loop, over real sockets.

The edge tries every GET of a DB2WWW page on its loop thread and replays
it on a thread at the first step that would block (``repro.blocking``).
Its properties, each against a real :class:`AsyncHttpServer`:

* **the loop never blocks** — no SQLite connect, no write, no statement
  without its VM-step bound, no wait for a lease, no stat or read of a
  macro file, no ``%EXEC`` run and no sleep ever happens on the loop
  thread; reads do;
* **an abandoned attempt leaves no books** — one access-log line, one
  trace, one ``http_requests_total`` and one run's query-cache counts
  per request, however it was answered;
* **the edge is invisible** — a seeded order sequence gives the same
  statuses, bodies and final tables through the edge as in process;
* **a long statement is bounded** — on the loop by the VM-step bound,
  on a thread by the request deadline; an injected stall or failure on
  the loop is replayed on a thread.
"""

import http.client
import io
import os
import queue
import random
import sqlite3
import threading
import time
from contextlib import closing
from urllib.parse import urlencode

import pytest

from repro.apps import orders, paging, urlquery, wizard
from repro.apps.datasets import seed_orders, seed_urldb
from repro.cgi.gateway import CgiGateway, Db2WwwProgram
from repro.core.builtins import standard_exec_runner
from repro.core.engine import EngineConfig, MacroEngine
from repro.core.macrofile import MacroLibrary
from repro.errors import SQLConnectError
from repro.http.accesslog import AccessLog
from repro.http.async_server import EXECUTOR_THREADS, AsyncHttpServer
from repro.http.inprocess import InProcessTransport
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.http.urls import Url
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.resilience import faults
from repro.sql.connection import PROGRESS_STEPS
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache

#: a page whose one statement counts ``rows`` rows: 300 000 run past the
#: VM-step bound (a loop attempt stops); 30M run on a thread for ~3.3 s on
#: one host and 10-13 s on another
LONG_SQL = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 "
            "FROM c WHERE x < $(rows)) SELECT count(*) AS n FROM c")
LONG_MACRO = f"""%DEFINE DATABASE = "URLDB"
%DEFINE rows = "300000"
%SQL{{ {LONG_SQL}
%SQL_REPORT{{%ROW{{<P>$(V_n)</P>%}}%}}
%}}
%HTML_INPUT{{<P>long%}}
%HTML_REPORT{{%EXEC_SQL%}}
"""

MACROS = {
    urlquery.MACRO_NAME: urlquery.URLQUERY_MACRO,
    paging.MACRO_NAME: paging.BROWSE_MACRO,
    orders.SEARCH_MACRO_NAME: orders.SEARCH_MACRO,
    orders.ENTRY_MACRO_NAME: orders.ENTRY_MACRO,
    "wizard_customer.d2w": wizard.CUSTOMER_MACRO,
    "wizard_product.d2w": wizard.PRODUCT_MACRO,
    "wizard_confirm.d2w": wizard.CONFIRM_MACRO,
    "long.d2w": LONG_MACRO,
}
FORM = {"Content-Type": "application/x-www-form-urlencoded"}
CUSTOMERS = tuple(10100 + 100 * k for k in range(6))
PRODUCTS = ("bikes", "helmets", "tents", "lanterns")
URLQUERY_REPORT = (f"/cgi-bin/db2www/{urlquery.MACRO_NAME}/report"
                   "?SEARCH=ib&USE_URL=yes&DBFIELDS=title")
BROWSE = f"/cgi-bin/db2www/{paging.MACRO_NAME}/report?q=a&START_ROW_NUM=11"
#: recomputed on every run: the ``nocache`` program
LONG = "/cgi-bin/nocache/long.d2w/report"


class ExecRunners:
    """The apps' ``%EXEC`` commands behind one runner, every run seen."""

    def __init__(self, seen):
        self.seen = seen
        self.runners = (paging.paging_exec_runner(), standard_exec_runner())

    def run(self, command):
        self.seen.append(("exec", threading.get_ident()))
        word = command.split()[0]
        for runner in self.runners:
            if word in runner.commands():
                return runner.run(command)
        return self.runners[-1].run(command)


def build(root, *, stat_ttl=60.0, exec_runner=None, request_deadline=None):
    """The URL and order apps from macro files and SQLite files, served
    by two DB2WWW programs: ``db2www`` with a query cache, ``nocache``
    without one (every page of it leases a connection).  A request
    deadline reaches the engines, as ``repro serve`` passes it."""
    macros = root / "macros"
    macros.mkdir()
    for name, text in MACROS.items():
        (macros / name).write_text(text, encoding="utf-8")
    registry = DatabaseRegistry()
    for name, seed in (("URLDB", lambda conn: seed_urldb(conn, 40)),
                       ("CELDIAL", seed_orders)):
        path = root / f"{name.lower()}.sqlite"
        with closing(sqlite3.connect(path)) as conn:
            seed(conn)
            conn.execute("CREATE TABLE IF NOT EXISTS order_audit (custid "
                         "INTEGER, product_name VARCHAR(40), quantity INTEGER)")
            conn.commit()
        registry.register_path(name, str(path))
    registry.enable_pools(size=EXECUTOR_THREADS)  # as `repro serve` does
    library = MacroLibrary(macros, stat_ttl=stat_ttl)
    runner = exec_runner or ExecRunners([])
    gateway = CgiGateway()
    for program, cache in (("db2www", QueryResultCache()), ("nocache", None)):
        engine = MacroEngine(registry, config=EngineConfig(
            query_cache=cache, request_deadline=request_deadline),
            exec_runner=runner)
        gateway.install(program, Db2WwwProgram(engine, library))
    return Router(gateway=gateway, metrics=MetricsRegistry()), registry


def order_sequence(seed, count, program="db2www"):
    """Searches (repeating: six customers) and order-entry POSTs."""
    rng = random.Random(seed)
    sequence = []
    for _ in range(count):
        customer = rng.choice(CUSTOMERS)
        if rng.random() < 0.08:
            body = urlencode([("order_cust", customer),
                              ("order_prod", rng.choice(PRODUCTS)),
                              ("order_qty", rng.randint(1, 5))])
            sequence.append(("POST", f"/cgi-bin/{program}/"
                             f"{orders.ENTRY_MACRO_NAME}/report", body))
            continue
        pairs = [("cust_inp", customer)]
        if rng.random() < 0.3:
            pairs.append(("prod_inp", rng.choice(PRODUCTS)[:3]))
        sequence.append(("GET", f"/cgi-bin/{program}/"
                         f"{orders.SEARCH_MACRO_NAME}/report?"
                         f"{urlencode(pairs)}", ""))
    return sequence


def page_sequence():
    """Every other app page, each three times running (the first run
    of a target is on a thread; the third may be on the loop)."""
    pages = [
        f"/cgi-bin/db2www/{urlquery.MACRO_NAME}/input",
        URLQUERY_REPORT,
        f"/cgi-bin/db2www/{paging.MACRO_NAME}/report?q=a&START_ROW_NUM=11",
        f"/cgi-bin/nocache/{paging.MACRO_NAME}/report?q=e",
        "/cgi-bin/db2www/wizard_customer.d2w/report",
        "/cgi-bin/db2www/wizard_product.d2w/report?wiz_cust=10100",
        "/cgi-bin/db2www/wizard_confirm.d2w/report?wiz_cust=10100"
        "&wiz_prod=bikes",
    ]
    return [("GET", target, "") for target in pages for _ in range(3)]


def send_all(server, sequence, *, timeout=10):
    """Each request over one keep-alive connection: [(status, body)].
    ``timeout`` is the client socket's (``None`` waits for the answer
    however long its statement runs)."""
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=timeout)
    answers = []
    try:
        for method, target, body in sequence:
            conn.request(method, target, body=body or None,
                         headers=FORM if body else {})
            response = conn.getresponse()
            answers.append((response.status, response.read()))
    finally:
        conn.close()
    return answers


def table(registry, database, sql):
    with closing(registry.connect(database)) as conn:
        return conn.execute(sql).fetchall()


#: what the loop thread may run unwatched: brackets, the pool's ping,
#: the busy-handler switch
UNWATCHED = ("BEGIN", "COMMIT", "ROLLBACK", "SELECT 1", "PRAGMA busy_timeout")
READS = ("SELECT", "WITH", "VALUES")


class RawConnection:
    """A ``sqlite3`` connection that reports each statement with the
    progress handler it runs under."""

    def __init__(self, raw, record):
        self._raw, self._steps = raw, 0
        raw.set_trace_callback(lambda sql: record.append(
            (self._classify(sql), threading.get_ident())))

    def _classify(self, sql):
        sql = sql.strip()
        if sql.startswith(UNWATCHED):
            return "bracket"
        if not sql.upper().startswith(READS):
            return "write"
        if not 0 < self._steps <= PROGRESS_STEPS:
            return "unwatched read"
        return "read"

    def set_progress_handler(self, handler, steps):
        self._steps = steps if handler is not None else 0
        self._raw.set_progress_handler(handler, steps)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture()
def seen(monkeypatch, tmp_path):
    """(step, thread id) of every SQLite connect and statement (a read,
    watched or not, a write, or a bracket), every stat or open below
    ``tmp_path``, every wait for a pooled connection, every
    ``time.sleep`` and every ``%EXEC`` run."""
    record = []
    root = str(tmp_path)
    real_connect, real_stat, real_open = sqlite3.connect, os.stat, io.open
    real_get, real_sleep = queue.LifoQueue.get, time.sleep

    def connect(*args, **kwargs):
        record.append(("connect", threading.get_ident()))
        return RawConnection(real_connect(*args, **kwargs), record)

    def stat(path, *args, **kwargs):
        if str(path).startswith(root):
            record.append(("stat", threading.get_ident()))
        return real_stat(path, *args, **kwargs)

    def open_(path, *args, **kwargs):
        if str(path).startswith(root):
            record.append(("read", threading.get_ident()))
        return real_open(path, *args, **kwargs)

    def get(self, block=True, timeout=None):
        if block:
            record.append(("lease wait", threading.get_ident()))
        return real_get(self, block, timeout)

    def sleep(seconds):
        record.append(("sleep", threading.get_ident()))
        real_sleep(seconds)

    monkeypatch.setattr(sqlite3, "connect", connect)
    monkeypatch.setattr(os, "stat", stat)
    monkeypatch.setattr(io, "open", open_)
    monkeypatch.setattr(queue.LifoQueue, "get", get)
    monkeypatch.setattr(time, "sleep", sleep)
    return record


def test_the_loop_thread_never_blocks(tmp_path, seen):
    """Searches miss, and order-entry writes make every entry stale;
    ``nocache`` pages lease on every run; a browse page runs ``%EXEC``;
    a wizard GET writes; a page runs past the VM-step bound; then every
    macro's stat TTL runs out.  The loop tries every GET, and runs its
    reads, but each of those steps happens on a thread."""
    router, registry = build(tmp_path, exec_runner=ExecRunners(seen))
    report = [("GET", URLQUERY_REPORT, "")]
    long = [("GET", LONG, "")] * 2   # the first run stats the macro
    warm = (order_sequence(8, 60, program="nocache") + order_sequence(7, 60)
            + page_sequence() + report * 2 + long)
    stale = report + order_sequence(7, 30) + page_sequence() + long
    try:
        with AsyncHttpServer(router) as server:
            answers = send_all(server, warm)
            # From here on every load must stat its macro file again.
            router.gateway.program("db2www").library.stat_ttl = 0.0
            answers += send_all(server, stale)
            loop_thread = server._thread.ident
    finally:
        registry.close_all()
    assert {status for status, _ in answers} == {200}
    assert {step for step, _ in seen} >= {
        "connect", "read", "write", "stat", "exec", "bracket"}
    on_loop = {step for step, thread in seen if thread == loop_thread}
    assert on_loop - {"read", "bracket"} == set(), \
        f"the loop thread ran blocking steps: {sorted(on_loop)}"
    # ...and yet the loop did run reads and answer pages, and gave some up
    assert "read" in on_loop
    flat = router.metrics.flat()
    assert flat["edge_handoff_wait_ms_count"] < len(answers) - 100
    assert flat["edge_loop_abandoned_total"] > 0


def test_an_abandoned_attempt_leaves_no_books(tmp_path, no_ambient_faults):
    """A report's first run stats its macro (a thread); then it is all
    hits, and after the cache is cleared a miss (all on the loop).  A
    browse page whose cache is cleared misses, stores and then runs
    ``%EXEC``: tried on the loop, abandoned, answered on a thread — and
    every request is booked once, with one run's cache counts."""
    router, registry = build(tmp_path)
    router.access_log = AccessLog()
    router.tracer = tracer = Tracer()
    tracer.enable()
    traces = []
    tracer.add_sink(traces.append)
    cache = router.gateway.program("db2www").engine.config.query_cache
    browse = [("GET", BROWSE, "")]
    try:
        with AsyncHttpServer(router) as server:
            answers = send_all(server, [("GET", URLQUERY_REPORT, "")] * 3)
            cache.clear()
            answers += send_all(server, [("GET", URLQUERY_REPORT, "")])
            answers += send_all(server, browse)
            cache.clear()
            answers += send_all(server, browse)
    finally:
        registry.close_all()
    assert {status for status, _ in answers} == {200}
    assert len(set(answers[:4])) == 1 and answers[4] == answers[5]
    flat = router.metrics.flat()
    assert flat["edge_loop_abandoned_total"] == 3
    assert flat["edge_handoff_wait_ms_count"] == 3
    assert flat["http_requests_total"] == 6
    assert len(router.access_log) == 6
    assert [root.attrs["edge"] for root in traces] == [
        "executor", "loop", "loop", "loop", "executor", "executor"]
    assert not any("error" in span.attrs for root in traces
                   for span in root.walk())
    stats = cache.stats()
    # report: miss, hit, a kept page's hit, miss; browse: miss, miss
    assert (stats["hits"], stats["misses"], stats["stores"]) == (2, 4, 4)


def test_edge_and_in_process_answers_are_identical(tmp_path):
    sequence = order_sequence(11, 150) + page_sequence()
    (tmp_path / "edge").mkdir()
    (tmp_path / "inproc").mkdir()
    edge_router, edge_registry = build(tmp_path / "edge")
    router, registry = build(tmp_path / "inproc")
    transport = InProcessTransport(router)
    try:
        with AsyncHttpServer(edge_router) as server:
            over_edge = send_all(server, sequence)
        in_process = []
        for method, target, body in sequence:
            request = HttpRequest(method=method, target=target,
                                  body=body.encode())
            if body:
                request.headers.set("Content-Type", FORM["Content-Type"])
            response = transport.fetch(Url.parse(f"http://x{target}"),
                                       request)
            in_process.append((response.status, response.body))
        tables = [
            [table(reg, "CELDIAL", f"SELECT * FROM {name} ORDER BY rowid")
             for name in ("orders", "order_audit")]
            for reg in (edge_registry, registry)]
    finally:
        edge_registry.close_all()
        registry.close_all()
    assert over_edge == in_process
    assert tables[0] == tables[1]
    assert len(tables[0][1]) > 0   # the order entries landed
    handed_off = edge_router.metrics.flat()["edge_handoff_wait_ms_count"]
    assert handed_off < len(sequence) - 40   # the loop answered the rest


#: the probe: 30M rows of a recursive CTE, one statement of ~3.3 s on one
#: host and 10-13 s on another, so a request that waits for its end
#: passes no socket timeout
PROBE = f"{LONG}?rows=30000000"


def test_a_deadline_holds_inside_a_statement(tmp_path):
    """With a request deadline the statement's progress handler runs on
    the thread too: the probe answers 504 once the budget is spent, not
    when the statement ends, and its connection goes back to the pool
    rolled back and reusable."""
    router, registry = build(tmp_path, request_deadline=0.3)
    try:
        with AsyncHttpServer(router, request_deadline=0.3) as server:
            send_all(server, [("GET", LONG, "")])   # the macro's stat
            start = time.perf_counter()
            ((status, body),) = send_all(server, [("GET", PROBE, "")])
            elapsed = time.perf_counter() - start
            after = send_all(server, [("GET", LONG, "")])
        pool = registry.pool("URLDB").stats
    finally:
        registry.close_all()
    assert status == 504 and b"during a statement" in body
    assert elapsed < 0.3 + 0.1
    assert after == [(200, b"<P>300000</P>")]
    assert (pool["created"], pool["evicted"]) == (1, 0)


def test_a_long_statement_holds_the_loop_only_briefly(tmp_path,
                                                      no_ambient_faults):
    """The probe runs on the loop for at most PROGRESS_STEPS VM steps,
    well under the 5 ms a GIL switch interval allows, then to its end
    on a thread; meanwhile a client of a cached report keeps its p99
    within 2x of its p99 with the loop to itself.

    Both figures are taken beside one CPU-bound statement — the probe's
    own rows run outside the server, on a connection of the test's,
    for the first — so they differ in what the server does with the
    probe, not in how busy the host's cores are.  (No deadline: its
    handler would take the GIL on the probe's thread.)"""
    router, registry = build(tmp_path)
    attempts, answers, failures = [], [], []

    def timed(on_loop):
        def run(handle):
            start = time.perf_counter()
            try:
                return on_loop(handle)
            finally:
                attempts.append((handle.args[0].target,
                                 time.perf_counter() - start))
        return run

    def p99(server):
        """A client that reads a page every millisecond or so: the
        median of three p99s of 300 requests, so that one burst of the
        host's noise is not the figure."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        figures = []
        try:
            for _ in range(3):
                times = []
                for _ in range(300):
                    start = time.perf_counter()
                    conn.request("GET", URLQUERY_REPORT)
                    assert conn.getresponse().read()
                    times.append(time.perf_counter() - start)
                    time.sleep(0.001)
                figures.append(sorted(times)[int(len(times) * 0.99)])
        finally:
            conn.close()
        return sorted(figures)[1]

    def beside(run):
        """``run()`` while the probe's statement runs outside the
        server; it is interrupted after."""
        outside = real_connect(":memory:", check_same_thread=False)
        busy = threading.Thread(target=lambda: pytest.raises(
            sqlite3.OperationalError, outside.execute,
            LONG_SQL.replace("$(rows)", "30000000")))
        busy.start()
        try:
            return run()
        finally:
            outside.interrupt()
            busy.join()
            outside.close()

    def probe_run():
        try:
            answers.extend(send_all(server, [("GET", PROBE, "")],
                                    timeout=None))
        except Exception as exc:   # re-raised by the test
            failures.append(exc)

    real_connect = sqlite3.connect
    try:
        with AsyncHttpServer(router) as server:
            server._on_loop = timed(server._on_loop)
            send_all(server, [("GET", URLQUERY_REPORT, ""),
                              ("GET", LONG, "")])   # stats, cached
            alone = beside(lambda: p99(server))
            probe = threading.Thread(target=probe_run)
            handoffs = router.metrics.histogram("edge_handoff_wait_ms")
            before = handoffs.count
            probe.start()
            while handoffs.count == before and probe.is_alive():
                time.sleep(0.001)   # until the probe is on its thread
            loaded = p99(server)
            running = probe.is_alive()
            probe.join()
    finally:
        registry.close_all()
    if failures:
        raise failures[0]
    assert running
    assert answers == [(200, b"<P>30000000</P>")]
    (probe_on_loop,) = [took for target, took in attempts
                        if target == PROBE]
    assert probe_on_loop < 0.005
    assert loaded <= 2 * alone, (loaded, alone)


def test_a_busy_database_is_waited_for_on_a_thread(tmp_path,
                                                   no_ambient_faults):
    """SQLite's busy handler is off on the loop: a read that finds the
    file locked stops the attempt at once, and its replay waits for the
    lock on a thread."""
    router, registry = build(tmp_path)
    report = URLQUERY_REPORT.replace("/db2www/", "/nocache/")
    try:
        with AsyncHttpServer(router) as server:
            (clean,) = send_all(server, [("GET", report, "")])
            with closing(sqlite3.connect(
                    tmp_path / "urldb.sqlite", isolation_level=None,
                    check_same_thread=False)) as writer:
                writer.execute("BEGIN EXCLUSIVE")
                threading.Timer(0.2, writer.commit).start()
                start = time.perf_counter()
                answers = send_all(server, [("GET", report, "")])
                elapsed = time.perf_counter() - start
    finally:
        registry.close_all()
    assert answers == [clean]
    assert elapsed >= 0.2
    flat = router.metrics.flat()
    assert flat["edge_loop_abandoned_total"] == 2   # the stat, the lock
    assert flat["edge_handoff_wait_ms_count"] == 2


class FailFirstQuery:
    """An ambient injector whose first statement fails transiently."""

    def __init__(self):
        self.failed = False

    def before_query(self, sql, connection=None):
        if not self.failed:
            self.failed = True
            raise SQLConnectError("injected transient failure",
                                  sqlstate="08006")


@pytest.mark.parametrize("fault", ["stall", "transient"])
def test_an_injected_fault_is_replayed_on_a_thread(tmp_path, monkeypatch,
                                                   fault):
    """An ambient fault injector's stall, or a transient failure the
    retry policy would back off from, stops the loop attempt before it
    sleeps: the request is replayed on a thread and answered whole."""
    router, registry = build(tmp_path)
    sleeps = []

    def sleep(seconds):
        sleeps.append(threading.get_ident())

    monkeypatch.setattr(time, "sleep", sleep)
    injector = (faults.FaultInjector.parse("slow:1:0.01", sleep=sleep)
                if fault == "stall" else FailFirstQuery())
    try:
        with AsyncHttpServer(router) as server:
            clean = send_all(server, [("GET", URLQUERY_REPORT, "")] * 2)
            router.gateway.program("db2www").engine.config \
                .query_cache.clear()
            before = router.metrics.flat()
            monkeypatch.setattr(faults, "_ambient", injector)
            answers = send_all(server, [("GET", URLQUERY_REPORT, "")])
            monkeypatch.setattr(faults, "_ambient", None)
            loop_thread = server._thread.ident
    finally:
        registry.close_all()
    assert answers == clean[:1]
    flat = router.metrics.flat()
    for name in ("edge_loop_abandoned_total", "edge_handoff_wait_ms_count"):
        assert flat[name] == before[name] + 1
    assert loop_thread not in sleeps
    assert sleeps if fault == "stall" else injector.failed
