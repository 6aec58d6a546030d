"""Reports answered on the edge's event loop, over real sockets.

The edge tries a memoised GET on its loop thread and hands it to a
thread at the first step that would block (``repro.blocking``).  Three
properties, each against a real :class:`AsyncHttpServer`:

* **the loop never blocks** — no SQLite connect or statement, no stat or
  read of a macro file, no ``%EXEC`` run ever happens on the loop thread;
* **an abandoned attempt leaves no books** — one access-log line, one
  trace, one ``http_requests_total`` and only completed lookups in the
  query-cache counters per request, however it was answered;
* **the edge is invisible** — a seeded order sequence gives the same
  statuses, bodies and final tables through the edge as in process.
"""

import http.client
import io
import os
import random
import sqlite3
import threading
from contextlib import closing
from urllib.parse import urlencode

import pytest

from repro.apps import orders, paging, urlquery, wizard
from repro.apps.datasets import seed_orders, seed_urldb
from repro.cgi.gateway import CgiGateway, Db2WwwProgram
from repro.core.builtins import standard_exec_runner
from repro.core.engine import EngineConfig, MacroEngine
from repro.core.macrofile import MacroLibrary
from repro.http.accesslog import AccessLog
from repro.http.async_server import EXECUTOR_THREADS, AsyncHttpServer
from repro.http.inprocess import InProcessTransport
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.http.urls import Url
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache

MACROS = {
    urlquery.MACRO_NAME: urlquery.URLQUERY_MACRO,
    paging.MACRO_NAME: paging.BROWSE_MACRO,
    orders.SEARCH_MACRO_NAME: orders.SEARCH_MACRO,
    orders.ENTRY_MACRO_NAME: orders.ENTRY_MACRO,
    "wizard_customer.d2w": wizard.CUSTOMER_MACRO,
    "wizard_product.d2w": wizard.PRODUCT_MACRO,
    "wizard_confirm.d2w": wizard.CONFIRM_MACRO,
}
FORM = {"Content-Type": "application/x-www-form-urlencoded"}
CUSTOMERS = tuple(10100 + 100 * k for k in range(6))
PRODUCTS = ("bikes", "helmets", "tents", "lanterns")
URLQUERY_REPORT = (f"/cgi-bin/db2www/{urlquery.MACRO_NAME}/report"
                   "?SEARCH=ib&USE_URL=yes&DBFIELDS=title")


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


def build(root, *, stat_ttl=60.0, exec_runner=None):
    """The URL and order apps from macro files and SQLite files, served
    by two DB2WWW programs: ``db2www`` with a query cache, ``nocache``
    without one (every page of it leases a connection)."""
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
        engine = MacroEngine(registry, config=EngineConfig(query_cache=cache),
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


def send_all(server, sequence):
    """Each request over one keep-alive connection: [(status, body)]."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
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


@pytest.fixture()
def seen(monkeypatch, tmp_path):
    """(step, thread id) of every SQLite connect and statement, every
    stat or open below ``tmp_path``, and every ``%EXEC`` run."""
    record = []
    root = str(tmp_path)
    real_connect, real_stat, real_open = sqlite3.connect, os.stat, io.open

    def connect(*args, **kwargs):
        record.append(("connect", threading.get_ident()))
        raw = real_connect(*args, **kwargs)
        raw.set_trace_callback(
            lambda sql: record.append(("execute", threading.get_ident())))
        return raw

    def stat(path, *args, **kwargs):
        if str(path).startswith(root):
            record.append(("stat", threading.get_ident()))
        return real_stat(path, *args, **kwargs)

    def open_(path, *args, **kwargs):
        if str(path).startswith(root):
            record.append(("read", threading.get_ident()))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", connect)
    monkeypatch.setattr(os, "stat", stat)
    monkeypatch.setattr(io, "open", open_)
    return record


def test_the_loop_thread_never_blocks(tmp_path, seen):
    """Searches miss, and order-entry writes make every entry stale;
    ``nocache`` pages lease on every run; a browse page runs ``%EXEC``;
    then every macro's stat TTL runs out.  The loop may try any GET it
    has seen, but each of those steps happens on a thread."""
    router, registry = build(tmp_path, exec_runner=ExecRunners(seen))
    report = [("GET", URLQUERY_REPORT, "")]
    warm = (order_sequence(8, 60, program="nocache") + order_sequence(7, 60)
            + page_sequence() + report * 2)
    stale = report + order_sequence(7, 30) + page_sequence()
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
    assert {step for step, _ in seen} == {"connect", "execute", "stat",
                                          "read", "exec"}
    on_loop = sorted({step for step, thread in seen if thread == loop_thread})
    assert on_loop == [], f"the loop thread ran blocking steps: {on_loop}"
    # ...and yet the loop did answer CGI pages, and gave some up
    flat = router.metrics.flat()
    assert flat["edge_handoff_wait_ms_count"] < len(answers) - 10
    assert flat["edge_loop_abandoned_total"] > 0


def test_an_abandoned_attempt_leaves_no_books(tmp_path):
    """A learned report whose cache entry is evicted: tried on the loop,
    abandoned, answered on a thread — and booked once."""
    router, registry = build(tmp_path)
    router.access_log = AccessLog()
    router.tracer = tracer = Tracer()
    tracer.enable()
    traces = []
    tracer.add_sink(traces.append)
    cache = router.gateway.program("db2www").engine.config.query_cache
    report = [("GET", URLQUERY_REPORT, "")]
    try:
        with AsyncHttpServer(router) as server:
            # a thread (the macro's first stat), a thread, the loop
            answers = send_all(server, report * 3)
            cache.clear()
            answers += send_all(server, report)
    finally:
        registry.close_all()
    assert len(set(answers)) == 1 and answers[0][0] == 200
    flat = router.metrics.flat()
    assert flat["edge_loop_abandoned_total"] == 1
    assert flat["edge_handoff_wait_ms_count"] == 3
    assert flat["http_requests_total"] == 4
    assert len(router.access_log) == 4
    assert [root.attrs["edge"] for root in traces] == [
        "executor", "executor", "loop", "executor"]
    assert not any("error" in span.attrs for root in traces
                   for span in root.walk())
    stats = cache.stats()
    # one lookup per completed request: miss, hit, hit, miss
    assert (stats["hits"], stats["misses"]) == (2, 2)


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
