"""Trace propagation across the app-server boundary.

The request frame carries the dispatcher's trace id (``REPRO_TRACE_ID``
in the CGI environment); the worker process runs its own span tree under
that id and ships it home in the RESPONSE frame, where the dispatcher
grafts it into the live request trace.  One request, one trace id,
spans from two processes.
"""

import os
import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.datasets import seed_urldb
from repro.appserver.dispatcher import AppServerDispatcher
from repro.cgi.gateway import CgiGateway
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.obs.trace import TRACER
from repro.sql.connection import Connection

REPORT_TARGET = ("/cgi-bin/db2www/urlquery.d2w/report"
                 "?SEARCH=ib&USE_URL=yes&DBFIELDS=title")


@pytest.fixture(scope="module")
def deployment_env(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("appserver-trace")
    db_path = tmp_path / "urldb.sqlite"
    conn = Connection(str(db_path))
    seed_urldb(conn, 20)
    conn.close()
    macro_dir = tmp_path / "macros"
    macro_dir.mkdir()
    (macro_dir / "urlquery.d2w").write_text(
        urlquery_app.URLQUERY_MACRO, encoding="utf-8")
    return {
        "REPRO_MACRO_DIR": str(macro_dir),
        "REPRO_DATABASE_URLDB": str(db_path),
        "REPRO_QUERY_CACHE": "32",
        "REPRO_POOL_SIZE": "1",
        # What `repro serve --gateway appserver` sets: workers trace
        # (their spans must exist to ship home) but have no sinks of
        # their own — the serving process logs the stitched trace.
        "REPRO_TRACE": "1",
    }


@pytest.fixture(scope="module")
def router(deployment_env):
    dispatcher = AppServerDispatcher(deployment_env, workers=1)
    gateway = CgiGateway()
    gateway.install("db2www", dispatcher)
    yield Router(gateway=gateway)
    dispatcher.shutdown()


@pytest.fixture()
def traced():
    captured = []
    TRACER.enable()
    TRACER.add_sink(captured.append)
    yield captured
    TRACER.disable()
    TRACER.clear_sinks()


def worker_subtree(root):
    spans = [span for span in root.walk() if span.name == "worker"]
    assert len(spans) == 1
    return spans[0]


class TestWorkerSpansJoinTheRequestTrace:
    def test_one_trace_id_across_both_processes(self, router, traced):
        response = router.handle(HttpRequest(target=REPORT_TARGET),
                                 trace_id="trace-appserver-1")
        response.drain()
        assert response.status == 200
        assert response.headers.get("X-Trace-Id") == "trace-appserver-1"
        (root,) = traced
        assert root.trace_id == "trace-appserver-1"
        # every span of the tree — local and grafted — shares the id
        assert {span.trace_id for span in root.walk()} == \
            {"trace-appserver-1"}
        worker = worker_subtree(root)
        assert worker.attrs["worker_id"] == 0
        assert worker.attrs["status"] == 200
        # the *worker's* pid rode along: another process's spans
        assert worker.attrs["pid"] not in (0, os.getpid())

    def test_worker_side_sql_spans_are_present(self, router, traced):
        router.handle(HttpRequest(target=REPORT_TARGET),
                      trace_id="trace-appserver-2").drain()
        (root,) = traced
        worker = worker_subtree(root)
        names = {span.name for span in worker.walk()}
        assert {"worker", "macro.load", "substitute",
                "sql.execute", "report.render"} <= names
        sql_spans = [span for span in worker.walk()
                     if span.name == "sql.execute"]
        assert sql_spans
        for span in sql_spans:
            assert span.attrs["digest"]
        assert sql_spans[0].attrs["rows"] >= 1

    def test_dispatch_span_parents_the_graft(self, router, traced):
        router.handle(HttpRequest(target=REPORT_TARGET),
                      trace_id="trace-appserver-3").drain()
        (root,) = traced
        (dispatch,) = [span for span in root.walk()
                       if span.name == "appserver.dispatch"]
        assert dispatch.attrs["slot"] == 0
        assert [child.name for child in dispatch.children] == ["worker"]
        # the graft boundary crosses clock domains: offset resets to 0
        record = root.to_dict()

        def find(node, name):
            if node["name"] == name:
                return node
            for child in node.get("children", ()):
                found = find(child, name)
                if found is not None:
                    return found
            return None

        assert find(record, "worker")["offset_ms"] == 0.0

    def test_worker_cache_hits_are_visible_in_the_trace(
            self, router, traced):
        """Second identical report: the worker's query cache answers,
        and the grafted span says so."""
        router.handle(HttpRequest(target=REPORT_TARGET),
                      trace_id="trace-appserver-4a").drain()
        router.handle(HttpRequest(target=REPORT_TARGET),
                      trace_id="trace-appserver-4b").drain()
        second = traced[-1]
        sql_spans = [span for span in worker_subtree(second).walk()
                     if span.name == "sql.execute"]
        assert any(span.attrs.get("cached") for span in sql_spans)

    def test_requests_work_untraced(self, router):
        """Tracing off server-side: no header, no delivery, same page.
        (The worker still traces — its tree is simply not grafted.)"""
        assert not TRACER.enabled
        response = router.handle(HttpRequest(target=REPORT_TARGET))
        response.drain()
        assert response.status == 200
        assert not response.headers.get("X-Trace-Id")
        assert b"URL Query Result" in response.body
