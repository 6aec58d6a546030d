"""The router's observability surface: /metrics, /statusz, request spans."""

import json
import urllib.request

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.site import build_site
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER

QUERY = "SEARCH=ib&USE_URL=yes&DBFIELDS=title"


@pytest.fixture()
def site():
    app = urlquery_app.install(rows=30)
    site = build_site(app.engine, app.library)
    site.router.metrics = MetricsRegistry()
    return app, site


@pytest.fixture()
def traced():
    """The process-wide tracer, on for one test, with a capture sink."""
    captured = []
    TRACER.enable()
    TRACER.add_sink(captured.append)
    yield captured
    TRACER.disable()
    TRACER.clear_sinks()


def get(site, target):
    response = site.router.handle(HttpRequest(target=target))
    response.drain()
    return response


class TestMetricsEndpoint:
    def test_scrape_exposes_request_counters_and_latency(self, site):
        app, site = site
        get(site, app.input_path)
        get(site, f"{app.report_path}?{QUERY}")
        get(site, "/no-such-page")
        response = get(site, "/metrics")
        assert response.status == 200
        assert response.headers.get("Content-Type") == \
            "text/plain; version=0.0.4; charset=utf-8"
        text = response.body.decode()
        assert "http_requests_total 3" in text
        assert "http_errors_total 1" in text
        assert "# TYPE request_latency_ms summary" in text
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'request_latency_ms{{quantile="{quantile}"}}' in text
        assert "request_latency_ms_count 3" in text

    def test_scrape_includes_attached_legacy_sources(self, site):
        _, site = site
        site.router.metrics.attach_source(
            "query_cache", lambda: {"hits": 5})
        text = get(site, "/metrics").body.decode()
        assert "query_cache_hits 5" in text

    def test_no_registry_means_no_endpoint(self):
        app = urlquery_app.install(rows=2)
        bare = build_site(app.engine, app.library)
        assert get(bare, "/metrics").status == 404
        assert get(bare, "/statusz").status == 404


class TestStatusz:
    def test_json_snapshot(self, site):
        app, site = site
        get(site, app.input_path)
        response = get(site, "/statusz")
        assert response.status == 200
        assert response.headers.get("Content-Type") == \
            "application/json; charset=utf-8"
        snapshot = json.loads(response.body)
        assert snapshot["counters"]["http_requests_total"] == 1
        assert snapshot["summaries"]["request_latency_ms_count"] == 1
        assert set(snapshot) == {"counters", "gauges", "summaries"}

    def test_scrape_requests_are_counted_too(self, site):
        """Each scrape reflects the requests completed before it."""
        _, site = site
        get(site, "/statusz")
        get(site, "/statusz")
        snapshot = json.loads(get(site, "/statusz").body)
        assert snapshot["counters"]["http_requests_total"] == 2

    def test_executor_handoff_wait_is_a_histogram(self, site):
        """Over a socket: the report, POSTed, crosses the edge's executor
        and is clocked; the in-loop scrape that reads the clock is not."""
        app, site = site
        server = site.serve()  # already started: not a ``with`` target
        try:
            for target, data in ((app.report_path, QUERY.encode()),
                                 ("/statusz", None)):
                with urllib.request.urlopen(server.base_url + target, data,
                                            timeout=10) as response:
                    body = response.read()
        finally:
            server.shutdown()
        summaries = json.loads(body)["summaries"]
        assert summaries["edge_handoff_wait_ms_count"] == 1


class TestRequestSpans:
    def test_no_trace_header_when_tracing_off(self, site):
        app, site = site
        response = get(site, app.input_path)
        assert not response.headers.get("X-Trace-Id")

    def test_buffered_report_trace_covers_the_whole_stack(
            self, site, traced):
        app, site = site
        response = get(site, f"{app.report_path}?{QUERY}")
        assert response.status == 200
        trace_id = response.headers.get("X-Trace-Id")
        assert trace_id
        (root,) = traced
        assert root.name == "request"
        assert root.trace_id == trace_id
        assert root.attrs["status"] == 200
        names = {span.name for span in root.walk()}
        assert {"request", "macro.load", "substitute",
                "sql.execute", "report.render"} <= names
        sql_spans = [span for span in root.walk()
                     if span.name == "sql.execute"]
        assert sql_spans[0].attrs["digest"]
        assert sql_spans[0].attrs["rows"] >= 1

    def test_disk_macro_parse_is_spanned_once(self, tmp_path, traced):
        """The parse span appears on the first disk load only (the
        mtime cache serves later requests without re-parsing)."""
        from repro.core.macrofile import MacroLibrary

        app = urlquery_app.install(rows=5)
        macro_dir = tmp_path / "macros"
        macro_dir.mkdir()
        (macro_dir / "urlquery.d2w").write_text(
            urlquery_app.URLQUERY_MACRO, encoding="utf-8")
        site = build_site(app.engine, MacroLibrary(macro_dir))
        get(site, app.input_path)
        get(site, app.input_path)
        first, second = traced
        assert "parse" in {span.name for span in first.walk()}
        assert "parse" not in {span.name for span in second.walk()}

    def test_streaming_report_finishes_the_span_at_drain(self, traced,
                                                        spill):
        spill()
        app = urlquery_app.install(rows=30)
        site = build_site(app.engine, app.library)
        site.router.metrics = MetricsRegistry()
        response = get(site, f"{app.report_path}?{QUERY}")
        assert b"URL Query Result" in response.body
        (root,) = traced
        assert root.end is not None
        assert root.attrs["bytes"] == len(response.body)
        names = {span.name for span in root.walk()}
        assert {"request", "emit", "sql.execute",
                "report.render"} <= names
        sql_spans = [span for span in root.walk()
                     if span.name == "sql.execute"]
        assert sql_spans[0].attrs["streaming"] is True
        assert sql_spans[0].attrs["rows"] >= 1
        # the streamed bytes were really observed by the registry too
        flat = site.router.metrics.flat()
        assert flat["http_response_bytes_total"] == len(response.body)

    def test_error_responses_are_spanned_and_counted(self, site, traced):
        _, site = site
        response = get(site, "/missing")
        assert response.status == 404
        (root,) = traced
        assert root.attrs["status"] == 404
        assert site.router.metrics.counter("http_errors_total").value == 1


class TestStatementsEndpoint:
    @pytest.fixture()
    def statements(self):
        from repro.sql.digest import StatementStats
        stats = StatementStats()
        stats.enabled = True
        return stats

    def test_not_routed_without_a_store(self, site):
        _, site = site
        assert get(site, "/statements").status == 404

    def test_serves_the_digest_table_as_json(self, site, statements):
        _, site = site
        site.router.statements = statements
        statements.record(digest="abc", statement="select ?",
                          duration_ms=3.0, rows=5)
        response = get(site, "/statements")
        assert response.status == 200
        assert response.headers.get("Content-Type") == \
            "application/json; charset=utf-8"
        body = json.loads(response.body)
        (row,) = body["statements"]
        assert row["digest"] == "abc"
        assert row["calls"] == 1
        assert body["recorded_total"] == 1

    def test_limit_query_parameter_caps_rows(self, site, statements):
        _, site = site
        site.router.statements = statements
        statements.record(digest="hot", duration_ms=100.0)
        statements.record(digest="cold", duration_ms=1.0)
        body = json.loads(get(site, "/statements?limit=1").body)
        assert [r["digest"] for r in body["statements"]] == ["hot"]
        assert get(site, "/statements?limit=bogus").status == 400

    @pytest.mark.parametrize("raw", ["1_0", "+3", "-1", "\u0663", ""])
    def test_limit_is_plain_ascii_digits_or_400(self, site, statements,
                                                raw):
        """``int()`` took ``1_0`` for 10 and ``+3`` for 3."""
        _, site = site
        site.router.statements = statements
        response = get(site, f"/statements?limit={raw}")
        assert response.status == 400
        assert b"bad limit" in response.body

    def test_live_traffic_lands_in_the_table(self, site, statements,
                                             traced):
        """End to end: the store as a tracer sink sees the report's
        sql.execute span and /statements shows its digest."""
        app, site = site
        site.router.statements = statements
        TRACER.add_sink(statements)
        response = get(site, f"{app.report_path}?{QUERY}")
        assert response.status == 200
        body = json.loads(get(site, "/statements").body)
        assert body["statements"], "no digest rows after traffic"
        row = body["statements"][0]
        assert row["calls"] >= 1
        assert row["rows"] >= 1
        assert "select" in row["statement"].lower()

    def test_statement_text_is_the_shape_not_the_literals(
            self, site, statements, traced):
        """The table promises the normalized statement: a client's
        search term must not be readable off ``/statements``."""
        app, site = site
        site.router.statements = statements
        TRACER.add_sink(statements)
        get(site, f"{app.report_path}?{QUERY}")
        (row,) = json.loads(get(site, "/statements").body)["statements"]
        assert row["statement"] == ("select url, title from urldb "
                                    "where urldb.url like ? order by title")

    def test_private_tenant_sql_stays_off_the_process_wide_table(
            self, statements, traced):
        """One authenticated request to a private tenant, then an
        anonymous read: the digest counts, its text is not there."""
        from repro.security.auth import basic_credentials
        from repro.tenancy import TenantHost, TenantRegistry

        tenants = TenantRegistry()
        alpha = tenants.create_tenant("alpha", owner="alice",
                                      password="wonder",
                                      visibility="private")
        db = alpha.databases.register_memory("SHOP")
        with db.connect() as conn:
            conn.executescript("CREATE TABLE items (id INTEGER, name TEXT);"
                               "INSERT INTO items VALUES (1, 'apple');")
        alpha.library.add_text("items.d2w", (
            '%DEFINE DATABASE = "SHOP"\n'
            "%SQL{ SELECT id, name FROM items "
            "WHERE name <> 'alice-salary-98000' ORDER BY id %}\n"
            "%HTML_REPORT{\n%EXEC_SQL\n%}\n"))
        router = Router(tenants=TenantHost(tenants), statements=statements)
        TRACER.add_sink(statements)
        owner = HttpRequest(target="/t/alpha/items.d2w/report")
        owner.headers.set("Authorization",
                          basic_credentials("alice", "wonder"))
        page = router.handle(owner)
        page.drain()  # a tenant page streams; its trace ends here
        assert page.status == 200
        response = router.handle(HttpRequest(target="/statements"))
        assert response.status == 200
        assert b"alice-salary" not in response.body
        (row,) = json.loads(response.body)["statements"]
        assert row["calls"] == 1 and row["statement"] == ""
