"""One fold per record, and deferred delivery: MetricsBridge, FanoutSink."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.sampling import TailSampler
from repro.obs.sinks import FanoutSink, MetricsBridge
from repro.obs.trace import Trace, Tracer
from repro.sql.digest import StatementStats


@pytest.fixture()
def tracer():
    tracer = Tracer()
    tracer.enable()
    return tracer


def run_request(tracer, *, sql_ms=2.0, error=False, digest="deadbeef0123"):
    """One synthetic request trace with a single sql.execute span."""
    with tracer.span("request") as root:
        root.set("path", "/cgi-bin/db2www/urlquery.d2w/report")
        root.set("target", "/cgi-bin/db2www/urlquery.d2w/report")
        with tracer.span("parse") as parse:
            parse.end = parse.start + 0.001
        with tracer.span("sql.execute") as sql:
            sql.set("digest", digest)
            sql.set("sql", "SELECT * FROM urldb")
            sql.set("rows", 3)
            if error:
                sql.set("error", "deadlock")
            sql.end = sql.start + sql_ms / 1000.0  # pin the duration
    return root


def folded(tracer, **kwargs):
    """Run one request through a bridge feeding a statement store."""
    registry = MetricsRegistry()
    statements = StatementStats()
    statements.enabled = True
    bridge = MetricsBridge(registry, statements=statements)
    tracer.add_sink(bridge)
    root = run_request(tracer, **kwargs)
    return root, registry.snapshot(), statements.snapshot()


class TestFold:
    def test_totals_match_the_tree_walk(self, tracer):
        root, snapshot, _ = folded(tracer, sql_ms=5.0)
        sums = {name[len("span_"):-len("_ms_sum")]: value
                for name, value in snapshot["summaries"].items()
                if name.endswith("_ms_sum")}
        assert set(sums) == {"request", "parse", "sql_execute"}
        assert sums["sql_execute"] == pytest.approx(5.0)
        # Same numbers the span tree itself reports (both round).
        assert sums == {name.replace(".", "_"): ms
                        for name, ms in root.phase_totals().items()}

    def test_sql_spans_collected_and_error_flag(self, tracer):
        _, _, clean = folded(tracer)
        (row,) = clean["statements"]
        assert (row["calls"], row["rows"], row["errors"]) == (1, 3, 0)
        fresh = Tracer()
        fresh.enable()
        _, _, errored = folded(fresh, error=True)
        (row,) = errored["statements"]
        assert row["errors"] == 1

    def test_sql_free_trace_has_no_sql_spans(self, tracer):
        registry = MetricsRegistry()
        statements = StatementStats()
        statements.enabled = True
        tracer.add_sink(MetricsBridge(registry, statements=statements))
        with tracer.span("request"):
            with tracer.span("render"):
                pass
        assert registry.snapshot()["counters"]["traces_total"] == 1
        assert statements.snapshot()["statements"] == []
        assert statements.stats()["recorded_total"] == 0


class TestFanoutInline:
    def test_consumers_share_one_record(self, tracer):
        seen = []
        fanout = FanoutSink(seen.append, seen.append)
        tracer.add_sink(fanout)
        root = run_request(tracer)
        assert len(seen) == 2
        assert all(isinstance(trace, Trace) for trace in seen)
        assert seen[0] is seen[1] is root, "one record for every sink"

    def test_plain_callable_still_receives_the_root(self, tracer):
        roots = []
        fanout = FanoutSink(roots.append)
        tracer.add_sink(fanout)
        root = run_request(tracer)
        assert roots == [root]

    def test_broken_consumer_does_not_starve_the_rest(self, tracer):
        def broken(root):
            raise RuntimeError("boom")

        roots = []
        fanout = FanoutSink(broken, roots.append)
        tracer.add_sink(fanout)
        run_request(tracer)
        assert len(roots) == 1

    def test_parity_with_directly_registered_sinks(self, tracer):
        """Bridge + statements + sampler behind one fanout see exactly
        what they would as individual tracer sinks."""
        registry = MetricsRegistry()
        bridge = MetricsBridge(registry, slow_query_ms=1.0)
        statements = StatementStats()
        statements.enabled = True
        kept = []
        sampler = TailSampler(kept.append, slo_ms=1000.0, per_key=5)
        tracer.add_sink(FanoutSink(bridge, statements, sampler))
        run_request(tracer, sql_ms=2.0)
        run_request(tracer, sql_ms=2.0, error=True)
        assert registry.snapshot()["counters"]["traces_total"] == 2
        assert registry.snapshot()["counters"]["slow_queries_total"] == 2
        (row,) = statements.snapshot()["statements"]
        assert row["calls"] == 2
        assert row["errors"] == 1
        # Both traces kept: one via the per-digest reservoir, the
        # errored one unconditionally.
        assert len(kept) == 2
        assert sampler.stats()["kept_error"] == 1


class TestFanoutDeferred:
    def test_call_only_enqueues_until_flush(self, tracer):
        seen = []
        # A long drain interval keeps the daemon thread out of the test.
        fanout = FanoutSink(seen.append, defer_cap=64, drain_interval=60.0)
        tracer.add_sink(fanout)
        run_request(tracer)
        run_request(tracer)
        assert seen == []
        fanout.flush()
        assert len(seen) == 2
        fanout.flush()  # idempotent on an empty queue
        assert len(seen) == 2

    def test_cap_backstop_drains_inline(self, tracer):
        roots = []
        fanout = FanoutSink(roots.append, defer_cap=2, drain_interval=60.0)
        tracer.add_sink(fanout)
        run_request(tracer)
        assert roots == []
        run_request(tracer)  # hits the cap: drained without flush()
        assert len(roots) == 2


class TestRouterFlushHook:
    @pytest.fixture()
    def site(self):
        from repro.apps import urlquery as urlquery_app
        from repro.apps.site import build_site

        app = urlquery_app.install(rows=5)
        site = build_site(app.engine, app.library)
        site.router.metrics = MetricsRegistry()
        return site

    def get(self, site, target):
        from repro.http.message import HttpRequest

        response = site.router.handle(HttpRequest(target=target))
        response.drain()
        return response

    def test_scrapes_flush_deferred_aggregates_first(self, site):
        calls = []
        site.router.obs_flush = lambda: calls.append(1)
        assert self.get(site, "/metrics").status == 200
        assert self.get(site, "/statusz").status == 200
        assert len(calls) == 2

    def test_deferred_counters_are_exact_on_scrape(self, site, tracer):
        registry = site.router.metrics
        bridge = MetricsBridge(registry)
        fanout = FanoutSink(bridge, defer_cap=1024, drain_interval=60.0)
        tracer.add_sink(fanout)
        site.router.obs_flush = fanout.flush
        run_request(tracer)
        run_request(tracer)
        text = self.get(site, "/metrics").body.decode()
        assert "traces_total 2" in text

    def test_statements_endpoint_flushes_too(self, site, tracer):
        statements = StatementStats()
        statements.enabled = True
        fanout = FanoutSink(statements, defer_cap=1024, drain_interval=60.0)
        tracer.add_sink(fanout)
        site.router.statements = statements
        site.router.obs_flush = fanout.flush
        run_request(tracer)
        body = json.loads(self.get(site, "/statements").body)
        assert body["statements"], "deferred digest missing from scrape"

    def test_broken_flush_hook_never_fails_the_scrape(self, site):
        def broken():
            raise RuntimeError("drain hiccup")

        site.router.obs_flush = broken
        assert self.get(site, "/metrics").status == 200
