"""Tracer semantics: records read as span trees, gating, propagation,
grafting."""

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.site import build_site
from repro.http.message import HttpRequest
from repro.obs.trace import (
    NOOP_SPAN,
    TRACER,
    Span,
    Tracer,
    new_trace_id,
    statement_digest,
)


@pytest.fixture()
def tracer():
    """A private enabled tracer with a capture sink."""
    tracer = Tracer()
    tracer.enable()
    tracer.captured = []
    tracer.add_sink(tracer.captured.append)
    return tracer


class TestGating:
    def test_disabled_tracer_returns_shared_noop(self):
        tracer = Tracer()
        with tracer.span("anything") as span:
            assert span is NOOP_SPAN
            span.set("ignored", 1)  # absorbed, never raises

    def test_begin_returns_none_when_disabled(self):
        assert Tracer().begin("request") is None

    def test_disabled_tracer_has_no_current_span(self, tracer):
        tracer.disable()
        with tracer.span("x"):
            assert tracer.current() is None
        assert tracer.current_trace_id() == ""


class TestSpanTrees:
    def test_nested_spans_form_a_tree(self, tracer):
        with tracer.span("request") as root:
            with tracer.span("sql.execute") as sql:
                sql.set("digest", "abc")
            with tracer.span("report.render"):
                pass
        assert [child.name for child in root.children] == \
            ["sql.execute", "report.render"]
        assert all(child.trace_id == root.trace_id
                   for child in root.children)
        assert all(child.parent_id == root.span_id
                   for child in root.children)

    def test_only_the_root_is_delivered(self, tracer):
        with tracer.span("request"):
            with tracer.span("inner"):
                pass
        assert [span.name for span in tracer.captured] == ["request"]

    def test_exception_marks_the_span_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("request"):
                raise ValueError("boom")
        (root,) = tracer.captured
        assert root.attrs["error"] == "ValueError"
        assert root.end is not None

    def test_walk_and_phase_totals(self, tracer):
        with tracer.span("request"):
            with tracer.span("sql.execute"):
                pass
            with tracer.span("sql.execute"):
                pass
        (root,) = tracer.captured
        assert [span.name for span in root.walk()] == \
            ["request", "sql.execute", "sql.execute"]
        totals = root.phase_totals()
        assert set(totals) == {"request", "sql.execute"}
        assert totals["sql.execute"] >= 0.0

    def test_broken_sink_does_not_break_delivery(self, tracer):
        def bad_sink(root):
            raise RuntimeError("sink died")

        # Registered ahead of the capture sink, so delivery must go on
        # past it.
        tracer.clear_sinks()
        tracer.add_sink(bad_sink)
        tracer.add_sink(tracer.captured.append)
        with tracer.span("request"):
            pass
        assert len(tracer.captured) == 1


class TestActiveSpan:
    def test_begin_activates_and_finish_delivers(self, tracer):
        act = tracer.begin("request", trace_id="tid-1")
        assert tracer.current() is act
        assert tracer.current_trace_id() == "tid-1"
        act.finish()
        assert tracer.current() is None
        assert [span.trace_id for span in tracer.captured] == ["tid-1"]

    def test_reactivation_around_streaming_pulls(self, tracer):
        act = tracer.begin("request")
        act.deactivate()
        assert tracer.current() is None
        act.activate()
        with tracer.span("sql.execute"):
            pass
        act.finish()
        (root,) = tracer.captured
        assert [child.name for child in root.children] == ["sql.execute"]

    def test_finish_is_idempotent(self, tracer):
        act = tracer.begin("request")
        act.finish()
        act.finish()
        assert len(tracer.captured) == 1


class TestSerialisation:
    def test_to_dict_offsets_are_relative_to_parent(self, tracer):
        with tracer.span("request") as root:
            with tracer.span("child"):
                pass
        record = root.to_dict()
        assert record["offset_ms"] == 0.0
        child = record["children"][0]
        assert child["name"] == "child"
        assert child["offset_ms"] >= 0.0
        assert child["trace_id"] == root.trace_id

    def test_export_round_trips_shape_and_durations(self, tracer):
        with tracer.span("worker") as root:
            root.set("pid", 42)
            with tracer.span("sql.execute"):
                pass
        rows = root.export()
        assert [row[:2] for row in rows] == [["worker", -1],
                                             ["sql.execute", 0]]
        rebuilt = Span.from_rows(rows, "tid-2")
        assert rebuilt.name == "worker"
        assert rebuilt.trace_id == "tid-2"
        assert rebuilt.start == 0.0  # a synthetic clock
        assert rebuilt.attrs["pid"] == 42
        assert [child.name for child in rebuilt.children] == \
            ["sql.execute"]
        assert rebuilt.duration_ms == pytest.approx(
            root.duration_ms, abs=0.001)

    def test_export_is_depth_first_with_parent_rows(self, tracer):
        with tracer.span("worker") as root:
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        assert [row[:2] for row in root.export()] == [
            ["worker", -1], ["a", 0], ["a1", 1], ["b", 0]]


class TestGraft:
    def test_worker_tree_joins_the_live_trace(self, tracer):
        exported = [["worker", -1, 0, 5000, {}],
                    ["sql.execute", 0, 1000, 3000, {}]]
        act = tracer.begin("request", trace_id="tid-9")
        grafted = tracer.graft(exported)
        act.finish()
        # Grafted under the request, starting where it started: the
        # worker's clock is not this process's.
        assert grafted.parent_id == act.span_id
        assert grafted.start == act.start
        (root,) = tracer.captured
        names = [span.name for span in root.walk()]
        assert names == ["request", "worker", "sql.execute"]
        assert {span.trace_id for span in root.walk()} == {"tid-9"}

    def test_remote_offsets_zero_at_the_clock_boundary(self, tracer):
        """A grafted tree's root offset is 0 — its clock is foreign."""
        with tracer.span("request") as root:
            tracer.graft([["worker", -1, 123000, 5000, {}]])
        record = root.to_dict()
        assert record["children"][0]["offset_ms"] == 0.0

    def test_graft_without_active_span_is_a_noop(self, tracer):
        assert tracer.graft([["worker", -1, 0, 5, {}]]) is None


class TestIds:
    def test_trace_ids_are_unique(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100

    def test_statement_digest_is_short_and_stable(self):
        sql = "SELECT * FROM urldb WHERE title LIKE '%ibm%'"
        assert statement_digest(sql) == statement_digest(sql)
        assert len(statement_digest(sql)) == 12
        assert statement_digest(sql) != statement_digest(sql + " ")


class TestReportRenderSpan:
    def test_appendix_a_request_says_how_its_rows_rendered(self):
        """A slow report in the trace log says why: how many rows went
        through which row loop."""
        app = urlquery_app.install(rows=30)
        site = build_site(app.engine, app.library)
        roots = []
        TRACER.enable()
        TRACER.add_sink(roots.append)
        try:
            site.router.handle(HttpRequest(
                target=f"{app.report_path}?DBFIELDS=title")).drain()
        finally:
            TRACER.disable()
            TRACER.clear_sinks()
        (root,) = roots
        (render,) = [span for span in root.walk()
                     if span.name == "report.render"]
        assert render.attrs["rows"] == 30
        assert render.attrs["row_path"] == "compiled"
