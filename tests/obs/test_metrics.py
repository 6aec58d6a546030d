"""MetricsRegistry: counters, gauges, streaming histograms, sources."""

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("requests")
        registry.inc("requests", 4)
        assert registry.counter("requests").value == 5

    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("workers", 4)
        registry.set_gauge("workers", 2)
        assert registry.gauge("workers").value == 2


class TestHistogram:
    def test_empty_snapshot_is_all_zero(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == snap["p95"] == snap["p99"] == 0.0

    def test_single_sample_quantiles_report_the_sample(self):
        hist = Histogram("h")
        hist.observe(12.0)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == 12.0
        # bucket edges are clamped to the observed extremes
        assert snap["p50"] == pytest.approx(12.0, rel=0.15)

    def test_quantiles_within_bucket_error(self):
        """Log-spaced buckets (factor 1.25) keep relative error ~12%."""
        hist = Histogram("h")
        for value in range(1, 1001):  # 1ms .. 1000ms uniform
            hist.observe(float(value))
        assert hist.quantile(0.50) == pytest.approx(500.0, rel=0.15)
        assert hist.quantile(0.95) == pytest.approx(950.0, rel=0.15)
        assert hist.quantile(0.99) == pytest.approx(990.0, rel=0.15)

    def test_sum_and_mean_are_exact(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["sum"] == 6.0
        assert snap["mean"] == 2.0

    def test_observations_beyond_last_bound_still_count(self):
        hist = Histogram("h")
        hist.observe(10_000_000.0)  # past the 10-minute top bucket
        assert hist.count == 1
        assert hist.quantile(0.5) > 0


class TestFlatView:
    def test_flat_flattens_histograms(self):
        registry = MetricsRegistry()
        registry.inc("hits", 3)
        registry.observe("latency_ms", 5.0)
        flat = registry.flat()
        assert flat["hits"] == 3
        assert flat["latency_ms_count"] == 1
        assert flat["latency_ms_sum"] == 5.0
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'latency_ms{{quantile="{quantile}"}}' in flat

    def test_sources_keep_historical_key_names(self):
        registry = MetricsRegistry()
        registry.attach_source("query_cache",
                               lambda: {"hits": 7, "misses": 2})
        flat = registry.flat()
        assert flat["query_cache_hits"] == 7
        assert flat["query_cache_misses"] == 2

    def test_broken_source_does_not_break_the_surface(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("bag exploded")

        registry.attach_source("bad", broken)
        registry.inc("ok")
        assert registry.flat() == {"ok": 1}
        assert registry.snapshot()["counters"] == {"ok": 1}
        assert "ok 1" in registry.render_text()


class TestSnapshot:
    def test_snapshot_is_nested_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.inc("hits")
        registry.set_gauge("pool", 3)
        registry.observe("latency_ms", 1.0)
        registry.attach_source("cache", lambda: {"hits": 1})
        snap = registry.snapshot()
        assert snap["counters"] == {"hits": 1}
        assert snap["gauges"] == {"pool": 3, "cache_hits": 1}
        assert snap["summaries"]["latency_ms_count"] == 1
        json.dumps(snap)  # must serialise as-is


class TestTextExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.inc("http_requests_total", 2)
        registry.set_gauge("pool_size", 4)
        text = registry.render_text()
        assert "# TYPE http_requests_total counter" in text
        assert "http_requests_total 2" in text
        assert "# TYPE pool_size gauge" in text
        assert "pool_size 4" in text
        assert text.endswith("\n")

    def test_histogram_renders_as_summary_with_quantiles(self):
        registry = MetricsRegistry()
        registry.observe("request_latency_ms", 10.0)
        text = registry.render_text()
        assert "# TYPE request_latency_ms summary" in text
        assert 'request_latency_ms{quantile="0.5"}' in text
        assert 'request_latency_ms{quantile="0.99"}' in text
        assert "request_latency_ms_count 1" in text
        assert "request_latency_ms_sum 10" in text

    def test_polled_type_is_worked_out_from_the_key(self):
        registry = MetricsRegistry()
        registry.attach_source("slo", lambda: {"requests_total": 4,
                                               "latency_burn_5m": 0.5})
        text = registry.render_text()
        assert "# TYPE slo_requests_total counter" in text
        assert "# TYPE slo_latency_burn_5m gauge" in text

    def test_metric_names_are_sanitized_for_scraping(self):
        registry = MetricsRegistry()
        registry.attach_source("worker-pool", lambda: {"busy%": 1})
        text = registry.render_text()
        assert "worker_pool_busy_ 1" in text
        assert "worker-pool" not in text
        assert registry.flat() == {"worker_pool_busy_": 1}
