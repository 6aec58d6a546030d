"""Concurrent scrape vs. writer threads: reads must never throw or tear.

The registry is written from request threads, shard workers and the
overload controller while /metrics and /statusz render on another —
this hammer pins that every read path (flat, snapshot, render_text)
survives concurrent mutation of counters, histograms, labeled families
and labeled sources, and that a rendered summary is never torn into
an impossible state (quantiles present without a count, NaNs, ...).
"""

import threading

from repro.obs.metrics import MetricsRegistry
from repro.sql.digest import StatementStats

WRITERS = 4
WRITES = 2000
SCRAPES = 200


def test_concurrent_scrape_never_throws_or_tears():
    registry = MetricsRegistry()
    statements = StatementStats(max_digests=8)
    statements.enabled = True
    registry.attach_source("statement", statements.labeled_stats,
                           label="digest")
    registry.attach_source("statements", statements.stats)
    errors = []

    def writer(seed: int):
        try:
            counter = registry.counter("http_requests_total")
            histogram = registry.histogram("request_latency_ms")
            family = registry.labeled("requests_by_class",
                                      "cost_class", max_series=4)
            for i in range(WRITES):
                counter.inc()
                histogram.observe((seed * 31 + i) % 700 + 0.5)
                family.inc(f"class{(seed + i) % 6}")  # overflows too
                statements.record(digest=f"d{(seed + i) % 12}",
                                  duration_ms=float(i % 50),
                                  rows=i % 7, cached=i % 3 == 0)
        except Exception as exc:  # noqa: BLE001 - the assertion
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(n,))
               for n in range(WRITERS)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(SCRAPES):
            flat = registry.flat()
            assert all(isinstance(v, (int, float))
                       for v in flat.values())
            summaries = registry.snapshot()["summaries"]
            count = summaries.get("request_latency_ms_count")
            if count:
                # a torn summary would show quantiles out of order or a
                # sum wildly off the observed range
                p50, p99 = (summaries[
                    f'request_latency_ms{{quantile="{q}"}}']
                    for q in ("0.5", "0.99"))
                assert 0.0 < p50 <= p99 + 1e-9
                assert summaries["request_latency_ms_sum"] >= 0.5 * count
            assert not any(key.startswith("statement_d")
                           for key in flat)  # digests only as labels
            text = registry.render_text()
            assert text.endswith("\n")
            statements.snapshot(limit=5)
    finally:
        for thread in threads:
            thread.join(timeout=30)
    assert not errors, errors
    # every write landed despite the concurrent scrapes
    assert registry.counter("http_requests_total").value == \
        WRITERS * WRITES
