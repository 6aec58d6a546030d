"""The registry absorbs the subsystem stats bags without renaming keys.

Before the observability layer, ``AccessLog.stats`` flattened attached
``stats()`` callables to ``<name>_<key>``; the ``#stats`` trailer and
``repro stats`` consume those names.  The same bags now attach to the
:class:`~repro.obs.metrics.MetricsRegistry` — the only place a source
can attach — and these tests pin the key names across every read path.
"""

import json

from repro.http.accesslog import AccessLog
from repro.obs.metrics import MetricsRegistry
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.workloads.metrics import (
    CacheReport,
    ResilienceReport,
    WorkerReport,
)


def exercised_cache() -> QueryResultCache:
    from types import SimpleNamespace
    cache = QueryResultCache(max_entries=4)
    result = SimpleNamespace(is_query=True, rows=[], row_iter=None)
    cache.get("URLDB", "SELECT 1", 0)          # miss
    cache.put("URLDB", "SELECT 1", 0, result)
    cache.get("URLDB", "SELECT 1", 0)          # hit
    return cache


def polled(registry, prefix):
    """One source's bag read back off ``/statusz``, prefix stripped."""
    return {name[len(prefix) + 1:]: value
            for group in registry.snapshot().values()
            for name, value in group.items()
            if name.startswith(prefix + "_")}


class TestHistoricalKeyNames:
    def test_query_cache_keys_match_the_legacy_flattening(self):
        cache = exercised_cache()
        registry = MetricsRegistry()
        registry.attach_source("query_cache", cache.stats)
        flat = registry.flat()
        assert {f"query_cache_{key}" for key in cache.stats()} <= set(flat)
        assert flat["query_cache_hits"] == 1
        assert flat["query_cache_misses"] == 1

    def test_resilience_registry_keys_survive(self):
        registry = MetricsRegistry()
        db = DatabaseRegistry()
        registry.attach_source("resilience", db.resilience_stats)
        flat = registry.flat()
        for key in ("retries", "breaker_opens", "pool_evicted"):
            assert f"resilience_{key}" in flat

    def test_delegating_access_log_produces_the_same_trailer_keys(
            self, tmp_path):
        """AccessLog(metrics=...) writes the registry's samples: the
        trailer keys are exactly the scrape's sample names."""
        registry = MetricsRegistry()
        registry.attach_source("query_cache", exercised_cache().stats)
        registry.observe("request_latency_ms", 2.0)
        log = AccessLog(tmp_path / "access.log", metrics=registry)
        trailer = json.loads(log.append_stats_note()[len("#stats "):])
        scraped = {line.rsplit(" ", 1)[0]
                   for line in registry.render_text().splitlines()
                   if line and not line.startswith("#")}
        assert set(trailer) == scraped
        assert trailer["query_cache_hits"] == 1

    def test_source_lands_on_the_registry_not_the_log(self, tmp_path):
        registry = MetricsRegistry()
        registry.attach_source("query_cache", lambda: {"hits": 3})
        log = AccessLog(tmp_path / "access.log", metrics=registry)
        assert not hasattr(log, "attach_stats_source")
        assert '"query_cache_hits": 3' in log.append_stats_note()


class TestWorkloadReportsStillParse:
    """The report dataclasses read the flattened dicts the bags emit."""

    def test_cache_report_from_registry_source(self):
        registry = MetricsRegistry()
        registry.attach_source("query_cache", exercised_cache().stats)
        report = CacheReport.from_stats(polled(registry, "query_cache"))
        assert report.hits == 1
        assert report.lookups == 2

    def test_resilience_report_from_registry_source(self):
        registry = MetricsRegistry()
        registry.attach_source("resilience",
                               DatabaseRegistry().resilience_stats)
        report = ResilienceReport.from_stats(polled(registry, "resilience"))
        assert report.retries == 0

    def test_worker_report_shape_is_stable(self):
        report = WorkerReport.from_stats(
            {"workers": 2, "requests": 9, "recycles": 1, "crashes": 0,
             "crash_retries": 0, "busy_timeouts": 0})
        assert report.workers == 2
        assert report.requests == 9
