"""One registry wired the way ``repro serve`` wires it is a valid scrape.

``wired_registry`` attaches every source ``_cmd_serve`` attaches — query
cache, resilience, SLO burn rates, statement digests, the trace
sampler, the overload controller, tenants, a two-shard map and an
app-server dispatcher (a stub: no worker processes) — plus the edge
and the tracer's metrics bridge, then puts one tenant request through
a router.  The tests hold what a Prometheus scraper and ``repro stats``
rely on: one ``# TYPE`` per family, no sample twice, per-entity
counters only as labels, and the same sample names on every read path.
"""

import json
import re

from repro.http.accesslog import AccessLog
from repro.http.async_server import AsyncHttpServer
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampling import TailSampler
from repro.obs.sinks import MetricsBridge
from repro.obs.slo import SloTracker
from repro.obs.trace import Tracer
from repro.overload import OverloadController
from repro.sql.digest import StatementStats
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.sql.sharding import ShardMap
from repro.tenancy import TenantHost, TenantRegistry

TENANTS = ("alpha", "beta")
DIGEST = "0123456789ab"

ITEMS_MACRO = """\
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT id, name FROM items ORDER BY id %}
%HTML_REPORT{
%EXEC_SQL
%}
"""


class DispatcherStub:
    """The app-server dispatcher's ``labeled_stats()`` shape, no
    workers."""

    def labeled_stats(self):
        return {"": {"workers": 2, "requests": 3, "recycles": 0,
                     "crashes": 0, "crash_retries": 0, "busy_timeouts": 0},
                "0": {"requests": 2, "recycles": 0, "crashes": 0},
                "1": {"requests": 1, "recycles": 0, "crashes": 0}}


def wired_registry() -> MetricsRegistry:
    metrics = MetricsRegistry()
    tracer = Tracer()
    tracer.enable()
    tracer.add_sink(MetricsBridge(metrics, slow_query_ms=0.0))
    statements = StatementStats()
    statements.enabled = True
    statements.record(digest=DIGEST, duration_ms=1.5, rows=2)
    metrics.attach_source("statements", statements.stats)
    metrics.attach_source("statement", statements.labeled_stats,
                          label="digest")
    metrics.attach_source("trace_sampler",
                          TailSampler(lambda root: None).stats)
    databases = DatabaseRegistry()
    shard_map = ShardMap("INV")
    for index in range(2):
        databases.register_memory(f"INV#{index}")
        shard_map.add_shard(f"INV#{index}")
    databases.register_sharded("INV", shard_map)
    shard_map.count_shard(shard_map.shards[1], "routed")
    shard_map.count("scatter_queries")
    metrics.attach_source("resilience", databases.resilience_stats)
    metrics.attach_source("shard", databases.shard_labeled_stats,
                          label="shard", counters=ShardMap.COUNTERS)
    metrics.attach_source("query_cache", QueryResultCache().stats,
                          counters=QueryResultCache.COUNTERS)
    metrics.attach_source("appserver", DispatcherStub().labeled_stats,
                          label="worker")
    tenants = TenantRegistry()
    for name in TENANTS:
        tenant = tenants.create_tenant(name, owner=name)
        db = tenant.databases.register_memory("SHOP")
        with db.connect() as conn:
            conn.executescript("CREATE TABLE items (id INTEGER, "
                               "name TEXT); INSERT INTO items "
                               "VALUES (1, 'anvil');")
        tenant.library.add_text("items.d2w", ITEMS_MACRO)
    metrics.attach_source("tenant", tenants.labeled_stats, label="tenant")
    metrics.attach_source("slo", SloTracker(metrics).stats)
    controller = OverloadController(metrics=metrics)
    metrics.attach_source("overload", controller.stats)
    router = Router(metrics=metrics, tracer=tracer, overload=controller,
                    tenants=TenantHost(tenants), statements=statements)
    AsyncHttpServer(router, metrics=metrics).shutdown()  # edge_* only
    router.handle(HttpRequest(target="/t/alpha/items.d2w/report")).drain()
    return metrics


def test_cumulative_source_keys_are_counters():
    """The query cache's and the shard maps' cumulative counts keep
    their names and are typed counters; their sizes stay gauges."""
    text = wired_registry().render_text()
    declared = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
    for name in ("query_cache_hits", "query_cache_misses",
                 "query_cache_stores", "query_cache_evictions",
                 "query_cache_invalidations", "query_cache_page_hits",
                 "shard_routed", "shard_scatter_queries"):
        assert declared[name] == "counter", name
    for name in ("query_cache_entries", "query_cache_pages",
                 "shard_shards", "shard_replicas"):
        assert declared[name] == "gauge", name


def scrape_samples(text: str) -> list[str]:
    return [line.rsplit(" ", 1)[0] for line in text.splitlines()
            if line and not line.startswith("#")]


def test_every_sample_has_exactly_one_type_line():
    text = wired_registry().render_text()
    declared = re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M)
    families = [name for name, _ in declared]
    assert len(families) == len(set(families)), sorted(
        name for name in families if families.count(name) > 1)
    family = None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            family = line.split()[2]
            continue
        sample = line.rsplit(" ", 1)[0]
        assert family is not None and re.match(
            rf"{family}(_count|_sum)?(\{{|$)", sample), line


def test_no_sample_line_repeats():
    samples = scrape_samples(wired_registry().render_text())
    assert len(samples) == len(set(samples)), sorted(
        s for s in samples if samples.count(s) > 1)


def test_per_entity_counters_appear_only_as_labels():
    metrics = wired_registry()
    flattened = re.compile(
        rf"\b(shard_\d+_|tenant_({'|'.join(TENANTS)})_|"
        rf"statement_{DIGEST}_)|worker_\d")
    text = metrics.render_text()
    assert not flattened.search(text)
    assert not flattened.search(" ".join(metrics.flat()))
    assert not flattened.search(json.dumps(metrics.snapshot()))
    for sample in ('shard_routed{shard="1"} 1',
                   'appserver_requests{worker="0"} 2',
                   'tenant_requests_total{tenant="alpha"} 1',
                   f'statement_calls_total{{digest="{DIGEST}"}} 1'):
        assert sample in text


def test_polled_values_are_typed_by_their_key():
    text = wired_registry().render_text()
    for line in ("# TYPE tenant_requests_total counter",
                 "# TYPE overload_inflight gauge",
                 "# TYPE overload_queue_limit gauge",
                 "# TYPE slo_latency_burn_5m gauge",
                 "# TYPE statements_recorded_total counter"):
        assert line in text


def test_edge_families_are_typed_once_with_their_counts():
    """The loop's give-ups are a counter of their own; the hand-off
    summary's count stays "requests handed to the executor"."""
    text = wired_registry().render_text()
    for line in ("# TYPE edge_loop_abandoned_total counter",
                 "edge_loop_abandoned_total 0",
                 "# TYPE edge_handoff_wait_ms summary",
                 "edge_handoff_wait_ms_count 0"):
        assert line in text.splitlines()


def test_every_read_path_carries_the_scrape_sample_names(tmp_path):
    metrics = wired_registry()
    scraped = set(scrape_samples(metrics.render_text()))
    log = AccessLog(tmp_path / "access.log", metrics=metrics)
    trailer = json.loads(log.append_stats_note()[len("#stats "):])
    statusz = {name for group in metrics.snapshot().values()
               for name in group}
    assert set(trailer) == scraped
    assert statusz == scraped
    assert set(metrics.flat()) == scraped
