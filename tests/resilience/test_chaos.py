"""Chaos acceptance: a concurrent workload survives injected faults.

The ISSUE's acceptance bar: under ~5% injected transient faults, a
1 000-request concurrent workload completes with zero unhandled
exceptions and ≥99% of requests eventually succeeding through
retries/degradation.
"""

import pytest

from repro.apps import build_site
from repro.apps import urlquery as urlquery_app
from repro.core import parse_macro
from repro.core.engine import EngineConfig, MacroEngine
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy
from repro.sql.gateway import DatabaseRegistry
from repro.workloads.concurrent import run_concurrent
from repro.workloads.generator import UrlQueryWorkload
from repro.workloads.metrics import ResilienceReport
from repro.workloads.runner import db2www_request_builder

pytestmark = pytest.mark.chaos


@pytest.fixture()
def chaos_site(fault_spec):
    registry = DatabaseRegistry()
    engine = MacroEngine(registry, config=EngineConfig(
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.001,
                                 max_delay=0.01),
        degrade_sql_errors=True))
    app = urlquery_app.install(rows=40, registry=registry, engine=engine)
    # wired after seeding: the faults hit the workload, not the setup
    registry.inject_faults(fault_spec)
    return build_site(app.engine, app.library), registry


class TestChaosWorkload:
    def test_1k_requests_survive_5pct_faults(self, chaos_site):
        site, registry = chaos_site
        result = run_concurrent(
            site.gateway, UrlQueryWorkload(seed=96).requests(1000),
            db2www_request_builder("urlquery.d2w"), threads=8)
        # every request produced a response: no worker thread died to
        # an unhandled exception
        assert result.summary.count == 1000
        assert result.success_rate >= 0.99
        # 500s would mean real breakage; transient trouble must surface
        # as degraded pages (200) or load-shedding (503), never a crash
        assert result.status_counts.get(500, 0) == 0
        stats = registry.resilience_stats()
        assert stats["injected_total"] > 0  # the chaos actually happened
        assert stats["retries"] > 0  # ...and retries did the absorbing
        report = ResilienceReport.from_stats(stats)
        assert report.injected_total == stats["injected_total"]
        assert report.retries == stats["retries"]

    def test_without_retry_the_same_chaos_hurts(self, fault_spec):
        """Control run: the resilience knobs are what saves the workload.

        "No retry" is a one-attempt policy: with no policy at all, an
        ambient injector (``--inject-faults``) brings the default one."""
        registry = DatabaseRegistry()
        engine = MacroEngine(registry, config=EngineConfig(
            retry_policy=RetryPolicy(max_attempts=1)))  # nor degradation
        app = urlquery_app.install(rows=40, registry=registry,
                                   engine=engine)
        registry.inject_faults(fault_spec)
        result = run_concurrent(
            site_gateway(app), UrlQueryWorkload(seed=96).requests(400),
            db2www_request_builder("urlquery.d2w"), threads=4,
            check=lambda response: (response.status < 400
                                    and b"SQLSTATE" not in response.body
                                    and b"injected" not in response.body))
        # some requests must have been visibly hurt by the faults —
        # otherwise the acceptance run above proves nothing
        assert result.failures > 0


def site_gateway(app):
    return build_site(app.engine, app.library).gateway


class TestAmbientAbsorption:
    def test_ambient_faults_absorbed_by_default_retry(self, shop_registry):
        """Chaos mode's contract: injected read faults never surface."""
        previous = faults.ambient_injector()
        faults.set_ambient_injector(
            faults.FaultInjector.parse("query:0.1,seed:9"))
        try:
            engine = MacroEngine(shop_registry)
            macro = parse_macro("""
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items ORDER BY name %}
%HTML_REPORT{%EXEC_SQL%}
""")
            retries = 0
            for _ in range(50):
                result = engine.execute_report(macro)
                assert result.ok, result.sql_errors
                assert "bikes" in result.html
                retries += result.retries
            assert retries > 0  # faults fired and were retried away
        finally:
            faults.set_ambient_injector(previous)
