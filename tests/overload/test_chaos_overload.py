"""Chaos + admission control: faults and shedding compose safely.

The shedder sits in front of the retry/degradation machinery; under
injected database faults every request must still resolve to an honest
status — degraded 200s, shed 503s, expired 504s — never an unhandled
exception or a raw 500.
"""

import pytest

from repro.apps import build_site
from repro.apps import urlquery as urlquery_app
from repro.cgi.query_string import encode_pairs
from repro.core.engine import EngineConfig, MacroEngine
from repro.http.message import HttpRequest
from repro.obs.metrics import MetricsRegistry
from repro.overload.control import OverloadController
from repro.resilience.retry import RetryPolicy
from repro.sql.gateway import DatabaseRegistry
from repro.workloads.generator import UrlQueryWorkload
from repro.workloads.openloop import (
    ArrivalSchedule,
    router_submitter,
    run_open_loop,
)

pytestmark = pytest.mark.chaos


@pytest.fixture()
def chaos_overload_router(fault_spec):
    registry = DatabaseRegistry()
    engine = MacroEngine(registry, config=EngineConfig(
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.001,
                                 max_delay=0.01),
        degrade_sql_errors=True))
    app = urlquery_app.install(rows=40, registry=registry, engine=engine)
    registry.inject_faults(fault_spec)  # after seeding, like test_chaos
    router = build_site(app.engine, app.library).router
    controller = OverloadController(
        max_concurrent=4, queue_limit=16, max_queue_wait=1.0,
        metrics=MetricsRegistry())
    router.overload = controller
    return router, registry, controller


def _http_request(item) -> HttpRequest:
    query = encode_pairs(list(item.pairs))
    target = f"/cgi-bin/db2www/urlquery.d2w/{item.command}"
    if query:
        target += f"?{query}"
    return HttpRequest.parse(f"GET {target} HTTP/1.0\r\n\r\n".encode())


class TestChaosWithShedder:
    def test_faulty_backend_plus_shedder_never_crashes(
            self, chaos_overload_router):
        router, registry, controller = chaos_overload_router
        workload = UrlQueryWorkload(seed=96)
        requests = [_http_request(item)
                    for item in workload.requests(300)]
        submit = router_submitter(
            router, lambda index: requests[index % len(requests)],
            client_key=lambda index: f"10.0.0.{index % 8}")
        result = run_open_loop(
            submit, ArrivalSchedule.poisson(400.0, 0.75, seed=3),
            workers=16, give_up_after=5.0)
        statuses = result.status_counts
        # 599 = the submit callable raised: an unhandled exception
        # escaped the router/controller stack.
        assert statuses.get(599, 0) == 0
        # 500 = real breakage; chaos must surface as degraded 200s,
        # shed 503s or expired 504s.
        assert statuses.get(500, 0) == 0
        assert statuses.get(200, 0) > 0
        assert registry.resilience_stats()["injected_total"] > 0
        # Every admission was balanced by a release.
        assert controller.metrics.gauge("overload_inflight").value == 0
