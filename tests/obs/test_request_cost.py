"""The cost guard of default tracing on a ``report_hot`` request.

A repeat of a cached report is answered with its kept page (no macro
run), and with tracing on, as ``repro serve`` runs it, its one record
is filled at three points (the request, ``macro.load``, one
``sql.execute`` per statement) and folded once by the metrics bridge,
which hands the ``sql.execute`` rows to the statement-digest store.
The guard counts Python calls (``sys.setprofile`` "call" events, which
have no noise band) for one such request through the router: all of
them, and the share in the observability code.  A change that raises a
count has made every traced request dearer: find out why before
raising a ceiling.
"""

import gc
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import urlquery as urlquery_app
from repro.apps.site import build_site
from repro.core.engine import EngineConfig, MacroEngine
from repro.http.message import HttpRequest
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MetricsBridge
from repro.obs.trace import TRACER, new_trace_id
from repro.sql.digest import StatementStats
from repro.sql.querycache import QueryResultCache

SRC_DIR = str(Path(repro.__file__).parent)
OBS_CODE = (str(Path(SRC_DIR, "obs")),
            str(Path(SRC_DIR, "sql", "digest.py")))

QUERY = "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

#: Calls in ``src/repro`` for one traced kept-page request, the share
#: of them in ``repro/obs`` and ``sql/digest.py`` (the router's own
#: metrics are in there, traced or not), and the untraced request's
#: count — measured on 3.11 (67, 21 and 51), plus a little; 3.12
#: inlines comprehensions: fewer.  With a span tree per request,
#: summarized and walked by each consumer, the traced request made 102
#: calls, 50 of them in the observability code.
TRACED_CEILING = 69
OBS_CEILING = 22
UNTRACED_CEILING = 52


@pytest.fixture()
def served():
    engine = MacroEngine(None, config=EngineConfig(
        query_cache=QueryResultCache(max_entries=128)))
    app = urlquery_app.install(rows=150, engine=engine)
    site = build_site(app.engine, app.library)
    site.router.metrics = MetricsRegistry()
    statements = StatementStats()
    statements.enabled = True
    bridge = MetricsBridge(site.router.metrics, statements=statements)
    TRACER.enable()
    TRACER.add_sink(bridge)
    try:
        yield site.router, f"{app.report_path}?{QUERY}", statements
    finally:
        TRACER.disable()
        TRACER.clear_sinks()


def calls(router, target, *, traced: bool) -> tuple[int, int]:
    """``(all, observability)`` calls in ``src/repro`` for one
    request through ``router``, as the edge hands it over."""
    counts = [0, 0]

    def profile(frame, event, _arg):
        if event == "call":
            name = frame.f_code.co_filename
            if name.startswith(SRC_DIR):
                counts[0] += 1
                if name.startswith(OBS_CODE):
                    counts[1] += 1

    if traced:
        TRACER.enable()
    else:
        TRACER.disable()
    request = HttpRequest(target=target)
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        trace_id = new_trace_id() if traced else ""
        response = router.handle(request, trace_id=trace_id, edge="loop")
    finally:
        sys.setprofile(None)
        gc.enable()
    assert response.status == 200
    return counts[0], counts[1]


def test_a_traced_kept_page_request_stays_under_its_ceiling(served):
    router, target, statements = served
    for _ in range(3):  # store the result, keep the page, reuse it
        router.handle(HttpRequest(target=target)).drain()
    runs = {calls(router, target, traced=True) for _ in range(3)}
    assert len(runs) == 1, f"call counts are not deterministic: {runs}"
    ((total, obs),) = runs
    untraced = {calls(router, target, traced=False) for _ in range(3)}
    assert max(count for count, _ in untraced) <= UNTRACED_CEILING
    assert total <= TRACED_CEILING, (
        f"a traced kept-page request now costs {total} calls "
        f"(ceiling {TRACED_CEILING})")
    assert obs <= OBS_CEILING, (
        f"{obs} of them in the observability code "
        f"(ceiling {OBS_CEILING})")
    # ... and it was folded: one digest record per request.
    (row,) = statements.snapshot()["statements"]
    assert row["calls"] >= 6 and row["cache_hits"] >= 4
