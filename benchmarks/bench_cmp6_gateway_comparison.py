"""CMP6 — the Section 6 related-work comparison, made quantitative.

Mounts DB2WWW and the four baseline gateways on one CGI gateway, runs
the same seeded URL-query workload against each, and reports latency,
throughput, developer effort and the capability matrix.  pytest-benchmark
times each gateway's report-path request; the run artifact carries the
full comparison table.

Expected shape (see DESIGN.md): all gateways are within a small factor
on latency — they do the same SQL work — while differing by an order of
magnitude in authoring effort and sharply in the capability checklist.
"""

import os
import time

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.datasets import seed_urldb
from repro.apps.site import build_site
from repro.appserver import AppServerDispatcher
from repro.baselines import comparison, gsql, plsql, rawcgi, wdb
from repro.cgi.db2www_main import build_program
from repro.cgi.environ import CgiEnvironment
from repro.cgi.process import SubprocessCgiRunner
from repro.cgi.request import CgiRequest
from repro.sql.connection import Connection
from repro.workloads.generator import UrlQueryWorkload
from repro.workloads.metrics import Summary, WorkerReport
from repro.workloads.runner import (
    db2www_request_builder,
    plain_request_builder,
    run_workload,
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


@pytest.fixture(scope="module")
def arena():
    app = urlquery_app.install(rows=150)
    site = build_site(app.engine, app.library)
    site.gateway.install("rawcgi", rawcgi.RawCgiUrlQuery(app.registry))
    site.gateway.install("gsql", gsql.install_urlquery(app.registry))
    site.gateway.install("wdb", wdb.install_urlquery(app.registry))
    site.gateway.install("owa", plsql.install_urlquery(app.registry))
    return site


REPORT_REQUESTS = {
    "db2www": ("db2www", "/urlquery.d2w/report",
               "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"),
    "rawcgi": ("rawcgi", "/report",
               "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"),
    "gsql": ("gsql", "/report", "SEARCH=ib"),
    "wdb": ("wdb", "/report", "title=Ibm"),
    "plsql": ("owa", "/urlquery_report",
              "SEARCH=ib&USE_URL=yes&USE_TITLE=yes"),
}


@pytest.mark.parametrize("gateway_name", sorted(REPORT_REQUESTS))
def test_cmp6_report_latency(benchmark, arena, gateway_name):
    program, path_info, query = REPORT_REQUESTS[gateway_name]
    request = CgiRequest(CgiEnvironment(
        request_method="GET", script_name=f"/cgi-bin/{program}",
        path_info=path_info, query_string=query))

    response = benchmark(arena.gateway.dispatch, program, request)
    assert response.status == 200


def test_cmp6_workload_and_tables(benchmark, arena, artifact):
    """The full comparison run: 300 mixed requests per gateway."""
    summaries: dict[str, Summary] = {}

    db2 = benchmark.pedantic(
        run_workload, rounds=1, iterations=1,
        args=(arena.gateway, UrlQueryWorkload(seed=42).requests(300),
              db2www_request_builder("urlquery.d2w")))
    assert db2.ok
    summaries["db2www"] = db2.summary

    raw = run_workload(
        arena.gateway, UrlQueryWorkload(seed=42).requests(300),
        plain_request_builder("rawcgi"))
    assert raw.ok
    summaries["rawcgi"] = raw.summary

    # GSQL/WDB/PLSQL accept different parameter names; reuse the same
    # request stream but let each gateway read what it understands
    # (unknown names are simply unused form fields to them).
    for name, (program, path, _q) in (("gsql", REPORT_REQUESTS["gsql"]),
                                      ("wdb", REPORT_REQUESTS["wdb"])):
        result = run_workload(
            arena.gateway, UrlQueryWorkload(seed=42).requests(300),
            plain_request_builder(program, report_path=path))
        assert result.ok, name
        summaries[name] = result.summary

    plsql_result = run_workload(
        arena.gateway, UrlQueryWorkload(seed=42).requests(300),
        plain_request_builder("owa",
                              report_path="/urlquery_report",
                              input_path="/urlquery_form"))
    assert plsql_result.ok
    summaries["plsql"] = plsql_result.summary

    lines = ["CMP6 — same workload, five gateways",
             "", Summary.header()]
    for name in ("db2www", "rawcgi", "gsql", "wdb", "plsql"):
        lines.append(summaries[name].row(name))
    lines += ["", "Developer effort and capabilities:", "",
              comparison.capability_table()]
    artifact("cmp6_gateway_comparison.txt", "\n".join(lines) + "\n")

    # Shape assertions (not absolute numbers): DB2WWW pays a bounded
    # macro-processing overhead versus the hand-coded program...
    assert summaries["db2www"].mean_ms < \
        summaries["rawcgi"].mean_ms * 20
    # ...while requiring no procedural code at ~the same authoring size
    # class as a macro, an order less than the hand-written program.
    profiles = {p.name: p for p in comparison.profiles()}
    assert profiles["db2www"].capability_count() > \
        max(p.capability_count() for n, p in profiles.items()
            if n != "db2www")


# ---------------------------------------------------------------------------
# Dispatch modes: the same DB2WWW program behind three gateways
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dispatch_deployment(tmp_path_factory):
    """File-backed deployment shared by all three dispatch modes."""
    tmp_path = tmp_path_factory.mktemp("cmp6-dispatch")
    db_path = tmp_path / "urldb.sqlite"
    conn = Connection(str(db_path))
    seed_urldb(conn, 150)
    conn.close()
    macro_dir = tmp_path / "macros"
    macro_dir.mkdir()
    (macro_dir / "urlquery.d2w").write_text(
        urlquery_app.URLQUERY_MACRO, encoding="utf-8")
    return {"REPRO_MACRO_DIR": str(macro_dir),
            "REPRO_DATABASE_URLDB": str(db_path),
            "REPRO_QUERY_CACHE": "64"}


def test_cmp6_dispatch_modes(benchmark, dispatch_deployment, artifact):
    """In-process vs subprocess CGI vs app server on one deployment.

    Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the round counts so CI
    can smoke all three gateways per push; the shape assertions hold at
    either scale.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rounds = 20 if QUICK else 100
    subprocess_rounds = 3 if QUICK else 10
    program, path_info, query = REPORT_REQUESTS["db2www"]

    def request():
        return CgiRequest(CgiEnvironment(
            request_method="GET", script_name=f"/cgi-bin/{program}",
            path_info=path_info, query_string=query))

    def timed(run, n):
        response = run()  # warm-up
        assert response.status == 200
        start = time.perf_counter()
        for _ in range(n):
            assert run().status == 200
        return (time.perf_counter() - start) / n * 1e3

    inprocess = build_program(dispatch_deployment)
    inprocess_ms = timed(lambda: inprocess.run(request()), rounds)

    runner = SubprocessCgiRunner(extra_env=dispatch_deployment)
    subprocess_ms = timed(lambda: runner.run(request()),
                          subprocess_rounds)

    with AppServerDispatcher(dispatch_deployment, workers=2) as pool:
        appserver_ms = timed(lambda: pool.run(request()), rounds)
        report = WorkerReport.from_stats(pool.stats())

    lines = [
        "CMP6 — one DB2WWW report request, three dispatch modes"
        + (" (quick)" if QUICK else ""),
        "",
        f"{'mode':<28}{'mean_ms':>10}{'req_per_s':>12}",
        f"{'in-process dispatch':<28}{inprocess_ms:>10.3f}"
        f"{1e3 / inprocess_ms:>12.1f}",
        f"{'app-server (2 workers)':<28}{appserver_ms:>10.3f}"
        f"{1e3 / appserver_ms:>12.1f}",
        f"{'process-per-request CGI':<28}{subprocess_ms:>10.3f}"
        f"{1e3 / subprocess_ms:>12.1f}",
        "",
        WorkerReport.header(),
        report.row("appserver"),
    ]
    artifact("cmp6_dispatch_modes.txt", "\n".join(lines) + "\n")

    # Shape: the app server pays a socket hop over in-process dispatch
    # but stays within the same order of magnitude, far below the
    # process-per-request cost it replaces.
    assert report.crashes == 0
    assert appserver_ms < subprocess_ms
    assert inprocess_ms < subprocess_ms
