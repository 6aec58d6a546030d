"""PERF-APPSRV — persistent app-server gateway and the spill path.

Two acceptance claims from the app-server work:

* **Throughput** — the pre-forked worker pool (warm interpreter, parsed
  macros, pooled connections) must serve the same report at >= 5x the
  requests/sec of faithful process-per-request CGI, which re-pays
  interpreter start-up and a fresh DBMS connect every time.
* **Memory** — a 100k-row report, whose result spills past the row
  budget (``repro.sql.gateway.SPILL_ROWS``) and is written as it
  renders, must hold peak RSS within 1.5x of a small-report baseline,
  while the same page drained whole (as app-server workers and the
  in-process transport take it) grows with the page.

Both are measured here and written to ``out/perf_appserver.txt`` (with
the ``speedup:`` line summarize.py lifts into the perf baseline) and
``out/BENCH_appserver.json`` (machine-readable, checked in).

``REPRO_BENCH_QUICK=1`` shrinks rounds and row counts for CI smoke runs
(the speedup bar still holds; the RSS ratio check is relaxed to the
same shape at smaller scale).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.datasets import seed_urldb
from repro.appserver import AppServerDispatcher
from repro.cgi.environ import CgiEnvironment
from repro.cgi.process import SubprocessCgiRunner
from repro.cgi.request import CgiRequest
from repro.sql.connection import Connection
from repro.workloads.metrics import WorkerReport

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

QUERY = "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

#: requests per throughput measurement
APPSERVER_ROUNDS = 30 if QUICK else 200
SUBPROCESS_ROUNDS = 3 if QUICK else 10

#: rows for the streaming RSS probe (quick mode still needs enough
#: rows that the buffered page dominates interpreter noise in ru_maxrss)
BIG_ROWS = 50_000 if QUICK else 100_000
SMALL_ROWS = 100


def report_request() -> CgiRequest:
    return CgiRequest(CgiEnvironment(
        request_method="GET", script_name="/cgi-bin/db2www",
        path_info="/urlquery.d2w/report", query_string=QUERY))


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("appsrv")
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
            "REPRO_QUERY_CACHE": "64",
            "REPRO_POOL_SIZE": "1"}


def _requests_per_second(run, rounds: int) -> float:
    run()  # warm-up (first subprocess spawn, first worker checkout)
    start = time.perf_counter()
    for _ in range(rounds):
        response = run()
        assert response.status == 200
    return rounds / (time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Throughput: warm worker pool vs process-per-request
# ---------------------------------------------------------------------------

def test_perf_appserver_throughput(benchmark, deployment, artifact):
    """>= 5x requests/sec over subprocess CGI on the same deployment."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    runner = SubprocessCgiRunner(extra_env=deployment)
    subprocess_rps = _requests_per_second(
        lambda: runner.run(report_request()), SUBPROCESS_ROUNDS)

    with AppServerDispatcher(deployment, workers=4) as pool:
        before = WorkerReport.from_stats(pool.stats())
        appserver_rps = _requests_per_second(
            lambda: pool.run(report_request()), APPSERVER_ROUNDS)
        report = WorkerReport.from_stats(pool.stats()).delta(before)

    speedup = appserver_rps / subprocess_rps
    lines = [
        f"PERF-APPSRV — one report request, persistent worker pool "
        f"vs process-per-request CGI ({APPSERVER_ROUNDS} rounds)",
        "",
        f"{'mode':<28}{'req_per_s':>12}",
        f"{'process-per-request CGI':<28}{subprocess_rps:>12.1f}",
        f"{'app-server (4 workers)':<28}{appserver_rps:>12.1f}",
        "",
        f"speedup: {speedup:.2f}x",
        "",
        WorkerReport.header(),
        report.row("bench"),
    ]
    artifact("perf_appserver.txt", "\n".join(lines) + "\n")

    _merge_json(artifact, {
        "quick": QUICK,
        "throughput": {
            "rounds": APPSERVER_ROUNDS,
            "subprocess_req_per_s": round(subprocess_rps, 2),
            "appserver_req_per_s": round(appserver_rps, 2),
            "speedup": round(speedup, 2),
            "pool": report.__dict__,
        },
    })
    assert report.crashes == 0
    assert report.requests == APPSERVER_ROUNDS + 1
    assert speedup >= 5.0, (
        f"app server only {speedup:.2f}x over subprocess CGI")


# ---------------------------------------------------------------------------
# Memory: a spilled report written as it renders vs drained whole
# ---------------------------------------------------------------------------

#: Run in a child interpreter so ru_maxrss is a clean high-water mark
#: for exactly one way of taking the page (the mark cannot be reset
#: in-process).  Both run the one path, ``engine.execute_report``:
#: "stream" writes its parts, then its rest, and keeps none of them;
#: "buffer" drains the page into one string.
_RSS_PROBE = """
import itertools, json, resource, sys
from repro.core.engine import MacroEngine
from repro.core.parser import parse_macro
from repro.sql.gateway import DatabaseRegistry

mode, rows = sys.argv[1], int(sys.argv[2])
registry = DatabaseRegistry()
db = registry.register_memory("BIG")
with db.connect() as conn:
    conn.execute("CREATE TABLE entries (n INTEGER, payload TEXT)")
    conn.begin()
    for i in range(rows):
        conn.execute("INSERT INTO entries VALUES (?, ?)",
                     (i, "x" * 200))
    conn.commit()
macro = parse_macro(
    '%DEFINE DATABASE = "BIG"\\n'
    '%SQL{ SELECT n, payload FROM entries ORDER BY n\\n'
    '%SQL_REPORT{%ROW{<LI>$(V1): $(V2)\\n%}%}\\n%}\\n'
    '%HTML_REPORT{%EXEC_SQL done%}')
engine = MacroEngine(registry)
result = engine.execute_report(macro)
emitted = 0
if mode == "stream":
    for part in itertools.chain(result.parts, result.rest or ()):
        emitted += len(part)   # consume and discard, like a socket
else:
    result.html   # the page whole, its rest read into the parts
    emitted = sum(map(len, result.parts))
print(json.dumps({
    "mode": mode, "rows": rows, "page_bytes": emitted,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _probe(mode: str, rows: int) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, mode, str(rows)],
        capture_output=True, env=env, timeout=600, check=True)
    return json.loads(proc.stdout)


def test_perf_appserver_streaming_rss(benchmark, artifact):
    """A spilled 100k-row report stays flat; draining it grows with it."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    baseline = _probe("stream", SMALL_ROWS)
    streamed = _probe("stream", BIG_ROWS)
    buffered = _probe("buffer", BIG_ROWS)
    assert streamed["page_bytes"] == buffered["page_bytes"]

    stream_ratio = streamed["peak_rss_kb"] / baseline["peak_rss_kb"]
    buffer_ratio = buffered["peak_rss_kb"] / baseline["peak_rss_kb"]
    lines = [
        f"PERF-APPSRV — peak RSS rendering a {BIG_ROWS}-row report "
        f"({streamed['page_bytes'] / 1e6:.1f} MB page)",
        "",
        f"{'mode':<26}{'rows':>9}{'peak_rss_kb':>13}{'vs_small':>10}",
        f"{'stream (baseline)':<26}{SMALL_ROWS:>9}"
        f"{baseline['peak_rss_kb']:>13}{1.0:>9.2f}x",
        f"{'stream':<26}{BIG_ROWS:>9}"
        f"{streamed['peak_rss_kb']:>13}{stream_ratio:>9.2f}x",
        f"{'buffered':<26}{BIG_ROWS:>9}"
        f"{buffered['peak_rss_kb']:>13}{buffer_ratio:>9.2f}x",
        "",
        "Shape: past the spill budget the page rides the live cursor,",
        "so peak memory is independent of report size; draining the",
        "page whole grows linearly with it.",
    ]
    artifact("perf_appserver_rss.txt", "\n".join(lines) + "\n")
    _merge_json(artifact, {"streaming_rss": {
        "rows": BIG_ROWS,
        "page_bytes": streamed["page_bytes"],
        "baseline_peak_rss_kb": baseline["peak_rss_kb"],
        "stream_peak_rss_kb": streamed["peak_rss_kb"],
        "buffered_peak_rss_kb": buffered["peak_rss_kb"],
        "stream_ratio": round(stream_ratio, 3),
        "buffered_ratio": round(buffer_ratio, 3),
    }})

    # buffered materialisation costs real memory over streaming...
    assert buffered["peak_rss_kb"] > streamed["peak_rss_kb"]
    # ...while streaming stays within 1.5x of the small-report baseline
    assert stream_ratio <= 1.5, (
        f"streaming peak RSS {stream_ratio:.2f}x small-report baseline")


def _merge_json(artifact, fields: dict) -> None:
    """Accumulate both tests' results into one checked-in JSON file."""
    path = Path(__file__).parent / "out" / "BENCH_appserver.json"
    payload = {}
    if path.is_file():
        payload = json.loads(path.read_text())
    payload.update(fields)
    artifact("BENCH_appserver.json",
             json.dumps(payload, indent=2, sort_keys=True) + "\n")
