"""Boot `repro serve` for real and scrape its observability surface.

This is the CI obs-smoke path: a subprocess server with tracing on, a
few requests through it, then assertions over ``/metrics``,
``/statusz``, the access log's ``#stats`` trailer (via ``repro stats``)
and the trace / slow-query logs (via ``repro trace``).
"""

import io
import json
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.datasets import seed_urldb
from repro.cli import main as cli_main
from repro.sql.connection import Connection

REPORT = ("/cgi-bin/db2www/urlquery.d2w/report"
          "?SEARCH=ib&USE_URL=yes&DBFIELDS=title")

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def fetch(base, target):
    try:
        with urllib.request.urlopen(base + target,
                                    timeout=10) as response:
            return (response.status, dict(response.headers),
                    response.read())
    except urllib.error.HTTPError as exc:  # 4xx/5xx are answers too
        return exc.code, dict(exc.headers), exc.read()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One `repro serve` subprocess shared by the scrape tests."""
    tmp_path = tmp_path_factory.mktemp("obs-smoke")
    db_path = tmp_path / "urldb.sqlite"
    conn = Connection(str(db_path))
    seed_urldb(conn, 20)
    conn.close()
    macro_dir = tmp_path / "macros"
    macro_dir.mkdir()
    (macro_dir / "urlquery.d2w").write_text(
        urlquery_app.URLQUERY_MACRO, encoding="utf-8")
    access_log = tmp_path / "access.log"
    trace_log = tmp_path / "trace.log"
    slow_log = tmp_path / "slow_query.log"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--macros", str(macro_dir),
         "--database", f"URLDB={db_path}",
         "--host", "127.0.0.1", "--port", "0",
         "--access-log", str(access_log),
         "--trace-log", str(trace_log),
         "--slow-query-ms", "0", "--slow-query-log", str(slow_log),
         "--trace-sample", "per_key=100"],
        env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    base = None
    deadline = time.time() + 20
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"on (http://[\d.]+:\d+)", line)
        if match:
            base = match.group(1)
            break
    if base is None:
        proc.kill()
        raise RuntimeError("serve never announced its address")
    yield {"base": base, "access_log": access_log,
           "trace_log": trace_log, "slow_log": slow_log, "proc": proc}
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)


@pytest.fixture(scope="module")
def scraped(served):
    """Drive traffic once, scrape once; tests share the results."""
    base = served["base"]
    for _ in range(3):
        status, _, body = fetch(base, REPORT)
        assert status == 200
        assert b"URL Query Result" in body
    status, _, _ = fetch(base, "/no-such-page-404")
    assert status == 404
    metrics_status, metrics_headers, metrics_body = fetch(base, "/metrics")
    statusz_status, _, statusz_body = fetch(base, "/statusz")
    statements_status, _, statements_body = fetch(base, "/statements")
    return {"metrics": (metrics_status, metrics_headers,
                        metrics_body.decode()),
            "statusz": (statusz_status, json.loads(statusz_body)),
            "statements": (statements_status,
                           json.loads(statements_body))}


class TestLiveScrape:
    def test_report_requests_carry_a_trace_id(self, served):
        status, headers, _ = fetch(served["base"], REPORT)
        assert status == 200
        assert headers.get("X-Trace-Id")

    def test_metrics_families(self, scraped):
        status, headers, text = scraped["metrics"]
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        # request counters and the latency summary
        assert "# TYPE http_requests_total counter" in text
        assert "http_errors_total" in text
        assert 'request_latency_ms{quantile="0.5"}' in text
        assert 'request_latency_ms{quantile="0.99"}' in text
        # the tracer's bridge: per-phase histograms + totals
        assert "traces_total" in text
        assert "span_sql_execute_ms_count" in text
        assert "slow_queries_total" in text
        # polled subsystem sources keep their historical names
        assert "query_cache_hits" in text
        assert "resilience_retries" in text

    def test_no_duplicate_samples(self, scraped):
        """Every name{labels} identity renders exactly once — the
        sampler once published both live counters and a stats source,
        doubling trace_sampler_* on the scrape."""
        _, _, text = scraped["metrics"]
        assert "trace_sampler_kept_total" in text  # sampler is wired
        samples = [line.rsplit(" ", 1)[0]
                   for line in text.splitlines()
                   if line and not line.startswith("#")]
        duplicates = {s for s in samples if samples.count(s) > 1}
        assert not duplicates, f"duplicate scrape samples: {duplicates}"

    def test_statusz_snapshot(self, scraped):
        status, snapshot = scraped["statusz"]
        assert status == 200
        assert snapshot["counters"]["http_requests_total"] >= 4
        assert snapshot["summaries"]["request_latency_ms_count"] >= 4
        assert "query_cache_hits" in snapshot["gauges"]
        assert "resilience_retries" in snapshot["gauges"]

    def test_statements_table_fills_after_traffic(self, scraped):
        """The digest analytics surface: report traffic must appear as
        at least one normalized statement row with calls and rows."""
        status, body = scraped["statements"]
        assert status == 200
        assert body["statements"], "no digest rows after traffic"
        row = body["statements"][0]
        assert len(row["digest"]) == 12
        assert row["calls"] >= 3
        assert row["rows"] >= 1
        assert "select" in row["statement"].lower()
        assert body["recorded_total"] >= 3

    def test_slo_burn_gauges_ride_the_scrape(self, scraped):
        """The SLO source's multi-window burn gauges are on /metrics
        and /statusz like every other stats family."""
        _, _, text = scraped["metrics"]
        assert "slo_availability_burn_5m" in text
        assert "slo_latency_burn_1h" in text
        _, snapshot = scraped["statusz"]
        assert "slo_latency_burn_1h" in snapshot["gauges"]
        assert "statements_recorded_total" in snapshot["counters"]


class TestShutdownArtifacts:
    @pytest.fixture(scope="class", autouse=True)
    def stopped(self, served, scraped):
        """SIGINT the server so it writes its #stats trailer."""
        proc = served["proc"]
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)

    def test_access_log_sizes_and_trailer(self, served):
        from repro.http.accesslog import parse_line
        lines = served["access_log"].read_text().splitlines()
        entries = [e for e in map(parse_line, lines) if e is not None]
        reports = [e for e in entries if "report" in e.path]
        assert reports and all(e.size > 0 for e in reports)
        assert any(line.startswith("#stats ") for line in lines)

    def test_repro_stats_renders_the_latency_table(self, served):
        out = io.StringIO()
        assert cli_main(["stats", str(served["access_log"])],
                        out=out) == 0
        text = out.getvalue()
        assert "server latency:" in text
        assert "request_latency_ms" in text
        assert "traces_total:" in text

    def test_trace_log_and_pretty_printer(self, served):
        records = [json.loads(line) for line in
                   served["trace_log"].read_text().splitlines()]
        assert all(r["type"] == "trace" for r in records)
        assert any("sql.execute" in r["phases"] for r in records)
        out = io.StringIO()
        assert cli_main(["trace", str(served["trace_log"])], out=out) == 0
        assert "sql.execute" in out.getvalue()

    def test_slow_query_log_caught_everything(self, served):
        """Threshold 0ms: every sql.execute lands in the slow log."""
        out = io.StringIO()
        assert cli_main(["trace", str(served["slow_log"]),
                         "--slow-only"], out=out) == 0
        text = out.getvalue()
        assert "slow_query" in text
        assert "digest" in text
