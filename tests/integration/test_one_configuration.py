"""``repro serve`` configures its engine from its argv alone, in every
gateway mode.

An ambient ``REPRO_TRANSACTION_MODE=single`` used to reach app-server
workers (they inherited the serving process's environment) and not the
in-process engine, so one command and one macro left different rows
depending on ``--gateway``, both answering 200.
"""

import signal
import sqlite3
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

from tests.integration.test_tenant_smoke import read_banner

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: Two writes; the second fails, so a single transaction keeps neither.
MACRO = """\
%DEFINE DATABASE = "SHOP"
%SQL(first){ INSERT INTO items VALUES (1) %}
%SQL(second){ INSERT INTO no_such_table VALUES (2) %}
%HTML_REPORT{
%EXEC_SQL(first)
%EXEC_SQL(second)
%}
"""


def rows_left(tmp_path, *gateway):
    """Rows in ``items`` after one request through ``serve *gateway``
    started under an ambient ``REPRO_TRANSACTION_MODE=single``."""
    root = tmp_path / gateway[-1]
    (root / "macros").mkdir(parents=True)
    (root / "macros" / "write.d2w").write_text(MACRO, encoding="utf-8")
    database = root / "shop.sqlite"
    with sqlite3.connect(database) as conn:
        conn.execute("CREATE TABLE items (id INTEGER)")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--macros",
         str(root / "macros"), "--database", f"SHOP={database}",
         "--port", "0", "--no-trace", *gateway],
        env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin",
             "REPRO_TRANSACTION_MODE": "single"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        base = read_banner(proc, r"on (http://[\d.]+:\d+)", "serve")
        try:
            urllib.request.urlopen(
                base + "/cgi-bin/db2www/write.d2w/report", timeout=10)
        except urllib.error.HTTPError:
            pass  # the page may report the failure; the rows decide
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    with sqlite3.connect(database) as conn:
        return conn.execute("SELECT count(*) FROM items").fetchone()[0]


def test_an_ambient_transaction_mode_reaches_no_gateway(tmp_path):
    in_process = rows_left(tmp_path, "--gateway", "inprocess")
    app_server = rows_left(tmp_path, "--gateway", "appserver",
                           "--workers", "1")
    assert in_process == app_server == 1  # serve is auto-commit


def metrics_after_two_reports(tmp_path, *flags):
    """``/metrics`` of ``serve *flags`` (default ``--query-cache``) after
    the same URL query report was fetched twice."""
    from repro.apps import urlquery as urlquery_app
    from repro.apps.datasets import seed_urldb

    root = tmp_path / ("-".join(flags) or "buffered")
    (root / "macros").mkdir(parents=True)
    (root / "macros" / "urlquery.d2w").write_text(
        urlquery_app.URLQUERY_MACRO, encoding="utf-8")
    database = root / "urldb.sqlite"
    with sqlite3.connect(database) as conn:
        seed_urldb(conn, 20)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--macros",
         str(root / "macros"), "--database", f"URLDB={database}",
         "--port", "0", "--no-trace", *flags],
        env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        base = read_banner(proc, r"on (http://[\d.]+:\d+)", "serve")
        for _ in range(2):
            with urllib.request.urlopen(
                    base + "/cgi-bin/db2www/urlquery.d2w/report"
                    "?DBFIELDS=title", timeout=10) as response:
                assert b"<LI>" in response.read()
        with urllib.request.urlopen(base + "/metrics",
                                    timeout=10) as response:
            return response.read().decode("utf-8")
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def test_a_streaming_serve_builds_no_query_cache(tmp_path):
    """A streamed page never reads or fills the query cache, so
    ``--stream`` builds none: ``/metrics`` shows no counters stuck at 0."""
    assert "query_cache_hits 1" in metrics_after_two_reports(tmp_path)
    assert "query_cache_" not in metrics_after_two_reports(
        tmp_path, "--stream")
