"""The CI edge-smoke path: HTTP edge → TCP pool daemon, for real.

Two subprocesses, exactly as a two-host deployment would run them:

* ``repro serve --listen 127.0.0.1:0`` — the standalone worker-pool
  daemon, owning the CGI worker processes;
* ``repro serve --gateway appserver --connect <endpoint>`` — the HTTP
  edge dispatching over loopback TCP.

Then real requests through the whole stack, plus a scrape of
``/statusz`` for the edge gauges and pool stats.
"""

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
from repro.sql.connection import Connection

REPORT = ("/cgi-bin/db2www/urlquery.d2w/report"
          "?SEARCH=ib&USE_URL=yes&DBFIELDS=title")

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
SUBPROCESS_ENV = {"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"}


def fetch(base, target):
    try:
        with urllib.request.urlopen(base + target,
                                    timeout=10) as response:
            return (response.status, dict(response.headers),
                    response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def read_banner(proc, pattern, what):
    deadline = time.time() + 20
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(pattern, line)
        if match:
            return match.group(1)
    proc.kill()
    raise RuntimeError(f"{what} never announced itself")


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """Daemon + edge subprocess pair, shared by the tests."""
    tmp_path = tmp_path_factory.mktemp("edge-smoke")
    db_path = tmp_path / "urldb.sqlite"
    conn = Connection(str(db_path))
    seed_urldb(conn, 20)
    conn.close()
    macro_dir = tmp_path / "macros"
    macro_dir.mkdir()
    (macro_dir / "urlquery.d2w").write_text(
        urlquery_app.URLQUERY_MACRO, encoding="utf-8")
    common = ["--macros", str(macro_dir),
              "--database", f"URLDB={db_path}"]
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--listen", "127.0.0.1:0", "--workers", "2", *common],
        env=SUBPROCESS_ENV, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    procs = [daemon]
    try:
        endpoint = read_banner(
            daemon, r"worker pool listening on ([\d.]+:\d+)",
            "pool daemon")
        # The databases are the daemon's: serve refuses --database here.
        edge = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--gateway", "appserver", "--connect", endpoint,
             "--workers", "2", "--macros", str(macro_dir),
             "--host", "127.0.0.1", "--port", "0"],
            env=SUBPROCESS_ENV, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        procs.append(edge)
        base = read_banner(edge, r"on (http://[\d.]+:\d+)", "edge")
        yield {"base": base, "endpoint": endpoint}
    finally:
        for proc in reversed(procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in reversed(procs):
            if proc.poll() is None:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()


class TestEdgeSmoke:
    def test_report_served_over_tcp_dispatch(self, stack):
        status, headers, body = fetch(stack["base"], REPORT)
        assert status == 200
        assert b"URL Query Result" in body
        # minted at the edge, threaded through daemon and worker
        assert headers.get("X-Trace-Id")

    def test_sequential_requests_reuse_the_stack(self, stack):
        for _ in range(5):
            status, _, body = fetch(stack["base"], REPORT)
            assert status == 200
            assert b"URL Query Result" in body

    def test_statusz_shows_edge_and_pool(self, stack):
        status, _, body = fetch(stack["base"], "/statusz")
        assert status == 200
        page = json.loads(body)
        flat = json.dumps(page)
        # the edge's gauges made it into the registry
        assert "edge_connections_active" in flat
        assert "edge_requests_total" in flat
        # pool stats crossed the TCP transport via PING
        assert "appserver" in flat
        assert "daemon_requests" in flat


def wal_deployment(tmp_path):
    """A macro directory whose URLDB file is in WAL mode; returns the
    database path and where SQLite keeps that file's log."""
    db_path = tmp_path / "urldb.sqlite"
    conn = Connection(str(db_path))
    seed_urldb(conn, 20)
    conn.executescript("PRAGMA journal_mode=WAL;")
    conn.close()
    (tmp_path / "urlquery.d2w").write_text(
        urlquery_app.URLQUERY_MACRO, encoding="utf-8")
    return db_path, tmp_path / "urldb.sqlite-wal"


def test_inprocess_serve_keeps_its_connections_warm(tmp_path):
    """``repro serve`` leases pooled connections: a WAL-mode file's log
    outlives the request that opened it (a per-request close, being the
    file's last, would checkpoint and delete it — or not, whenever
    another request overlapped) and Ctrl-C folds it back into the file.
    """
    db_path, log = wal_deployment(tmp_path)
    assert not log.exists()
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--macros", str(tmp_path),
         "--database", f"URLDB={db_path}", "--port", "0"],
        env=SUBPROCESS_ENV, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        base = read_banner(serve, r"on (http://[\d.]+:\d+)", "serve")
        status, _, body = fetch(base, REPORT)
        assert status == 200 and b"URL Query Result" in body
        assert log.exists()
    finally:
        serve.send_signal(signal.SIGINT)
        serve.wait(timeout=10)
    assert not log.exists()


def test_sigterm_stops_serve_as_cleanly_as_ctrl_c(tmp_path):
    """SIGTERM — what ``--acceptors`` sends its children and what a
    supervisor sends by default — must run the same clean-up as Ctrl-C:
    exit status 0, pooled connections closed (the WAL folded back into
    its file) and the ``#stats`` trailer on the access log."""
    db_path, wal = wal_deployment(tmp_path)
    access_log = tmp_path / "access.log"
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--macros", str(tmp_path),
         "--database", f"URLDB={db_path}", "--port", "0",
         "--access-log", str(access_log)],
        env=SUBPROCESS_ENV, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        base = read_banner(serve, r"on (http://[\d.]+:\d+)", "serve")
        post = urllib.request.Request(
            base + "/cgi-bin/db2www/urlquery.d2w/report",
            data=b"SEARCH=ib&USE_URL=yes&DBFIELDS=title")
        with urllib.request.urlopen(post, timeout=10) as response:
            assert response.status == 200
            assert b"URL Query Result" in response.read()
        assert wal.exists()
    finally:
        serve.send_signal(signal.SIGTERM)
        exit_status = serve.wait(timeout=10)
    assert exit_status == 0
    assert not wal.exists()
    lines = access_log.read_text(encoding="utf-8").splitlines()
    assert any('"POST ' in line for line in lines)
    assert lines[-1].startswith("#stats {")
