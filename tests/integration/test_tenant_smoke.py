"""The CI tenant-smoke path: multi-tenant hosting over real HTTP.

One ``repro serve --tenant-config`` subprocess hosting two tenants —
``alpha`` (private, quota-limited) and ``beta`` (public, read-only) —
then the full acceptance walk as curl would do it: owner HTML and JSON,
cross-tenant denial, read-only write rejection, quota exhaustion, and
the per-tenant counters on ``/metrics``.
"""

import json
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.security.auth import basic_credentials
from repro.sql.connection import Connection

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
SUBPROCESS_ENV = {"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"}

ITEMS_MACRO = """\
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT id, name FROM items ORDER BY id %}
%HTML_REPORT{
<H1>Items</H1>
%EXEC_SQL
%}
"""

INSERT_MACRO = """\
%DEFINE DATABASE = "SHOP"
%SQL{ INSERT INTO items VALUES (99, 'intruder') %}
%HTML_REPORT{
%EXEC_SQL
%}
"""

ALPHA = basic_credentials("alice", "wonder")
BETA = basic_credentials("bob", "builder")


def fetch(base, target, *, headers=None):
    request = urllib.request.Request(base + target,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
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


def seed_shop(path, rows):
    conn = Connection(str(path))
    conn.executescript("CREATE TABLE items (id INTEGER, name TEXT);")
    for row in rows:
        conn.execute("INSERT INTO items VALUES (?, ?)", row)
    conn.commit()
    conn.close()


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """One serve subprocess hosting alpha (private) + beta (read-only)."""
    tmp_path = tmp_path_factory.mktemp("tenant-smoke")
    shared_macros = tmp_path / "macros"
    shared_macros.mkdir()
    tenants = []
    for name, rows in (("alpha", [(1, "apple"), (2, "apricot")]),
                       ("beta", [(1, "brick")])):
        root = tmp_path / name
        (root / "macros").mkdir(parents=True)
        (root / "macros" / "items.d2w").write_text(
            ITEMS_MACRO, encoding="utf-8")
        (root / "macros" / "insert.d2w").write_text(
            INSERT_MACRO, encoding="utf-8")
        seed_shop(root / "shop.sqlite", rows)
        tenants.append(root)
    config = tmp_path / "tenants.json"
    config.write_text(json.dumps({"tenants": [
        {"name": "alpha", "owner": "alice", "password": "wonder",
         "visibility": "private",
         "macros": str(tenants[0] / "macros"),
         "databases": {"SHOP": str(tenants[0] / "shop.sqlite")},
         "quota": {"requests": 5, "window_seconds": 3600}},
        {"name": "beta", "owner": "bob", "password": "builder",
         "visibility": "public", "read_only": True,
         "macros": str(tenants[1] / "macros"),
         "databases": {"SHOP": str(tenants[1] / "shop.sqlite")}},
    ]}), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--macros", str(shared_macros),
         "--tenant-config", str(config),
         "--host", "127.0.0.1", "--port", "0"],
        env=SUBPROCESS_ENV, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        base = read_banner(proc, r"on (http://[\d.]+:\d+)",
                           "tenant edge")
        yield {"base": base}
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


class TestTenantSmoke:
    def test_owner_html_report(self, stack):
        status, headers, body = fetch(
            stack["base"], "/t/alpha/items.d2w/report",
            headers={"Authorization": ALPHA})
        assert status == 200
        assert "text/html" in headers.get("Content-Type", "")
        assert b"apple" in body and b"apricot" in body

    def test_owner_json_report(self, stack):
        status, headers, body = fetch(
            stack["base"], "/t/alpha/items.d2w/report",
            headers={"Authorization": ALPHA,
                     "Accept": "application/json"})
        assert status == 200
        assert headers.get("Content-Type", "").startswith(
            "application/json")
        page = json.loads(body)
        assert page["tenant"] == "alpha"
        assert page["results"][0]["rows"] == [
            {"id": 1, "name": "apple"}, {"id": 2, "name": "apricot"}]

    def test_cross_tenant_private_denied(self, stack):
        status, _, _ = fetch(
            stack["base"], "/t/alpha/items.d2w/report",
            headers={"Authorization": BETA})
        assert status == 403
        status, headers, _ = fetch(
            stack["base"], "/t/alpha/items.d2w/report")
        assert status == 401
        assert "Basic" in headers.get("WWW-Authenticate", "")

    def test_read_only_write_rejected(self, stack):
        status, _, body = fetch(
            stack["base"], "/t/beta/insert.d2w/report")
        assert status == 403
        assert b"42501" in body
        # The table is untouched.
        status, _, body = fetch(
            stack["base"], "/t/beta/items.d2w/report")
        assert status == 200
        assert b"intruder" not in body

    def test_quota_exhaustion_answers_429(self, stack):
        # alpha admits 5 requests per window; earlier tests spent some
        # of them — burn the rest and expect the honest 429.
        saw_429 = False
        for _ in range(8):
            status, headers, _ = fetch(
                stack["base"], "/t/alpha/items.d2w/report",
                headers={"Authorization": ALPHA})
            if status == 429:
                saw_429 = True
                assert int(headers["Retry-After"]) > 0
                break
            assert status == 200
        assert saw_429

    def test_a_tenant_cache_hit_shows_on_metrics(self, stack):
        """Tenants share the process's one query cache, and its
        counters are the ones /metrics shows."""
        def hits():
            _, _, body = fetch(stack["base"], "/metrics")
            match = re.search(r"^query_cache_hits (\d+)$",
                              body.decode("utf-8"), re.M)
            assert match, "no query_cache_hits on /metrics"
            return int(match.group(1))

        before = hits()
        for _ in range(2):
            status, _, _ = fetch(stack["base"], "/t/beta/items.d2w/report")
            assert status == 200
        assert hits() > before

    def test_metrics_expose_tenant_counters(self, stack):
        status, _, body = fetch(stack["base"], "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "# TYPE tenant_requests_total counter" in text
        assert re.search(r'tenant_requests_total\{tenant="alpha"\} \d+',
                         text)
        assert re.search(r'tenant_denied_total\{tenant="alpha"\} [1-9]',
                         text)
        assert re.search(
            r'tenant_throttled_total\{tenant="alpha"\} [1-9]', text)
        assert re.search(r'tenant_requests_total\{tenant="beta"\} \d+',
                         text)
        assert "tenant_alpha_" not in text  # one spelling per series
