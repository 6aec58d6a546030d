"""Multi-tenant hosting: isolation, JSON negotiation, quotas, teardown."""

import json

import pytest

from repro.cgi.environ import CgiEnvironment
from repro.errors import SQLObjectError
from repro.http.headers import Headers
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.security.auth import basic_credentials
from repro.security.tenants import TenantAccessPolicy
from repro.settings import Settings
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.tenancy import (
    JSON_CONTENT_TYPE,
    TenantHost,
    TenantQuota,
    TenantRegistry,
    valid_tenant_name,
    wants_json,
)
from repro.tenancy.registry import _QuotaWindow

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


def seed_shop(tenant, rows):
    db = tenant.databases.register_memory("SHOP")
    with db.connect() as conn:
        conn.executescript(
            "CREATE TABLE items (id INTEGER, name TEXT);")
        for row_id, name in rows:
            conn.execute("INSERT INTO items VALUES (?, ?)",
                         (row_id, name))
        conn.commit()


@pytest.fixture()
def tenants():
    registry = TenantRegistry(query_cache=QueryResultCache())
    alpha = registry.create_tenant(
        "alpha", owner="alice", password="wonder",
        visibility="private")
    seed_shop(alpha, [(1, "apple"), (2, "apricot")])
    alpha.library.add_text("items.d2w", ITEMS_MACRO)
    alpha.library.add_text("insert.d2w", INSERT_MACRO)
    beta = registry.create_tenant(
        "beta", owner="bob", password="builder",
        visibility="public", read_only=True)
    seed_shop(beta, [(1, "brick")])
    beta.library.add_text("items.d2w", ITEMS_MACRO)
    beta.library.add_text("insert.d2w", INSERT_MACRO)
    return registry


@pytest.fixture()
def router(tenants):
    return Router(tenants=TenantHost(tenants))


def call(router, path, *, user=None, password="", headers=None):
    all_headers = Headers(list((headers or {}).items()))
    if user is not None:
        all_headers.set("Authorization",
                        basic_credentials(user, password))
    response = router.handle(
        HttpRequest(method="GET", target=path, headers=all_headers))
    response.drain()
    return response


class TestRouting:
    def test_owner_gets_html_report(self, router):
        response = call(router, "/t/alpha/items.d2w/report",
                        user="alice", password="wonder")
        assert response.status == 200
        assert "text/html" in response.headers.get("Content-Type")
        assert "apple" in response.text
        assert "apricot" in response.text

    def test_wrong_shape_is_404(self, router):
        assert call(router, "/t/alpha/items.d2w",
                    user="alice", password="wonder").status == 404

    def test_unknown_tenant_is_404(self, router):
        assert call(router, "/t/gamma/items.d2w/report").status == 404

    def test_unknown_macro_is_404(self, router):
        response = call(router, "/t/alpha/nope.d2w/report",
                        user="alice", password="wonder")
        assert response.status == 404


class TestIsolation:
    def test_anonymous_private_gets_401_challenge(self, router):
        response = call(router, "/t/alpha/items.d2w/report")
        assert response.status == 401
        assert 'Basic realm="tenants"' in response.headers.get(
            "WWW-Authenticate")

    def test_cross_tenant_private_is_403(self, router):
        # bob is a perfectly valid identity — for *beta*.
        response = call(router, "/t/alpha/items.d2w/report",
                        user="bob", password="builder")
        assert response.status == 403

    def test_public_tenant_serves_anonymous(self, router):
        response = call(router, "/t/beta/items.d2w/report")
        assert response.status == 200
        assert "brick" in response.text

    def test_same_database_name_different_rows(self, router):
        alpha = call(router, "/t/alpha/items.d2w/report",
                     user="alice", password="wonder")
        beta = call(router, "/t/beta/items.d2w/report")
        # Both tenants call their database SHOP; neither sees the
        # other's rows (scoped registries, scoped cache keys).
        assert "apple" in alpha.text and "brick" not in alpha.text
        assert "brick" in beta.text and "apple" not in beta.text

    @pytest.mark.parametrize("path", [
        "/t/../etc/passwd/report",
        "/t/alpha/../beta/report",
        "/t/alpha/items.d2w/../input",
        "/t/%2e%2e/items.d2w/report",
        "/t/alpha/%2e%2e%2fsecret.d2w/report",
        "/t/alpha/items;drop.d2w/report",
    ])
    def test_traversal_rejected_at_parse_time(self, router, path,
                                              tenants):
        # Literal ``../`` collapses in the router's URL normalization
        # (→ 404, wrong shape); encoded spellings reach the tenant
        # parser and fail its charset check (→ 400).  Either way the
        # probe dies before tenant resolution.
        response = call(router, path)
        assert response.status in (400, 404)
        # Rejected before tenant resolution: no counter moved.
        assert all(value == 0
                   for bag in tenants.labeled_stats().values()
                   for value in bag.values())


class TestReadOnly:
    def test_write_rejected_with_42501(self, router):
        response = call(router, "/t/beta/insert.d2w/report")
        assert response.status == 403
        assert "42501" in response.text

    def test_write_rejected_before_touching_the_pool(self, tenants):
        beta = tenants.get("beta")
        assert beta.databases.active_connections("SHOP") == 0
        router = Router(tenants=TenantHost(tenants))
        call(router, "/t/beta/insert.d2w/report")
        # The rejection happened before a connection was acquired and
        # the table is untouched.
        assert beta.databases.active_connections("SHOP") == 0
        conn = beta.databases.connect("SHOP")
        try:
            count = conn.execute(
                "SELECT COUNT(*) FROM items").fetchone()[0]
        finally:
            conn.close()
        assert count == 1

    def test_writable_tenant_still_writes(self, router):
        response = call(router, "/t/alpha/insert.d2w/report",
                        user="alice", password="wonder")
        assert response.status == 200


class TestJsonNegotiation:
    def test_accept_header_negotiates_json(self, router):
        response = call(router, "/t/beta/items.d2w/report",
                        headers={"Accept": JSON_CONTENT_TYPE})
        assert response.status == 200
        assert response.headers.get("Content-Type").startswith(
            JSON_CONTENT_TYPE)
        page = json.loads(response.text)
        assert page["tenant"] == "beta"
        assert page["macro"] == "items.d2w"
        assert page["command"] == "report"
        assert page["results"] == [{
            "columns": ["id", "name"],
            "rows": [{"id": 1, "name": "brick"}],
            "row_count": 1,
        }]

    def test_lowercase_accept_header_negotiates_json(self, router):
        response = call(router, "/t/beta/items.d2w/report",
                        headers={"accept": JSON_CONTENT_TYPE})
        assert response.headers.get("Content-Type").startswith(
            JSON_CONTENT_TYPE)
        assert json.loads(response.text)["tenant"] == "beta"

    def test_format_variable_negotiates_json(self, router):
        response = call(router, "/t/beta/items.d2w/report?format=json")
        assert response.status == 200
        json.loads(response.text)

    def test_json_and_html_carry_identical_row_data(self, router):
        html = call(router, "/t/alpha/items.d2w/report",
                    user="alice", password="wonder")
        as_json = call(router, "/t/alpha/items.d2w/report",
                       user="alice", password="wonder",
                       headers={"Accept": JSON_CONTENT_TYPE})
        rows = json.loads(as_json.text)["results"][0]["rows"]
        assert rows == [{"id": 1, "name": "apple"},
                        {"id": 2, "name": "apricot"}]
        for row in rows:
            assert str(row["name"]) in html.text

    def test_unnegotiated_response_is_plain_html(self, router):
        response = call(router, "/t/beta/items.d2w/report")
        assert "text/html" in response.headers.get("Content-Type")
        assert response.text.lstrip().startswith("<")

    def test_json_error_negotiation_keeps_status_mapping(self, router):
        # A write against read-only beta still maps to 403, even when
        # the client asked for JSON.
        response = call(router, "/t/beta/insert.d2w/report",
                        headers={"Accept": JSON_CONTENT_TYPE})
        assert response.status == 403


class TestQuota:
    def test_request_quota_answers_429_with_retry_after(self, tenants):
        gamma = tenants.create_tenant(
            "gamma", owner="gail", password="force",
            quota=TenantQuota(requests=2, window_seconds=60.0))
        seed_shop(gamma, [(1, "granite")])
        gamma.library.add_text("items.d2w", ITEMS_MACRO)
        router = Router(tenants=TenantHost(tenants))
        for _ in range(2):
            assert call(router,
                        "/t/gamma/items.d2w/report").status == 200
        throttled = call(router, "/t/gamma/items.d2w/report")
        assert throttled.status == 429
        retry_after = throttled.headers.get("Retry-After")
        assert retry_after and 0 < int(retry_after) <= 60
        assert tenants.labeled_stats()["gamma"]["throttled_total"] == 1

    def test_row_quota_charges_after_completion(self, tenants):
        delta = tenants.create_tenant(
            "delta", owner="dora", password="explorer",
            quota=TenantQuota(rows=3, window_seconds=60.0))
        seed_shop(delta, [(1, "d1"), (2, "d2")])
        delta.library.add_text("items.d2w", ITEMS_MACRO)
        router = Router(tenants=TenantHost(tenants))
        # First page fetches 2 rows (under), second overshoots to 4 —
        # the fixed-window trade: the *next* request gets the 429.
        assert call(router, "/t/delta/items.d2w/report").status == 200
        assert call(router, "/t/delta/items.d2w/report").status == 200
        assert call(router, "/t/delta/items.d2w/report").status == 429

    def test_streamed_pages_charge_rows_once_drained(self, spill):
        """A tenant page past the spill budget streams like any other,
        and its rows are charged when the stream settles."""
        spill()
        registry = TenantRegistry(Settings())
        delta = registry.create_tenant(
            "delta", owner="dora",
            quota=TenantQuota(rows=3, window_seconds=60.0))
        seed_shop(delta, [(1, "d1"), (2, "d2")])
        delta.library.add_text("items.d2w", ITEMS_MACRO)
        router = Router(tenants=TenantHost(registry))
        response = router.handle(HttpRequest(
            method="GET", target="/t/delta/items.d2w/report"))
        assert response.streaming
        assert delta.stats()["rows_total"] == 0  # not settled yet
        response.drain()
        assert delta.stats()["rows_total"] == 2
        assert [call(router, "/t/delta/items.d2w/report").status
                for _ in range(2)] == [200, 429]

    def test_window_rolls_over(self):
        window = _QuotaWindow(TenantQuota(requests=1,
                                          window_seconds=0.0))
        assert window.admit() == (True, 0.0)
        # A zero-length window resets on every admission check.
        assert window.admit()[0]

    def test_unlimited_quota_never_throttles(self):
        window = _QuotaWindow(TenantQuota())
        for _ in range(100):
            assert window.admit() == (True, 0.0)


class TestStats:
    def test_counters_roll_up_flat(self, tenants):
        router = Router(tenants=TenantHost(tenants))
        call(router, "/t/alpha/items.d2w/report",
             user="alice", password="wonder")
        call(router, "/t/alpha/items.d2w/report")          # 401
        call(router, "/t/alpha/items.d2w/report",
             user="bob", password="builder")               # 403
        stats = tenants.labeled_stats()
        assert stats["alpha"]["requests_total"] == 1
        assert stats["alpha"]["rows_total"] == 2
        assert stats["alpha"]["denied_total"] == 2
        assert stats["beta"]["requests_total"] == 0

    def test_stats_render_on_metrics_scrape(self, tenants):
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
        metrics.attach_source("tenant", tenants.labeled_stats,
                              label="tenant")
        router = Router(tenants=TenantHost(tenants), metrics=metrics)
        call(router, "/t/beta/items.d2w/report")
        scrape = call(router, "/metrics")
        assert scrape.status == 200
        assert 'tenant_requests_total{tenant="beta"} 1' in scrape.text
        assert "tenant_beta_" not in scrape.text


class TestLifecycle:
    def test_duplicate_tenant_rejected(self, tenants):
        with pytest.raises(SQLObjectError) as excinfo:
            tenants.create_tenant("alpha", owner="eve")
        assert excinfo.value.sqlstate == "42710"

    def test_bad_names_rejected(self, tenants):
        for name in ("", "-lead", "a/b", "a..b", "x" * 65, "%2e%2e"):
            assert not valid_tenant_name(name)
            with pytest.raises(ValueError):
                tenants.create_tenant(name, owner="eve")

    def test_bad_visibility_rejected(self, tenants):
        with pytest.raises(ValueError):
            tenants.create_tenant("vis", owner="eve",
                                  visibility="secret")

    def test_drop_unknown_tenant(self, tenants):
        with pytest.raises(SQLObjectError) as excinfo:
            tenants.drop_tenant("ghost")
        assert excinfo.value.sqlstate == "42704"

    def test_drop_tenant_purges_cache_namespace(self, tenants):
        router = Router(tenants=TenantHost(tenants))
        # Warm the cache with beta's rows, then recreate beta with
        # different data under the same names.
        first = call(router, "/t/beta/items.d2w/report")
        assert "brick" in first.text
        tenants.drop_tenant("beta")
        assert "beta" not in tenants
        rebuilt = tenants.create_tenant("beta", owner="bob")
        seed_shop(rebuilt, [(1, "basalt")])
        rebuilt.library.add_text("items.d2w", ITEMS_MACRO)
        second = call(router, "/t/beta/items.d2w/report")
        # A stale cache would resurrect 'brick' here.
        assert "basalt" in second.text
        assert "brick" not in second.text

    def test_drop_refused_while_connections_active(self, tenants):
        beta = tenants.get("beta")
        conn = beta.databases.connect("SHOP")
        try:
            with pytest.raises(SQLObjectError) as excinfo:
                tenants.drop_tenant("beta")
            assert excinfo.value.sqlstate == "55006"
            assert "beta" in tenants
        finally:
            conn.close()
        tenants.drop_tenant("beta")


class TestUnits:
    def test_wants_json_accept_header(self):
        env = CgiEnvironment(
            http_headers={"Accept": "text/html, application/JSON"})
        assert wants_json(env)
        assert not wants_json(CgiEnvironment(
            http_headers={"Accept": "text/html"}))

    def test_wants_json_format_variable(self):
        assert wants_json(CgiEnvironment(query_string="format=json"))
        assert wants_json(CgiEnvironment(query_string="format=JSON"))
        assert not wants_json(CgiEnvironment(query_string="format=xml"))
        assert not wants_json(CgiEnvironment())

    def test_access_policy_matrix(self, tenants):
        policy = TenantAccessPolicy(tenants.authenticator)
        alpha = tenants.get("alpha")
        beta = tenants.get("beta")
        good = basic_credentials("alice", "wonder")
        bad = basic_credentials("alice", "nope")
        assert policy.authorize(alpha, good).allowed
        assert policy.authorize(alpha, good).user == "alice"
        assert policy.authorize(alpha, None).status == 401
        assert policy.authorize(alpha, bad).status == 401
        assert policy.authorize(
            alpha, basic_credentials("bob", "builder")).status == 403
        # Public tenants admit anyone, credentialed or not.
        assert policy.authorize(beta, None).allowed
        assert policy.authorize(beta, good).user == "alice"
