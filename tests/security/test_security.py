"""Section 5 practical issues: SQL safety, auth, firewall, i18n."""

import pytest

from repro.cgi.environ import CgiEnvironment
from repro.cgi.gateway import CgiGateway, FunctionProgram
from repro.cgi.request import CgiRequest, CgiResponse
from repro.http.headers import Headers
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.security.auth import (
    BasicAuthenticator,
    HostFilter,
    ProtectedProgram,
    basic_credentials,
)
from repro.security.i18n import (
    MessageCatalog,
    localized_macro_name,
    negotiate_language,
    parse_accept_language,
)
from repro.security.sqlsafe import (
    SqlPolicy,
    UnsafeSqlError,
    assert_single_statement,
    assert_verb_allowed,
    strip_strings_and_comments,
)


class TestSqlPolicy:
    def test_single_statement_accepts_normal_sql(self):
        sql = "SELECT * FROM urldb WHERE title LIKE '%a%'"
        assert assert_single_statement(sql) == sql

    def test_semicolon_in_string_is_fine(self):
        assert_single_statement("SELECT 'a;b' FROM t")

    def test_trailing_semicolon_tolerated(self):
        assert_single_statement("SELECT 1;")

    def test_piggybacked_statement_rejected(self):
        with pytest.raises(UnsafeSqlError):
            assert_single_statement(
                "SELECT * FROM t WHERE x = 1; DROP TABLE t")

    def test_comment_hidden_semicolon_rejected_only_if_effective(self):
        # A semicolon inside a comment is not a second statement.
        assert_single_statement("SELECT 1 -- tail; DROP TABLE t")

    def test_strip_strings_and_comments(self):
        skeleton = strip_strings_and_comments(
            "SELECT 'a;b', \"c;d\" /* e;f */ -- g;h")
        assert ";" not in skeleton

    def test_verb_allowlist(self):
        assert_verb_allowed("SELECT 1", {"SELECT"})
        with pytest.raises(UnsafeSqlError):
            assert_verb_allowed("DROP TABLE t", {"SELECT", "INSERT"})

    def test_policy_composes(self):
        policy = SqlPolicy(verbs={"select"})
        policy.check("SELECT 1")
        with pytest.raises(UnsafeSqlError):
            policy.check("DELETE FROM t")
        with pytest.raises(UnsafeSqlError):
            policy.check("SELECT 1; SELECT 2")


class TestInjectionDemonstration:
    """The faithful engine is injectable; the policy layer stops it."""

    def test_injection_against_faithful_engine(self, shop_registry):
        from repro.core import MacroEngine, parse_macro
        engine = MacroEngine(shop_registry)
        macro = parse_macro("""
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items WHERE name = '$(n)' %}
%HTML_REPORT{%EXEC_SQL%}
""")
        # The classic OR-1=1: data leaks past the intended filter.
        result = engine.execute_report(
            macro, [("n", "nope' OR '1'='1")])
        assert result.html.count("<TD>") == 3  # everything leaked

    def test_policy_layer_would_catch_piggyback(self):
        hostile = ("SELECT name FROM items WHERE name = 'x'; "
                   "DROP TABLE items; --'")
        with pytest.raises(UnsafeSqlError):
            SqlPolicy().check(hostile)


class TestBasicAuth:
    @pytest.fixture()
    def auth(self):
        authenticator = BasicAuthenticator(realm="db2www")
        authenticator.add_user("tam", "sigmod96")
        return authenticator

    def test_verify(self, auth):
        assert auth.verify("tam", "sigmod96")
        assert not auth.verify("tam", "wrong")
        assert not auth.verify("ghost", "sigmod96")

    def test_header_check(self, auth):
        good = basic_credentials("tam", "sigmod96")
        assert auth.check_header(good)
        assert not auth.check_header("Basic !!!notbase64!!!")
        assert not auth.check_header("Bearer token")
        assert not auth.check_header("")

    def test_header_check_returns_verified_username(self, auth):
        # Regression: callers (tenancy, REMOTE_USER) need the identity,
        # not just a boolean.
        assert auth.check_header(
            basic_credentials("tam", "sigmod96")) == "tam"
        assert auth.check_header(
            basic_credentials("tam", "wrong")) is None
        assert auth.check_header(
            basic_credentials("ghost", "sigmod96")) is None

    def test_empty_username_rejected(self, auth):
        # Regression: ":password" base64-decodes to an empty username;
        # it must neither register nor verify.
        with pytest.raises(ValueError):
            auth.add_user("", "anything")
        assert not auth.verify("", "sigmod96")
        assert auth.check_header(
            basic_credentials("", "sigmod96")) is None

    def test_protected_program_flow(self, auth):
        inner = FunctionProgram(lambda r: CgiResponse(body=b"secret"))
        protected = ProtectedProgram(inner, auth)
        denied = protected.run(CgiRequest(CgiEnvironment()))
        assert denied.status == 401
        assert 'realm="db2www"' in denied.header("WWW-Authenticate")
        allowed = protected.run(CgiRequest(CgiEnvironment(
            http_headers={"Authorization":
                          basic_credentials("tam", "sigmod96")})))
        assert allowed.body == b"secret"

    def test_protected_program_sets_remote_user(self, auth):
        seen = {}

        def capture(request):
            seen["user"] = request.environ.remote_user
            return CgiResponse(body=b"ok")

        protected = ProtectedProgram(FunctionProgram(capture), auth)
        protected.run(CgiRequest(CgiEnvironment(
            http_headers={"Authorization":
                          basic_credentials("tam", "sigmod96")})))
        assert seen["user"] == "tam"

    @pytest.mark.parametrize("name", ["authorization", "AUTHORIZATION"])
    def test_header_name_case_is_the_clients_choice(self, auth, name):
        """The router canonicalises header names where it builds the
        CGI environment: any spelling authenticates in-process, as it
        always did through an app-server worker's frame round trip."""
        gateway = CgiGateway()
        gateway.install("db2www", ProtectedProgram(
            FunctionProgram(lambda r: CgiResponse(body=b"secret")), auth))
        response = Router(gateway=gateway).handle(HttpRequest(
            target="/cgi-bin/db2www/x.d2w/report", headers=Headers(
                [(name, basic_credentials("tam", "sigmod96"))])))
        response.drain()
        assert response.status == 200
        assert response.body == b"secret"


class TestHostFilter:
    def test_deny_wins_over_allow(self):
        filt = (HostFilter(default_allow=False)
                .allow("10.0.0.0/8").deny("10.9.0.0/16"))
        assert filt.permits("10.1.2.3")
        assert not filt.permits("10.9.1.1")
        assert not filt.permits("192.168.1.1")

    def test_default_allow(self):
        filt = HostFilter().deny("203.0.113.0/24")
        assert filt.permits("8.8.8.8")
        assert not filt.permits("203.0.113.9")

    def test_garbage_address_denied(self):
        assert not HostFilter().permits("not-an-ip")

    def test_ipv4_mapped_ipv6_hits_ipv4_deny_rule(self):
        # Regression: a dual-stack listener reports IPv4 peers as
        # ::ffff:a.b.c.d; the textual form must not slip past an IPv4
        # CIDR deny rule.
        filt = HostFilter().deny("192.0.2.0/24")
        assert not filt.permits("192.0.2.7")
        assert not filt.permits("::ffff:192.0.2.7")
        assert filt.permits("::ffff:198.51.100.7")

    def test_ipv4_literal_hits_mapped_ipv6_deny_rule(self):
        # ...and the reverse direction: a deny written in mapped-IPv6
        # notation must still block the plain IPv4 spelling.
        filt = HostFilter().deny("::ffff:192.0.2.0/120")
        assert not filt.permits("192.0.2.7")
        assert not filt.permits("::ffff:192.0.2.7")
        assert filt.permits("192.0.3.7")

    def test_ipv4_mapped_allow_rule_admits_both_spellings(self):
        filt = HostFilter(default_allow=False).allow("10.0.0.0/8")
        assert filt.permits("10.1.2.3")
        assert filt.permits("::ffff:10.1.2.3")
        assert not filt.permits("::1")

    def test_wrapped_program(self):
        filt = HostFilter(default_allow=False).allow("127.0.0.1/32")
        program = filt.wrap(FunctionProgram(
            lambda r: CgiResponse(body=b"in")))
        ok = program.run(CgiRequest(CgiEnvironment(
            remote_addr="127.0.0.1")))
        assert ok.body == b"in"
        blocked = program.run(CgiRequest(CgiEnvironment(
            remote_addr="198.51.100.7")))
        assert blocked.status == 403


class TestI18n:
    def test_parse_accept_language_quality_order(self):
        assert parse_accept_language(
            "fr-CA;q=0.8, en;q=0.9, ja") == ["ja", "en", "fr-ca"]

    def test_zero_quality_excluded(self):
        assert parse_accept_language("en;q=0, fr") == ["fr"]

    def test_negotiate_exact_and_base_fallback(self):
        assert negotiate_language("fr-CA, en", ["en", "fr"]) == "fr"
        assert negotiate_language("de", ["en", "fr"]) == "en"
        assert negotiate_language("", ["en"]) == "en"

    def test_localized_macro_name(self):
        assert localized_macro_name("urlquery.d2w", "fr") == \
            "urlquery.fr.d2w"
        assert localized_macro_name("plain", "ja") == "plain.ja"

    def test_catalog_fallback_chain(self):
        catalog = MessageCatalog()
        catalog.add("en", {"title": "URL Query", "go": "Submit"})
        catalog.add("fr", {"title": "Requête URL"})
        assert catalog.get("title", "fr") == "Requête URL"
        assert catalog.get("go", "fr") == "Submit"       # en fallback
        assert catalog.get("missing", "fr") == "missing"  # key fallback
        assert catalog.languages() == ["en", "fr"]

    def test_defines_for_merges_languages(self):
        catalog = MessageCatalog()
        catalog.add("en", {"a": "A", "b": "B"})
        catalog.add("ja", {"a": "あ"})
        pairs = dict(catalog.defines_for("ja"))
        assert pairs == {"a": "あ", "b": "B"}

    def test_multibyte_through_full_engine(self, shop_registry):
        # Section 5: multi-byte character support.  UTF-8 Japanese text
        # flows client -> QUERY_STRING -> SQL -> report unharmed.
        from repro.core import MacroEngine, parse_macro
        conn = shop_registry.connect("SHOP")
        conn.execute("INSERT INTO items VALUES ('自転車', 300.0, 2)")
        conn.close()
        engine = MacroEngine(shop_registry)
        macro = parse_macro("""
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items WHERE name = '$(q)'
%SQL_REPORT{%ROW{<P>$(V1) あり</P>%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        result = engine.execute_report(macro, [("q", "自転車")])
        assert "<P>自転車 あり</P>" in result.html
