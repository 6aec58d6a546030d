"""Graceful degradation: error blocks in reports, 503/504 at the edge."""

import time

from repro.cgi.environ import CgiEnvironment
from repro.cgi.gateway import Db2WwwProgram
from repro.cgi.request import CgiRequest
from repro.core import parse_macro
from repro.core.engine import EngineConfig, MacroEngine
from repro.core.macrofile import MacroLibrary
from repro.sql.gateway import DatabaseRegistry

FAILING_REPORT = """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT * FROM missing_table %}
%HTML_REPORT{<H1>top</H1>
%EXEC_SQL
<P>after</P>%}
"""


def report_request(path_info: str) -> CgiRequest:
    return CgiRequest(CgiEnvironment(
        request_method="GET",
        script_name="/cgi-bin/db2www",
        path_info=path_info))


def shop_program(registry, config=None) -> Db2WwwProgram:
    library = MacroLibrary()
    library.add_text("shop.d2w", """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items ORDER BY name %}
%HTML_REPORT{<H1>Found</H1>%EXEC_SQL%}
""")
    engine = MacroEngine(registry, config=config)
    return Db2WwwProgram(engine, library)


class TestReportDegradation:
    def test_default_aborts_on_unhandled_error(self, shop_registry):
        engine = MacroEngine(shop_registry)
        result = engine.execute_report(parse_macro(FAILING_REPORT))
        assert result.aborted and not result.ok
        assert result.sql_errors
        assert "after" not in result.html  # exit stopped the page

    def test_degrade_continues_past_unhandled_error(self, shop_registry):
        engine = MacroEngine(shop_registry,
                             config=EngineConfig(degrade_sql_errors=True))
        result = engine.execute_report(parse_macro(FAILING_REPORT))
        assert not result.aborted
        assert result.sql_errors  # the failure is still reported...
        assert "42704" in result.html  # ...as the default error block
        assert "after" in result.html  # and the report carried on

    def test_degrade_honours_explicit_exit_rule(self, shop_registry):
        macro = parse_macro("""
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT * FROM missing_table
%SQL_MESSAGE{
-204 : "<P>gone</P>" : exit
%}
%}
%HTML_REPORT{%EXEC_SQL
<P>after</P>%}
""")
        engine = MacroEngine(shop_registry,
                             config=EngineConfig(degrade_sql_errors=True))
        result = engine.execute_report(macro)
        assert "<P>gone</P>" in result.html
        assert result.aborted  # the author's exit wins over degradation
        assert "after" not in result.html


class TestSqlMessageViaInjector:
    """%SQL_MESSAGE selection driven by injected transient faults."""

    TEXTS = {-911: "<P>deadlocked</P>", -913: "<P>timed out</P>",
             -1040: "<P>busy</P>"}

    def _macro(self, rules: str):
        return parse_macro(f"""
%DEFINE DATABASE = "SHOP"
%SQL{{ SELECT name FROM items
%SQL_MESSAGE{{
{rules}
%}}
%}}
%HTML_REPORT{{%EXEC_SQL
<P>after</P>%}}
""")

    def test_matching_sqlcode_rule_selected(self, shop_registry):
        shop_registry.inject_faults("every:1,seed:5")
        macro = self._macro(
            '-911 : "<P>deadlocked</P>" : continue\n'
            '-913 : "<P>timed out</P>" : continue\n'
            '-1040 : "<P>busy</P>" : continue')
        result = MacroEngine(shop_registry).execute_report(macro)
        assert result.sql_errors
        # the rule matching the injected error's SQLCODE was rendered
        assert self.TEXTS[result.sql_errors[0].sqlcode] in result.html
        assert "after" in result.html  # its continue action honoured

    def test_unmatched_sqlcode_falls_to_default_rule(self, shop_registry):
        shop_registry.inject_faults("every:1,seed:5")
        macro = self._macro(
            '-803 : "<P>dup</P>" : exit\n'
            'default : "<P>fallback $(SQL_STATE)</P>" : continue')
        result = MacroEngine(shop_registry).execute_report(macro)
        assert "<P>dup</P>" not in result.html
        assert "fallback" in result.html
        error = result.sql_errors[0]
        assert error.sqlstate in result.html  # $(SQL_STATE) substituted
        assert "after" in result.html


class TestUnavailabilityAtTheEdge:
    def _down_registry(self, *, threshold=2) -> DatabaseRegistry:
        registry = DatabaseRegistry()
        db = registry.register_memory("SHOP")
        with db.connect() as conn:
            conn.executescript(
                "CREATE TABLE items (name TEXT);"
                "INSERT INTO items VALUES ('bikes');")
        registry.inject_faults("down")
        registry.enable_breakers(failure_threshold=threshold,
                                 reset_timeout=60.0)
        return registry

    def test_breaker_trips_to_503_with_retry_after(self):
        registry = self._down_registry(threshold=2)
        program = shop_program(registry)
        request = report_request("/shop.d2w/report")
        # below the threshold the connect failure degrades into the page
        for _ in range(2):
            assert program.run(request).status == 200
        response = program.run(request)  # breaker now open
        assert response.status == 503
        assert int(response.header("Retry-After")) >= 1
        assert registry.breaker("SHOP").stats()["opens"] == 1

    def test_open_breaker_fails_fast(self):
        registry = self._down_registry(threshold=1)
        program = shop_program(registry)
        request = report_request("/shop.d2w/report")
        program.run(request)  # trips the breaker
        started = time.perf_counter()
        response = program.run(request)
        elapsed = time.perf_counter() - started
        assert response.status == 503
        assert elapsed < 0.05  # the acceptance bar: reject in <50 ms

    def test_sql_message_rule_can_claim_unavailability(self):
        """A macro author may opt unavailability back into the page."""
        registry = self._down_registry(threshold=1)
        library = MacroLibrary()
        library.add_text("shop.d2w", """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items
%SQL_MESSAGE{
-30081 : "<P>backend napping</P>" : continue
%}
%}
%HTML_REPORT{%EXEC_SQL
<P>after</P>%}
""")
        program = Db2WwwProgram(MacroEngine(registry), library)
        request = report_request("/shop.d2w/report")
        program.run(request)  # trips the breaker
        response = program.run(request)  # CircuitOpenError, rule matches
        assert response.status == 200
        assert "backend napping" in response.text
        assert "after" in response.text

    def test_pool_exhaustion_maps_to_503(self, shop_registry):
        shop_registry.configure_pools(size=1, timeout=0.01)
        program = shop_program(shop_registry)
        held = shop_registry.connect("SHOP")  # starve the pool
        try:
            response = program.run(report_request("/shop.d2w/report"))
        finally:
            held.close()
        assert response.status == 503
        assert response.header("Retry-After")

    def test_spent_deadline_maps_to_504(self, shop_registry):
        program = shop_program(
            shop_registry, config=EngineConfig(request_deadline=0.0))
        response = program.run(report_request("/shop.d2w/report"))
        assert response.status == 504
