"""Report generation: the implicit variables of Section 3.2.1."""

import pytest

from repro.apps import paging
from repro.core import parse_macro
from repro.core.engine import EngineConfig, MacroEngine

REPORT_MACRO = """
%DEFINE DATABASE = "SHOP"
%SQL{
SELECT name, price, qty FROM items ORDER BY name
%SQL_REPORT{
cols=$(NLIST);first=$(N1);byname=$(N_price)
%ROW{[#$(ROW_NUM) $(V1)/$(V_price)/$(V3) all=($(VLIST))]
%}
total=$(ROW_NUM)
%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""


@pytest.fixture()
def run(shop_engine):
    def _run(macro_text, inputs=()):
        return shop_engine.execute_report(parse_macro(macro_text),
                                          list(inputs))
    return _run


class TestImplicitVariables:
    def test_column_name_variables(self, run):
        html = run(REPORT_MACRO).html
        assert "cols=name price qty" in html
        assert "first=name" in html
        assert "byname=price" in html

    def test_row_value_variables(self, run):
        html = run(REPORT_MACRO).html
        assert "[#1 bikes/250/4 all=(bikes 250 4)]" in html
        assert "[#2 helmets/45.5/10" in html

    def test_row_num_totals_after_loop(self, run):
        html = run(REPORT_MACRO).html
        assert "total=3" in html

    def test_column_variables_case_insensitive(self, run):
        macro = REPORT_MACRO.replace("$(V_price)", "$(v_PRICE)")
        html = run(macro).html
        assert "[#1 bikes/250/4" in html

    def test_dot_spelling_of_column_variables(self, run):
        macro = REPORT_MACRO.replace("$(V_price)", "$(V.price)")
        assert "[#1 bikes/250/4" in run(macro).html

    def test_null_value_renders_as_empty(self, run):
        macro = """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT NULL AS blank_col, name FROM items WHERE name = 'bikes'
%SQL_REPORT{%ROW{<$(V_blank_col)|$(V_name)>%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""
        assert "<|bikes>" in run(macro).html


class TestRptMaxRows:
    def _macro(self, limit_define: str = "") -> str:
        return f"""
%DEFINE DATABASE = "SHOP"
{limit_define}
%SQL{{
SELECT name FROM items ORDER BY name
%SQL_REPORT{{
%ROW{{<LI>$(V1)
%}}
shown-or-not total=$(ROW_NUM)
%}}
%}}
%HTML_REPORT{{%EXEC_SQL%}}
"""

    def test_limit_from_define(self, run):
        html = run(self._macro('%DEFINE RPT_MAXROWS = "2"')).html
        assert html.count("<LI>") == 2
        assert "total=3" in html  # fetch count unaffected by the limit

    def test_limit_from_client_input(self, run):
        html = run(self._macro(), [("RPT_MAXROWS", "1")]).html
        assert html.count("<LI>") == 1
        assert "total=3" in html

    def test_invalid_limit_ignored(self, run):
        html = run(self._macro('%DEFINE RPT_MAXROWS = "lots"')).html
        assert html.count("<LI>") == 3

    def test_zero_or_negative_means_unlimited(self, run):
        html = run(self._macro('%DEFINE RPT_MAXROWS = "0"')).html
        assert html.count("<LI>") == 3

    def test_limit_applies_to_default_table_too(self, run):
        macro = """
%DEFINE DATABASE = "SHOP"
%DEFINE RPT_MAXROWS = "1"
%SQL{ SELECT name FROM items ORDER BY name %}
%HTML_REPORT{%EXEC_SQL%}
"""
        html = run(macro).html
        assert html.count("<TD>") == 1


class TestReportStructure:
    def test_header_printed_once_before_rows(self, run):
        macro = """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items ORDER BY name
%SQL_REPORT{HEADER %ROW{($(V1))%} FOOTER%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""
        html = run(macro).html
        assert html.count("HEADER") == 1
        assert html.count("FOOTER") == 1
        assert html.index("HEADER") < html.index("(bikes)") \
            < html.index("FOOTER")

    def test_empty_result_prints_header_and_footer_only(self, run):
        macro = """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items WHERE name = 'nothing'
%SQL_REPORT{H %ROW{never%} F rows=$(ROW_NUM)%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""
        html = run(macro).html
        assert "never" not in html
        assert "rows=0" in html

    def test_report_block_without_row_block(self, run):
        macro = """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items
%SQL_REPORT{only header, rows ignored%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""
        html = run(macro).html
        assert "only header" in html
        assert "bikes" not in html

    def test_report_variables_visible_after_exec_sql(self, run):
        # "After all rows have been fetched ... ROW_NUM contains the
        # total number of rows" — also later in the report section.
        macro = """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items %SQL_REPORT{%ROW{.%}%} %}
%HTML_REPORT{%EXEC_SQL afterwards: $(ROW_NUM) rows%}
"""
        assert "afterwards: 3 rows" in run(macro).html


class TestDefaultTableFormat:
    def test_values_escaped_in_default_table(self, shop_registry):
        engine = MacroEngine(shop_registry)
        conn = shop_registry.connect("SHOP")
        conn.execute(
            "INSERT INTO items VALUES ('<b>bold</b>', 1.0, 1)")
        conn.close()
        macro = parse_macro("""
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items WHERE price = 1.0 %}
%HTML_REPORT{%EXEC_SQL%}
""")
        html = engine.execute_report(macro).html
        assert "&lt;b&gt;bold&lt;/b&gt;" in html
        assert "<b>bold</b>" not in html

    def test_custom_report_values_raw_by_default(self, run):
        # Faithful 1996 behaviour: Figure 8 substitutes a URL into HREF.
        macro = """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items WHERE name='bikes'
%SQL_REPORT{%ROW{<A HREF="/buy/$(V1)">$(V1)</A>%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""
        assert '<A HREF="/buy/bikes">bikes</A>' in run(macro).html

    def test_escape_report_values_option(self, shop_registry):
        engine = MacroEngine(shop_registry, config=EngineConfig(
            escape_report_values=True))
        conn = shop_registry.connect("SHOP")
        conn.execute(
            "INSERT INTO items VALUES ('<script>x</script>', 2.0, 1)")
        conn.close()
        macro = parse_macro("""
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items WHERE price = 2.0
%SQL_REPORT{%ROW{cell: $(V1)%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        html = engine.execute_report(macro).html
        assert "&lt;script&gt;" in html


class TestStartRowNum:
    """START_ROW_NUM: the scrollable-cursor extension (see DESIGN.md)."""

    def _macro(self, defines: str) -> str:
        return f"""
%DEFINE DATABASE = "SHOP"
{defines}
%SQL{{
SELECT name FROM items ORDER BY name
%SQL_REPORT{{%ROW{{<LI>$(ROW_NUM):$(V1)
%}}total=$(ROW_NUM)%}}
%}}
%HTML_REPORT{{%EXEC_SQL%}}
"""

    def test_start_skips_leading_rows(self, run):
        html = run(self._macro('%DEFINE START_ROW_NUM = "2"')).html
        assert "<LI>1:" not in html
        assert "<LI>2:helmets" in html
        assert "<LI>3:tents" in html

    def test_start_plus_limit_windows(self, run):
        html = run(self._macro(
            '%DEFINE START_ROW_NUM = "2"\n%DEFINE RPT_MAXROWS = "1"')
        ).html
        assert html.count("<LI>") == 1
        assert "<LI>2:helmets" in html
        assert "total=3" in html  # ROW_NUM still counts everything

    def test_start_from_client_input(self, run):
        html = run(self._macro(""), [("START_ROW_NUM", "3")]).html
        assert html.count("<LI>") == 1
        assert "<LI>3:tents" in html

    def test_start_beyond_result_prints_nothing(self, run):
        html = run(self._macro('%DEFINE START_ROW_NUM = "99"')).html
        assert html.count("<LI>") == 0
        assert "total=3" in html

    def test_invalid_start_ignored(self, run):
        html = run(self._macro('%DEFINE START_ROW_NUM = "zero"')).html
        assert html.count("<LI>") == 3

    def test_window_applies_to_default_table(self, run):
        macro = """
%DEFINE DATABASE = "SHOP"
%DEFINE START_ROW_NUM = "2"
%DEFINE RPT_MAXROWS = "1"
%SQL{ SELECT name FROM items ORDER BY name %}
%HTML_REPORT{%EXEC_SQL%}
"""
        html = run(macro).html
        assert html.count("<TD>") == 1
        assert "<TD>helmets</TD>" in html


class TestWindowSettingSpellings:
    """A window setting is ASCII decimal digits, optionally padded with
    whitespace; every other spelling ``int()`` would take is "unset"."""

    @pytest.fixture(scope="class")
    def browse(self):
        """``apps/paging.py`` over 25 rows (its own page size is 10)."""
        app = paging.install(rows=25)
        macro = app.library.load(app.macro_name)

        def _browse(*pairs):
            return app.engine.execute_report(macro, list(pairs)).html
        return _browse

    @pytest.mark.parametrize("raw", [
        "1_0", "\u0663", "\uff13", "+3", "-3", "3.0", "0x3", "3e0", "3 3"])
    def test_python_only_limit_spellings_are_unset(self, browse, raw):
        assert browse(("RPT_MAXROWS", raw)).count("<LI>") == 25

    @pytest.mark.parametrize("raw", ["+2", "1_1", "\u0662"])
    def test_python_only_start_spellings_are_unset(self, browse, raw):
        html = browse(("START_ROW_NUM", raw))
        assert "<LI>#1 " in html and html.count("<LI>") == 10

    @pytest.mark.parametrize("raw", ["3", " 3 ", "\t3\n", "003"])
    def test_plain_and_padded_digits_still_cap(self, browse, raw):
        html = browse(("RPT_MAXROWS", raw))
        assert html.count("<LI>") == 3 and "<LI>#3 " in html

    def test_huge_digit_strings_are_unset_not_errors(self, browse):
        assert browse(("RPT_MAXROWS", "9" * 5000)).count("<LI>") == 25

    def test_paging_links_still_page(self, browse):
        """The Next/Previous links carry plain digits, which still parse."""
        first = browse()
        assert 'START_ROW_NUM=11">Next page</A>' in first
        assert "Previous page" not in first
        second = browse(("START_ROW_NUM", "11"))
        assert "<LI>#11 " in second and "<LI>#20 " in second
        assert "<LI>#10 " not in second and "<LI>#21 " not in second
        assert 'START_ROW_NUM=21">Next page</A>' in second
        assert 'START_ROW_NUM=1">Previous page</A>' in second
