"""Specialised %ROW rendering must be indistinguishable from interpreted.

Three layers of guarantees (the generated differential oracle lives in
``test_compiled_oracle.py``):

* unit: ``specialise_row`` resolves every reference exactly as
  ``VariableStore.lookup`` would during the section's row loop — row
  slot, section constant, inlined ``%DEFINE``/client entry or null —
  and refuses only what cannot be made row-pure;
* end-to-end: rendering a macro with ``compiled_reports=True`` (the
  default) is byte-identical to ``compiled_reports=False`` across the
  Appendix A application, the examples-style macros, and crafted edge
  cases (case-insensitive forms, duplicate columns, stale system
  variables from earlier sections, user variables in the row);
* named cases that pin *which* loop ran: Appendix A and the order wizard
  leave the per-row interpreter, an executable variable or a cycle in
  the row keeps it.
"""

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps import wizard as wizard_app
from repro.core import compiled as compiled_mod
from repro.core.compiled import NotRowPure, specialise_row
from repro.core.engine import EngineConfig, MacroEngine
from repro.core.execvars import RegistryExecRunner
from repro.core.parser import parse_macro
from repro.core.report import LIST_CONCAT_SEPARATOR, ReportGenerator
from repro.core.substitution import Evaluator
from repro.core.values import ValueString
from repro.core.variables import VariableStore
from repro.errors import CircularReferenceError
from repro.obs.trace import TRACER
from repro.sql.gateway import DatabaseRegistry, ExecutionResult


def test_list_separator_matches_report_module():
    assert compiled_mod.LIST_CONCAT_SEPARATOR == LIST_CONCAT_SEPARATOR


# ----------------------------------------------------------------------
# Unit: resolution
# ----------------------------------------------------------------------

COLUMNS = ("id", "Name", "price")
ROW = (7, "ann", 2.5)


def section_store(columns=COLUMNS, defines="", inputs=(), stale=()):
    """A store as the row loop finds it: client inputs, ``%DEFINE``s,
    leftovers of an earlier section, this section's column names."""
    store = VariableStore()
    store.set_client_inputs(list(inputs))
    if defines:
        for section in parse_macro(
                "%DEFINE{\n" + defines + "\n%}").sections:
            store.apply_section(section)
    for name, value in stale:
        store.set_system(name, value)
    ReportGenerator(store, Evaluator(store))._install_column_names(
        ExecutionResult(sql="", columns=list(columns), is_query=True))
    return store


def rendered(text, row=ROW, row_num=3, columns=COLUMNS, **store_kwargs):
    """Specialise ``text`` and render one row through the plan."""
    render = specialise_row(ValueString.parse(text), columns,
                            section_store(columns, **store_kwargs))
    return render(row, row_num)


class TestClassification:
    """``falls_back`` in these names used to mean "the whole template
    goes to the interpreter"; now it means "not a row slot — the store
    answers instead" (a constant, an inlined entry or null)."""

    def test_positional_and_named_forms_compile(self):
        assert rendered("$(V1) $(V2) $(V3)") == "7 ann 2.5"
        assert rendered("$(V_id) $(V.Name) $(N_price)") == "7 ann price"
        assert rendered("$(ROW_NUM) $(VLIST) $(NLIST) $(N1)") == \
            "3 7 ann 2.5 id Name price id"

    def test_case_insensitive_forms_compile(self):
        assert rendered("$(V_NAME) $(v_name) $(V.PRICE)") == "ann ann 2.5"

    def test_escapes_and_literals_compile(self):
        assert rendered("x $$(hidden) 100% y") == "x $(hidden) 100% y"

    def test_user_variable_falls_back(self):
        """The Appendix A shape: a conditional over a row slot inlines."""
        assert rendered("$(V1) $(D2)", defines='D2 = ? "<BR>$(V2)"') == \
            "7 <BR>ann"
        assert rendered("$(V1) $(D2)", row=(7, None, 2.5),
                        defines='D2 = ? "<BR>$(V2)"') == "7 "
        assert rendered("$(V1) $(D2)") == "7 "  # undefined is null

    def test_out_of_range_index_falls_back(self):
        assert rendered("[$(V4)|$(N0)]") == "[|]"
        # ...or to whatever an earlier, wider section left behind.
        assert rendered("[$(V4)]", stale=[("V4", "old")]) == "[old]"

    def test_zero_padded_index_falls_back(self):
        # The store installs V1, not V01; V01 may be a user variable.
        assert rendered("$(V01)") == ""
        assert rendered("$(V01)", defines='V01 = "mine:$(V1)"') == "mine:7"

    def test_unknown_column_falls_back(self):
        assert rendered("$(V_total)") == ""
        assert rendered("$(V_total)", inputs=[("V_total", "9")]) == "9"

    def test_lowercase_positional_falls_back(self):
        # V1 is installed case-sensitively; $(v1) is a user variable.
        assert rendered("$(v1)") == ""
        assert rendered("$(v1)", defines='v1 = "u"') == "u"

    def test_rowcount_falls_back(self):
        # ROWCOUNT is only set after the row loop: while rows print it
        # is null, or an earlier section's count.
        assert rendered("$(ROWCOUNT)") == ""
        assert rendered("$(ROWCOUNT)", stale=[("ROWCOUNT", "12")]) == "12"

    def test_render_by_index(self):
        assert rendered("[$(V1)|$(V_Name)|$(ROW_NUM)|$(VLIST)]") == \
            "[7|ann|3|7 ann 2.5]"

    def test_duplicate_column_last_wins(self):
        assert rendered("$(V_x)", row=("first", "mid", "last"),
                        columns=("x", "y", "x")) == "last"

    def test_stale_exact_spelling_shadows_the_folded_slot(self):
        assert rendered("$(V_name)") == "ann"
        assert rendered("$(V_name)", stale=[("V_name", "old")]) == "old"
        # ...but not a spelling this section installs itself.
        assert rendered("$(V_Name)", stale=[("V_Name", "old")]) == "ann"

    def test_conditional_forms_and_lists_inline(self):
        defines = """
            %LIST "$(sep)" cells
            cells = "$(V1)"
            cells = V2 ? "<$(V2)>"
            cells = ? "$(V3)$(nothing)"
            cells = nothing ? "never" : "else:$(ROW_NUM)"
            sep = V2 ? "; " : " / "
        """
        assert rendered("$(cells)", defines=defines) == "7; <ann>; else:3"
        assert rendered("$(cells)", row=(7, "", 2.5), defines=defines) == \
            "7 / else:3"

    def test_section_constant_row_needs_no_row(self):
        assert rendered("$(title) $(N1)", row=(), row_num=0,
                        inputs=[("title", "all of $(NLIST)")]) == \
            "all of id Name price id"

    def test_client_value_can_name_a_row_slot(self):
        assert rendered("$(pick)", inputs=[("pick", "$(V_name)!")]) == \
            "ann!"

    def test_untouched_columns_are_not_converted(self):
        class Explosive:
            def __str__(self):
                raise AssertionError("converted an unreferenced column")
        assert rendered("$(V1)", row=(7, Explosive(), Explosive())) == "7"

    def test_exec_variable_is_refused(self):
        for text, defines in [
                ("$(now)", 'now = %EXEC "today"'),
                ("$(D)", 'now = %EXEC "today"\nD = now ? "late"'),
                ("$(D)", 'now = %EXEC "today"\nD = ? "$(V9)$(now)"')]:
            with pytest.raises(NotRowPure) as refusal:
                rendered(text, defines=defines)
            assert refusal.value.reason == "exec"

    def test_cycle_is_refused_only_when_reachable(self):
        with pytest.raises(NotRowPure) as refusal:
            rendered("$(a)", defines='a = "$(b)"\nb = V1 ? "$(a)"')
        assert refusal.value.reason == "cycle"
        # A constant test never takes the cyclic (or executable) branch,
        # and neither would the interpreter.
        assert rendered(
            "$(a)", defines='a = nothing ? "$(a)" : "safe $(V1)"') == \
            "safe 7"
        assert rendered(
            "$(a)", defines='now = %EXEC "today"\n'
            'a = N1 ? "safe $(V1)" : "$(now)"') == "safe 7"


# ----------------------------------------------------------------------
# End-to-end byte identity
# ----------------------------------------------------------------------


@pytest.fixture()
def registry():
    reg = DatabaseRegistry()
    db = reg.register_memory("SHOP")
    with db.connect() as conn:
        conn.executescript("""
            CREATE TABLE items (id INTEGER, Name TEXT, price REAL);
            INSERT INTO items VALUES
                (1, 'anvil', 9.5),
                (2, 'rope & <hook>', 3.25),
                (3, 'x''y "q"', 0.0),
                (4, NULL, 12.75);
        """)
    return reg


def both_ways(registry, macro_text, inputs=(), escape=False):
    """Render with compiled templates on and off; return both htmls."""
    macro = parse_macro(macro_text)
    on = MacroEngine(registry, config=EngineConfig(
        escape_report_values=escape))
    off = MacroEngine(registry, config=EngineConfig(
        escape_report_values=escape, compiled_reports=False))
    html_on = on.execute_report(macro, list(inputs)).html
    html_off = off.execute_report(macro, list(inputs)).html
    return html_on, html_off


HEADER = '%DEFINE DATABASE = "SHOP"\n'


class TestByteIdentity:
    def test_implicit_only_template(self, registry):
        on, off = both_ways(registry, HEADER + """
%SQL{ SELECT id, Name, price FROM items ORDER BY id
%SQL_REPORT{<TABLE>
%ROW{<TR><TD>$(ROW_NUM)</TD><TD>$(V1)</TD><TD>$(V_Name)</TD>
<TD>$(V.price)</TD><TD>$(VLIST)</TD></TR>
%}</TABLE><P>$(ROW_NUM) of $(ROWCOUNT)</P>
%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        assert on == off
        assert "anvil" in on and "rope & <hook>" in on

    def test_escaped_values_mode(self, registry):
        on, off = both_ways(registry, HEADER + """
%SQL{ SELECT Name FROM items ORDER BY id
%SQL_REPORT{%ROW{<P>$(V1) / $(VLIST)</P>
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""", escape=True)
        assert on == off
        assert "&lt;hook&gt;" in on

    def test_case_insensitive_references(self, registry):
        on, off = both_ways(registry, HEADER + """
%SQL{ SELECT id, Name FROM items ORDER BY id
%SQL_REPORT{%ROW{$(V_ID)=$(v_name)|$(N_NAME)
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        assert on == off

    def test_user_variable_in_row_is_identical(self, registry):
        on, off = both_ways(registry, HEADER + """
%DEFINE note = "N:$(V1)"
%SQL{ SELECT id, Name FROM items ORDER BY id
%SQL_REPORT{%ROW{$(note) $(V2)
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        assert on == off
        assert "N:1" in on  # lazy: note re-evaluates per row

    def test_rpt_maxrows_and_start_row(self, registry):
        on, off = both_ways(registry, HEADER + """
%DEFINE RPT_MAXROWS = "2"
%DEFINE START_ROW_NUM = "2"
%SQL{ SELECT id FROM items ORDER BY id
%SQL_REPORT{%ROW{[$(ROW_NUM):$(V1)]
%}<P>total $(ROW_NUM)</P>
%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        assert on == off
        assert "[2:2]" in on and "[3:3]" in on and "[1:1]" not in on
        assert "total 4" in on

    def test_stale_exact_shadow_from_earlier_section(self, registry):
        """Section 1 retrieves column ``qty`` (installing exact V_qty);
        section 2 has column ``QTY`` only.  The interpreted lookup of
        ``$(V_qty)`` in section 2 sees section 1's stale exact system
        variable — the specialiser must resolve it to that constant,
        not to this section's case-insensitive ``QTY`` slot."""
        on, off = both_ways(registry, HEADER + """
%SQL(first){ SELECT id AS qty FROM items WHERE id = 1
%SQL_REPORT{%ROW{a=$(V_qty)
%}%}
%}
%SQL(second){ SELECT id * 10 AS QTY FROM items WHERE id = 2
%SQL_REPORT{%ROW{b=$(V_qty)
%}%}
%}
%HTML_REPORT{%EXEC_SQL(first)%EXEC_SQL(second)%}
""")
        assert on == off
        # The stale exact spelling wins in section 2: still "1", not 20.
        assert "a=1" in on and "b=1" in on

    def test_footer_sees_last_row_state(self, registry):
        on, off = both_ways(registry, HEADER + """
%SQL{ SELECT id, Name FROM items ORDER BY id
%SQL_REPORT{%ROW{.%}last=$(V1)/$(V_Name) vl=[$(VLIST)]
%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        assert on == off
        assert "last=4/" in on

    def test_later_section_sees_installed_values(self, registry):
        """System variables installed by one section leak into the next
        (paper behaviour); compiled rendering must leave identical
        state."""
        on, off = both_ways(registry, HEADER + """
%SQL(a){ SELECT id FROM items ORDER BY id
%SQL_REPORT{%ROW{%}%}
%}
%SQL(b){ SELECT Name FROM items WHERE id = $(V1)
%SQL_REPORT{%ROW{got $(V1)
%}%}
%}
%HTML_REPORT{%EXEC_SQL(a)%EXEC_SQL(b)%}
""")
        assert on == off
        assert "got " in on

    def test_zero_rows(self, registry):
        on, off = both_ways(registry, HEADER + """
%SQL{ SELECT id, Name FROM items WHERE id > 999
%SQL_REPORT{head %ROW{$(V1)%}tail $(ROW_NUM)
%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        assert on == off
        assert "tail 0" in on

    def test_default_table_format(self, registry):
        on, off = both_ways(registry, HEADER + """
%SQL{ SELECT id, Name, price FROM items ORDER BY id %}
%HTML_REPORT{%EXEC_SQL%}
""")
        assert on == off
        assert "<TABLE BORDER=1>" in on and "&lt;hook&gt;" in on

    def test_default_table_with_maxrows(self, registry):
        on, off = both_ways(registry, HEADER + """
%DEFINE RPT_MAXROWS = "1"
%SQL{ SELECT id FROM items ORDER BY id %}
%HTML_REPORT{%EXEC_SQL <P>$(ROW_NUM)</P>%}
""")
        assert on == off
        assert on.count("<TD>") == 1
        assert "<P>4</P>" in on


class TestAppendixAApplication:
    """The paper's complete worked example, both macro modes."""

    @pytest.mark.parametrize("inputs", [
        urlquery_app.FIGURE3_BINDINGS,
        [("SEARCH", "ib"), ("USE_URL", "yes"), ("USE_TITLE", "yes"),
         ("DBFIELDS", "title")],
        [("SEARCH", ""), ("DBFIELDS", "title"),
         ("DBFIELDS", "description"), ("SHOWSQL", "YES")],
    ])
    def test_report_byte_identical(self, inputs):
        app_on = urlquery_app.install(rows=40)
        html_on = app_on.engine.execute_report(
            app_on.library.load(app_on.macro_name), list(inputs)).html

        app_off = urlquery_app.install(
            rows=40, engine=MacroEngine(
                None, config=EngineConfig(compiled_reports=False)))
        html_off = app_off.engine.execute_report(
            app_off.library.load(app_off.macro_name), list(inputs)).html
        assert html_on == html_off


# ----------------------------------------------------------------------
# Named cases: which loop ran
# ----------------------------------------------------------------------


def traced_report(engine, macro, inputs, *, stream=False):
    """Run one report under the tracer: ``(html, report.render spans)``."""
    roots = []
    TRACER.enable()
    TRACER.add_sink(roots.append)
    try:
        with TRACER.span("request"):
            if stream:
                html = "".join(engine.execute_report_stream(
                    macro, list(inputs)).chunks)
            else:
                html = engine.execute_report(macro, list(inputs)).html
    finally:
        TRACER.disable()
        TRACER.clear_sinks()
    (root,) = roots
    return html, [span for span in root.walk()
                  if span.name == "report.render"]


def row_paths(engine, macro, inputs, **kwargs):
    return [span.attrs.get("row_path")
            for span in traced_report(engine, macro, inputs, **kwargs)[1]]


@pytest.fixture()
def row_spy(monkeypatch):
    """Counts the per-row interpreter's work: ``_install_row`` calls and
    ``%ROW`` templates handed to ``Evaluator.evaluate`` (told apart from
    headers, footers and page text by how the rows used here begin)."""
    calls = {"install_row": 0, "row_evaluations": 0}
    install_row = ReportGenerator._install_row
    evaluate = Evaluator.evaluate

    def counting_install(self, *args):
        calls["install_row"] += 1
        return install_row(self, *args)

    def counting_evaluate(self, value):
        if value.raw.lstrip().startswith(("<LI>", "<P>")):
            calls["row_evaluations"] += 1
        return evaluate(self, value)

    monkeypatch.setattr(ReportGenerator, "_install_row", counting_install)
    monkeypatch.setattr(Evaluator, "evaluate", counting_evaluate)
    return calls


#: The four request shapes the ``report_large`` benchmark workload sends.
REPORT_LARGE_SHAPES = [
    [("DBFIELDS", "title")],
    [("DBFIELDS", "description")],
    [("DBFIELDS", "title"), ("DBFIELDS", "description")],
    [("DBFIELDS", "title"), ("DBFIELDS", "description"),
     ("SHOWSQL", "YES")],
]


class TestAppendixALeavesTheInterpreter:
    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize(
        "inputs", REPORT_LARGE_SHAPES + [urlquery_app.FIGURE3_BINDINGS])
    def test_no_per_row_evaluator_work(self, inputs, stream, row_spy):
        app = urlquery_app.install(rows=40)
        macro = app.library.load(app.macro_name)
        html, (span,) = traced_report(app.engine, macro, inputs,
                                      stream=stream)
        assert span.attrs["row_path"] == "compiled"
        assert span.attrs["rows"] == html.count("<LI> <A HREF=") > 1
        # One install: the last fetched row, for the footer's benefit.
        assert row_spy == {"install_row": 1, "row_evaluations": 0}

        oracle = urlquery_app.install(rows=40, engine=MacroEngine(
            None, config=EngineConfig(compiled_reports=False)))
        expected, (span,) = traced_report(oracle.engine, macro, inputs,
                                          stream=stream)
        assert html == expected
        assert span.attrs["row_path"] == "interpreted:disabled"
        assert row_spy["install_row"] == 1 + span.attrs["rows"]
        assert row_spy["row_evaluations"] == span.attrs["rows"]


class TestWizardRows:
    """``apps/wizard.py``'s confirm page: client values in the row."""

    ORDER = [("wiz_cust", "10100"), ("wiz_prod", "bikes"),
             ("wiz_qty", "2")]

    def confirm(self, inputs, *, compiled):
        app = wizard_app.install()
        app.engine.config = EngineConfig(compiled_reports=compiled)
        macro = app.library.load("wizard_confirm.d2w")
        return traced_report(app.engine, macro, inputs)

    def both(self, inputs):
        (html, spans), (expected, _) = (
            self.confirm(inputs, compiled=True),
            self.confirm(inputs, compiled=False))
        assert html == expected
        return html, [span.attrs.get("row_path") for span in spans]

    def test_client_values_specialise(self):
        html, paths = self.both(self.ORDER)
        assert "(id 10100)" in html and "2 unit(s)" in html
        # customer_line, product_line; the INSERT has no %ROW to run.
        assert paths == ["compiled", "compiled", None]

    def test_client_value_naming_a_row_variable(self):
        """``wiz_qty=$(V_product_name)`` is parsed into a reference, so
        the client's value changes from row to row."""
        html, paths = self.both(
            self.ORDER[:2] + [("wiz_qty", "$(V_product_name)")])
        assert "Product: bikes, bikes unit(s)." in html
        assert paths[:2] == ["compiled", "compiled"]
        # The issue's spelling: $(V_name) is null when the first
        # statement is built, which then fails identically both ways.
        html, paths = self.both([("wiz_cust", "$(V_name)")] + self.ORDER[1:])
        assert "Customer:" not in html and paths == []

    def test_client_value_naming_itself(self):
        """``wiz_qty=$(wiz_qty)``: the customer line still specialises,
        the product line keeps the interpreter, which raises the same
        error at the same row."""
        inputs = self.ORDER[:2] + [("wiz_qty", "$(wiz_qty)")]
        errors = []
        for compiled in (True, False):
            with pytest.raises(CircularReferenceError) as error:
                self.confirm(inputs, compiled=compiled)
            errors.append(str(error.value))
        assert errors[0] == errors[1] and "wiz_qty" in errors[0]
        # ...and with the cycle in the statement itself, no row runs.
        for compiled in (True, False):
            with pytest.raises(CircularReferenceError):
                self.confirm([("wiz_cust", "$(wiz_cust)")] + self.ORDER[1:],
                             compiled=compiled)


EXEC_MACRO = HEADER + """
%DEFINE stamp = %EXEC "stamp $(V1)"
%DEFINE RPT_MAXROWS = "2"
%DEFINE START_ROW_NUM = "2"
%SQL{ SELECT id FROM items ORDER BY id
%SQL_REPORT{%ROW{<P>$(V1): $(stamp)</P>
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""


class TestInterpretedFallbacks:
    def stamping_engine(self, registry, **config):
        runner = RegistryExecRunner()
        runs = []
        runner.register("stamp", lambda args: runs.append(args) or "ok")
        return MacroEngine(registry, config=EngineConfig(**config),
                           exec_runner=runner), runs

    @pytest.mark.parametrize("stream", [False, True])
    def test_exec_variable_runs_once_per_printed_row(self, registry, stream):
        macro = parse_macro(EXEC_MACRO)
        engine, runs = self.stamping_engine(registry)
        html, (span,) = traced_report(engine, macro, [], stream=stream)
        assert span.attrs["row_path"] == "interpreted:exec"
        assert span.attrs["rows"] == 4
        # Rows 2 and 3 print; rows 1 and 4 never run the command.
        assert runs == [["2"], ["3"]]
        oracle, oracle_runs = self.stamping_engine(
            registry, compiled_reports=False)
        assert traced_report(oracle, macro, [], stream=stream)[0] == html
        assert oracle_runs == runs

    def test_cycle_raises_at_the_row_that_reaches_it(self, registry,
                                                     row_spy):
        """``pool`` only reaches the cycle for a NULL name: rows 1-3
        print, row 4 raises — from the interpreter, on both paths."""
        macro = parse_macro(HEADER + """
%DEFINE loop = "$(pool)"
%DEFINE pool = V2 ? "ok" : "$(loop)"
%SQL{ SELECT id, Name FROM items ORDER BY id
%SQL_REPORT{%ROW{<P>$(V1) $(pool)</P>
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        messages = []
        for compiled in (True, False):
            engine = MacroEngine(registry, config=EngineConfig(
                compiled_reports=compiled))
            row_spy.update(install_row=0, row_evaluations=0)
            with pytest.raises(CircularReferenceError) as error:
                engine.execute_report(macro, [])
            messages.append(str(error.value))
            assert row_spy == {"install_row": 4, "row_evaluations": 4}
        assert messages[0] == messages[1]

    def test_cycle_path_is_reported(self, registry):
        macro = parse_macro(HEADER + """
%DEFINE loop = V9 ? "$(loop)"
%SQL{ SELECT id FROM items ORDER BY id
%SQL_REPORT{%ROW{<P>$(V1)$(loop)</P>
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        # V9 is null at specialisation time: the branch is dead, as it
        # is for the interpreter, so nothing falls back...
        assert row_paths(MacroEngine(registry), macro, []) == ["compiled"]
        # ...until an earlier, wider section leaves a V9 behind.
        macro = parse_macro(HEADER + """
%DEFINE loop = V2 ? "$(loop)" : "fine"
%SQL{ SELECT id, NULL FROM items ORDER BY id
%SQL_REPORT{%ROW{<P>$(V1)$(loop)</P>
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")
        html, (span,) = traced_report(MacroEngine(registry), macro, [])
        assert span.attrs["row_path"] == "interpreted:cycle"
        assert html.count("fine") == 4  # reachable, never reached

    def test_default_table_path_is_reported(self, registry):
        macro = parse_macro(HEADER + """
%SQL{ SELECT id FROM items %}
%HTML_REPORT{%EXEC_SQL%}
""")
        assert row_paths(MacroEngine(registry), macro, []) == \
            ["default-table"]

    def test_zero_rows_evaluate_and_raise_nothing(self, registry, row_spy):
        """No row prints, so neither an executable variable nor a cycle
        in the row may be noticed — by either path."""
        macro = parse_macro(HEADER + """
%DEFINE stamp = %EXEC "stamp $(V1)"
%DEFINE loop = "$(loop)"
%SQL(execs){ SELECT id FROM items WHERE id > 999
%SQL_REPORT{[%ROW{<P>$(stamp)</P>%}$(ROW_NUM)]%}
%}
%SQL(loops){ SELECT id FROM items WHERE id > 999
%SQL_REPORT{[%ROW{<P>$(loop)</P>%}$(ROW_NUM)]%}
%}
%SQL(window){ SELECT id FROM items
%SQL_REPORT{[%ROW{<P>$(loop)</P>%}$(ROW_NUM)]%}
%}
%HTML_REPORT{%EXEC_SQL(execs)%EXEC_SQL(loops)%EXEC_SQL(window)%}
""")
        inputs = [("START_ROW_NUM", "9")]
        engine, runs = self.stamping_engine(registry)
        html, spans = traced_report(engine, macro, inputs)
        assert html.replace("\n", "") == "[0][0][4]"
        assert [span.attrs["row_path"] for span in spans] == [
            "interpreted:exec", "interpreted:cycle", "interpreted:cycle"]
        assert runs == [] and row_spy["row_evaluations"] == 0
        oracle, _ = self.stamping_engine(registry, compiled_reports=False)
        assert oracle.execute_report(macro, inputs).html == html
