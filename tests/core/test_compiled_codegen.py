"""The generated ``%ROW`` code: two invariants and a cost guard.

``core/compiled.py`` turns a row plan into Python source and ``exec``s
it.  What makes that safe, and the module memo sound, is that **no data
ever becomes source** — so every source text the memo has compiled must
match the small fixed grammar below, whatever the macro, the client or
the database said, and client text must not be able to grow the memo
without bound.  The cost guards pin what the compiled path buys in
counts, which have no noise band (``sys.setprofile`` "call" events,
identical from run to run): one Python call per printed row, rows that
climb the generator chain as one chunk rather than one per row, none at
all for a cached result rendered before, a reused row plan's few guard
checks, and the whole engine path of a cached ``report_hot`` request.
"""

import gc
import re
import sys
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.apps import urlquery as urlquery_app
from repro.core import ast, compiled
from repro.core.engine import EngineConfig, MacroEngine
from repro.core.parser import parse_macro
from repro.core.report import ReportGenerator
from repro.core.substitution import Evaluator
from repro.core.values import ValueString
from repro.core.variables import VariableStore
from repro.sql.gateway import ExecutionResult
from repro.sql.querycache import QueryResultCache

# ----------------------------------------------------------------------
# (i) No data in source; the memo is bounded
# ----------------------------------------------------------------------

NAME = r"(?:k\d+|v\d+)"
LOCAL = r"v\d+"
JOINED = rf'f"(?:\{{{NAME}\}})+"'
EXPRESSION = "|".join([
    JOINED,
    rf'"" if {LOCAL} == ""(?: or {LOCAL} == "")* else {JOINED}',
    rf'{NAME} if {LOCAL} != "" else {NAME}',
    rf"{NAME}\.join\(filter\(None, \((?:{NAME}, )*\)\)\)",
    rf"{NAME}\.join\(\((?:{LOCAL}, )*\)\)",
])
STATEMENT = "|".join([
    rf"{LOCAL} = row\[\d+\]",
    rf"if type\({LOCAL}\) is not str:",
    rf"    {LOCAL} = text\({LOCAL}\)",
    rf"{LOCAL} = escape\({LOCAL}\)",
    rf"{LOCAL} = str\(row_num\)",
    rf"{LOCAL} = (?:{EXPRESSION})",
    rf"return {LOCAL}",
])
#: Everything a generated factory may say: positions and fixed syntax.
SOURCE = re.compile(
    r"def factory\((?:k\d+, )*text, escape\):\n"
    r"    def render\(row, row_num\):\n"
    rf"(?:        (?:{STATEMENT})\n)+"
    r"    return render\n")

#: Text that would change the program if it ever reached the source.
nasty = st.text(alphabet=st.sampled_from(list("\"'\\{}%s\n$()kv0;# ")),
                max_size=8)
ROW_NAMES = ["V1", "V2", "V_b", "ROW_NUM", "VLIST", "typed", "nope"]
DEFINED = ["simple", "tested", "strict", "listed"]


def values(names):
    reference = st.sampled_from(names).map(lambda name: f"$({name})")
    return st.lists(st.one_of(nasty, reference), max_size=5).map(
        lambda pieces: ValueString.parse("".join(pieces)))


value = values(ROW_NAMES)  # what a %DEFINE says: no cycles to refuse


def rendered_both_ways(template, defines, typed, escape):
    """One section through the compiled loop and the interpreter."""
    section = ast.SqlSection(
        ValueString.literal(""), report=ast.SqlReportBlock(
            ValueString.literal("["), ast.RowBlock(template),
            ValueString.literal("]")))
    pages = []
    for compile_templates in (True, False):
        store = VariableStore()
        store.set_client_inputs([("typed", typed)])
        store.apply_section(ast.DefineSection(tuple(defines)))
        result = ExecutionResult(
            sql="", columns=["a", "b"], is_query=True,
            rows=[("x", None), ('"{k0}', 2), ("\\", "$(V1)")])
        pages.append(ReportGenerator(
            store, Evaluator(store), escape_values=escape,
            compile_templates=compile_templates).render(section, result))
    return pages


@settings(max_examples=150, deadline=None)
@given(template=values(ROW_NAMES + DEFINED), simple=value, then=value,
       otherwise=value, strict=value, separator=value, element=value,
       typed=nasty, escape=st.booleans())
def test_generated_source_is_positions_and_fixed_syntax(
        template, simple, then, otherwise, strict, separator, element,
        typed, escape):
    compiled._FACTORIES.clear()
    defines = [
        ast.SimpleAssignment("simple", simple),
        ast.ConditionalAssignment("tested", then, test_name="V2",
                                  else_value=otherwise),
        ast.ConditionalAssignment("strict", strict),
        ast.ListDeclaration("listed", separator),
        ast.SimpleAssignment("listed", element),
        ast.ConditionalAssignment("listed", then, test_name="V1"),
    ]
    on, off = rendered_both_ways(template, defines, typed, escape)
    assert on == off
    for factory in compiled._FACTORIES.values():
        assert SOURCE.fullmatch(factory.source), factory.source


def test_the_grammar_has_teeth():
    good = ("def factory(k0, text, escape):\n"
            "    def render(row, row_num):\n"
            "        v0 = row[0]\n"
            '        v2 = f"{k0}{v0}"\n'
            "        return v2\n"
            "    return render\n")
    assert SOURCE.fullmatch(good)
    for data_in_source in ('f"<LI>{v0}"', 'f"{k0}{v0!r}"', "k0 + v0",
                           'f"{k0}{__import__}"', '"x"'):
        assert not SOURCE.fullmatch(good.replace('f"{k0}{v0}"',
                                                 data_in_source))


CLIENT_ROW_MACRO = parse_macro("""
%DEFINE DATABASE = "URLDB"
%SQL{ SELECT url, title FROM urldb ORDER BY title
%SQL_REPORT{%ROW{<LI>$(V1) $(note)
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""")


def test_distinct_client_text_shares_one_compiled_shape():
    """1 000 requests with 1 000 ``SEARCH`` values — and 1 000 client
    values printed *inside* the row — compile nothing new."""
    app = urlquery_app.install(rows=5)
    macro = app.library.load(app.macro_name)

    def search(text):
        return app.engine.execute_report(macro, [
            ("SEARCH", text), ("USE_TITLE", "yes"), ("DBFIELDS", "title")])

    def note(text):
        return app.engine.execute_report(CLIENT_ROW_MACRO, [("note", text)])

    assert "<LI>" in search("").html and "<LI>" in note("first").html
    shapes = dict(compiled._FACTORIES)
    for index in range(1000):
        text = f"{index}'\"{{k0}}\\%s\n"
        search(text)
        assert f"{index}'" in note(text).html
    assert compiled._FACTORIES == shapes


def test_minting_shapes_evicts_rather_than_grows():
    """A client *can* mint shapes — its value is parsed for ``$(V1)`` —
    so the memo is bounded: past the limit the coldest shape goes."""
    app = urlquery_app.install(rows=2)
    minted = compiled._FACTORY_LIMIT + 20
    sizes = []
    for repeats in range(2, minted + 2):
        page = app.engine.execute_report(
            CLIENT_ROW_MACRO, [("note", "$(V2)" * repeats)]).html
        sizes.append(len(compiled._FACTORIES))
    assert max(sizes) == compiled._FACTORY_LIMIT == sizes[-1]
    assert page.count("<LI>") == 2  # ...and rendering carried on


def test_a_hot_shape_survives_a_client_minting_shapes(monkeypatch):
    """Least recently used, not cleared: the Appendix A shape is used
    between every two one-off shapes, so it is compiled exactly once
    however many a client mints (here twice the memo's size)."""
    compiled._FACTORIES.clear()
    compiles = Counter()
    compile_shape = compiled._compile

    def counting(shape):
        compiles[shape] += 1
        return compile_shape(shape)

    monkeypatch.setattr(compiled, "_compile", counting)
    app = urlquery_app.install(rows=2)
    macro = app.library.load(app.macro_name)
    for repeats in range(2, 2 * compiled._FACTORY_LIMIT + 2):
        assert app.engine.execute_report(
            macro, APPENDIX_A).html.count("<LI> <A HREF=") == 2
        app.engine.execute_report(
            CLIENT_ROW_MACRO, [("note", "$(V2)" * repeats)])
        # Each report's program keeps its own plan; drop it, so every
        # request asks the shape memo again.
        macro.program.rows.clear()
    # Twice the memo's size minted (plus the report's row and statement
    # shapes), and still no shape compiled twice.
    assert len(compiles) == 2 * compiled._FACTORY_LIMIT + 2
    assert max(compiles.values()) == 1


# ----------------------------------------------------------------------
# (ii) The cost guard
# ----------------------------------------------------------------------

ROWS = 1000
APPENDIX_A = [("DBFIELDS", "title"), ("DBFIELDS", "description")]


def profiled_report(app, macro, inputs=APPENDIX_A):
    """``{(file, function): Python "call" events}`` for one buffered
    request, plus the calls made while ``specialise_row`` was running."""
    calls = Counter()
    plan_calls = plan_depth = 0

    def profile(frame, event, _arg):
        nonlocal plan_calls, plan_depth
        code = frame.f_code
        planning = plan_depth or code.co_name == "specialise_row"
        if event == "call":
            calls[(code.co_filename.rsplit("/", 1)[-1], code.co_name)] += 1
            if planning:
                plan_depth += 1
                plan_calls += 1
        elif event == "return" and planning:
            plan_depth -= 1

    gc.collect()  # a finaliser running mid-request would be counted
    gc.disable()
    sys.setprofile(profile)
    try:
        html = app.engine.execute_report(macro, inputs).html
    finally:
        sys.setprofile(None)
        gc.enable()
    assert html.count("<LI> <A HREF=") == ROWS
    return calls, plan_calls


def test_one_python_call_per_row_and_resumes_per_block(no_ambient_faults):
    """Counts calls, so no ambient fault injector: one injected fault
    and its retry would add calls to one of the three runs."""
    app = urlquery_app.install(rows=ROWS)
    macro = app.library.load(app.macro_name)
    app.engine.execute_report(macro, APPENDIX_A)  # compile the shape
    runs = [profiled_report(app, macro) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]  # counts, not timings
    calls, plan_calls = runs[0]

    # The row loop: exactly one Python call per printed row — the
    # generated function — and nothing else in the whole request that
    # scales with rows (measured on 3.11: 413 other calls at 1 000 rows;
    # one more call per row anywhere would add 1 000).  The one other
    # generated call is the %SQL statement's plan.
    assert calls[("<%ROW plan>", "render")] == ROWS + 1
    assert sum(calls.values()) - ROWS <= 480

    # A fetched result's rows are rendered in one pass and climb the
    # generator chain as one chunk, inside their section's: 4 resumes of
    # the page's generator in all (16 blocks + 5 before the row memo),
    # not 1 005.
    assert calls[("engine.py", "_run")] <= 5
    assert calls[("report.py", "_render_rows")] <= 2

    # Reusing the program's plan: its guards, checked by one _consult per
    # name the row reaches (27 calls to rebuild it, 47 for the closure
    # op-list before that).
    assert ("compiled.py", "_compile") not in calls
    assert plan_calls <= 8


def test_a_cached_report_renders_its_rows_once():
    """The row memo: a query-cache hit whose result the same plan last
    rendered over the same window renders no row.  The one other
    generated call is the %SQL statement's plan, made every request.
    Each request adds an input the SQL does not read, so the page is
    new while its result is a hit."""
    app = urlquery_app.install(rows=ROWS, engine=MacroEngine(
        None, config=EngineConfig(query_cache=QueryResultCache())))
    macro = app.library.load(app.macro_name)
    app.engine.execute_report(macro, APPENDIX_A)  # compile the shape
    app.engine.config.query_cache.clear()
    first, _ = profiled_report(app, macro)
    assert first[("<%ROW plan>", "render")] == ROWS + 1
    for turn in range(2):
        again, plan_calls = profiled_report(
            app, macro, APPENDIX_A + [("UNREAD", str(turn))])
        assert again[("engine.py", "_run")] >= 1  # the macro ran
        assert again[("<%ROW plan>", "render")] == 1  # no row's
        assert plan_calls <= 8
    assert sum(again.values()) < 200


def test_an_identical_repeat_reuses_the_whole_page():
    """The page memo: the same request again, every result it read
    still current, runs no macro at all — no ``_MacroRun``, no plan."""
    app = urlquery_app.install(rows=ROWS, engine=MacroEngine(
        None, config=EngineConfig(query_cache=QueryResultCache())))
    macro = app.library.load(app.macro_name)
    for _ in range(2):  # a miss, then the hit whose page is kept
        app.engine.execute_report(macro, APPENDIX_A)
    for _ in range(2):
        again, plan_calls = profiled_report(app, macro)
        assert ("engine.py", "__init__") not in again  # no _MacroRun
        assert ("engine.py", "_run") not in again
        assert not any(name == "<%ROW plan>" for name, _ in again)
        assert plan_calls == 0


REPORT_HOT = [("SEARCH", "ib"), ("USE_URL", "yes"), ("USE_TITLE", "yes")]


def engine_path_calls(app, inputs):
    """Python calls in ``repro/core`` frames for one library load plus
    one buffered ``engine.execute`` — the whole engine path."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and "/repro/core/" in frame.f_code.co_filename:
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        macro = app.library.load(app.macro_name)
        html = app.engine.execute_report(macro, inputs).html
    finally:
        sys.setprofile(None)
        gc.enable()
    assert html.count("<LI> <A HREF=") > 1
    return calls


def test_a_cached_report_request_stays_off_the_interpreter():
    """The cost guard for the engine path of a ``report_hot`` request:
    query cache on, pooled connections as ``repro serve`` runs them, the
    page already cached.  Counts are exact across runs; measured on
    3.11: 232 (one ``DBFIELDS``) and 240 (two) while every request
    replayed the %DEFINEs, interpreted its templates and leased a
    connection; 99 and 98 with the macro compiled at load.  The
    ceilings are those counts (3.12 inlines comprehensions: fewer).
    The first repeat, whose statement is a hit, still runs the macro
    (and keeps its page: 97 and 97); from then on the page is reused
    whole, 7 calls, no macro run."""
    engine = MacroEngine(None, config=EngineConfig(
        query_cache=QueryResultCache(max_entries=128)))
    app = urlquery_app.install(rows=150, engine=engine)
    counts, reused = {}, {}
    for fields in (["title"], ["title", "description"]):
        inputs = REPORT_HOT + [("DBFIELDS", name) for name in fields]
        engine_path_calls(app, inputs)  # plans built, result cached
        counts[len(fields)] = engine_path_calls(app, inputs)  # page kept
        runs = {engine_path_calls(app, inputs) for _ in range(3)}
        assert len(runs) == 1
        reused[len(fields)] = runs.pop()
    assert counts[1] <= 99 and counts[2] <= 98, counts
    assert reused[1] <= 7 and reused[2] <= 7, reused
