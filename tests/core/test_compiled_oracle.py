"""Differential oracle: specialised ``%ROW`` rendering vs the interpreter.

ROADMAP "Differential oracle for every fast path", first instalment.  The
equivalence is stated once — for any macro, inputs and data, running with
``compiled_reports=True`` and ``False`` gives the same page bytes, the
same system-variable state afterwards, the same ``%EXEC`` command runs
and the same exception — and Hypothesis hunts for a counter-example over

* row templates x ``%DEFINE`` sets: simple, all four conditional forms,
  ``%LIST`` with conditional elements and a dynamic separator, executable
  variables, references drawn from a small pool so chains, diamonds and
  (occasionally) cycles form;
* client inputs, including values that are themselves ``$(V_col)`` /
  ``$(ROW_NUM)`` text and names that collide with implicit variables;
* result sets: NULLs, empty strings, integral floats, values carrying
  ``$(x)`` text and ``<&">``, duplicate and case-colliding column aliases;
* an optional earlier SQL section leaving stale system variables behind;
* ``RPT_MAXROWS`` / ``START_ROW_NUM`` windows and ``escape_report_values``;
* buffered and streaming execution.

Tier-1 runs a bounded number of examples; ``benchmarks/
bench_oracle_row_specialiser.py`` soaks the same property over 3 000
seeded examples (CI's perf job).
"""

from contextlib import contextmanager
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.core import ast
from repro.core.engine import (
    EngineConfig,
    MacroCommand,
    MacroEngine,
    _MacroRun,
)
from repro.core.execvars import RegistryExecRunner
from repro.core.values import ValueString
from repro.resilience import faults
from repro.sql.connection import MemoryDatabase
from repro.sql.gateway import DatabaseRegistry

USER = ["u0", "u1", "u2", "u3"]
EXEC = "x0"
ALIASES = ["a", "A", "b", "B"]
ROW_NAMES = ["V1", "V2", "V3", "V5", "V_a", "V_A", "V.a", "v_a", "V_b",
             "V.B", "VLIST", "ROW_NUM"]
OTHER_NAMES = ["N1", "N_a", "NLIST", "ROWCOUNT", "V01", "nope"]
EVERYTHING = USER + ROW_NAMES + OTHER_NAMES + [EXEC]
TABLE_WIDTH = 5

literal_text = st.sampled_from(
    ["", " ", "<BR>", "a&b", '"', "100%", "%s", "$", "$(", ")", "b\n"])
cell = st.sampled_from([None, None, "", "", 7, -1, 2.0, 2.5, "ann", "$(V1)",
                        "$(u0)", "$$(u1)", '<&">', "100%s"])


def reference(names):
    return st.sampled_from(names).map(lambda name: f"$({name})")


def value_strings(names):
    """Value strings over ``names``: literals, references, escapes."""
    escape = st.sampled_from(names).map(lambda name: f"$$({name})")
    return st.lists(
        st.one_of(literal_text, reference(names), reference(names), escape),
        max_size=4).map(lambda pieces: ValueString.parse("".join(pieces)))


def define_group(draw, index):
    """The statements that define ``u<index>``, in macro order.

    It mostly mentions later user variables, so definitions form a DAG
    with shared subtrees — and now and then any of them (cycles)."""
    name = USER[index]
    later = USER[index + 1:] * 2
    names = draw(st.sampled_from([
        later + ROW_NAMES, later + ROW_NAMES, later + ROW_NAMES[:6],
        later + ROW_NAMES + OTHER_NAMES, USER + ROW_NAMES + [EXEC]]))
    values = value_strings(names)
    simple = st.builds(ast.SimpleAssignment, st.just(name), values)
    conditional = st.builds(  # forms (a)-(d): test and else both optional
        ast.ConditionalAssignment, st.just(name), values,
        test_name=st.one_of(st.none(), st.sampled_from(names)),
        else_value=st.one_of(st.none(), values))
    kind = draw(st.sampled_from(["simple", "conditional", "conditional",
                                 "list"]))
    if kind == "list":  # dynamic separator, conditional elements
        return [ast.ListDeclaration(name, draw(values))] + draw(st.lists(
            st.one_of(simple, conditional), min_size=1, max_size=3))
    return [draw(simple if kind == "simple" else conditional)]


@dataclass
class Case:
    macro: ast.MacroFile
    inputs: list
    rows: list
    escape: bool


def select(aliases):
    columns = ", ".join(f'c{index} AS "{alias}"'
                        for index, alias in enumerate(aliases))
    return ValueString.literal(f"SELECT {columns} FROM t ORDER BY rowid")


@st.composite
def cases(draw):
    text = value_strings(EVERYTHING)
    statements = [statement
                  for index in draw(st.permutations(range(len(USER))))
                  for statement in define_group(draw, index)]
    if draw(st.booleans()):
        statements.append(ast.ExecDeclaration(EXEC, ValueString.parse(
            "echo " + draw(st.sampled_from(
                ["$(V1)", "$(ROW_NUM)", "hi $(u3)", "'$(V_a)'"])))))
    sections = [ast.DefineSection(tuple(statements))]
    pieces = []
    aliases = draw(st.lists(st.sampled_from(ALIASES), min_size=1,
                            max_size=4))
    if draw(st.booleans()):
        # An earlier, wider section leaves V1..V5, N*, ROWCOUNT and its
        # exact V_<alias> spellings behind — often the case variants of
        # the main section's aliases, which must then shadow them.
        earlier = draw(st.one_of(
            st.lists(st.sampled_from(ALIASES), min_size=1,
                     max_size=TABLE_WIDTH),
            st.just([alias.swapcase() for alias in aliases] + ["b"])))
        report = draw(st.sampled_from([None, ast.SqlReportBlock(
            ValueString.literal("["),
            ast.RowBlock(ValueString.parse("$(VLIST);")),
            ValueString.literal("]"))]))
        sections.append(ast.SqlSection(select(earlier), name="earlier",
                                       report=report))
        pieces.append(ast.ExecSqlDirective(ValueString.literal("earlier")))
    # The row: mostly user variables — that is where the specialiser
    # works — over a sprinkling of everything else.
    row = draw(st.lists(st.one_of(
        literal_text, reference(USER), reference(USER), reference(USER),
        reference(ROW_NAMES + OTHER_NAMES + [EXEC, EXEC])),
        min_size=1, max_size=5))
    sections.append(ast.SqlSection(
        select(aliases), name="main", report=ast.SqlReportBlock(
            draw(text), ast.RowBlock(ValueString.parse("".join(row))),
            draw(text))))
    pieces += [ast.ExecSqlDirective(ValueString.literal("main")),
               draw(text)]
    sections.append(ast.HtmlReportSection(tuple(pieces)))
    client_names = USER + ["RPT_MAXROWS", "START_ROW_NUM", "V2", "V_a",
                           "ROWCOUNT"]
    client_values = st.one_of(
        st.sampled_from(["", "1", "2", " 3 ", "0", "x", "$(V_a)",
                         "$(ROW_NUM)", "$(u1)", "$$(u2)", "<i>"]),
        text.map(lambda value: value.raw))
    return Case(
        macro=ast.MacroFile(sections),
        inputs=draw(st.lists(st.tuples(st.sampled_from(client_names),
                                       client_values), max_size=4)),
        rows=draw(st.lists(st.tuples(*[cell] * TABLE_WIDTH),
                           min_size=draw(st.sampled_from([0, 1, 2, 3])),
                           max_size=4)),
        escape=draw(st.booleans()))


def outcome(case, database, *, compiled, stream):
    """Everything observable about one run of ``case``."""
    registry = DatabaseRegistry()
    registry.register_memory("ORACLE", database)
    # Pooled, as under ``repro serve``: a row-time error in streaming
    # mode leaves the live cursor to be closed after the session, which
    # an unpooled session's closed connection would complain about.
    registry.enable_pools(size=1)
    runner = RegistryExecRunner()
    commands = []
    runner.register("echo", lambda args: commands.append(args)
                    or " ".join(args))
    engine = MacroEngine(registry, exec_runner=runner, config=EngineConfig(
        compiled_reports=compiled, escape_report_values=case.escape,
        default_database="ORACLE"))
    run = _MacroRun(engine, case.macro, MacroCommand.REPORT, case.inputs,
                    stream_rows=stream)
    chunks, raised = [], None
    try:
        for chunk in run.stream():
            chunks.append(chunk)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        raised = (type(error).__name__, str(error))
    return {"html": "".join(chunks), "raised": raised,
            "system": run.store.system_snapshot(), "exec": commands}


@contextmanager
def no_ambient_faults():
    """Suspend ``--inject-faults`` chaos while two runs are compared:
    each side would draw different faults, and a randomly sized example
    would shift the injector's seeded sequence for every later test."""
    ambient = faults.ambient_injector()
    faults.set_ambient_injector(None)
    try:
        yield
    finally:
        faults.set_ambient_injector(ambient)


def check(case):
    with no_ambient_faults(), MemoryDatabase() as database:
        with database.connect() as conn:
            conn.execute("CREATE TABLE t (c0, c1, c2, c3, c4)")
            for row in case.rows:
                conn.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row)
            conn.commit()
        for stream in (False, True):
            assert outcome(case, database, compiled=True, stream=stream) \
                == outcome(case, database, compiled=False, stream=stream)


#: Tier-1 budget (about five seconds).  The acceptance soak is the same
#: property over 3 000 seeded examples: see the module docstring.
@settings(max_examples=250, deadline=None)
@given(cases())
def test_specialised_rows_match_the_interpreter(case):
    check(case)
