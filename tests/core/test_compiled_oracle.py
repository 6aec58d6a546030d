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
* results under, at and one row past the spill budget
  (``gateway.SPILL_ROWS``), which must not change a byte — or whether
  the page spilled, which must be exactly when a result outgrew it;
* result sizes on either side of the row block the compiled and
  default-table loops emit (``report._ROW_BLOCK``), with windows that
  start and end inside, on and across block boundaries;
* a cursor that fails on its *k*-th fetch (a test double behind
  ``DatabaseRegistry.register_factory``): within the budget's fetch the
  statement fails; past it the rows before the failure print, then the
  section's ``%SQL_MESSAGE`` or the default error block.

The block-boundary grid and the failing cursor are also walked
exhaustively, once each, by the two parametrised tests below.

Tier-1 runs a bounded number of examples; ``benchmarks/
bench_oracle_row_specialiser.py`` soaks the same property over 3 000
seeded examples (CI's perf job).
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import urlquery as urlquery_app
from repro.core import ast
from repro.core.engine import (
    EngineConfig,
    MacroCommand,
    MacroEngine,
    _MacroRun,
)
from repro.core.execvars import RegistryExecRunner
from repro.core.parser import parse_macro
from repro.core.report import _ROW_BLOCK
from repro.core.values import ValueString
from repro.errors import SQLError
from repro.resilience import faults
from repro.sql import gateway
from repro.sql.connection import Connection, MemoryDatabase
from repro.sql.cursor import Cursor
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.sql.transactions import TransactionMode

USER = ["u0", "u1", "u2", "u3"]
EXEC = "x0"
ALIASES = ["a", "A", "b", "B"]
ROW_NAMES = ["V1", "V2", "V3", "V5", "V_a", "V_A", "V.a", "v_a", "V_b",
             "V.B", "VLIST", "ROW_NUM"]
OTHER_NAMES = ["N1", "N_a", "NLIST", "ROWCOUNT", "V01", "nope"]
EVERYTHING = USER + ROW_NAMES + OTHER_NAMES + [EXEC]
TABLE_WIDTH = 5
#: Result sizes around the emitted row block, and window edges on them.
BLOCK_SIZES = [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
               2 * _ROW_BLOCK, 2 * _ROW_BLOCK + 1]
BLOCK_EDGES = [str(edge) for edge in (
    2, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, _ROW_BLOCK + 2,
    2 * _ROW_BLOCK, 2 * _ROW_BLOCK + 1)]

literal_text = st.sampled_from(
    ["", " ", "<BR>", "a&b", '"', "100%", "%s", "$", "$(", ")", "b\n",
     "\\", "{k0}", "'"])
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
    #: the fetch (1-based, per cursor) on which a cursor dies
    fail_at: Optional[int] = None


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
    message = draw(st.sampled_from([None, ast.SqlMessageBlock((
        ast.MessageRule("default", ValueString.parse(
            "<P>$(SQL_MESSAGE) at $(ROW_NUM): $(V1) $(u0)</P>"),
            "continue"),))]))
    sections.append(ast.SqlSection(
        select(aliases), name="main", report=ast.SqlReportBlock(
            draw(text), ast.RowBlock(ValueString.parse("".join(row))),
            draw(text)), message=message))
    pieces += [ast.ExecSqlDirective(ValueString.literal("main")),
               draw(text)]
    sections.append(ast.HtmlReportSection(tuple(pieces)))
    client_names = USER + ["RPT_MAXROWS", "START_ROW_NUM", "V2", "V_a",
                           "ROWCOUNT"]
    client_values = st.one_of(
        st.sampled_from(["", "1", "2", " 3 ", "0", "x", "$(V_a)",
                         "$(ROW_NUM)", "$(u1)", "$$(u2)", "<i>"]),
        text.map(lambda value: value.raw))
    inputs = draw(st.lists(st.tuples(st.sampled_from(client_names),
                                     client_values), max_size=4))
    rows = draw(st.lists(st.tuples(*[cell] * TABLE_WIDTH),
                         min_size=draw(st.sampled_from([0, 1, 2, 3])),
                         max_size=4))
    if rows and draw(st.integers(0, 7)) == 0:
        # Now and then a result that straddles the emitted row block,
        # under a window whose edges fall in, on or across a boundary.
        size = draw(st.sampled_from(BLOCK_SIZES))
        rows = (rows * (size // len(rows) + 1))[:size]
        inputs += draw(st.lists(st.tuples(
            st.sampled_from(["RPT_MAXROWS", "START_ROW_NUM"]),
            st.sampled_from(BLOCK_EDGES)), max_size=2))
    fail_at = draw(st.one_of(st.none(), st.none(),
                             st.integers(1, len(rows) + 1)))
    return Case(macro=ast.MacroFile(sections), inputs=inputs, rows=rows,
                escape=draw(st.booleans()), fail_at=fail_at)


class FailingCursor(Cursor):
    """A live cursor that dies on its ``fail_at``-th fetch (0: never),
    recording every fetch."""

    def __init__(self, cursor: Cursor, fail_at: int, fetches: list):
        super().__init__(cursor._raw, cursor.sql)
        self.fail_at = fail_at
        self.fetches = fetches  # one entry per fetch, all cursors

    def fetchone(self):
        self.fetches.append(self.sql)
        if self.fail_at == 1:
            raise SQLError("cursor lost mid-fetch", sqlcode=-952,
                           sqlstate="57014")
        self.fail_at -= 1
        return super().fetchone()

    def fetchmany(self, size):
        rows = []
        while len(rows) < size:
            row = self.fetchone()
            if row is None:
                break
            rows.append(row)
        return rows


class FailingConnection(Connection):
    """Hands out :class:`FailingCursor`s — the public seam is the
    connection factory, so nothing in ``src/`` knows about this."""

    def __init__(self, uri: str, fail_at: int, fetches: list):
        super().__init__(uri, uri=True)
        self.fail_at = fail_at
        self.fetches = fetches

    def execute(self, sql, parameters=()):
        return FailingCursor(super().execute(sql, parameters),
                             self.fail_at, self.fetches)


def spill_budget(budget):
    """``SPILL_ROWS`` as ``budget`` (``None``: as it is, which no result
    here reaches)."""
    return mock.patch.object(gateway, "SPILL_ROWS", gateway.SPILL_ROWS
                             if budget is None else budget)


def budgets(rows):
    """Spill budgets a result of ``rows`` rows is under, at and (when it
    has a row) one row past."""
    return [rows + 1, rows] + [rows - 1] * (rows > 0)


def served(run):
    """Run ``run`` as a transport does: the page, what it raised, and
    whether it spilled."""
    parts, raised, spilled = [], None, False
    try:
        result = run.execute()
        parts.extend(result.parts)
        spilled = result.rest is not None
        for chunk in result.rest or ():
            parts.append(chunk)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        raised = (type(error).__name__, str(error))
    return b"".join(parts).decode("utf-8"), raised, spilled


def outcome(case, database, *, compiled, budget=None):
    """Everything observable about one run of ``case``."""
    registry = DatabaseRegistry()
    registry.register_memory("ORACLE", database)
    fetches = []
    if case.fail_at is not None:
        registry.register_factory("ORACLE", lambda: FailingConnection(
            database.uri, case.fail_at, fetches))
    runner = RegistryExecRunner()
    commands = []
    runner.register("echo", lambda args: commands.append(args)
                    or " ".join(args))
    engine = MacroEngine(registry, exec_runner=runner, config=EngineConfig(
        compiled_reports=compiled, escape_report_values=case.escape,
        default_database="ORACLE"))
    run = _MacroRun(engine, case.macro, MacroCommand.REPORT, case.inputs)
    with spill_budget(budget):
        html, raised, spilled = served(run)
    return {"html": html, "raised": raised, "spilled": spilled,
            "system": run.store.system_snapshot(), "exec": commands,
            "rows": run.result.rows, "fetches": len(fetches),
            "sql_errors": [str(error) for error in run.result.sql_errors]}


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


def filled(database, rows):
    with database.connect() as conn:
        conn.execute("CREATE TABLE t (c0, c1, c2, c3, c4)")
        for row in rows:
            conn.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row)
        conn.commit()
    return database


def compare(case, database, spill_at=None):
    """The compiled row path under, at and one row past the spill budget
    (or at each of ``spill_at``) against the interpreter, which spills
    nowhere: the same page, and a spill exactly where a result outgrew
    the budget.  A page that fails part-way shows what it streamed
    before, so a failing cursor or a raise is held to the interpreter
    under the same budget.  Returns the last outcome."""
    rows = len(case.rows)
    baseline = (outcome(case, database, compiled=False)
                if case.fail_at is None else None)
    for budget in spill_at or budgets(rows):
        seen = outcome(case, database, compiled=True, budget=budget)
        if baseline is None or baseline["raised"] is not None:
            assert seen == outcome(case, database, compiled=False,
                                   budget=budget)
        else:
            assert dict(seen, spilled=False) == baseline
        assert seen["spilled"] == (rows > budget and (
            case.fail_at is None or case.fail_at > budget + 1)), budget
    return seen


def check(case):
    with no_ambient_faults(), MemoryDatabase() as database:
        compare(case, filled(database, case.rows))


#: Tier-1 budget (about five seconds).  The acceptance soak is the same
#: property over 3 000 seeded examples: see the module docstring.
@settings(max_examples=250, deadline=None)
@given(cases())
def test_specialised_rows_match_the_interpreter(case):
    check(case)


# ----------------------------------------------------------------------
# The block loop, walked exhaustively
# ----------------------------------------------------------------------

GRID_MACRO = parse_macro("""
%DEFINE note = V2 ? "<$(V2)>" : "-"
%SQL(custom){ SELECT c0 AS "a", c1 AS "b" FROM t ORDER BY rowid
%SQL_REPORT{[%ROW{$(ROW_NUM):$(V1)$(note);%}] $(ROW_NUM)/$(ROWCOUNT) $(V_a)
%}
%SQL_MESSAGE{
default : "<P>$(SQL_MESSAGE) after row $(ROW_NUM) ($(V1))</P>" : continue
%}
%}
%SQL(table){ SELECT c0 AS "a", c1 AS "b" FROM t ORDER BY rowid %}
%HTML_REPORT{%EXEC_SQL($(which)) end $(ROW_NUM) $(ROWCOUNT)%}
""")

B = _ROW_BLOCK
#: (START_ROW_NUM, RPT_MAXROWS): windows that start and end inside, on
#: and across block boundaries, and one that starts past every result.
GRID_WINDOWS = [
    (None, None), (None, 1), (None, B - 1), (None, B), (None, B + 1),
    (2, None), (B, None), (B + 1, None), (B + 2, None),
    (2, B - 1), (2, B), (B - 1, 2), (B, 1), (B, 2), (B + 1, B),
    (B + 1, B + 1), (2 * B, 5), (2 * B + 1, 1), (2 * B + 2, 1)]


def grid_rows(size):
    return [(index, None if index % 3 == 0 else f"n<{index}>", 0, 0, 0)
            for index in range(1, size + 1)]


def grid_case(which, size, start=None, limit=None, fail_at=None):
    inputs = [("which", which)]
    if start is not None:
        inputs.append(("START_ROW_NUM", str(start)))
    if limit is not None:
        inputs.append(("RPT_MAXROWS", str(limit)))
    return Case(GRID_MACRO, inputs, grid_rows(size), escape=False,
                fail_at=fail_at)


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("which", ["custom", "table"])
def test_block_boundaries_match_the_interpreter(which, size):
    with no_ambient_faults(), MemoryDatabase() as database:
        filled(database, grid_rows(size))
        for start, limit in GRID_WINDOWS:
            seen = compare(grid_case(which, size, start, limit), database)
            first = start or 1
            printed = max(0, min(size, first + (limit or size) - 1)
                          - first + 1)
            assert seen["raised"] is None and seen["rows"] == size
            assert seen["html"].count(
                ";" if which == "custom" else "<TR><TD>") == printed, \
                (start, limit)
            assert seen["html"].endswith(f" end {size} {size}")


@pytest.mark.parametrize("size, fail_at", [
    (size, fail_at) for size in (1, B, 2 * B + 1)
    for fail_at in sorted({1, 2, B, B + 1, size, size + 1})
    if fail_at <= size + 1])
@pytest.mark.parametrize("which", ["custom", "table"])
def test_cursor_failing_at_row_k_matches_the_interpreter(which, size,
                                                         fail_at):
    """Past the spill budget, the rows fetched before the failure print;
    then the error block, with ``ROW_NUM`` and ``V1`` as the interpreter
    leaves them.  A failure on the first fetch is within any budget's:
    the statement fails, before its section prints (or sets ``ROW_NUM``)."""
    with no_ambient_faults(), MemoryDatabase() as database:
        filled(database, grid_rows(size))
        for start, limit in [(None, None), (2, B), (B, None)]:
            seen = compare(grid_case(which, size, start, limit, fail_at),
                           database, spill_at=[max(fail_at - 2, 0)])
            got = fail_at - 1  # rows handed out before the failure
            printed = max(0, min(got, (start or 1) + (limit or got) - 1)
                          - (start or 1) + 1)
            assert seen["fetches"] == fail_at and seen["rows"] == 0
            assert seen["sql_errors"] == ["cursor lost mid-fetch"]
            assert seen["spilled"] == (got > 0)
            if which == "custom":
                number = got or ""
                assert seen["html"].count(";") == printed, (start, limit)
                assert seen["html"].endswith(
                    f"<P>cursor lost mid-fetch after row {number} "
                    f"({got or ''})</P> end {number} ")
            else:
                assert seen["html"].count("<TR><TD>") == printed
                assert "cursor lost mid-fetch" in seen["html"]


# ----------------------------------------------------------------------
# Whole reports: the load-time program against the interpreter
# ----------------------------------------------------------------------

#: What whole macros define and reference.  ``which`` names the SQL
#: section a ``%EXEC_SQL($(which))`` runs; ``V_A``/``v_b``/``n_A`` are
#: case variants of the column variables two of the sections install.
DEFINED = USER + ["v_b", "n_A"]
SETTINGS = ["DATABASE", "SHOWSQL", "RPT_MAXROWS", "START_ROW_NUM", "which"]
WHOLE_NAMES = (DEFINED + SETTINGS + [
    EXEC, "V1", "V4", "V_a", "V_A", "N1", "N4", "ROW_NUM", "ROWCOUNT",
    "NLIST", "SQL_MESSAGE", "nope"])
SETTING_VALUES = {"DATABASE": ["ORACLE", "ORACLE", "NOPE", "$(u0)"],
                  "SHOWSQL": ["", "YES", "$(u1)"],
                  "RPT_MAXROWS": ["1", "2", "x"],
                  "START_ROW_NUM": ["2", "$(u2)"],
                  "which": ["main", "other", "log", "write", "broken",
                            "nope", "$(u3)"]}
CLIENT_NAMES = DEFINED + SETTINGS + ["V1", "ROW_NUM"]
CLIENT_VALUES = ["", "yes", "ib", "a b", "2", "ORACLE", "NOPE", "main",
                 "other", "log", "write", "<i>", "$(u0)", "$(u1)x",
                 "$$(u2)", "$(V1)", "$(SHOWSQL)", "$(V_A)"]
#: The SQL sections: two queries whose column names differ only in case
#: (and in number), a query over what the write inserts, the write, and
#: a statement that fails.
BODIES = {
    "main": "SELECT c0 AS a, c1 AS b, c2 FROM t ORDER BY rowid",
    "other": "SELECT c0 AS A, c1 AS B, c2, c3 FROM t ORDER BY rowid",
    "log": "SELECT x FROM t2 ORDER BY rowid",
    "write": "INSERT INTO t2 VALUES ('$(u0)')",
    "broken": "SELEC $(u1) FROM t"}


@dataclass
class WholeCase:
    macro: ast.MacroFile
    command: MacroCommand
    #: the requests, in order, each served by the same engine and macro
    requests: list
    rows: list
    mode: TransactionMode
    #: indices of the requests served with ``escape_report_values`` on
    #: (the engine, and so its query cache, stays the same)
    escaped: frozenset = frozenset()


def statement(draw, exec_ok):
    """One define-statement; sometimes for a setting the engine reads."""
    name = draw(st.sampled_from(DEFINED * 2 + SETTINGS))
    values = (value_strings(WHOLE_NAMES) if name in DEFINED else
              st.sampled_from(SETTING_VALUES[name]).map(ValueString.parse))
    kind = draw(st.sampled_from(["simple", "conditional", "conditional",
                                 "list"] + ["exec"] * exec_ok))
    if kind == "simple":
        return [ast.SimpleAssignment(name, draw(values))]
    if kind == "exec":
        return [exec_statement(draw, name)]
    conditional = st.builds(  # forms (a)-(d)
        ast.ConditionalAssignment, st.just(name), values,
        test_name=st.one_of(st.none(), st.sampled_from(WHOLE_NAMES)),
        else_value=st.one_of(st.none(), values))
    if kind == "conditional":
        return [draw(conditional)]
    return [ast.ListDeclaration(name, draw(value_strings(WHOLE_NAMES)))] \
        + draw(st.lists(st.one_of(
            st.builds(ast.SimpleAssignment, st.just(name), values),
            conditional), max_size=2))


def exec_statement(draw, name):
    """An executable variable; "fail" sets its error code, which a
    conditional testing it reads without running it again."""
    return ast.ExecDeclaration(name, ValueString.parse(
        draw(st.sampled_from(["echo ", "fail "]))
        + draw(st.sampled_from(["$(u0)", "$(V1)", "hi"]))))


def sql_sections(draw):
    """Some of :data:`BODIES`, each named or unnamed, with or without
    custom report and message blocks."""
    text = value_strings(WHOLE_NAMES)
    message = st.sampled_from([None] + [ast.SqlMessageBlock((ast.MessageRule(
        "default", ValueString.parse(f"<P>{action}: $(SQL_MESSAGE) "
                                     "$(u0)</P>"), action),))
        for action in ("continue", "exit")])
    report = st.one_of(st.none(), st.builds(
        ast.SqlReportBlock, text, st.builds(ast.RowBlock, text), text))
    sections = []
    for name, body in BODIES.items():
        if draw(st.integers(0, 3)):
            sections.append(ast.SqlSection(
                ValueString.parse(body + draw(st.sampled_from(
                    ["", " -- $(u2)", " -- $$(u3)"]))),
                name=name if draw(st.integers(0, 3)) else None,
                report=draw(report), message=draw(message)))
    return sections


@st.composite
def whole_cases(draw):
    exec_ok = draw(st.integers(0, 4)) == 0
    defines = [ast.DefineSection(tuple(
        item for _ in range(draw(st.integers(1, 4)))
        for item in statement(draw, exec_ok)))
        for _ in range(draw(st.integers(1, 3)))]
    if exec_ok:
        defines[0] = ast.DefineSection(
            (exec_statement(draw, EXEC),) + defines[0].statements)
    sqls = sql_sections(draw)
    pieces = [draw(value_strings(WHOLE_NAMES))]
    if any(section.name is None for section in sqls):
        pieces.append(ast.ExecSqlDirective())
    for _ in range(draw(st.integers(0, 3))):
        pieces += [ast.ExecSqlDirective(draw(st.sampled_from(
            [ValueString.literal("main"), ValueString.parse("$(which)")]))),
            draw(value_strings(WHOLE_NAMES))]
    walked = defines + [ast.HtmlReportSection(tuple(pieces))]
    if draw(st.booleans()):
        walked.append(ast.HtmlInputSection(draw(value_strings(WHOLE_NAMES))))
    # Defines interleave with the page sections (positional visibility);
    # where the SQL sections sit does not matter.
    sections = draw(st.permutations(walked)) + sqls
    # The requests mostly send the same names with other values, so the
    # compiled side reuses its plans under changed answers; a print
    # window that moves over a cached result moves its row memo's too.
    names = draw(st.lists(st.sampled_from(CLIENT_NAMES), max_size=5))
    window = st.lists(st.tuples(
        st.sampled_from(["RPT_MAXROWS", "START_ROW_NUM"]),
        st.sampled_from(["1", "2", "3", "9"])), max_size=2)
    inputs = st.tuples(st.one_of(
        st.tuples(*[st.tuples(st.just(name), st.sampled_from(CLIENT_VALUES))
                    for name in names]).map(list),
        st.lists(st.tuples(st.sampled_from(CLIENT_NAMES),
                           st.sampled_from(CLIENT_VALUES)), max_size=5)),
        window).map(lambda drawn: drawn[0] + drawn[1])
    return WholeCase(
        macro=ast.MacroFile(sections),
        command=draw(st.sampled_from([MacroCommand.REPORT] * 3
                                     + [MacroCommand.INPUT])),
        requests=draw(st.lists(inputs, min_size=2, max_size=4)),
        rows=draw(st.lists(st.tuples(*[cell] * TABLE_WIDTH), max_size=3)),
        mode=draw(st.sampled_from(list(TransactionMode))))


def whole_outcomes(case, *, compiled, budget=None):
    """Everything observable about each request of ``case``, served in
    order by one engine (so the compiled side reuses its plans)."""
    with MemoryDatabase() as database:
        filled(database, case.rows)
        with database.connect() as conn:
            conn.execute("CREATE TABLE t2 (x)")
            conn.commit()
        registry = DatabaseRegistry()
        registry.register_memory("ORACLE", database)
        runner = RegistryExecRunner()
        commands = []

        def fail(args):
            commands.append(["fail"] + args)
            raise RuntimeError(" ".join(args))

        runner.register("echo", lambda args: commands.append(args)
                        or " ".join(args))
        runner.register("fail", fail)
        engine = MacroEngine(registry, exec_runner=runner,
                             config=EngineConfig(
                                 compiled_reports=compiled,
                                 default_database="ORACLE",
                                 transaction_mode=case.mode,
                                 query_cache=QueryResultCache(max_entries=64)))
        seen = []
        for index, inputs in enumerate(case.requests):
            engine.config.escape_report_values = index in case.escaped
            run = _MacroRun(engine, case.macro, case.command, inputs)
            with spill_budget(budget):
                html, raised, spilled = served(run)
            result = run.result
            seen.append({
                "html": html, "raised": raised, "spilled": spilled,
                "system": run.store.system_snapshot(),
                "exec": list(commands), "statements": result.statements,
                "rows": result.rows, "aborted": result.aborted,
                "content_type": result.content_type,
                "sql_errors": [str(error) for error in result.sql_errors]})
            commands.clear()
        with database.connect() as conn:
            seen.append(conn.execute("SELECT x FROM t2").fetchall())
    return seen


def check_whole(case):
    """The compiled side under, at and one row past the spill budget of
    the table the sections read, against the interpreter, which spills
    nowhere; a page that spilled and then raised shows what it streamed
    first, so it is held to the interpreter under the same budget."""
    with no_ambient_faults():
        baseline = whole_outcomes(case, compiled=False)
        for budget in budgets(len(case.rows)):
            seen = whole_outcomes(case, compiled=True, budget=budget)
            if any(page["spilled"] and page["raised"] for page in seen[:-1]):
                assert seen == whole_outcomes(case, compiled=False,
                                              budget=budget)
            else:
                assert [dict(page, spilled=False) for page in seen[:-1]] \
                    + seen[-1:] == baseline


#: Tier-1 budget (a few seconds); the CI soak runs the same property
#: over seeded examples (``benchmarks/bench_oracle_row_specialiser.py``).
@settings(max_examples=150, deadline=None)
@given(whole_cases())
def test_whole_reports_match_the_interpreter(case):
    check_whole(case)


# ----------------------------------------------------------------------
# Named cases: each way a reused plan could answer for a changed store
# ----------------------------------------------------------------------

def named_case(text, *requests, command=MacroCommand.REPORT,
               escaped=frozenset()):
    return WholeCase(parse_macro(text), command, list(requests),
                     rows=[(1, "x", "y", 0, 0), (2, None, "", 0, 0)],
                     mode=TransactionMode.AUTO_COMMIT, escaped=escaped)


REUSE_CASES = {
    # A folded row slot (V_A for column "a") until an earlier section
    # leaves an exact V_A behind.
    "exact shadow": named_case("""
%SQL(quiet){ SELECT 0 AS z %}
%SQL(upper){ SELECT c0 + 10 AS A, c1 AS B FROM t
%SQL_REPORT{%ROW{.%}%}
%}
%SQL(lower){ SELECT c0 AS a, c1 AS b FROM t
%SQL_REPORT{%ROW{[$(V_A)|$(v_b)]%}%}
%}
%HTML_REPORT{%EXEC_SQL($(which))%EXEC_SQL(lower)%}
""", [("which", "quiet")], [("which", "upper")], [("which", "quiet")]),
    # A row constant (N3, left by whichever section ran first).
    "row constant": named_case("""
%SQL(third){ SELECT c0, c1, c2 AS third FROM t %}
%SQL(another){ SELECT c0, c1, c2 AS another FROM t %}
%SQL(two){ SELECT c0, c1 FROM t
%SQL_REPORT{%ROW{[$(N3)]%}%}
%}
%HTML_REPORT{%EXEC_SQL($(which))%EXEC_SQL(two)%}
""", [("which", "third")], [("which", "another")]),
    # %LIST on a client name: separators, repeats, null values.
    "client list": named_case("""
%DEFINE %LIST " OR " pick
%DEFINE{
%LIST " AND " pick
where = ? "WHERE $(pick)"
%}
%HTML_REPORT{[$(pick)] [$(where)]%}
""", [("pick", "a")], [("pick", "a"), ("pick", "b")],
        [("pick", "b"), ("pick", ""), ("pick", "c")], []),
    # A list the page sees, appended to by a later %DEFINE.
    "later append": named_case("""
%DEFINE{
%LIST "," L
L = "a"
%}
%HTML_REPORT{[$(L)]%}
%DEFINE L = "b"
""", [], [("L", "client")], []),
    # An executable variable's error code, tested before it runs.
    "exec error code": named_case("""
%DEFINE{
x = %EXEC "fail now"
t = x ? "failed" : "fine"
%}
%HTML_REPORT{$(t) $(x) $(t)%}
""", [], []),
    # One cached result printed through a moving window: each request's
    # rows are its own (a window past the rows prints as none, one
    # longer than them as all of them).
    "print window": named_case("""
%SQL(rows){ SELECT c0 AS a, c1 AS b FROM t
%SQL_REPORT{[%ROW{<$(ROW_NUM):$(V_a)$(V2)>%}]$(ROW_NUM)%}
%}
%SQL(table){ SELECT c1, c0 FROM t ORDER BY c0 DESC %}
%HTML_REPORT{%EXEC_SQL(rows)%EXEC_SQL(table)%}
""", [], [("RPT_MAXROWS", "1")], [("START_ROW_NUM", "2")],
        [("RPT_MAXROWS", "1"), ("START_ROW_NUM", "2")],
        [("START_ROW_NUM", "3")], [("RPT_MAXROWS", "5")], []),
    # One statement text, so one cached result, under three row
    # templates (the default table's among them) in one page.
    "one statement, three rows": named_case("""
%SQL(angle){ SELECT c0 AS a FROM t
%SQL_REPORT{%ROW{<$(V1)>%}%}
%}
%SQL(square){ SELECT c0 AS a FROM t
%SQL_REPORT{%ROW{[$(V1)]%}%}
%}
%SQL(table){ SELECT c0 AS a FROM t %}
%HTML_REPORT{%EXEC_SQL(angle)%EXEC_SQL(square)%EXEC_SQL(table)%EXEC_SQL(angle)%}
""", [], []),
    # Escaping switched on and off over one cache: the escaping and the
    # raw row are two plans.
    "escape toggled": named_case("""
%SQL{ SELECT '<b>' || c1 AS a, c0 FROM t
%SQL_REPORT{%ROW{[$(V_a)|$(VLIST)]%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
""", [], [], [], [], escaped=frozenset({1, 3})),
    # Client values that are themselves references.
    "referencing client": named_case("""
%DEFINE{
a = "A"
b = "B$(pick)"
%}
%HTML_REPORT{[$(pick)]%}
""", [("pick", "$(a)")], [("pick", "$(b)")], [("pick", "plain")]),
}


@pytest.mark.parametrize("case", REUSE_CASES.values(), ids=REUSE_CASES)
def test_reused_plans_match_the_interpreter(case):
    check_whole(case)


APPENDIX_A_REQUESTS = [
    urlquery_app.FIGURE3_BINDINGS,
    [("SEARCH", "ib"), ("USE_URL", "yes"), ("USE_TITLE", "yes"),
     ("DBFIELDS", "title")],
    [("SEARCH", "ib"), ("USE_URL", "yes"), ("USE_TITLE", "yes"),
     ("DBFIELDS", "title"), ("DBFIELDS", "description")],
    # Figure 2's form as a browser submits it: hidden-variable values.
    [("SEARCH", "net"), ("USE_DESC", "yes"), ("DBFIELDS", "$(hidden_a)"),
     ("DBFIELDS", "$(hidden_b)"), ("SHOWSQL", "YES")],
    [("SEARCH", "o'brien"), ("DBFIELDS", "description"),
     ("RPT_MAXROWS", "2")],
    [],
]


@pytest.mark.parametrize("stream", [False, True])
def test_appendix_a_requests_match_the_interpreter(stream):
    """The paper's own application, request after request on one
    engine: each page and the system variables it leaves behind (with
    ``stream``, every result of more than a row spills)."""
    pages = []
    for compiled in (True, False):
        app = urlquery_app.install(rows=12, engine=MacroEngine(
            None, config=EngineConfig(
                compiled_reports=compiled,
                query_cache=QueryResultCache(max_entries=8))))
        seen = []
        for command in (MacroCommand.REPORT, MacroCommand.INPUT):
            for inputs in APPENDIX_A_REQUESTS:
                run = _MacroRun(app.engine, app.library.load(app.macro_name),
                                command, inputs)
                with spill_budget(1 if stream else None):
                    seen.append((served(run), run.store.system_snapshot()))
        pages.append(seen)
    assert pages[0] == pages[1]
    assert any(spilled for (_, _, spilled), _ in pages[0]) == stream


def test_shared_plans_under_concurrent_requests():
    """Executor threads share one program and its plan memos; a lost
    update there only costs a rebuild.  Eight threads (more than cores),
    a switch interval short enough to interleave the memo updates, and
    every page still equal to what the interpreter renders alone."""
    import sys
    import threading

    requests = APPENDIX_A_REQUESTS[:5] + [
        [("SEARCH", word), ("USE_TITLE", "yes"), ("DBFIELDS", field)]
        for word in ("ib", "net", "o") for field in ("url", "title")]
    oracle = urlquery_app.install(rows=12, engine=MacroEngine(
        None, config=EngineConfig(compiled_reports=False)))
    expected = [oracle.engine.execute_report(
        oracle.library.load(oracle.macro_name), inputs).html
        for inputs in requests]
    app = urlquery_app.install(rows=12, engine=MacroEngine(
        None, config=EngineConfig(query_cache=QueryResultCache())))
    macro = app.library.load(app.macro_name)
    wrong = []

    def serve(offset):
        for turn in range(60):
            index = (offset + turn) % len(requests)
            html = app.engine.execute_report(macro, requests[index]).html
            if html != expected[index]:
                wrong.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(offset,))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
