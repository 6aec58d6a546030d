"""Whole-page reuse: a repeat request answered with the page it got last.

``MacroEngine.execute`` keeps a buffered page in the query cache once a
run of it found every statement a cache hit, and answers the same request
(program, command, inputs in order, the settings that shape the page)
with it while each result it read is still the cache's current entry.
The equivalence is with a *cold* engine — interpreter only, no query
cache — serving the same requests against its own copy of the data:

* the same status, ``Content-Type`` and body bytes for every request of a
  sequence that repeats requests (in the same and in another input order)
  and interleaves writes through every path a page's data can change by:
  an ``INSERT`` macro through the same engine, one through a second
  engine sharing the registry, a direct ``MemoryDatabase.connect()``
  write, and the macro edited on disk under ``stat_ttl=0``;
* executable variables count their runs into their output, so a page
  that ran one and was reused shows it.

Hypothesis draws the macros from :data:`REUSE_CASES` and
:func:`whole_cases`; the named sequences below each pin one way a memo
could answer for a changed page.  ``benchmarks/
bench_oracle_row_specialiser.py`` soaks the property over 3 000 seeded
sequences (CI's perf job).
"""

import gc
import itertools
import os
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings, strategies as st

from repro.cgi.environ import CgiEnvironment
from repro.cgi.gateway import CgiGateway, Db2WwwProgram
from repro.cgi.request import CgiRequest
from repro.core import engine as engine_module
from repro.core.engine import EngineConfig, MacroCommand, MacroEngine
from repro.core.execvars import RegistryExecRunner
from repro.core.macrofile import MacroLibrary
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.obs.trace import TRACER
from repro.sql.connection import MemoryDatabase
from repro.sql.gateway import DatabaseRegistry, ExecutionResult
from repro.sql.querycache import QueryResultCache
from repro.sql.transactions import TransactionMode
from tests.core.test_compiled_oracle import (
    REUSE_CASES,
    filled,
    named_case,
    no_ambient_faults,
    whole_cases,
)

DATABASE = "ORACLE"
#: Writes a row each pages read (``t`` and ``t2``), numbered by ``n``.
INSERT = """%SQL{ INSERT INTO t VALUES ($(n), 'w$(n)', '', 0, 0) %}
%SQL{ INSERT INTO t2 VALUES ('w$(n)') %}
%HTML_INPUT{insert%}
%HTML_REPORT{%EXEC_SQL%}
"""
WRITES = ("insert", "second", "direct", "edit", "escape")


def counting_runner():
    """``echo`` and ``fail``, each run numbered: a page that ran one
    prints (or fails with) how many runs its engine has made."""
    runner, runs = RegistryExecRunner(), itertools.count(1)

    def fail(args):
        raise RuntimeError(" ".join(args) + f"#{next(runs)}")

    runner.register("echo", lambda args: " ".join(args) + f"#{next(runs)}")
    runner.register("fail", fail)
    return runner


def request(program, macro, command, inputs):
    """Status, ``Content-Type`` and body, or the exception raised."""
    try:
        response = program.run(CgiRequest(environ=CgiEnvironment(
            path_info=f"/{macro}/{command}",
            query_string=urlencode(inputs))))
    except Exception as error:  # noqa: BLE001 - compared
        return type(error).__name__, str(error)
    return response.status, response.header("Content-Type"), response.body


class Side:
    """One deployment: its own copy of the data, an engine serving the
    page, and a second engine on the same registry.  ``memo`` is the
    engine under test (compiled, query cache); otherwise both engines
    are cold (interpreter, no cache)."""

    def __init__(self, root, rows, mode, *, memo, cache_entries=64):
        self.database = filled(MemoryDatabase(), rows)
        with self.database.connect() as conn:
            conn.execute("CREATE TABLE t2 (x)")
            conn.commit()
        registry = DatabaseRegistry()
        registry.register_memory(DATABASE, self.database)
        self.cache = QueryResultCache(max_entries=cache_entries) \
            if memo else None
        self.library = MacroLibrary(root, stat_ttl=0)
        self.program, self.second = (Db2WwwProgram(MacroEngine(
            registry, exec_runner=counting_runner(), config=EngineConfig(
                compiled_reports=memo, default_database=DATABASE,
                transaction_mode=mode, query_cache=cache)), self.library)
            for cache in (self.cache, QueryResultCache() if memo else None))
        self.engine = self.program.engine

    def close(self):
        self.database.close()


class Site:
    """The engine under test and the cold one, fed the same steps."""

    def __init__(self, root, text, *, rows, mode=TransactionMode.AUTO_COMMIT,
                 command=MacroCommand.REPORT, cache_entries=64):
        self.root, self.text, self.command = root, text, command
        self.edits = self.writes = 0
        if not (root / "insert.d2w").exists():
            (root / "insert.d2w").write_text(INSERT, encoding="utf-8")
        self._write_page()
        self.memo = Side(root, rows, mode, memo=True,
                         cache_entries=cache_entries)
        self.cold = Side(root, rows, mode, memo=False)

    def _write_page(self):
        text = self.text
        if self.edits:
            mark = f"E{self.edits} "
            text = text.replace("%HTML_REPORT{", "%HTML_REPORT{" + mark) \
                .replace("%HTML_INPUT{", "%HTML_INPUT{" + mark)
        path = self.root / "page.d2w"
        path.write_text(text, encoding="utf-8")
        # An mtime of its own: an edit inside the clock's granularity
        # must still be seen.
        stamp = 1_000_000_000 + self.edits
        os.utime(path, (stamp, stamp))

    def get(self, inputs):
        """The page for ``inputs`` from both sides; they must agree."""
        served = request(self.memo.program, "page.d2w",
                         self.command.value, inputs)
        expected = request(self.cold.program, "page.d2w",
                           self.command.value, inputs)
        assert served == expected, inputs
        return served

    def step(self, what):
        if what == "edit":
            self.edits += 1
            self._write_page()
            return
        for side in (self.memo, self.cold):
            if what == "escape":
                config = side.engine.config
                config.escape_report_values = \
                    not config.escape_report_values
            elif what == "direct":
                with side.database.connect() as conn:
                    conn.execute(f"INSERT INTO t2 VALUES ('d{self.writes}')")
                    conn.execute(f"INSERT INTO t VALUES ({self.writes}, "
                                 f"'d{self.writes}', '', 0, 0)")
                    conn.commit()
            else:
                program = side.program if what == "insert" else side.second
                status, _, _ = request(program, "insert.d2w", "report",
                                       [("n", str(self.writes))])
                assert status == 200
        self.writes += 1

    def close(self):
        self.memo.close()
        self.cold.close()


@pytest.fixture
def site(tmp_path):
    sites = []

    def make(text, **kwargs):
        sites.append(Site(tmp_path, text, **kwargs))
        return sites[-1]

    with no_ambient_faults():
        yield make
    for made in sites:
        made.close()


ROWS = [(1, "x", "y", 0, 0), (2, None, "", 0, 0)]
#: One statement the inputs never reach: every page shares its result.
PLAIN = """%SQL{ SELECT c0, c1 FROM t ORDER BY rowid
%SQL_REPORT{%ROW{[$(V1):$(V2)]%}$(ROW_NUM)%}
%}
%HTML_REPORT{<P>$(who)</P>%EXEC_SQL%}
"""
A, B = [("who", "a")], [("who", "b")]


#: The macros the property draws besides :func:`whole_cases`: the
#: oracle's named cases, and pages whose inputs the SQL never reads.
PAGE_CASES = {
    **REUSE_CASES,
    "unread inputs": named_case(PLAIN, A, B, [("who", "a"), ("who", "b")]),
    "listed inputs": named_case('%DEFINE %LIST "," who\n' + PLAIN,
                                [("who", "a"), ("who", "b")], B),
    "executable variable": named_case(
        '%DEFINE stamp = %EXEC "echo $(who)"\n'
        + PLAIN.replace("</P>", " $(stamp)</P>"), A, B),
}


def walk(site, text, steps, **kwargs):
    """Serve ``steps`` (an input list, or the name of a write) on a
    fresh site; returns the memo side's cache."""
    made = site(text, rows=ROWS, **kwargs)
    for step in steps:
        if isinstance(step, str):
            made.step(step)
        else:
            made.get(step)
    return made


class TestNamedSequences:
    def test_an_identical_repeat_is_reused(self, site, monkeypatch):
        made = walk(site, PLAIN, [A, A])
        runs = []
        real = engine_module._MacroRun
        monkeypatch.setattr(engine_module, "_MacroRun",
                            lambda *a, **k: runs.append(a) or real(*a, **k))
        made.get(A)
        made.get(A)
        assert all(args[0] is made.cold.engine for args in runs)
        hits = made.memo.cache.stats()["hits"]
        assert hits == 3  # the first repeat, then one per reuse

    def test_input_order_is_part_of_the_request(self, site):
        # Repeats of a name become a list: their order is the page's.
        walk(site, REUSE_CASES["client list"].macro.unparse(), [
            [("pick", "a"), ("pick", "b")]] * 3 + [
            [("pick", "b"), ("pick", "a")]] * 2)

    def test_a_result_stored_since_is_not_the_one_read(self, site):
        # B's run stores the written table's result under the new
        # stamp: a current entry, but not the object A's page read.
        walk(site, PLAIN, [A, A, A, "direct", B, A])

    def test_a_write_no_request_saw_yet(self, site):
        # The entry A read is still there, under the old stamp.
        for write in ("direct", "insert", "second"):
            walk(site, PLAIN, [A, A, A, write, A, A])

    def test_an_edited_macro_is_a_new_program(self, site):
        walk(site, PLAIN, [A, A, A, "edit", A, A, "edit", A])

    def test_escaping_is_part_of_the_page(self, site):
        walk(site, PLAIN.replace("$(V2)", "<$(V2)>"),
             [A, A, A, "escape", A, A, "escape", A])

    def test_a_page_that_runs_an_executable_variable_is_never_kept(
            self, site):
        text = ('%DEFINE stamp = %EXEC "echo page"\n' + PLAIN).replace(
            "<P>$(who)", "<P>$(who) $(stamp)")
        made = walk(site, text, [A, A, A, A])
        assert b"#5" in made.get(A)[2]  # every request ran it

    def test_a_page_whose_result_was_evicted_is_run_again(self, site):
        made = walk(site, PLAIN, [A, A])
        cache = made.memo.cache
        ((_, page),) = cache._pages.values()
        (entry_key,) = cache._entries
        # Dropped as a stale entry is: a lookup under another stamp.
        assert cache.get(*entry_key, object()) is None
        gc.collect()
        assert page.reads[0][1]() is None  # the page kept nothing alive
        before = cache.stats()
        made.get(A)
        after = cache.stats()
        assert after["misses"] == before["misses"] + 1  # the SQL ran
        assert after["stores"] == before["stores"] + 1
        assert after["hits"] == before["hits"]

    def test_only_auto_commit_pages_are_kept(self, site):
        made = walk(site, PLAIN, [A, A, A],
                    mode=TransactionMode.SINGLE)
        assert not made.memo.cache._pages

    def test_input_pages_are_kept_from_the_first_run(self, site):
        made = walk(site, PLAIN + "%HTML_INPUT{<P>$(who)</P>%}\n",
                    [A, A, "edit", A, A],
                    command=MacroCommand.INPUT)
        assert len(made.memo.cache._pages) == 2  # one per program


class TestTheSharedPage:
    """Nothing a response path does to its page reaches the next."""

    def test_answers_share_immutable_parts(self, site):
        made = walk(site, PLAIN, [A, A])
        engine = made.memo.engine
        macro = made.memo.library.load("page.d2w")
        first = engine.execute(macro, "report", A)
        second = engine.execute(macro, "report", A)
        assert first is not second
        assert type(first.parts) is tuple and first.parts is second.parts
        first.statements.append("changed")
        first.rows = -1
        third = engine.execute(macro, "report", A)
        assert third.statements == second.statements != first.statements
        assert third.rows == second.rows == 2

    def test_head_and_another_charset_leave_the_page_alone(self, site):
        made = walk(site, PLAIN.replace("$(who)", "$(who) é"), [A, A])
        gateway = CgiGateway()
        gateway.install("db2www", made.memo.program)
        router = Router(gateway=gateway)
        target = "/cgi-bin/db2www/page.d2w/report?who=a"
        full = router.handle(HttpRequest(target=target)).body
        assert router.handle(HttpRequest(method="HEAD",
                                         target=target)).body == b""
        assert router.handle(HttpRequest(target=target)).body == full
        latin = Db2WwwProgram(made.memo.engine, made.memo.library,
                              charset="latin-1")
        assert request(latin, "page.d2w", "report", A)[2] == \
            full.decode("utf-8").encode("latin-1")
        assert router.handle(HttpRequest(target=target)).body == full


class TestObservedAsBefore:
    def test_a_reused_page_leaves_its_statements_spans(self, site):
        made = walk(site, PLAIN, [A, A])
        TRACER.enable()
        try:
            with TRACER.span("request") as root:
                made.memo.program.run(CgiRequest(environ=CgiEnvironment(
                    path_info="/page.d2w/report", query_string="who=a")))
        finally:
            TRACER.disable()
        (span,) = [child for child in root.walk()
                   if child.name == "sql.execute"]
        assert span.attrs["cached"] is True
        assert span.attrs["digest"]
        assert span.attrs["database"] == DATABASE
        assert span.attrs["rows"] == 2
        assert "substitute" not in {child.name for child in root.walk()}

    def test_a_spent_deadline_is_checked_before_reuse(self, site):
        made = walk(site, PLAIN, [A, A])
        made.memo.engine.config.request_deadline = 0.0
        status, _, body = request(made.memo.program, "page.d2w",
                                  "report", A)
        assert status == 504, body


class TestTheBudget:
    """Pages live in the query cache's LRU budget, behind results."""

    def test_a_page_never_evicts_a_result(self):
        cache = QueryResultCache(max_entries=2)
        for sql in ("a", "b"):
            cache.put("db", f"SELECT {sql}", 1, result(sql))
        assert not cache.put_page("page", object())
        assert len(cache) == 2

    def test_a_result_evicts_pages_first(self):
        cache = QueryResultCache(max_entries=3)
        cache.put("db", "SELECT a", 1, result("a"))
        for page in ("p1", "p2", "p3"):  # p3 evicts p1, not a result
            assert cache.put_page(page, page)
        assert cache.page("p1") is None and len(cache) == 1
        cache.put("db", "SELECT b", 1, result("b"))
        cache.put("db", "SELECT c", 1, result("c"))
        assert len(cache) == 3 and cache.stats()["evictions"] == 0
        assert cache.page("p2") is cache.page("p3") is None

    def test_pages_go_with_their_database(self):
        cache = QueryResultCache()
        cache.put_page("mine", "page", frozenset({"db"}))
        cache.put_page("other", "page", frozenset({"elsewhere"}))
        cache.invalidate_database("db")
        assert cache.page("mine") is None and cache.page("other") == "page"
        cache.clear()
        assert cache.page("other") is None

    def test_peek_counts_nothing(self):
        cache = QueryResultCache()
        kept = result("a")
        cache.put("db", "SELECT a", 1, kept)
        assert cache.peek("db", "SELECT a", 1) is kept
        assert cache.peek("db", "SELECT a", 2) is None
        assert cache.peek("db", "SELECT b", 1) is None
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == stats["invalidations"] == 0
        assert stats["entries"] == 1  # a stale entry is get()'s to drop


def result(name):
    return ExecutionResult(sql=f"SELECT {name}", columns=["x"],
                           rows=[(name,)], is_query=True)


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------

@st.composite
def page_sequences(draw):
    """A macro, a few requests (one of them also in another input
    order) and a sequence of steps over them: mostly requests, so
    pages repeat, with writes and edits in between."""
    case = draw(st.one_of(
        st.sampled_from(sorted(PAGE_CASES)).map(PAGE_CASES.get),
        whole_cases()))
    pool = list(case.requests[:3])
    pool.append(list(draw(st.permutations(max(pool, key=len)))))
    request = st.sampled_from(pool)
    steps = draw(st.lists(st.one_of(
        request, request, request, st.sampled_from(WRITES)),
        min_size=3, max_size=16))
    return case, steps


def check_sequence(root, drawn):
    """Serve one drawn sequence on a fresh site in the directory
    ``root`` (its macro files are overwritten, not removed)."""
    case, steps = drawn
    root.mkdir(exist_ok=True)
    made = Site(root, case.macro.unparse(), rows=case.rows,
                mode=case.mode, command=case.command)
    try:
        with no_ambient_faults():
            for step in steps:
                if isinstance(step, str):
                    made.step(step)
                else:
                    made.get(step)
    finally:
        made.close()


@settings(max_examples=120, deadline=None)
@given(page_sequences())
def test_reused_pages_match_a_cold_engine(tmp_path_factory, drawn):
    check_sequence(tmp_path_factory.getbasetemp() / "pages", drawn)
