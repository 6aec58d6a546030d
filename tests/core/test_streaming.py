"""A page past the spill budget: the rest streams off the live cursor.

The contract under test: a result of more than ``SPILL_ROWS`` rows
makes the page stream from that statement on (``MacroResult.rest``),
and the page it streams is *exactly* the buffered one — one processing
code path — while the rows past the budget ride the live cursor.  The
``spill`` fixture shrinks the budget so the three-row shop spills.
"""

import gc
import sqlite3

import pytest

from repro.core import parse_macro
from repro.core.engine import EngineConfig, MacroCommand, MacroEngine
from repro.core.report import _ROW_BLOCK
from repro.errors import CircularReferenceError, MissingSectionError
from repro.sql.cursor import Cursor
from repro.sql.gateway import DatabaseRegistry, MacroSqlSession
from repro.sql.querycache import QueryResultCache
from repro.sql.transactions import TransactionScope
from tests.core.test_compiled_oracle import FailingConnection

MACRO = """
%DEFINE DATABASE = "SHOP"
%SQL{
SELECT name, qty FROM items ORDER BY name
%SQL_REPORT{
<UL>
%ROW{<LI>$(V_name): $(V_qty)
%}
</UL>
%}
%}
%HTML_INPUT{<FORM><INPUT NAME="q"></FORM>%}
%HTML_REPORT{<H1>Stock</H1>
%EXEC_SQL
<P>total: $(ROW_NUM)</P>
%}
"""

DEFAULT_FORMAT_MACRO = """
%DEFINE DATABASE = "SHOP"
%SQL{SELECT name, qty FROM items ORDER BY name%}
%HTML_REPORT{%EXEC_SQL%}
"""

CONTENT_TYPE_MACRO = """
%DEFINE DATABASE = "SHOP"
%DEFINE CONTENT_TYPE = "text/plain"
%SQL{SELECT name FROM items ORDER BY name
%SQL_REPORT{%ROW{$(V_name)
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""


def page(result):
    """The whole page, its rest read in chunks (which settles it)."""
    return b"".join(result.parts + tuple(result.rest or ())).decode()


class TestStreamEqualsBuffered:
    @pytest.mark.parametrize("source", [MACRO, DEFAULT_FORMAT_MACRO],
                             ids=["custom-report", "default-format"])
    def test_report_chunks_join_to_buffered_html(self, shop_engine,
                                                 source, spill):
        macro = parse_macro(source)
        buffered = shop_engine.execute_report(macro)
        assert buffered.rest is None
        spill()
        spilled = shop_engine.execute_report(macro)
        assert spilled.rest is not None
        assert page(spilled) == buffered.html

    def test_input_mode_streams_identically(self, shop_engine, spill):
        """Input mode runs no SQL, so nothing can spill."""
        macro = parse_macro(MACRO)
        buffered = shop_engine.execute_input(macro)
        spill(0)
        result = shop_engine.execute(macro, MacroCommand.INPUT)
        assert result.rest is None and result.html == buffered.html

    def test_result_fields_final_after_exhaustion(self, shop_engine,
                                                  spill):
        spill()
        result = shop_engine.execute_report(parse_macro(MACRO))
        assert result.rows == 0  # the spilled rows are still to come
        page(result)
        assert result.statements == [
            "SELECT name, qty FROM items ORDER BY name"]
        assert result.ok and result.rows == 3

    def test_string_command_accepted(self, shop_engine, spill):
        spill()
        result = shop_engine.execute(parse_macro(MACRO), "report")
        assert "<H1>Stock</H1>" in page(result)


class TestLiveCursor:
    def test_row_chunks_are_bounded_blocks_off_a_live_cursor(self, spill):
        """Past the budget, rows stream in chunks of at most
        ``_ROW_BLOCK``: the first leaves once the budget's rows (and one
        more) are fetched, while the cursor still has rows to give, and
        the chunks join to the buffered page."""
        total = 2 * _ROW_BLOCK + 10
        registry = DatabaseRegistry()
        database = registry.register_memory("SHOP")
        with database.connect() as conn:
            conn.execute("CREATE TABLE items (name TEXT, qty INTEGER)")
            for index in range(total):
                conn.execute("INSERT INTO items VALUES (?, ?)",
                             (f"item{index:04}", index))
            conn.commit()
        fetched = []  # one entry per fetch; fail_at=0 never fails
        registry.register_factory(
            "SHOP", lambda: FailingConnection(database.uri, 0, fetched))
        engine = MacroEngine(registry)
        macro = parse_macro(MACRO)
        buffered = engine.execute_report(macro).html
        fetched.clear()
        spill(_ROW_BLOCK // 2)
        result = engine.execute_report(macro)
        assert len(fetched) == _ROW_BLOCK // 2 + 1
        chunks = []
        for chunk in map(bytes.decode, result.rest):
            if chunk.startswith("<LI>") and not any(
                    earlier.startswith("<LI>") for earlier in chunks):
                assert len(fetched) == _ROW_BLOCK  # ...of `total`
            chunks.append(chunk)
        assert len(fetched) == total + 1  # the end-of-result fetch
        row_chunks = [c for c in chunks if c.startswith("<LI>")]
        assert [c.count("<LI>") for c in row_chunks] == [
            _ROW_BLOCK, _ROW_BLOCK, 10]
        assert b"".join(result.parts).decode() + "".join(chunks) \
            == buffered

    def test_rowcount_correct_at_stream_end(self, shop_engine, spill):
        spill()
        assert "total: 3" in page(
            shop_engine.execute_report(parse_macro(MACRO)))

    def test_streaming_bypasses_query_cache(self, shop_registry, spill):
        cache = QueryResultCache()
        engine = MacroEngine(shop_registry,
                             config=EngineConfig(query_cache=cache))
        macro = parse_macro(MACRO)
        spill(2)  # one row past the budget
        for _ in range(3):
            page(engine.execute_report(macro))
        assert cache.stats()["entries"] == 0
        assert cache.stats()["pages"] == 0
        # ... while a result at the budget still populates it
        spill(3)
        engine.execute_report(macro)
        assert cache.stats()["entries"] == 1

    def test_abandoned_stream_finishes_the_session(self, shop_engine,
                                                   spill, monkeypatch):
        """Closing mid-page completes the transaction bracket, and so
        does closing before the first chunk of the rest is read."""
        events = []
        for owner, name in [(Cursor, "close"),
                            (TransactionScope, "after_statement"),
                            (MacroSqlSession, "finish")]:
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                events.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        macro = parse_macro(MACRO)
        spill()
        for read in (1, 0):
            events.clear()
            result = shop_engine.execute_report(macro)
            rest = result.rest
            for _ in range(read):
                next(rest)  # a chunk is out, the cursor is live
            assert events == []
            rest.close()
            assert events == ["close", "after_statement", "finish"]
        # the engine is reusable immediately; nothing leaks
        assert shop_engine.execute_report(macro).ok


    def test_a_result_dropped_unread_settles_without_the_collector(
            self, tmp_path, monkeypatch, spill):
        """Nothing refers back to a spilled result: dropping it unread
        frees its rest at once, which closes the run — the cursor, its
        read bracket and the pooled connection settle with the cycle
        collector off."""
        path = tmp_path / "shop.sqlite"
        with sqlite3.connect(path) as seed:
            seed.execute("CREATE TABLE items (name TEXT, qty INTEGER)")
            seed.executemany("INSERT INTO items VALUES (?, ?)",
                             [("bikes", 2), ("tents", 5), ("ropes", 9)])
        registry = DatabaseRegistry()
        registry.register_path("SHOP", str(path))
        registry.configure_pools(size=1)
        engine = MacroEngine(registry)
        macro = parse_macro(MACRO)
        assert engine.execute_report(macro).ok  # the pool's connection
        pool = registry.pool("SHOP")
        assert pool.stats["idle"] == 1
        events = []
        for owner, name in [(Cursor, "close"),
                            (TransactionScope, "after_statement"),
                            (MacroSqlSession, "finish")]:
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                events.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        spill()
        gc.collect()
        gc.disable()
        try:
            result = engine.execute_report(macro)
            assert result.rest is not None and pool.stats["idle"] == 0
            del result
            assert events == ["close", "after_statement", "finish"]
            assert pool.stats["idle"] == 1  # the lease is back
        finally:
            gc.enable()
        registry.close_all()


class TestContentType:
    def test_declared_content_type_pinned_before_first_chunk(
            self, shop_engine, spill):
        spill()
        result = shop_engine.execute_report(parse_macro(CONTENT_TYPE_MACRO))
        assert result.rest is not None
        assert result.content_type == "text/plain"
        result.rest.close()

    def test_default_content_type(self, shop_engine, spill):
        spill()
        result = shop_engine.execute_report(parse_macro(MACRO))
        assert result.rest is not None
        assert result.content_type == "text/html"
        result.rest.close()


CYCLE_MACRO = """
%DEFINE DATABASE = "SHOP"
%DEFINE a = "$(b)"
%DEFINE b = "$(a)"
%SQL{SELECT name FROM items ORDER BY name
%SQL_REPORT{%ROW{<LI>$(V1) $(a)
%}%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""


class TestErrors:
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    def test_error_mid_row_settles_the_cursor_before_the_connection(
            self, tmp_path, monkeypatch, spill):
        """A non-SQL error at row time (here a reference cycle) must
        close the live cursor and its read bracket *before* the session
        gives the connection back — when a connection was closed with
        its request, the late close used to raise "Cannot operate on a
        closed database" from the abandoned generator, and the bracket
        never closed."""
        path = tmp_path / "shop.sqlite"
        with sqlite3.connect(path) as seed:
            seed.execute("CREATE TABLE items (name TEXT)")
            seed.executemany("INSERT INTO items VALUES (?)",
                             [("bikes",), ("tents",)])
        registry = DatabaseRegistry()
        registry.register_path("SHOP", str(path))
        registry.configure_pools(size=1)
        gc.collect()  # no earlier test's garbage settles under the spies
        events = []
        for owner, name in [(Cursor, "close"),
                            (TransactionScope, "after_statement"),
                            (MacroSqlSession, "finish")]:
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                events.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        spill()
        result = MacroEngine(registry).execute_report(
            parse_macro(CYCLE_MACRO))
        try:
            page(result)
        except CircularReferenceError:
            pass  # ...and with it the traceback that kept frames alive
        else:
            pytest.fail("the row's reference cycle went unnoticed")
        del result
        gc.collect()
        assert events == ["close", "after_statement", "finish"]
        registry.close_all()

    def test_missing_section_raises_on_first_pull(self, shop_engine, spill):
        macro = parse_macro('%DEFINE x = "1"\n%HTML_INPUT{[$(x)]%}')
        spill(0)
        with pytest.raises(MissingSectionError):
            shop_engine.execute_report(macro)

    def test_sql_error_block_streams_like_buffered(self, shop_engine,
                                                   spill):
        """A failing statement after the spill prints its error block in
        the rest, where the buffered page has it."""
        macro = parse_macro("""
%DEFINE DATABASE = "SHOP"
%SQL(fine){SELECT name FROM items ORDER BY name%}
%SQL(broken){SELECT broken syntax FROM nowhere
%SQL_MESSAGE{
default : "<P>query failed</P>" : continue
%}
%}
%HTML_REPORT{<H1>R</H1>%EXEC_SQL(fine)%EXEC_SQL(broken)<P>after</P>%}
""")
        buffered = shop_engine.execute_report(macro)
        spill()
        result = shop_engine.execute_report(macro)
        assert result.rest is not None
        text = page(result)
        assert text == buffered.html
        assert "query failed" in text
        assert "after" in text
        assert len(result.sql_errors) == 1
