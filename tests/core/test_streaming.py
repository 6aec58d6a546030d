"""The streaming render path: execute_stream vs the buffered engine.

The contract under test: the buffered path is *exactly* the join of
the stream — one processing code path, two consumption modes — while
the stream rides the live cursor (rows never materialised up front).
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


def drain(stream):
    return "".join(stream.chunks)


class TestStreamEqualsBuffered:
    @pytest.mark.parametrize("source", [MACRO, DEFAULT_FORMAT_MACRO],
                             ids=["custom-report", "default-format"])
    def test_report_chunks_join_to_buffered_html(self, shop_engine,
                                                 source):
        macro = parse_macro(source)
        buffered = shop_engine.execute_report(macro)
        stream = shop_engine.execute_report_stream(macro)
        assert drain(stream) == buffered.html

    def test_input_mode_streams_identically(self, shop_engine):
        macro = parse_macro(MACRO)
        buffered = shop_engine.execute_input(macro)
        stream = shop_engine.execute_stream(macro, MacroCommand.INPUT)
        assert drain(stream) == buffered.html

    def test_result_fields_final_after_exhaustion(self, shop_engine):
        macro = parse_macro(MACRO)
        stream = shop_engine.execute_report_stream(macro)
        drain(stream)
        assert stream.result.statements == [
            "SELECT name, qty FROM items ORDER BY name"]
        assert stream.result.ok
        assert stream.result.html == ""  # the chunks were the page

    def test_string_command_accepted(self, shop_engine):
        macro = parse_macro(MACRO)
        stream = shop_engine.execute_stream(macro, "report")
        assert "<H1>Stock</H1>" in drain(stream)


class TestLiveCursor:
    def test_row_chunks_are_bounded_blocks_off_a_live_cursor(self):
        """Rows stream in chunks of at most ``_ROW_BLOCK``: the first
        leaves while the cursor still has rows to give, and the chunks
        join to the buffered page."""
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
        chunks = []
        for chunk in engine.execute_report_stream(macro).chunks:
            if chunk.startswith("<LI>") and not any(
                    earlier.startswith("<LI>") for earlier in chunks):
                assert len(fetched) == _ROW_BLOCK  # ...of `total`
            chunks.append(chunk)
        assert len(fetched) == total + 1  # the end-of-result fetch
        row_chunks = [c for c in chunks if c.startswith("<LI>")]
        assert [c.count("<LI>") for c in row_chunks] == [
            _ROW_BLOCK, _ROW_BLOCK, 10]
        assert "".join(chunks) == engine.execute_report(macro).html

    def test_rowcount_correct_at_stream_end(self, shop_engine):
        macro = parse_macro(MACRO)
        page = drain(shop_engine.execute_report_stream(macro))
        assert "total: 3" in page

    def test_streaming_bypasses_query_cache(self, shop_registry):
        cache = QueryResultCache()
        engine = MacroEngine(shop_registry,
                             config=EngineConfig(query_cache=cache))
        macro = parse_macro(MACRO)
        drain(engine.execute_report_stream(macro))
        assert cache.stats()["entries"] == 0
        # ... while the buffered path still populates it
        engine.execute_report(macro)
        assert cache.stats()["entries"] == 1

    def test_abandoned_stream_finishes_the_session(self, shop_engine):
        """Closing mid-page completes the transaction bracket."""
        macro = parse_macro(MACRO)
        stream = shop_engine.execute_report_stream(macro)
        iterator = stream.chunks
        next(iterator)  # header chunk is out, cursor is live
        iterator.close()
        # the engine is reusable immediately; nothing leaks
        result = shop_engine.execute_report(macro)
        assert result.ok


class TestContentType:
    def test_declared_content_type_pinned_before_first_chunk(
            self, shop_engine):
        macro = parse_macro(CONTENT_TYPE_MACRO)
        stream = shop_engine.execute_report_stream(macro)
        next(stream.chunks)
        assert stream.result.content_type == "text/plain"

    def test_default_content_type(self, shop_engine):
        macro = parse_macro(MACRO)
        stream = shop_engine.execute_report_stream(macro)
        next(stream.chunks)
        assert stream.result.content_type == "text/html"


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
    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["unpooled", "pooled"])
    def test_error_mid_row_settles_the_cursor_before_the_connection(
            self, tmp_path, monkeypatch, pooled):
        """A non-SQL error at row time (here a reference cycle) must
        close the live cursor and its read bracket *before* the session
        gives the connection back — on an unpooled SQLite file the late
        close used to raise "Cannot operate on a closed database" from
        the abandoned generator, and the bracket never closed."""
        path = tmp_path / "shop.sqlite"
        with sqlite3.connect(path) as seed:
            seed.execute("CREATE TABLE items (name TEXT)")
            seed.executemany("INSERT INTO items VALUES (?)",
                             [("bikes",), ("tents",)])
        registry = DatabaseRegistry()
        registry.register_path("SHOP", str(path))
        if pooled:
            registry.enable_pools(size=1)
        events = []
        for owner, name in [(Cursor, "close"),
                            (TransactionScope, "after_statement"),
                            (MacroSqlSession, "finish")]:
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                events.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        stream = MacroEngine(registry).execute_report_stream(
            parse_macro(CYCLE_MACRO))
        try:
            drain(stream)
        except CircularReferenceError:
            pass  # ...and with it the traceback that kept frames alive
        else:
            pytest.fail("the row's reference cycle went unnoticed")
        del stream
        gc.collect()
        assert events == ["close", "after_statement", "finish"]
        registry.close_all()

    def test_missing_section_raises_on_first_pull(self, shop_engine):
        macro = parse_macro('%DEFINE x = "1"\n%HTML_INPUT{[$(x)]%}')
        stream = shop_engine.execute_report_stream(macro)
        with pytest.raises(MissingSectionError):
            drain(stream)

    def test_sql_error_block_streams_like_buffered(self, shop_engine):
        macro = parse_macro("""
%DEFINE DATABASE = "SHOP"
%SQL{SELECT broken syntax FROM nowhere
%SQL_MESSAGE{
default : "<P>query failed</P>" : continue
%}
%}
%HTML_REPORT{<H1>R</H1>%EXEC_SQL<P>after</P>%}
""")
        buffered = shop_engine.execute_report(macro)
        page = drain(shop_engine.execute_report_stream(macro))
        assert page == buffered.html
        assert "query failed" in page
        assert "after" in page
