"""Gateway facade: registry, macro SQL sessions, execution results."""

import pytest

from repro.errors import SQLError, SQLObjectError
from repro.sql.connection import Connection, MemoryDatabase
from repro.sql.cursor import value_to_text
from repro.sql.gateway import (
    DatabaseRegistry,
    ExecutionResult,
    MacroSqlSession,
)
from repro.sql.transactions import TransactionMode


@pytest.fixture()
def registry():
    reg = DatabaseRegistry()
    db = reg.register_memory("MAIN")
    with db.connect() as conn:
        conn.executescript(
            "CREATE TABLE v (n INTEGER, s TEXT);"
            "INSERT INTO v VALUES (1, 'a'), (2, 'b');")
    return reg


class TestRegistry:
    def test_register_and_connect(self, registry):
        conn = registry.connect("MAIN")
        assert conn.execute("SELECT COUNT(*) FROM v").fetchone() == (2,)
        conn.close()
        assert "MAIN" in registry
        assert registry.names() == ["MAIN"]

    def test_unknown_database(self, registry):
        with pytest.raises(SQLObjectError) as excinfo:
            registry.connect("NOPE")
        assert excinfo.value.sqlstate == "08001"

    def test_register_path(self, tmp_path, registry):
        path = str(tmp_path / "disk.db")
        registry.register_path("DISK", path)
        conn = registry.connect("DISK")
        conn.executescript("CREATE TABLE d (x); INSERT INTO d VALUES (9);")
        conn.close()
        conn2 = registry.connect("DISK")
        assert conn2.execute("SELECT x FROM d").fetchone() == (9,)
        conn2.close()

    def test_register_factory(self, registry):
        db = MemoryDatabase()
        registry.register_factory("FACT", db.connect)
        conn = registry.connect("FACT")
        conn.execute("SELECT 1")
        conn.close()


class TestMacroSqlSession:
    def test_query_result(self, registry):
        with MacroSqlSession(registry.connect("MAIN")) as session:
            result = session.execute("SELECT n, s FROM v ORDER BY n")
        assert result.is_query
        assert result.columns == ["n", "s"]
        assert result.rows == [(1, "a"), (2, "b")]
        assert result.row_total == 2

    def test_update_result(self, registry):
        with MacroSqlSession(registry.connect("MAIN")) as session:
            result = session.execute("UPDATE v SET s = 'z' WHERE n = 1")
        assert not result.is_query
        assert result.rowcount == 1

    def test_statement_log(self, registry):
        session = MacroSqlSession(registry.connect("MAIN"))
        session.execute("SELECT 1")
        with pytest.raises(SQLError):
            session.execute("BROKEN")
        session.finish(success=False)
        assert session.statement_log == ["SELECT 1", "BROKEN"]

    def test_single_mode_marks_failed(self, registry):
        session = MacroSqlSession(registry.connect("MAIN"),
                                  mode=TransactionMode.SINGLE)
        session.execute("INSERT INTO v VALUES (3, 'c')")
        with pytest.raises(SQLError):
            session.execute("INSERT INTO nope VALUES (1)")
        assert session.failed
        session.finish(success=False)
        conn = registry.connect("MAIN")
        assert conn.execute(
            "SELECT COUNT(*) FROM v").fetchone() == (2,)  # rolled back
        conn.close()

    def test_finish_closes_owned_connection(self, registry):
        conn = registry.connect("MAIN")
        MacroSqlSession(conn).finish()
        assert conn.closed

    def test_finish_keeps_borrowed_connection(self, registry):
        conn = registry.connect("MAIN")
        MacroSqlSession(conn, owns_connection=False).finish()
        assert not conn.closed
        conn.close()


class TestExecutionResult:
    def test_iter_text_rows(self):
        result = ExecutionResult(
            sql="q", columns=["a", "b"],
            rows=[(None, 1.0), (2.5, b"bytes")], is_query=True)
        assert list(result.iter_text_rows()) == [
            ["", "1"], ["2.5", "bytes"]]


class TestValueToText:
    @pytest.mark.parametrize("value,expected", [
        (None, ""),
        (5, "5"),
        (5.0, "5"),
        (5.25, "5.25"),
        ("text", "text"),
        (b"caf\xc3\xa9", "café"),
    ])
    def test_rendering(self, value, expected):
        assert value_to_text(value) == expected


class TestOneConnectionPath:
    """Every registry leases from a lazily created pool per database."""

    def test_faults_reach_the_next_lease(self, registry):
        registry.connect("MAIN").close()  # the pool holds it, idle
        registry.inject_faults("down")
        with pytest.raises(SQLError, match="injected outage"):
            registry.connect("MAIN")

    def test_a_lease_out_while_faults_are_wired_is_not_reused(self,
                                                              registry):
        held = registry.connect("MAIN")
        registry.inject_faults("down")
        held.close()
        assert registry.pool("MAIN").stats["idle"] == 0
        with pytest.raises(SQLError, match="injected outage"):
            registry.connect("MAIN")

    def test_a_site_opens_one_connection_for_many_reports(
            self, tmp_path, monkeypatch):
        """Assembled as the benchmark's in-process stack is (a plain
        registry, a file, the query cache, ``build_site``): ten report
        requests, each a cache miss, open one connection."""
        import sqlite3
        from contextlib import closing

        from repro.apps import urlquery
        from repro.apps.datasets import seed_urldb
        from repro.apps.site import build_site
        from repro.core.engine import EngineConfig, MacroEngine
        from repro.core.macrofile import MacroLibrary
        from repro.http.message import HttpRequest
        from repro.sql import gateway
        from repro.sql.querycache import QueryResultCache

        path = tmp_path / "urldb.sqlite"
        with closing(sqlite3.connect(path)) as conn:
            seed_urldb(conn, 40)
            conn.commit()
        (tmp_path / urlquery.MACRO_NAME).write_text(
            urlquery.URLQUERY_MACRO, encoding="utf-8")
        opened = []
        monkeypatch.setattr(gateway, "Connection", lambda *args: opened
                            .append(args) or Connection(*args))
        registry = DatabaseRegistry()
        registry.register_path(urlquery.DATABASE_NAME, str(path))
        cache = QueryResultCache(max_entries=128)
        site = build_site(
            MacroEngine(registry, config=EngineConfig(query_cache=cache)),
            MacroLibrary(tmp_path, stat_ttl=1.0))
        for search in "abcdefghij":
            raw = (f"GET /cgi-bin/db2www/{urlquery.MACRO_NAME}/report"
                   f"?SEARCH={search}&USE_URL=yes&DBFIELDS=title "
                   "HTTP/1.1\r\n\r\n").encode()
            assert site.router.handle(HttpRequest.parse(raw)).status == 200
        registry.close_all()
        assert cache.stats()["misses"] == 10
        assert opened == [(str(path),)]


class TestUnregister:
    def test_unknown_name_is_08001(self, registry):
        with pytest.raises(SQLObjectError) as excinfo:
            registry.unregister("NOPE")
        assert excinfo.value.sqlstate == "08001"

    def test_unregister_removes_the_name(self, registry):
        registry.unregister("MAIN")
        assert "MAIN" not in registry
        with pytest.raises(SQLObjectError):
            registry.connect("MAIN")

    def test_refused_while_connection_active(self, registry):
        conn = registry.connect("MAIN")
        try:
            with pytest.raises(SQLObjectError) as excinfo:
                registry.unregister("MAIN")
            assert excinfo.value.sqlstate == "55006"
            assert "MAIN" in registry
        finally:
            conn.close()
        # Closing the last connection releases the refusal.
        assert registry.active_connections("MAIN") == 0
        registry.unregister("MAIN")

    def test_direct_connections_are_tracked(self, registry):
        assert registry.active_connections("MAIN") == 0
        conn = registry.connect("MAIN")
        assert registry.active_connections("MAIN") == 1
        conn.close()
        assert registry.active_connections("MAIN") == 0
        # Double close must not underflow the counter.
        conn.close()
        assert registry.active_connections("MAIN") == 0

    def test_reregistration_mints_fresh_generation(self, registry):
        old = registry.generation("MAIN")
        old.bump()
        registry.unregister("MAIN")
        registry.register_memory("MAIN")
        fresh = registry.generation("MAIN")
        assert fresh is not old

    def test_unregister_purges_cache_namespace(self, registry):
        from repro.sql.querycache import QueryResultCache
        cache = QueryResultCache()
        stamp = registry.generation("MAIN").stamp
        result = ExecutionResult(sql="SELECT 1", columns=["x"],
                                 rows=[(1,)], is_query=True)
        cache.put("MAIN", "SELECT 1", stamp, result)
        cache.put("OTHER", "SELECT 1", stamp, result)
        registry.unregister("MAIN", cache=cache)
        assert cache.get("MAIN", "SELECT 1", stamp) is None
        assert cache.get("OTHER", "SELECT 1", stamp) is not None


class TestScopedRegistry:
    def test_resolve_prefixes_the_namespace(self, registry):
        from repro.sql.gateway import ScopedDatabaseRegistry
        scoped = ScopedDatabaseRegistry(registry, "alpha")
        assert scoped.resolve("SHOP") == "alpha/SHOP"
        assert scoped.physical() is registry
        assert registry.resolve("SHOP") == "SHOP"
        assert registry.physical() is registry

    def test_bad_namespace_rejected(self, registry):
        from repro.sql.gateway import ScopedDatabaseRegistry
        with pytest.raises(ValueError):
            ScopedDatabaseRegistry(registry, "a/b")
        with pytest.raises(ValueError):
            ScopedDatabaseRegistry(registry, "")

    def test_same_name_two_scopes_are_disjoint(self, registry):
        from repro.sql.gateway import ScopedDatabaseRegistry
        alpha = ScopedDatabaseRegistry(registry, "alpha")
        beta = ScopedDatabaseRegistry(registry, "beta")
        db_a = alpha.register_memory("SHOP")
        db_b = beta.register_memory("SHOP")
        with db_a.connect() as conn:
            conn.executescript(
                "CREATE TABLE t (x); INSERT INTO t VALUES (1);")
        with db_b.connect() as conn:
            conn.executescript(
                "CREATE TABLE t (x); INSERT INTO t VALUES (2);")
        conn_a = alpha.connect("SHOP")
        conn_b = beta.connect("SHOP")
        try:
            assert conn_a.execute("SELECT x FROM t").fetchone() == (1,)
            assert conn_b.execute("SELECT x FROM t").fetchone() == (2,)
        finally:
            conn_a.close()
            conn_b.close()
        assert "SHOP" in alpha and "SHOP" in beta
        assert alpha.names() == ["SHOP"]
        # The physical registry sees both, under their scoped names.
        assert registry.names() == ["MAIN", "alpha/SHOP", "beta/SHOP"]

    def test_scoped_unregister_strips_the_prefix(self, registry):
        from repro.sql.gateway import ScopedDatabaseRegistry
        scoped = ScopedDatabaseRegistry(registry, "alpha")
        scoped.register_memory("SHOP")
        scoped.unregister("SHOP")
        assert "SHOP" not in scoped
        assert "alpha/SHOP" not in registry
