"""Query-result cache: LRU semantics, write-generation invalidation,
transaction-mode bypass, and the counters the metrics surfaces read."""

import pytest

from repro.core.engine import EngineConfig, MacroEngine
from repro.core.parser import parse_macro
from repro.errors import CircuitOpenError, DeadlineExceededError
from repro.sql.connection import MemoryDatabase
from repro.sql.gateway import (DatabaseRegistry, ExecutionResult,
                               MacroSqlSession)
from repro.sql.querycache import QueryResultCache, WriteGeneration
from repro.sql.transactions import TransactionMode


def query_result(sql="SELECT 1", rows=((1,),)):
    return ExecutionResult(sql=sql, columns=["c"], rows=list(rows),
                           rowcount=len(rows), is_query=True)


class TestWriteGeneration:
    def test_bump_is_monotonic(self):
        gen = WriteGeneration()
        assert gen.value == 0
        assert gen.bump() == 1
        assert gen.bump() == 2
        assert gen.value == 2


class TestQueryResultCacheUnit:
    def test_miss_then_hit(self):
        cache = QueryResultCache()
        assert cache.get("DB", "SELECT 1", 0) is None
        result = query_result()
        assert cache.put("DB", "SELECT 1", 0, result)
        assert cache.get("DB", "SELECT 1", 0) is result
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1,
                                 "evictions": 0, "invalidations": 0,
                                 "entries": 1, "pages": 0, "page_hits": 0}

    def test_stale_generation_invalidates(self):
        cache = QueryResultCache()
        cache.put("DB", "SELECT 1", 3, query_result())
        assert cache.get("DB", "SELECT 1", 4) is None
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["entries"] == 0  # dropped, not retained stale

    def test_keys_scoped_by_database(self):
        cache = QueryResultCache()
        a, b = query_result(), query_result()
        cache.put("A", "SELECT 1", 0, a)
        cache.put("B", "SELECT 1", 0, b)
        assert cache.get("A", "SELECT 1", 0) is a
        assert cache.get("B", "SELECT 1", 0) is b

    def test_lru_eviction_order(self):
        cache = QueryResultCache(max_entries=2)
        cache.put("DB", "SELECT 1", 0, query_result("SELECT 1"))
        cache.put("DB", "SELECT 2", 0, query_result("SELECT 2"))
        cache.get("DB", "SELECT 1", 0)  # touch: SELECT 2 becomes LRU
        cache.put("DB", "SELECT 3", 0, query_result("SELECT 3"))
        assert cache.get("DB", "SELECT 1", 0) is not None
        assert cache.get("DB", "SELECT 2", 0) is None  # evicted
        assert cache.stats()["evictions"] == 1

    def test_refuses_non_query(self):
        cache = QueryResultCache()
        write = ExecutionResult(sql="INSERT INTO t VALUES (1)",
                                rowcount=1, is_query=False)
        assert not cache.put("DB", write.sql, 0, write)
        assert len(cache) == 0

    def test_refuses_pragma_and_explain(self):
        """PRAGMA/EXPLAIN return rows but read (or mutate) per-connection
        state, so their results must never be reused."""
        cache = QueryResultCache()
        for sql in ("PRAGMA user_version", "EXPLAIN SELECT 1"):
            assert not cache.put("DB", sql, 0, query_result(sql))
        assert len(cache) == 0

    def test_refuses_oversized_result(self):
        """Too large to hold is a result that spilled: its rows ride a
        live cursor and can be read only once."""
        cache = QueryResultCache()
        big = ExecutionResult(sql="SELECT big", columns=["c"],
                              is_query=True, row_iter=iter([(1,)]))
        assert not cache.put("DB", "SELECT big", 0, big)
        small = query_result(rows=[(1,), (2,)])
        assert cache.put("DB", "SELECT small", 0, small)

    def test_invalidate_database_is_scoped(self):
        cache = QueryResultCache()
        cache.put("A", "SELECT 1", 0, query_result())
        cache.put("B", "SELECT 1", 0, query_result())
        assert cache.invalidate_database("A") == 1
        assert cache.get("A", "SELECT 1", 0) is None
        assert cache.get("B", "SELECT 1", 0) is not None

    def test_hit_rate_and_reset(self):
        cache = QueryResultCache()
        assert cache.hit_rate == 0.0
        cache.put("DB", "SELECT 1", 0, query_result())
        cache.get("DB", "SELECT 1", 0)
        cache.get("DB", "SELECT 2", 0)
        assert cache.hit_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.stats()["hits"] == 0
        assert len(cache) == 1  # entries survive a stats reset

    def test_stamps_from_distinct_counters_never_alias(self):
        """Equal integer values from two different WriteGeneration
        counters must not validate each other's entries."""
        cache = QueryResultCache()
        gen_a, gen_b = WriteGeneration(), WriteGeneration()
        assert gen_a.value == gen_b.value == 0
        result_a = query_result()
        cache.put("DB", "SELECT 1", gen_a.stamp(), result_a)
        assert cache.get("DB", "SELECT 1", gen_b.stamp()) is None
        assert cache.get("DB", "SELECT 1", gen_a.stamp()) is None  # dropped

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            QueryResultCache(max_entries=0)


# ----------------------------------------------------------------------
# End-to-end through the engine
# ----------------------------------------------------------------------

READ_MACRO = """\
%DEFINE DATABASE = "INV"
%SQL{ SELECT id, label FROM stock ORDER BY id
%SQL_REPORT{%ROW{[$(V1):$(V2)]%}
%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""

WRITE_MACRO_TEMPLATE = """\
%DEFINE DATABASE = "INV"
%SQL{ {STATEMENT} %}
%HTML_REPORT{%EXEC_SQL done%}
"""


@pytest.fixture()
def setup():
    registry = DatabaseRegistry()
    db = registry.register_memory("INV")
    with db.connect() as conn:
        conn.executescript("""
            CREATE TABLE stock (id INTEGER, label TEXT);
            INSERT INTO stock VALUES (1, 'bolt'), (2, 'nut');
        """)
    cache = QueryResultCache()
    config = EngineConfig()
    config.query_cache = cache
    engine = MacroEngine(registry, config=config)
    return registry, db, cache, engine


def run_read(engine):
    return engine.execute_report(parse_macro(READ_MACRO), []).html


def run_write(engine, statement):
    macro = WRITE_MACRO_TEMPLATE.replace("{STATEMENT}", statement)
    return engine.execute_report(parse_macro(macro), []).html


class TestEngineIntegration:
    def test_repeated_select_hits_cache(self, setup):
        _, _, cache, engine = setup
        macro = parse_macro(READ_MACRO)
        first, second, third = (  # a miss; all hits, the page kept; reused
            engine.execute_report(macro, []).html for _ in range(3))
        assert first == second == third
        stats = cache.stats()
        assert stats == {"hits": 2, "misses": 1, "stores": 1,
                         "evictions": 0, "invalidations": 0, "entries": 1,
                         "pages": 1, "page_hits": 1}

    @pytest.mark.parametrize("statement,visible,gone", [
        ("INSERT INTO stock VALUES (3, 'washer')", "[3:washer]", None),
        ("UPDATE stock SET label = 'BOLT' WHERE id = 1",
         "[1:BOLT]", "[1:bolt]"),
        ("DELETE FROM stock WHERE id = 2", None, "[2:nut]"),
    ])
    def test_write_through_macro_invalidates(self, setup, statement,
                                             visible, gone):
        _, _, cache, engine = setup
        run_read(engine)  # populate
        run_write(engine, statement)
        html = run_read(engine)
        if visible:
            assert visible in html
        if gone:
            assert gone not in html
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["hits"] == 0  # stale entry never served

    def test_write_through_direct_connection_invalidates(self, setup):
        """Out-of-band writes through ``db.connect()`` (not the engine)
        still bump the adopted generation counter."""
        _, db, cache, engine = setup
        run_read(engine)
        with db.connect() as conn:
            conn.execute("INSERT INTO stock VALUES (9, 'direct')")
        html = run_read(engine)
        assert "[9:direct]" in html
        assert cache.stats()["invalidations"] == 1

    def test_single_mode_bypasses_cache(self, setup):
        registry, _, cache, _ = setup
        config = EngineConfig(transaction_mode=TransactionMode.SINGLE)
        config.query_cache = cache
        engine = MacroEngine(registry, config=config)
        run_read(engine)
        run_read(engine)
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["entries"] == 0

    def test_non_query_not_cached(self, setup):
        _, _, cache, engine = setup
        run_write(engine, "INSERT INTO stock VALUES (4, 'pin')")
        assert cache.stats()["stores"] == 0

    def test_no_cache_configured_still_works(self, setup):
        registry, _, _, _ = setup
        engine = MacroEngine(registry)  # default config: no cache
        assert "[1:bolt]" in run_read(engine)

    def test_read_during_uncommitted_write_never_served_after_commit(
            self, tmp_path):
        """The review-window race: a writer bumps the generation when its
        statement executes, a reader then snapshots the *pre-commit* data
        and caches it — the COMMIT-time bump must retire that entry, or
        every later read serves stale rows (file-backed database so the
        reader is not blocked by the open write transaction)."""
        registry = DatabaseRegistry()
        registry.register_path("INV", str(tmp_path / "race.db"))
        with registry.connect("INV") as conn:
            conn.executescript("""
                CREATE TABLE stock (id INTEGER, label TEXT);
                INSERT INTO stock VALUES (1, 'bolt'), (2, 'nut');
            """)
        cache = QueryResultCache()
        config = EngineConfig()
        config.query_cache = cache
        engine = MacroEngine(registry, config=config)

        writer = registry.connect("INV")
        writer.begin()
        writer.execute("UPDATE stock SET label = 'BOLT' WHERE id = 1")
        # Reader runs inside the writer's uncommitted window: it sees
        # (and caches) the old rows under the post-execute generation.
        assert "[1:bolt]" in run_read(engine)
        writer.commit()
        writer.close()
        # The commit bumped the generation again, so the windowed entry
        # is stale and the committed data is what every read now sees.
        assert "[1:BOLT]" in run_read(engine)
        assert cache.stats()["hits"] == 0  # stale entry never served

    def test_shared_cache_across_registries_does_not_collide(self):
        """Two engines over *separate* registries that register the same
        database name may share one cache: generation stamps embed the
        counter identity, so neither serves the other's rows."""
        cache = QueryResultCache()
        engines = []
        for label in ("alpha", "beta"):
            registry = DatabaseRegistry()
            db = registry.register_memory("INV")
            with db.connect() as conn:
                conn.executescript(f"""
                    CREATE TABLE stock (id INTEGER, label TEXT);
                    INSERT INTO stock VALUES (1, '{label}');
                """)
            config = EngineConfig()
            config.query_cache = cache
            engines.append(MacroEngine(registry, config=config))
        assert "[1:alpha]" in run_read(engines[0])
        assert "[1:beta]" in run_read(engines[1])
        assert cache.stats()["hits"] == 0


class TestLeaseOnFirstMiss:
    """A page whose every statement is a cache hit takes no connection:
    the session leases one at its first statement that is not a hit."""

    @staticmethod
    def counting(registry):
        """The registry's leases, one entry each as it is taken."""
        leases = []
        lease = registry.connect
        registry.connect = lambda *args, **kwargs: \
            leases.append(args) or lease(*args, **kwargs)
        return leases

    def test_a_repeated_cached_report_never_connects(self, setup):
        registry, _, cache, engine = setup
        connects = self.counting(registry)
        first = run_read(engine)
        assert len(connects) == 1
        for _ in range(3):
            assert run_read(engine) == first
        assert len(connects) == 1 and cache.stats()["hits"] == 3
        assert registry.active_connections("INV") == 0
        # A write needs the connection; the next read misses, leases
        # and sees the row.
        run_write(engine, "INSERT INTO stock VALUES (3, 'washer')")
        assert "[3:washer]" in run_read(engine)
        assert len(connects) == 3

    def test_pooled_all_hit_request_leases_nothing(self, setup):
        registry, _, _, engine = setup
        run_read(engine)
        leases = self.counting(registry)
        run_read(engine)
        assert leases == []
        run_write(engine, "DELETE FROM stock WHERE id = 2")
        assert leases == [("INV",)]

    def test_a_connection_with_its_own_counter_is_never_served_stale(self):
        """A factory whose connections carry their own write counter
        (``MemoryDatabase.connect`` registered as a factory): the lease
        points the connection at the counter the probe stamped with, so
        a write through it retires what was cached."""
        registry = DatabaseRegistry()
        db = MemoryDatabase()
        with db.connect() as conn:
            conn.executescript("""
                CREATE TABLE stock (id INTEGER, label TEXT);
                INSERT INTO stock VALUES (1, 'bolt');
            """)
        registry.register_factory("INV", db.connect)
        connects = self.counting(registry)
        cache = QueryResultCache()
        engine = MacroEngine(registry, config=EngineConfig(query_cache=cache))
        run_read(engine)
        run_read(engine)
        assert cache.stats()["hits"] == 1 and len(connects) == 1
        run_write(engine, "UPDATE stock SET label = 'BOLT' WHERE id = 1")
        assert "[1:BOLT]" in run_read(engine)

    def test_all_hit_page_is_served_while_the_breaker_is_open(self, setup):
        registry, _, _, engine = setup
        registry.enable_breakers(failure_threshold=1, reset_timeout=60)
        cached = run_read(engine)
        registry.breaker("INV").record_failure()
        assert run_read(engine) == cached  # no connection, no breaker
        with pytest.raises(CircuitOpenError):
            run_write(engine, "DELETE FROM stock")

    def test_closed_registry_refuses_at_the_lease(self, setup):
        registry, _, _, engine = setup
        cached = run_read(engine)
        registry.close_all()
        assert run_read(engine) == cached
        assert "08003" in run_write(engine, "DELETE FROM stock")

    def test_unknown_database_still_fails_at_the_first_statement(self):
        engine = MacroEngine(DatabaseRegistry(), config=EngineConfig(
            query_cache=QueryResultCache()))
        assert "08001" in run_read(engine)

    def test_single_mode_connects_at_the_first_statement(self, setup):
        registry, _, cache, _ = setup
        connects = self.counting(registry)
        engine = MacroEngine(registry, config=EngineConfig(
            query_cache=cache, transaction_mode=TransactionMode.SINGLE))
        run_read(engine)
        run_read(engine)
        assert len(connects) == 2

    @pytest.mark.parametrize("mode", list(TransactionMode))
    def test_a_spent_deadline_is_reported_before_any_lease(self, setup,
                                                          mode):
        registry, _, cache, _ = setup
        engine = MacroEngine(registry, config=EngineConfig(
            query_cache=cache, transaction_mode=mode,
            request_deadline=1e-9))
        with pytest.raises(DeadlineExceededError):
            run_read(engine)
        assert registry.active_connections("INV") == 0


class TestSessionLevel:
    def test_session_counts_its_hits(self, setup):
        registry, _, cache, _ = setup
        session = MacroSqlSession(registry.connect("INV"), cache=cache,
                                  database="INV")
        try:
            session.execute("SELECT id FROM stock ORDER BY id")
            assert session.cache_hits == 0
            session.execute("SELECT id FROM stock ORDER BY id")
            assert session.cache_hits == 1
            # statements_run still counts the cached statement.
            assert session.scope.statements_run == 2
        finally:
            session.finish()

    def test_pragma_bypasses_cache_and_always_executes(self, setup):
        """A PRAGMA is a query (it returns rows) but must never be
        cached: a side-effecting PRAGMA has to run on every request's
        connection, and a PRAGMA read must see the latest state."""
        registry, _, cache, _ = setup
        session = MacroSqlSession(registry.connect("INV"), cache=cache,
                                  database="INV")
        try:
            assert session.execute("PRAGMA user_version").rows == [(0,)]
            session.execute("PRAGMA user_version = 5")
            assert session.execute("PRAGMA user_version").rows == [(5,)]
            assert session.cache_hits == 0
            stats = cache.stats()
            assert stats["stores"] == 0 and stats["misses"] == 0
        finally:
            session.finish()

    def test_unregistered_connection_has_no_generation(self):
        """A bare connection outside any registry carries no generation,
        so the cache is (soundly) bypassed."""
        from repro.sql.connection import MemoryDatabase

        db = MemoryDatabase()
        with db.connect() as conn:
            conn.execute("CREATE TABLE t (x)")
        cache = QueryResultCache()
        raw = db.connect()
        raw.generation = None  # simulate a foreign connection
        session = MacroSqlSession(raw, cache=cache, database="X")
        try:
            session.execute("SELECT x FROM t")
            session.execute("SELECT x FROM t")
            assert session.cache_hits == 0
            assert cache.stats()["misses"] == 0  # never consulted
        finally:
            session.finish()
