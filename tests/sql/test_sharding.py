"""The sharded SQL tier: routing, replicas, scatter-gather merge,
degradation, and the ORDER BY recognizer behind the ordered merge."""

import threading
import time

import pytest

from repro.errors import DeadlineExceededError, SQLError
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultInjector, wrap_factory
from repro.sql.connection import Connection, MemoryDatabase
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.sql.sharding import (
    ShardedSqlSession,
    ShardMap,
    build_shard_map,
    parse_order_by,
    parse_trailing_limit,
)
from repro.sql.transactions import TransactionMode

SHARDS = 4
ROWS_PER_SHARD = 10


@pytest.fixture()
def registry():
    """Four shard primaries, each pre-seeded with distinct rows."""
    reg = DatabaseRegistry()
    for index in range(SHARDS):
        seed_shard(reg, f"INV#{index}", index)
    return reg


def seed_shard(reg, name, index, rows=ROWS_PER_SHARD):
    db = reg.register_memory(name)
    conn = db.connect()
    conn.executescript(
        "CREATE TABLE parts (id INTEGER, name TEXT, qty INTEGER);")
    for j in range(rows):
        conn.execute(f"INSERT INTO parts VALUES "
                     f"({index * 100 + j}, 'p{index}-{j}', {j})")
    conn.commit()
    conn.close()
    return db


@pytest.fixture()
def shard_map(registry):
    smap = ShardMap("INV")
    for index in range(SHARDS):
        smap.add_shard(f"INV#{index}")
    registry.register_sharded("INV", smap)
    return smap


def session(registry, smap, **kwargs):
    return ShardedSqlSession(registry, smap, **kwargs)


class TestRouting:
    def test_hash_routing_is_deterministic(self, registry, shard_map):
        first = shard_map.route("customer-42")
        assert all(shard_map.route("customer-42") is first
                   for _ in range(10))

    def test_hash_routing_spreads_keys(self, registry, shard_map):
        hit = {shard_map.route(f"key-{i}").index for i in range(100)}
        assert hit == set(range(SHARDS))

    def test_range_routing_by_bounds(self):
        smap = ShardMap("R", strategy="range")
        smap.add_shard("R#0", upper="100")
        smap.add_shard("R#1", upper="200")
        smap.add_shard("R#2")
        assert smap.route("5").index == 0
        assert smap.route("99.9").index == 0
        assert smap.route("100").index == 1
        assert smap.route("150").index == 1
        assert smap.route("999").index == 2
        # non-numeric keys sort after all numerics → catch-all
        assert smap.route("zebra").index == 2

    def test_range_validation_rejects_missing_bounds(self):
        smap = ShardMap("R", strategy="range")
        smap.add_shard("R#0")
        smap.add_shard("R#1")
        with pytest.raises(ValueError, match="upper bound"):
            smap.validate()

    def test_range_validation_rejects_unsorted_bounds(self):
        smap = ShardMap("R", strategy="range")
        smap.add_shard("R#0", upper="200")
        smap.add_shard("R#1", upper="100")
        smap.add_shard("R#2")
        with pytest.raises(ValueError, match="ascend"):
            smap.validate()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            ShardMap("X", strategy="round-robin")

    def test_keyed_statement_touches_one_shard(self, registry, shard_map):
        s = session(registry, shard_map, shard_key="pin")
        shard = shard_map.route("pin")
        s.execute("INSERT INTO parts VALUES (777, 'pinned', 1)")
        s.finish()
        total = 0
        for index in range(SHARDS):
            conn = registry.connect(f"INV#{index}")
            rows = conn.execute(
                "SELECT COUNT(*) FROM parts WHERE id = 777").fetchall()
            conn.close()
            count = rows[0][0]
            total += count
            if index == shard.index:
                assert count == 1
        assert total == 1

    def test_keyless_write_fans_out_to_all_shards(self, registry,
                                                  shard_map):
        s = session(registry, shard_map)
        result = s.execute("DELETE FROM parts WHERE qty = 0")
        s.finish()
        assert result.rowcount == SHARDS  # one qty=0 row per shard
        assert shard_map.stats()[""]["fanout_writes"] == 1

    def test_single_mode_requires_shard_key(self, registry, shard_map):
        s = session(registry, shard_map, mode=TransactionMode.SINGLE)
        with pytest.raises(SQLError) as excinfo:
            s.execute("SELECT 1")
        assert excinfo.value.sqlstate == "0A000"
        s.finish()

    def test_single_mode_with_key_brackets_one_shard(self, registry,
                                                     shard_map):
        s = session(registry, shard_map, shard_key="pin",
                    mode=TransactionMode.SINGLE)
        s.execute("INSERT INTO parts VALUES (888, 'tx', 1)")
        s.finish(success=False)  # rollback
        shard = shard_map.route("pin")
        conn = registry.connect(shard.database)
        rows = conn.execute(
            "SELECT COUNT(*) FROM parts WHERE id = 888").fetchall()
        conn.close()
        assert rows[0][0] == 0

    def test_registration_requires_physical_endpoints(self, registry):
        smap = ShardMap("BAD")
        smap.add_shard("NOT-REGISTERED")
        with pytest.raises(SQLError, match="unregistered"):
            registry.register_sharded("BAD", smap)

    def test_logical_name_must_not_shadow_physical(self, registry):
        smap = ShardMap("INV#0")
        smap.add_shard("INV#1")
        with pytest.raises(SQLError, match="already registered"):
            registry.register_sharded("INV#0", smap)

    def test_physical_name_must_not_shadow_logical(self, registry,
                                                   shard_map, tmp_path):
        """The mirror check: the engine resolves shard maps first, so a
        later physical registration under 'INV' would be unreachable."""
        for attempt in (
                lambda: registry.register_path(
                    "INV", str(tmp_path / "x.db")),
                lambda: registry.register_memory("INV"),
                lambda: registry.register_factory(
                    "INV", MemoryDatabase().connect)):
            with pytest.raises(SQLError) as excinfo:
                attempt()
            assert excinfo.value.sqlstate == "42710"

    def test_sharded_name_visible_in_registry(self, registry, shard_map):
        assert "INV" in registry
        assert "INV" in registry.names()


class TestScatterGather:
    def test_scatter_merges_all_shards(self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute("SELECT id, name FROM parts")
        s.finish()
        assert len(result.rows) == SHARDS * ROWS_PER_SHARD
        ids = {row[0] for row in result.rows}
        assert len(ids) == SHARDS * ROWS_PER_SHARD

    def test_order_by_produces_globally_sorted_rows(self, registry,
                                                    shard_map):
        s = session(registry, shard_map)
        result = s.execute("SELECT id, name FROM parts ORDER BY id")
        s.finish()
        assert [row[0] for row in result.rows] == sorted(
            row[0] for row in result.rows)
        assert shard_map.stats()[""]["ordered_merges"] == 1

    def test_order_by_desc(self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute("SELECT id FROM parts ORDER BY id DESC")
        s.finish()
        ids = [row[0] for row in result.rows]
        assert ids == sorted(ids, reverse=True)

    def test_unrecognized_order_falls_back_to_interleave(self, registry,
                                                         shard_map):
        s = session(registry, shard_map)
        # lower(name) is an expression → arrival-order interleave
        result = s.execute(
            "SELECT id, name FROM parts ORDER BY lower(name)")
        s.finish()
        assert len(result.rows) == SHARDS * ROWS_PER_SHARD
        assert shard_map.stats()[""]["interleaved_merges"] == 1

    def test_streaming_scatter_rides_row_iter(self, registry, shard_map,
                                              spill):
        """A merge past the spill budget rides the row iterator and is
        never cached; one at the budget is materialised and cached."""
        spill(SHARDS * ROWS_PER_SHARD - 1)
        cache = QueryResultCache()
        s = session(registry, shard_map, cache=cache)
        result = s.execute("SELECT id FROM parts ORDER BY id")
        assert result.row_iter is not None  # spilled
        rows = list(result.iter_rows())
        s.finish()
        assert len(rows) == SHARDS * ROWS_PER_SHARD
        assert result.rows_fetched == SHARDS * ROWS_PER_SHARD
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert cache.stats()["stores"] == 0
        spill(SHARDS * ROWS_PER_SHARD)
        s = session(registry, shard_map, cache=cache)
        result = s.execute("SELECT id FROM parts ORDER BY id")
        s.finish()
        assert result.row_iter is None and [r[0] for r in result.rows] == [
            r[0] for r in rows]
        assert cache.stats()["stores"] == 1

    def test_abandoned_stream_stops_workers(self, registry, shard_map,
                                            spill):
        spill(5)
        s = session(registry, shard_map)
        result = s.execute("SELECT id FROM parts ORDER BY id")
        assert result.row_iter is not None  # spilled
        iterator = result.iter_rows()
        next(iterator)
        iterator.close()  # consumer walks away mid-merge
        s.finish()
        # workers unwound; the session is reusable state-wise
        assert threading.active_count() < 50

    def test_columns_available_on_merged_result(self, registry,
                                                shard_map):
        s = session(registry, shard_map)
        result = s.execute("SELECT id, name, qty FROM parts")
        s.finish()
        assert result.columns == ["id", "name", "qty"]

    def test_pragma_goes_to_first_primary_only(self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute("PRAGMA table_info(parts)")
        s.finish()
        # one shard's answer, not SHARDS copies of the schema
        assert len(result.rows) == 3
        assert "scatter_queries" not in shard_map.stats()[""]

    def test_finished_session_refuses_new_statements(self, registry,
                                                     shard_map):
        """A finish() racing a lazy endpoint-session creation must not
        leak a connection: creations after finish are refused."""
        s = session(registry, shard_map, shard_key="pin")
        s.execute("SELECT id FROM parts")
        s.finish()
        with pytest.raises(SQLError) as excinfo:
            s.execute("SELECT id FROM parts")
        assert excinfo.value.sqlstate == "08003"


class TestScatterLimit:
    """A trailing LIMIT/OFFSET must be the *global* row window, not a
    per-shard one — 4 shards × LIMIT 10 is 10 rows, not 40, and OFFSET
    skips merged rows, not rows on every shard."""

    # Global id order: shard 0 holds 0..9, shard 1 holds 100..109, ...

    def test_limit_is_global_not_per_shard(self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute("SELECT id FROM parts ORDER BY id LIMIT 10")
        s.finish()
        assert [row[0] for row in result.rows] == list(range(10))

    def test_offset_skips_merged_rows_once(self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute(
            "SELECT id FROM parts ORDER BY id LIMIT 5 OFFSET 8")
        s.finish()
        assert [row[0] for row in result.rows] == [8, 9, 100, 101, 102]

    def test_comma_offset_form(self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute("SELECT id FROM parts ORDER BY id LIMIT 8, 5")
        s.finish()
        assert [row[0] for row in result.rows] == [8, 9, 100, 101, 102]

    def test_desc_limit_takes_global_tail(self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute(
            "SELECT id FROM parts ORDER BY id DESC LIMIT 3")
        s.finish()
        assert [row[0] for row in result.rows] == [309, 308, 307]

    def test_limit_without_order_by_truncates(self, registry, shard_map):
        all_ids = {index * 100 + j
                   for index in range(SHARDS) for j in range(ROWS_PER_SHARD)}
        s = session(registry, shard_map)
        result = s.execute("SELECT id FROM parts LIMIT 7")
        s.finish()
        assert len(result.rows) == 7
        assert {row[0] for row in result.rows} <= all_ids

    def test_streaming_limit_counts_only_window_rows(self, registry,
                                                     shard_map, spill):
        spill(3)
        s = session(registry, shard_map)
        result = s.execute(
            "SELECT id FROM parts ORDER BY id LIMIT 6 OFFSET 2")
        assert result.row_iter is not None  # spilled
        rows = list(result.iter_rows())
        s.finish()
        assert [row[0] for row in rows] == [2, 3, 4, 5, 6, 7]
        assert result.rows_fetched == 6  # offset rows are not counted

    def test_limited_result_cached_globally_correct(self, registry,
                                                    shard_map):
        cache = QueryResultCache()
        sql = "SELECT id FROM parts ORDER BY id LIMIT 10"
        s = session(registry, shard_map, cache=cache)
        s.execute(sql)
        s.finish()
        s = session(registry, shard_map, cache=cache)
        result = s.execute(sql)
        assert s.cache_hits == 1
        s.finish()
        assert [row[0] for row in result.rows] == list(range(10))

    def test_limit_zero_returns_no_rows(self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute("SELECT id FROM parts ORDER BY id LIMIT 0")
        s.finish()
        assert result.rows == []

    def test_negative_limit_is_unbounded_offset_still_global(
            self, registry, shard_map):
        s = session(registry, shard_map)
        result = s.execute(
            "SELECT id FROM parts ORDER BY id LIMIT -1 OFFSET 38")
        s.finish()
        assert [row[0] for row in result.rows] == [308, 309]

    def test_non_literal_limit_refused(self, registry, shard_map):
        s = session(registry, shard_map)
        with pytest.raises(SQLError) as excinfo:
            s.execute("SELECT id FROM parts ORDER BY id LIMIT 1+1")
        s.finish()
        assert excinfo.value.sqlstate == "0A000"

    def test_unmergeable_order_by_with_limit_refused(self, registry,
                                                     shard_map):
        """ORDER BY the merge cannot map degrades to interleave — but
        with a LIMIT that would pick the wrong rows, so it refuses."""
        s = session(registry, shard_map)
        with pytest.raises(SQLError) as excinfo:
            s.execute(
                "SELECT id, name FROM parts ORDER BY lower(name) LIMIT 5")
        s.finish()
        assert excinfo.value.sqlstate == "0A000"


class TestDegradation:
    def two_shard_registry(self, *, down_index=1):
        reg = DatabaseRegistry()
        seed_shard(reg, "S#0", 0)
        db = seed_shard(reg, "S#1", 1)
        if down_index == 1:
            injector = FaultInjector.parse("down")
            reg.register_factory("S#1",
                                 wrap_factory(db.connect, injector))
        smap = ShardMap("S")
        smap.add_shard("S#0")
        smap.add_shard("S#1")
        reg.register_sharded("S", smap)
        return reg, smap

    def test_shard_down_fails_scatter_without_degrade(self):
        reg, smap = self.two_shard_registry()
        s = session(reg, smap)
        with pytest.raises(SQLError):
            result = s.execute("SELECT id FROM parts ORDER BY id")
            list(result.iter_rows())
        s.finish()

    def test_shard_down_degrades_to_partial_result(self):
        reg, smap = self.two_shard_registry()
        s = session(reg, smap, degrade=True)
        result = s.execute("SELECT id FROM parts ORDER BY id")
        s.finish()
        assert result.partial
        assert result.failed_shards == ("1",)
        assert len(result.rows) == ROWS_PER_SHARD  # survivors only
        assert smap.stats()[""]["partial_results"] == 1
        assert smap.stats()["1"]["failures"] == 1

    def test_partial_results_are_never_cached(self):
        reg, smap = self.two_shard_registry()
        cache = QueryResultCache()
        s = session(reg, smap, degrade=True, cache=cache)
        result = s.execute("SELECT id FROM parts ORDER BY id")
        s.finish()
        assert result.partial
        assert cache.stats()["stores"] == 0

    def test_shard_budget_degrades_slow_shard(self):
        reg = DatabaseRegistry()
        seed_shard(reg, "T#0", 0)
        seed_shard(reg, "T#1", 1)
        injector = FaultInjector.parse("slow:1.0:0.2")
        db1 = MemoryDatabase()
        conn = db1.connect()
        conn.executescript(
            "CREATE TABLE parts (id INTEGER, name TEXT, qty INTEGER);"
            "INSERT INTO parts VALUES (900, 'slow', 1);")
        conn.commit()
        conn.close()
        reg.register_factory("T#1", wrap_factory(db1.connect, injector))
        smap = ShardMap("T", shard_timeout=0.05)
        smap.add_shard("T#0")
        smap.add_shard("T#1")
        reg.register_sharded("T", smap)
        s = session(reg, smap, degrade=True)
        result = s.execute("SELECT id FROM parts ORDER BY id")
        s.finish()
        assert result.partial
        assert result.failed_shards == ("1",)
        assert all(r[0] < 100 for r in result.rows)  # only shard 0 rows

    def test_request_deadline_caps_merge_wait(self):
        reg, smap = self.two_shard_registry(down_index=-1)
        # Replace shard 1 with a factory that hangs long enough to
        # outlive the request budget.
        db = MemoryDatabase()
        conn = db.connect()
        conn.executescript(
            "CREATE TABLE parts (id INTEGER, name TEXT, qty INTEGER);")
        conn.commit()
        conn.close()

        def slow_connect():
            time.sleep(0.3)
            return db.connect()

        reg.register_factory("S#1", slow_connect)
        deadline = Deadline.after(0.08)
        s = session(reg, smap, deadline=deadline)
        with pytest.raises((SQLError, DeadlineExceededError)):
            result = s.execute("SELECT id FROM parts ORDER BY id")
            list(result.iter_rows())
        s.finish()


class TestOrderByParser:
    COLS = ["id", "name", "qty"]

    def test_simple_column(self):
        assert parse_order_by("SELECT * FROM t ORDER BY id",
                              self.COLS) == [(0, False)]

    def test_desc_and_multiple_terms(self):
        assert parse_order_by(
            "SELECT * FROM t ORDER BY qty DESC, name",
            self.COLS) == [(2, True), (1, False)]

    def test_ordinal_terms(self):
        assert parse_order_by("SELECT * FROM t ORDER BY 2 DESC",
                              self.COLS) == [(1, True)]

    def test_ordinal_out_of_range_bails(self):
        assert parse_order_by("SELECT * FROM t ORDER BY 9",
                              self.COLS) is None

    def test_qualified_and_quoted_names(self):
        assert parse_order_by('SELECT * FROM t ORDER BY t.id',
                              self.COLS) == [(0, False)]
        assert parse_order_by('SELECT * FROM t ORDER BY "name"',
                              self.COLS) == [(1, False)]

    def test_unselected_column_bails(self):
        assert parse_order_by("SELECT * FROM t ORDER BY missing",
                              self.COLS) is None

    def test_expression_bails(self):
        assert parse_order_by("SELECT * FROM t ORDER BY qty + 1",
                              self.COLS) is None

    def test_no_order_by(self):
        assert parse_order_by("SELECT * FROM t", self.COLS) is None

    def test_trailing_limit_allowed(self):
        assert parse_order_by(
            "SELECT * FROM t ORDER BY id LIMIT 10",
            self.COLS) == [(0, False)]

    def test_subquery_order_by_is_not_trailing(self):
        # ORDER BY inside parentheses must not be mistaken for the
        # statement's own trailing clause.
        sql = ("SELECT * FROM (SELECT id FROM t ORDER BY id LIMIT 5)")
        assert parse_order_by(sql, self.COLS) is None


class TestTrailingLimitParser:
    def test_no_limit(self):
        sql = "SELECT * FROM t ORDER BY id"
        assert parse_trailing_limit(sql) == (sql, None, 0)

    def test_plain_limit(self):
        assert parse_trailing_limit(
            "SELECT * FROM t ORDER BY id LIMIT 10") == \
            ("SELECT * FROM t ORDER BY id", 10, 0)

    def test_limit_offset(self):
        assert parse_trailing_limit(
            "SELECT * FROM t LIMIT 10 OFFSET 5;") == \
            ("SELECT * FROM t", 10, 5)

    def test_comma_form_swaps_operands(self):
        assert parse_trailing_limit(
            "SELECT * FROM t LIMIT 5, 10") == ("SELECT * FROM t", 10, 5)

    def test_negative_limit_means_unbounded(self):
        assert parse_trailing_limit(
            "SELECT * FROM t LIMIT -1 OFFSET 3") == \
            ("SELECT * FROM t", None, 3)

    def test_negative_offset_clamped(self):
        assert parse_trailing_limit(
            "SELECT * FROM t LIMIT 4 OFFSET -2") == \
            ("SELECT * FROM t", 4, 0)

    def test_subquery_limit_is_not_trailing(self):
        sql = "SELECT * FROM (SELECT id FROM t LIMIT 5)"
        assert parse_trailing_limit(sql) == (sql, None, 0)

    def test_non_literal_bound_raises(self):
        with pytest.raises(ValueError, match="integer literal"):
            parse_trailing_limit("SELECT * FROM t LIMIT n")
        with pytest.raises(ValueError, match="integer literal"):
            parse_trailing_limit("SELECT * FROM t LIMIT 10 OFFSET x")


class TestBuildShardMap:
    def test_build_registers_primaries_and_replicas(self, tmp_path):
        reg = DatabaseRegistry()
        paths = [str(tmp_path / f"s{i}.db") for i in range(2)]
        replica = str(tmp_path / "s0-replica.db")
        smap = build_shard_map(reg, "LOG", paths,
                               replica_paths={0: [replica]})
        assert "LOG#0" in reg and "LOG#1" in reg
        assert "LOG#0.r1" in reg
        assert reg.shard_map("LOG") is smap
        assert smap.shards[0].replicas[0].database == "LOG#0.r1"
