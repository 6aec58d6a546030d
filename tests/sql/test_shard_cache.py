"""Cross-shard cache correctness: composite tuple stamps, per-shard
invalidation scope, the commit/rollback window (PR 1's review fixes,
composed across shards), replica routing, and pool lifecycle."""

import pytest

from repro.errors import PoolExhaustedError, SQLConnectError
from repro.resilience.faults import FaultInjector, wrap_factory
from repro.sql.connection import Connection, MemoryDatabase
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.sql.sharding import ShardedSqlSession, ShardMap

MERGED_SELECT = "SELECT id, label FROM stock ORDER BY id"


def make_tier(tmp_path, shards=2, replicas=0):
    """File-backed shard tier (writers must not block readers)."""
    registry = DatabaseRegistry()
    shard_map = ShardMap("LOG")
    for index in range(shards):
        path = tmp_path / f"shard{index}.db"
        registry.register_path(f"LOG#{index}", str(path))
        with Connection(str(path)) as conn:
            conn.executescript(
                "CREATE TABLE stock (id INTEGER, label TEXT);")
            conn.execute(f"INSERT INTO stock VALUES "
                         f"({index * 10}, 'base{index}')")
            conn.commit()
        names = []
        for r_index in range(1, replicas + 1):
            # A replica registered over the same file: perfectly
            # caught-up replication, which is what routing tests need.
            name = f"LOG#{index}.r{r_index}"
            registry.register_path(name, str(path))
            names.append(name)
        shard_map.add_shard(f"LOG#{index}", replicas=tuple(names))
    registry.register_sharded("LOG", shard_map)
    return registry, shard_map


def shard_session(registry, shard_map, cache, **kwargs):
    return ShardedSqlSession(registry, shard_map, cache=cache, **kwargs)


def key_for(shard_map, index):
    """A shard key that hash-routes to ``index``."""
    for attempt in range(1000):
        key = f"k{attempt}"
        if shard_map.route(key).index == index:
            return key
    raise AssertionError(f"no key found for shard {index}")


class TestCompositeStamps:
    def test_merged_result_is_cached_and_reused(self, tmp_path):
        registry, smap = make_tier(tmp_path)
        cache = QueryResultCache()
        s1 = shard_session(registry, smap, cache)
        first = s1.execute(MERGED_SELECT)
        s1.finish()
        s2 = shard_session(registry, smap, cache)
        second = s2.execute(MERGED_SELECT)
        s2.finish()
        assert second is first  # served from cache
        assert s2.cache_hits == 1

    def test_write_to_shard_a_invalidates_merge_but_not_shard_b(
            self, tmp_path):
        """The correctness core of the sharded tier, end to end."""
        registry, smap = make_tier(tmp_path)
        cache = QueryResultCache()
        key_a, key_b = key_for(smap, 0), key_for(smap, 1)

        # Populate: one cross-shard merge + one shard-B-only entry.
        s = shard_session(registry, smap, cache)
        s.execute(MERGED_SELECT)
        s.finish()
        s = shard_session(registry, smap, cache, shard_key=key_b)
        s.execute("SELECT label FROM stock")
        s.finish()

        # Write routed to shard A bumps only shard A's generation.
        s = shard_session(registry, smap, cache, shard_key=key_a)
        s.execute("INSERT INTO stock VALUES (99, 'fresh')")
        s.finish()

        # The merge re-executes (stale tuple stamp) and sees the row…
        s = shard_session(registry, smap, cache)
        merged = s.execute(MERGED_SELECT)
        assert s.cache_hits == 0
        assert any(row[0] == 99 for row in merged.rows)
        s.finish()

        # …while the shard-B entry still validates.
        s = shard_session(registry, smap, cache, shard_key=key_b)
        s.execute("SELECT label FROM stock")
        assert s.cache_hits == 1
        s.finish()

    def test_chaos_mixed_readwrite_serves_zero_stale_hits(self, tmp_path):
        """1k mixed reads/writes: every cache hit must reflect every
        committed write (acceptance criterion's staleness audit)."""
        registry, smap = make_tier(tmp_path)
        cache = QueryResultCache()
        expected = {0: "base0", 10: "base1"}
        next_id = 100
        for step in range(1000):
            if step % 10 == 3:  # ~10% writes, alternating shards
                index = (step // 10) % 2
                key = key_for(smap, index)
                s = shard_session(registry, smap, cache, shard_key=key)
                s.execute(f"INSERT INTO stock VALUES "
                          f"({next_id}, 'v{step}')")
                s.finish()
                expected[next_id] = f"v{step}"
                next_id += 1
            else:
                s = shard_session(registry, smap, cache)
                result = s.execute(MERGED_SELECT)
                s.finish()
                assert {row[0]: row[1] for row in result.rows} == expected

    def test_commit_window_entry_retired_across_shards(self, tmp_path):
        """A merge cached during shard A's uncommitted write window must
        be retired by the COMMIT-time bump (PR 1's fix, composed)."""
        registry, smap = make_tier(tmp_path)
        cache = QueryResultCache()

        writer = registry.connect("LOG#0")
        writer.begin()
        writer.execute("UPDATE stock SET label = 'DIRTY' WHERE id = 0")
        # Merge runs inside the window: snapshots pre-commit data.
        s = shard_session(registry, smap, cache)
        windowed = s.execute(MERGED_SELECT)
        s.finish()
        assert ("base0" in {r[1] for r in windowed.rows}
                or "DIRTY" in {r[1] for r in windowed.rows})
        writer.commit()
        writer.close()

        s = shard_session(registry, smap, cache)
        after = s.execute(MERGED_SELECT)
        assert s.cache_hits == 0  # windowed entry never served
        assert "DIRTY" in {r[1] for r in after.rows}
        s.finish()

    def test_rollback_window_also_retires_entry(self, tmp_path):
        """Rollback bumps too — conservative misses, never stale hits."""
        registry, smap = make_tier(tmp_path)
        cache = QueryResultCache()

        writer = registry.connect("LOG#1")
        writer.begin()
        writer.execute("UPDATE stock SET label = 'GONE' WHERE id = 10")
        s = shard_session(registry, smap, cache)
        s.execute(MERGED_SELECT)
        s.finish()
        writer.rollback()
        writer.close()

        s = shard_session(registry, smap, cache)
        after = s.execute(MERGED_SELECT)
        assert s.cache_hits == 0  # miss, not a stale hit
        assert "GONE" not in {r[1] for r in after.rows}
        s.finish()

    def test_factory_registered_shard_writes_invalidate(self):
        """Regression: MemoryDatabase factories pre-attach their own
        generation counter; the shard session must re-point the
        connection at the counter its stamps come from, or writes bump
        a counter no cache validation ever reads."""
        registry = DatabaseRegistry()
        smap = ShardMap("MEM")
        db = MemoryDatabase()
        conn = db.connect()
        conn.executescript("CREATE TABLE stock (id INTEGER, label TEXT);")
        conn.execute("INSERT INTO stock VALUES (1, 'old')")
        conn.commit()
        conn.close()
        registry.register_factory("MEM#0", db.connect)
        smap.add_shard("MEM#0")
        registry.register_sharded("MEM", smap)
        cache = QueryResultCache()

        s = shard_session(registry, smap, cache, shard_key="k")
        s.execute("SELECT label FROM stock")
        s.finish()
        s = shard_session(registry, smap, cache, shard_key="k")
        s.execute("UPDATE stock SET label = 'new'")
        s.finish()
        s = shard_session(registry, smap, cache, shard_key="k")
        result = s.execute("SELECT label FROM stock")
        assert s.cache_hits == 0
        assert result.rows == [("new",)]
        s.finish()

    def test_single_shard_entries_scoped_per_shard(self, tmp_path):
        """Two shards caching the same SQL text must not collide: the
        shard index is part of the cache namespace."""
        registry, smap = make_tier(tmp_path)
        cache = QueryResultCache()
        key_a, key_b = key_for(smap, 0), key_for(smap, 1)
        s = shard_session(registry, smap, cache, shard_key=key_a)
        rows_a = s.execute("SELECT label FROM stock").rows
        s.finish()
        s = shard_session(registry, smap, cache, shard_key=key_b)
        rows_b = s.execute("SELECT label FROM stock").rows
        assert s.cache_hits == 0  # different shard, different entry
        s.finish()
        assert rows_a != rows_b


class TestReplicaRouting:
    def test_cacheable_select_prefers_replica(self, tmp_path):
        registry, smap = make_tier(tmp_path, replicas=1)
        s = shard_session(registry, smap, None,
                          shard_key=key_for(smap, 0))
        s.execute("SELECT label FROM stock")
        s.finish()
        assert smap.stats()["0"]["replica_reads"] == 1

    def test_pragma_always_goes_to_primary(self, tmp_path):
        """Regression: replica eligibility consults is_cacheable_query,
        not is_query — PRAGMA/EXPLAIN return rows but touch
        per-connection state, so they must hit the primary."""
        registry, smap = make_tier(tmp_path, replicas=1)
        key = key_for(smap, 0)
        for sql in ("PRAGMA table_info(stock)",
                    "EXPLAIN SELECT * FROM stock"):
            s = shard_session(registry, smap, None, shard_key=key)
            s.execute(sql)
            endpoints = {endpoint for (_, endpoint) in s._sessions}
            s.finish()
            assert endpoints == {"LOG#0"}, sql
        assert "replica_reads" not in smap.stats().get("0", {})

    def test_writes_always_go_to_primary(self, tmp_path):
        registry, smap = make_tier(tmp_path, replicas=1)
        s = shard_session(registry, smap, None,
                          shard_key=key_for(smap, 0))
        s.execute("INSERT INTO stock VALUES (5, 'w')")
        endpoints = {endpoint for (_, endpoint) in s._sessions}
        s.finish()
        assert endpoints == {"LOG#0"}

    def test_lagged_replica_skipped(self, tmp_path):
        registry, smap = make_tier(tmp_path, replicas=1)
        smap.lag_bound = 0.5
        smap.replica(0, "LOG#0.r1").lag = 2.0  # behind the bound
        s = shard_session(registry, smap, None,
                          shard_key=key_for(smap, 0))
        s.execute("SELECT label FROM stock")
        endpoints = {endpoint for (_, endpoint) in s._sessions}
        s.finish()
        assert endpoints == {"LOG#0"}
        assert smap.stats()[""]["replica_lagged"] >= 1

    def test_dead_replica_falls_back_to_primary(self, tmp_path):
        registry, smap = make_tier(tmp_path, replicas=1)
        down = FaultInjector.parse("down")
        db = MemoryDatabase()
        registry.register_factory("LOG#0.r1",
                                  wrap_factory(db.connect, down))
        s = shard_session(registry, smap, None,
                          shard_key=key_for(smap, 0))
        result = s.execute("SELECT label FROM stock")
        s.finish()
        assert result.rows  # the read still succeeded
        assert smap.stats()["0"]["replica_fallbacks"] == 1

    def test_replica_session_reads_but_never_stores(self, tmp_path):
        """A replica session may serve primary-stamped cache hits (the
        entry is primary data) but must never store its own rows."""
        registry, smap = make_tier(tmp_path, replicas=1)
        cache = QueryResultCache()
        key = key_for(smap, 0)
        smap.replica(0, "LOG#0.r1").lag = 9.9  # force the primary
        s = shard_session(registry, smap, cache, shard_key=key)
        s.execute("SELECT label FROM stock")  # primary-served, stored
        s.finish()
        assert cache.stats()["stores"] == 1
        smap.replica(0, "LOG#0.r1").lag = 0.0
        s = shard_session(registry, smap, cache, shard_key=key)
        s.execute("SELECT label FROM stock")
        assert s.cache_hits == 1  # replica session served the hit…
        s.execute("SELECT id FROM stock")  # …replica-executed: not stored
        s.finish()
        assert cache.stats()["stores"] == 1
        # A primary write still retires the primary-stored entry.
        s = shard_session(registry, smap, cache, shard_key=key)
        s.execute("INSERT INTO stock VALUES (7, 'new')")
        s.finish()
        smap.replica(0, "LOG#0.r1").lag = 9.9
        s = shard_session(registry, smap, cache, shard_key=key)
        result = s.execute("SELECT label FROM stock")
        assert s.cache_hits == 0
        assert "new" in {row[0] for row in result.rows}
        s.finish()

    def test_lagging_replica_cannot_poison_cache(self):
        """Regression: a replica inside the lag bound can still serve
        pre-write rows after the primary's generation was bumped; had
        that result been cached it would validate until the *next*
        write.  Replica-served results must never be stored."""
        registry = DatabaseRegistry()
        primary = MemoryDatabase()
        conn = primary.connect()
        conn.executescript("CREATE TABLE stock (id INTEGER, label TEXT);")
        conn.execute("INSERT INTO stock VALUES (1, 'new')")
        conn.commit()
        conn.close()
        lagging = MemoryDatabase()  # has not applied the write yet
        conn = lagging.connect()
        conn.executescript("CREATE TABLE stock (id INTEGER, label TEXT);")
        conn.execute("INSERT INTO stock VALUES (1, 'old')")
        conn.commit()
        conn.close()
        registry.register_memory("P#0", primary)
        registry.register_factory("P#0.r1", lagging.connect)
        smap = ShardMap("P")
        smap.add_shard("P#0", replicas=("P#0.r1",))
        registry.register_sharded("P", smap)
        cache = QueryResultCache()

        s = shard_session(registry, smap, cache, shard_key="k")
        stale = s.execute("SELECT label FROM stock")
        s.finish()
        assert stale.rows == [("old",)]  # bounded lag: stale is allowed
        assert cache.stats()["stores"] == 0  # …but never cached

        # Forced to the primary, the read sees current data — it must
        # not be answered from a poisoned cache entry.
        smap.replica(0, "P#0.r1").lag = 9.9
        smap.lag_bound = 0.5
        s = shard_session(registry, smap, cache, shard_key="k")
        fresh = s.execute("SELECT label FROM stock")
        assert s.cache_hits == 0
        assert fresh.rows == [("new",)]
        s.finish()

    def test_merge_not_cached_when_replica_served(self, tmp_path):
        """A cross-shard merge that any replica contributed to is not
        cached under the composite stamp; an all-primary merge is."""
        registry, smap = make_tier(tmp_path, replicas=1)
        cache = QueryResultCache()
        s = shard_session(registry, smap, cache)
        s.execute(MERGED_SELECT)  # replica-served scatter
        s.finish()
        assert cache.stats()["stores"] == 0
        for index in range(2):  # lag every replica out of eligibility
            smap.replica(index, f"LOG#{index}.r1").lag = 9.9
        smap.lag_bound = 0.5
        s = shard_session(registry, smap, cache)
        s.execute(MERGED_SELECT)  # all-primary scatter
        s.finish()
        assert cache.stats()["stores"] == 1
        s = shard_session(registry, smap, cache)
        s.execute(MERGED_SELECT)
        assert s.cache_hits == 1
        s.finish()


class TestPoolLifecycle:
    def test_pools_created_lazily_per_endpoint(self, tmp_path):
        registry, smap = make_tier(tmp_path, replicas=1)
        assert registry.pool("LOG#0") is None  # nothing yet
        s = shard_session(registry, smap, None,
                          shard_key=key_for(smap, 0))
        s.execute("INSERT INTO stock VALUES (1, 'x')")
        s.finish()
        assert registry.pool("LOG#0") is not None
        # shard 1 served zero requests: no pool, nothing to leak
        assert registry.pool("LOG#1") is None

    def test_close_all_is_idempotent(self, tmp_path):
        registry, smap = make_tier(tmp_path)
        s = shard_session(registry, smap, None)
        s.execute(MERGED_SELECT)
        s.finish()
        assert registry.pool("LOG#0") is not None
        registry.close_all()
        registry.close_all()  # second close is a no-op, not an error
        assert registry.closed

    def test_closed_registry_refuses_connections(self, tmp_path):
        registry, smap = make_tier(tmp_path)
        registry.close_all()
        with pytest.raises((SQLConnectError, PoolExhaustedError)):
            registry.connect("LOG#0")

    def test_scatter_pools_only_touched_shards(self, tmp_path):
        """A keyed burst must not leave pools on untouched shards."""
        registry, smap = make_tier(tmp_path, shards=4)
        key = key_for(smap, 2)
        for _ in range(5):
            s = shard_session(registry, smap, None, shard_key=key)
            s.execute("SELECT label FROM stock")
            s.finish()
        pooled = [i for i in range(4)
                  if registry.pool(f"LOG#{i}") is not None]
        assert pooled == [2]
        registry.close_all()
