"""BENCH-SHARD — scatter-gather scaling, replica fan-out, chaos audit.

Three sections, one JSON artifact (``out/BENCH_shard.json``):

* **Scaling** — a fixed dataset split over 1/2/4/8 shards, every query
  a full ``ORDER BY`` report merged through the streaming k-way merge.
  Per-statement ``slow`` faults model a remote database whose scan time
  is proportional to the rows it holds (stall = SCAN/S), so the wall
  clock is dominated by GIL-releasing sleeps and the scatter threads
  genuinely overlap.  Bars (re-checked by CI's shard-smoke job):
  rows/s at 2 shards >= 1.6x the 1-shard baseline, >= 2.5x at 4.
* **Replica fan-out** — one shard, pool size 1 per endpoint (the
  bounded-connections reality of a real database server): six client
  threads serialise on the lone primary connection, then spread over
  primary + 2 replicas.  Bar: >= 1.5x cacheable-SELECT throughput.
* **Chaos** — two shards, one refusing every connection.  1000 mixed
  read/write requests with ``degrade`` set: merged reports come back
  partial (and are never cached), keyed reads keep hitting the cache,
  and every response is audited against a model of committed state.
  Bar: zero stale responses.

Results land in ``out/bench_shard.txt`` + ``out/BENCH_shard.json``.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.resilience.faults import FaultInjector, wrap_factory
from repro.sql.connection import MemoryDatabase
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.sql.sharding import ShardMap, ShardedSqlSession
from repro.workloads.metrics import percentile

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

TOTAL_ROWS = 1000 if QUICK else 2000   # fixed dataset, split per config
SCAN_SECONDS = 0.08 if QUICK else 0.12  # remote scan time for ALL rows
SHARD_COUNTS = (1, 2, 4, 8)
QUERIES = 10 if QUICK else 20          # merged reports per config
SPEEDUP_BAR_2 = 1.6
SPEEDUP_BAR_4 = 2.5

REPLICA_CLIENTS = 6
REPLICA_QUERIES = 5 if QUICK else 8    # per client
REPLICA_STALL = 0.02
REPLICA_BAR = 1.5

CHAOS_REQUESTS = 1000
MERGED_SELECT = "SELECT id, label FROM stock ORDER BY id"


def build_tier(shards: int, *, stall: float,
               replicas: int = 0,
               down: tuple[int, ...] = ()):
    """A sharded registry over seeded in-memory databases.

    Seeding goes straight to the backing database; the registered
    factories are wrapped with the fault injector afterwards so only
    benchmark traffic pays the modelled remote latency.  Row ids are
    dealt round-robin so the global ``ORDER BY`` interleaves all shards.
    """
    registry = DatabaseRegistry()
    shard_map = ShardMap("INV")
    injector = FaultInjector.parse(f"slow:1:{stall}") if stall else None
    for index in range(shards):
        db = MemoryDatabase()
        conn = db.connect()
        conn.executescript("CREATE TABLE stock (id INTEGER, label TEXT);")
        values = ",".join(f"({row}, 'item{row}')"
                          for row in range(index, TOTAL_ROWS, shards))
        conn.execute(f"INSERT INTO stock VALUES {values}")
        conn.commit()
        conn.close()
        factory = db.connect
        if index in down:
            factory = wrap_factory(factory, FaultInjector.parse("down"))
        elif injector is not None:
            factory = wrap_factory(factory, injector)
        registry.register_factory(f"INV#{index}", factory)
        names = []
        for r_index in range(1, replicas + 1):
            name = f"INV#{index}.r{r_index}"
            replica_factory = db.connect
            if injector is not None:
                replica_factory = wrap_factory(replica_factory, injector)
            registry.register_factory(name, replica_factory)
            names.append(name)
        shard_map.add_shard(f"INV#{index}", replicas=tuple(names))
    registry.register_sharded("INV", shard_map)
    return registry, shard_map


def key_routing_to(shard_map: ShardMap, index: int) -> str:
    for attempt in range(10_000):
        key = f"k{attempt}"
        if shard_map.route(key).index == index:
            return key
    raise AssertionError(f"no key reaches shard {index}")


# -- section 1: scatter-gather scaling ---------------------------------

def scaling_point(shards: int) -> dict:
    registry, shard_map = build_tier(
        shards, stall=SCAN_SECONDS / shards)
    latencies = []
    start = time.perf_counter()
    for _ in range(QUERIES):
        began = time.perf_counter()
        session = ShardedSqlSession(registry, shard_map, cache=None)
        result = session.execute(MERGED_SELECT)
        assert len(result.rows) == TOTAL_ROWS
        assert [row[0] for row in result.rows[:4]] == [0, 1, 2, 3]
        session.finish()
        latencies.append(time.perf_counter() - began)
    elapsed = time.perf_counter() - start
    return {
        "shards": shards,
        "rows_per_s": round(QUERIES * TOTAL_ROWS / elapsed, 1),
        "p99_ms": round(percentile(sorted(latencies), 0.99) * 1e3, 1),
        "queries": QUERIES,
    }


# -- section 2: replica fan-out ----------------------------------------

def replica_throughput(replicas: int) -> float:
    registry, shard_map = build_tier(
        1, stall=REPLICA_STALL, replicas=replicas)
    registry.configure_pools(size=1, timeout=30.0)
    key = key_routing_to(shard_map, 0)
    barrier = threading.Barrier(REPLICA_CLIENTS + 1)

    def client() -> None:
        barrier.wait()
        for _ in range(REPLICA_QUERIES):
            session = ShardedSqlSession(registry, shard_map,
                                        cache=None, shard_key=key)
            result = session.execute("SELECT label FROM stock")
            assert result.rows
            session.finish()

    threads = [threading.Thread(target=client)
               for _ in range(REPLICA_CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    registry.close_all()
    return REPLICA_CLIENTS * REPLICA_QUERIES / elapsed


# -- section 3: chaos audit --------------------------------------------

def chaos_audit() -> dict:
    """One shard down, 1000 mixed requests, every response audited."""
    registry, shard_map = build_tier(2, stall=0.0, down=(1,))
    cache = QueryResultCache()
    key = key_routing_to(shard_map, 0)
    live = {row: f"item{row}" for row in range(0, TOTAL_ROWS, 2)}
    next_id = TOTAL_ROWS
    partial_reads = cache_hits = stale = 0
    keyed_select = "SELECT id, label FROM stock ORDER BY id"

    for step in range(CHAOS_REQUESTS):
        slot = step % 10
        if slot == 0:  # keyed write to the live shard
            session = ShardedSqlSession(registry, shard_map,
                                        cache=cache, shard_key=key)
            session.execute(f"INSERT INTO stock VALUES "
                            f"({next_id}, 'w{step}')")
            session.finish()
            live[next_id] = f"w{step}"
            next_id += 1
        elif slot in (1, 2, 3):  # keyed read: cacheable, audited
            session = ShardedSqlSession(registry, shard_map,
                                        cache=cache, shard_key=key)
            result = session.execute(keyed_select)
            cache_hits += session.cache_hits
            if {row[0]: row[1] for row in result.rows} != live:
                stale += 1
            session.finish()
        else:  # merged report: degraded partial, audited, never cached
            session = ShardedSqlSession(registry, shard_map,
                                        cache=cache, degrade=True)
            result = session.execute(MERGED_SELECT)
            assert result.partial and result.failed_shards == ("1",)
            partial_reads += 1
            if {row[0]: row[1] for row in result.rows} != live:
                stale += 1
            if session.cache_hits:  # partials must never be served back
                stale += 1
            session.finish()

    return {
        "requests": CHAOS_REQUESTS,
        "partial_reads": partial_reads,
        "cache_hits": cache_hits,
        "stale_responses": stale,
        "shard_down": "INV#1",
    }


def test_bench_shard_scaling(benchmark, artifact):
    """Scaling curve + replica fan-out + chaos audit, bars asserted."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    curve = [scaling_point(shards) for shards in SHARD_COUNTS]
    base = curve[0]["rows_per_s"]
    for point in curve:
        point["speedup"] = round(point["rows_per_s"] / base, 2)
    by_count = {point["shards"]: point for point in curve}

    primary_qps = replica_throughput(0)
    replica_qps = replica_throughput(2)
    replica_speedup = replica_qps / primary_qps

    chaos = chaos_audit()

    lines = [
        f"BENCH-SHARD — {TOTAL_ROWS} rows split over 1/2/4/8 shards, "
        f"{QUERIES} ORDER BY reports per point; modelled remote scan "
        f"{SCAN_SECONDS * 1e3:.0f} ms for the full dataset "
        f"(stall = scan/shards per shard, parallel across workers)",
        "",
        f"{'shards':>6} {'rows/s':>10} {'p99_ms':>8} {'speedup':>8}",
    ]
    for point in curve:
        lines.append(f"{point['shards']:>6} {point['rows_per_s']:>10} "
                     f"{point['p99_ms']:>8} {point['speedup']:>7}x")
    lines += [
        "",
        f"bars: >= {SPEEDUP_BAR_2}x at 2 shards "
        f"(got {by_count[2]['speedup']}x), >= {SPEEDUP_BAR_4}x at 4 "
        f"(got {by_count[4]['speedup']}x)",
        "",
        f"replica fan-out (1 shard, pool size 1/endpoint, "
        f"{REPLICA_CLIENTS} clients): primary-only "
        f"{primary_qps:.1f} q/s, +2 replicas {replica_qps:.1f} q/s "
        f"= {replica_speedup:.2f}x (bar >= {REPLICA_BAR}x)",
        "",
        f"chaos (shard 1 down, degrade on): "
        f"{chaos['partial_reads']} partial reports, "
        f"{chaos['cache_hits']} cache hits, "
        f"{chaos['stale_responses']} stale responses over "
        f"{chaos['requests']} requests",
    ]
    artifact("bench_shard.txt", "\n".join(lines) + "\n")

    payload = {
        "quick": QUICK,
        "total_rows": TOTAL_ROWS,
        "scan_seconds": SCAN_SECONDS,
        "scaling": curve,
        "replica": {
            "clients": REPLICA_CLIENTS,
            "primary_only_qps": round(primary_qps, 1),
            "two_replicas_qps": round(replica_qps, 1),
            "speedup": round(replica_speedup, 2),
        },
        "chaos": chaos,
        "bars": {
            "speedup_2_shards_ok":
                by_count[2]["speedup"] >= SPEEDUP_BAR_2,
            "speedup_4_shards_ok":
                by_count[4]["speedup"] >= SPEEDUP_BAR_4,
            "replica_fanout_ok": replica_speedup >= REPLICA_BAR,
            "zero_stale": chaos["stale_responses"] == 0,
        },
    }
    artifact("BENCH_shard.json",
             json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert by_count[2]["speedup"] >= SPEEDUP_BAR_2, (
        f"2-shard scatter only {by_count[2]['speedup']}x the 1-shard "
        f"baseline (bar {SPEEDUP_BAR_2}x)")
    assert by_count[4]["speedup"] >= SPEEDUP_BAR_4, (
        f"4-shard scatter only {by_count[4]['speedup']}x the 1-shard "
        f"baseline (bar {SPEEDUP_BAR_4}x)")
    assert replica_speedup >= REPLICA_BAR, (
        f"replica fan-out only {replica_speedup:.2f}x primary-only "
        f"throughput (bar {REPLICA_BAR}x)")
    assert chaos["partial_reads"] > 0
    assert chaos["cache_hits"] > 0, (
        "the chaos audit never hit the cache — the staleness check "
        "checked nothing")
    assert chaos["stale_responses"] == 0, (
        f"{chaos['stale_responses']} stale responses served under chaos")
