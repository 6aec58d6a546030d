"""BENCH-OVERLOAD — open-loop load sweep, naive vs admission-controlled.

The closed-loop harnesses elsewhere in this directory throttle
themselves when the server slows down — exactly the coordinated
omission that hides overload collapse.  This bench drives the same
urlquery deployment **open-loop**: a fixed Poisson arrival schedule at
1x..10x the measured capacity, every latency charged from the arrival's
*intended* time, abandoned arrivals counted as failures.

Two configurations face the same schedules:

* **naive** — the router as-is: every arrival is dispatched, however
  many are already inside.  Past capacity the backlog grows without
  bound and goodput (200s completing within the latency budget)
  collapses.
* **controlled** — the same router behind an
  :class:`~repro.overload.OverloadController`: bounded WFQ admission
  queue, per-class cost classification (operator rule for the heavy
  report shape, learned profile for the rest) and AIMD shedding.
  Excess heavy traffic buys fast honest 503s; interactive work keeps
  flowing near its SLO.

The acceptance bars (asserted here, re-checked by CI's overload-smoke
job under ``REPRO_BENCH_QUICK=1``):

* controlled goodput at 10x >= 80% of the measured 1x capacity;
* controlled interactive p99 (client-side, queue wait included) under
  the SLO;
* the naive configuration fails **both** of those bars at 10x.

Results land in ``out/bench_overload.txt`` and machine-readable
``out/BENCH_overload.json``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.apps import build_site
from repro.apps import urlquery as urlquery_app
from repro.core.engine import EngineConfig, MacroEngine
from repro.http.message import HttpRequest
from repro.obs.metrics import MetricsRegistry
from repro.overload.classify import HEAVY, LatencyProfiler, RequestClassifier
from repro.overload.control import OverloadController
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.workloads.metrics import percentile
from repro.workloads.openloop import (
    ArrivalSchedule,
    run_open_loop,
    router_submitter,
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

ROWS = 3000               # urldb size: one heavy scan ~= tens of ms
SLO_MS = 150.0            # interactive p99 target (client-side)
LATENCY_BUDGET = 1.0      # seconds: a 200 later than this is not goodput
GIVE_UP_AFTER = 2.0       # seconds: the synthetic user walks away
GOODPUT_BAR = 0.8         # of measured 1x capacity, at 10x offered load
WORKERS = 64              # open-loop generator concurrency bound
MAX_CONCURRENT = 4        # controlled: requests past admission
QUEUE_LIMIT = 32

CAP_SECONDS = 1.5 if QUICK else 3.0
SWEEP_SECONDS = 3.0 if QUICK else 5.0
MULTIPLIERS = (1, 3, 10) if QUICK else (1, 2, 4, 6, 8, 10)

#: per 10 arrivals: 1 heavy full-scan report, 3 repeats of one cached
#: query, 6 interactive selective searches
HEAVY_SLOT = 0
CACHED_SLOTS = (1, 2, 3)

_REPORT = "/cgi-bin/db2www/urlquery.d2w/report"
_CACHED_TARGET = (f"{_REPORT}?SEARCH=multimedia&USE_TITLE=yes"
                  f"&DBFIELDS=title")
_INTERACTIVE_TERMS = ("lantern", "cyberdyne", "zebra", "quartz",
                      "zeppelin", "xylophone", "yonder", "nimbus")


def class_of(index: int) -> str:
    slot = index % 10
    if slot == HEAVY_SLOT:
        return "heavy"
    if slot in CACHED_SLOTS:
        return "cached"
    return "interactive"


def request_for(index: int) -> HttpRequest:
    cls = class_of(index)
    if cls == "heavy":
        # A unique search term per arrival defeats the query cache: the
        # full LIKE scan over every row runs every time.  USE_DESC=yes
        # only ever appears here — the operator rule keys on it.
        target = (f"{_REPORT}?SEARCH=q{index}&USE_URL=yes"
                  f"&USE_TITLE=yes&USE_DESC=yes"
                  f"&DBFIELDS=title&DBFIELDS=description")
    elif cls == "cached":
        target = _CACHED_TARGET
    else:
        term = _INTERACTIVE_TERMS[(index // 10) % len(_INTERACTIVE_TERMS)]
        target = (f"{_REPORT}?SEARCH={term}&USE_TITLE=yes"
                  f"&DBFIELDS=title")
    return HttpRequest.parse(f"GET {target} HTTP/1.0\r\n\r\n".encode())


def build_router():
    registry = DatabaseRegistry()
    engine = MacroEngine(registry, config=EngineConfig(
        query_cache=QueryResultCache(max_entries=64)))
    app = urlquery_app.install(rows=ROWS, registry=registry,
                               engine=engine)
    return build_site(app.engine, app.library).router


def build_controller() -> OverloadController:
    # The operator knows the all-fields report shape is expensive; the
    # profiler learns everything else (repeated queries become cache
    # hits, which the profiler observes as sub-millisecond CACHED).
    classifier = RequestClassifier(
        rules=[("USE_DESC=yes", HEAVY)],
        profiler=LatencyProfiler())
    return OverloadController(
        max_concurrent=MAX_CONCURRENT, queue_limit=QUEUE_LIMIT,
        interactive_slo_ms=SLO_MS, max_queue_wait=0.1,
        classifier=classifier, metrics=MetricsRegistry())


def warm(router, submit) -> None:
    """Prime sqlite caches, the query cache and the learned profile."""
    for index in range(40):
        if class_of(index) == "heavy" and index > HEAVY_SLOT:
            continue  # one heavy warms sqlite; the rest are unique
        submit(index)


def measure_capacity(submit) -> float:
    """Closed-loop req/s of the mixed stream at healthy concurrency."""
    stop_at = time.perf_counter() + CAP_SECONDS
    counts = [0] * MAX_CONCURRENT
    cursor = [0]
    lock = threading.Lock()

    def worker(slot: int) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            status = submit(index)
            assert status == 200, status
            counts[slot] += 1

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(MAX_CONCURRENT)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(counts) / (time.perf_counter() - start)


def sweep_point(router, rate: float, seed: int) -> dict:
    submit = router_submitter(
        router, request_for,
        client_key=lambda index: f"10.0.0.{index % 16}")
    schedule = ArrivalSchedule.poisson(rate, SWEEP_SECONDS, seed=seed)
    result = run_open_loop(submit, schedule, workers=WORKERS,
                           give_up_after=GIVE_UP_AFTER)
    interactive = sorted(
        sample.latency for sample in result.samples
        if class_of(sample.index) == "interactive"
        and not sample.abandoned and sample.status == 200)
    p99_ms = (percentile(interactive, 0.99) * 1e3
              if interactive else float("inf"))
    statuses = result.status_counts
    return {
        "offered_rps": round(rate, 1),
        "arrivals": result.attempted,
        "goodput_rps": round(
            result.goodput_rps(within=LATENCY_BUDGET), 1),
        "interactive_p99_ms": round(p99_ms, 1),
        "shed_503": statuses.get(503, 0),
        "expired_504": statuses.get(504, 0),
        "abandoned": result.abandoned,
    }


def test_bench_overload_sweep(benchmark, artifact):
    """Goodput + p99 curves, naive vs controlled, 1x..10x capacity."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    naive_router = build_router()
    controlled_router = build_router()
    controller = build_controller()
    controlled_router.overload = controller

    warm(naive_router, router_submitter(naive_router, request_for))
    warm(controlled_router,
         router_submitter(controlled_router, request_for))

    capacity = measure_capacity(
        router_submitter(naive_router, request_for))
    goodput_floor = GOODPUT_BAR * capacity

    sweep = []
    for position, multiplier in enumerate(MULTIPLIERS):
        rate = multiplier * capacity
        naive = sweep_point(naive_router, rate, seed=100 + position)
        controlled = sweep_point(controlled_router, rate,
                                 seed=100 + position)
        sweep.append({"multiplier": multiplier, "naive": naive,
                      "controlled": controlled})

    at_10x = next(entry for entry in sweep
                  if entry["multiplier"] == MULTIPLIERS[-1])
    naive_10x, controlled_10x = at_10x["naive"], at_10x["controlled"]

    lines = [
        f"BENCH-OVERLOAD — open-loop Poisson sweep, "
        f"{SWEEP_SECONDS:.0f}s per point "
        f"(capacity {capacity:.0f} req/s closed-loop at "
        f"{MAX_CONCURRENT} concurrent; goodput = 200s within "
        f"{LATENCY_BUDGET:.0f}s of intended send; "
        f"interactive SLO p99 <= {SLO_MS:.0f} ms)",
        "",
        f"{'load':>5} {'offered':>9} | {'naive_good':>10} "
        f"{'naive_p99':>10} {'abandoned':>9} | {'ctrl_good':>10} "
        f"{'ctrl_p99':>9} {'shed503':>8}",
    ]
    for entry in sweep:
        naive, controlled = entry["naive"], entry["controlled"]
        lines.append(
            f"{entry['multiplier']:>4}x {naive['offered_rps']:>9} | "
            f"{naive['goodput_rps']:>10} "
            f"{naive['interactive_p99_ms']:>10} "
            f"{naive['abandoned']:>9} | "
            f"{controlled['goodput_rps']:>10} "
            f"{controlled['interactive_p99_ms']:>9} "
            f"{controlled['shed_503']:>8}")
    lines += [
        "",
        f"bars at {MULTIPLIERS[-1]}x: goodput >= "
        f"{goodput_floor:.0f} req/s, interactive p99 <= "
        f"{SLO_MS:.0f} ms",
        f"controlled: goodput {controlled_10x['goodput_rps']}, "
        f"p99 {controlled_10x['interactive_p99_ms']} ms",
        f"naive:      goodput {naive_10x['goodput_rps']}, "
        f"p99 {naive_10x['interactive_p99_ms']} ms",
    ]
    artifact("bench_overload.txt", "\n".join(lines) + "\n")

    live = controller.metrics.flat()
    payload = {
        "quick": QUICK,
        "rows": ROWS,
        "slo_ms": SLO_MS,
        "latency_budget_s": LATENCY_BUDGET,
        "capacity_req_per_s": round(capacity, 1),
        "goodput_bar_fraction": GOODPUT_BAR,
        "max_concurrent": MAX_CONCURRENT,
        "queue_limit": QUEUE_LIMIT,
        "sweep": sweep,
        "controller": {
            key: live[f"overload_{name}_total"]
            for key, name in (("admitted", "admitted"),
                              ("queued", "queued"), ("shed", "shed"),
                              ("evicted", "queue_evictions"),
                              ("expired_in_queue", "expired_in_queue"))
        },
        "bars": {
            "controlled_goodput_ok":
                controlled_10x["goodput_rps"] >= goodput_floor,
            "controlled_p99_ok":
                controlled_10x["interactive_p99_ms"] <= SLO_MS,
            "naive_goodput_failed":
                naive_10x["goodput_rps"] < goodput_floor,
            "naive_p99_failed":
                naive_10x["interactive_p99_ms"] > SLO_MS,
        },
    }
    artifact("BENCH_overload.json",
             json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert controlled_10x["goodput_rps"] >= goodput_floor, (
        f"controlled goodput {controlled_10x['goodput_rps']} under "
        f"{goodput_floor:.0f} req/s at {MULTIPLIERS[-1]}x")
    assert controlled_10x["interactive_p99_ms"] <= SLO_MS, (
        f"controlled interactive p99 "
        f"{controlled_10x['interactive_p99_ms']} ms over the "
        f"{SLO_MS:.0f} ms SLO at {MULTIPLIERS[-1]}x")
    assert naive_10x["goodput_rps"] < goodput_floor, (
        "naive goodput held the bar — the overload run is not "
        "actually overloading")
    assert naive_10x["interactive_p99_ms"] > SLO_MS, (
        "naive interactive p99 held the SLO — the overload run is "
        "not actually overloading")
    # Control honesty: shedding actually happened, with real 503s.
    assert controlled_10x["shed_503"] > 0
