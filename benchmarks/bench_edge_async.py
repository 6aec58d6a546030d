"""PERF-EDGE — the capacity of the asyncio edge.

The asyncio edge serving pipelined keep-alive requests must sustain
>= 5x the req/s of the recorded app-server gateway baseline
(``BENCH_appserver.json``).  The edge's job is to never be the
bottleneck: request framing, routing and response writing must cost
far less than a worker dispatch.

Results land in ``out/bench_edge_async.txt`` and the machine-readable
``out/BENCH_edge.json`` (checked in; CI re-asserts the bar under
``REPRO_BENCH_QUICK=1``).
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path

from repro.http.async_server import AsyncHttpServer
from repro.http.router import Router

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: pipelined requests per write on the capacity bench
PIPELINE_DEPTH = 32
#: total requests for the capacity measurement
CAPACITY_REQUESTS = 2_048 if QUICK else 16_384

#: the recorded single-pool gateway baseline the edge must beat 5x
FALLBACK_BASELINE_RPS = 2257.35


def _baseline_rps() -> float:
    path = Path(__file__).parent / "out" / "BENCH_appserver.json"
    if path.is_file():
        payload = json.loads(path.read_text())
        recorded = payload.get("throughput", {}).get(
            "appserver_req_per_s")
        if recorded:
            return float(recorded)
    return FALLBACK_BASELINE_RPS


def test_bench_edge_capacity(benchmark, artifact):
    """The asyncio edge >= 5x the recorded app-server gateway req/s."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    router = Router()
    router.add_page("/hello", "<H1>Hello</H1>")
    batch = (b"GET /hello HTTP/1.1\r\nHost: bench\r\n\r\n"
             * PIPELINE_DEPTH)
    marker = b"HTTP/1.1 200"
    batches = CAPACITY_REQUESTS // PIPELINE_DEPTH

    with AsyncHttpServer(router, keep_alive_max=10_000_000) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=30.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

            def run_batch() -> None:
                sock.sendall(batch)
                seen = 0
                tail = b""
                while seen < PIPELINE_DEPTH:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        raise AssertionError(
                            "edge closed mid-pipeline")
                    data = tail + chunk
                    seen += data.count(marker)
                    tail = data[-(len(marker) - 1):]

            run_batch()  # warm-up
            start = time.perf_counter()
            for _ in range(batches):
                run_batch()
            elapsed = time.perf_counter() - start

    requests = batches * PIPELINE_DEPTH
    edge_rps = requests / elapsed
    baseline = _baseline_rps()
    speedup = edge_rps / baseline

    lines = [
        f"PERF-EDGE — pipelined keep-alive capacity of the asyncio "
        f"edge ({requests} requests, depth {PIPELINE_DEPTH})",
        "",
        f"{'mode':<34}{'req_per_s':>12}",
        f"{'app-server gateway (recorded)':<34}{baseline:>12.1f}",
        f"{'async edge, static page':<34}{edge_rps:>12.1f}",
        "",
        f"edge_speedup: {speedup:.2f}x",
    ]
    artifact("bench_edge_async.txt", "\n".join(lines) + "\n")
    artifact("BENCH_edge.json", json.dumps({
        "quick": QUICK,
        "edge_capacity": {
            "pipeline_depth": PIPELINE_DEPTH,
            "requests": requests,
            "edge_req_per_s": round(edge_rps, 2),
            "baseline_req_per_s": round(baseline, 2),
            "speedup": round(speedup, 2),
            "bar": 5.0,
        },
    }, indent=2, sort_keys=True) + "\n")
    assert speedup >= 5.0, (
        f"async edge only {speedup:.2f}x the gateway baseline")

