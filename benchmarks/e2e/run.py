#!/usr/bin/env python3
"""The repo's end-to-end benchmark: the served gateway, from outside.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--quick]
                                  [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
                                  --trace 0|1        (the driver's form)

Launches the shipped server (``python -m repro serve``) as a child
process, drives it over loopback from this one process with two
keep-alive connections, checks every response, and reports the metrics
``BENCHMARK.json`` declares: end-to-end ones from a closed-loop and an
open-loop phase, per-layer ones from a separate traced pass.  See
``README.md`` next to this file for every definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import stats  # noqa: E402
from pace import PaceProbe  # noqa: E402
from loadgen import (  # noqa: E402
    Verifier, closed_loop, open_loop, round_trips)
from target import (  # noqa: E402
    OUT_DIR, REPO_ROOT, SRC_DIR, Target, holds_socket_dir, make_workdir,
    order_rows, plan_pinning, seed_files)
from workloads import (  # noqa: E402
    FLOOR_TARGET, LAUNCHES, SLICES_PER_LAUNCH, WORKLOADS, Request, Workload,
    poisson_schedule, read_variants, sequence, warmup_sequence)

#: ``--seconds`` at which the workloads run the counts written in
#: ``workloads.py`` (about that long in closed + open loop on the 2-core
#: box they were sized on); other values scale every count by one
#: common factor, SECONDS / NOMINAL_SECONDS.
NOMINAL_SECONDS = 27
DEFAULT_SECONDS = 20
#: Generator connections = generator threads; never above the core count.
CONNECTIONS = 2
#: The workload on which default observability is compared with
#: ``--no-trace`` (diluted to noise on the others).
OBS_WORKLOAD = "report_hot"


class Plan:
    """How one invocation sizes its phases."""

    def __init__(self, *, scale: float, quick: bool):
        self.scale = scale / 10.0 if quick else scale
        self.launches = 2 if quick else LAUNCHES

    @property
    def slices(self) -> int:
        return self.launches * SLICES_PER_LAUNCH

    def size(self, workload: Workload) -> Workload:
        return workload.scaled(self.scale, slices=self.slices)


@dataclass
class Measured:
    """The closed and open loops of every launch of one run, by slice:
    raw readings, and the pace of the server's core while each was
    taken (1.0 where no probe runs)."""

    rates: list[float] = field(default_factory=list)
    cpu_ms: list[float] = field(default_factory=list)
    closed_pace: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    latency_ms: list[list[float]] = field(default_factory=list)
    lateness_ms: list[list[float]] = field(default_factory=list)
    open_pace: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_pace: list[float] = field(default_factory=list)
    closed_requests: int = 0
    client_cpu_s: float = 0.0
    closed_wall_s: float = 0.0
    reconnects: int = 0

    def add_closed(self, closed, rss: float, pace) -> None:
        marks = closed.cpu_marks
        size = marks[1][0]
        clock = [closed.start] + [closed.completions[done - 1]
                                  for done, _ in marks[1:]]
        self.rates += stats.rate_slices(clock, size)
        self.cpu_ms += [1000.0 * (after - before) / size
                        for (_, before), (_, after) in zip(marks, marks[1:])]
        self.closed_pace += [pace(start, end)
                             for start, end in zip(clock, clock[1:])]
        self.rss_mb.append(rss)
        self.closed_requests += len(closed.completions)
        self.client_cpu_s += closed.client_cpu_s
        self.closed_wall_s += closed.wall_s
        self.reconnects += closed.reconnects

    def add_open(self, opened, offsets: list[float], pace) -> None:
        for values, into in ((opened.latency, self.latency_ms),
                             (opened.lateness, self.lateness_ms)):
            into += stats.split_slices([1000.0 * value for value in values],
                                       SLICES_PER_LAUNCH)
        due = stats.split_slices(offsets, SLICES_PER_LAUNCH)
        self.open_pace += [pace(opened.start + chunk[0],
                                opened.start + chunk[-1]) for chunk in due]
        self.reconnects += opened.reconnects

    def add_setup(self, target: Target, pace) -> None:
        self.setup_s.append(target.setup_s)
        self.setup_pace.append(pace(target.began, target.ready))


def at_reference_pace(values: list[float], paces: list[float], *,
                      rate: bool = False, best: bool = False) -> dict:
    """A metric's result entry: per-slice readings brought to reference
    pace (a time shrinks by the pace it was taken at, a rate grows by
    it), their median, and the median of the raw readings beside it.

    ``best`` reports the least of the slices instead of their median —
    for open-loop latency, where whatever else the host is doing can
    only ever add to a slice's percentile, never take away from it.
    """
    slices = [value * pace if rate else value / pace
              for value, pace in zip(values, paces)]
    pick = min if best else stats.median
    return {"value": pick(slices), "raw": pick(values), "slices": slices}


# -- one workload ----------------------------------------------------------

class WorkloadRun:
    """Everything measured for one workload in one invocation."""

    def __init__(self, workload: Workload, seed: int, plan: Plan,
                 workdir: Path, pinning, *, corrupt: bool = False):
        self.base = plan.size(workload)
        self.seed = seed
        self.plan = plan
        self.workdir = workdir
        self.pinning = pinning
        self.probe: Optional[PaceProbe] = None
        self.measured = Measured()
        self.notes: list[str] = []
        self.verify = Verifier(self._expected_pages())
        if corrupt:
            # Harness self-check: with one expected hash wrong the run
            # must report failures and exit non-zero.
            pages = read_variants(self.base) or (Request("GET", FLOOR_TARGET),)
            target = pages[0].target
            length, digest = self.verify.expected[target]
            self.verify.expected[target] = (length, digest[::-1])

    def _scratch(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="i", dir=self.workdir))

    def _expected_pages(self) -> dict[str, tuple[int, str]]:
        import layers

        directory = self._scratch()
        try:
            macros, database = seed_files(self.base, directory)
            stack = layers.build_stack(self.base, macros, database,
                                       appserver=False)
            pages = read_variants(self.base) + (Request("GET", FLOOR_TARGET),)
            return layers.expected_pages(stack.router, pages)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def launch(self, *, tracing: bool = True) -> Target:
        return Target(self.base, self.seed, self.workdir,
                      verify=self.verify, pinning=self.pinning,
                      tracing=tracing)

    def pace(self, start: float, end: float) -> float:
        """The server core's pace over a clock interval; 1.0 without a
        probe, and the run's pace so far for an interval in which the
        server never let the probe run."""
        if self.probe is None:
            return 1.0
        return (self.probe.pace(start, end)
                or self.probe.pace(0.0, float("inf")) or 1.0)

    def _check_growth(self, target: Target, sent: list[Request]) -> None:
        """After a launch's work: the order tables must have grown by
        exactly the entries sent to it."""
        if self.base.app != "orders":
            return
        entries = sum(request.kind == "entry"
                      for request in target.warmup + sent)
        orders, audit = order_rows(target.database)
        grown = (orders - self.base.rows, audit)
        if grown != (entries, entries):
            self.verify.failed += 1
            self.notes.append(
                f"{entries} order entries sent but orders/order_audit "
                f"grew by {grown}")

    # -- end-to-end phases -------------------------------------------------

    def measure(self, workload: Workload) -> Measured:
        """Closed loop then open loop against each of the run's launches.

        Several launches, not one: a server's speed differs a little
        from launch to launch (address layout, hash seed), and a run
        that met one slow launch would read as a slow commit.
        """
        launches = self.plan.launches
        closed = stats.split_slices(sequence(
            workload, self.seed, "closed", workload.closed_count), launches)
        opened = stats.split_slices(sequence(
            workload, self.seed, "open", workload.open_count), launches)
        measured = self.measured
        # The probe runs for the loops only: without pinning there is no
        # one core whose pace the server's follows, so no probe and no
        # correction; and the in-process passes run on another core.
        if self.pinning:
            self.probe = PaceProbe(self.pinning["server"])
        try:
            for part, (closed_part, open_part) in enumerate(
                    zip(closed, opened)):
                offsets = poisson_schedule(self.seed, workload,
                                           len(open_part), part)
                with self.launch() as target:
                    measured.add_setup(target, self.pace)
                    result = closed_loop(
                        target.connect, closed_part, self.verify,
                        connections=CONNECTIONS,
                        server_cpu=target.cpu_clock(),
                        cpu_every=len(closed_part) // SLICES_PER_LAUNCH)
                    measured.add_closed(result, target.peak_rss_mb(),
                                        self.pace)
                    measured.add_open(
                        open_loop(target.connect, open_part, offsets,
                                  self.verify, connections=CONNECTIONS),
                        offsets, self.pace)
                    self._check_growth(target, closed_part + open_part)
        finally:
            if self.probe is not None:
                self.probe.stop()
                self.probe = None
        return measured

    def end_to_end(self, measured: Measured) -> dict[str, dict]:
        def percentiles(pct: float) -> list[float]:
            return [stats.percentile(chunk, pct)
                    for chunk in measured.latency_ms]

        rss = measured.rss_mb
        return {
            "setup_s": at_reference_pace(measured.setup_s,
                                         measured.setup_pace),
            "throughput_rps": at_reference_pace(
                measured.rates, measured.closed_pace, rate=True),
            "latency_p50_ms": at_reference_pace(
                percentiles(50), measured.open_pace, best=True),
            "latency_p95_ms": at_reference_pace(
                percentiles(95), measured.open_pace, best=True),
            "cpu_ms_per_request": at_reference_pace(measured.cpu_ms,
                                                    measured.closed_pace),
            "server_peak_rss_mb": {"value": stats.median(rss),
                                   "raw": stats.median(rss), "slices": rss},
        }

    # -- per-layer pass ----------------------------------------------------

    def per_layer(self, measured: Measured,
                  e2e: dict[str, dict]) -> dict[str, Optional[float]]:
        import layers

        workload = self.base
        head = sequence(workload, self.seed, "closed", workload.closed_count)
        budget, baseline = self._budgets(layers, head[:workload.trace_count])
        edge = self._edge_passes(head[:workload.rtt_count])

        values: dict[str, Optional[float]] = {}
        for layer in layers.LAYERS:
            values[f"{layer}.self_us"] = budget.self_us[layer]
        values["core.render.rows_per_request"] = budget.rows_per_request
        values["sql.cache.hit_ratio"] = budget.cache_hit_ratio
        values["sql.backend.calls_per_request"] = \
            budget.counts.get("sql.backend", 0.0)
        values["appserver.retries"] = budget.appserver_retries
        values["appserver.codec.self_us"] = budget.codec_us
        values["appserver.hop_us"] = None
        if baseline is not None and values["appserver.dispatch.self_us"]:
            values["appserver.hop_us"] = (
                values["appserver.dispatch.self_us"]
                - baseline.busy_us.get("cgi.program", 0.0))
        values["inproc.total_us"] = budget.untraced.mean_us
        values["inproc.p50_us"] = budget.untraced.p50_us
        values["budget.sum_error_pct"] = budget.sum_error_pct
        values["budget.trace_overhead_pct"] = budget.trace_overhead_pct
        if budget.missing:
            self.notes.append("boundaries no longer in src/: "
                              + ", ".join(budget.missing))

        values.update(edge)
        rtt = values["edge.rtt_p50_us"]
        values["edge.residual_us"] = rtt - budget.untraced.p50_us
        values["edge.residual_share"] = values["edge.residual_us"] / rtt
        # Raw against raw: the in-process replay has no pace correction.
        values["edge.cpu_us_per_request"] = (
            1000.0 * e2e["cpu_ms_per_request"]["raw"]
            - budget.untraced.cpu_us)
        values["edge.reconnects"] = float(measured.reconnects)

        late = measured.lateness_ms
        latency = [value for chunk in measured.latency_ms for value in chunk]
        values["client.late_p99_ms"] = stats.percentile(
            [value for chunk in late for value in chunk], 99)
        values["client.backlog_growth_ms"] = stats.median(
            [sum(last) / len(last) - sum(first) / len(first)
             for first, last in zip(late[0::SLICES_PER_LAUNCH],
                                    late[SLICES_PER_LAUNCH - 1::
                                         SLICES_PER_LAUNCH])])
        values["client.latency_p99_ms"] = stats.percentile(latency, 99)
        values["client.latency_max_ms"] = max(latency)
        values["client.cpu_share"] = \
            measured.client_cpu_s / measured.closed_wall_s
        values["host.pace"] = stats.median(
            measured.closed_pace + measured.open_pace)
        return values

    def _budgets(self, layers, requests: list[Request]):
        """The workload's traced pass and, for the app-server workload,
        the plain in-process pass its hop is measured against."""
        warmup = warmup_sequence(self.base, self.seed)
        directory = self._scratch()
        try:
            macros, database = seed_files(self.base, directory)
            stack = layers.build_stack(self.base, macros, database)
            try:
                budget = layers.traced_pass(
                    stack, warmup, requests, self.verify,
                    OUT_DIR / f"trace_{self.base.name}.jsonl")
            finally:
                stack.close()
            baseline = None
            if stack.dispatcher is not None:
                plain = layers.build_stack(self.base, macros, database,
                                           appserver=False)
                baseline = layers.traced_pass(plain, warmup, requests,
                                              self.verify)
            if self.base.app == "orders":
                # The warm-up ran once; both replays ran every entry.
                entries = sum(r.kind == "entry"
                              for r in warmup + requests + requests)
                orders, audit = order_rows(database)
                if (orders - self.base.rows, audit) != (entries, entries):
                    self.verify.failed += 1
                    self.notes.append("in-process replay: order tables did "
                                      "not grow by the entries replayed")
            return budget, baseline
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _edge_passes(self, requests: list[Request]) -> dict:
        """Over TCP, one connection, sequential: the workload's requests,
        the no-SQL floor page, and (one workload) tracing on vs off."""
        floor = [Request("GET", FLOOR_TARGET)] * len(requests)
        values: dict[str, Optional[float]] = {
            "obs.cpu_us_per_request": None, "obs.rtt_delta_us": None}
        with self.launch() as traced:
            with traced.connect() as conn:
                rtt = round_trips(conn, requests, self.verify)
                values["edge.rtt_p50_us"] = 1e6 * stats.median(rtt)
                values["edge.floor_rtt_p50_us"] = 1e6 * stats.median(
                    round_trips(conn, floor, self.verify))
                if self.base.name == OBS_WORKLOAD:
                    with self.launch(tracing=False) as plain, \
                            plain.connect() as plain_conn:
                        values.update(self._obs_passes(
                            (traced, conn), (plain, plain_conn),
                            requests[:len(requests) // 2]))
            self._check_growth(traced, requests)
        return values

    def _obs_passes(self, traced, plain, requests: list[Request]) -> dict:
        """ABAB: default observability vs ``--no-trace``, alternating so
        drift hits both sides alike."""
        sides = [(conn, target.cpu_clock()) for target, conn in (traced, plain)]
        rtt: list[list[float]] = [[], []]
        cpu = [0.0, 0.0]
        for side in (0, 1, 0, 1):
            conn, clock = sides[side]
            before = clock()
            times = round_trips(conn, requests, self.verify)
            cpu[side] += clock() - before
            rtt[side].append(1e6 * stats.median(times))
        return {
            "obs.rtt_delta_us": stats.median(rtt[0]) - stats.median(rtt[1]),
            "obs.cpu_us_per_request":
                1e6 * (cpu[0] - cpu[1]) / (2 * len(requests)),
        }

    # -- drivers -----------------------------------------------------------

    def run(self, *, end_to_end: bool, per_layer: bool) -> dict:
        """Run the requested passes; returns this workload's result."""
        # The per-layer pass alone (driver --trace 1) still needs closed
        # and open loops for its edge and client figures; half the
        # counts keep that run inside the same time budget.
        workload = self.base if end_to_end \
            else self.base.scaled(0.5, slices=self.plan.slices)
        measured = self.measure(workload)
        e2e = self.end_to_end(measured)
        result = {
            "config": {
                "launches": self.plan.launches,
                "closed_requests": measured.closed_requests,
                "open_requests": sum(map(len, measured.latency_ms)),
                "open_rate_rps": workload.open_rate,
                "connections": CONNECTIONS,
                "serve_args": list(self.base.serve_args),
            },
        }
        if end_to_end:
            result["end_to_end"] = e2e
        if per_layer:
            result["per_layer"] = self.per_layer(measured, e2e)
        verify = self.verify
        result["attempted"] = verify.attempted
        result["failed"] = verify.failed
        result["error_rate"] = verify.failed / verify.attempted
        if verify.first_failure:
            self.notes.append("first failure: " + verify.first_failure)
        result["notes"] = self.notes
        return result


# -- output ----------------------------------------------------------------

def load_declaration() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _units(declaration: dict, group: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in declaration[group]}


def print_workload(name: str, result: dict, declaration: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed "
          f"{result['failed']} (error_rate {result['error_rate']:.6f})")
    for group in ("end_to_end", "per_layer"):
        units = _units(declaration, group)
        for metric, entry in result.get(group, {}).items():
            value = entry["value"] if isinstance(entry, dict) else entry
            shown = "null" if value is None else f"{value:.4f}"
            print(f"  {metric:<32} {shown:>14} {units.get(metric, '?')}")
    for note in result["notes"]:
        print(f"  note: {note}")


def driver_line(result: dict, declaration: dict, group: str) -> str:
    """The one-line JSON result the benchmark contract asks for."""
    metrics = {}
    for name, unit in _units(declaration, group).items():
        entry = result[group][name]
        value = entry["value"] if isinstance(entry, dict) else entry
        # A boundary that does not apply to this workload (or is gone
        # from src/) is null in the result file; the contract wants a
        # number on every line.
        metrics[name] = {"value": 0.0 if value is None else value,
                         "unit": unit}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics})


# -- entry point -----------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=96,
                        help="request order and arrival times (default 96)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="scale every count by SECONDS/"
                             f"{NOMINAL_SECONDS} (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end metrics only, "
                             "1 = per-layer metrics only; prints the "
                             "contract's JSON line last")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: counts / 10, 3 slices; the "
                             "result is marked quick and never compared")
    parser.add_argument("--out", type=Path,
                        help="result file (default out/result.json)")
    parser.add_argument("--workdir", type=Path,
                        help="scratch directory for database files and "
                             "sockets (default: out/ next to this file; "
                             "e.g. /dev/shm/e2e for tmpfs)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="compare two result files against the "
                             "bounds in BENCHMARK.json")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="harness self-check: corrupt one expected "
                             "page hash; the run must then fail")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


def host_facts(pinning) -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "pinning": pinning}


def main(argv=None) -> int:
    args = parse_args(argv)
    declaration = load_declaration()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], declaration)
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: {SRC_DIR}/repro not found: nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    # Let `finally` blocks stop the launched servers if we are told to go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    pinning = plan_pinning()
    if pinning is not None:
        os.sched_setaffinity(0, pinning["generator"])
    plan = Plan(scale=args.seconds / NOMINAL_SECONDS, quick=args.quick)
    names = [args.workload] if args.workload else list(WORKLOADS)
    workdir = make_workdir(args.workdir)
    # In-process app-server dispatchers put their socket directory here.
    if holds_socket_dir(workdir):
        tempfile.tempdir = str(workdir)
    began = time.time()
    results = {}
    try:
        for name in names:
            run = WorkloadRun(WORKLOADS[name], args.seed, plan, workdir,
                              pinning, corrupt=args.corrupt_expected)
            results[name] = run.run(end_to_end=args.trace != 1,
                                    per_layer=args.trace != 0)
            print_workload(name, results[name], declaration)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    document = {
        "schema": 1, "benchmark": "e2e", "quick": args.quick,
        "seed": args.seed, "scale": plan.scale,
        "wall_s": time.time() - began, "host": host_facts(pinning),
        "workloads": results,
    }
    out = args.out or OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    failed = sum(result["failed"] for result in results.values())
    if args.trace is not None:
        group = "per_layer" if args.trace else "end_to_end"
        print(driver_line(results[args.workload], declaration, group))
    else:
        print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
