"""The four workloads: request sequences and arrival schedules (stdlib only).

Everything here is a pure function of ``(seed, workload, phase)``: the
same seed replays the same requests in the same order at the same
intended send times, so a parent commit and a change do identical work.
The program under test only ever sees the generated requests.

The URL and order databases are the repo's own example data
(``repro.apps.datasets``, fixed dataset seed 96); the names below — the
search strings, customer ids and product names — are values that data
contains.  Only the *order* and *timing* of requests vary with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from urllib.parse import urlencode

FORM = "application/x-www-form-urlencoded"

CGI = "/cgi-bin/db2www"
#: The no-SQL page every target serves; the edge's floor round trip.
FLOOR_TARGET = f"{CGI}/urlquery.d2w/input"

#: Launches per run and slices per launch and loop (full mode): every
#: gated figure is a median over 4 x 2 = 8 slices.  Fewer than six
#: would leave the median resting on two or three values.
LAUNCHES = 4
SLICES_PER_LAUNCH = 2

#: ``--recycle-after`` for the app-server workload: never inside a run.
#: With the default (500) both workers reach their limit together and
#: are respawned on the request path — a ~0.4 s stall every 1000
#: requests that makes a phase's p95 either 5 ms or 25 ms by luck.
NO_RECYCLE = 1_000_000

#: Share of order-entry POSTs in the order workload.  Each is two
#: commits, and a commit is a disk flush whose cost on a shared disk
#: swings between 0.5 and 5 ms from one minute to the next — so at a
#: larger share the workload's every figure follows the disk, not the
#: program (at 20 % its throughput halved when the disk got busy).
ENTRY_SHARE = 0.04

_SEARCHES = ("ib", "acme", "soft", "data", "news", "web", "res", "net")
_FIELD_SETS = (("title",), ("title", "description"))
_CUSTOMERS = tuple(10100 + 100 * k for k in range(40))
_ZIPF_WEIGHTS = tuple(1.0 / rank for rank in range(1, len(_CUSTOMERS) + 1))
_PRODUCTS = ("bikes", "helmets", "tents", "lanterns", "canoes", "skis",
             "ropes", "boots", "stoves", "maps", "packs", "kayaks",
             "compasses", "paddles", "jackets", "gloves")


@dataclass(frozen=True)
class Request:
    """One HTTP request the generator sends.

    ``kind`` selects the output check: ``page`` responses are compared
    byte-for-byte (length + SHA-1) with the page computed in-process
    before load; ``search`` and ``entry`` pages depend on the writes
    that preceded them and are checked by status and trailer text.
    """

    method: str
    target: str
    body: bytes = b""
    kind: str = "page"

    @property
    def content_type(self) -> str:
        return FORM if self.method == "POST" else ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: which example application the target serves
    app: str
    #: rows seeded into the application's main table
    rows: int
    #: extra ``repro serve`` arguments (beyond the common ones)
    serve_args: tuple[str, ...]
    #: closed-loop requests, open-loop rate and requests (scale 1.0)
    closed_count: int
    open_rate: float
    open_count: int
    #: in-process traced-pass and 1-connection round-trip request counts
    trace_count: int
    rtt_count: int
    #: discarded requests sent to every fresh target before timing starts
    warmup_count: int = 200

    def scaled(self, scale: float, *,
               slices: int = LAUNCHES * SLICES_PER_LAUNCH) -> "Workload":
        """The same workload with every count multiplied by ``scale``
        (rounded to whole slices, never below 20 requests a slice)."""
        def fit(count: int, slices: int) -> int:
            return max(20, round(count * scale / slices)) * slices

        return Workload(
            self.name, self.why, self.app, self.rows, self.serve_args,
            closed_count=fit(self.closed_count, slices),
            open_rate=self.open_rate,
            open_count=fit(self.open_count, slices),
            trace_count=fit(self.trace_count, 1),
            rtt_count=fit(self.rtt_count, 1),
            warmup_count=fit(self.warmup_count, 1))


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            "report_hot",
            "small cache-resident reports: the per-request fixed cost "
            "(edge parse, executor hand-off, obs, emit, socket hop) is "
            "~70% of the round trip, so edge/http/obs/cgi work shows here",
            app="urlquery", rows=150, serve_args=(),
            closed_count=16000, open_rate=250.0, open_count=3000,
            trace_count=2000, rtt_count=3000),
        Workload(
            "report_large",
            "1000-row pages (137-189 KB): core row rendering is ~90-95% "
            "of the time and the edge little, so template/streaming/emit "
            "changes show here, edge changes must not, and RSS moves",
            app="urlquery", rows=1000, serve_args=(),
            closed_count=1200, open_rate=30.0, open_count=450,
            trace_count=300, rtt_count=300),
        Workload(
            "orders_mixed",
            "96% order searches + 4% order-entry POSTs (two INSERTs "
            "each): cache churn, connect-per-request, commit path and "
            "POST parsing, so a read gain that taxes writes shows",
            app="orders", rows=300, serve_args=(),
            closed_count=8000, open_rate=200.0, open_count=2400,
            trace_count=2000, rtt_count=3000),
        Workload(
            "appserver_hot",
            "report_hot's requests through --gateway appserver: frame "
            "codec, worker hop and dispatcher bookkeeping dominate; the "
            "other workloads bypass appserver/, so only this one moves",
            app="urlquery", rows=150,
            serve_args=("--gateway", "appserver", "--workers", "2",
                        "--recycle-after", str(NO_RECYCLE)),
            closed_count=12000, open_rate=250.0, open_count=3000,
            trace_count=2000, rtt_count=3000),
    )
}


# -- request sequences -----------------------------------------------------

def _report(search: str, fields: tuple[str, ...], *,
            use: bool = True, show_sql: bool = False) -> Request:
    pairs = []
    if use:
        pairs += [("SEARCH", search), ("USE_URL", "yes"),
                  ("USE_TITLE", "yes")]
    pairs += [("DBFIELDS", name) for name in fields]
    if show_sql:
        pairs.append(("SHOWSQL", "YES"))
    return Request("GET", f"{CGI}/urlquery.d2w/report?{urlencode(pairs)}")


HOT_VARIANTS = tuple(_report(search, fields)
                     for search in _SEARCHES for fields in _FIELD_SETS)
LARGE_VARIANTS = (
    _report("", ("title",), use=False),
    _report("", ("description",), use=False),
    _report("", ("title", "description"), use=False),
    _report("", ("title", "description"), use=False, show_sql=True),
)


def _order_request(rng: random.Random) -> Request:
    customer = rng.choices(_CUSTOMERS, weights=_ZIPF_WEIGHTS)[0]
    if rng.random() < ENTRY_SHARE:
        body = urlencode([("order_cust", customer),
                          ("order_prod", rng.choice(_PRODUCTS)),
                          ("order_qty", rng.randint(1, 12))])
        return Request("POST", f"{CGI}/orderentry.d2w/report",
                       body.encode("ascii"), kind="entry")
    pairs = [("cust_inp", customer)]
    if rng.random() < 0.3:
        pairs.append(("prod_inp", rng.choice(_PRODUCTS)[:3]))
    return Request("GET", f"{CGI}/ordersearch.d2w/report?{urlencode(pairs)}",
                   kind="search")


def read_variants(workload: Workload) -> tuple[Request, ...]:
    """The distinct byte-checked pages of a workload (empty for orders)."""
    if workload.app == "orders":
        return ()
    return LARGE_VARIANTS if workload.name == "report_large" \
        else HOT_VARIANTS


def warmup_sequence(workload: Workload, seed: int) -> list[Request]:
    return sequence(workload, seed, "warmup", workload.warmup_count)


def sequence(workload: Workload, seed: int, phase: str,
             count: int) -> list[Request]:
    """``count`` requests for one phase — a pure function of the seed.

    The ``warmup`` phase of the report workloads walks the variants
    round-robin instead of drawing them, so every page is cache-resident
    before timing starts whatever the seed.
    """
    rng = random.Random(f"{seed}/{workload.name}/{phase}")
    if workload.app == "orders":
        return [_order_request(rng) for _ in range(count)]
    variants = read_variants(workload)
    if phase == "warmup":
        return [variants[i % len(variants)] for i in range(count)]
    return [rng.choice(variants) for _ in range(count)]


def poisson_schedule(seed: int, workload: Workload, count: int,
                     part: int = 0) -> list[float]:
    """Intended send offsets (seconds from the loop's start) of the
    ``part``-th open loop of a run: exponential gaps at the workload's
    fixed rate."""
    rng = random.Random(f"{seed}/{workload.name}/arrivals/{part}")
    clock = 0.0
    offsets = []
    for _ in range(count):
        clock += rng.expovariate(workload.open_rate)
        offsets.append(clock)
    return offsets
