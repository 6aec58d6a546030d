"""The load generator: output check, closed loop, open loop (stdlib only).

One process, two threads, one keep-alive connection each — never more
generator threads than the machine has cores.  Work is fixed by *count*:
a phase replays a request list, so a faster server finishes sooner but
does the same work.

* closed loop (capacity): each connection sends its next request when
  the previous reply is complete.  The clock is kept for every
  completion and the server's CPU is sampled every ``cpu_every``
  completions, so the caller can cut the phase into equal slices by
  completion order.
* open loop (latency): requests are due at seeded Poisson instants and
  latency is timed from the instant a request was *due*, so the wait a
  stall imposes on later requests is counted, not omitted.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from httpclient import HttpConnection, HttpError
from workloads import Request

#: A phase that runs this long is broken, not slow: fail the run while
#: the whole benchmark can still exit inside its time limit.
PHASE_LIMIT_S = 20.0

_MATCHED = re.compile(rb"<P>(\d+) order\(s\) matched\.</P>")
_ENTRY_OK = (b"Order recorded for customer", b"Audit trail written.")


class PhaseTimeout(RuntimeError):
    """A load phase exceeded ``PHASE_LIMIT_S``."""


# -- output check ----------------------------------------------------------

class Verifier:
    """Checks every response; counts attempts and failures.

    ``expected`` maps a page request's target to ``(length, sha1)`` of
    the page computed in-process before load.  Order searches and order
    entries depend on earlier writes, so they are checked by status and
    by the text a successful page must end with; the table growth they
    cause is checked separately, after each phase.
    """

    def __init__(self, expected: dict[str, tuple[int, str]]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.entries = 0
        self.first_failure = ""
        self._lock = threading.Lock()

    def __call__(self, request: Request, status: int, body: bytes) -> bool:
        ok = status == 200 and self._body_ok(request, body)
        with self._lock:
            self.attempted += 1
            if request.kind == "entry":
                self.entries += 1
            if not ok:
                self.failed += 1
                if not self.first_failure:
                    self.first_failure = (
                        f"{request.method} {request.target} -> {status}, "
                        f"{len(body)} bytes: {body[:120]!r}")
        return ok

    def abandoned(self, request: Request, error: Exception) -> None:
        """A request whose response never arrived counts as failed."""
        self(request, 0, str(error).encode())

    def _body_ok(self, request: Request, body: bytes) -> bool:
        if request.kind == "search":
            return _MATCHED.search(body) is not None
        if request.kind == "entry":
            return all(marker in body for marker in _ENTRY_OK)
        want = self.expected.get(request.target)
        return (want is not None and len(body) == want[0]
                and hashlib.sha1(body).hexdigest() == want[1])


def fetch(conn: HttpConnection, request: Request,
          verify: Verifier) -> None:
    """One verified round trip; a dead connection is a failed request."""
    try:
        status, body = conn.request(request.method, request.target,
                                    request.body, request.content_type)
    except HttpError as exc:
        verify.abandoned(request, exc)
    else:
        verify(request, status, body)


# -- closed loop -----------------------------------------------------------

@dataclass
class ClosedResult:
    #: clock at phase start and at every completion, in completion order
    start: float = 0.0
    completions: list[float] = field(default_factory=list)
    #: ``(completions so far, server-tree CPU seconds)``, from the start
    #: of the phase and then every ``cpu_every`` completions
    cpu_marks: list[tuple[int, float]] = field(default_factory=list)
    #: generator process CPU seconds over the phase, and its wall time
    client_cpu_s: float = 0.0
    wall_s: float = 0.0
    reconnects: int = 0


def closed_loop(connect: Callable[[], HttpConnection],
                requests: Sequence[Request], verify: Verifier, *,
                connections: int, server_cpu: Callable[[], float],
                cpu_every: int) -> ClosedResult:
    """Replay ``requests`` over ``connections`` keep-alive connections."""
    total = len(requests)
    result = ClosedResult()
    lock = threading.Lock()
    state = {"next": 0}
    conns = [connect() for _ in range(connections)]
    deadline = time.monotonic() + PHASE_LIMIT_S
    errors: list[BaseException] = []

    def worker(conn: HttpConnection) -> None:
        try:
            while True:
                with lock:
                    index = state["next"]
                    state["next"] += 1
                if index >= total:
                    return
                if time.monotonic() > deadline:
                    raise PhaseTimeout(
                        f"closed loop still running after {PHASE_LIMIT_S}s")
                fetch(conn, requests[index], verify)
                with lock:
                    result.completions.append(time.perf_counter())
                    if len(result.completions) % cpu_every == 0:
                        result.cpu_marks.append(
                            (len(result.completions), server_cpu()))
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True)
               for conn in conns]
    cpu_before = time.process_time()
    result.cpu_marks.append((0, server_cpu()))
    result.start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        result.wall_s = time.perf_counter() - result.start
        result.client_cpu_s = time.process_time() - cpu_before
        result.reconnects = sum(conn.reconnects for conn in conns)
        for conn in conns:
            conn.close()
    if errors:
        raise errors[0]
    return result


# -- open loop -------------------------------------------------------------

@dataclass
class OpenResult:
    #: per request, in arrival order: seconds from due time to reply
    #: complete, and seconds from due time to actually sent
    latency: list[float]
    lateness: list[float]
    #: clock the schedule's offsets count from
    start: float = 0.0
    reconnects: int = 0


def open_loop(connect: Callable[[], HttpConnection],
              requests: Sequence[Request], schedule: Sequence[float],
              verify: Verifier, *, connections: int) -> OpenResult:
    """Send ``requests[i]`` at ``schedule[i]`` seconds from the start.

    Each sender thread owns a connection and takes the next arrival when
    it is free, so a reply that is slow delays only arrivals for which
    *no* connection is free — and that delay is in their latency.
    """
    total = len(requests)
    latency: list[Optional[float]] = [None] * total
    lateness: list[Optional[float]] = [None] * total
    lock = threading.Lock()
    state = {"next": 0}
    conns = [connect() for _ in range(connections)]
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.05
    deadline = time.monotonic() + schedule[-1] + PHASE_LIMIT_S

    def sender(conn: HttpConnection) -> None:
        try:
            while True:
                with lock:
                    index = state["next"]
                    state["next"] += 1
                if index >= total:
                    return
                if time.monotonic() > deadline:
                    raise PhaseTimeout("open loop fell hopelessly behind")
                due = start + schedule[index]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                fetch(conn, requests[index], verify)
                latency[index] = time.perf_counter() - due
                lateness[index] = sent - due
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=sender, args=(conn,), daemon=True)
               for conn in conns]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        reconnects = sum(conn.reconnects for conn in conns)
        for conn in conns:
            conn.close()
    if errors:
        raise errors[0]
    return OpenResult(latency=latency, lateness=lateness, start=start,
                      reconnects=reconnects)


# -- one connection, sequential --------------------------------------------

def round_trips(conn: HttpConnection, requests: Sequence[Request],
                verify: Verifier) -> list[float]:
    """Per-request round-trip seconds over one connection."""
    times = []
    for request in requests:
        tick = time.perf_counter()
        fetch(conn, request, verify)
        times.append(time.perf_counter() - tick)
    return times
