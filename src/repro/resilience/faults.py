"""Fault injection: scripted and probabilistic database failures.

The standing chaos-test tool of the repository.  A
:class:`FaultInjector` is built from a compact spec string and wired in
at one of three places:

* around a connection factory (:func:`wrap_factory`, or
  ``DatabaseRegistry.inject_faults``) — connections it produces fail to
  open, fail mid-query, slow down, or drop their socket;
* the CLI, via ``--inject-faults SPEC`` on ``run``/``render``/``serve``;
* ambiently for a whole test run (``pytest --inject-faults SPEC``) —
  the gateway then injects *retry-safe* faults into idempotent reads
  and absorbs them with a default retry policy, proving the suite is
  failure-tolerant.

Spec grammar (clauses joined with commas)::

    prob:P            connect and query faults, each with probability P
    connect:P         connection establishment fails (SQLSTATE 08001)
    query:P           a statement fails with a transient class
                      (40001 deadlock / 57033 timeout / 57030 unavailable)
    slow:P[:SECONDS]  a statement stalls SECONDS (default 0.05) first
    disconnect:P      the connection drops mid-query (broken socket)
    every:N[:KIND]    deterministic: every Nth KIND operation fails
                      (KIND defaults to query)
    down              the backend is unreachable: every connect fails
    seed:N            seed the injector's RNG (default 96)

Example: ``--inject-faults prob:0.05,slow:0.01:0.02,seed:7``.

All injection happens *before* the real operation runs, so an injected
fault never leaves partial state behind — which is what makes the
ambient mode safe to retry.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.blocking import BLOCKING, WouldBlock
from repro.errors import (
    ReproError,
    SQLConnectError,
    SQLDeadlockError,
    SQLError,
    SQLTimeoutError,
    PoolExhaustedError,
)
from repro.sql.connection import Connection

#: Fault kinds with a probability knob.
_PROB_KINDS = ("connect", "query", "slow", "disconnect")

#: The transient error classes a ``query`` fault cycles through.
_QUERY_ERRORS: tuple[Callable[[str], SQLError], ...] = (
    lambda sql: SQLDeadlockError(
        f"injected deadlock (40001) for: {sql[:60]}"),
    lambda sql: SQLTimeoutError(
        f"injected timeout (57033) for: {sql[:60]}"),
    lambda sql: PoolExhaustedError(
        f"injected resource-unavailable (57030) for: {sql[:60]}"),
)


class FaultSpecError(ReproError):
    """An ``--inject-faults`` spec string could not be parsed."""


@dataclass
class FaultSpec:
    """Parsed fault configuration (see the module grammar)."""

    connect: float = 0.0
    query: float = 0.0
    slow: float = 0.0
    slow_seconds: float = 0.05
    disconnect: float = 0.0
    every: int = 0
    every_kind: str = "query"
    down: bool = False
    seed: int = 96

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        spec = cls()
        for clause in filter(None, (c.strip() for c in text.split(","))):
            head, *args = clause.split(":")
            head = head.lower()
            try:
                if head == "prob":
                    (rate,) = args
                    spec.connect = spec.query = _rate(rate)
                elif head in ("connect", "query", "disconnect"):
                    (rate,) = args
                    setattr(spec, head, _rate(rate))
                elif head == "slow":
                    spec.slow = _rate(args[0])
                    if len(args) > 1:
                        spec.slow_seconds = float(args[1])
                elif head == "every":
                    spec.every = int(args[0])
                    if spec.every < 1:
                        raise FaultSpecError(
                            f"every:N needs N >= 1, got {spec.every}")
                    if len(args) > 1:
                        kind = args[1].lower()
                        if kind not in ("connect", "query"):
                            raise FaultSpecError(
                                f"every:N:{kind}: kind must be "
                                "connect or query")
                        spec.every_kind = kind
                elif head == "down":
                    spec.down = True
                elif head == "seed":
                    (value,) = args
                    spec.seed = int(value)
                else:
                    raise FaultSpecError(
                        f"unknown fault clause {clause!r}")
            except FaultSpecError:
                raise
            except (ValueError, TypeError) as exc:
                raise FaultSpecError(
                    f"bad fault clause {clause!r}: {exc}") from exc
        return spec


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise FaultSpecError(f"probability {value} outside [0, 1]")
    return value


class FaultInjector:
    """Injects failures according to a :class:`FaultSpec`.

    Deterministic for a given seed and operation sequence; thread-safe
    (one lock guards the RNG and the counters), so a single injector can
    sit under a concurrent workload.
    """

    def __init__(self, spec: FaultSpec | str | None = None, *,
                 seed: Optional[int] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if isinstance(spec, str):
            spec = FaultSpec.parse(spec)
        self.spec = spec or FaultSpec()
        self._rng = random.Random(
            seed if seed is not None else self.spec.seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._ops = {"connect": 0, "query": 0}
        self._injected = {kind: 0 for kind in
                          (*_PROB_KINDS, "every", "down")}

    @classmethod
    def parse(cls, text: str, **kwargs: Any) -> "FaultInjector":
        return cls(FaultSpec.parse(text), **kwargs)

    # -- injection points ------------------------------------------------

    def before_connect(self) -> None:
        """Fault point for connection establishment."""
        with self._lock:
            self._ops["connect"] += 1
            if self.spec.down:
                self._injected["down"] += 1
                raise SQLConnectError("injected outage: backend is down")
            if self._nth("connect"):
                self._injected["every"] += 1
                raise SQLConnectError("injected connect failure (every)")
            if self._roll(self.spec.connect):
                self._injected["connect"] += 1
                raise SQLConnectError("injected connect failure")

    def before_query(self, sql: str,
                     connection: Optional[Connection] = None) -> None:
        """Fault point for statement execution.

        Raised faults happen *before* the statement touches the
        database.  ``disconnect`` additionally closes ``connection`` so
        the caller's pool sees a genuinely dead connection.
        """
        stall = 0.0
        error: Optional[SQLError] = None
        drop = False
        with self._lock:
            self._ops["query"] += 1
            if self._nth("query"):
                self._injected["every"] += 1
                error = self._rng.choice(_QUERY_ERRORS)(sql)
            elif self._roll(self.spec.disconnect):
                self._injected["disconnect"] += 1
                drop = True
                error = SQLConnectError(
                    "injected broken socket: connection lost",
                    sqlstate="08006")
            elif self._roll(self.spec.query):
                self._injected["query"] += 1
                error = self._rng.choice(_QUERY_ERRORS)(sql)
            if self._roll(self.spec.slow):
                self._injected["slow"] += 1
                stall = self.spec.slow_seconds
        if stall > 0.0:
            if BLOCKING.attempt is not None:
                raise WouldBlock("sleep")
            self._sleep(stall)
        if drop and connection is not None:
            connection.close()
        if error is not None:
            raise error

    # -- internals (call with the lock held) -----------------------------

    def _roll(self, probability: float) -> bool:
        return probability > 0.0 and self._rng.random() < probability

    def _nth(self, kind: str) -> bool:
        return (self.spec.every > 0 and self.spec.every_kind == kind
                and self._ops[kind] % self.spec.every == 0)

    # -- observability ---------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Cumulative counters: operations seen and faults injected."""
        with self._lock:
            stats = {f"{kind}_ops": count
                     for kind, count in self._ops.items()}
            stats.update({f"injected_{kind}": count
                          for kind, count in self._injected.items()})
            stats["injected_total"] = sum(self._injected.values())
            return stats


class FaultyConnection:
    """A :class:`Connection` proxy that consults a fault injector.

    Statement execution passes through :meth:`FaultInjector.before_query`
    first; everything else (transactions, close, generation, ping)
    delegates to the wrapped connection untouched, so health checks and
    pool eviction observe the *real* connection state.
    """

    def __init__(self, connection: Connection, injector: FaultInjector):
        self._conn = connection
        self._injector = injector

    def execute(self, sql: str, parameters: Iterable[Any] = ()):
        self._injector.before_query(sql, self._conn)
        return self._conn.execute(sql, parameters)

    def executescript(self, script: str) -> None:
        self._injector.before_query(script, self._conn)
        self._conn.executescript(script)

    # generation is read *and written* by the registry; a plain
    # __getattr__ fallback would set it on the proxy, not the target.
    @property
    def generation(self):
        return self._conn.generation

    @generation.setter
    def generation(self, value) -> None:
        self._conn.generation = value

    def __getattr__(self, name: str):
        return getattr(self._conn, name)

    def __enter__(self) -> "FaultyConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._conn.close()


ConnectionFactory = Callable[[], Connection]


def wrap_factory(factory: ConnectionFactory,
                 injector: FaultInjector) -> ConnectionFactory:
    """Wrap a connection factory so its connections misbehave on cue."""

    def faulty_factory() -> Connection:
        injector.before_connect()
        return FaultyConnection(factory(), injector)  # type: ignore[return-value]

    return faulty_factory


# ---------------------------------------------------------------------------
# Ambient injection (chaos mode for a whole test run)
# ---------------------------------------------------------------------------

_ambient: Optional[FaultInjector] = None


def set_ambient_injector(injector: Optional[FaultInjector]) -> None:
    """Install (or clear) the process-wide ambient injector.

    While set, :class:`~repro.sql.gateway.MacroSqlSession` injects
    transient faults into idempotent reads *before* they execute and —
    when the caller configured no policy of its own — absorbs them with
    :data:`repro.resilience.retry.DEFAULT_RETRY`.  The tier-1 suite must
    pass unchanged with an ambient ``prob:0.05`` injector; CI runs that
    combination (see the ``chaos`` job).
    """
    global _ambient
    _ambient = injector


def ambient_injector() -> Optional[FaultInjector]:
    return _ambient
