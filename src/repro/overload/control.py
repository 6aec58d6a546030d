"""The adaptive admission controller: bounded queue, WFQ, AIMD shedder.

Three mechanisms, one lock:

* **Bounded admission queue with weighted fair queueing.**  At most
  ``max_concurrent`` requests execute; the next ``queue_limit`` wait,
  ordered by virtual finish time so one chatty client key cannot
  monopolise the queue and heavy requests pay a larger virtual cost
  than cached reads.  Past the limit the incoming request is shed —
  unless a cheaper-priority waiter can be evicted in its place (a
  cached read arriving at a full queue displaces a queued heavy
  report, not the other way round).
* **AIMD on the admit rate, driven by the live interactive p99.**
  Every ``tick_interval`` the controller diffs the interactive-class
  latency histogram (the same :mod:`repro.obs.metrics` histogram the
  scrape endpoints render) to get the p99 *of the last window*.  SLO
  breached → multiplicative decrease, shedding heavy and unclassified
  traffic first and interactive traffic only once the deferrable rate
  has hit its floor; healthy window → additive recovery in the reverse
  order.  Cached reads are never probabilistically shed — refusing
  microseconds of work saves nothing.
* **Queue-time accounting against the deadline budget.**  A waiter
  whose deadline expires in the queue is shed for ~0 cost (504, no
  gateway work); the wait itself is bounded by the remaining budget.

Shed requests raise :class:`~repro.errors.OverloadShedError` carrying
an honest ``Retry-After`` computed from queue depth and the observed
service rate (:mod:`repro.overload.retryafter`).  Every decision is
counted under ``overload_*`` metric names, so ``/metrics`` and
``/statusz`` show the controller working.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

from repro.errors import DeadlineExceededError, OverloadShedError
from repro.obs.metrics import MetricsRegistry, quantile_from_counts
from repro.overload.classify import (
    CACHED,
    COST_CLASSES,
    HEAVY,
    INTERACTIVE,
    UNCLASSIFIED,
    RequestClassifier,
)
from repro.overload.retryafter import queue_retry_hint

#: WFQ virtual cost per class: a heavy report "occupies" eight times the
#: virtual time of a cached read, so fairness is in estimated work, not
#: request count.
_WEIGHTS = {CACHED: 0.5, INTERACTIVE: 1.0, UNCLASSIFIED: 2.0, HEAVY: 4.0}

#: Eviction priority (higher keeps its queue slot longer).
_PRIORITY = {HEAVY: 0, UNCLASSIFIED: 1, INTERACTIVE: 2, CACHED: 3}

#: AIMD tiers: heavy and unclassified share one admit rate that drops
#: first and recovers last.
_DEFERRABLE = "deferrable"
_INTERACTIVE = "interactive"
_TIER = {HEAVY: _DEFERRABLE, UNCLASSIFIED: _DEFERRABLE,
         INTERACTIVE: _INTERACTIVE}

_DEFER_FLOOR = 0.05
_INTERACTIVE_FLOOR = 0.20
_DECREASE = 0.5          # multiplicative, on SLO breach
_INCREASE = 0.10         # additive, per healthy tick
_HEALTHY_FRACTION = 0.8  # p99 below slo * this counts as headroom
_MIN_WINDOW_SAMPLES = 8


class AdmissionTicket:
    """Proof of admission; must be passed back to :meth:`release`."""

    __slots__ = ("cost_class", "key", "client_key", "queued_ms",
                 "admitted_at", "released")

    def __init__(self, cost_class: str, key: str, client_key: str,
                 queued_ms: float, admitted_at: float):
        self.cost_class = cost_class
        self.key = key
        self.client_key = client_key
        self.queued_ms = queued_ms
        self.admitted_at = admitted_at
        self.released = False


class _Waiter:
    __slots__ = ("cost_class", "key", "client_key", "deadline", "vft",
                 "enqueued_at", "event", "state")

    def __init__(self, cost_class, key, client_key, deadline, vft,
                 enqueued_at):
        self.cost_class = cost_class
        self.key = key
        self.client_key = client_key
        self.deadline = deadline
        self.vft = vft
        self.enqueued_at = enqueued_at
        self.event = threading.Event()
        self.state = "queued"  # queued | admitted | shed | expired


class OverloadController:
    """Admission control for one serving process.

    Thread-safe; designed to sit in front of
    :meth:`repro.http.router.Router.handle` but usable by anything that
    brackets work with :meth:`admit` / :meth:`release`.  ``deadline``
    arguments are duck-typed (``expired`` property and ``remaining()``
    method — :class:`repro.resilience.deadline.Deadline` qualifies)
    so this package stays import-cycle-free.
    """

    def __init__(self, *, max_concurrent: int = 8, queue_limit: int = 64,
                 interactive_slo_ms: float = 100.0,
                 classifier: Optional[RequestClassifier] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tick_interval: float = 0.25,
                 max_queue_wait: float = 2.0,
                 seed: int = 0,
                 clock: Callable[[], float] = time.monotonic):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self.interactive_slo_ms = interactive_slo_ms
        self.classifier = classifier if classifier is not None \
            else RequestClassifier()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tick_interval = tick_interval
        self.max_queue_wait = max_queue_wait
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._inflight = 0
        self._queue: list[_Waiter] = []
        self._virtual_time = 0.0
        self._client_vft: dict[str, float] = {}
        self._rates = {_DEFERRABLE: 1.0, _INTERACTIVE: 1.0}
        self._last_tick = clock()
        self._completions_window = 0
        self._service_rate = 0.0  # EWMA completions/second
        self._bind_metrics()
        self._latency_window = self._m_latency[INTERACTIVE].bucket_counts()

    # -- admission ---------------------------------------------------------

    def admit(self, request=None, *, cost_class: Optional[str] = None,
              client_key: str = "", deadline=None) -> AdmissionTicket:
        """Admit one request or raise.

        Raises :class:`OverloadShedError` (→ 503 + Retry-After) when the
        request is shed and :class:`DeadlineExceededError` (→ 504) when
        its deadline expired before any work was done.  The returned
        ticket must be released exactly once.
        """
        if cost_class is None:
            key, cost_class = self.classifier.classify(request)
        else:
            key = self.classifier.key_for(request) if request is not None \
                else ""
            if cost_class not in COST_CLASSES:
                raise ValueError(f"unknown cost class {cost_class!r}")
        if deadline is not None and deadline.expired:
            self._m_expired.inc()
            raise DeadlineExceededError(
                "request deadline expired before admission")
        waiter = None
        with self._lock:
            self._tick_locked()
            rate = self._rates.get(_TIER.get(cost_class, ""), 1.0)
            if rate < 1.0 and self._rng.random() >= rate:
                raise self._shed_locked(cost_class, "rate")
            if self._inflight < self.max_concurrent and not self._queue:
                self._inflight += 1
                self._m_inflight.set(self._inflight)
                self._m_admitted.inc()
                return AdmissionTicket(cost_class, key, client_key,
                                       0.0, self._clock())
            waiter = self._enqueue_locked(cost_class, key, client_key,
                                          deadline)
        # -- wait outside the lock ----------------------------------------
        timeout = self.max_queue_wait
        if deadline is not None:
            timeout = min(timeout, deadline.remaining())
        waiter.event.wait(timeout)
        with self._lock:
            if waiter.state == "admitted":
                queued_ms = (self._clock() - waiter.enqueued_at) * 1000.0
                self._m_queue_wait.observe(queued_ms)
                return AdmissionTicket(cost_class, key, client_key,
                                       queued_ms, self._clock())
            if waiter.state == "queued":
                # Timed out waiting; leave the queue.
                try:
                    self._queue.remove(waiter)
                except ValueError:  # pragma: no cover - admit raced
                    pass
                self._m_queue_depth.set(len(self._queue))
                if deadline is not None and deadline.expired:
                    waiter.state = "expired"
                else:
                    waiter.state = "shed"
            if waiter.state == "expired":
                self._m_expired.inc()
                raise DeadlineExceededError(
                    "request deadline expired while queued for admission")
            raise self._shed_locked(cost_class, "queue_timeout")

    def release(self, ticket: AdmissionTicket, *,
                status: int = 200) -> None:
        """Return an admitted request's slot; records its service time."""
        if ticket.released:
            return
        ticket.released = True
        service_ms = (self._clock() - ticket.admitted_at) * 1000.0
        self._m_latency[ticket.cost_class].observe(service_ms)
        self._m_by_class.inc(ticket.cost_class)
        if ticket.key and status < 500:
            # 5xx latencies say nothing about the request's real cost.
            self.classifier.observe(ticket.key, service_ms)
        with self._lock:
            self._inflight -= 1
            self._completions_window += 1
            self._promote_locked()
            self._m_inflight.set(self._inflight)
            self._tick_locked()

    def retry_after_hint(self) -> Optional[float]:
        """Seconds until a shed client's retry is likely admitted."""
        with self._lock:
            return queue_retry_hint(len(self._queue), self._service_rate)

    # -- internals (all called under self._lock) ---------------------------

    def _enqueue_locked(self, cost_class, key, client_key,
                        deadline) -> _Waiter:
        if len(self._queue) >= self.queue_limit:
            victim = self._evict_candidate_locked(cost_class)
            if victim is None:
                raise self._shed_locked(cost_class, "queue_full")
            self._queue.remove(victim)
            victim.state = "shed"
            victim.event.set()
            self._m_evicted.inc()
            self._count_shed(victim.cost_class, "evicted")
        now = self._clock()
        start = max(self._virtual_time,
                    self._client_vft.get(client_key, 0.0))
        vft = start + _WEIGHTS.get(cost_class, 1.0)
        self._client_vft[client_key] = vft
        waiter = _Waiter(cost_class, key, client_key, deadline, vft, now)
        self._queue.append(waiter)
        self._m_queued.inc()
        self._m_queue_depth.set(len(self._queue))
        return waiter

    def _evict_candidate_locked(self,
                                incoming_class: str) -> Optional[_Waiter]:
        """The queued waiter a higher-priority arrival may displace."""
        incoming = _PRIORITY.get(incoming_class, 0)
        victim = None
        for waiter in self._queue:
            if _PRIORITY.get(waiter.cost_class, 0) >= incoming:
                continue
            if victim is None or waiter.vft > victim.vft:
                victim = waiter  # latest virtual finisher goes first
        return victim

    def _promote_locked(self) -> None:
        """Hand freed slots to the earliest virtual finishers."""
        while self._queue and self._inflight < self.max_concurrent:
            best = min(self._queue, key=lambda w: w.vft)
            self._queue.remove(best)
            if best.deadline is not None and best.deadline.expired:
                # Expired while queued: shed for ~0 cost — the slot
                # goes to the next waiter, no gateway work is wasted.
                best.state = "expired"
                best.event.set()
                continue
            self._virtual_time = max(self._virtual_time, best.vft)
            best.state = "admitted"
            self._inflight += 1
            self._m_admitted.inc()
            best.event.set()
        self._m_queue_depth.set(len(self._queue))
        if not self._queue and self._client_vft:
            # Idle queue: fairness history is meaningless and the map
            # would otherwise grow one entry per client key ever seen.
            self._client_vft.clear()

    def _shed_locked(self, cost_class: str,
                     reason: str) -> OverloadShedError:
        self._count_shed(cost_class, reason)
        hint = queue_retry_hint(len(self._queue), self._service_rate)
        return OverloadShedError(
            f"overloaded: {cost_class} request shed ({reason})",
            retry_after=hint if hint is not None else 1.0,
            cost_class=cost_class)

    def _count_shed(self, cost_class: str, reason: str) -> None:
        self._m_shed.inc()
        self._m_shed_class[cost_class].inc()
        self.metrics.counter(f"overload_shed_{reason}_total").inc()

    def _tick_locked(self) -> None:
        now = self._clock()
        interval = now - self._last_tick
        if interval < self.tick_interval:
            return
        self._last_tick = now
        # Service rate: EWMA of completions per second over the window.
        rate = self._completions_window / interval
        self._completions_window = 0
        self._service_rate = rate if self._service_rate == 0.0 \
            else 0.7 * self._service_rate + 0.3 * rate
        self._m_service_rate.set(round(self._service_rate, 3))
        # Windowed interactive p99 off the cumulative histogram.
        counts = self._m_latency[INTERACTIVE].bucket_counts()
        window = [a - b for a, b in zip(counts, self._latency_window)]
        self._latency_window = counts
        samples = sum(window)
        p99 = quantile_from_counts(window, 0.99)
        self._m_window_p99.set(round(p99, 3))
        if samples >= _MIN_WINDOW_SAMPLES and \
                p99 > self.interactive_slo_ms:
            self._decrease_locked()
        elif p99 <= self.interactive_slo_ms * _HEALTHY_FRACTION:
            # Includes the no-samples case: nothing breaching means
            # rates may recover (interactive first, deferrable last).
            self._increase_locked()
        self._m_rate_defer.set(round(self._rates[_DEFERRABLE], 3))
        self._m_rate_inter.set(round(self._rates[_INTERACTIVE], 3))

    def _decrease_locked(self) -> None:
        if self._rates[_DEFERRABLE] > _DEFER_FLOOR:
            self._rates[_DEFERRABLE] = max(
                _DEFER_FLOOR, self._rates[_DEFERRABLE] * _DECREASE)
        else:
            self._rates[_INTERACTIVE] = max(
                _INTERACTIVE_FLOOR,
                self._rates[_INTERACTIVE] * _DECREASE)

    def _increase_locked(self) -> None:
        if self._rates[_INTERACTIVE] < 1.0:
            self._rates[_INTERACTIVE] = min(
                1.0, self._rates[_INTERACTIVE] + _INCREASE)
        elif self._rates[_DEFERRABLE] < 1.0:
            self._rates[_DEFERRABLE] = min(
                1.0, self._rates[_DEFERRABLE] + _INCREASE)

    # -- observability ------------------------------------------------------

    def _bind_metrics(self) -> None:
        registry = self.metrics
        self._m_admitted = registry.counter("overload_admitted_total")
        self._m_queued = registry.counter("overload_queued_total")
        self._m_shed = registry.counter("overload_shed_total")
        self._m_shed_class = {
            cls: registry.counter(f"overload_shed_{cls}_total")
            for cls in COST_CLASSES}
        self._m_expired = registry.counter(
            "overload_expired_in_queue_total")
        self._m_evicted = registry.counter(
            "overload_queue_evictions_total")
        self._m_inflight = registry.gauge("overload_inflight")
        self._m_queue_depth = registry.gauge("overload_queue_depth")
        self._m_rate_defer = registry.gauge(
            "overload_admit_rate_deferrable")
        self._m_rate_inter = registry.gauge(
            "overload_admit_rate_interactive")
        self._m_service_rate = registry.gauge("overload_service_rate")
        self._m_window_p99 = registry.gauge(
            "overload_interactive_window_p99_ms")
        self._m_queue_wait = registry.histogram("overload_queue_wait_ms")
        self._m_latency = {
            cls: registry.histogram(f"overload_latency_ms_{cls}")
            for cls in COST_CLASSES}
        # Completions by cost class as one labeled family — the scrape
        # consumer slices ``overload_requests_by_class{cost_class=...}``
        # instead of discovering per-class key names.
        self._m_by_class = registry.labeled(
            "overload_requests_by_class", "cost_class", max_series=8)
        self._m_rate_defer.set(1.0)
        self._m_rate_inter.set(1.0)

    def stats(self) -> dict[str, float]:
        """The configured limits, for the ``overload`` metrics source.

        Everything that moves — in-flight, queue depth, admit rates,
        service rate, admitted/queued/shed totals — is a live metric
        (see :meth:`_bind_metrics`) and is not published again here.
        """
        return {
            "max_concurrent": self.max_concurrent,
            "queue_limit": self.queue_limit,
            "slo_ms": self.interactive_slo_ms,
        }
