"""The admission controller: queue, WFQ, eviction, AIMD, deadlines."""

import threading

import pytest

from repro.errors import DeadlineExceededError, OverloadShedError
from repro.obs.metrics import MetricsRegistry
from repro.overload.classify import (
    CACHED,
    HEAVY,
    INTERACTIVE,
)
from repro.overload.control import OverloadController


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeDeadline:
    """Duck-typed stand-in for resilience.deadline.Deadline."""

    def __init__(self, remaining: float = 5.0):
        self._remaining = remaining

    @property
    def expired(self) -> bool:
        return self._remaining <= 0.0

    def remaining(self) -> float:
        return max(0.0, self._remaining)

    def expire(self) -> None:
        self._remaining = 0.0


def live(c: OverloadController, name: str) -> float:
    """One of the controller's live metrics, as the scrape reads it."""
    return c.metrics.flat()[name]


def controller(**kwargs) -> OverloadController:
    kwargs.setdefault("metrics", MetricsRegistry())
    return OverloadController(**kwargs)


class TestAdmission:
    def test_fast_path_under_capacity(self):
        c = controller(max_concurrent=2)
        a = c.admit(cost_class=INTERACTIVE, client_key="x")
        b = c.admit(cost_class=INTERACTIVE, client_key="y")
        assert a.queued_ms == 0.0 and b.queued_ms == 0.0
        assert live(c, "overload_inflight") == 2
        c.release(a)
        c.release(b)
        assert live(c, "overload_inflight") == 0
        assert live(c, "overload_admitted_total") == 2

    def test_release_is_idempotent(self):
        c = controller(max_concurrent=1)
        ticket = c.admit(cost_class=CACHED, client_key="x")
        c.release(ticket)
        c.release(ticket)  # double release must not corrupt inflight
        assert live(c, "overload_inflight") == 0

    def test_expired_deadline_rejected_before_any_work(self):
        c = controller(max_concurrent=4)
        dead = FakeDeadline(remaining=0.0)
        with pytest.raises(DeadlineExceededError):
            c.admit(cost_class=INTERACTIVE, client_key="x",
                    deadline=dead)
        assert live(c, "overload_inflight") == 0

    def test_queue_timeout_sheds_with_honest_error(self):
        c = controller(max_concurrent=1, queue_limit=4,
                       max_queue_wait=0.05)
        holder = c.admit(cost_class=INTERACTIVE, client_key="a")
        with pytest.raises(OverloadShedError) as info:
            c.admit(cost_class=INTERACTIVE, client_key="b")
        assert "queue_timeout" in str(info.value)
        assert info.value.retry_after >= 0.0
        assert info.value.cost_class == INTERACTIVE
        c.release(holder)
        assert c.metrics.counter(
            "overload_shed_queue_timeout_total").value == 1


class TestQueueing:
    def test_released_slot_promotes_queued_waiter(self):
        c = controller(max_concurrent=1, queue_limit=4,
                       max_queue_wait=5.0)
        holder = c.admit(cost_class=INTERACTIVE, client_key="a")
        admitted = []

        def waiter():
            ticket = c.admit(cost_class=INTERACTIVE, client_key="b")
            admitted.append(ticket)
            c.release(ticket)

        thread = threading.Thread(target=waiter)
        thread.start()
        _wait_for(lambda: live(c, "overload_queue_depth") == 1)
        c.release(holder)
        thread.join(timeout=5.0)
        assert len(admitted) == 1
        assert admitted[0].queued_ms >= 0.0
        assert live(c, "overload_queued_total") == 1

    def test_wfq_interleaves_clients(self):
        """A burst from one client must not starve a newcomer."""
        c = controller(max_concurrent=1, queue_limit=8,
                       max_queue_wait=10.0)
        holder = c.admit(cost_class=INTERACTIVE, client_key="seed")
        order = []
        lock = threading.Lock()

        def client(key):
            ticket = c.admit(cost_class=INTERACTIVE, client_key=key)
            with lock:
                order.append(key)
            c.release(ticket)

        # Three queued requests from the chatty client first...
        chatty = [threading.Thread(target=client, args=("chatty",))
                  for _ in range(3)]
        for thread in chatty:
            thread.start()
            _wait_for(lambda n=len(order): live(c, "overload_queue_depth")
                      >= chatty.index(thread) + 1)
        # ...then one from a fresh client.
        fresh = threading.Thread(target=client, args=("fresh",))
        fresh.start()
        _wait_for(lambda: live(c, "overload_queue_depth") == 4)
        c.release(holder)
        for thread in chatty:
            thread.join(timeout=5.0)
        fresh.join(timeout=5.0)
        # Virtual finish times: chatty's 2nd and 3rd requests finish
        # after fresh's 1st — the newcomer is served 2nd at worst.
        assert order.index("fresh") <= 1, order

    def test_full_queue_evicts_cheaper_class_for_pricier_arrival(self):
        c = controller(max_concurrent=1, queue_limit=1,
                       max_queue_wait=5.0)
        holder = c.admit(cost_class=INTERACTIVE, client_key="a")
        outcomes = {}

        def heavy_waiter():
            try:
                ticket = c.admit(cost_class=HEAVY, client_key="b")
                outcomes["heavy"] = "admitted"
                c.release(ticket)
            except OverloadShedError:
                outcomes["heavy"] = "shed"

        def cached_waiter():
            try:
                ticket = c.admit(cost_class=CACHED, client_key="c")
                outcomes["cached"] = "admitted"
                c.release(ticket)
            except OverloadShedError:
                outcomes["cached"] = "shed"

        heavy = threading.Thread(target=heavy_waiter)
        heavy.start()
        _wait_for(lambda: live(c, "overload_queue_depth") == 1)
        cached = threading.Thread(target=cached_waiter)
        cached.start()
        heavy.join(timeout=5.0)  # evicted as soon as cached arrives
        _wait_for(lambda: live(c, "overload_queue_depth") == 1)
        c.release(holder)
        cached.join(timeout=5.0)
        assert outcomes == {"heavy": "shed", "cached": "admitted"}
        assert c.metrics.counter(
            "overload_queue_evictions_total").value == 1

    def test_full_queue_sheds_arrival_when_nothing_cheaper(self):
        c = controller(max_concurrent=1, queue_limit=1,
                       max_queue_wait=5.0)
        holder = c.admit(cost_class=INTERACTIVE, client_key="a")
        started = threading.Event()
        done = threading.Event()

        def cached_waiter():
            ticket = c.admit(cost_class=CACHED, client_key="b")
            started.set()
            c.release(ticket)
            done.set()

        thread = threading.Thread(target=cached_waiter)
        thread.start()
        _wait_for(lambda: live(c, "overload_queue_depth") == 1)
        # A heavy arrival cannot displace the queued cached read.
        with pytest.raises(OverloadShedError) as info:
            c.admit(cost_class=HEAVY, client_key="c")
        assert "queue_full" in str(info.value)
        c.release(holder)
        thread.join(timeout=5.0)
        assert done.is_set()


class TestDeadlinesInQueue:
    def test_expired_waiter_shed_at_promotion_for_free(self):
        c = controller(max_concurrent=1, queue_limit=4,
                       max_queue_wait=10.0)
        holder = c.admit(cost_class=INTERACTIVE, client_key="a")
        dead = FakeDeadline(remaining=5.0)
        raised = []

        def doomed():
            try:
                c.admit(cost_class=INTERACTIVE, client_key="b",
                        deadline=dead)
            except DeadlineExceededError as exc:
                raised.append(exc)

        thread = threading.Thread(target=doomed)
        thread.start()
        _wait_for(lambda: live(c, "overload_queue_depth") == 1)
        dead.expire()
        c.release(holder)  # promotion finds the corpse, skips it
        thread.join(timeout=5.0)
        assert len(raised) == 1
        assert live(c, "overload_expired_in_queue_total") == 1
        assert live(c, "overload_inflight") == 0  # slot NOT wasted on it


class TestAimdShedder:
    def _breach(self, c, clk, *, count=10, service=0.3):
        """One window of interactive traffic + a tick.

        Once the interactive admit rate has dropped below 1.0 some of
        these admits are themselves rate-shed — that is the controller
        working, not a test failure.
        """
        for _ in range(count):
            try:
                ticket = c.admit(cost_class=INTERACTIVE,
                                 client_key="x")
            except OverloadShedError:
                continue
            clk.advance(service)
            c.release(ticket)
        clk.advance(c.tick_interval + 0.01)
        probe = c.admit(cost_class=CACHED, client_key="probe")
        c.release(probe)

    def test_slo_breach_halves_deferrable_rate_first(self):
        clk = FakeClock()
        c = controller(max_concurrent=4, queue_limit=8,
                       interactive_slo_ms=100.0, tick_interval=10.0,
                       clock=clk)
        self._breach(c, clk)
        stats = c.metrics.flat()
        assert stats["overload_admit_rate_deferrable"] == \
            pytest.approx(0.5)
        assert stats["overload_admit_rate_interactive"] == \
            pytest.approx(1.0)

    def test_sustained_breach_reaches_floor_then_hits_interactive(self):
        clk = FakeClock()
        c = controller(max_concurrent=4, queue_limit=8,
                       interactive_slo_ms=100.0, tick_interval=10.0,
                       clock=clk)
        for _ in range(6):  # 1.0 → .5 → .25 → .125 → .0625 → .05 floor
            self._breach(c, clk)
        stats = c.metrics.flat()
        assert stats["overload_admit_rate_deferrable"] == \
            pytest.approx(0.05)
        assert stats["overload_admit_rate_interactive"] < 1.0

    def test_healthy_windows_recover_interactive_first(self):
        clk = FakeClock()
        c = controller(max_concurrent=4, queue_limit=8,
                       interactive_slo_ms=100.0, tick_interval=10.0,
                       clock=clk)
        for _ in range(8):
            self._breach(c, clk)
        breached = c.metrics.flat()
        assert breached["overload_admit_rate_interactive"] < 1.0
        # Fast traffic: p99 well under the SLO's healthy fraction.
        for _ in range(12):
            self._breach(c, clk, service=0.001)
        recovered = c.metrics.flat()
        assert recovered["overload_admit_rate_interactive"] == \
            pytest.approx(1.0)
        assert recovered["overload_admit_rate_deferrable"] \
            > breached["overload_admit_rate_deferrable"]

    def test_floor_rate_sheds_deferrable_traffic_probabilistically(self):
        clk = FakeClock()
        c = controller(max_concurrent=4, queue_limit=8,
                       interactive_slo_ms=100.0, tick_interval=10.0,
                       seed=7, clock=clk)
        for _ in range(6):
            self._breach(c, clk)
        shed = 0
        for _ in range(40):
            try:
                ticket = c.admit(cost_class=HEAVY, client_key="h")
            except OverloadShedError as exc:
                assert exc.cost_class == HEAVY
                shed += 1
            else:
                c.release(ticket)
        assert shed > 30  # admit rate is 0.05: nearly everything drops
        assert c.metrics.counter(
            "overload_shed_rate_total").value == shed

    def test_cached_reads_never_rate_shed(self):
        clk = FakeClock()
        c = controller(max_concurrent=4, queue_limit=8,
                       interactive_slo_ms=100.0, tick_interval=10.0,
                       seed=7, clock=clk)
        for _ in range(10):
            self._breach(c, clk)
        for _ in range(50):  # refusing microseconds saves nothing
            c.release(c.admit(cost_class=CACHED, client_key="c"))


class TestRetryAfterHonesty:
    def test_hint_tracks_queue_depth_over_service_rate(self):
        clk = FakeClock()
        c = controller(max_concurrent=2, queue_limit=8,
                       tick_interval=1.0, clock=clk)
        # Establish a service rate: 10 completions over the window.
        for _ in range(10):
            ticket = c.admit(cost_class=INTERACTIVE, client_key="x")
            clk.advance(0.05)
            c.release(ticket)
        clk.advance(1.0)
        c.release(c.admit(cost_class=CACHED, client_key="tick"))
        rate = live(c, "overload_service_rate")
        assert rate > 0.0
        hint = c.retry_after_hint()
        assert hint == pytest.approx(1.0 / rate, rel=0.01)


class TestObservability:
    def test_stats_surface(self):
        """The polled bag is the configuration; what moves is live."""
        c = controller(max_concurrent=3, queue_limit=5,
                       interactive_slo_ms=75.0)
        c.release(c.admit(cost_class=INTERACTIVE, client_key="x"))
        assert c.stats() == {"max_concurrent": 3, "queue_limit": 5,
                             "slo_ms": 75.0}
        assert live(c, "overload_admitted_total") == 1
        assert live(c, "overload_shed_total") == 0

    def test_metrics_rendered_on_scrape(self):
        registry = MetricsRegistry()
        c = controller(max_concurrent=2, metrics=registry)
        c.release(c.admit(cost_class=INTERACTIVE, client_key="x"))
        text = registry.render_text()
        assert "overload_admitted_total 1" in text
        assert "overload_inflight 0" in text
        assert "overload_admit_rate_deferrable" in text
        assert "overload_latency_ms_interactive" in text


def _wait_for(predicate, timeout: float = 5.0) -> None:
    import time
    stop = time.monotonic() + timeout
    while time.monotonic() < stop:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError("condition not reached in time")
