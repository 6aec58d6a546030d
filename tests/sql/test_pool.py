"""Connection pools: reuse, exhaustion, eviction, renewal."""

import threading
import time

import pytest

from repro.errors import PoolExhaustedError
from repro.sql.connection import MemoryDatabase
from repro.sql.pool import ConnectionPool


@pytest.fixture()
def db():
    database = MemoryDatabase()
    conn = database.connect()
    conn.executescript("CREATE TABLE p (x); INSERT INTO p VALUES (1);")
    conn.close()
    yield database
    database.close()


class TestConnectionPool:
    def test_acquire_release_reuses(self, db):
        pool = ConnectionPool(db.connect, size=2)
        first = pool.acquire()
        pool.release(first)
        second = pool.acquire()
        assert second is first
        pool.release(second)
        pool.close()

    def test_creates_up_to_size(self, db):
        pool = ConnectionPool(db.connect, size=3, timeout=0.05)
        conns = [pool.acquire() for _ in range(3)]
        assert pool.stats["created"] == 3
        for conn in conns:
            pool.release(conn)
        pool.close()

    def test_exhaustion_raises_after_timeout(self, db):
        pool = ConnectionPool(db.connect, size=1, timeout=0.05)
        held = pool.acquire()
        with pytest.raises(PoolExhaustedError) as excinfo:
            pool.acquire()
        assert excinfo.value.sqlstate == "57030"
        pool.release(held)
        pool.close()

    def test_blocked_acquire_wakes_on_release(self, db):
        pool = ConnectionPool(db.connect, size=1, timeout=2.0)
        held = pool.acquire()
        got = []

        def taker():
            conn = pool.acquire()
            got.append(conn)
            pool.release(conn)

        thread = threading.Thread(target=taker)
        thread.start()
        pool.release(held)
        thread.join(timeout=2)
        assert got
        pool.close()

    def test_release_rolls_back_open_transaction(self, db):
        pool = ConnectionPool(db.connect, size=1)
        conn = pool.acquire()
        conn.begin()
        conn.execute("DELETE FROM p")
        pool.release(conn)
        conn2 = pool.acquire()
        assert conn2.execute("SELECT COUNT(*) FROM p").fetchone() == (1,)
        pool.release(conn2)
        pool.close()

    def test_dead_connection_replaced(self, db):
        pool = ConnectionPool(db.connect, size=1)
        conn = pool.acquire()
        conn.close()
        pool.release(conn)
        fresh = pool.acquire()
        assert not fresh.closed
        pool.release(fresh)
        pool.close()

    def test_closed_pool_rejects_acquire(self, db):
        pool = ConnectionPool(db.connect, size=1)
        pool.close()
        with pytest.raises(PoolExhaustedError):
            pool.acquire()

    def test_invalid_size(self, db):
        with pytest.raises(ValueError):
            ConnectionPool(db.connect, size=0)

    def test_failing_factory_reclaims_capacity(self, db):
        """A factory exception must not permanently shrink the pool."""
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient connect failure")
            return db.connect()

        pool = ConnectionPool(flaky, size=1, timeout=0.05)
        with pytest.raises(RuntimeError):
            pool.acquire()
        assert pool.stats["created"] == 0  # slot reclaimed
        conn = pool.acquire()  # retry succeeds; no PoolExhaustedError
        assert not conn.closed
        pool.release(conn)
        pool.close()

    def test_dead_connection_retry_is_iterative(self, db):
        """Draining many dead idle connections must not recurse."""
        pool = ConnectionPool(db.connect, size=3)
        conns = [pool.acquire() for _ in range(3)]
        for conn in conns:
            conn.close()
            pool.release(conn)
        # released-closed connections were dropped at release time; a new
        # acquire creates a fresh one without blowing the stack.
        fresh = pool.acquire()
        assert not fresh.closed
        pool.release(fresh)
        pool.close()


class TestReleaseEviction:
    """Health validation on release: broken connections never recycle."""

    def test_broken_release_evicts_and_replaces(self, db):
        """Regression: a connection flagged broken must be evicted and
        its capacity slot given to a freshly created replacement."""
        created = {"n": 0}

        def counting_factory():
            created["n"] += 1
            return db.connect()

        pool = ConnectionPool(counting_factory, size=1)
        conn = pool.acquire()
        assert created["n"] == 1
        pool.release(conn, broken=True)
        assert conn.closed  # evicted, not parked in the idle queue
        assert pool.stats["evicted"] == 1
        fresh = pool.acquire()
        assert created["n"] == 2  # replacement built, capacity intact
        assert not fresh.closed
        pool.release(fresh)
        assert pool.stats["evicted"] == 1  # healthy release recycles
        pool.close()

    def test_unpingable_connection_evicted(self, db):
        pool = ConnectionPool(db.connect, size=1)
        conn = pool.acquire()

        class Zombie:
            """Open-looking connection whose health check fails."""
            closed = False
            in_transaction = False

            def ping(self):
                return False

            def close(self):
                self.closed = True

        zombie = Zombie()
        pool.release(zombie)
        assert zombie.closed
        assert pool.stats["evicted"] == 1
        conn.close()
        pool.close()


class TestAcquireDeadline:
    def test_deadline_caps_the_wait(self, db):
        from repro.resilience.deadline import Deadline

        pool = ConnectionPool(db.connect, size=1, timeout=30.0)
        held = pool.acquire()
        started = time.perf_counter()
        with pytest.raises(PoolExhaustedError):
            pool.acquire(deadline=Deadline.after(0.05))
        # gave up on the deadline's budget, not the pool's 30 s timeout
        assert time.perf_counter() - started < 5.0
        pool.release(held)
        pool.close()

    def test_spent_deadline_raises_immediately(self, db):
        from repro.errors import DeadlineExceededError
        from repro.resilience.deadline import Deadline

        pool = ConnectionPool(db.connect, size=1, timeout=30.0)
        held = pool.acquire()
        with pytest.raises(DeadlineExceededError):
            pool.acquire(deadline=Deadline.after(0.0))
        pool.release(held)
        pool.close()


class TestConnectionPoolConcurrency:
    def test_sixteen_threads_with_flaky_factory(self, db):
        """Hammer the pool from 16 threads with a sometimes-failing
        factory: capacity must never leak, every thread must finish, and
        the pool must still satisfy requests afterwards."""
        import random

        rng = random.Random(96)
        fail_lock = threading.Lock()

        def flaky():
            with fail_lock:
                fail = rng.random() < 0.3
            if fail:
                raise RuntimeError("flaky connect")
            return db.connect()

        pool = ConnectionPool(flaky, size=4, timeout=1.0)
        errors: list[Exception] = []
        done = []

        def worker():
            for _ in range(50):
                try:
                    conn = pool.acquire()
                except RuntimeError:
                    continue  # transient factory failure: retry later
                except PoolExhaustedError as exc:  # pragma: no cover
                    errors.append(exc)
                    continue
                try:
                    assert conn.execute(
                        "SELECT x FROM p").fetchone() == (1,)
                finally:
                    pool.release(conn)
            done.append(True)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(done) == 16
        assert not errors, f"pool exhausted despite reclaim: {errors[:3]}"
        stats = pool.stats
        assert 0 <= stats["created"] <= 4
        # The pool still works at full capacity after the storm.
        survivors = []
        while len(survivors) < stats["size"]:
            try:
                survivors.append(pool.acquire())
            except RuntimeError:
                continue
        for conn in survivors:
            pool.release(conn)
        pool.close()


class TestRenew:
    def test_idle_connections_close_and_the_new_factory_opens(self, db):
        pool = ConnectionPool(db.connect, size=2)
        idle = pool.acquire()
        pool.release(idle)
        opened = []
        pool.renew(lambda: opened.append(1) or db.connect())
        assert idle.closed and pool.stats["created"] == 0
        fresh = pool.acquire()
        assert fresh is not idle and opened == [1]
        pool.release(fresh)
        assert pool.stats["evicted"] == 0  # a renewal is no eviction
        pool.close()

    def test_leased_counts_what_is_out(self, db):
        pool = ConnectionPool(db.connect, size=2)
        first, second = pool.acquire(), pool.acquire()
        assert pool.leased == 2
        pool.release(first)
        assert pool.leased == 1
        pool.release(second)
        assert pool.leased == 0 and pool.stats["idle"] == 2
        pool.close()

    def test_a_connection_given_back_to_a_closed_pool_closes(self, db):
        pool = ConnectionPool(db.connect, size=1)
        conn = pool.acquire()
        pool.close()
        pool.release(conn)
        assert conn.closed and pool.leased == 0
