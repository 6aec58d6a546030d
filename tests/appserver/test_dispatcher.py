"""The pre-forked dispatcher: warm state, lifecycle, crash recovery.

These spawn real worker processes (the whole point of the subsystem),
so the pool fixtures are module-scoped where the tests allow it.
"""

import threading
import time

import pytest

from repro.appserver import AppServerDispatcher
from repro.apps import urlquery as urlquery_app
from repro.apps.datasets import seed_urldb
from repro.cgi.environ import CgiEnvironment
from repro.cgi.gateway import CgiGateway
from repro.cgi.request import CgiRequest
from repro.errors import CgiProtocolError, DeadlineExceededError
from repro.resilience.deadline import Deadline
from repro.sql.connection import Connection

REPORT_QUERY = "SEARCH=ib&USE_URL=yes&DBFIELDS=title"

#: The one transport, a parameter only so the tests keep their ids.
TRANSPORTS = ["unix"]


def make_pool(transport, env, workers=2, **kwargs):
    return AppServerDispatcher(env, workers=workers, **kwargs)


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


def deployment_env(tmp_path):
    db_path = tmp_path / "urldb.sqlite"
    conn = Connection(str(db_path))
    seed_urldb(conn, 20)
    conn.close()
    macro_dir = tmp_path / "macros"
    macro_dir.mkdir()
    (macro_dir / "urlquery.d2w").write_text(
        urlquery_app.URLQUERY_MACRO, encoding="utf-8")
    return {
        "REPRO_MACRO_DIR": str(macro_dir),
        "REPRO_DATABASE_URLDB": str(db_path),
        "REPRO_QUERY_CACHE": "32",
        "REPRO_POOL_SIZE": "1",
    }


def cgi_request(path_info, query=""):
    return CgiRequest(CgiEnvironment(
        script_name="/cgi-bin/db2www", path_info=path_info,
        query_string=query))


@pytest.fixture(scope="module", params=TRANSPORTS)
def pool(request, tmp_path_factory):
    env = deployment_env(tmp_path_factory.mktemp("appserver"))
    dispatcher = make_pool(request.param, env, workers=2)
    yield dispatcher
    dispatcher.shutdown()


class TestDispatch:
    def test_serves_requests_from_warm_workers(self, pool):
        response = pool.run(cgi_request("/urlquery.d2w/input"))
        assert response.status == 200
        assert b"Submit Query" in response.body
        response = pool.run(
            cgi_request("/urlquery.d2w/report", REPORT_QUERY))
        assert response.status == 200
        assert b"URL Query Result" in response.body

    def test_macro_error_costs_a_page_not_the_worker(self, pool):
        before = pool.stats()["crashes"]
        response = pool.run(cgi_request("/nosuch.d2w/report"))
        assert response.status == 404
        assert pool.stats()["crashes"] == before
        # the worker still serves afterwards
        assert pool.run(
            cgi_request("/urlquery.d2w/input")).status == 200

    def test_mounts_in_cgi_gateway(self, pool):
        gateway = CgiGateway()
        gateway.install("db2www", pool)
        response = gateway.dispatch(
            "db2www", cgi_request("/urlquery.d2w/input"))
        assert response.status == 200

    def test_post_body_crosses_the_socket(self, pool):
        body = b"SEARCH=ibm&USE_URL=yes&DBFIELDS=title"
        request = CgiRequest(
            CgiEnvironment(
                request_method="POST",
                script_name="/cgi-bin/db2www",
                path_info="/urlquery.d2w/report",
                content_type="application/x-www-form-urlencoded",
                content_length=len(body)),
            stdin=body)
        response = pool.run(request)
        assert response.status == 200
        assert b"ibm" in response.body

    def test_per_worker_counters(self, pool):
        for _ in range(4):
            pool.run(cgi_request("/urlquery.d2w/input"))
        bags = pool.labeled_stats()
        stats = bags.pop("")
        assert stats["requests"] >= 4
        assert not [key for key in stats if key.startswith("worker_")]
        assert sorted(bags) == [str(slot) for slot in range(pool.pool_size)]
        assert sum(bag["requests"] for bag in bags.values()) \
            == stats["requests"]


class TestRecycling:
    def test_workers_recycle_after_n_requests(self, tmp_path, transport):
        env = deployment_env(tmp_path)
        with make_pool(transport, env, workers=1,
                       recycle_after=3) as pool:
            for _ in range(7):
                assert pool.run(
                    cgi_request("/urlquery.d2w/input")).status == 200
            stats = pool.stats()
            assert stats["requests"] == 7
            assert stats["recycles"] == 2  # after requests 3 and 6
            assert pool.labeled_stats()["0"]["recycles"] == 2

    @staticmethod
    def slow_spawns(pool, delay):
        """Make every later spawn take ``delay`` longer; returns the
        live lists of workers spawned and of spawns running at once."""
        spawn = pool._spawn
        spawned, overlap, in_flight = [], [], []

        def slow_spawn(slot, *args):
            in_flight.append(slot)
            overlap.append(len(in_flight))
            try:
                time.sleep(delay)
                worker = spawn(slot, *args)
                spawned.append(worker)
                return worker
            finally:
                in_flight.remove(slot)

        pool._spawn = slow_spawn
        return spawned, overlap

    def test_recycle_is_off_the_request_path_one_at_a_time(self,
                                                           tmp_path):
        """No request waits out a planned replacement (not even the one
        that trips the threshold), and replacements never overlap."""
        env = deployment_env(tmp_path)
        latencies, short = [], []
        with AppServerDispatcher(env, workers=3,
                                 recycle_after=4) as pool:
            _, overlap = self.slow_spawns(pool, 0.3)
            stop = time.monotonic() + 1.5

            def client():
                while time.monotonic() < stop:
                    started = time.perf_counter()
                    response = pool.run(
                        cgi_request("/urlquery.d2w/input"))
                    latencies.append(time.perf_counter() - started)
                    if response.status != 200 \
                            or pool.stats()["workers"] < 2:
                        short.append(response.status)
                    time.sleep(0.005)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert pool.stats()["recycles"] >= 2, "never recycled"
        assert max(latencies) < 0.25
        assert max(overlap) == 1
        assert short == []

    def test_shutdown_with_a_recycle_in_flight_drains_cleanly(
            self, tmp_path):
        env = deployment_env(tmp_path)
        pool = AppServerDispatcher(env, workers=1, recycle_after=1)
        first = list(pool._live.values())
        spawned, _ = self.slow_spawns(pool, 0.3)
        assert pool.run(cgi_request("/urlquery.d2w/input")).status == 200
        recycler = pool._recycler
        assert recycler is not None  # replacement under way, response
        pool.shutdown()              # already returned
        assert not recycler.is_alive()
        assert pool.stats()["workers"] == 0
        for worker in first + spawned:
            assert worker.proc.poll() is not None, "worker leaked"


class TestCrashRecovery:
    def test_crash_mid_request_is_replaced_and_replayed(self, tmp_path,
                                                        transport):
        env = deployment_env(tmp_path)
        # Deterministic fault injection: the worker's 2nd request dies
        # mid-request (os._exit while the dispatcher awaits the frame).
        env["REPRO_WORKER_FAULTS"] = "every:2"
        with make_pool(transport, env, workers=1) as pool:
            assert pool.run(
                cgi_request("/urlquery.d2w/input")).status == 200
            # Request 2 crashes the worker; the dispatcher replaces it
            # and replays the (idempotent GET) request transparently.
            response = pool.run(cgi_request("/urlquery.d2w/input"))
            assert response.status == 200
            stats = pool.stats()
            assert stats["crashes"] == 1
            assert stats["crash_retries"] == 1
            assert stats["workers"] == 1  # replacement is live

    def test_crashed_post_is_not_replayed(self, tmp_path, transport):
        env = deployment_env(tmp_path)
        env["REPRO_WORKER_FAULTS"] = "every:1"  # first request crashes
        with make_pool(transport, env, workers=1) as pool:
            body = b"SEARCH=x"
            request = CgiRequest(
                CgiEnvironment(
                    request_method="POST",
                    script_name="/cgi-bin/db2www",
                    path_info="/urlquery.d2w/report",
                    content_type="application/x-www-form-urlencoded",
                    content_length=len(body)),
                stdin=body)
            with pytest.raises(CgiProtocolError, match="died"):
                pool.run(request)
            assert pool.stats()["crash_retries"] == 0

    def test_other_in_flight_requests_survive_a_crash(self, tmp_path,
                                                      transport):
        env = deployment_env(tmp_path)
        # Every 5th request on a worker crashes it; with 3 workers and
        # 30 concurrent GETs, several crashes happen while other
        # requests are in flight on sibling workers.
        env["REPRO_WORKER_FAULTS"] = "every:5"
        with make_pool(transport, env, workers=3) as pool:
            results = []
            lock = threading.Lock()

            def client():
                for _ in range(5):
                    try:
                        response = pool.run(
                            cgi_request("/urlquery.d2w/report",
                                        REPORT_QUERY))
                        outcome = response.status
                    except CgiProtocolError:
                        outcome = "dropped"
                    with lock:
                        results.append(outcome)

            threads = [threading.Thread(target=client)
                       for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = pool.stats()
            assert stats["crashes"] >= 1, "injector never fired"
            # Crashed GETs are replayed once, so a request only drops
            # when its replay *also* lands on a worker at its crash
            # point — two crashes for one drop.  Everything else,
            # including requests in flight on sibling workers while a
            # crash happened, must succeed.
            dropped = results.count("dropped")
            assert results.count(200) == len(results) - dropped
            assert dropped * 2 <= stats["crashes"]
            # the pool healed: all slots live again
            assert stats["workers"] == 3


class TestShutdown:
    def test_checkout_after_shutdown_fails_fast(self, tmp_path,
                                                transport):
        env = deployment_env(tmp_path)
        pool = make_pool(transport, env, workers=1)
        pool.shutdown()
        with pytest.raises(CgiProtocolError, match="shut down"):
            pool.run(cgi_request("/urlquery.d2w/input"))

    def test_shutdown_is_idempotent(self, tmp_path, transport):
        env = deployment_env(tmp_path)
        pool = make_pool(transport, env, workers=1)
        pool.shutdown()
        pool.shutdown()


class TestDeadline:
    def test_a_slow_worker_past_the_deadline_is_replaced_not_replayed(
            self, tmp_path):
        """A worker still busy when the request's deadline runs out may
        yet commit: it is killed and replaced, and the client gets the
        deadline error (a 504) instead of a late page or a replay."""
        env = deployment_env(tmp_path)
        env["REPRO_WORKER_FAULTS"] = "slow:1:1.5"
        with AppServerDispatcher(env, workers=1) as pool:
            (slow,) = [worker.proc for worker in pool._live.values()]
            request = cgi_request("/urlquery.d2w/input")
            request.deadline = Deadline.after(0.2)
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                pool.run(request)
            assert time.perf_counter() - started < 1.0
            assert slow.poll() is not None      # killed and reaped
            stats = pool.stats()
            assert stats["crashes"] == 1 and stats["crash_retries"] == 0
            assert stats["requests"] == 0
            assert stats["workers"] == 1        # the replacement is live
