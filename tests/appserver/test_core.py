"""The dispatcher's core, driven without processes.

``AppServerDispatcher`` leases, exchanges, replaces and replays; only
``_spawn`` touches a process.  Here that seam hands out
``socket.socketpair()`` ends whose far side is a thread answering from a
script of canned frames, and a ``FakeProc`` in place of the ``Popen``,
so every ordering the real-worker suite (``test_dispatcher.py``)
provokes with fault injection and sleeps is reached in milliseconds.

The last tests are the cost guards with no noise band: the number of
Python calls one ``run()`` makes inside ``src/repro/appserver/``, and
the bytes a ``report_hot``-shaped exchange puts in its frames.
"""

import json
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.appserver
from repro.appserver import AppServerDispatcher, protocol, worker
from repro.appserver.dispatcher import _Worker
from repro.apps import urlquery as urlquery_app
from repro.apps.datasets import seed_urldb
from repro.cgi.db2www_main import build_program
from repro.cgi.environ import CgiEnvironment
from repro.cgi.gateway import CgiGateway, FunctionProgram
from repro.cgi.request import CgiRequest, CgiResponse
from repro.errors import (
    CgiProtocolError,
    DeadlineExceededError,
    PoolExhaustedError,
)
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.obs.trace import TRACER
from repro.resilience.deadline import Deadline
from repro.sql.connection import Connection

APPSERVER_DIR = str(Path(repro.appserver.__file__).resolve().parent)

#: Python calls in ``src/repro/appserver/`` frames for one ``run()`` on
#: a healthy peer, dispatching thread only: run, _checkout, _exchange,
#: encode_request, _pack, send_frame, FrameReader.read,
#: decode_response, _unpack, _checkin.  Before the frame was read in
#: one piece and both headers went positional the same probe measured
#: 13 (a second _recv_exact and the response header's listcomp).
PARENT_CALLS = 13
CALL_CEILING = 10

OK = (protocol.FRAME_RESPONSE,
      protocol.encode_response(CgiResponse(body=b"<P>ok</P>")))
#: the head of a RESPONSE frame that promises 100 bytes and delivers 3
TORN = struct.pack(">BI", protocol.FRAME_RESPONSE, 100) + b"abc"


def scripted_peer(script, log, name):
    """A connected socket whose far end answers each frame it reads
    with the next step of ``script``: a ``(type, payload)`` frame, raw
    bytes followed by a close (a peer dying mid-frame), ``None`` (close
    without a word) or a number of seconds to stay silent before
    answering ``OK``.  The far end closes when the script ends, and
    appends ``(name, "read")`` to ``log`` for each frame it reads."""
    near, far = socket.socketpair()

    def answer():
        reader = protocol.FrameReader(far)
        with far:
            for step in script:
                try:
                    if reader.read() is None:
                        return
                    log.append((name, "read"))
                    if step is None:
                        return
                    if isinstance(step, bytes):
                        far.sendall(step)
                        return
                    if isinstance(step, float):
                        time.sleep(step)
                        step = OK
                    protocol.send_frame(far, *step)
                except (OSError, CgiProtocolError):
                    return
            # keep the connection open until the dispatcher closes it
            try:
                far.recv(1)
            except OSError:
                pass

    threading.Thread(target=answer, daemon=True).start()
    return near


class FakeProc:
    """The ``Popen`` methods the pool touches; a kill and a completed
    reap are appended to ``log`` as ``(name, "kill")``/``(name,
    "wait")``."""

    def __init__(self, log, name):
        self.log = log
        self.name = name
        self.killed = False

    def poll(self):
        return -9 if self.killed else None

    def kill(self):
        self.killed = True
        self.log.append((self.name, "kill"))

    def wait(self, timeout=None):
        if not self.killed and timeout is not None:
            raise subprocess.TimeoutExpired("worker", timeout)
        self.log.append((self.name, "wait"))
        return -9


class LocalPool(AppServerDispatcher):
    """The pool with scripted sockets in place of processes; ``log``
    holds what every peer and fake process did, in order, each named by
    its place in ``made``."""

    def __init__(self, scripts, **kwargs):
        self.scripts = iter(scripts)
        self.made = []
        self.log = []
        super().__init__({}, workers=1, **kwargs)

    def _spawn(self, slot, lifetime):
        name = len(self.made)
        worker = _Worker(slot, FakeProc(self.log, name),
                         scripted_peer(next(self.scripts), self.log, name),
                         lifetime)
        worker.conn.settimeout(self.request_timeout)
        with self._lock:
            self._live[slot] = worker
        self.made.append(worker)
        return worker

    replays = property(lambda self: self.stats()["crash_retries"])
    replaced = property(lambda self: self.stats()["crashes"])


# One transport, so one parameter; it keeps the tests' ids as they were.
@pytest.fixture(params=[LocalPool], ids=["local"])
def make_pool(request):
    pools = []

    def make(*scripts, **kwargs):
        pools.append(request.param(scripts, **kwargs))
        return pools[-1]

    yield make
    for pool in pools:
        pool.shutdown()


def get(deadline=None):
    request = CgiRequest(CgiEnvironment(path_info="/x.d2w/report"))
    if deadline is not None:
        request.deadline = deadline
    return request


def post():
    return CgiRequest(CgiEnvironment(request_method="POST",
                                     path_info="/x.d2w/report",
                                     content_length=1), stdin=b"x")


def idle(pool):
    return list(pool._idle.queue)


class TestReplay:
    def test_get_on_a_peer_dying_mid_frame_is_replayed_once(self, make_pool):
        pool = make_pool([TORN], [OK])
        response = pool.run(get())
        assert response.body == b"<P>ok</P>"
        assert pool.replays == 1
        assert pool.replaced == 1
        first, second = pool.made
        assert first.conn.fileno() == -1        # disposed of
        assert idle(pool) == [second]

    def test_post_is_not_replayed_but_the_peer_is_replaced(self, make_pool):
        pool = make_pool([TORN], [OK])
        with pytest.raises(CgiProtocolError, match="mid-request"):
            pool.run(post())
        assert pool.replays == 0
        assert pool.replaced == 1
        assert idle(pool) == [pool.made[1]]
        assert pool.run(post()).status == 200   # the fresh peer serves

    def test_head_replays_like_get(self, make_pool):
        pool = make_pool([None], [OK])
        request = get()
        request.environ.request_method = "head"
        assert pool.run(request).status == 200
        assert pool.replays == 1

    def test_break_on_the_replay_as_well(self, make_pool):
        pool = make_pool([TORN], [None], [OK])
        with pytest.raises(CgiProtocolError,
                           match="on the replay as well"):
            pool.run(get())
        assert pool.replays == 1
        assert pool.replaced == 2
        assert len(pool.made) == 3
        assert idle(pool) == [pool.made[2]]

    def test_a_broken_worker_is_reaped_before_the_replay_is_sent(
            self, make_pool):
        """The replay never overlaps the first attempt: the worker that
        broke is killed and reaped before the fresh one reads a byte,
        so it cannot commit behind the replay's back (ROADMAP 2(d))."""
        pool = make_pool([TORN], [OK])
        assert pool.run(get()).status == 200
        assert pool.log == [(0, "read"), (0, "kill"), (0, "wait"),
                            (1, "read")]

    def test_an_unexpected_frame_type_counts_as_broken(self, make_pool):
        pool = make_pool([(protocol.FRAME_HELLO, b"")], [OK])
        assert pool.run(get()).status == 200
        assert pool.replaced == 1

    def test_malformed_span_rows_count_as_broken(self, make_pool):
        bad_rows = (protocol.FRAME_RESPONSE, protocol.encode_response(
            CgiResponse(), trace=[["worker", 3, 0, 1, {}]]))
        pool = make_pool([bad_rows], [OK])
        TRACER.enable()
        act = TRACER.begin("request")
        try:
            assert pool.run(get()).status == 200
        finally:
            act.finish()
            TRACER.disable()
        assert pool.replaced == 1 and pool.replays == 1
        (dispatch, replayed) = act.children
        assert not dispatch.children        # the bad rows attached nothing
        assert replayed.name == "appserver.dispatch"

    def test_the_messages_name_the_kind_of_peer(self):
        with LocalPool([[TORN], [OK]]) as pool:
            with pytest.raises(CgiProtocolError, match="worker died"):
                pool.run(post())


class TestCheckout:
    def test_expired_deadline_never_waits(self, make_pool):
        pool = make_pool([OK], request_timeout=30.0)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError, match="before a"):
            pool.run(get(Deadline.after(0.0)))
        assert time.perf_counter() - started < 0.5
        assert pool.stats()["busy_timeouts"] == 0
        assert len(idle(pool)) == 1

    def test_deadline_caps_the_wait_and_counts_a_busy_timeout(
            self, make_pool):
        pool = make_pool([OK], request_timeout=30.0)
        held = pool._checkout()                 # the only peer is busy
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError, match="waiting for"):
            pool.run(get(Deadline.after(0.05)))
        assert 0.04 < time.perf_counter() - started < 2.0
        assert pool.stats()["busy_timeouts"] == 1
        pool._checkin(held)

    def test_no_deadline_waits_the_request_timeout(self, make_pool):
        pool = make_pool([OK], request_timeout=0.05)
        held = pool._checkout()
        with pytest.raises(PoolExhaustedError, match="stayed busy"):
            pool.run(get())
        assert pool.stats()["busy_timeouts"] == 1
        pool._checkin(held)

    def test_shut_down_pool_refuses(self, make_pool):
        pool = make_pool([OK])
        pool.shutdown()
        with pytest.raises(CgiProtocolError, match="shut down"):
            pool.run(get())


class TestDeadline:
    def test_a_worker_silent_past_the_deadline_is_killed_not_replayed(
            self, make_pool):
        """The wait for the answer is capped like the wait for a worker.
        The worker may still be running the request, so it is killed
        and replaced, and the request fails instead of being replayed."""
        pool = make_pool([1.0], [OK], request_timeout=30.0)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError,
                           match="waiting for app-server worker 0"):
            pool.run(get(Deadline.after(0.05)))
        assert time.perf_counter() - started < 0.5
        slow, fresh = pool.made
        assert slow.proc.killed and slow.conn.fileno() == -1
        assert pool.replays == 0 and pool.replaced == 1
        assert idle(pool) == [fresh]
        assert fresh.conn.gettimeout() == 30.0

    def test_an_answer_in_time_restores_the_request_timeout(
            self, make_pool):
        pool = make_pool([OK, OK], request_timeout=30.0)
        assert pool.run(get(Deadline.after(5.0))).status == 200
        (worker,) = pool.made
        assert worker.conn.gettimeout() == 30.0
        assert pool.run(get()).status == 200
        assert pool.replaced == 0


class TestOneCore:
    def test_run_stays_in_the_local_pools_own_namespace(self):
        """``benchmarks/e2e/spans.py`` wraps ``owner.__dict__[attr]``;
        an inherited ``run`` makes ``appserver.dispatch.self_us`` 0.0."""
        assert "run" in AppServerDispatcher.__dict__


# -- the cost guards -------------------------------------------------------

def appserver_calls(run) -> int:
    """``call`` events in ``src/repro/appserver/`` frames during ``run``
    (this thread only: the scripted far end is not the dispatcher)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" \
                and frame.f_code.co_filename.startswith(APPSERVER_DIR):
            count += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


class TestDispatchHopCallCount:
    def test_call_count_is_exact_and_under_its_ceiling(self, make_pool):
        pool = make_pool([OK] * 4)
        request = get()
        pool.run(request)  # first use fills caches
        counts = {appserver_calls(lambda: pool.run(request))
                  for _ in range(3)}
        assert len(counts) == 1, f"call count is not deterministic: {counts}"
        (count,) = counts
        assert count <= CALL_CEILING, (
            f"one dispatch now costs {count} calls in appserver/ "
            f"(ceiling {CALL_CEILING})")
        assert CALL_CEILING <= PARENT_CALLS + 1


#: A ``report_hot`` request as the benchmark's client sends it.
REPORT_HOT = (b"GET /cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_URL=yes"
              b"&USE_TITLE=yes&DBFIELDS=title HTTP/1.1\r\n"
              b"Host: 127.0.0.1\r\n\r\n")
#: Bytes the same exchange's trace took as a nested dict tree with a
#: trace id and span id per span, before span rows replaced it.
NESTED_TRACE_BYTES = 776


def worker_answers(tmp_path, request, times):
    """The RESPONSE payloads a warm worker (``worker._serve``, on a
    thread over a socketpair) gives ``request`` asked ``times`` times."""
    db_path = tmp_path / "urldb.sqlite"
    conn = Connection(str(db_path))
    seed_urldb(conn, 150)
    conn.close()
    (tmp_path / "urlquery.d2w").write_text(urlquery_app.URLQUERY_MACRO,
                                          encoding="utf-8")
    gateway = CgiGateway()
    gateway.install("db2www", build_program({
        "REPRO_MACRO_DIR": str(tmp_path),
        "REPRO_DATABASE_URLDB": str(db_path),
        "REPRO_QUERY_CACHE": "128"}))
    near, far = socket.socketpair()
    serving = threading.Thread(target=worker._serve,
                               args=(far, gateway, None, 0))
    serving.start()
    reader = protocol.FrameReader(near)
    answers = []
    with near, far:
        for _ in range(times):
            protocol.send_frame(near, protocol.FRAME_REQUEST,
                                protocol.encode_request(request))
            answers.append(reader.read()[1])
        protocol.send_frame(near, protocol.FRAME_SHUTDOWN)
        serving.join(timeout=10.0)
    return answers


class TestHopBytes:
    def test_report_hot_exchange_stays_compact(self, tmp_path):
        """The request frame as the edge builds it, and the span rows
        of a traced, cache-hot worker answer: a re-nested or id-laden
        trace, or a keyed environment, fails here first."""
        captured = []
        edge = CgiGateway()
        edge.install("db2www", FunctionProgram(
            lambda request: captured.append(request) or CgiResponse()))
        TRACER.enable()
        try:
            Router(gateway=edge).handle(HttpRequest.parse(REPORT_HOT))
            (request,) = captured
            assert request.trace_id  # the traced edge's id rides along
            *_, hot = worker_answers(tmp_path, request, 2)
        finally:
            TRACER.disable()
        frame = struct.calcsize(">BI") + len(protocol.encode_request(request))
        assert frame <= 200
        response = protocol.decode_response(hot)
        assert response.status == 200
        assert [row[0] for row in response.trace] == [
            "worker", "macro.load", "substitute", "sql.execute",
            "report.render"]
        rows = json.dumps(response.trace, separators=(",", ":"))
        assert len(rows) <= 0.6 * NESTED_TRACE_BYTES, rows
