"""The dispatchers' shared core, driven without processes.

``AppServerDispatcher`` and ``TcpPoolDispatcher`` inherit one lease /
exchange / replay / health-check core and differ only in how a peer is
made (``_spawn`` / ``_open``) and disposed of.  Here those two seams
hand out ``socket.socketpair()`` ends whose far side is a thread
answering from a script of canned frames, so every ordering the
real-worker suite (``test_dispatcher.py``) provokes with fault
injection and sleeps is reached in milliseconds, against both
subclasses.

The last tests are the cost guards with no noise band: the number of
Python calls one ``run()`` makes inside ``src/repro/appserver/``, and
the bytes a ``report_hot``-shaped exchange puts in its frames.
"""

import dataclasses
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
from repro.appserver import (
    AppServerDispatcher,
    TcpPoolDispatcher,
    WorkerPoolDaemon,
    protocol,
)
from repro.appserver import worker
from repro.appserver.dispatcher import _Worker
from repro.appserver.remote import _Channel
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


def scripted_peer(script):
    """A connected socket whose far end answers each frame it reads
    with the next step of ``script``: a ``(type, payload)`` frame, raw
    bytes followed by a close (a peer dying mid-frame), or ``None``
    (close without a word).  The far end closes when the script ends."""
    near, far = socket.socketpair()

    def answer():
        reader = protocol.FrameReader(far)
        with far:
            for step in script:
                try:
                    if reader.read() is None:
                        return
                    if step is None:
                        return
                    if isinstance(step, bytes):
                        far.sendall(step)
                        return
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
    """The four ``Popen`` methods the local pool touches."""

    def __init__(self):
        self.killed = False

    def poll(self):
        return -9 if self.killed else None

    def kill(self):
        self.killed = True

    def wait(self, timeout=None):
        if not self.killed and timeout is not None:
            raise subprocess.TimeoutExpired("worker", timeout)
        return -9


class LocalPool(AppServerDispatcher):
    """The local pool with scripted sockets in place of processes."""

    def __init__(self, scripts, **kwargs):
        self.scripts = iter(scripts)
        self.made = []
        super().__init__({}, workers=kwargs.pop("peers", 1), **kwargs)

    def _spawn(self, slot, lifetime):
        worker = _Worker(slot, FakeProc(), scripted_peer(next(self.scripts)),
                         lifetime)
        worker.conn.settimeout(self.request_timeout)
        with self._lock:
            self._live[slot] = worker
        self.made.append(worker)
        return worker

    replays = property(lambda self: self.stats()["crash_retries"])
    replaced = property(lambda self: self.stats()["crashes"])


class TcpPool(TcpPoolDispatcher):
    """The TCP client with scripted sockets in place of connections."""

    def __init__(self, scripts, **kwargs):
        self.scripts = iter(scripts)
        self.made = []
        super().__init__("pool.test:9", channels=kwargs.pop("peers", 1),
                         **kwargs)

    def _open(self, index, backend):
        channel = _Channel(index, backend,
                           scripted_peer(next(self.scripts)))
        channel.conn.settimeout(self.request_timeout)
        with self._lock:
            self._live[index] = channel
        self.made.append(channel)
        return channel

    def _backend_stats(self, backend):
        return {"": {"workers": 1}}

    replays = property(lambda self: self.stats()["channel_replays"])
    replaced = property(lambda self: self.stats()["channel_reconnects"])


@pytest.fixture(params=[LocalPool, TcpPool], ids=["local", "tcp"])
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

    def test_an_unexpected_frame_type_counts_as_broken(self, make_pool):
        pool = make_pool([(protocol.FRAME_PONG, b"")], [OK])
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
        (dispatch, replayed) = act.span.children
        assert not dispatch.children        # the bad rows attached nothing
        assert replayed.name == "appserver.dispatch"

    def test_the_messages_name_the_kind_of_peer(self):
        local, tcp = LocalPool([[TORN], [OK]]), TcpPool([[TORN], [OK]])
        with local, tcp:
            with pytest.raises(CgiProtocolError, match="worker died"):
                local.run(post())
            with pytest.raises(CgiProtocolError, match="channel broke"):
                tcp.run(post())


class TestErrorFrame:
    def test_pool_side_failure_is_reraised_and_the_peer_kept(
            self, make_pool):
        exhausted = (protocol.FRAME_ERROR, protocol.encode_error(
            "all 2 workers stayed busy", kind="exhausted", retry_after=-3))
        lost = (protocol.FRAME_ERROR,
                protocol.encode_error("worker died mid-request: gone"))
        pool = make_pool([exhausted, lost, OK])
        with pytest.raises(PoolExhaustedError, match="stayed busy") as info:
            pool.run(get())
        assert info.value.retry_after == 0.0    # clamped, not -3
        (peer,) = pool.made
        assert idle(pool) == [peer]
        with pytest.raises(CgiProtocolError, match="gone"):
            pool.run(get())
        assert idle(pool) == [peer]
        assert pool.run(get()).status == 200
        assert pool.replays == 0 and pool.replaced == 0
        assert len(pool.made) == 1


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


class TestHealthCheck:
    def test_anything_but_pong_gets_the_peer_replaced(self, make_pool):
        pong = (protocol.FRAME_PONG, protocol.encode_control({}))
        pool = make_pool([pong, OK], [OK], [pong], [OK], peers=2)
        healthy, confused = pool.made
        assert pool.health_check() == {0: True, 1: False}
        assert confused.conn.fileno() == -1
        assert len(pool.made) == 3
        assert sorted(peer.slot for peer in idle(pool)) == [0, 1]
        assert healthy in idle(pool) and confused not in idle(pool)
        # the replacement answers for itself only on the next pass
        assert pool.health_check() == {0: False, 1: True}

    def test_busy_peers_are_skipped(self, make_pool):
        pool = make_pool([OK])
        held = pool._checkout()
        assert pool.health_check() == {}
        pool._checkin(held)


class TestOneCore:
    def test_both_dispatchers_inherit_the_same_methods(self):
        for name in ("run", "health_check", "_checkout", "_exchange",
                     "__enter__", "__exit__"):
            assert getattr(AppServerDispatcher, name) \
                is getattr(TcpPoolDispatcher, name), name

    def test_run_stays_in_the_local_pools_own_namespace(self):
        """``benchmarks/e2e/spans.py`` wraps ``owner.__dict__[attr]``;
        an inherited ``run`` makes ``appserver.dispatch.self_us`` 0.0."""
        assert "run" in AppServerDispatcher.__dict__


# -- the pool daemon and outside input -------------------------------------

class StubPool:
    def run(self, request):
        return CgiResponse(body=request.environ.path_info.encode())

    def labeled_stats(self):
        return {"": {"workers": 1}}

    def shutdown(self):
        pass


def json_frame(header: bytes, body: bytes = b"") -> bytes:
    return struct.pack(">I", len(header)) + header + body


def request_header(**fields) -> bytes:
    """A positional REQUEST header with some fields replaced by raw
    JSON values."""
    header = json.loads(protocol.encode_request(get())[4:])
    names = [field.name for field in dataclasses.fields(CgiEnvironment)]
    for name, value in fields.items():
        header[names.index(name)] = value
    return json.dumps(header).encode()


class TestDaemonMalformedRequest:
    @pytest.mark.parametrize("header", [
        b"[]", b"5", b'"environ"', b'{"environ": 5}',
        b'{"environ": {"CONTENT_LENGTH": "many"}}', b"{not json",
        request_header()[:-1] + b',""]',                  # wrong arity
        request_header(content_length=True),              # bool for int
        request_header(server_port="80"),                 # str for int
        request_header(http_headers={"Host": 5}),         # non-str value
    ])
    def test_error_frame_no_traceback_and_still_serving(self, header,
                                                        capfd):
        with WorkerPoolDaemon({}, dispatcher=StubPool()) as daemon:
            bad = protocol.connect_endpoint(daemon.endpoint, timeout=5.0)
            with bad:
                protocol.send_frame(bad, protocol.FRAME_REQUEST,
                                    json_frame(header))
                reader = protocol.FrameReader(bad)
                frame_type, payload = reader.read()
                assert frame_type == protocol.FRAME_ERROR
                assert isinstance(protocol.pool_error(payload),
                                  CgiProtocolError)
                assert reader.read() is None  # closed on us
            with TcpPoolDispatcher(daemon.endpoint, channels=1) as client:
                assert client.run(get()).body == b"/x.d2w/report"
        assert capfd.readouterr().err == ""


class TestDaemonFraming:
    def test_request_and_shutdown_in_one_send_are_both_served(self):
        """``TcpPoolDispatcher.shutdown`` writes SHUTDOWN to a channel
        whose REQUEST may still be unread: one read takes both."""
        with WorkerPoolDaemon({}, dispatcher=StubPool()) as daemon:
            conn = protocol.connect_endpoint(daemon.endpoint, timeout=5.0)
            with conn:
                payload = protocol.encode_request(get())
                conn.sendall(
                    struct.pack(">BI", protocol.FRAME_REQUEST, len(payload))
                    + payload + struct.pack(">BI", protocol.FRAME_SHUTDOWN, 0))
                reader = protocol.FrameReader(conn)
                frame_type, payload = reader.read()
                assert frame_type == protocol.FRAME_RESPONSE
                assert protocol.decode_response(payload).body \
                    == b"/x.d2w/report"
                assert reader.read() is None  # ... then the SHUTDOWN


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
        "REPRO_QUERY_CACHE": "128", "REPRO_POOL_SIZE": "1"}))
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
