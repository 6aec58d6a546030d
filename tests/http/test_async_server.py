"""The asyncio edge: keep-alive pipelining, chunked streaming, limits.

Each test drives the server over a real socket — buffer carry-over,
framing, and connection lifetime are exactly what is under test, so no
client-library smarts are allowed to paper over them.
"""

import socket
import threading
import time

import pytest

from repro.cgi.gateway import FunctionProgram
from repro.cgi.request import CgiResponse
from repro.http.async_server import AsyncHttpServer
from repro.http.message import HttpRequest, content_length_of
from repro.http.persistent import PersistentHttpClient
from repro.http.router import Router
from repro.http.urls import Url
from repro.errors import BadRequestError, TransferEncodingError
from repro.obs.metrics import MetricsRegistry

ROWS = 40


class StreamingReport:
    """A CGI program that streams rows like the report engine does."""

    def run(self, request):
        def rows():
            for i in range(ROWS):
                yield f"<P>row {i}</P>\n".encode()
        return CgiResponse(status=200,
                           headers=[("Content-Type", "text/html")],
                           body=b"<H1>Report</H1>\n", body_iter=rows())


def expected_stream_body() -> bytes:
    return b"<H1>Report</H1>\n" + b"".join(
        f"<P>row {i}</P>\n".encode() for i in range(ROWS))


class EchoStdin:
    """A CGI program that records and echoes the body it was handed."""

    def __init__(self):
        self.bodies = []

    def run(self, request):
        self.bodies.append(request.stdin)
        return CgiResponse(body=b"got " + request.stdin)


def build_router(metrics=None) -> Router:
    router = Router(metrics=metrics)
    router.add_page("/hello", "<H1>Hello</H1>")
    router.gateway.install("stream", StreamingReport())
    return router


@pytest.fixture()
def metrics():
    return MetricsRegistry()


@pytest.fixture()
def server(metrics):
    with AsyncHttpServer(build_router(metrics), max_connections=3,
                         timeout=5.0) as srv:
        yield srv


@pytest.fixture()
def echo(server):
    program = EchoStdin()
    server.router.gateway.install("echo", program)
    return program


def connect(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port),
                                    timeout=5.0)
    return sock


def read_until_closed(sock) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def read_n_responses(sock, count, deadline=5.0) -> bytes:
    """Read until ``count`` complete Content-Length responses arrived."""
    data = b""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if data.count(b"\r\n\r\n") >= count:
            heads = data.split(b"\r\n\r\n")
            # crude completeness check: all declared bodies present
            total = 0
            complete = True
            rest = data
            got = 0
            while b"\r\n\r\n" in rest and got < count:
                head, _, rest = rest.partition(b"\r\n\r\n")
                length = content_length_of(b"x\r\n" + head)
                if len(rest) < length:
                    complete = False
                    break
                rest = rest[length:]
                got += 1
            if complete and got == count:
                return data
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
    return data


class TestKeepAlivePipelining:
    def test_pipelined_requests_share_one_connection(self, server):
        """Two whole requests in one write: the read buffer must carry
        request 2's bytes over from request 1's read."""
        with connect(server) as sock:
            sock.sendall(
                b"GET /hello HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                b"GET /hello HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            data = read_n_responses(sock, 2)
        assert data.count(b"200 OK") == 2
        assert data.count(b"Hello") == 2

    def test_split_request_head_is_buffered(self, server):
        """A head arriving in two TCP segments parses once complete."""
        with connect(server) as sock:
            sock.sendall(b"GET /hel")
            time.sleep(0.05)
            sock.sendall(b"lo HTTP/1.0\r\n\r\n")
            data = read_until_closed(sock)
        assert b"200 OK" in data and b"Hello" in data

    def test_pipelining_carries_partial_next_request(self, server):
        """Request 2's first bytes ride the same segment as request 1's
        tail; the remainder arrives later."""
        with connect(server) as sock:
            sock.sendall(
                b"GET /hello HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                b"GET /hel")
            first = read_n_responses(sock, 1)
            assert b"Hello" in first
            sock.sendall(b"lo HTTP/1.0\r\n\r\n")
            data = read_until_closed(sock)
        assert b"Hello" in data

    def test_http11_is_keep_alive_by_default(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /hello HTTP/1.1\r\nHost: t\r\n\r\n")
            data = read_n_responses(sock, 1)
            assert b"Keep-Alive" in data
            sock.sendall(b"GET /hello HTTP/1.1\r\nHost: t\r\n"
                         b"Connection: close\r\n\r\n")
            data = read_until_closed(sock)
        assert b"Connection: close" in data


class TestChunkedStreaming:
    def test_chunked_round_trip_and_connection_survives(self, server,
                                                        metrics):
        """HTTP/1.1 + streaming response = chunked framing, and the
        connection serves another request afterwards."""
        with PersistentHttpClient(http11=True) as client:
            url = Url.parse(f"{server.base_url}/cgi-bin/stream")
            first = client.fetch(url, HttpRequest(
                method="GET", target="/cgi-bin/stream"))
            assert first.status == 200
            assert first.body == expected_stream_body()
            # same socket still serves: the stream did not cost it
            again = client.fetch(
                Url.parse(f"{server.base_url}/hello"),
                HttpRequest(method="GET", target="/hello"))
            assert again.status == 200
        assert metrics.flat()["edge_responses_chunked_total"] == 1

    def test_chunked_wire_format(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /cgi-bin/stream HTTP/1.1\r\n"
                         b"Host: t\r\nConnection: close\r\n\r\n")
            data = read_until_closed(sock)
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200" in head
        assert b"Transfer-Encoding: chunked" in head
        assert b"Content-Length" not in head
        assert body.endswith(b"0\r\n\r\n")  # terminal chunk

    def test_http10_client_still_gets_close_delimited(self, server):
        """Protocol downgrade: a 1996 client sees plain HTTP/1.0
        framing — no chunks, close ends the body."""
        with connect(server) as sock:
            sock.sendall(b"GET /cgi-bin/stream HTTP/1.0\r\n\r\n")
            data = read_until_closed(sock)
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding" not in head
        assert b"Connection: close" in head
        assert body == expected_stream_body()


class TestLimitsAndShedding:
    def test_oversized_head_is_rejected(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /hello HTTP/1.0\r\nX-Pad: ")
            try:
                sock.sendall(b"x" * (70 * 1024) + b"\r\n\r\n")
            except OSError:
                pass  # server may slam the door mid-send
            try:
                data = read_until_closed(sock)
            except OSError:
                data = b""
        assert b"400" in data or data == b""

    def test_duplicate_content_length_is_400(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /cgi-bin/stream HTTP/1.0\r\n"
                         b"Content-Length: 3\r\nContent-Length: 4\r\n"
                         b"\r\nabc")
            data = read_until_closed(sock)
        assert b"400 Bad Request" in data

    def test_comma_joined_content_length_is_400(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /cgi-bin/stream HTTP/1.0\r\n"
                         b"Content-Length: 3, 3\r\n\r\nabc")
            data = read_until_closed(sock)
        assert b"400 Bad Request" in data

    def test_connection_budget_sheds_with_503(self, server, metrics):
        held = [connect(server) for _ in range(3)]
        try:
            for sock in held:
                sock.sendall(b"GET /hel")  # partial: pins the slot
            time.sleep(0.2)
            with connect(server) as extra:
                data = read_until_closed(extra)
            assert b"503" in data
            assert b"Retry-After" in data
        finally:
            for sock in held:
                sock.close()
        assert metrics.flat()["edge_shed_total"] >= 1

    def test_short_body_never_reaches_the_router(self, server, echo):
        """Half a form must not run the program: a body that ends
        before its declared length is a 400, not a dispatch."""
        with connect(server) as sock:
            sock.sendall(b"POST /cgi-bin/echo HTTP/1.0\r\n"
                         b"Content-Length: 100\r\n\r\nabc")
            sock.shutdown(socket.SHUT_WR)
            data = read_until_closed(sock)
        assert b"400 Bad Request" in data
        assert b"3 of 100" in data
        assert echo.bodies == []

    def test_transfer_encoding_request_is_501_and_closes(self, server,
                                                         echo):
        """The edge does not decode chunked request bodies, so it must
        not run the POST bodiless and parse the chunk stream as the
        next pipelined request."""
        with connect(server) as sock:
            sock.sendall(b"POST /cgi-bin/echo HTTP/1.1\r\nHost: t\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n"
                         b"3\r\nabc\r\n0\r\n\r\n"
                         b"GET /hello HTTP/1.1\r\nHost: t\r\n\r\n")
            data = read_until_closed(sock)
        assert data.startswith(b"HTTP/1.0 501")
        assert b"Connection: close" in data
        assert data.count(b"HTTP/1.") == 1  # nothing pipelined ran
        assert echo.bodies == []

    def test_edge_metrics_are_on_statusz(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /statusz HTTP/1.0\r\n\r\n")
            data = read_until_closed(sock)
        assert b"edge_connections_active" in data
        assert b"edge_requests_total" in data


class TestHardenedContentLengthParser:
    """The strict framing parser the edge calls (no silent first-wins
    on smuggling-shaped heads)."""

    def test_single_value_parses(self):
        assert content_length_of(
            b"POST / HTTP/1.0\r\nContent-Length: 42\r\n") == 42

    def test_absent_means_zero(self):
        assert content_length_of(b"GET / HTTP/1.0\r\n") == 0

    def test_duplicate_headers_rejected(self):
        with pytest.raises(BadRequestError, match="2 Content-Length"):
            content_length_of(b"POST / HTTP/1.0\r\n"
                              b"Content-Length: 3\r\n"
                              b"Content-Length: 3\r\n")

    def test_comma_joined_rejected_even_when_equal(self):
        with pytest.raises(BadRequestError, match="comma-joined"):
            content_length_of(
                b"POST / HTTP/1.0\r\nContent-Length: 3, 3\r\n")

    def test_negative_and_garbage_rejected(self):
        for value in (b"-1", b"0x10", b"3.5", b"\xb9"):
            with pytest.raises(BadRequestError, match="malformed"):
                content_length_of(
                    b"POST / HTTP/1.0\r\nContent-Length: " + value
                    + b"\r\n")

    def test_transfer_encoding_declares_no_length(self):
        with pytest.raises(TransferEncodingError, match="not supported"):
            content_length_of(b"POST / HTTP/1.1\r\n"
                              b"Transfer-Encoding: chunked\r\n")

    def test_request_line_is_not_scanned(self):
        # a path containing the header name must not confuse the scan
        assert content_length_of(
            b"GET /content-length:9 HTTP/1.0\r\n") == 0


class SlowTenants:
    """A ``router.tenants`` stub: slow, and remembers its thread."""

    def __init__(self):
        self.threads = []

    def handle(self, router, request, path, remote_addr, deadline):
        self.threads.append(threading.current_thread().name)
        time.sleep(0.5)
        return router._handle_static("/hello", request)


class TestBlockingWorkLeavesTheLoop:
    def test_slow_tenant_request_does_not_stall_a_static_page(self):
        tenants = SlowTenants()
        router = build_router()
        router.tenants = tenants
        with AsyncHttpServer(router, timeout=5.0) as server:
            with connect(server) as slow, connect(server) as fast:
                slow.sendall(b"GET /t/alpha/items.d2w/report HTTP/1.0"
                             b"\r\n\r\n")
                time.sleep(0.1)  # the tenant handler is now asleep
                started = time.perf_counter()
                fast.sendall(b"GET /hello HTTP/1.0\r\n\r\n")
                assert b"Hello" in read_until_closed(fast)
                elapsed = time.perf_counter() - started
                assert b"200 OK" in read_until_closed(slow)
        assert elapsed < 0.3
        assert tenants.threads and all(
            name.startswith("repro-edge") for name in tenants.threads)

    def test_unnormalised_cgi_path_is_offloaded_too(self):
        """The router routes on the normalised path; so must the
        offload rule, or ``//cgi-bin/`` runs the gateway in-loop."""
        seen = []

        def where(request):
            seen.append(threading.current_thread().name)
            return CgiResponse(body=b"ok")

        router = build_router()
        router.gateway.install("where", FunctionProgram(where))
        with AsyncHttpServer(router, timeout=5.0) as server:
            with connect(server) as sock:
                sock.sendall(b"GET /x/..//cgi-bin/where HTTP/1.0\r\n\r\n")
                assert b"ok" in read_until_closed(sock)
        assert seen and seen[0].startswith("repro-edge")
