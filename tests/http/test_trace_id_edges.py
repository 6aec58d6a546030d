"""X-Trace-Id on error and shed responses (satellite: 4xx/503/504).

A client holding a 400, 503 or 504 needs something to quote against
the access log even though those paths open no span — the edge and
the router's unadmitted paths mint a correlation id whenever tracing
is on, and stay header-free when it is off.
"""

import re
import socket
import time

import pytest

from repro.errors import OverloadShedError
from repro.http.async_server import AsyncHttpServer
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.obs.trace import TRACER
from repro.resilience.deadline import Deadline

TRACE_ID_RE = re.compile(rb"X-Trace-Id:\s*(\S+)", re.IGNORECASE)


@pytest.fixture()
def tracing():
    TRACER.enable()
    yield
    TRACER.disable()
    TRACER.clear_sinks()


def build_router() -> Router:
    router = Router()
    router.add_page("/hello", "<H1>Hello</H1>")
    return router


class SheddingController:
    """An overload stub whose admit always refuses."""

    def admit(self, request, **kwargs):
        raise OverloadShedError(retry_after=2.0)


def read_until_closed(sock) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


class TestRouterUnadmittedPaths:
    def test_shed_503_carries_a_trace_id(self, tracing):
        router = build_router()
        router.overload = SheddingController()
        response = router.handle(HttpRequest(target="/hello"))
        assert response.status == 503
        assert response.headers.get("X-Trace-Id")

    def test_shed_reuses_the_edge_minted_id(self, tracing):
        router = build_router()
        router.overload = SheddingController()
        response = router.handle(HttpRequest(target="/hello"),
                                 trace_id="edge-id-1")
        assert response.headers.get("X-Trace-Id") == "edge-id-1"

    def test_expired_deadline_504_carries_a_trace_id(self, tracing):
        router = build_router()
        deadline = Deadline.after(0.0)
        time.sleep(0.001)
        response = router.handle(HttpRequest(target="/hello"),
                                 deadline=deadline)
        assert response.status == 504
        assert response.headers.get("X-Trace-Id")

    def test_no_header_when_tracing_off(self):
        router = build_router()
        router.overload = SheddingController()
        response = router.handle(HttpRequest(target="/hello"))
        assert response.status == 503
        assert not response.headers.get("X-Trace-Id")


class TestAsyncEdge:
    def test_bad_request_400_carries_a_trace_id(self, tracing):
        with AsyncHttpServer(build_router(), timeout=5.0) as server:
            with socket.create_connection(
                    (server.host, server.port), timeout=5.0) as sock:
                sock.sendall(b"POST /hello HTTP/1.0\r\n"
                             b"Content-Length: 3\r\n"
                             b"Content-Length: 4\r\n\r\nabc")
                data = read_until_closed(sock)
        assert b"400 Bad Request" in data
        assert TRACE_ID_RE.search(data)

    def test_connection_shed_503_carries_a_trace_id(self, tracing):
        with AsyncHttpServer(build_router(), max_connections=1,
                             timeout=5.0) as server:
            held = socket.create_connection(
                (server.host, server.port), timeout=5.0)
            try:
                held.sendall(b"GET /hel")
                time.sleep(0.2)
                with socket.create_connection(
                        (server.host, server.port),
                        timeout=5.0) as extra:
                    data = read_until_closed(extra)
            finally:
                held.close()
        assert b"503" in data
        assert TRACE_ID_RE.search(data)

    def test_no_header_when_tracing_off(self):
        with AsyncHttpServer(build_router(), timeout=5.0) as server:
            with socket.create_connection(
                    (server.host, server.port), timeout=5.0) as sock:
                sock.sendall(b"POST /hello HTTP/1.0\r\n"
                             b"Content-Length: 3\r\n"
                             b"Content-Length: 4\r\n\r\nabc")
                data = read_until_closed(sock)
        assert b"400 Bad Request" in data
        assert not TRACE_ID_RE.search(data)
