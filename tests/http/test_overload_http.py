"""Admission control at the HTTP layer: 503/504 semantics at the
router and at the edge."""

import socket

import pytest

from repro.cgi.gateway import FunctionProgram
from repro.cgi.request import CgiResponse
from repro.http.async_server import AsyncHttpServer
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.obs.metrics import MetricsRegistry
from repro.overload.classify import INTERACTIVE
from repro.overload.control import OverloadController


def make_request(target: str = "/hello") -> HttpRequest:
    return HttpRequest.parse(
        f"GET {target} HTTP/1.0\r\n\r\n".encode())


def make_router(**kwargs) -> Router:
    router = Router(**kwargs)
    router.add_page("/hello", "<P>hi</P>")
    # a CGI program too: requests for it cross the edge's executor
    router.gateway.install("hello", FunctionProgram(
        lambda request: CgiResponse(body=b"<P>hi</P>")))
    return router


class FakeDeadline:
    def __init__(self, remaining: float):
        self._remaining = remaining

    @property
    def expired(self) -> bool:
        return self._remaining <= 0.0

    def remaining(self) -> float:
        return max(0.0, self._remaining)


class TestRouterAdmission:
    def test_admitted_request_serves_normally(self):
        metrics = MetricsRegistry()
        controller = OverloadController(max_concurrent=4,
                                        metrics=metrics)
        router = make_router(overload=controller, metrics=metrics)
        response = router.handle(make_request())
        assert response.status == 200
        assert metrics.gauge("overload_inflight").value == 0  # returned
        assert metrics.counter("overload_admitted_total").value == 1

    def test_shed_request_answers_503_with_shared_retry_after(self):
        metrics = MetricsRegistry()
        controller = OverloadController(
            max_concurrent=1, queue_limit=0, metrics=metrics)
        router = make_router(overload=controller, metrics=metrics)
        # Occupy the only slot out-of-band, so the next request meets
        # a full house and an unqueueable queue.
        holder = controller.admit(cost_class=INTERACTIVE,
                                  client_key="holder")
        response = router.handle(make_request())
        controller.release(holder)
        assert response.status == 503
        retry_after = response.headers.get("Retry-After")
        assert retry_after is not None
        assert int(retry_after) >= 1  # integral, floored: shared rules
        assert metrics.counter("overload_shed_total").value == 1
        # Shed requests are still booked as traffic the operator sees.
        assert metrics.counter("http_requests_total").value == 1
        assert metrics.counter("http_errors_total").value == 1

    def test_expired_deadline_maps_to_504_with_controller(self):
        controller = OverloadController(max_concurrent=4,
                                        metrics=MetricsRegistry())
        router = make_router(overload=controller)
        response = router.handle(make_request(),
                                 deadline=FakeDeadline(0.0))
        assert response.status == 504

    def test_expired_deadline_maps_to_504_without_controller(self):
        router = make_router()
        response = router.handle(make_request(),
                                 deadline=FakeDeadline(0.0))
        assert response.status == 504

    def test_exception_releases_the_slot(self):
        controller = OverloadController(max_concurrent=1,
                                        metrics=MetricsRegistry())
        router = make_router(overload=controller)

        def explode(request, remote_addr, deadline=None):
            raise RuntimeError("handler died")

        router._route = explode
        with pytest.raises(RuntimeError):
            router.handle(make_request())
        assert controller.metrics.gauge("overload_inflight").value == 0


class TestAsyncEdgeExecutorGuard:
    def test_deadline_expired_in_handoff_504s_without_router(self):
        """A request whose budget dies in the executor hand-off answers
        504 and never touches the router."""
        metrics = MetricsRegistry()
        router = make_router(metrics=metrics)
        with AsyncHttpServer(router, request_deadline=1e-9,
                             metrics=metrics) as server:
            status, body = _fetch(server.host, server.port,
                                  "/cgi-bin/hello")
        assert status == 504
        assert b"deadline" in body.lower()
        assert metrics.counter(
            "edge_deadline_expired_total").value == 1
        # The router never saw it: no request was booked.
        assert metrics.counter("http_requests_total").value == 0

    def test_generous_deadline_serves_200(self):
        router = make_router()
        with AsyncHttpServer(router, request_deadline=30.0) as server:
            status, _ = _fetch(server.host, server.port,
                               "/cgi-bin/hello")
        assert status == 200


class TestAsyncEdgeShedHint:
    def test_connection_shed_uses_controller_hint(self):
        controller = OverloadController(max_concurrent=4,
                                        metrics=MetricsRegistry())
        router = make_router(overload=controller)
        with AsyncHttpServer(router, max_connections=0) as server:
            with socket.create_connection(
                    (server.host, server.port), timeout=5.0) as sock:
                # The edge sheds at accept time, before reading any
                # request bytes — just read the 503 off the wire.
                data = _drain(sock)
        head = data.split(b"\r\n\r\n", 1)[0]
        assert b"503" in head.split(b"\r\n", 1)[0]
        assert b"retry-after:" in head.lower()


def _fetch(host: str, port: int, target: str) -> tuple[int, bytes]:
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(f"GET {target} HTTP/1.0\r\n\r\n".encode())
        data = _drain(sock)
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), body


def _drain(sock: socket.socket) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
