"""Keep-alive idle timeout: a stalled client must not pin a
connection slot."""

import socket
import time

import pytest

from repro.cgi.gateway import CgiGateway
from repro.http.async_server import AsyncHttpServer
from repro.http.router import Router


@pytest.fixture()
def server():
    router = Router(gateway=CgiGateway())
    router.add_page("/index.html", "<H1>idle</H1>")
    with AsyncHttpServer(router, timeout=10.0,
                         idle_timeout=0.3) as running:
        yield running


def exchange(conn, keep_alive=True):
    connection = "Keep-Alive" if keep_alive else "close"
    conn.sendall(f"GET /index.html HTTP/1.0\r\n"
                 f"Connection: {connection}\r\n\r\n".encode())
    head = b""
    while b"\r\n\r\n" not in head:
        chunk = conn.recv(4096)
        assert chunk, "server closed unexpectedly"
        head += chunk
    return head


class TestIdleTimeout:
    def test_stalled_keep_alive_client_closed(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            head = exchange(conn)
            assert b"Keep-Alive" in head
            # say nothing: the server must hang up after idle_timeout,
            # well before the 10 s per-read timeout
            started = time.perf_counter()
            conn.settimeout(5)
            rest = conn.recv(4096)
            elapsed = time.perf_counter() - started
        assert rest == b""  # clean close, not a 4xx/5xx answer
        assert elapsed < 5.0

    def test_prompt_next_request_unaffected(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            exchange(conn)
            time.sleep(0.05)  # well inside the idle window
            head = exchange(conn)
            assert head.startswith(b"HTTP/1.0 200")

    def test_idle_timeout_defaults_to_timeout(self):
        router = Router(gateway=CgiGateway())
        with AsyncHttpServer(router, timeout=3.5) as running:
            assert running.idle_timeout == 3.5
