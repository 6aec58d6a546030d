"""The socket HTTP edge and client, over real TCP."""

import socket

import pytest

from repro.cgi.gateway import CgiGateway, FunctionProgram
from repro.cgi.request import CgiResponse
from repro.errors import HttpError
from repro.http.async_server import AsyncHttpServer
from repro.http.client import HttpClient
from repro.http.headers import Headers
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.http.urls import Url


@pytest.fixture()
def server():
    gateway = CgiGateway()
    gateway.install("hello", FunctionProgram(
        lambda req: CgiResponse(
            body=f"hi {req.environ.remote_addr}".encode())))
    router = Router(gateway=gateway)
    router.add_page("/index.html", "<H1>socket home</H1>")
    with AsyncHttpServer(router) as running:
        yield running


class TestSocketServer:
    def test_static_page_over_tcp(self, server):
        client = HttpClient()
        url = Url.parse(f"{server.base_url}/index.html")
        response = client.fetch(
            url, HttpRequest(target=url.request_target))
        assert response.status == 200
        assert "socket home" in response.text

    def test_cgi_over_tcp(self, server):
        client = HttpClient()
        url = Url.parse(f"{server.base_url}/cgi-bin/hello/x")
        response = client.fetch(
            url, HttpRequest(target=url.request_target))
        assert response.text.startswith("hi 127.0.0.1")

    def test_post_over_tcp(self, server):
        gatewayed = Url.parse(f"{server.base_url}/cgi-bin/hello/x")
        headers = Headers()
        headers.set("Content-Type", "application/x-www-form-urlencoded")
        request = HttpRequest(method="POST",
                              target=gatewayed.request_target,
                              headers=headers, body=b"a=1")
        response = HttpClient().fetch(gatewayed, request)
        assert response.status == 200

    def test_404_over_tcp(self, server):
        url = Url.parse(f"{server.base_url}/missing")
        response = HttpClient().fetch(
            url, HttpRequest(target=url.request_target))
        assert response.status == 404

    def test_malformed_request_gets_400(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            conn.sendall(b"GARBAGE\r\n\r\n")
            conn.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
        assert b"400" in data.split(b"\r\n", 1)[0]

    def test_concurrent_requests(self, server):
        import threading
        results = []

        def fetch():
            url = Url.parse(f"{server.base_url}/index.html")
            response = HttpClient().fetch(
                url, HttpRequest(target=url.request_target))
            results.append(response.status)

        threads = [threading.Thread(target=fetch) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [200] * 10

    def test_connection_refused_raises_http_error(self):
        url = Url.parse("http://127.0.0.1:1/x")  # nothing listens on 1
        with pytest.raises(HttpError):
            HttpClient(timeout=0.5).fetch(
                url, HttpRequest(target="/x"))

    def test_shutdown_stops_accepting(self):
        router = Router()
        server = AsyncHttpServer(router).start()
        host, port = server.host, server.port
        server.shutdown()
        with pytest.raises(OSError):
            probe = socket.create_connection((host, port), timeout=0.3)
            # If the listener lingers, at least the read must fail fast.
            probe.settimeout(0.3)
            probe.sendall(b"GET / HTTP/1.0\r\n\r\n")
            if not probe.recv(1):
                probe.close()
                raise OSError("closed")


class TestServerLimits:
    def test_oversized_header_connection_dropped(self, server):
        """A head larger than the 64 KiB cap must not crash the server
        or buffer unboundedly: 400 (if the peer is still listening) and
        the connection closes."""
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            conn.sendall(b"GET / HTTP/1.0\r\nX-Big: ")
            try:
                for _ in range(80):       # ~80 KiB of header value
                    conn.sendall(b"x" * 1024)
                conn.sendall(b"\r\n\r\n")
            except OSError:
                pass  # server already hung up mid-send: acceptable
            conn.settimeout(2)
            data = b""
            try:
                while True:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            except OSError:
                pass
        assert data == b"" or b"400" in data.split(b"\r\n", 1)[0]
        # And the server still answers normal requests afterwards.
        url = Url.parse(f"{server.base_url}/index.html")
        response = HttpClient().fetch(
            url, HttpRequest(target=url.request_target))
        assert response.status == 200

    def test_content_length_lie_truncates_body(self, server):
        """Body read is bounded by Content-Length, not by the client's
        generosity."""
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            conn.sendall(
                b"POST /cgi-bin/hello/x HTTP/1.0\r\n"
                b"Content-Type: application/x-www-form-urlencoded\r\n"
                b"Content-Length: 3\r\n\r\n"
                b"a=1&b=EXTRA_BYTES_BEYOND_LENGTH")
            conn.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
        assert b"200" in data.split(b"\r\n", 1)[0]

    def test_oversized_declared_body_is_400(self, server):
        """A Content-Length past the 8 MiB cap is refused up front —
        the edge never waits for (or buffers) the body."""
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            conn.sendall(b"POST /cgi-bin/hello/x HTTP/1.0\r\n"
                         b"Content-Length: 9000000\r\n\r\n")
            data = b""
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b"exceeds" in data

    def test_connection_budget_is_bounded_by_default(self, server):
        assert server.max_connections == 1024
