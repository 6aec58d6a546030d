"""HTTP/1.0 opt-in Keep-Alive: server loop and persistent client."""

import socket

import pytest

from repro.cgi.gateway import CgiGateway, FunctionProgram
from repro.cgi.request import CgiResponse
from repro.http.async_server import AsyncHttpServer
from repro.http.client import HttpClient
from repro.http.headers import Headers
from repro.http.message import HttpRequest
from repro.http.persistent import PersistentHttpClient
from repro.http.router import Router
from repro.http.urls import Url


@pytest.fixture()
def server():
    counter = {"n": 0}

    def count(request):
        counter["n"] += 1
        return CgiResponse(body=f"hit {counter['n']}".encode())

    gateway = CgiGateway()
    gateway.install("count", FunctionProgram(count))
    router = Router(gateway=gateway)
    router.add_page("/index.html", "<H1>ka</H1>")
    with AsyncHttpServer(router, keep_alive_max=5) as running:
        yield running


class TestServerKeepAlive:
    def _exchange(self, conn, target, keep_alive=True):
        connection = "Keep-Alive" if keep_alive else "close"
        conn.sendall(
            f"GET {target} HTTP/1.0\r\nConnection: {connection}\r\n"
            f"\r\n".encode())
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = conn.recv(4096)
            assert chunk, "server closed unexpectedly"
            head += chunk
        header_part, _, body = head.partition(b"\r\n\r\n")
        length = int(next(
            line.split(b":")[1] for line in header_part.split(b"\r\n")
            if line.lower().startswith(b"content-length")))
        while len(body) < length:
            body += conn.recv(4096)
        return header_part, body[:length], body[length:]

    def test_two_requests_one_connection(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            head1, body1, rest = self._exchange(conn, "/cgi-bin/count/x")
            assert b"Connection: Keep-Alive" in head1
            assert body1 == b"hit 1"
            assert rest == b""
            head2, body2, _ = self._exchange(conn, "/cgi-bin/count/x")
            assert body2 == b"hit 2"

    def test_close_requested_closes(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            head, _body, _ = self._exchange(conn, "/index.html",
                                            keep_alive=False)
            assert b"Connection: close" in head
            assert conn.recv(1) == b""  # server hung up

    def test_keep_alive_max_enforced(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as conn:
            for i in range(4):
                head, _, _ = self._exchange(conn, "/index.html")
                assert b"Keep-Alive" in head
            head, _, _ = self._exchange(conn, "/index.html")  # 5th
            assert b"Connection: close" in head
            assert conn.recv(1) == b""

    def test_plain_client_unaffected(self, server):
        url = Url.parse(f"{server.base_url}/index.html")
        response = HttpClient().fetch(
            url, HttpRequest(target=url.request_target))
        assert response.status == 200
        assert response.headers.get("Connection") == "close"


class TestPersistentClient:
    def test_reuses_connection(self, server):
        with PersistentHttpClient() as client:
            url = Url.parse(f"{server.base_url}/cgi-bin/count/x")
            bodies = []
            for _ in range(3):
                response = client.fetch(
                    url, HttpRequest(target=url.request_target,
                                     headers=Headers()))
                bodies.append(response.text)
            assert bodies == ["hit 1", "hit 2", "hit 3"]
            assert len(client._sockets) == 1

    def test_recovers_after_server_close(self, server):
        with PersistentHttpClient() as client:
            url = Url.parse(f"{server.base_url}/index.html")
            for _ in range(7):  # crosses the keep_alive_max=5 boundary
                response = client.fetch(
                    url, HttpRequest(target=url.request_target,
                                     headers=Headers()))
                assert response.status == 200

    def test_interleaved_posts(self, server):
        with PersistentHttpClient() as client:
            url = Url.parse(f"{server.base_url}/cgi-bin/count/x")
            headers = Headers()
            headers.set("Content-Type",
                        "application/x-www-form-urlencoded")
            request = HttpRequest(method="POST",
                                  target=url.request_target,
                                  headers=headers, body=b"a=1")
            first = client.fetch(url, request)
            assert first.status == 200
            second = client.fetch(
                url, HttpRequest(target=url.request_target,
                                 headers=Headers()))
            assert second.status == 200
