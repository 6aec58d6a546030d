"""The socket edge vs the router itself: byte-identical bodies on the
golden requests.

The cmp6 comparison pins five gateway programs (DB2WWW and the four
Section-6 baselines) to known report requests.  The edge must be
invisible to the client: for each golden request, the HTTP/1.0 response
body read off a real socket must match, byte for byte, what the same
:class:`Router` answers through :class:`InProcessTransport` — the
oracle every in-process test and benchmark already trusts.
"""

import socket

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.site import build_site
from repro.baselines import gsql, plsql, rawcgi, wdb
from repro.http.async_server import AsyncHttpServer
from repro.http.inprocess import InProcessTransport
from repro.http.message import HttpRequest
from repro.http.router import Router
from repro.http.urls import Url
from repro.obs.metrics import MetricsRegistry
from repro.overload.control import OverloadController

#: program → (mount, path_info, query): the cmp6 golden report requests
GOLDEN_REQUESTS = {
    "db2www": ("db2www", "/urlquery.d2w/report",
               "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"),
    "rawcgi": ("rawcgi", "/report",
               "SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"),
    "gsql": ("gsql", "/report", "SEARCH=ib"),
    "wdb": ("wdb", "/report", "title=Ibm"),
    "plsql": ("owa", "/urlquery_report",
              "SEARCH=ib&USE_URL=yes&USE_TITLE=yes"),
}


def build_arena_router():
    app = urlquery_app.install(rows=150)
    site = build_site(app.engine, app.library)
    site.gateway.install("rawcgi", rawcgi.RawCgiUrlQuery(app.registry))
    site.gateway.install("gsql", gsql.install_urlquery(app.registry))
    site.gateway.install("wdb", wdb.install_urlquery(app.registry))
    site.gateway.install("owa", plsql.install_urlquery(app.registry))
    return site.router


def fetch_body(host, port, target) -> tuple[int, bytes]:
    """One strict HTTP/1.0 exchange, body delimited by close."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(f"GET {target} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, body


@pytest.fixture(scope="module")
def edge():
    """One router, reachable over a socket and in-process at once."""
    with AsyncHttpServer(build_arena_router()) as server:
        yield server


@pytest.mark.parametrize("name", sorted(GOLDEN_REQUESTS))
def test_edges_serve_identical_bytes(edge, name):
    program, path_info, query = GOLDEN_REQUESTS[name]
    target = f"/cgi-bin/{program}{path_info}?{query}"
    status, body = fetch_body(edge.host, edge.port, target)
    reference = InProcessTransport(edge.router).fetch(
        Url.parse(edge.base_url + target), HttpRequest(target=target))
    assert status == reference.status == 200
    assert body == reference.body
    assert body  # a pair of empty bodies proves nothing


# -- overload shedding vs pipelined framing ---------------------------------


def build_shedding_router() -> Router:
    """A router whose admission controller always sheds CGI traffic.

    The deferrable admit rate is pinned at zero (and the tick frozen so
    AIMD recovery cannot raise it mid-test): every ``/cgi-bin/`` request
    is UNCLASSIFIED and rate-shed at admission, while static pages are
    CACHED and always admitted — the deterministic mid-burst 503.
    """
    controller = OverloadController(
        max_concurrent=8, queue_limit=8, tick_interval=3600.0,
        metrics=MetricsRegistry())
    controller._rates["deferrable"] = 0.0
    router = Router(overload=controller, metrics=controller.metrics)
    router.add_page("/a", "<P>page a before the shed</P>")
    router.add_page("/b", "<P>page b after the shed</P>")
    return router


def read_one_response(stream) -> tuple[int, dict, bytes]:
    """Parse one Content-Length-framed response off a socket file."""
    status_line = stream.readline()
    assert status_line, "peer closed before a full response"
    status = int(status_line.split(None, 2)[1])
    headers: dict[str, str] = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = stream.read(length)
    assert len(body) == length, "body truncated mid-frame"
    return status, headers, body


def test_mid_burst_503_does_not_corrupt_pipelined_framing():
    """503 to request N of a pipelined keep-alive burst must leave
    requests N-1 and N+1 perfectly framed on the same connection."""
    router = build_shedding_router()
    shed_target = "/cgi-bin/db2www/urlquery.d2w/report?SEARCH="
    burst = (
        "GET /a HTTP/1.1\r\n\r\n"
        f"GET {shed_target} HTTP/1.1\r\n\r\n"
        "GET /b HTTP/1.1\r\nConnection: close\r\n\r\n"
    ).encode()
    with AsyncHttpServer(router) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall(burst)
            stream = sock.makefile("rb")
            first = read_one_response(stream)
            shed = read_one_response(stream)
            third = read_one_response(stream)
            assert stream.read() == b""  # connection closed cleanly
    assert first[0] == 200
    assert b"page a before the shed" in first[2]
    assert shed[0] == 503
    assert int(shed[1]["retry-after"]) >= 1  # shared header semantics
    assert third[0] == 200
    assert b"page b after the shed" in third[2]
