"""Spilled pages over a real socket: the rest streams after the parts.

A page whose result outgrew the spill budget has no ``Content-Length``
(its length is unknown while the cursor is live); HTTP/1.0's framing for
that case is ``Connection: close`` and end-of-body == end-of-connection.
The page bytes must be identical to the buffered rendering of the same
macro.  The ``spill`` fixture shrinks the budget below the report's rows.
"""

import socket
import threading

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.site import build_site
from repro.core.engine import EngineConfig, MacroEngine
from repro.core.report import _ROW_BLOCK
from repro.sql.cursor import Cursor
from repro.sql.gateway import MacroSqlSession
from repro.sql.querycache import QueryResultCache
from repro.sql.transactions import TransactionScope

QUERY = "SEARCH=ib&USE_URL=yes&DBFIELDS=title"


def raw_get(server, target, method="GET", version="HTTP/1.0"):
    """One strict request; returns (head, body-to-EOF)."""
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as conn:
        conn.sendall(f"{method} {target} {version}\r\n"
                     f"Connection: close\r\n\r\n".encode())
        data = b""
        while True:
            chunk = conn.recv(4096)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head, body


@pytest.fixture(scope="module")
def served():
    """The application behind a socket, with a query cache."""
    cache = QueryResultCache()
    app = urlquery_app.install(rows=25, engine=MacroEngine(
        None, config=EngineConfig(query_cache=cache)))
    server = build_site(app.engine, app.library).serve()
    yield app, server, cache
    server.shutdown()


@pytest.fixture()
def servers(served, spill):
    """``served`` with a spill budget every report outgrows, and an
    empty cache."""
    app, server, cache = served
    cache.clear()
    cache.reset_stats()
    spill()
    return app, server, cache


def listed(body):
    return body.count(b"<LI> <A HREF=")


class TestCloseDelimitedStreaming:
    def test_no_content_length_and_connection_close(self, servers):
        app, streaming, _ = servers
        head, body = raw_get(streaming, f"{app.report_path}?{QUERY}")
        assert b"200" in head.split(b"\r\n", 1)[0]
        assert b"content-length" not in head.lower()
        assert b"Connection: close" in head
        assert b"Content-Type: text/html" in head

    def test_streamed_body_matches_buffered(self, served, spill):
        """A result one row past the budget, served over a socket, is
        the materialised page byte for byte — and was never stored in
        the query cache, nor its page kept."""
        app, server, cache = served
        target = f"{app.report_path}?{QUERY}"
        rows = listed(raw_get(server, target)[1])
        assert rows > 1
        cache.clear()
        cache.reset_stats()
        spill(rows - 1)
        spilled = [raw_get(server, target) for _ in range(3)]
        assert all(b"content-length" not in head.lower()
                   for head, _ in spilled)
        stats = cache.stats()
        assert stats["stores"] == stats["entries"] == 0
        assert stats["pages"] == stats["page_hits"] == 0
        spill(rows)  # at the budget: materialised, stored, then kept
        buffered = [raw_get(server, target) for _ in range(3)]
        assert all(b"content-length" in head.lower()
                   for head, _ in buffered)
        assert cache.stats()["stores"] == 1
        assert cache.stats()["page_hits"] == 1
        assert {body for _, body in spilled + buffered} == {
            buffered[0][1]}
        assert listed(buffered[0][1]) == rows
        assert b"URL Query Result" in buffered[0][1]

    def test_streaming_overrides_keep_alive(self, servers):
        """Even a Keep-Alive request gets a close-delimited response."""
        app, streaming, _ = servers
        with socket.create_connection(
                (streaming.host, streaming.port), timeout=5) as conn:
            conn.sendall(f"GET {app.report_path}?{QUERY} HTTP/1.0\r\n"
                         f"Connection: Keep-Alive\r\n\r\n".encode())
            data = b""
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
            # server hung up after the body: a second recv sees EOF
            assert conn.recv(1) == b""
        assert b"Connection: close" in data

    def test_error_pages_still_framed_normally(self, servers):
        """Non-stream responses (404s) keep Content-Length framing."""
        _, streaming, _ = servers
        head, body = raw_get(streaming, "/cgi-bin/db2www/nosuch.d2w/input")
        assert b"404" in head.split(b"\r\n", 1)[0]
        assert b"content-length" in head.lower()

    def test_head_settles_the_cursor(self, servers, monkeypatch,
                                     no_ambient_faults):
        """A HEAD answer carries no body: the spilled cursor, its read
        bracket and the session all settle before the answer goes — on
        the edge's loop, where the spill stops the attempt, and once
        more in its replay on a thread."""
        app, server, _ = servers
        events = []
        for owner, name in [(Cursor, "close"),
                            (TransactionScope, "after_statement"),
                            (MacroSqlSession, "finish")]:
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                events.append((threading.current_thread().name, _name))
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        head, body = raw_get(server, f"{app.report_path}?{QUERY}",
                             method="HEAD")
        assert b"200" in head.split(b"\r\n", 1)[0] and body == b""
        settled = ["close", "after_statement", "finish"]
        assert events == [(thread, name) for thread in (
            "repro-async-httpd", events[-1][0]) for name in settled]
        assert events[-1][0].startswith("repro-edge")


def header_fields(head):
    """The status line and the headers, without the per-request id."""
    status, *lines = head.decode("latin-1").split("\r\n")
    return status, sorted(line for line in lines
                          if not line.lower().startswith("x-trace-id:"))


class TestHeadCarriesItsGetsHeaders:
    @pytest.mark.parametrize("version", ["HTTP/1.0", "HTTP/1.1"])
    @pytest.mark.parametrize("spilled", [True, False],
                             ids=["spilled", "buffered"])
    def test_head_and_get_send_the_same_head(self, served, spill,
                                             version, spilled):
        """A spilled page's GET has no ``Content-Length`` (chunked to
        HTTP/1.1, close-delimited to HTTP/1.0), a buffered page's has
        its length: the HEAD of the same URL says the same, and sends
        no body."""
        app, server, cache = served
        cache.clear()
        if spilled:
            spill()
        target = f"{app.report_path}?{QUERY}"
        get_head, get_body = raw_get(server, target, version=version)
        head_head, head_body = raw_get(server, target, method="HEAD",
                                       version=version)
        assert head_body == b""
        assert get_body
        assert header_fields(head_head) == header_fields(get_head)
        framing = dict(line.split(": ", 1) for line in
                       header_fields(get_head)[1])
        if spilled:
            assert "Content-Length" not in framing
            assert ("Transfer-Encoding" in framing) == \
                (version == "HTTP/1.1")
        else:
            assert framing["Content-Length"] == str(len(get_body))


def chunk_sizes(body):
    """The chunk lengths of a chunked-transfer body (terminal 0 last)."""
    sizes, pos = [], 0
    while True:
        end = body.index(b"\r\n", pos)
        size = int(body[pos:end], 16)
        sizes.append(size)
        if size == 0:
            return sizes
        pos = end + 2 + size + 2


class TestRowBlocksOnTheWire:
    def test_rows_cross_the_thread_hop_a_block_at_a_time(self, spill):
        """Each engine chunk costs a cross-thread hand-off, an HTTP
        chunk and a write; rows arrive at most ``_ROW_BLOCK`` to a
        chunk, so a 200-row spilled page is a dozen chunks, not two
        hundred."""
        rows = 200
        app = urlquery_app.install(rows=rows)
        spill()
        server = build_site(app.engine, app.library).serve()
        try:
            target = f"{app.report_path}?DBFIELDS=title"
            with socket.create_connection((server.host, server.port),
                                          timeout=5) as conn:
                conn.sendall(f"GET {target} HTTP/1.1\r\nHost: t\r\n"
                             f"Connection: close\r\n\r\n".encode())
                data = b""
                while chunk := conn.recv(65536):
                    data += chunk
        finally:
            server.shutdown()
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert listed(body) == rows
        sizes = chunk_sizes(body)
        row_blocks = -(-rows // _ROW_BLOCK)
        assert row_blocks < len(sizes) <= row_blocks + 6  # 9 when written
