"""Streaming responses over a real socket: close-delimited emission.

A streaming page has no ``Content-Length`` (its length is unknown while
the cursor is live); HTTP/1.0's framing for that case is ``Connection:
close`` and end-of-body == end-of-connection.  The page bytes must be
identical to the buffered rendering of the same macro.
"""

import socket

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.site import build_site
from repro.core.report import _ROW_BLOCK

QUERY = "SEARCH=ib&USE_URL=yes&DBFIELDS=title"


def raw_get(server, target):
    """One strict HTTP/1.0 GET; returns (head, body-to-EOF)."""
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as conn:
        conn.sendall(f"GET {target} HTTP/1.0\r\n"
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
def servers():
    """The same application served buffered and streaming."""
    app = urlquery_app.install(rows=25)
    buffered = build_site(app.engine, app.library).serve()
    streaming = build_site(app.engine, app.library, stream=True).serve()
    yield app, buffered, streaming
    streaming.shutdown()
    buffered.shutdown()


class TestCloseDelimitedStreaming:
    def test_no_content_length_and_connection_close(self, servers):
        app, _, streaming = servers
        head, body = raw_get(streaming, f"{app.report_path}?{QUERY}")
        assert b"200" in head.split(b"\r\n", 1)[0]
        assert b"content-length" not in head.lower()
        assert b"Connection: close" in head
        assert b"Content-Type: text/html" in head

    def test_streamed_body_matches_buffered(self, servers):
        app, buffered, streaming = servers
        target = f"{app.report_path}?{QUERY}"
        _, buffered_body = raw_get(buffered, target)
        _, streamed_body = raw_get(streaming, target)
        assert streamed_body == buffered_body
        assert b"URL Query Result" in streamed_body

    def test_streaming_overrides_keep_alive(self, servers):
        """Even a Keep-Alive request gets a close-delimited response."""
        app, _, streaming = servers
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
        _, _, streaming = servers
        head, body = raw_get(streaming, "/cgi-bin/db2www/nosuch.d2w/input")
        assert b"404" in head.split(b"\r\n", 1)[0]
        assert b"content-length" in head.lower()


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
    def test_rows_cross_the_thread_hop_a_block_at_a_time(self):
        """Each engine chunk costs a cross-thread hand-off, an HTTP
        chunk and a write; rows now arrive at most ``_ROW_BLOCK`` to a
        chunk, so a 200-row page is a dozen chunks, not two hundred."""
        rows = 200
        app = urlquery_app.install(rows=rows)
        server = build_site(app.engine, app.library, stream=True).serve()
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
        assert body.count(b"<LI> <A HREF=") == rows
        sizes = chunk_sizes(body)
        row_blocks = -(-rows // _ROW_BLOCK)
        assert row_blocks < len(sizes) <= row_blocks + 6  # 9 when written
