"""Access-log byte accounting for streamed (spilled) responses.

Regression: ``AccessLog.record`` used ``len(response.body)`` — zero (or
just the buffered prefix) while ``body_iter`` carried the page — so
streamed reports were logged with the wrong transfer size.  The router
now wraps the stream, counts emitted chunks, and records the entry with
the true total when the stream closes.
"""

import socket

import pytest

from repro.apps import urlquery as urlquery_app
from repro.apps.site import build_site
from repro.http.accesslog import AccessLog
from repro.http.message import HttpRequest

QUERY = "SEARCH=ib&USE_URL=yes&DBFIELDS=title"


@pytest.fixture()
def streaming_site(spill):
    """A site whose reports all spill."""
    spill()
    app = urlquery_app.install(rows=25)
    site = build_site(app.engine, app.library)
    site.router.access_log = AccessLog()
    return app, site


class TestStreamedByteAccounting:
    def test_in_process_streamed_size_matches_the_body(
            self, streaming_site):
        app, site = streaming_site
        response = site.router.handle(
            HttpRequest(target=f"{app.report_path}?{QUERY}"))
        assert response.body_iter is not None  # actually streamed
        response.drain()
        (entry,) = site.router.access_log.entries()
        assert entry.status == 200
        assert entry.size == len(response.body)
        assert entry.size > 0

    def test_socket_streamed_size_matches_bytes_on_the_wire(
            self, streaming_site):
        app, site = streaming_site
        server = site.serve()
        try:
            with socket.create_connection(
                    (server.host, server.port), timeout=5) as conn:
                conn.sendall(
                    f"GET {app.report_path}?{QUERY} HTTP/1.0\r\n"
                    f"Connection: close\r\n\r\n".encode())
                data = b""
                while True:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
        finally:
            server.shutdown()
        _, _, body = data.partition(b"\r\n\r\n")
        assert b"URL Query Result" in body
        (entry,) = site.router.access_log.entries()
        assert entry.size == len(body)

    def test_entry_is_recorded_even_if_the_client_stops_early(
            self, streaming_site):
        app, site = streaming_site
        response = site.router.handle(
            HttpRequest(target=f"{app.report_path}?{QUERY}"))
        first = next(response.body_iter)
        response.body_iter.close()  # client hung up mid-stream
        (entry,) = site.router.access_log.entries()
        assert entry.size == len(first) + len(response.body)

    def test_buffered_responses_keep_the_old_accounting(self):
        app = urlquery_app.install(rows=5)
        site = build_site(app.engine, app.library)
        site.router.access_log = AccessLog()
        response = site.router.handle(HttpRequest(target=app.input_path))
        assert response.body_iter is None
        (entry,) = site.router.access_log.entries()
        assert entry.size == len(response.body)
