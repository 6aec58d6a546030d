"""A keep-alive HTTP client: one TCP connection, many requests.

The plain :class:`repro.http.client.HttpClient` is the strict HTTP/1.0
one-connection-per-request client.  This one sends ``Connection:
Keep-Alive`` and reuses the socket while the server agrees — reading
responses by ``Content-Length`` instead of connection close — which is
how Netscape 1.x cut page-load latency and what the EXT-KEEPALIVE bench
measures.

With ``http11=True`` requests go out as HTTP/1.1 (persistent by
default) and ``Transfer-Encoding: chunked`` responses are decoded —
the framing the edge uses for streamed reports, which is what
lets a streaming response *not* cost the connection.
"""

from __future__ import annotations

import socket

from repro.errors import HttpError
from repro.http.inprocess import Transport
from repro.http.message import HttpRequest, HttpResponse
from repro.http.urls import Url

_RECV_CHUNK = 8192
_MAX_HEAD = 64 * 1024


class PersistentHttpClient(Transport):
    """Fetches URLs over reusable TCP connections (one per netloc)."""

    def __init__(self, *, timeout: float = 10.0, http11: bool = False):
        self.timeout = timeout
        #: speak HTTP/1.1 — persistent connections by default, chunked
        #: response bodies decoded.
        self.http11 = http11
        self._sockets: dict[str, socket.socket] = {}
        self._buffers: dict[str, bytes] = {}

    # -- transport interface ------------------------------------------------

    #: methods whose requests are safe to replay (RFC 1945 idempotence)
    _REPLAYABLE = frozenset({"GET", "HEAD"})

    def fetch(self, url: Url, request: HttpRequest) -> HttpResponse:
        request.headers.setdefault("Host", url.netloc)
        if self.http11:
            request.version = "HTTP/1.1"
        else:
            request.headers.set("Connection", "Keep-Alive")
        key = f"{url.host}:{url.port}"
        sent = [False]
        try:
            return self._fetch_on(key, url, request, sent)
        except (HttpError, OSError):
            # The server may have closed an idle connection between
            # requests; retry once on a fresh socket — but only when the
            # replay cannot repeat a side effect: an idempotent method,
            # or a request none of whose bytes ever left this client.  A
            # POST that failed after (partial) send may already have
            # reached the server; replaying it could double a write.
            self._drop(key)
            if request.method.upper() not in self._REPLAYABLE and sent[0]:
                raise
            return self._fetch_on(key, url, request, [False])

    def close(self) -> None:
        for key in list(self._sockets):
            self._drop(key)

    def __enter__(self) -> "PersistentHttpClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _fetch_on(self, key: str, url: Url, request: HttpRequest,
                  sent: list[bool]) -> HttpResponse:
        conn = self._sockets.get(key)
        if conn is None:
            conn = socket.create_connection((url.host, url.port),
                                            timeout=self.timeout)
            self._sockets[key] = conn
            self._buffers[key] = b""
        payload = request.serialize()
        sent[0] = True  # from here on, bytes may have hit the wire
        conn.sendall(payload)
        response, remaining = self._read_response(
            conn, self._buffers.get(key, b""),
            bodiless=request.method == "HEAD")
        self._buffers[key] = remaining
        if "keep-alive" not in \
                response.headers.get("Connection", "").lower():
            self._drop(key)
        return response

    def _read_response(self, conn: socket.socket, buffer: bytes, *,
                       bodiless: bool = False
                       ) -> tuple[HttpResponse, bytes]:
        """One response off ``conn``, and the bytes read past it.  The
        answer to a HEAD (``bodiless``) is its head alone, whatever
        length or framing its headers name."""
        data = buffer
        separator = b"\r\n\r\n"
        while separator not in data and b"\n\n" not in data:
            if len(data) > _MAX_HEAD:
                raise HttpError("response head exceeds limit")
            chunk = conn.recv(_RECV_CHUNK)
            if not chunk:
                raise HttpError("connection closed mid-response")
            data += chunk
        if separator not in data:
            separator = b"\n\n"
        head, _, rest = data.partition(separator)
        if bodiless:
            return HttpResponse.parse(head + separator), rest
        if _is_chunked(head):
            body, remaining = _decode_chunked(conn, rest)
            return HttpResponse.parse(head + separator + body), remaining
        length = _content_length(head)
        if length is None:
            # No Content-Length: fall back to read-until-close (and the
            # connection is then unusable for keep-alive).
            while True:
                chunk = conn.recv(_RECV_CHUNK)
                if not chunk:
                    break
                rest += chunk
            return HttpResponse.parse(head + separator + rest), b""
        while len(rest) < length:
            chunk = conn.recv(_RECV_CHUNK)
            if not chunk:
                break
            rest += chunk
        body, remaining = rest[:length], rest[length:]
        return HttpResponse.parse(head + separator + body), remaining

    def _drop(self, key: str) -> None:
        conn = self._sockets.pop(key, None)
        self._buffers.pop(key, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass


def _is_chunked(head: bytes) -> bool:
    for line in head.split(b"\n"):
        name, sep, value = line.decode("latin-1", "replace").partition(":")
        if sep and name.strip().lower() == "transfer-encoding":
            return "chunked" in value.lower()
    return False


def _decode_chunked(conn: socket.socket,
                    data: bytes) -> tuple[bytes, bytes]:
    """Decode a chunked body; returns ``(body, bytes_past_the_body)``.

    The surplus bytes belong to the next pipelined response, exactly
    like the Content-Length path's ``remaining``.
    """
    body = b""
    while True:
        while b"\r\n" not in data:
            chunk = conn.recv(_RECV_CHUNK)
            if not chunk:
                raise HttpError("connection closed mid-chunk-size")
            data += chunk
        line, _, data = data.partition(b"\r\n")
        try:
            size = int(line.split(b";")[0].strip() or b"0", 16)
        except ValueError as exc:
            raise HttpError(f"malformed chunk size {line!r}") from exc
        if size == 0:
            # No trailers are ever sent here; consume the final CRLF.
            while len(data) < 2:
                chunk = conn.recv(_RECV_CHUNK)
                if not chunk:
                    break  # server closed right after the 0-chunk
                data += chunk
            if data.startswith(b"\r\n"):
                data = data[2:]
            return body, data
        while len(data) < size + 2:
            chunk = conn.recv(_RECV_CHUNK)
            if not chunk:
                raise HttpError("connection closed mid-chunk")
            data += chunk
        body += data[:size]
        data = data[size + 2:]  # chunk payload, then its CRLF


def _content_length(head: bytes) -> int | None:
    for line in head.split(b"\n"):
        name, sep, value = line.decode("latin-1", "replace").partition(":")
        if sep and name.strip().lower() == "content-length":
            try:
                return max(0, int(value.strip()))
            except ValueError:
                return None
    return None
