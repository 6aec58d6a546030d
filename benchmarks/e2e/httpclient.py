"""A raw-socket HTTP/1.1 keep-alive client (stdlib only).

The instrument must not change when ``src/`` does, so this is not
``repro.http.client``: it is the smallest client that can read what
``repro serve`` writes — ``Content-Length`` bodies, chunked streams and
close-delimited pages — over one persistent connection, reconnecting
(and counting it) when the server announces ``Connection: close``, which
``serve`` does every 1000 requests.
"""

from __future__ import annotations

import socket
from typing import Callable, Optional


class HttpError(Exception):
    """The peer broke HTTP framing or went away mid-response."""


class HttpConnection:
    """One persistent connection; ``request`` is synchronous."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0,
                 connect: Optional[Callable[[], socket.socket]] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connect = connect or self._tcp_connect
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        #: times the server closed the connection and we dialled again
        self.reconnects = 0

    def _tcp_connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buffer = b""

    def __enter__(self) -> "HttpConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request -----------------------------------------------------------

    def request(self, method: str, target: str, body: bytes = b"",
                content_type: str = "") -> tuple[int, bytes]:
        """Send one request; returns ``(status, body)``.

        Raises :class:`HttpError` (after dropping the connection) when
        the response cannot be read; the caller counts that request as
        abandoned.
        """
        if self._sock is None:
            self._sock = self._connect()
        try:
            self._sock.sendall(encode_request(
                method, target, f"{self.host}:{self.port}", body,
                content_type))
            status, headers = self._read_head()
            payload, keep = self._read_body(headers)
        except (OSError, HttpError) as exc:
            self.close()
            raise HttpError(f"{method} {target}: {exc}") from exc
        if not keep:
            self.close()
            self.reconnects += 1
        return status, payload

    # -- reading -----------------------------------------------------------

    def _fill(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise HttpError("connection closed mid-response")
        self._buffer += chunk

    def _read_head(self) -> tuple[int, dict[str, str]]:
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpError(f"malformed status line {lines[0]!r}")
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        headers[":version"] = parts[0]
        try:
            return int(parts[1]), headers
        except ValueError as exc:
            raise HttpError(f"malformed status {parts[1]!r}") from exc

    def _take(self, count: int) -> bytes:
        while len(self._buffer) < count:
            self._fill()
        data, self._buffer = self._buffer[:count], self._buffer[count:]
        return data

    def _take_line(self) -> bytes:
        while b"\r\n" not in self._buffer:
            self._fill()
        line, _, self._buffer = self._buffer.partition(b"\r\n")
        return line

    def _read_body(self, headers: dict[str, str]) -> tuple[bytes, bool]:
        """The body and whether the connection survives it."""
        connection = headers.get("connection", "").lower()
        if headers[":version"] == "HTTP/1.1":
            keep = "close" not in connection
        else:
            keep = "keep-alive" in connection
        if "chunked" in headers.get("transfer-encoding", "").lower():
            return self._read_chunked(), keep
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError as exc:
                raise HttpError("malformed Content-Length") from exc
            return self._take(length), keep
        # Neither length nor chunking: the close delimits the body.
        parts = [self._buffer]
        self._buffer = b""
        while True:
            chunk = self._sock.recv(262144)
            if not chunk:
                return b"".join(parts), False
            parts.append(chunk)

    def _read_chunked(self) -> bytes:
        parts = []
        while True:
            size_line = self._take_line().split(b";")[0].strip()
            try:
                size = int(size_line, 16)
            except ValueError as exc:
                raise HttpError(f"bad chunk size {size_line!r}") from exc
            if size == 0:
                # Trailer section: header lines up to the blank one.
                while self._take_line():
                    pass
                return b"".join(parts)
            parts.append(self._take(size))
            if self._take(2) != b"\r\n":
                raise HttpError("chunk not terminated by CRLF")


def encode_request(method: str, target: str, host: str, body: bytes = b"",
                   content_type: str = "") -> bytes:
    """The request bytes the benchmark sends, over TCP and in-process."""
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}"]
    if body or method == "POST":
        lines.append(f"Content-Type: {content_type}")
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
