"""HTTP/1.0 request and response messages, with wire codecs.

The Web of the paper speaks "the ubiquitous HTTP communication protocol"
(Section 1) in its 1.0 form: one request per connection, the connection
close delimiting the response body.  The codecs here implement exactly
that, shared by the socket server, the socket client, and — structurally —
the in-process transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import BadRequestError, TransferEncodingError
from repro.http.headers import Headers
from repro.http.status import reason_for

SUPPORTED_METHODS = frozenset({"GET", "POST", "HEAD"})
HTTP_VERSION = "HTTP/1.0"


@dataclass
class HttpRequest:
    """One HTTP request."""

    method: str = "GET"
    target: str = "/"          # path[?query], as on the request line
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = HTTP_VERSION

    @property
    def path(self) -> str:
        return self.target.partition("?")[0]

    @property
    def query(self) -> str:
        return self.target.partition("?")[2]

    def serialize(self) -> bytes:
        headers = Headers(self.headers.items())
        if self.body and "Content-Length" not in headers:
            headers.set("Content-Length", str(len(self.body)))
        head = (f"{self.method} {self.target} {self.version}\r\n"
                + headers.serialize() + "\r\n")
        return head.encode("latin-1") + self.body

    @classmethod
    def parse(cls, raw: bytes) -> "HttpRequest":
        """Parse a full request message (head and body already read)."""
        head, _, body = raw.partition(b"\r\n\r\n")
        if not _:
            head, _, body = raw.partition(b"\n\n")
        lines = head.decode("latin-1", "replace").splitlines()
        if not lines:
            raise BadRequestError("empty request")
        parts = lines[0].split()
        if len(parts) == 2:  # HTTP/0.9 simple request
            method, target = parts
            version = "HTTP/0.9"
        elif len(parts) == 3:
            method, target, version = parts
        else:
            raise BadRequestError(f"malformed request line: {lines[0]!r}")
        return cls(method=method.upper(), target=target,
                   headers=Headers.parse_lines(lines[1:]), body=body,
                   version=version)


class HttpResponse:
    """One HTTP response.

    The body is :attr:`parts`, byte strings sent in order (a cached
    report's rows are one of them, shared, never copied into a page
    string); :attr:`body` is their join, for the readers that need one
    piece.
    """

    __slots__ = ("status", "headers", "parts", "version", "body_iter",
                 "head")

    def __init__(self, status: int = 200,
                 headers: Optional[Headers] = None, body: bytes = b"",
                 version: str = HTTP_VERSION,
                 body_iter: Optional[Iterator[bytes]] = None, *,
                 parts: Optional[list[bytes]] = None):
        self.status = status
        self.headers = headers if headers is not None else Headers()
        self.parts = parts if parts is not None else [body] if body else []
        self.version = version
        #: Streaming body: when set, the body arrives as byte chunks
        #: after :attr:`parts` and the response is emitted HTTP/1.0
        #: style — no ``Content-Length``, the connection close
        #: delimiting the body (``Connection: close``).
        self.body_iter = body_iter
        #: The answer to a HEAD: the headers its GET gets (its
        #: ``Content-Length``, or none when the GET streams) and no
        #: body (see :meth:`repro.http.router.Router.handle`).
        self.head = False

    @property
    def body(self) -> bytes:
        return b"".join(self.parts)

    @body.setter
    def body(self, value: bytes) -> None:
        self.parts = [value] if value else []

    @property
    def size(self) -> int:
        """The buffered body's length in bytes (without joining it)."""
        return sum(map(len, self.parts))

    @property
    def reason(self) -> str:
        return reason_for(self.status)

    @property
    def streaming(self) -> bool:
        return self.body_iter is not None

    def drain(self) -> None:
        """Materialise a streaming body into the parts (no-op otherwise)."""
        if self.body_iter is not None:
            chunks, self.body_iter = self.body_iter, None
            self.parts = [*self.parts, b"".join(chunks)]

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "text/html")

    @property
    def text(self) -> str:
        charset = "utf-8"
        for param in self.content_type.split(";")[1:]:
            key, _, value = param.strip().partition("=")
            if key.lower() == "charset" and value:
                charset = value.strip('"')
        return self.body.decode(charset, "replace")

    def wire_parts(self, connection: Optional[str] = None) -> list[bytes]:
        """The whole message as byte parts: the status line and headers
        (with ``Content-Length``, and ``connection`` as the
        ``Connection`` header when given), then the body's parts as they
        are.  The head is built in one pass over the headers."""
        self.drain()
        head = [f"{self.version} {self.status} {self.reason}\r\n"]
        typed = False
        headers = self.headers
        for (name, value), folded in zip(headers, headers.folded):
            if (folded == "content-length" and not self.head
                    or folded == "connection" and connection is not None):
                continue
            typed = typed or folded == "content-type"
            head.append(f"{name}: {value}\r\n")
        if connection is not None:
            head.append(f"Connection: {connection}\r\n")
        if not self.head:
            head.append(
                f"Content-Length: {sum(map(len, self.parts))}\r\n")
        if not typed:
            head.append("Content-Type: text/html\r\n")
        head.append("\r\n")
        return ["".join(head).encode("latin-1"), *self.parts]

    def serialize(self) -> bytes:
        return b"".join(self.wire_parts())

    def serialize_head(self) -> bytes:
        """The status line and headers for close-delimited streaming.

        No ``Content-Length`` — the body length is unknown until the
        stream is exhausted — so ``Connection: close`` marks the close
        of the connection as the end of the body (plain HTTP/1.0
        framing, Section 1's "ubiquitous" protocol).
        """
        headers = Headers(self.headers.items())
        headers.set("Connection", "close")
        headers.setdefault("Content-Type", "text/html")
        head = (f"{self.version} {self.status} {self.reason}\r\n"
                + headers.serialize() + "\r\n")
        return head.encode("latin-1")

    @classmethod
    def parse(cls, raw: bytes) -> "HttpResponse":
        head, sep, body = raw.partition(b"\r\n\r\n")
        if not sep:
            head, sep, body = raw.partition(b"\n\n")
        lines = head.decode("latin-1", "replace").splitlines()
        if not lines:
            raise BadRequestError("empty response")
        parts = lines[0].split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise BadRequestError(f"malformed status line: {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise BadRequestError(
                f"malformed status code: {parts[1]!r}") from exc
        return cls(status=status, headers=Headers.parse_lines(lines[1:]),
                   body=body, version=parts[0])


def content_length_of(head: bytes) -> int:
    """The body length a request head declares — parsed strictly.

    Request smuggling lives in parser disagreement, so anything two
    implementations could read differently is a hard
    :class:`BadRequestError` (a 400 at the edge) instead of a silent
    guess: a repeated ``Content-Length`` header, a comma-joined value
    list (even when the copies agree), or a value that is not a plain
    non-negative decimal integer.  Absent means ``0``.  A
    ``Transfer-Encoding`` header declares no length at all and raises
    :class:`TransferEncodingError` (501): treating such a request as
    bodiless would run it with an empty body and parse its chunk
    stream as the next pipelined request.
    """
    values = []
    for line in head.split(b"\n")[1:]:  # [0] is the request line
        name, sep, value = line.decode("latin-1", "replace").partition(":")
        if not sep:
            continue
        name = name.strip().lower()
        if name == "content-length":
            values.append(value.strip())
        elif name == "transfer-encoding":
            raise TransferEncodingError(
                "Transfer-Encoding request bodies are not supported; "
                "send Content-Length")
    if not values:
        return 0
    if len(values) > 1:
        raise BadRequestError(
            f"request carries {len(values)} Content-Length headers")
    value = values[0]
    if "," in value:
        raise BadRequestError(
            f"comma-joined Content-Length values: {value!r}")
    if not (value.isascii() and value.isdigit()):
        raise BadRequestError(f"malformed Content-Length: {value!r}")
    return int(value)


def html_response(html: str, *, status: int = 200,
                  charset: str = "utf-8") -> HttpResponse:
    """Build a text/html response from a page string."""
    headers = Headers()
    headers.set("Content-Type", f"text/html; charset={charset}")
    return HttpResponse(status=status, headers=headers,
                        body=html.encode(charset, "replace"))
