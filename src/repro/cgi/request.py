"""The CGI request and response objects.

A :class:`CgiRequest` is what a CGI program receives (environment plus
standard-input body); a :class:`CgiResponse` is the parsed form of what it
writes to standard output — header lines, a blank line, then the page.
Both shapes are shared by the in-process dispatcher and the subprocess
runner so the two execution modes are interchangeable in tests and
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cgi.environ import CgiEnvironment
from repro.cgi.query_string import decode_pairs
from repro.errors import CgiProtocolError

FORM_CONTENT_TYPE = "application/x-www-form-urlencoded"


@dataclass
class CgiRequest:
    """One request as seen by a CGI program."""

    environ: CgiEnvironment
    stdin: bytes = b""
    #: Optional per-request deadline budget
    #: (:class:`repro.resilience.deadline.Deadline`).  Process-local
    #: and deliberately *not* serialised: the app-server dispatcher
    #: uses it to cap its own waits (worker checkout, the worker's
    #: answer); a worker process re-derives its budget from engine
    #: configuration.
    deadline: Optional[object] = None

    def input_pairs(self) -> list[tuple[str, str]]:
        """The HTML input variables of Section 2.2, in arrival order.

        GET requests carry them in ``QUERY_STRING``; POST requests carry
        them on standard input (the two invocation arrows of Figure 4).
        A POST may *also* have a query string (Appendix A posts to
        ``...?name=val`` URLs); both sources contribute, query string
        first, matching httpd behaviour.
        """
        pairs = decode_pairs(self.environ.query_string)
        if self.environ.request_method.upper() == "POST":
            content_type = self.environ.content_type.split(";")[0].strip()
            if content_type in ("", FORM_CONTENT_TYPE):
                pairs += decode_pairs(self.stdin.decode("utf-8", "replace"))
        return pairs

    def path_components(self) -> list[str]:
        """Non-empty components of ``PATH_INFO``."""
        return [part for part in self.environ.path_info.split("/") if part]

    @property
    def trace_id(self) -> str:
        """The caller's trace id (empty when the request is untraced)."""
        return self.environ.trace_id


class CgiResponse:
    """Parsed CGI program output.

    The page is :attr:`parts`, byte strings in order: a buffered DB2WWW
    page passes its row memos on by reference instead of copying them
    into one string (see :class:`repro.core.engine.MacroResult`).
    :attr:`body` is their join, for the readers that need one piece.
    """

    __slots__ = ("status", "reason", "headers", "parts", "body_iter",
                 "trace")

    def __init__(self, status: int = 200, reason: str = "OK",
                 headers: Optional[list[tuple[str, str]]] = None,
                 body: bytes = b"",
                 body_iter: Optional[Iterator[bytes]] = None,
                 trace: Optional[list] = None, *,
                 parts: Optional[list[bytes]] = None):
        self.status = status
        self.reason = reason
        self.headers = headers if headers is not None else []
        self.parts = parts if parts is not None else [body] if body else []
        #: Streaming body: when set, the page arrives as byte chunks
        #: after :attr:`parts`.  Transports that cannot stream call
        #: :meth:`drain` to fall back to a buffered body.
        self.body_iter = body_iter
        #: Span rows of the process that produced this response
        #: (:meth:`repro.obs.trace.Span.export`).  App-server workers
        #: fill it so the dispatcher can graft their spans into the live
        #: request trace; ``None`` everywhere else.
        self.trace = trace

    @property
    def body(self) -> bytes:
        return b"".join(self.parts)

    @body.setter
    def body(self, value: bytes) -> None:
        self.parts = [value] if value else []

    @property
    def streaming(self) -> bool:
        return self.body_iter is not None

    def drain(self) -> None:
        """Materialise a streaming body into the parts (no-op otherwise)."""
        if self.body_iter is not None:
            chunks, self.body_iter = self.body_iter, None
            self.parts = self.parts + [b"".join(chunks)]

    def header(self, name: str, default: str = "") -> str:
        folded = name.lower()
        for key, value in self.headers:
            if key.lower() == folded:
                return value
        return default

    @property
    def content_type(self) -> str:
        return self.header("Content-Type", "text/html")

    @property
    def text(self) -> str:
        charset = "utf-8"
        for param in self.content_type.split(";")[1:]:
            key, _, value = param.strip().partition("=")
            if key.lower() == "charset" and value:
                charset = value.strip('"')
        return self.body.decode(charset, "replace")

    # -- serialisation (the CGI stdout format) ---------------------------

    def serialize(self) -> bytes:
        lines = []
        if self.status != 200:
            lines.append(f"Status: {self.status} {self.reason}")
        has_content_type = any(
            key.lower() == "content-type" for key, _ in self.headers)
        if not has_content_type:
            lines.append("Content-Type: text/html")
        for key, value in self.headers:
            lines.append(f"{key}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body

    @classmethod
    def parse(cls, output: bytes) -> "CgiResponse":
        """Parse raw CGI stdout into a response.

        The CGI/1.1 contract: header lines terminated by a blank line,
        then the body.  A ``Status:`` pseudo-header sets the HTTP status;
        a ``Location:`` header implies a 302.  Both LF and CRLF header
        termination are accepted (real 1996 CGI scripts emitted either).
        """
        for separator in (b"\r\n\r\n", b"\n\n"):
            index = output.find(separator)
            if index >= 0:
                head = output[:index]
                body = output[index + len(separator):]
                break
        else:
            raise CgiProtocolError(
                "CGI output contains no header/body separator")
        response = cls(body=body)
        for raw_line in head.replace(b"\r\n", b"\n").split(b"\n"):
            line = raw_line.decode("latin-1")
            if not line.strip():
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise CgiProtocolError(
                    f"malformed CGI header line: {line!r}")
            name = name.strip()
            value = value.strip()
            if name.lower() == "status":
                code, _, reason = value.partition(" ")
                try:
                    response.status = int(code)
                except ValueError as exc:
                    raise CgiProtocolError(
                        f"bad Status header: {value!r}") from exc
                response.reason = reason or "Status"
            else:
                response.headers.append((name, value))
        if response.status == 200 and response.header("Location"):
            response.status = 302
            response.reason = "Found"
        return response
