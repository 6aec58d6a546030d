"""The CGI dispatcher and the DB2WWW CGI program.

This is the box labelled *DB2WWW* in Figures 4–6: a program the web server
invokes through CGI, receiving ``{macro-file}`` and ``{cmd}`` in
``PATH_INFO`` and the HTML input variables through ``QUERY_STRING`` or
standard input, and emitting a dynamically generated HTML page.
"""

from __future__ import annotations

import codecs
import traceback
from time import perf_counter
from typing import Callable, Iterator, Optional, Protocol

from repro.cgi.request import CgiRequest, CgiResponse
from repro.core.engine import MacroCommand, MacroEngine, MacroResult
from repro.core.report import RowRenderer
from repro.core.macrofile import MacroLibrary, MacroNameError
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    MacroError,
    MacroExecutionError,
    PoolExhaustedError,
    ReadOnlySqlError,
    ReproError,
    SQLError,
    UnknownCgiProgramError,
)
from repro.html.entities import escape_html
from repro.obs.trace import END, TRACER
from repro.overload.retryafter import retry_after_header


class CgiProgram(Protocol):
    """Anything the gateway can run as a CGI application."""

    def run(self, request: CgiRequest) -> CgiResponse:  # pragma: no cover
        ...


class CgiGateway:
    """The web server's table of installed CGI programs.

    Section 2.3: "any other executable program can be invoked in place of
    DB2WWW" — the gateway is name-indexed and program-agnostic, which is
    also how the baseline gateways of Section 6 get mounted for the
    comparison benchmarks.
    """

    def __init__(self) -> None:
        self._programs: dict[str, CgiProgram] = {}

    def install(self, name: str, program: CgiProgram) -> None:
        self._programs[name] = program

    def __contains__(self, name: str) -> bool:
        return name in self._programs

    def names(self) -> list[str]:
        return sorted(self._programs)

    def program(self, name: str) -> Optional[CgiProgram]:
        return self._programs.get(name)

    def dispatch(self, name: str, request: CgiRequest) -> CgiResponse:
        """Run the named program; errors become 5xx pages, not crashes.

        A misbehaving CGI program must not take the server down — httpd
        turned exceptions (process failures) into "500 Internal Server
        Error" pages, and so do we, embedding the error class for the
        application developer.
        """
        program = self._programs.get(name)
        if program is None:
            raise UnknownCgiProgramError(f"no CGI program named {name!r}")
        try:
            return program.run(request)
        except ReadOnlySqlError as exc:
            return forbidden_response(exc)
        except (CircuitOpenError, PoolExhaustedError) as exc:
            return unavailable_response(exc)
        except DeadlineExceededError as exc:
            return error_response(504, "Gateway Timeout",
                                  f"{type(exc).__name__}: {exc}")
        except ReproError as exc:
            return error_response(500, "Internal Server Error",
                                  f"{type(exc).__name__}: {exc}")
        except Exception:  # noqa: BLE001 - server survival trumps purity
            return error_response(500, "Internal Server Error",
                                  traceback.format_exc())


def error_response(status: int, reason: str, detail: str, *,
                   extra_headers: list[tuple[str, str]] | None = None
                   ) -> CgiResponse:
    body = (
        f"<HTML><HEAD><TITLE>{status} {escape_html(reason)}</TITLE></HEAD>\n"
        f"<BODY><H1>{status} {escape_html(reason)}</H1>\n"
        f"<PRE>{escape_html(detail)}</PRE></BODY></HTML>\n"
    ).encode("utf-8")
    headers = [("Content-Type", "text/html")] + list(extra_headers or [])
    return CgiResponse(status=status, reason=reason,
                       headers=headers, body=body)


def forbidden_response(error: ReadOnlySqlError) -> CgiResponse:
    """403 for a write against a read-only engine (SQLSTATE 42501).

    Authorization, not availability: no ``Retry-After``, and the body
    carries the SQLSTATE so API clients can distinguish "you may not"
    from "try again".
    """
    return error_response(
        403, "Forbidden",
        f"SQLSTATE {error.sqlstate}: {error}")


def unavailable_response(error: SQLError) -> CgiResponse:
    """503 + ``Retry-After`` for breaker-open / pool-exhausted failures.

    These mean "the backend cannot take this request right now, try
    again shortly" — the 1996 equivalent was the browser's reload
    button; the header tells period and modern clients alike when.
    """
    return error_response(
        503, "Service Unavailable",
        f"{type(error).__name__}: {error}",
        extra_headers=[("Retry-After", retry_after_header(
            getattr(error, "retry_after", None)))])


class Db2WwwProgram:
    """The DB2 WWW Connection executable (Section 4).

    URL contract (the paper's invocation syntax)::

        /cgi-bin/db2www/{macro-file}/{cmd}[?name=val&...]

    ``{cmd}`` is ``input`` or ``report``.  The program loads the macro
    from its :class:`MacroLibrary`, runs the engine in the requested mode
    with the request's HTML input variables, and writes the generated
    page.  Errors map to period-appropriate pages: unknown macro → 404,
    bad command → 400, macro/SQL failures → 500 with the engine's message.
    """

    #: Whether the edge may try a page on its event loop: a page runs in
    #: this process, and each step of it that would block signals first
    #: (:mod:`repro.blocking`).  A page that spills signals once its
    #: cursor is closed, so a loop attempt never streams.
    loop_safe = True

    def __init__(self, engine: MacroEngine, library: MacroLibrary, *,
                 charset: str = "utf-8",
                 negotiate: Optional[
                     Callable[[CgiRequest], Optional[RowRenderer]]] = None,
                 result_hook: Optional[
                     Callable[[CgiRequest, MacroResult], None]] = None):
        self.engine = engine
        self.library = library
        self.charset = charset
        self._utf8 = codecs.lookup(charset).name == "utf-8"
        #: Content negotiation: called per request, may return a
        #: :class:`~repro.core.report.RowRenderer` to swap the page's
        #: presentation (the tenancy JSON API), or ``None`` for the
        #: default HTML pipeline.
        self.negotiate = negotiate
        #: Called with ``(request, result)`` once a page completes —
        #: buffered pages right after execution, spilled pages when the
        #: body closes (so ``result.rows`` is final).  Used for
        #: per-tenant accounting.
        self.result_hook = result_hook

    def run(self, request: CgiRequest) -> CgiResponse:
        components = request.path_components()
        if len(components) != 2:
            return error_response(
                400, "Bad Request",
                "expected PATH_INFO of the form /{macro-file}/{cmd}")
        macro_name, command_text = components
        try:
            # A leaf row: the parse span (cold loads only) attaches to
            # the request directly, which keeps the hot cached-load path
            # free of context-variable traffic.
            trace = TRACER.current()
            if trace is None:
                macro = self.library.load(macro_name)
            else:
                row = trace.open("macro.load", {"macro": macro_name})
                try:
                    macro = self.library.load(macro_name)
                finally:
                    row[END] = perf_counter()
        except MacroNameError as exc:
            return error_response(404, "Not Found", str(exc))
        except MacroError as exc:
            return error_response(500, "Macro Error", str(exc))
        try:
            command = MacroCommand.parse(command_text)
        except MacroExecutionError as exc:
            return error_response(400, "Bad Request", str(exc))
        inputs = request.input_pairs()
        renderer = (self.negotiate(request)
                    if self.negotiate is not None else None)
        try:
            result = self.engine.execute(macro, command, inputs,
                                         row_renderer=renderer)
        except ReadOnlySqlError as exc:
            return forbidden_response(exc)
        except (CircuitOpenError, PoolExhaustedError) as exc:
            return unavailable_response(exc)
        except DeadlineExceededError as exc:
            return error_response(504, "Gateway Timeout",
                                  f"{type(exc).__name__}: {exc}")
        except (MacroError, MacroExecutionError, SQLError) as exc:
            return error_response(500, "Macro Execution Error",
                                  f"{type(exc).__name__}: {exc}")
        # The page's UTF-8 parts go out as they are (row memos by
        # reference); another charset is an encoding of the text.
        parts = result.parts if self._utf8 else [b"".join(
            result.parts).decode("utf-8").encode(self.charset, "replace")]
        content_type = result.content_type
        if "charset=" not in content_type:
            content_type = f"{content_type}; charset={self.charset}"
        headers = [("Content-Type", content_type)]
        if result.rest is None:
            if self.result_hook is not None:
                self.result_hook(request, result)
            return CgiResponse(headers=headers, parts=parts)
        # A spilled page: the rest follows as the transport reads it,
        # failing mid-body as a truncated page.
        body = self._rest(request, result)
        next(body)
        return CgiResponse(headers=headers, parts=parts, body_iter=body)

    def _rest(self, request: CgiRequest,
              result: MacroResult) -> Iterator[bytes]:
        """A spilled page's rest in the program's charset.  :meth:`run`
        starts it (the bare ``yield``), so closing it settles the page
        and calls the result hook even before the first chunk is read."""
        rest = result.rest
        try:
            yield  # type: ignore[misc]
            for chunk in rest:
                yield chunk if self._utf8 else chunk.decode(
                    "utf-8").encode(self.charset, "replace")
        finally:
            rest.close()
            if self.result_hook is not None:
                # result.rows/sql_errors are as final as they will get.
                self.result_hook(request, result)


class FunctionProgram:
    """Adapter: mount a plain function as a CGI program.

    Used by the hand-coded raw-CGI baseline (the intro's "stand-alone
    program" approach) and by tests.
    """

    def __init__(self, func: Callable[[CgiRequest], CgiResponse]):
        self.func = func

    def run(self, request: CgiRequest) -> CgiResponse:
        return self.func(request)
