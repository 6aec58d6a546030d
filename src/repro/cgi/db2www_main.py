"""The DB2WWW executable: ``python -m repro.cgi.db2www_main``.

This is the stand-alone CGI entry point a web server spawns per request
(Figure 4's ``db2www.exe``).  It reads the CGI environment from the
process environment, the POST body from standard input, runs the macro
engine, and writes a CGI response (headers, blank line, page) to standard
output.

Configuration travels in the ``REPRO_*`` variables docs/deployment.md
§3 tables (the 1996 initialisation file's role), the tracer's in
``REPRO_TRACE`` and friends (:func:`repro.obs.configure_from_env`); a
request's ``REPRO_TRACE_ID`` joins its spans to the server's trace.
"""

from __future__ import annotations

import os
import sys

from repro.cgi.environ import CgiEnvironment
from repro.cgi.gateway import Db2WwwProgram, error_response
from repro.cgi.request import CgiRequest
from repro.obs import configure_from_env
from repro.obs.trace import TRACER
from repro.settings import Settings, build


def build_program(env: dict[str, str]) -> Db2WwwProgram:
    """The program the environment's settings describe."""
    settings = Settings.from_env(env)
    if not settings.macros:
        raise RuntimeError("REPRO_MACRO_DIR is not configured")
    configure_from_env(env)
    return build(settings)


def main(env: dict[str, str] | None = None,
         stdin: bytes | None = None) -> bytes:
    """Process one CGI request; returns the raw CGI output bytes."""
    env = dict(os.environ) if env is None else env
    environ = CgiEnvironment.from_dict(env)
    if stdin is None:
        length = environ.content_length
        stdin = sys.stdin.buffer.read(length) if length else b""
    request = CgiRequest(environ=environ, stdin=stdin)
    try:
        program = build_program(env)
    except (RuntimeError, ValueError) as exc:
        return error_response(500, "Configuration Error",
                              str(exc)).serialize()
    # One coherent trace per subprocess run, under the caller's id.
    act = TRACER.begin("cgi", trace_id=environ.trace_id or None)
    try:
        response = program.run(request)
        response.drain()
        if act is not None:
            act.span.set("status", response.status)
    finally:
        if act is not None:
            act.finish()
    return response.serialize()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.stdout.buffer.write(main())
    sys.stdout.buffer.flush()
