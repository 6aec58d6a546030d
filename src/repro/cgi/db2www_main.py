"""The DB2WWW executable: ``python -m repro.cgi.db2www_main``.

This is the stand-alone CGI entry point a web server spawns per request
(Figure 4's ``db2www.exe``).  It reads the CGI environment from the
process environment, the POST body from standard input, runs the macro
engine, and writes a CGI response (headers, blank line, page) to standard
output.

Configuration travels in environment variables the server administrator
sets (the 1996 equivalent was the DB2WWW initialisation file):

``REPRO_MACRO_DIR``
    Directory containing ``.d2w`` macro files.  Required.
``REPRO_DATABASE_<NAME>``
    Filesystem path of the SQLite database to register under the macro
    database name ``<NAME>``.  The name is taken verbatim — the
    macro's ``DATABASE`` value is matched case-sensitively against it,
    so ``REPRO_DATABASE_shop`` registers ``shop``, not ``SHOP``.
``REPRO_TRANSACTION_MODE``
    ``auto_commit`` (default) or ``single``.
``REPRO_QUERY_CACHE``
    Capacity of a per-process query-result cache (unset or ``0``
    disables it).  Pointless for process-per-request CGI — the cache
    dies with the process — but the app-server workers live across
    requests and share it profitably.
``REPRO_MACRO_STAT_TTL``
    Seconds a loaded macro is served before its file is ``stat``-ed
    again (``repro serve --macro-stat-ttl``, which app-server workers
    receive).  Unset or ``0`` checks the file on every request — the
    faithful edit-in-place behaviour, and the only sensible one for a
    process that serves a single request.
``REPRO_POOL_SIZE``
    Size of a connection pool attached to each registered database
    (unset or ``0`` means a fresh connection per request).  Same story:
    only long-lived processes benefit.
``REPRO_TRACE`` / ``REPRO_TRACE_LOG`` / ``REPRO_SLOW_QUERY_MS`` /
``REPRO_SLOW_QUERY_LOG``
    Observability settings (see :func:`repro.obs.configure_from_env`):
    the worker's tracer and sinks come from the same environment block,
    and the request's ``REPRO_TRACE_ID`` joins its spans to the
    dispatching server's trace.
"""

from __future__ import annotations

import math
import os
import sys

from repro.cgi.environ import CgiEnvironment
from repro.cgi.gateway import Db2WwwProgram, error_response
from repro.cgi.request import CgiRequest
from repro.core.engine import EngineConfig, MacroEngine
from repro.core.macrofile import MacroLibrary
from repro.obs import configure_from_env
from repro.obs.trace import TRACER
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.sql.transactions import TransactionMode
from repro.strictint import parse_decimal

_DB_PREFIX = "REPRO_DATABASE_"


def _int_env(env: dict[str, str], name: str) -> int:
    raw = env.get(name, "").strip()
    if not raw:
        return 0
    value = parse_decimal(raw)
    if value is None:
        raise RuntimeError(f"{name}: expected a non-negative integer, "
                           f"got {raw!r}")
    return value


def _seconds_env(env: dict[str, str], name: str) -> float:
    raw = env.get(name, "").strip()
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise RuntimeError(f"{name}: expected a non-negative number of "
                           f"seconds, got {raw!r}")
    return value


def build_program(env: dict[str, str]) -> Db2WwwProgram:
    """Construct the engine and library from server configuration."""
    macro_dir = env.get("REPRO_MACRO_DIR")
    if not macro_dir:
        raise RuntimeError("REPRO_MACRO_DIR is not configured")
    configure_from_env(env)
    registry = DatabaseRegistry()
    names = []
    for key, value in env.items():
        if key.startswith(_DB_PREFIX) and value:
            name = key[len(_DB_PREFIX):]
            registry.register_path(name, value)
            names.append(name)
    try:
        mode = TransactionMode.parse(
            env.get("REPRO_TRANSACTION_MODE", "auto_commit"))
    except ValueError as exc:
        raise RuntimeError(f"REPRO_TRANSACTION_MODE: {exc}") from exc
    pool_size = _int_env(env, "REPRO_POOL_SIZE")
    if pool_size:
        for name in names:
            registry.attach_pool(name, size=pool_size)
    cache_size = _int_env(env, "REPRO_QUERY_CACHE")
    cache = (QueryResultCache(max_entries=cache_size)
             if cache_size else None)
    engine = MacroEngine(registry,
                         config=EngineConfig(transaction_mode=mode,
                                             query_cache=cache))
    library = MacroLibrary(
        macro_dir, stat_ttl=_seconds_env(env, "REPRO_MACRO_STAT_TTL"))
    return Db2WwwProgram(engine, library)


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
    except RuntimeError as exc:
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
