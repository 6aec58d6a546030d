"""Command-line interface: ``python -m repro <command>``.

The operational tools a 1996 webmaster (and today's tests) need:

``lint``
    Static-check macro files before deployment.
``run``
    Execute a macro in input or report mode against SQLite databases,
    printing the generated HTML.
``render``
    Like ``run`` but displays the page as a text-mode browser would.
``unparse``
    Parse and regenerate a macro (format/normalise; also a syntax check).
``stats``
    Summarise a Common Log Format access log (the webmaster's numbers).
``trace``
    Pretty-print a JSONL request-trace / slow-query log as span trees.
``top``
    Fetch a running server's ``/statements`` endpoint and render the
    per-digest statement table (who is burning the time).
``serve``
    Start the HTTP server with DB2WWW mounted over a macro directory.
    Tracing and the ``/metrics`` + ``/statusz`` endpoints are on by
    default (``--no-trace`` turns span collection off); ``--trace-log``
    and ``--slow-query-ms`` add the structured log files.

Variables are passed as ``name=value`` arguments; databases as
``--database NAME=path.sqlite`` (repeatable).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.core.lint import lint_macro
from repro.core.parser import parse_macro
from repro.errors import ReproError
from repro.settings import Settings, build, parse_bindings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DB2 WWW Connection macro tools (SIGMOD'96 repro)")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="static-check macro files")
    lint.add_argument("files", nargs="+", type=Path)

    for name, help_text in (("run", "execute a macro, print HTML"),
                            ("render", "execute a macro, show as text")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", type=Path)
        cmd.add_argument("mode", choices=["input", "report"])
        cmd.add_argument("inputs", nargs="*", metavar="name=value",
                         help="HTML input variables")
        cmd.add_argument("--database", action="append", default=[],
                         metavar="NAME=PATH",
                         help="register a SQLite database under NAME")
        cmd.add_argument("--transaction-mode", default="auto_commit",
                         choices=["auto_commit", "single"])
        _add_resilience_options(cmd)
        _add_shard_options(cmd)

    unparse = sub.add_parser("unparse",
                             help="parse and regenerate macro source")
    unparse.add_argument("file", type=Path)

    stats = sub.add_parser(
        "stats", help="summarise a Common Log Format access log")
    stats.add_argument("logfile", type=Path)
    stats.add_argument("--top", type=int, default=10,
                       help="how many paths/hosts to list")

    trace = sub.add_parser(
        "trace", help="pretty-print a JSONL trace / slow-query log")
    trace.add_argument("logfile", type=Path)
    trace.add_argument("--slow-only", action="store_true",
                       dest="slow_only",
                       help="show only slow_query records")
    trace.add_argument("--limit", type=int, default=0,
                       help="show at most N records (0 = all)")
    trace.add_argument("--trace-id", default=None, dest="trace_id",
                       metavar="ID",
                       help="show only records of trace ID (the "
                            "X-Trace-Id a client was handed)")

    top = sub.add_parser(
        "top", help="show a running server's statement-digest table")
    top.add_argument("url", help="server base URL (or its /statements "
                                 "endpoint), e.g. http://127.0.0.1:8000")
    top.add_argument("--limit", type=int, default=20,
                     help="rows to show, hottest first (0 = all)")
    top.add_argument("--sql", action="store_true",
                     help="print each digest's normalized statement "
                          "text under its row")

    serve = sub.add_parser("serve", help="serve a macro directory")
    serve.add_argument("--macros", type=Path, required=True,
                       help="directory of .d2w macro files")
    serve.add_argument("--database", action="append", default=[],
                       metavar="NAME=PATH")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument("--gateway", default="inprocess",
                       choices=["inprocess", "appserver"],
                       help="execution model behind /cgi-bin/db2www: "
                            "in-process engine or the persistent "
                            "app-server pool (see docs/deployment.md, "
                            "Gateway modes)")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="app-server worker processes "
                            "(--gateway appserver only)")
    serve.add_argument("--recycle-after", type=int, default=500,
                       metavar="N", dest="recycle_after",
                       help="recycle each app-server worker after N "
                            "requests (--gateway appserver only)")
    serve.add_argument("--acceptors", type=int, default=1, metavar="N",
                       help="acceptor processes sharing the port via "
                            "SO_REUSEPORT (N>1 spawns N serve "
                            "processes)")
    serve.add_argument("--reuse-port", action="store_true",
                       dest="reuse_port",
                       help="set SO_REUSEPORT on the listener so other "
                            "acceptor processes can share the port")
    serve.add_argument("--max-connections", type=int, default=1024,
                       metavar="N", dest="max_connections",
                       help="concurrent-connection budget; connections "
                            "past it get an immediate 503 (default "
                            "1024)")
    serve.add_argument("--overload", action="store_true",
                       dest="overload",
                       help="enable adaptive admission control: a "
                            "bounded admission queue with per-class "
                            "weighted fair queueing and an AIMD "
                            "shedder driven by the live interactive "
                            "p99 (503 + honest Retry-After when shed)")
    serve.add_argument("--overload-concurrency", type=int, default=8,
                       metavar="N", dest="overload_concurrency",
                       help="requests processed concurrently past "
                            "admission (default 8)")
    serve.add_argument("--overload-queue", type=int, default=64,
                       metavar="N", dest="overload_queue",
                       help="admission queue depth; a full queue "
                            "evicts the cheapest-to-shed waiter "
                            "(default 64)")
    serve.add_argument("--slo-ms", type=float, default=100.0,
                       metavar="MS", dest="slo_ms",
                       help="interactive p99 target driving the "
                            "shedder (default 100)")
    serve.add_argument("--overload-rule", action="append", default=[],
                       metavar="SUBSTR=CLASS", dest="overload_rules",
                       help="classify request paths containing SUBSTR "
                            "as CLASS (cached/interactive/heavy/"
                            "unclassified); repeatable, first match "
                            "wins, checked before the learned profile")
    serve.add_argument("--backlog", type=int, default=128,
                       help="listen(2) backlog of the HTTP server")
    serve.add_argument("--query-cache", type=int, default=128,
                       metavar="ENTRIES", dest="query_cache",
                       help="max cached SELECT results (0 disables)")
    serve.add_argument("--macro-stat-ttl", type=float, default=1.0,
                       metavar="SECONDS", dest="macro_stat_ttl",
                       help="seconds between macro-file mtime checks "
                            "(0 checks every request)")
    serve.add_argument("--tenant-config", type=Path, default=None,
                       metavar="FILE", dest="tenant_config",
                       help="host multi-tenant applications under /t/ "
                            "per the JSON tenant descriptor FILE (see "
                            "docs/deployment.md §11: per-tenant macro "
                            "dirs, databases, owner credentials, "
                            "visibility, read-only, quotas)")
    serve.add_argument("--access-log", type=Path, default=None,
                       metavar="PATH", dest="access_log",
                       help="append Common Log Format entries (with "
                            "retry/breaker counters in stats) to PATH")
    serve.add_argument("--no-trace", action="store_true", dest="no_trace",
                       help="disable request tracing (metrics endpoints "
                            "stay up; span collection is skipped)")
    serve.add_argument("--trace-log", type=Path, default=None,
                       metavar="PATH", dest="trace_log",
                       help="append one JSON line per request trace to "
                            "PATH (render with `repro trace PATH`)")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS", dest="slow_query_ms",
                       help="log any SQL execution at or over MS "
                            "milliseconds with its span subtree")
    serve.add_argument("--slow-query-log", type=Path, default=None,
                       metavar="PATH", dest="slow_query_log",
                       help="slow-query log path (default "
                            "slow_query.log next to the access log, "
                            "or ./slow_query.log)")
    serve.add_argument("--trace-sample", default=None, metavar="SPEC",
                       dest="trace_sample",
                       help="tail-sample the trace/slow-query files: "
                            "keep errors and over-SLO traces always, "
                            "a per-digest reservoir for the rest "
                            "(SPEC like 'slo_ms=250,per_key=5,"
                            "window_s=60,head=0.01', or 'on' for "
                            "defaults; metrics and /statements still "
                            "see every trace)")
    _add_resilience_options(serve)
    _add_shard_options(serve)
    return parser


def _add_resilience_options(cmd: argparse.ArgumentParser) -> None:
    """Failure-handling knobs shared by run/render/serve.

    See docs/deployment.md, "Resilience and failure handling".
    """
    cmd.add_argument("--inject-faults", default=None, metavar="SPEC",
                     dest="inject_faults",
                     help="inject database faults per SPEC, e.g. "
                          "prob:0.05 or connect:0.1,slow:0.2:0.05 "
                          "(see repro.resilience.faults)")
    cmd.add_argument("--max-retries", type=int, default=0,
                     metavar="N", dest="max_retries",
                     help="retry transient read failures up to N times "
                          "with exponential backoff (0 disables)")
    cmd.add_argument("--request-deadline", type=float, default=None,
                     metavar="SECONDS", dest="request_deadline",
                     help="per-request time budget; exceeding it maps "
                          "to 504 Gateway Timeout")
    cmd.add_argument("--breaker-threshold", type=int, default=0,
                     metavar="N", dest="breaker_threshold",
                     help="open a per-database circuit breaker after N "
                          "consecutive connect failures (0 disables); "
                          "open circuits answer 503 + Retry-After")
    cmd.add_argument("--degrade", action="store_true", dest="degrade",
                     help="on terminal SQL failure, emit the error "
                          "block and continue the report instead of "
                          "aborting the page")


def _add_shard_options(cmd: argparse.ArgumentParser) -> None:
    """Sharded-tier options shared by run, render, and serve.

    A logical sharded database is declared with ``--shards`` naming its
    physical shard paths in routing order; each shard's primary is
    registered as ``LOGICAL#i`` and its replicas (``--shard-replicas``)
    as ``LOGICAL#i.rN``.  See docs/deployment.md §10.
    """
    cmd.add_argument("--shards", action="append", default=[],
                     metavar="NAME=PATH,PATH,...",
                     help="register NAME as a sharded logical database "
                          "over the comma-separated SQLite paths "
                          "(hash-routed on the macro's SHARD_KEY)")
    cmd.add_argument("--shard-replicas", action="append", default=[],
                     dest="shard_replicas", metavar="NAME.IDX=PATH,...",
                     help="read replicas for shard IDX of logical "
                          "database NAME (cacheable SELECTs prefer "
                          "them; everything else hits the primary)")
    cmd.add_argument("--shard-key", default="SHARD_KEY",
                     dest="shard_key", metavar="VAR",
                     help="macro variable that pins a request to one "
                          "shard (default SHARD_KEY)")
    cmd.add_argument("--replica-lag-bound", type=float, default=1.0,
                     dest="replica_lag_bound", metavar="SEC",
                     help="skip replicas whose observed replication "
                          "lag exceeds SEC seconds (default 1.0)")
    cmd.add_argument("--shard-timeout", type=float, default=None,
                     dest="shard_timeout", metavar="SEC",
                     help="per-shard slice of the request deadline for "
                          "scatter-gather workers")


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Parse a command line, refusing app-server pool options under the
    in-process gateway, which runs no workers.  The parser does not
    outlive this call, so a serving process keeps none of it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.gateway == "inprocess":
        defaults = parser.parse_args(["serve", "--macros", "."])
        given = [f"--{dest.replace('_', '-')}"
                 for dest in ("workers", "recycle_after")
                 if getattr(args, dest) != getattr(defaults, dest)]
        if given:
            raise SystemExit(f"{', '.join(given)}: app-server pool "
                             "settings need --gateway appserver")
    return args


def main(argv: Optional[Sequence[str]] = None,
         out=None) -> int:
    """CLI entry point; returns the process exit status."""
    out = out or sys.stdout
    args = _parse_args(argv)
    try:
        if args.command == "lint":
            return _cmd_lint(args, out)
        if args.command in ("run", "render"):
            return _cmd_run(args, out, as_text=args.command == "render")
        if args.command == "unparse":
            return _cmd_unparse(args, out)
        if args.command == "stats":
            return _cmd_stats(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command == "top":
            return _cmd_top(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0  # output piped into head/less that exited; fine
    raise AssertionError(f"unhandled command {args.command!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_lint(args, out) -> int:
    worst = "info"
    order = {"info": 0, "warning": 1, "error": 2}
    for path in args.files:
        macro = parse_macro(path.read_text(encoding="utf-8"),
                            source=str(path))
        findings = lint_macro(macro)
        if not findings:
            print(f"{path}: clean", file=out)
            continue
        for finding in findings:
            print(finding.render(str(path)), file=out)
            if order[finding.severity] > order[worst]:
                worst = finding.severity
    return 1 if worst == "error" else 0


def _cmd_run(args, out, *, as_text: bool) -> int:
    program = build(replace(Settings.from_args(args),
                            macros=str(args.file.parent)))
    try:
        macro = program.library.load(args.file.name)
        inputs = parse_bindings(args.inputs, "input variable")
        result = program.engine.execute(macro, args.mode, inputs)
        if as_text:
            from repro.html.render import render_markup
            print(render_markup(result.html), file=out)
        else:
            # A spilled page is written as it renders, never joined.
            for part in itertools.chain(result.parts, result.rest or ()):
                out.write(part.decode("utf-8"))
            print(file=out)
    finally:
        # Its one connection closes: a WAL-mode file is whole again.
        program.engine.registry.close_all()
    return 0 if result.ok else 1


def _cmd_unparse(args, out) -> int:
    macro = parse_macro(args.file.read_text(encoding="utf-8"),
                        source=str(args.file))
    print(macro.unparse(), file=out)
    return 0


def _cmd_stats(args, out) -> int:
    import json
    from collections import Counter

    from repro.http.accesslog import parse_line

    entries = []
    skipped = 0
    counters: dict[str, int] = {}
    for line in args.logfile.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#stats "):
            # Server-side counter trailer (AccessLog.append_stats_note);
            # later notes supersede earlier ones key by key.
            try:
                note = json.loads(line[len("#stats "):])
            except ValueError:
                skipped += 1
                continue
            if isinstance(note, dict):
                counters.update({str(k): v for k, v in note.items()})
            continue
        entry = parse_line(line)
        if entry is None:
            skipped += 1
        else:
            entries.append(entry)
    if not entries:
        print("no parseable CLF lines found", file=out)
        return 1
    errors = sum(1 for e in entries if e.status >= 400)
    total_bytes = sum(max(e.size, 0) for e in entries)
    print(f"requests: {len(entries)}   errors: {errors}   "
          f"bytes: {total_bytes}   unparseable lines: {skipped}",
          file=out)
    print(f"\ntop {args.top} paths:", file=out)
    for path_name, hits in Counter(
            e.path for e in entries).most_common(args.top):
        print(f"  {hits:>6}  {path_name}", file=out)
    print(f"\ntop {args.top} hosts:", file=out)
    for host, hits in Counter(
            e.host for e in entries).most_common(args.top):
        print(f"  {hits:>6}  {host}", file=out)
    print("\nstatus codes:", file=out)
    for status, hits in sorted(Counter(
            e.status for e in entries).items()):
        print(f"  {status}: {hits}", file=out)
    # The trailer carries the registry's sample names: a summary's
    # quantiles, _count and _sum become one latency row, every other
    # labeled sample a cell of its label's table.
    from repro.obs.metrics import parse_sample

    quantiles: dict[str, dict[str, float]] = {}
    by_label: dict[str, dict[str, dict[str, object]]] = {}
    scalar: dict[str, object] = {}
    for key, value in counters.items():
        name, label, label_value = parse_sample(key)
        if label == "quantile":
            quantiles.setdefault(name, {})[label_value] = value
        elif label is not None:
            by_label.setdefault(label, {}).setdefault(
                label_value, {})[name] = value
        else:
            scalar[key] = value
    if quantiles:
        print("\nserver latency:", file=out)
        print(f"  {'summary':<28} {'n':>7} {'mean_ms':>9} {'p50_ms':>9} "
              f"{'p95_ms':>9} {'p99_ms':>9}", file=out)
        for name, by_q in sorted(quantiles.items()):
            count = scalar.pop(f"{name}_count", 0)
            total = scalar.pop(f"{name}_sum", 0.0)
            mean = total / count if count else 0.0
            cells = " ".join(f"{by_q.get(q, 0.0):>9.3f}"
                             for q in ("0.5", "0.95", "0.99"))
            print(f"  {name:<28} {count:>7} {mean:>9.3f} {cells}",
                  file=out)
    if scalar:
        print("\nserver counters:", file=out)
        for key in sorted(scalar):
            print(f"  {key}: {scalar[key]}", file=out)
    for label, rows in sorted(by_label.items()):
        # One table per label: a row per label value, a column per
        # family carrying that label.
        columns = sorted({name for row in rows.values() for name in row})
        width = max(len(label), *map(len, rows))
        print(f"\nby {label}:", file=out)
        print(f"  {label:<{width}}  " + "  ".join(columns), file=out)
        for label_value in sorted(rows):
            cells = "  ".join(f"{rows[label_value].get(c, 0)!s:>{len(c)}}"
                              for c in columns)
            print(f"  {label_value:<{width}}  {cells}", file=out)
    return 0


def _cmd_trace(args, out) -> int:
    from repro.obs.sinks import format_trace, read_trace_log

    records = read_trace_log(args.logfile)
    if args.slow_only:
        records = [r for r in records if r.get("type") == "slow_query"]
    if args.trace_id:
        records = [r for r in records
                   if r.get("trace_id") == args.trace_id]
    if args.limit > 0:
        records = records[-args.limit:]
    if not records:
        print("no trace records found", file=out)
        return 1
    for record in records:
        print(format_trace(record), file=out)
        print("", file=out)
    print(f"{len(records)} record(s)", file=out)
    return 0


def _cmd_top(args, out) -> int:
    import json
    from urllib.request import urlopen

    url = args.url
    if not url.startswith(("http://", "https://")):
        url = "http://" + url
    if "/statements" not in url:
        url = url.rstrip("/") + "/statements"
    if args.limit > 0:
        url += ("&" if "?" in url else "?") + f"limit={args.limit}"
    with urlopen(url, timeout=10) as response:
        snapshot = json.loads(response.read().decode("utf-8"))
    rows = snapshot.get("statements", [])
    if not rows:
        print("no statements recorded yet", file=out)
        return 1
    header = (f"{'digest':<12}  {'calls':>8}  {'errors':>6}  "
              f"{'rows':>10}  {'hit%':>5}  {'fan':>4}  "
              f"{'mean ms':>9}  {'p95 ms':>9}  {'total ms':>11}")
    print(header, file=out)
    for row in rows:
        hit = row.get("cache_hit_ratio", 0.0) * 100.0
        print(f"{row.get('digest', '?'):<12}  "
              f"{row.get('calls', 0):>8}  "
              f"{row.get('errors', 0):>6}  "
              f"{row.get('rows', 0):>10}  "
              f"{hit:>5.1f}  "
              f"{row.get('fanout_max', 0):>4}  "
              f"{row.get('mean_ms', 0.0):>9.2f}  "
              f"{row.get('p95_ms', 0.0):>9.2f}  "
              f"{row.get('total_ms', 0.0):>11.1f}", file=out)
        if args.sql and row.get("statement"):
            print(f"              {row['statement']}", file=out)
    print(f"\n{snapshot.get('distinct_digests', len(rows))} digest(s), "
          f"{snapshot.get('recorded_total', 0)} execution(s) recorded, "
          f"{snapshot.get('overflowed_total', 0)} beyond the budget",
          file=out)
    return 0


def _slow_query_path(args) -> Path:
    """Where ``--slow-query-ms`` dumps go when no path was given."""
    if getattr(args, "slow_query_log", None) is not None:
        return args.slow_query_log
    access_log = getattr(args, "access_log", None)
    base = access_log.parent if access_log is not None else Path(".")
    return base / "slow_query.log"


def _wait_for_stop() -> None:  # pragma: no cover - interactive
    """Sleep until SIGINT or SIGTERM; either means "stop cleanly".

    SIGTERM is what ``--acceptors`` sends its children and what a
    supervisor sends by default.  Raising the same ``KeyboardInterrupt``
    as Ctrl-C runs the caller's ``finally:`` — pools closed, WAL
    checkpointed, deferred traces flushed, ``#stats`` trailer written —
    instead of dying with the work undone.
    """
    import signal

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)
    try:
        while True:
            signal.pause()
    except KeyboardInterrupt:
        pass


def _cmd_multi_acceptor(args, out) -> int:  # pragma: no cover - interactive
    """``repro serve --acceptors N`` — N serve processes
    sharing one port via ``SO_REUSEPORT``; the kernel load-balances
    accepted connections across their event loops."""
    import socket
    import subprocess

    port = args.port
    if port == 0:
        # Pre-pick the shared port so every child binds the same one.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((args.host, 0))
        port = probe.getsockname()[1]
        probe.close()
    child_argv = _acceptor_child_argv(sys.argv[1:], port)
    children = [subprocess.Popen([sys.executable, "-m", "repro"]
                                 + child_argv)
                for _ in range(args.acceptors)]
    print(f"serving {args.acceptors} acceptors on "
          f"http://{args.host}:{port} (SO_REUSEPORT)",
          file=out, flush=True)
    try:
        _wait_for_stop()
    finally:
        for child in children:
            child.terminate()
        for child in children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
    return 0


def _acceptor_child_argv(argv: list[str], port: int) -> list[str]:
    """The original serve argv with acceptors/port pinned for a child."""
    out: list[str] = []
    skip = False
    for item in argv:
        if skip:
            skip = False
            continue
        if item in ("--acceptors", "--port"):
            skip = True
            continue
        if item.startswith(("--acceptors=", "--port=")):
            continue
        out.append(item)
    return out + ["--port", str(port), "--acceptors", "1",
                  "--reuse-port"]


def _load_tenant_config(path: Path, settings: Settings, *,
                        query_cache=None):
    """Build a TenantRegistry from a JSON descriptor file.

    The file is either ``{"tenants": [...]}`` or a bare list; each
    entry::

        {"name": "alpha", "owner": "alice", "password": "secret",
         "visibility": "private", "read_only": false,
         "macros": "tenants/alpha/macros",
         "databases": {"SHOP": "tenants/alpha/shop.sqlite"},
         "quota": {"requests": 100, "rows": 50000,
                   "window_seconds": 60}}

    ``password`` registers the owner with the shared authenticator
    (omit for owners declared by an earlier tenant); a database path of
    ``:memory:`` provisions a fresh shared in-memory database.  The
    tenants are built from ``settings``.
    """
    import json as _json

    from repro.tenancy import TenantQuota, TenantRegistry

    spec = _json.loads(path.read_text(encoding="utf-8"))
    entries = spec.get("tenants", []) if isinstance(spec, dict) else spec
    registry = TenantRegistry(settings, query_cache=query_cache)
    for entry in entries:
        quota = None
        quota_spec = entry.get("quota")
        if quota_spec:
            quota = TenantQuota(
                requests=quota_spec.get("requests"),
                rows=quota_spec.get("rows"),
                window_seconds=float(
                    quota_spec.get("window_seconds", 60.0)))
        tenant = registry.create_tenant(
            entry["name"], owner=entry["owner"],
            password=entry.get("password"),
            visibility=entry.get("visibility", "public"),
            read_only=bool(entry.get("read_only", False)),
            macro_root=entry.get("macros"),
            quota=quota)
        for db_name, db_path in (entry.get("databases") or {}).items():
            if db_path == ":memory:":
                tenant.databases.register_memory(db_name)
            else:
                tenant.databases.register_path(db_name, db_path)
    return registry


def _cmd_serve(args, out) -> int:  # pragma: no cover - interactive
    from repro.cgi.gateway import CgiGateway
    from repro.http.async_server import AsyncHttpServer
    from repro.http.router import Router
    from repro.obs import (
        REGISTRY, TRACER, FanoutSink, MetricsBridge, SloTracker,
        SlowQueryLog, TailSampler, TraceLog, parse_sample_spec)
    from repro.sql.digest import STATEMENTS
    from repro.sql.sharding import ShardMap

    if args.acceptors > 1:
        return _cmd_multi_acceptor(args, out)
    metrics = REGISTRY
    if not args.no_trace:
        TRACER.enable()
        # The fold runs outside any sampler, on the request thread:
        # metrics and the statement-digest store see every record, in
        # one pass over its rows.
        STATEMENTS.enabled = True
        TRACER.add_sink(MetricsBridge(
            metrics, slow_query_ms=args.slow_query_ms,
            statements=STATEMENTS))
    file_sinks = []
    if args.trace_log is not None:
        file_sinks.append(TraceLog(args.trace_log))
    slow_log = None
    if args.slow_query_ms is not None:
        slow_log = SlowQueryLog(_slow_query_path(args),
                                args.slow_query_ms,
                                statements=STATEMENTS)
        file_sinks.append(slow_log)
    sampler = None
    if args.trace_sample and file_sinks:
        try:
            sample_kwargs = parse_sample_spec(args.trace_sample)
        except ValueError as exc:
            raise SystemExit(f"bad --trace-sample: {exc}")
        # The shedder's interactive SLO doubles as the sampler's
        # keep-it-always latency bar unless the spec overrides it.
        sample_kwargs.setdefault("slo_ms", args.slo_ms)
        # No registry= here: the trace_sampler source renders
        # kept/dropped (plus the per-reason split); live counters too
        # would publish the same sample names twice.
        sampler = TailSampler(*file_sinks, **sample_kwargs)
        metrics.attach_source("trace_sampler", sampler.stats)
        file_sinks = [sampler]
    fanout = None
    if file_sinks:
        # The tree readers write files: the request thread only
        # enqueues the finished record and a drain thread writes it.
        # Scrape reads flush first (router.obs_flush below), so the
        # sampler's counts stay exact.
        fanout = FanoutSink(*file_sinks, defer_cap=1024)
        TRACER.add_sink(fanout)
    dispatcher = None
    log = None
    if not args.no_trace:
        metrics.attach_source("statements", STATEMENTS.stats)
        metrics.attach_source("statement", STATEMENTS.labeled_stats,
                              label="digest")
    settings = Settings.from_args(args)
    cache = None  # this process's one query-result cache
    registries = []
    gateway = CgiGateway()
    if args.gateway == "inprocess":
        program = build(settings)
        cache = program.engine.config.query_cache
        gateway.install("db2www", program)
        registry = program.engine.registry
        registries.append(registry)
        metrics.attach_source("resilience", registry.resilience_stats)
        if settings.shards:
            metrics.attach_source("shard", registry.shard_labeled_stats,
                                  label="shard", counters=ShardMap.COUNTERS)
    else:
        from repro.appserver import AppServerDispatcher
        worker_env = settings.to_env()
        if not args.no_trace:
            # Workers join the server's traces (their spans ship home in
            # the response frames and are logged here: no worker sinks).
            worker_env["REPRO_TRACE"] = "1"
        dispatcher = AppServerDispatcher(
            worker_env, workers=args.workers,
            recycle_after=args.recycle_after)
        gateway.install("db2www", dispatcher)
        metrics.attach_source("appserver", dispatcher.labeled_stats,
                              label="worker")
    router = Router(gateway=gateway, server_name=args.host)
    tenant_registry = None
    if args.tenant_config is not None:
        from repro.tenancy import TenantHost

        # Tenants share the in-process program's cache, if any.
        tenant_registry = _load_tenant_config(args.tenant_config, settings,
                                              query_cache=cache)
        cache = tenant_registry.query_cache
        registries.append(tenant_registry.databases)
        # Tenant dispatch is in-process regardless of --gateway: each
        # tenant runs its own engine over its scoped registry view.
        router.tenants = TenantHost(tenant_registry)
        metrics.attach_source("tenant", tenant_registry.labeled_stats,
                              label="tenant")
    if cache is not None:
        metrics.attach_source("query_cache", cache.stats,
                              counters=cache.COUNTERS)
    # One registry feeds every read path: /metrics, /statusz, the
    # access log's #stats trailer, and `repro stats`.
    router.metrics = metrics
    if fanout is not None:
        router.obs_flush = fanout.flush
    if not args.no_trace:
        router.statements = STATEMENTS
    # Burn-rate gauges ride the same counters/histogram the router
    # maintains; args.slo_ms is also the shedder's interactive target.
    slo = SloTracker(metrics, latency_slo_ms=args.slo_ms)
    metrics.attach_source("slo", slo.stats)
    if args.overload:
        from repro.overload import (
            COST_CLASSES, OverloadController, RequestClassifier)
        rules = []
        for spec in args.overload_rules:
            # The class rides after the LAST "=": the substring itself
            # may contain "=" (URL fragments like "USE_DESC=yes").
            substring, sep, cls = spec.rpartition("=")
            if not sep or cls not in COST_CLASSES:
                raise SystemExit(
                    f"bad --overload-rule {spec!r}: expected "
                    f"SUBSTR={'|'.join(COST_CLASSES)}")
            rules.append((substring, cls))
        controller = OverloadController(
            max_concurrent=args.overload_concurrency,
            queue_limit=args.overload_queue,
            interactive_slo_ms=args.slo_ms,
            classifier=RequestClassifier(
                rules=rules or None,
                # Statement-level evidence beats URL heuristics: a
                # target whose digests have proven heavy (or cached)
                # classifies from what its SQL actually cost.
                probe=STATEMENTS.probe if not args.no_trace else None),
            metrics=metrics)
        router.overload = controller
        metrics.attach_source("overload", controller.stats)
    if args.access_log is not None:
        from repro.http.accesslog import AccessLog
        log = AccessLog(args.access_log, metrics=metrics)
        router.access_log = log
    server = AsyncHttpServer(
        router, host=args.host, port=args.port, backlog=args.backlog,
        reuse_port=args.reuse_port,
        max_connections=args.max_connections,
        request_deadline=args.request_deadline,
        metrics=metrics).start()
    # Flush each banner line: supervisors (and the smoke test) read the
    # bound address from a pipe, which Python would otherwise buffer.
    print(f"serving macros from {args.macros} on {server.base_url} "
          f"({args.gateway} gateway"
          + (f", {args.workers} workers" if dispatcher else "")
          + (", overload control" if args.overload else "")
          + (f", {len(tenant_registry.names())} tenants"
             if tenant_registry is not None else "")
          + (", tracing off" if args.no_trace else "") + ")",
          file=out, flush=True)
    print(f"metrics: {server.base_url}/metrics   "
          f"status: {server.base_url}/statusz"
          + (f"   statements: {server.base_url}/statements"
             if not args.no_trace else ""),
          file=out, flush=True)
    print("press Ctrl-C to stop", file=out, flush=True)
    try:
        _wait_for_stop()
    finally:
        server.shutdown()
        if fanout is not None:
            # Deferred traces still queued must reach the registry
            # before the trailer below snapshots it.
            fanout.flush()
        if log is not None:
            # Counters survive the process in the log file, where
            # `repro stats` picks them up (before worker teardown, so
            # the live pool size is captured).
            log.append_stats_note()
        if dispatcher is not None:
            dispatcher.shutdown()
        # Checkpoints a WAL-mode file: whole again in its one file.
        for registry in registries:
            registry.close_all()
    return 0
