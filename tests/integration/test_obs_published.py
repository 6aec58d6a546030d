"""What default observability publishes, pinned per kind of request.

``repro serve`` runs for real (a subprocess, over a socket), once
in-process and once behind ``--gateway appserver``, with the default
observability plus a ``--trace-log``.  For each kind of request — a cold
run, a cache miss, a kept page, an SQL error, a spilled page and an
app-server hop — the test pins:

* how many ``span_<name>_ms`` observations and ``traces_total`` the
  request adds to ``/statusz``;
* what it adds to its statement's ``/statements`` row (calls, cache
  hits, rows, errors);
* the form of its ``X-Trace-Id``;
* its ``--trace-log`` record: the span tree as paths of names, the
  root's status and each ``sql.execute`` span's facts (for the hop,
  the worker's spans grafted under ``appserver.dispatch``).

Sibling order in the logged tree is not pinned; everything else is.
"""

import json
import re
import signal
import sqlite3
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: One row more than the spill budget (repro.sql.gateway.SPILL_ROWS).
ROWS = 10_001

MACRO = """\
%DEFINE DATABASE = "PIN"
%SQL{ SELECT id, name FROM $(TABLE) WHERE id <= $(N) ORDER BY id
%SQL_REPORT{<UL>
%ROW{<LI>$(V1) $(V2)
%}</UL>
%}
%}
%HTML_INPUT{<P>input</P>%}
%HTML_REPORT{<H1>Items</H1>
%EXEC_SQL
%}
"""

REPORT = "/cgi-bin/db2www/pin.d2w/report?TABLE={table}&N={n}"

TRACE_ID = re.compile(r"^[0-9a-f]+-[0-9a-f]+-[0-9a-f]{4}$")

#: The scrape requests one snapshot makes (each is a traced request
#: with a lone ``request`` span, folded into the next snapshot).
SCRAPES = 2


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-published")
    database = root / "pin.sqlite"
    conn = sqlite3.connect(database)
    conn.execute("CREATE TABLE items (id INTEGER, name TEXT)")
    conn.executemany("INSERT INTO items VALUES (?, ?)",
                     ((i, f"item{i}") for i in range(1, ROWS + 1)))
    conn.commit()
    conn.close()
    macros = root / "macros"
    macros.mkdir()
    (macros / "pin.d2w").write_text(MACRO, encoding="utf-8")
    return root, macros, database


class Served:
    """One ``repro serve`` process and what it published so far."""

    def __init__(self, files, name, *extra):
        root, macros, database = files
        self.trace_log = root / f"{name}.trace.jsonl"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--macros", str(macros), "--database", f"PIN={database}",
             "--host", "127.0.0.1", "--port", "0",
             "--trace-log", str(self.trace_log), *extra],
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.base = None
        deadline = time.time() + 30
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = re.search(r"on (http://[\d.]+:\d+)", line)
            if match:
                self.base = match.group(1)
                break
        if self.base is None:
            self.stop()
            raise RuntimeError("serve never announced its address")
        self.last = self.snapshot()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def fetch(self, target):
        try:
            with urllib.request.urlopen(self.base + target,
                                        timeout=30) as response:
                return (response.status, dict(response.headers),
                        response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def snapshot(self):
        _, _, statusz = self.fetch("/statusz")
        _, _, statements = self.fetch("/statements")
        snapshot = json.loads(statusz)
        spans = {key[len("span_"):-len("_ms_count")]: value
                 for key, value in snapshot["summaries"].items()
                 if key.startswith("span_") and key.endswith("_ms_count")}
        rows = {row["digest"]: row
                for row in json.loads(statements)["statements"]}
        return snapshot["counters"].get("traces_total", 0), spans, rows

    def published(self, *targets):
        """Fetch ``targets`` in order; return the last one's trace id,
        status and body, and what the whole batch added."""
        for target in targets:
            status, headers, body = self.fetch(target)
        traces, spans, rows = self.snapshot()
        last_traces, last_spans, last_rows = self.last
        self.last = (traces, spans, rows)
        span_counts = {name: count - last_spans.get(name, 0)
                       for name, count in spans.items()
                       if count != last_spans.get(name, 0)}
        # The previous snapshot's own scrapes.
        span_counts["request"] -= SCRAPES
        statement_rows = {}
        for digest, row in rows.items():
            before = last_rows.get(digest, {})
            change = {key: row[key] - before.get(key, 0)
                      for key in ("calls", "cache_hits", "rows", "errors")}
            if any(change.values()):
                statement_rows[row["statement"]] = change
        return {
            "trace_id": headers.get("X-Trace-Id", ""),
            "status": status,
            "body": body,
            "traces": traces - last_traces - SCRAPES,
            "spans": span_counts,
            "statements": statement_rows,
        }

    def logged(self, trace_id):
        """The trace-log record of ``trace_id``: its paths of span
        names (sorted), the root's status, the sql.execute facts."""
        records = [json.loads(line) for line in
                   self.trace_log.read_text().splitlines()]
        (record,) = [r for r in records if r["trace_id"] == trace_id]
        paths, sql = [], []

        def walk(span, prefix):
            path = f"{prefix}/{span['name']}" if prefix else span["name"]
            paths.append(path)
            assert span["trace_id"] == trace_id
            if span["name"] == "sql.execute":
                attrs = span.get("attrs", {})
                sql.append({key: attrs[key] for key in
                            ("cached", "rows", "streaming", "error")
                            if key in attrs})
                assert set(attrs) >= {"digest", "database", "sql"}
            for child in span.get("children", ()):
                walk(child, path)

        walk(record["spans"], "")
        assert record["name"] == "request"
        return {"paths": sorted(paths),
                "status": record["attrs"]["status"],
                "phases": sorted(record["phases"]),
                "sql": sql}


SELECT = "select id, name from items where id <= ? order by id"
MISSING = "select id, name from nosuch where id <= ? order by id"


@pytest.fixture(scope="module")
def inprocess(files):
    served = Served(files, "inprocess")
    try:
        yield served
    finally:
        served.stop()


@pytest.fixture(scope="module")
def appserver(files):
    served = Served(files, "appserver", "--gateway", "appserver",
                    "--workers", "1")
    try:
        yield served
    finally:
        served.stop()


def check_trace_id(published):
    assert TRACE_ID.match(published["trace_id"]), published["trace_id"]


class TestInProcess:
    """One server; the scenarios run in order (each builds on the last:
    the first run parses the macro, the third repeat reuses a page)."""

    def test_a_cold_run(self, inprocess):
        got = inprocess.published(REPORT.format(table="items", n=3))
        check_trace_id(got)
        assert got["status"] == 200 and b"item3" in got["body"]
        assert got["traces"] == 1
        assert got["spans"] == {"request": 1, "macro_load": 1, "parse": 1,
                                "sql_execute": 1, "substitute": 1,
                                "report_render": 1}
        assert got["statements"] == {SELECT: {
            "calls": 1, "cache_hits": 0, "rows": 3, "errors": 0}}
        assert inprocess.logged(got["trace_id"]) == {
            "paths": ["request", "request/macro.load",
                      "request/parse", "request/report.render",
                      "request/sql.execute", "request/substitute"],
            "status": 200,
            "phases": ["macro.load", "parse", "report.render", "request",
                       "sql.execute", "substitute"],
            "sql": [{"rows": 3}]}

    def test_a_cache_miss(self, inprocess):
        got = inprocess.published(REPORT.format(table="items", n=4))
        check_trace_id(got)
        assert got["traces"] == 1
        assert got["spans"] == {"request": 1, "macro_load": 1,
                                "sql_execute": 1, "substitute": 1,
                                "report_render": 1}
        assert got["statements"] == {SELECT: {
            "calls": 1, "cache_hits": 0, "rows": 4, "errors": 0}}
        logged = inprocess.logged(got["trace_id"])
        assert logged["paths"] == [
            "request", "request/macro.load", "request/report.render",
            "request/sql.execute", "request/substitute"]
        assert logged["sql"] == [{"rows": 4}]

    def test_a_kept_page(self, inprocess):
        """The second identical request is all hits and keeps its page;
        the third is answered with it, no macro run."""
        target = REPORT.format(table="items", n=5)
        inprocess.published(target, target)
        got = inprocess.published(target)
        check_trace_id(got)
        assert got["status"] == 200 and b"item5" in got["body"]
        assert got["traces"] == 1
        assert got["spans"] == {"request": 1, "macro_load": 1,
                                "sql_execute": 1}
        assert got["statements"] == {SELECT: {
            "calls": 1, "cache_hits": 1, "rows": 5, "errors": 0}}
        assert inprocess.logged(got["trace_id"]) == {
            "paths": ["request", "request/macro.load",
                      "request/sql.execute"],
            "status": 200,
            "phases": ["macro.load", "request", "sql.execute"],
            "sql": [{"cached": True, "rows": 5}]}

    def test_an_sql_error(self, inprocess):
        got = inprocess.published(REPORT.format(table="nosuch", n=1))
        check_trace_id(got)
        assert got["traces"] == 1
        assert got["spans"] == {"request": 1, "macro_load": 1,
                                "sql_execute": 1, "substitute": 1}
        assert got["statements"] == {MISSING: {
            "calls": 1, "cache_hits": 0, "rows": 0, "errors": 1}}
        logged = inprocess.logged(got["trace_id"])
        assert logged["paths"] == [
            "request", "request/macro.load", "request/sql.execute",
            "request/substitute"]
        assert logged["sql"] == [{"error": "SQLObjectError"}]

    def test_a_spilled_page(self, inprocess):
        got = inprocess.published(REPORT.format(table="items", n=ROWS))
        check_trace_id(got)
        assert got["status"] == 200
        assert got["body"].count(b"<LI>") == ROWS
        assert got["traces"] == 1
        assert got["spans"] == {"request": 1, "macro_load": 1,
                                "sql_execute": 1, "substitute": 1,
                                "report_render": 1, "emit": 1}
        assert got["statements"] == {SELECT: {
            "calls": 1, "cache_hits": 0, "rows": ROWS, "errors": 0}}
        assert inprocess.logged(got["trace_id"]) == {
            "paths": ["request", "request/emit", "request/macro.load",
                      "request/report.render", "request/sql.execute",
                      "request/substitute"],
            "status": 200,
            "phases": ["emit", "macro.load", "report.render", "request",
                       "sql.execute", "substitute"],
            "sql": [{"rows": ROWS, "streaming": True}]}


class TestAppServerHop:
    def test_a_hop_grafts_the_workers_spans(self, appserver):
        target = REPORT.format(table="items", n=6)
        cold = appserver.published(target)
        check_trace_id(cold)
        assert cold["traces"] == 1
        assert cold["spans"] == {
            "request": 1, "appserver_dispatch": 1, "worker": 1,
            "macro_load": 1, "parse": 1, "sql_execute": 1,
            "substitute": 1, "report_render": 1}
        assert cold["statements"] == {SELECT: {
            "calls": 1, "cache_hits": 0, "rows": 6, "errors": 0}}
        worker = "request/appserver.dispatch/worker"
        assert appserver.logged(cold["trace_id"]) == {
            "paths": ["request", "request/appserver.dispatch", worker,
                      f"{worker}/macro.load", f"{worker}/parse",
                      f"{worker}/report.render", f"{worker}/sql.execute",
                      f"{worker}/substitute"],
            "status": 200,
            "phases": ["appserver.dispatch", "macro.load", "parse",
                       "report.render", "request", "sql.execute",
                       "substitute", "worker"],
            "sql": [{"rows": 6}]}

        appserver.published(target)
        kept = appserver.published(target)
        check_trace_id(kept)
        assert kept["status"] == 200 and b"item6" in kept["body"]
        assert kept["traces"] == 1
        assert kept["spans"] == {
            "request": 1, "appserver_dispatch": 1, "worker": 1,
            "macro_load": 1, "sql_execute": 1}
        assert kept["statements"] == {SELECT: {
            "calls": 1, "cache_hits": 1, "rows": 6, "errors": 0}}
        assert appserver.logged(kept["trace_id"]) == {
            "paths": ["request", "request/appserver.dispatch", worker,
                      f"{worker}/macro.load", f"{worker}/sql.execute"],
            "status": 200,
            "phases": ["appserver.dispatch", "macro.load", "request",
                       "sql.execute", "worker"],
            "sql": [{"cached": True, "rows": 6}]}
