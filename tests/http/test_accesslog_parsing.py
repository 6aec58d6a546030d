"""CLF parsing edges and the ``#stats`` trailer round trip."""

import io

from repro.cli import main as cli_main
from repro.http.accesslog import AccessLog, LogEntry, parse_line
from repro.http.message import HttpRequest, HttpResponse
from repro.obs.metrics import MetricsRegistry


class TestParseLineEdges:
    def test_dash_size_means_unknown(self):
        entry = parse_line('host - - [01/Jan/1996:00:00:00 +0000] '
                           '"GET / HTTP/1.0" 304 -')
        assert entry is not None
        assert entry.size == -1
        assert entry.status == 304
        # and it round-trips back to "-"
        assert entry.format().endswith(" 304 -")

    def test_ident_and_user_fields_survive(self):
        entry = parse_line('10.0.0.9 ident42 alice '
                           '[01/Jan/1996:12:00:00 +0000] '
                           '"POST /cgi-bin/db2www/q.d2w/report HTTP/1.0" '
                           '200 512')
        assert entry is not None
        assert entry.ident == "ident42"
        assert entry.user == "alice"
        assert entry.method == "POST"
        assert entry.path == "/cgi-bin/db2www/q.d2w/report"

    def test_malformed_lines_are_rejected(self):
        bad = [
            "",
            "just some words",
            '#stats {"hits": 1}',
            'host - - [no closing bracket "GET / HTTP/1.0" 200 5',
            'host - - [01/Jan/1996:00:00:00 +0000] GET / HTTP/1.0 200 5',
            'host - - [01/Jan/1996:00:00:00 +0000] "GET / HTTP/1.0" 20 5',
            'host - - [01/Jan/1996:00:00:00 +0000] "GET / HTTP/1.0" abc 5',
        ]
        for line in bad:
            assert parse_line(line) is None, line

    def test_record_format_parse_round_trip(self):
        log = AccessLog()
        entry = log.record(HttpRequest(target="/x?q=1"),
                           HttpResponse(status=200, body=b"hello"),
                           remote_addr="192.0.2.7")
        parsed = parse_line(entry.format())
        assert parsed == entry
        assert parsed.size == 5

    def test_empty_request_line_properties(self):
        entry = LogEntry(host="h", request_line="", status=400, size=0,
                         when="01/Jan/1996:00:00:00 +0000")
        assert entry.method == ""
        assert entry.path == ""


class TestStatsTrailerRoundTrip:
    def make_log(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("http_requests_total", 2)
        registry.observe("request_latency_ms", 4.0)
        registry.attach_source("query_cache",
                               lambda: {"hits": 7, "misses": 3})
        log = AccessLog(tmp_path / "access.log", metrics=registry)
        log.record(HttpRequest(target="/a"), HttpResponse(body=b"xx"))
        log.record(HttpRequest(target="/b"),
                   HttpResponse(status=404, body=b"nope"))
        line = log.append_stats_note()
        assert line is not None and line.startswith("#stats {")
        return log

    def test_trailer_survives_the_clf_parser(self, tmp_path):
        log = self.make_log(tmp_path)
        lines = log.path.read_text().splitlines()
        assert parse_line(lines[-1]) is None  # CLF consumers skip it
        assert sum(1 for line in lines
                   if parse_line(line) is not None) == 2

    def test_repro_stats_reports_counters_and_latency(self, tmp_path):
        log = self.make_log(tmp_path)
        out = io.StringIO()
        assert cli_main(["stats", str(log.path)], out=out) == 0
        text = out.getvalue()
        assert "requests: 2" in text
        assert "errors: 1" in text
        # registry counters from the trailer
        assert "http_requests_total: 2" in text
        assert "query_cache_hits: 7" in text
        # the latency histogram renders as a table, not raw keys
        assert "server latency:" in text
        assert "request_latency_ms" in text
        assert "request_latency_ms_p50:" not in text

    def test_repro_stats_prints_one_table_per_label(self, tmp_path):
        log = self.make_log(tmp_path)
        registry = log.metrics
        registry.labeled("overload_requests_by_class",
                         "cost_class").inc("heavy", 2)
        registry.attach_source(
            "tenant", lambda: {"alpha": {"requests_total": 4,
                                         "denied_total": 1},
                               "beta": {"requests_total": 2}},
            label="tenant")
        registry.attach_source(
            "shard", lambda: {"": {"shards": 2}, "0": {"routed": 5},
                              "1": {"routed": 7, "failures": 1}},
            label="shard")
        log.append_stats_note()
        out = io.StringIO()
        assert cli_main(["stats", str(log.path)], out=out) == 0
        text = out.getvalue()
        for label in ("cost_class", "shard", "tenant"):
            assert text.count(f"\nby {label}:\n") == 1
        tenant_table = text.split("\nby tenant:\n")[1].splitlines()
        assert tenant_table[0].split() == [
            "tenant", "tenant_denied_total", "tenant_requests_total"]
        assert tenant_table[1].split() == ["alpha", "1", "4"]
        assert tenant_table[2].split() == ["beta", "0", "2"]
        assert "  shard_shards: 2" in text  # unlabeled: a plain counter
        assert "{" not in text  # no raw sample names leak through

    def test_later_trailers_supersede_earlier_ones(self, tmp_path):
        log = self.make_log(tmp_path)
        log.metrics.inc("http_requests_total", 5)
        log.append_stats_note()
        out = io.StringIO()
        assert cli_main(["stats", str(log.path)], out=out) == 0
        assert "http_requests_total: 7" in out.getvalue()
