"""Self-tests of the benchmark's instrument (not of ``src/repro``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not collected by the tier-1 run, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import httpclient  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

DECLARATION = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- inputs are a pure function of the seed --------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sequence_and_schedule_depend_only_on_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.sequence(workload, 7, "closed", 300)
    assert first == workloads.sequence(workload, 7, "closed", 300)
    assert first != workloads.sequence(workload, 8, "closed", 300)
    assert first != workloads.sequence(workload, 7, "open", 300)
    arrivals = workloads.poisson_schedule(7, workload, 300)
    assert arrivals == workloads.poisson_schedule(7, workload, 300)
    assert arrivals != workloads.poisson_schedule(8, workload, 300)
    assert arrivals == sorted(arrivals)
    mean_gap = arrivals[-1] / len(arrivals)
    assert mean_gap == pytest.approx(1.0 / workload.open_rate, rel=0.25)


def test_report_warmup_touches_every_variant_whatever_the_seed():
    workload = workloads.WORKLOADS["report_hot"]
    warmup = workloads.warmup_sequence(workload, 123)
    assert set(warmup) == set(workloads.HOT_VARIANTS)
    assert len(workloads.HOT_VARIANTS) == 16
    assert len(workloads.LARGE_VARIANTS) == 4


def test_orders_mix_is_reads_and_form_posts():
    workload = workloads.WORKLOADS["orders_mixed"]
    requests = workloads.sequence(workload, 96, "closed", 4000)
    entries = [r for r in requests if r.kind == "entry"]
    assert 0.03 < len(entries) / len(requests) < 0.05
    assert all(r.method == "POST" and r.content_type == workloads.FORM
               and b"order_cust=" in r.body for r in entries)
    searches = [r for r in requests if r.kind == "search"]
    assert all(r.method == "GET" and "cust_inp=" in r.target
               for r in searches)
    # Zipf(1.0): the first customer is asked for far more than the last.
    hits = [sum(f"cust_inp={c}" in r.target for r in searches)
            for c in (10100, 14000)]
    assert hits[0] > 5 * max(1, hits[1])


def test_scaling_keeps_whole_slices_and_one_common_factor():
    workload = workloads.WORKLOADS["report_hot"].scaled(0.5)
    assert workload.closed_count == 8000
    assert workload.open_count == 1504
    assert workload.open_rate == 250.0
    assert workload.warmup_count == 100
    slices = workloads.LAUNCHES * workloads.SLICES_PER_LAUNCH
    assert slices >= 6 and workload.closed_count % slices == 0
    tiny = workloads.WORKLOADS["report_large"].scaled(0.01, slices=4)
    assert tiny.closed_count == 80 and tiny.open_count == 80


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in DECLARATION["workloads"]] \
        == list(workloads.WORKLOADS)
    declared = {m["name"] for m in DECLARATION["per_layer"]}
    assert {f"{layer}.self_us" for layer in layers.LAYERS} <= declared


# -- slice and percentile arithmetic ---------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_slices_are_equal_and_consecutive():
    assert stats.split_slices(list(range(10)), 3) \
        == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    with pytest.raises(ValueError):
        stats.split_slices([1, 2], 3)


def test_rate_slices_and_median_ignore_one_bad_slice():
    # 100 completions per boundary; the third slice stalls.
    rates = stats.rate_slices([0.0, 1.0, 2.0, 6.0, 7.0], 100)
    assert rates == [100.0, 100.0, 25.0, 100.0]
    assert stats.median(rates) == 100.0


def test_relative_iqr_matches_the_acceptance_rule():
    import statistics
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.relative_iqr(values) == pytest.approx(
        (third - first) / statistics.median(values))
    assert stats.relative_iqr([3.0]) == 0.0


# -- span self time --------------------------------------------------------

class FakeClock:
    """Each reading advances by the next scripted step."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "_clock", fake)
    return fake


def test_self_time_is_busy_minus_children(clock):
    recorder = spans.Recorder()

    class Layered:
        def outer(self):
            clock.advance(2.0)
            self.inner()
            self.inner()
            clock.advance(1.0)

        def inner(self):
            clock.advance(3.0)

    assert recorder.wrap(Layered, "outer", "top")
    assert recorder.wrap(Layered, "inner", "leaf")
    try:
        Layered().outer()
    finally:
        recorder.unwrap_all()
    table = recorder.totals_by_name()
    assert table["top"] == {"self": 3.0, "busy": 9.0, "count": 1}
    assert table["leaf"] == {"self": 6.0, "busy": 6.0, "count": 2}
    assert [s.parent for s in recorder.spans] == [None, 0, 0]
    assert sum(recorder.self_times().values()) == 9.0
    # unwrap_all restored the class
    clock.now = 0.0
    Layered().outer()
    assert len(recorder.spans) == 3


def test_generator_span_counts_resume_time_only(clock):
    recorder = spans.Recorder()
    finished = []

    class Engine:
        def execute(self):
            total = 0
            for row in self.render(3):
                clock.advance(10.0)     # the consumer's time, not render's
                total += row
            return total

        def render(self, rows):
            clock.advance(1.0)          # set-up before the first row
            return self._rows(rows)

        def _rows(self, rows):
            for row in range(rows):
                clock.advance(2.0)
                self.fetch()
                yield row

        def fetch(self):
            clock.advance(0.5)

    recorder.wrap(Engine, "execute", "core.execute")
    recorder.wrap(Engine, "render", "core.render", generator=True,
                  on_done=lambda _self, rows: finished.append(rows))
    recorder.wrap(Engine, "fetch", "sql.backend")
    try:
        assert Engine().execute() == 3
    finally:
        recorder.unwrap_all()
    table = recorder.totals_by_name()
    # render: 1.0 set-up + 3 resumes of 2.5; one span, not one per row
    assert table["core.render"]["count"] == 1
    assert table["core.render"]["busy"] == pytest.approx(8.5)
    assert table["core.render"]["self"] == pytest.approx(7.0)
    assert table["sql.backend"]["busy"] == pytest.approx(1.5)
    # execute: 38.5 in all, minus render's 8.5 -> the consumer's 30
    assert table["core.execute"]["busy"] == pytest.approx(38.5)
    assert table["core.execute"]["self"] == pytest.approx(30.0)
    render = next(s for s in recorder.spans if s.name == "core.render")
    assert all(s.parent == render.span_id
               for s in recorder.spans if s.name == "sql.backend")
    assert finished == [3]


def test_wrapping_a_missing_name_is_reported_not_raised():
    recorder = spans.Recorder()

    class Shrunk:
        pass

    assert recorder.wrap(Shrunk, "gone", "http.parse") is False
    assert recorder.wrap(None, "parse", "http.router") is False
    assert recorder.missing == ["http.parse", "http.router"]


def test_classmethods_stay_classmethods(clock):
    recorder = spans.Recorder()

    class Message:
        @classmethod
        def parse(cls, raw):
            clock.advance(1.0)
            return cls, raw

    recorder.wrap(Message, "parse", "http.parse")
    try:
        assert Message.parse(b"x") == (Message, b"x")
    finally:
        recorder.unwrap_all()
    assert recorder.totals_by_name()["http.parse"]["busy"] == 1.0
    assert isinstance(Message.__dict__["parse"], classmethod)


# -- the HTTP client -------------------------------------------------------

class CannedSocket:
    """Replays scripted bytes in small pieces, like a slow peer."""

    def __init__(self, reply: bytes, piece: int = 7):
        self.reply = reply
        self.piece = piece
        self.sent = b""
        self.closed = False

    def sendall(self, data):
        self.sent += data

    def recv(self, _size):
        data, self.reply = self.reply[:self.piece], self.reply[self.piece:]
        return data

    def close(self):
        self.closed = True


def canned(*replies: bytes):
    sockets = [CannedSocket(reply) for reply in replies]
    made = iter(sockets)
    conn = httpclient.HttpConnection("h", 1, connect=lambda: next(made))
    return conn, sockets


def test_client_reads_content_length_and_keeps_the_connection():
    conn, socks = canned(
        b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
        b"Connection: Keep-Alive\r\n\r\nhello"
        b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno")
    assert conn.request("GET", "/a") == (200, b"hello")
    assert conn.request("POST", "/b", b"x=1", workloads.FORM) == (404, b"no")
    assert conn.reconnects == 0
    assert socks[0].sent.startswith(b"GET /a HTTP/1.1\r\nHost: h:1\r\n\r\n")
    assert b"Content-Length: 3\r\n\r\nx=1" in socks[0].sent


def test_client_reads_chunked_with_trailer():
    conn, _ = canned(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"4\r\nWiki\r\n6;ext=1\r\npedia \r\n0\r\nX-T: 1\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n!")
    assert conn.request("GET", "/") == (200, b"Wikipedia ")
    assert conn.request("GET", "/") == (200, b"!")


def test_client_reconnects_after_connection_close_and_counts_it():
    conn, socks = canned(
        b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nConnection: close"
        b"\r\n\r\na",
        b"HTTP/1.0 200 OK\r\n\r\nclose-delimited body")
    assert conn.request("GET", "/") == (200, b"a")
    assert socks[0].closed and conn.reconnects == 1
    # HTTP/1.0 without a length: the close is the framing
    assert conn.request("GET", "/") == (200, b"close-delimited body")
    assert conn.reconnects == 2


def test_client_raises_on_a_truncated_reply_and_drops_the_socket():
    conn, socks = canned(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort")
    with pytest.raises(httpclient.HttpError):
        conn.request("GET", "/")
    assert socks[0].closed


# -- the output check ------------------------------------------------------

def test_verifier_checks_status_length_and_hash():
    import hashlib
    page = workloads.HOT_VARIANTS[0]
    body = b"<HTML>report</HTML>"
    verify = loadgen.Verifier(
        {page.target: (len(body), hashlib.sha1(body).hexdigest())})
    assert verify(page, 200, body)
    assert not verify(page, 500, body)
    assert not verify(page, 200, body[:-1] + b"?")
    assert not verify(workloads.HOT_VARIANTS[1], 200, body)   # no expectation
    verify.abandoned(page, httpclient.HttpError("gone"))
    assert (verify.attempted, verify.failed) == (5, 4)
    assert "-> 500" in verify.first_failure


def test_verifier_checks_order_pages_by_trailer():
    verify = loadgen.Verifier({})
    search = workloads.Request("GET", "/s", kind="search")
    entry = workloads.Request("POST", "/e", b"", kind="entry")
    assert verify(search, 200, b"<TABLE></TABLE>\n<P>0 order(s) matched.</P>")
    assert not verify(search, 200, b"<P>Order search failed: x</P>")
    assert verify(entry, 200, b"<P>Order recorded for customer 10100.</P>"
                              b"<P>Audit trail written.</P>")
    assert not verify(entry, 200, b"<P>Order recorded for customer 1.</P>")
    assert verify.entries == 2 and verify.failed == 2


# -- --compare -------------------------------------------------------------

#: A declaration with fixed bounds, so these tests do not move when the
#: real bounds in BENCHMARK.json are retuned.
BOUNDS = {"end_to_end": [
    {"name": "throughput_rps", "unit": "req/s", "better": "higher",
     "bound": 0.1},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.1},
]}


def _result(throughput_slices, error_rate=0.0, latency=1.0):
    e2e = {"throughput_rps": {"value": stats.median(throughput_slices),
                              "slices": throughput_slices},
           "latency_p50_ms": {"value": latency, "slices": [latency]}}
    return {"quick": False, "workloads": {
        "report_hot": {"end_to_end": e2e, "error_rate": error_rate}}}


def _verdict(a, b, metric="throughput_rps"):
    rows = compare.compare(a, b, BOUNDS)
    return next(r for r in rows if r["metric"] == metric)["verdict"]


def test_compare_verdicts():
    steady = _result([100.0, 101.0, 99.0, 100.0])
    assert _verdict(steady, _result([98.0, 99.0, 97.0, 98.0])) == "ok"
    assert _verdict(steady, _result([80.0, 81.0, 79.0, 80.0])) == "regressed"
    # higher is better for throughput: a gain is never a regression
    assert _verdict(steady, _result([150.0, 151.0, 149.0, 150.0])) == "ok"
    noisy = _result([60.0, 100.0, 140.0, 100.0])
    assert _verdict(steady, noisy) == "unresolved"
    # ... unless every slice of B beats every slice of A
    assert _verdict(steady, _result([200.0, 300.0, 400.0, 300.0])) == "ok"
    assert _verdict(steady, _result([100.0] * 4, error_rate=0.01),
                    "error_rate") == "regressed"
    # lower is better for latency
    assert _verdict(steady, _result([100.0] * 4, latency=1.2),
                    "latency_p50_ms") == "regressed"
    assert _verdict(steady, _result([100.0] * 4, latency=0.5),
                    "latency_p50_ms") == "ok"


def test_compare_refuses_quick_results(tmp_path, capsys):
    quick = dict(_result([1.0, 1.0]), quick=True)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(quick))
    b.write_text(json.dumps(_result([1.0, 1.0])))
    assert compare.main(a, b, BOUNDS) == 2
    assert "never compared" in capsys.readouterr().out


# -- reference pace --------------------------------------------------------

def test_readings_are_brought_to_reference_pace():
    import run
    entry = run.at_reference_pace([10.0, 12.0, 30.0], [1.0, 1.2, 1.5])
    assert entry["slices"] == pytest.approx([10.0, 10.0, 20.0])
    assert (entry["value"], entry["raw"]) == (pytest.approx(10.0), 12.0)
    rates = run.at_reference_pace([100.0, 80.0], [1.0, 1.25], rate=True)
    assert rates["slices"] == pytest.approx([100.0, 100.0])
    best = run.at_reference_pace([3.0, 2.0, 9.0], [1.0, 1.0, 1.0], best=True)
    assert (best["value"], best["raw"]) == (2.0, 2.0)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the probe pins itself to a core")
def test_pace_probe_samples_the_core_and_stops():
    import time

    import pace
    core = sorted(os.sched_getaffinity(0))[0]
    with pace.PaceProbe([core]) as probe:
        began = time.perf_counter()
        deadline = began + 10.0
        while probe.pace(began, float("inf")) is None \
                and time.perf_counter() < deadline:
            time.sleep(0.05)
        reading = probe.pace(began, float("inf"))
        assert reading is not None and 0.05 < reading < 50.0
        assert probe.pace(began + 1e6, began + 2e6) is None
    assert all(proc.poll() is not None for proc in probe._procs)
