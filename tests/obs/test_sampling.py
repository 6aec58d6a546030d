"""Tail-based trace sampling: keep what matters, bound the rest."""

import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.sampling import TailSampler, parse_sample_spec
from repro.obs.trace import Span


def make_root(*, name="request", duration_ms=1.0, attrs=None,
              digests=(), error_in_child=False):
    """A deterministic finished span tree (synthetic clock)."""
    rows = [[name, -1, 0, round(duration_ms * 1000), dict(attrs or {})]]
    for digest in digests:
        rows.append(["sql.execute", 0, 0, 500, {"digest": digest}])
    if error_in_child:
        rows.append(["sql.execute", 0, 0, 500, {"error": "SQLError"}])
    return Span.from_rows(rows, "t")


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestParseSampleSpec:
    def test_bare_on_takes_defaults(self):
        assert parse_sample_spec("on") == {}
        assert parse_sample_spec("1") == {}
        assert parse_sample_spec("") == {}

    def test_full_spec(self):
        assert parse_sample_spec(
            "slo_ms=250, per_key=3, window_s=30, head=0.01") == {
            "slo_ms": 250.0, "per_key": 3, "window_s": 30.0,
            "head_probability": 0.01}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_sample_spec("rate=0.5")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="key=number"):
            parse_sample_spec("slo_ms=fast")


class TestDecision:
    def test_error_anywhere_in_the_tree_is_kept(self):
        sampler = TailSampler(per_key=0)
        keep, reason = sampler.decide(
            make_root(digests=["d1"], error_in_child=True))
        assert (keep, reason) == (True, "error")

    def test_5xx_status_is_kept(self):
        sampler = TailSampler(per_key=0)
        keep, reason = sampler.decide(
            make_root(attrs={"status": 503}))
        assert (keep, reason) == (True, "error")

    def test_over_slo_root_is_kept(self):
        sampler = TailSampler(slo_ms=100.0, per_key=0)
        keep, reason = sampler.decide(make_root(duration_ms=250.0))
        assert (keep, reason) == (True, "over_slo")
        keep, _ = sampler.decide(make_root(duration_ms=10.0))
        assert not keep

    def test_reservoir_keeps_the_first_n_per_digest_set(self):
        clock = FakeClock()
        sampler = TailSampler(per_key=2, window_s=60.0, clock=clock)
        decisions = [sampler.decide(make_root(digests=["d1"]))
                     for _ in range(4)]
        assert [keep for keep, _ in decisions] == \
            [True, True, False, False]
        # a different digest set owns its own reservoir
        keep, reason = sampler.decide(make_root(digests=["d2"]))
        assert (keep, reason) == (True, "reservoir")

    def test_reservoir_window_resets(self):
        clock = FakeClock()
        sampler = TailSampler(per_key=1, window_s=60.0, clock=clock)
        assert sampler.decide(make_root(digests=["d1"]))[0]
        assert not sampler.decide(make_root(digests=["d1"]))[0]
        clock.now += 61.0
        assert sampler.decide(make_root(digests=["d1"]))[0]

    def test_spanless_requests_reservoir_on_target(self):
        sampler = TailSampler(per_key=1)
        keep, reason = sampler.decide(
            make_root(attrs={"target": "/page"}))
        assert (keep, reason) == (True, "reservoir")
        assert not sampler.decide(
            make_root(attrs={"target": "/page"}))[0]

    def test_head_probability_is_the_fallthrough(self):
        sampler = TailSampler(per_key=0, head_probability=1.0,
                              rng=random.Random(7))
        keep, reason = sampler.decide(make_root())
        assert (keep, reason) == (True, "head")
        sampler = TailSampler(per_key=0, head_probability=0.0)
        assert not sampler.decide(make_root())[0]


class TestSinkSurface:
    def test_kept_traces_forward_to_wrapped_sinks(self):
        captured = []
        sampler = TailSampler(captured.append, per_key=1)
        sampler(make_root(digests=["d1"]))
        sampler(make_root(digests=["d1"]))  # reservoir full: dropped
        assert len(captured) == 1
        stats = sampler.stats()
        assert stats["kept_total"] == 1
        assert stats["kept_reservoir"] == 1
        assert stats["dropped_total"] == 1

    def test_broken_wrapped_sink_is_swallowed(self):
        def boom(root):
            raise RuntimeError("sink died")
        captured = []
        sampler = TailSampler(boom, captured.append, per_key=1)
        sampler(make_root(digests=["d1"]))
        assert len(captured) == 1

    def test_registry_counters_track_the_decisions(self):
        registry = MetricsRegistry()
        sampler = TailSampler(lambda root: None, per_key=1,
                              registry=registry)
        sampler(make_root(digests=["d1"]))
        sampler(make_root(digests=["d1"]))
        flat = registry.flat()
        assert flat["trace_sampler_kept_total"] == 1
        assert flat["trace_sampler_dropped_total"] == 1
