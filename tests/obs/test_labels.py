"""Bounded-cardinality labeled metrics and their registry integration."""

import pytest

from repro.obs.metrics import (
    OTHER_LABEL,
    SOURCE_MAX_SERIES,
    LabeledValues,
    MetricsRegistry,
)


class TestLabeledValues:
    def test_inc_creates_series_per_value(self):
        family = LabeledValues("requests_by_class", "cost_class")
        family.inc("cached")
        family.inc("cached")
        family.inc("heavy", 3)
        assert family.series() == {"cached": 2, "heavy": 3}

    def test_overflow_collapses_into_other(self):
        family = LabeledValues("x", "tenant", max_series=2)
        family.inc("a")
        family.inc("b")
        family.inc("c")
        family.inc("d")
        assert family.series() == {"a": 1, "b": 1, OTHER_LABEL: 2}

    def test_existing_series_keeps_existing_past_the_cap(self):
        family = LabeledValues("x", "tenant", max_series=1)
        family.inc("a")
        family.inc("b")  # overflow
        family.inc("a")  # still its own series
        assert family.series() == {"a": 2, OTHER_LABEL: 1}

    def test_gauge_set_is_last_write_wins(self):
        family = LabeledValues("depth", "shard", kind="gauge")
        family.set("0", 5)
        family.set("0", 2)
        assert family.series() == {"0": 2}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            LabeledValues("x", "l", kind="summary")


class TestRegistryIntegration:
    def test_labeled_is_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.labeled("f", "l")
        b = registry.labeled("f", "l")
        assert a is b

    def test_family_series_ride_flat_and_snapshot(self):
        registry = MetricsRegistry()
        registry.labeled("overload_requests_by_class",
                         "cost_class").inc("cached", 4)
        sample = 'overload_requests_by_class{cost_class="cached"}'
        assert registry.flat()[sample] == 4
        assert registry.snapshot()["counters"] == {sample: 4}

    def test_labeled_source_renders_only_labeled_samples(self):
        registry = MetricsRegistry()
        registry.attach_source(
            "tenant", lambda: {"acme": {"requests_total": 9}},
            label="tenant")
        sample = 'tenant_requests_total{tenant="acme"}'
        assert registry.flat() == {sample: 9}
        assert registry.snapshot()["counters"] == {sample: 9}
        assert "tenant_acme" not in registry.render_text()

    def test_render_text_emits_both_shapes(self):
        """A live labeled family and a labeled source: one shape."""
        registry = MetricsRegistry()
        registry.labeled("requests_by_class", "cost_class").inc("heavy")
        registry.attach_source(
            "tenant", lambda: {"acme": {"requests_total": 9}},
            label="tenant")
        text = registry.render_text()
        assert "# TYPE requests_by_class counter" in text
        assert 'requests_by_class{cost_class="heavy"} 1' in text
        assert "# TYPE tenant_requests_total counter" in text
        assert 'tenant_requests_total{tenant="acme"} 9' in text
        assert "tenant_acme_requests_total" not in text

    def test_labeled_source_caps_entities_into_other(self):
        bags = {f"t{i:03}": {"requests_total": 1}
                for i in range(SOURCE_MAX_SERIES + 3)}
        registry = MetricsRegistry()
        registry.attach_source("tenant", lambda: bags, label="tenant")
        flat = registry.flat()
        assert len(flat) == SOURCE_MAX_SERIES + 1
        assert flat[f'tenant_requests_total{{tenant="{OTHER_LABEL}"}}'] == 3

    def test_empty_label_value_carries_the_unlabeled_keys(self):
        registry = MetricsRegistry()
        registry.attach_source(
            "shard", lambda: {"": {"shards": 2}, "0": {"routed": 5},
                              "1": {"routed": 7}},
            label="shard")
        assert registry.flat() == {"shard_shards": 2,
                                   'shard_routed{shard="0"}': 5,
                                   'shard_routed{shard="1"}': 7}

    def test_a_broken_labeled_source_renders_nothing(self):
        def boom():
            raise RuntimeError("bag died")
        registry = MetricsRegistry()
        registry.attach_source("tenant", boom, label="tenant")
        registry.inc("ok")
        assert registry.flat() == {"ok": 1}

    def test_label_values_are_escaped_in_the_exposition(self):
        registry = MetricsRegistry()
        registry.labeled("f", "l").inc('we"ird\nname')
        text = registry.render_text()
        assert 'f{l="we\\"ird\\nname"} 1' in text

    def test_snapshot_omits_labeled_key_when_empty(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {}, "gauges": {}, "summaries": {}}
