"""Unified observability: metrics, request tracing, slow-query log.

The gateway's instrument panel (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms
  with streaming p50/p95/p99, labeled families and polled subsystem
  sources, scraped at ``/metrics`` (text) and ``/statusz`` (JSON).
* :mod:`repro.obs.trace` — one record per request (its spans as flat
  rows) with one trace id end-to-end (HTTP → CGI environment →
  app-server frames → SQL layer).
* :mod:`repro.obs.sinks` — where finished records go: the metrics
  bridge, the structured request log, the ``--slow-query-ms``
  watchdog.

``configure_from_env`` is the out-of-process hook: app-server workers
and subprocess CGI runs read their observability settings from the
same environment block that carries ``REPRO_MACRO_DIR``.
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY, LabeledValues, MetricsRegistry
from repro.obs.sampling import TailSampler, parse_sample_spec
from repro.obs.sinks import (FanoutSink, MetricsBridge, SlowQueryLog,
                             TraceLog)
from repro.obs.slo import SloTracker
from repro.obs.trace import TRACER, Span, Trace, Tracer, new_trace_id

__all__ = [
    "MetricsRegistry", "REGISTRY",
    "Tracer", "TRACER", "Span", "Trace", "new_trace_id",
    "TraceLog", "SlowQueryLog", "MetricsBridge", "FanoutSink",
    "LabeledValues",
    "TailSampler", "parse_sample_spec", "SloTracker",
    "configure_from_env",
]

_configured = False


def configure_from_env(env: dict[str, str]) -> bool:
    """Configure the process-wide tracer from environment variables.

    Honoured keys (set by ``repro serve`` for its worker processes):

    ``REPRO_TRACE``
        Non-empty/non-zero enables tracing on the global tracer.
    ``REPRO_TRACE_LOG``
        Path of a JSONL trace log; every finished trace appends a line.
    ``REPRO_SLOW_QUERY_MS`` / ``REPRO_SLOW_QUERY_LOG``
        Threshold and path of the slow-query log.
    ``REPRO_TRACE_SAMPLE``
        Tail-sampling spec (see
        :func:`repro.obs.sampling.parse_sample_spec`); wraps the file
        sinks in a :class:`TailSampler` so worker trace logs stay
        bounded the same way the dispatcher's does.  The metrics
        bridge stays outside the sampler — aggregates must see every
        trace.

    Idempotent per process (workers call it once from ``build_program``;
    repeated calls are no-ops so in-process tests cannot stack sinks).
    Returns True when this call performed the configuration.
    """
    global _configured
    if _configured:
        return False
    flag = env.get("REPRO_TRACE", "").strip()
    slow_ms = env.get("REPRO_SLOW_QUERY_MS", "").strip()
    if not flag and not slow_ms:
        return False
    _configured = True
    if flag and flag != "0":
        TRACER.enable()
    file_sinks = []
    trace_log = env.get("REPRO_TRACE_LOG", "").strip()
    if trace_log:
        file_sinks.append(TraceLog(trace_log))
    threshold = None
    if slow_ms:
        try:
            threshold = float(slow_ms)
        except ValueError:
            threshold = 0.0
        slow_path = env.get("REPRO_SLOW_QUERY_LOG", "").strip()
        if slow_path:
            file_sinks.append(SlowQueryLog(slow_path, threshold))
    sample_spec = env.get("REPRO_TRACE_SAMPLE", "").strip()
    if sample_spec and file_sinks:
        try:
            kwargs = parse_sample_spec(sample_spec)
        except ValueError:
            kwargs = {}
        file_sinks = [TailSampler(*file_sinks, registry=REGISTRY,
                                  **kwargs)]
    if threshold is not None:
        TRACER.add_sink(MetricsBridge(REGISTRY, slow_query_ms=threshold))
    for sink in file_sinks:
        TRACER.add_sink(sink)
    return True
