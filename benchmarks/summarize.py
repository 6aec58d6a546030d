#!/usr/bin/env python3
"""Summarise a benchmark run into one experiment report.

Usage::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python benchmarks/summarize.py bench.json > benchmarks/out/SUMMARY.txt

Groups the pytest-benchmark results by experiment id (the ``bench_*``
file prefix mapped through DESIGN.md's experiment index), appends the
regenerated artifacts, and prints a single text report — the
"reviewer's packet" for EXPERIMENTS.md.

As a side effect it writes ``benchmarks/out/BENCH_perf.json``: the
PERF-* experiment means plus the speedup ratios parsed from the
compiled-template and query-cache artifacts, in a machine-readable form
CI can diff against a baseline.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"

#: bench file prefix -> (experiment id, one-line description)
EXPERIMENTS = {
    "bench_fig1": ("FIG1", "Web architecture: full-stack request"),
    "bench_fig2": ("FIG2", "Sample HTML input form generation"),
    "bench_fig3": ("FIG3", "Client-side form fill + submission"),
    "bench_fig4": ("FIG4", "CGI data flow (GET vs POST)"),
    "bench_fig5": ("FIG5", "Macro authoring: parse/unparse/load"),
    "bench_fig6": ("FIG6", "Runtime flow: input + report modes"),
    "bench_fig7": ("FIG7/8", "Appendix A input and report pages"),
    "bench_s313": ("EX-S313", "Section 3.1.3 WHERE-clause assembly"),
    "bench_cmp6": ("CMP6", "Five-gateway comparison"),
    "bench_txn5": ("TXN5", "Transaction modes under failure"),
    "bench_perf_substitution": ("PERF-SUB", "Substitution scaling"),
    "bench_perf_report": ("PERF-RPT", "Report scaling"),
    "bench_perf_end": ("PERF-E2E", "Execution-mode latency"),
    "bench_perf_appserver": ("PERF-APPSRV",
                             "App-server gateway + streaming"),
    "bench_perf_concurrency": ("PERF-CONC", "Concurrent clients"),
    "bench_ext_scrollable": ("EXT-PAGE", "Scrollable cursor paging"),
    "bench_ext_keepalive": ("EXT-KEEPALIVE", "Persistent connections"),
    "bench_resilience": ("RES", "Degraded-backend resilience"),
    "bench_abl": ("ABL", "Design-choice ablations"),
    "bench_oracle_row": ("ORACLE-ROW",
                         "Row specialiser vs interpreter, 3000 macros"),
}


def experiment_for(fullname: str) -> tuple[str, str]:
    filename = fullname.split("::")[0].rsplit("/", 1)[-1]
    # Longest prefix wins (bench_ext_keepalive vs bench_ext_...).
    best = None
    for prefix, info in EXPERIMENTS.items():
        if filename.startswith(prefix):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, info)
    if best is not None:
        return best[1]
    return ("?", filename)


#: artifact file -> key under "speedups" in BENCH_perf.json
_SPEEDUP_ARTIFACTS = {
    "perf_compiled_speedup.txt": "compiled_report_rows_per_sec",
    "perf_query_cache.txt": "query_cache_requests_per_sec",
    "perf_appserver.txt": "appserver_requests_per_sec",
}


def _parse_speedup(path: Path) -> float | None:
    """The ``speedup: N.NNx`` line of one perf artifact, if present."""
    for line in path.read_text().splitlines():
        if line.startswith("speedup:"):
            try:
                return float(line.split(":", 1)[1].strip().rstrip("x"))
            except ValueError:
                return None
    return None


def write_perf_baseline(groups: dict[str, list[tuple[str, float]]],
                        machine: dict) -> Path:
    """Emit BENCH_perf.json: PERF-* means + artifact speedup ratios."""
    perf = {
        exp_id: {name: round(mean_ms, 4)
                 for name, mean_ms in sorted(benches)}
        for exp_id, benches in sorted(groups.items())
        if exp_id.startswith("PERF")
    }
    speedups = {}
    for filename, key in _SPEEDUP_ARTIFACTS.items():
        path = OUT_DIR / filename
        if path.is_file():
            ratio = _parse_speedup(path)
            if ratio is not None:
                speedups[key] = ratio
    payload = {
        "machine": {
            "python_version": machine.get("python_version", "?"),
            "system": machine.get("system", "?"),
            "machine": machine.get("machine", "?"),
        },
        "mean_ms": perf,
        "speedups": speedups,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "BENCH_perf.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    return out_path


def summarize(json_path: str) -> str:
    data = json.loads(Path(json_path).read_text())
    groups: dict[str, list[tuple[str, float]]] = {}
    descriptions: dict[str, str] = {}
    for bench in data.get("benchmarks", []):
        exp_id, description = experiment_for(bench["fullname"])
        descriptions[exp_id] = description
        groups.setdefault(exp_id, []).append(
            (bench["name"], bench["stats"]["mean"] * 1e3))
    lines = ["EXPERIMENT SUMMARY", "=" * 70, ""]
    machine = data.get("machine_info", {})
    lines.append(
        f"python {machine.get('python_version', '?')} on "
        f"{machine.get('system', '?')} ({machine.get('machine', '?')})")
    lines.append("")
    for exp_id in sorted(groups):
        lines.append(f"{exp_id} — {descriptions[exp_id]}")
        for name, mean_ms in sorted(groups[exp_id],
                                    key=lambda item: item[1]):
            lines.append(f"    {name:<55} {mean_ms:>10.3f} ms")
        lines.append("")
    baseline = write_perf_baseline(groups, machine)
    lines.append(f"perf baseline written to {baseline}")
    lines.append("")
    artifacts = sorted(OUT_DIR.glob("*.txt")) if OUT_DIR.is_dir() else []
    if artifacts:
        lines.append("REGENERATED ARTIFACTS")
        lines.append("=" * 70)
        for path in artifacts:
            lines.append("")
            lines.append(f"--- {path.name} ---")
            lines.append(path.read_text().rstrip())
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.stdout.write(summarize(sys.argv[1]))
