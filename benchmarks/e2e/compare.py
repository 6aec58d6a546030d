"""``--compare A.json B.json``: is B worse than A by more than a bound?

For every workload and end-to-end metric: both values, the relative
change (positive = B worse), the bound ``BENCHMARK.json`` fixes, and a
verdict:

``ok``          B is not worse than A by more than the bound
``regressed``   it is
``unresolved``  the spread between the slices of either run is wider
                than the bound, so the two medians cannot settle it —
                unless every slice of B reads better than every slice
                of A, which settles it as ``ok``

``error_rate`` has no bound: any rise is a regression.  Quick results
are refused; they exist for smoke runs only.
"""

from __future__ import annotations

import json
from pathlib import Path

import stats


def worse_by(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``, signed so positive is worse."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    spread = max(stats.relative_iqr(a["slices"]),
                 stats.relative_iqr(b["slices"]))
    if spread > bound:
        if better == "lower":
            clear_win = max(b["slices"]) < min(a["slices"])
        else:
            clear_win = min(b["slices"]) > max(a["slices"])
        return "ok" if clear_win else "unresolved"
    if worse_by(a["value"], b["value"], better) > bound:
        return "regressed"
    return "ok"


def compare(a: dict, b: dict, declaration: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both."""
    rows = []
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None or "end_to_end" not in run_a \
                or "end_to_end" not in run_b:
            continue
        for metric in declaration["end_to_end"]:
            key = metric["name"]
            one, two = run_a["end_to_end"][key], run_b["end_to_end"][key]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "a": one["value"], "b": two["value"],
                "worse_by": worse_by(one["value"], two["value"],
                                     metric["better"]),
                "bound": metric["bound"],
                "verdict": verdict(one, two, metric["better"],
                                   metric["bound"]),
            })
        rows.append({
            "workload": name, "metric": "error_rate", "unit": "fraction",
            "a": run_a["error_rate"], "b": run_b["error_rate"],
            "worse_by": run_b["error_rate"] - run_a["error_rate"],
            "bound": 0.0,
            "verdict": "regressed"
            if run_b["error_rate"] > run_a["error_rate"] else "ok",
        })
    return rows


def main(path_a: Path, path_b: Path, declaration: dict) -> int:
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    if a.get("quick") or b.get("quick"):
        print("error: quick results are never compared; run without "
              "--quick")
        return 2
    rows = compare(a, b, declaration)
    print(f"{'workload':<14} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<20} "
              f"{row['a']:>12.4f} {row['b']:>12.4f} "
              f"{100 * row['worse_by']:>8.2f}% {100 * row['bound']:>5.0f}%  "
              f"{row['verdict']}")
    bad = [row for row in rows if row["verdict"] != "ok"]
    print(f"{len(rows)} comparisons, {len(bad)} not ok")
    return 1 if bad else 0
