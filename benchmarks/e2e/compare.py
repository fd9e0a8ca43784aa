"""Compare two result sets of ``run.py``: one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base.  Each row gives both medians, the ratio B/A, by what
share of A's median B is worse, the bound from ``BENCHMARK.json`` and a
verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound and the two sets of runs overlap, so the runs cannot tell.

Exits 1 on any ``regressed`` and 2 when the two sets were not measured the
same way (different core count, kernel backends, window or tracing), since
their difference would then say nothing about the code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from e2e_stats import worse_by  # noqa: E402

#: Provenance fields that must agree before two result sets are comparable.
MUST_MATCH = ("nproc", "backend", "backends", "seconds", "traced")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def incomparable(base: dict, new: dict) -> list:
    """Names of provenance fields on which the two result sets differ."""
    return [field for field in MUST_MATCH
            if base["provenance"].get(field) != new["provenance"].get(field)]


def values_of(results: dict, workload: str, metric: str) -> list:
    return [run["end_to_end"][metric] for run in results["runs"]
            if run["workload"] == workload]


def verdict(base: list, new: list, better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one (workload, metric)."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    widest = max((max(values) - min(values)) / statistics.median(values)
                 for values in (base, new))
    apart = min(new) > max(base) or max(new) < min(base)
    if widest > bound and not apart:
        return "unresolved"
    return "regressed" if worse_by(base_median, new_median, better) > bound else "ok"


def compare(base: dict, new: dict, spec: dict) -> list:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = values_of(base, workload, metric["name"])
            b = values_of(new, workload, metric["name"])
            if not a or not b:
                continue
            a_median, b_median = statistics.median(a), statistics.median(b)
            rows.append({
                "workload": workload, "metric": metric["name"],
                "base": a_median, "new": b_median,
                "ratio": b_median / a_median if a_median else float("nan"),
                "worse_by": worse_by(a_median, b_median, metric["better"]),
                "bound": metric["bound"], "runs": (len(a), len(b)),
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="results JSON of the base (A)")
    parser.add_argument("new", help="results JSON of the change (B)")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    differing = incomparable(base, new)
    if differing:
        print(f"refusing to compare: {', '.join(differing)} differ between "
              f"{args.base} and {args.new}", file=sys.stderr)
        return 2
    spec = load(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                             "BENCHMARK.json"))
    rows = compare(base, new, spec)
    print(f"{'workload':26s} {'metric':16s} {'A median':>11s} {'B median':>11s} "
          f"{'B/A':>7s} {'worse by':>9s} {'bound':>6s} {'runs':>5s}  verdict")
    for row in rows:
        print(f"{row['workload']:26s} {row['metric']:16s} "
              f"{row['base']:11.4g} {row['new']:11.4g} "
              f"{row['ratio']:6.3f}x {row['worse_by']:+9.1%} "
              f"{row['bound']:6.0%} {row['runs'][0]}/{row['runs'][1]:<3d}  "
              f"{row['verdict']}")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"\n{len(rows)} cells: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved (ratios are B/A, base = A = {args.base})")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
