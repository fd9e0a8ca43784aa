#!/usr/bin/env python
"""Schema check for the BENCH trajectory files.

Every ``BENCH_*.json`` holds ``{"records": [...]}`` where each record must
carry the keys the trajectory tooling pivots on — one from each group:

* identity:  ``op`` or ``model``
* workload:  ``shape`` or ``batch``
* rate:      ``ns_per_op`` or ``req_per_s``

Emitters may (and do) record richer fields alongside — ``offered_batch``,
``speedup_vs_sequential``, ``workers`` — but the canonical spellings above
must always be present so cross-benchmark tooling never needs per-file
adapters.  Run with explicit paths or no arguments (discovers
``benchmarks/BENCH_*.json`` relative to the repository root):

    python tools/check_bench_schema.py
    python tools/check_bench_schema.py benchmarks/BENCH_kernels_micro.json
"""

import glob
import json
import os
import sys

#: Each record must contain at least one key from every group.
KEY_GROUPS = (
    ("op", "model"),
    ("shape", "batch"),
    ("ns_per_op", "req_per_s"),
)

#: Optional per-record ``backend`` field (kernel backend the record was
#: measured with, e.g. BENCH_compiled_backend.json).  When present it must
#: name a registered backend — kept in lockstep with
#: ``repro.core.backends.BACKEND_CHOICES`` without importing the package.
BACKEND_VALUES = frozenset({"auto", "numpy", "cffi"})

#: Extra required keys for specific ``op`` values.  ``chaos`` records
#: (BENCH_chaos.json) must carry the full request accounting — the file's
#: claim is "no request was lost under fault injection", which is only
#: checkable when every bucket is recorded — plus the correctness verdict.
OP_REQUIRED_KEYS = {
    "chaos": ("scenario", "seed", "offered", "completed", "shed",
              "deadline_expired", "failed", "retries", "hedges",
              "quarantined", "respawns", "faults_fired", "bit_identical"),
    "scenario": ("scenario", "seed", "offered", "completed", "shed",
                 "deadline_expired", "failed", "per_class", "digest",
                 "replay_identical", "bit_identical"),
    "rollout": ("scenario", "seed", "workers", "offered", "completed",
                "bit_identical"),
}

#: Fault scenarios a chaos record may name: the fault classes of
#: ``repro.serving.faults`` plus the fault-free control and the combined
#: run — kept in lockstep without importing the package.
CHAOS_SCENARIOS = frozenset({
    "baseline", "delay", "drop", "duplicate", "stall", "crash",
    "partition", "slow_start", "mixed",
})

#: Multi-tenant scenarios a scenario record may name: the bundled specs of
#: ``repro.serving.scenarios`` plus the bench's overload pass — kept in
#: lockstep without importing the package.
SCENARIO_NAMES = frozenset({
    "steady_mix", "diurnal", "flash_crowd", "multi_burst", "slow_drip",
    "flash_crowd_overload",
})

#: SLO classes a scenario record's per_class buckets may use.
SLO_CLASSES = frozenset({"interactive", "standard", "batch"})

#: Rollout drills a rollout record may name (BENCH_rollout.json) and the
#: terminal phase each one must land in — a "commit" record that rolled
#: back (or vice versa) means the drill did not exercise what it claims.
ROLLOUT_EXPECTED_PHASE = {
    "commit": "committed",
    "divergent": "rolled_back",
    "operator": "rolled_back",
}
ROLLOUT_SCENARIOS = frozenset(ROLLOUT_EXPECTED_PHASE) | {"cache_uniformity"}


def check_file(path: str) -> list:
    """Return a list of problem strings for one BENCH file."""
    problems = []
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    records = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(records, list) or not records:
        return [f"{path}: expected a non-empty {{'records': [...]}} payload"]
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            problems.append(f"{path}: record {index} is not an object")
            continue
        for group in KEY_GROUPS:
            if not any(key in record for key in group):
                problems.append(
                    f"{path}: record {index} is missing every one of "
                    f"{'/'.join(group)} (keys: {sorted(record)})"
                )
        backend = record.get("backend")
        if backend is not None and backend not in BACKEND_VALUES:
            problems.append(
                f"{path}: record {index} has unknown backend {backend!r} "
                f"(expected one of {sorted(BACKEND_VALUES)})"
            )
        required = OP_REQUIRED_KEYS.get(record.get("op"))
        if required:
            missing = [key for key in required if key not in record]
            if missing:
                problems.append(
                    f"{path}: record {index} (op={record['op']!r}) is "
                    f"missing {'/'.join(missing)}"
                )
        if record.get("op") == "chaos":
            scenario = record.get("scenario")
            if scenario is not None and scenario not in CHAOS_SCENARIOS:
                problems.append(
                    f"{path}: record {index} has unknown chaos scenario "
                    f"{scenario!r} (expected one of {sorted(CHAOS_SCENARIOS)})"
                )
            accounted = sum(record.get(key, 0) or 0 for key in
                            ("completed", "shed", "deadline_expired",
                             "failed"))
            if "offered" in record and accounted != record["offered"]:
                problems.append(
                    f"{path}: record {index} loses requests: "
                    f"completed+shed+deadline_expired+failed = {accounted} "
                    f"!= offered = {record['offered']}"
                )
            if record.get("bit_identical") is not True:
                problems.append(
                    f"{path}: record {index} ({scenario}) is not "
                    "bit_identical — a chaos record must never land with "
                    "diverged outputs"
                )
        if record.get("op") == "scenario":
            problems.extend(
                f"{path}: record {index} {problem}"
                for problem in _check_scenario_record(record)
            )
        if record.get("op") == "rollout":
            problems.extend(
                f"{path}: record {index} {problem}"
                for problem in _check_rollout_record(record)
            )
    problems.extend(
        f"{path}: {problem}"
        for problem in _check_rollout_uniformity(
            [r for r in records if isinstance(r, dict)
             and r.get("op") == "rollout"
             and r.get("scenario") == "cache_uniformity"])
    )
    return problems


def _check_rollout_record(record: dict) -> list:
    """Rollout-specific rules: known drills, conservation, phase."""
    problems = []
    scenario = record.get("scenario")
    if scenario is not None and scenario not in ROLLOUT_SCENARIOS:
        problems.append(
            f"has unknown rollout scenario {scenario!r} "
            f"(expected one of {sorted(ROLLOUT_SCENARIOS)})"
        )
    if record.get("bit_identical") is not True:
        problems.append(
            f"({scenario}) is not bit_identical — a rollout record must "
            "never land with outputs diverged from the stable digest"
        )
    if scenario == "cache_uniformity":
        missing = [key for key in ("hits", "misses") if key not in record]
        if missing:
            problems.append(f"(cache_uniformity) is missing "
                            f"{'/'.join(missing)}")
        elif "offered" in record:
            touched = (record.get("hits") or 0) + (record.get("misses") or 0)
            if touched != record["offered"]:
                problems.append(
                    f"(cache_uniformity) hits+misses = {touched} != "
                    f"offered = {record['offered']} — every request must "
                    "pass through the cluster-wide cache"
                )
        return problems
    missing = [key for key in ("shed", "failed", "phase") if key not in record]
    if missing:
        problems.append(f"({scenario}) is missing {'/'.join(missing)}")
        return problems
    accounted = sum(record.get(key, 0) or 0 for key in
                    ("completed", "shed", "failed"))
    if "offered" in record and accounted != record["offered"]:
        problems.append(
            f"loses requests: completed+shed+failed = {accounted} "
            f"!= offered = {record['offered']}"
        )
    expected = ROLLOUT_EXPECTED_PHASE.get(scenario)
    if expected and record["phase"] != expected:
        problems.append(
            f"({scenario}) landed in phase {record['phase']!r}, "
            f"expected {expected!r}"
        )
    return problems


def _check_rollout_uniformity(records: list) -> list:
    """Cache hit/miss counts must not vary with fleet size."""
    counts = {}
    for record in records:
        key = (record.get("model"), record.get("offered"))
        counts.setdefault(key, set()).add(
            (record.get("hits"), record.get("misses")))
    return [
        f"cache_uniformity counts for model={model!r} offered={offered} "
        f"vary with fleet size: {sorted(seen)} — the cluster-wide cache "
        "must make hit rates routing-independent"
        for (model, offered), seen in sorted(counts.items(),
                                             key=lambda kv: str(kv[0]))
        if len(seen) > 1
    ]


def _check_scenario_record(record: dict) -> list:
    """Scenario-specific rules: known names, per-class conservation."""
    problems = []
    scenario = record.get("scenario")
    if scenario is not None and scenario not in SCENARIO_NAMES:
        problems.append(
            f"has unknown scenario {scenario!r} "
            f"(expected one of {sorted(SCENARIO_NAMES)})"
        )
    for flag in ("bit_identical", "replay_identical"):
        if record.get(flag) is not True:
            problems.append(
                f"({scenario}) is not {flag} — a scenario record must "
                "never land with diverged outputs or an unreplayable "
                "schedule"
            )
    per_class = record.get("per_class")
    if not isinstance(per_class, dict):
        return problems
    unknown = sorted(set(per_class) - SLO_CLASSES)
    if unknown:
        problems.append(
            f"has unknown SLO classes {unknown} "
            f"(expected a subset of {sorted(SLO_CLASSES)})"
        )
    totals = {key: 0 for key in ("offered", "completed", "shed",
                                 "deadline_expired", "failed")}
    for slo, bucket in per_class.items():
        if not isinstance(bucket, dict):
            problems.append(f"per_class[{slo!r}] is not an object")
            continue
        accounted = sum(bucket.get(key, 0) or 0 for key in
                        ("completed", "shed", "deadline_expired", "failed"))
        if "offered" in bucket and accounted != bucket["offered"]:
            problems.append(
                f"loses {slo} requests: completed+shed+deadline_expired"
                f"+failed = {accounted} != offered = {bucket['offered']}"
            )
        for key in totals:
            totals[key] += bucket.get(key, 0) or 0
    for key, value in totals.items():
        if key in record and record[key] != value:
            problems.append(
                f"per-class {key} sums to {value} but the record "
                f"claims {record[key]}"
            )
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv:
        paths = argv
    else:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "benchmarks", "BENCH_*.json")))
    if not paths:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1
    problems = []
    for path in paths:
        problems.extend(check_file(path))
    for problem in problems:
        print(f"SCHEMA: {problem}", file=sys.stderr)
    if not problems:
        print(f"bench schema OK: {len(paths)} file(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
