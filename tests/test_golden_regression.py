"""Golden-file regression tests for the paper-facing numbers.

The gpusim cost model and the model configs jointly determine the repo's
reproduction of Table II (model sizes) and Table III (runtime comparison).
Those subsystems get refactored for performance; these tests pin the
*numbers* so a refactor that silently drifts a paper figure fails loudly.
The execution-plan IR of every servable network is pinned the same way:
its ``describe()`` text, arena size and backend-report keys are what the
serving stack and the e2e benchmark's provenance record.

The golden snapshots live in ``tests/golden/*.json``.  After an
*intentional* change (e.g. a cost-model fix), regenerate them with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_regression.py

and review the diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.core import plan as plan_mod
from repro.models import BENCHMARK_MODELS, get_model_config, model_size_report
from repro.models.zoo import SERVING_MODELS, build_phonebit_network, get_serving_config

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

#: Relative tolerance for float comparisons.  The snapshots are produced by
#: a deterministic analytical model, so this only absorbs float round-trip
#: noise across platforms, not real drift.
RTOL = 1e-9


def current_model_sizes() -> dict:
    """Table II inputs: size/parameter/MAC figures per benchmark model."""
    sizes = {}
    for name in BENCHMARK_MODELS:
        report = model_size_report(get_model_config(name))
        sizes[name] = {
            "full_precision_mb": report["full_precision_mb"],
            "bnn_mb": report["bnn_mb"],
            "compression_ratio": report["compression_ratio"],
            "binary_parameters": report["parameters"]["binary"],
            "float32_parameters": report["parameters"]["float32"],
            "macs": report["macs"],
        }
    return sizes


def current_runtimes() -> dict:
    """Table III: per device/model/framework simulated runtime (or failure)."""
    table = experiments.table3_runtime()
    runtimes = {}
    for device, per_model in table.results.items():
        runtimes[device] = {}
        for model, per_framework in per_model.items():
            runtimes[device][model] = {
                framework: (
                    result.runtime_ms if result.succeeded else result.status
                )
                for framework, result in per_framework.items()
            }
    return runtimes


def current_plan_ir() -> dict:
    """Plan IR per servable network at full resolution (``rng=0``).

    The backend-report keys come from ``select_for_plan`` whichever backend
    resolves here; they name steps by ``describe`` alone, so they are the
    same with and without a compiler.
    """
    ir = {}
    for name in SERVING_MODELS:
        plan = plan_mod.compile_plan(
            build_phonebit_network(get_serving_config(name), rng=0)
        )
        plan.select_backend("auto")
        ir[name] = {
            "describe": plan.describe().splitlines(),
            "per_sample_bytes": plan.per_sample_bytes,
            "backend_steps": list(plan.backend_report()["steps"]),
        }
    return ir


def _load_or_regen(filename: str, current: dict) -> dict:
    path = GOLDEN_DIR / filename
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    if not path.exists():
        pytest.fail(
            f"golden file {path} is missing; generate it with "
            "REPRO_REGEN_GOLDEN=1"
        )
    return json.loads(path.read_text())


def assert_matches_golden(golden, current, path="$"):
    """Deep comparison with float tolerance and precise failure paths."""
    if isinstance(golden, dict):
        assert isinstance(current, dict), f"{path}: type changed"
        assert set(golden) == set(current), (
            f"{path}: keys changed {sorted(set(golden) ^ set(current))}"
        )
        for key in golden:
            assert_matches_golden(golden[key], current[key], f"{path}.{key}")
    elif isinstance(golden, float) or isinstance(current, float):
        assert current == pytest.approx(golden, rel=RTOL), (
            f"{path}: {current!r} drifted from golden {golden!r}"
        )
    else:
        assert current == golden, (
            f"{path}: {current!r} drifted from golden {golden!r}"
        )


class TestGoldenModelSizes:
    def test_table2_sizes_match_golden(self):
        current = current_model_sizes()
        golden = _load_or_regen("table2_model_sizes.json", current)
        assert_matches_golden(golden, current)

    def test_golden_sizes_stay_near_paper(self):
        # Belt and braces: the snapshot itself must stay in the paper's
        # ballpark, so nobody can "fix" a drift by regenerating blindly.
        golden = json.loads(
            (GOLDEN_DIR / "table2_model_sizes.json").read_text()
        )
        for model, paper in experiments.PAPER_TABLE2.items():
            measured = golden[model]["full_precision_mb"]
            assert measured == pytest.approx(paper["full_mb"], rel=0.35), model


class TestGoldenRuntimes:
    def test_table3_runtimes_match_golden(self):
        current = current_runtimes()
        golden = _load_or_regen("table3_runtime_ms.json", current)
        assert_matches_golden(golden, current)

    def test_golden_runtime_ordering_matches_paper(self):
        # PhoneBit must stay the fastest framework on every (device, model)
        # cell where the paper reports it fastest — which is all of them.
        golden = json.loads((GOLDEN_DIR / "table3_runtime_ms.json").read_text())
        for device, per_model in golden.items():
            for model, per_framework in per_model.items():
                phonebit = per_framework["PhoneBit"]
                assert isinstance(phonebit, float), (device, model)
                for framework, runtime in per_framework.items():
                    if framework == "PhoneBit" or not isinstance(runtime, float):
                        continue
                    assert phonebit < runtime, (device, model, framework)


class TestGoldenPlanIR:
    def test_plan_ir_matches_golden(self):
        current = current_plan_ir()
        golden = _load_or_regen("plan_ir.json", current)
        assert_matches_golden(golden, current)
