"""SLO-tiered admission + scenario-harness tests.

Three layers of contract:

* **Router tier order** — under any admission/release churn the router
  never sheds a higher SLO tier while a lower tier could still be
  admitted (property-based), and the slot-conservation invariant
  ``dispatched == completed + Σoutstanding`` survives class-tiered
  accounting.
* **Schedule determinism** — a compiled scenario is a pure function of
  ``(spec, seed)``: byte-identical on replay, per-tenant independent,
  and the loadgen arrival-core refactor left historical seeded
  schedules byte-identical.
* **Golden summaries** — each bundled scenario's seeded schedule
  summary is pinned under ``tests/golden/`` (regen with
  ``REPRO_REGEN_GOLDEN=1``).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving.cluster import DEFAULT_SLO_POLICIES, SLOPolicy
from repro.serving.loadgen import (
    phased_poisson_offsets,
    poisson_offsets,
    run_arrival_schedule,
)
from repro.serving.router import (
    SLO_CLASSES,
    LeastOutstandingRouter,
    default_slo_reserves,
    validate_slo,
)
from repro.serving.scenarios import (
    BUNDLED_SCENARIOS,
    ClassSummary,
    ScenarioResult,
    ScenarioSpec,
    TenantSpec,
    TenantSummary,
    aggregate_passes,
    resolve_scenario,
    run_scenario,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))
GOLDEN_SEED = 1234


# ---------------------------------------------------------------------------
# SLO classes and reserves
# ---------------------------------------------------------------------------
class TestSLOClasses:
    def test_validate_slo_normalizes_and_rejects(self):
        assert validate_slo(None) == "standard"
        assert validate_slo("interactive") == "interactive"
        with pytest.raises(ValueError, match="unknown SLO class"):
            validate_slo("gold")

    def test_default_reserves_shape(self):
        reserves = default_slo_reserves(8)
        assert reserves == {"interactive": 0, "standard": 2, "batch": 5}
        # Monotone down-tier, interactive never withheld from itself.
        assert reserves["interactive"] <= reserves["standard"] <= reserves["batch"]
        assert reserves["batch"] < 8

    def test_default_reserves_tiny_window(self):
        # max_outstanding=1 leaves no room to withhold anything.
        assert default_slo_reserves(1) == {
            "interactive": 0, "standard": 0, "batch": 0}

    def test_reserves_validation(self):
        router = LeastOutstandingRouter(max_outstanding=4)
        with pytest.raises(ValueError, match="monotone"):
            router.set_slo_reserves({"interactive": 2, "standard": 1,
                                     "batch": 0})
        with pytest.raises(ValueError, match="unknown SLO class"):
            router.set_slo_reserves({"gold": 1})
        with pytest.raises(ValueError):
            router.set_slo_reserves({"batch": 4})  # >= max_outstanding

    def test_tiered_bounds_and_shed_order(self):
        router = LeastOutstandingRouter(
            max_outstanding=4,
            slo_reserves={"interactive": 0, "standard": 1, "batch": 3})
        router.add_worker("w0")
        bounds = router.slo_bounds()
        assert bounds == {"interactive": 4, "standard": 3, "batch": 1}
        # One outstanding request saturates the batch tier only.
        assert router.acquire("M", slo="batch") == "w0"
        assert router.acquire("M", slo="batch") is None
        assert router.acquire("M", slo="standard") == "w0"
        assert router.acquire("M", slo="standard") == "w0"
        assert router.acquire("M", slo="standard") is None
        assert router.acquire("M", slo="interactive") == "w0"
        assert router.acquire("M", slo="interactive") is None
        assert router.shed_by_class() == {
            "interactive": 1, "standard": 1, "batch": 1}
        # Requeues (force) bypass every bound: admitted work is never shed.
        assert router.acquire("M", force=True, slo="batch") == "w0"

    def test_retry_after_monotone_down_tier(self):
        router = LeastOutstandingRouter(
            max_outstanding=4,
            slo_reserves={"interactive": 0, "standard": 1, "batch": 3})
        router.add_worker("w0")
        delays = [router.retry_after_s(2.0, slo=slo) for slo in SLO_CLASSES]
        assert delays[0] < delays[1] < delays[2]

    @given(st.lists(
        st.tuples(
            st.sampled_from(["add", "acquire", "force", "release", "remove"]),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=80,
    ))
    def test_tier_order_and_conservation_over_random_churn(self, ops):
        router = LeastOutstandingRouter(
            max_outstanding=3,
            slo_reserves={"interactive": 0, "standard": 1, "batch": 2})
        bounds = router.slo_bounds()
        held = []  # (worker, generation)
        for op, tier, i in ops:
            slo = SLO_CLASSES[tier]
            worker_id = f"w{i}"
            if op == "add":
                router.add_worker(worker_id)
            elif op in ("acquire", "force"):
                worker = router.acquire("M", force=(op == "force"), slo=slo)
                if worker is not None:
                    held.append((worker, router.generation(worker)))
                elif router.workers():
                    # A shed at this tier means the whole fleet is at or
                    # above this tier's bound...
                    assert all(router.outstanding(w) >= bounds[slo]
                               for w in router.workers())
                    # ...so every *lower* tier must shed too: the router
                    # never sheds a higher tier while a lower tier could
                    # still take a non-reserved slot.
                    for lower in SLO_CLASSES[tier + 1:]:
                        assert router.acquire(
                            "M", slo=lower, record_shed=False) is None
            elif op == "release" and held:
                worker, generation = held.pop(i % len(held))
                router.release(worker, generation=generation)
            elif op == "remove":
                router.remove_worker(worker_id)
            stats = router.stats()
            live = sum(1 for worker, generation in held
                       if router.generation(worker) == generation)
            assert stats.outstanding == live
            assert stats.dispatched == stats.completed + stats.outstanding


class TestSLOPolicy:
    def test_defaults_cover_every_class(self):
        assert set(DEFAULT_SLO_POLICIES) == set(SLO_CLASSES)
        interactive = DEFAULT_SLO_POLICIES["interactive"]
        batch = DEFAULT_SLO_POLICIES["batch"]
        assert interactive.latency_budget_ms < batch.latency_budget_ms
        assert interactive.deadline_s is not None
        assert batch.deadline_s is None  # batch work is never dropped late
        assert interactive.hedge is True and batch.hedge is False

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown SLO class"):
            SLOPolicy(slo="gold", latency_budget_ms=10.0)
        with pytest.raises(ValueError):
            SLOPolicy(slo="batch", latency_budget_ms=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(slo="batch", latency_budget_ms=10.0, deadline_s=-1.0)
        with pytest.raises(ValueError):
            SLOPolicy(slo="batch", latency_budget_ms=10.0, max_attempts=0)


# ---------------------------------------------------------------------------
# arrival-core refactor: historical schedules stay byte-identical
# ---------------------------------------------------------------------------
class TestArrivalCore:
    def test_poisson_offsets_match_historical_inline_draw(self):
        # The flat open-loop generators always drew one vectorized batch
        # of exponential gaps and cumsum'ed a running deadline; the
        # shared core must replay those seeded schedules byte-for-byte.
        for seed, rps, count in [(0, 200.0, 64), (7, 50.0, 1), (123, 900.0, 257)]:
            historical = np.cumsum(
                np.random.default_rng(seed).exponential(1.0 / rps, size=count))
            current = poisson_offsets(np.random.default_rng(seed), rps, count)
            assert historical.tobytes() == current.tobytes()

    def test_phased_offsets_match_historical_spike_loop(self):
        # The spike loop drew gaps one at a time and discarded each
        # phase's final draw that crossed the phase boundary (clamping to
        # it) — draw-for-draw identical, including the discards.
        phases = [("warmup", 120.0, 0.5), ("spike", 800.0, 0.25),
                  ("recovery", 120.0, 0.5)]
        for seed in (0, 5, 99):
            rng = np.random.default_rng(seed)
            offsets, index = [], []
            deadline = 0.0
            for number, (_, rps, duration_s) in enumerate(phases):
                phase_end = deadline + float(duration_s)
                while True:
                    deadline += rng.exponential(1.0 / rps)
                    if deadline >= phase_end:
                        deadline = phase_end
                        break
                    offsets.append(deadline)
                    index.append(number)
            current_offsets, current_index = phased_poisson_offsets(
                np.random.default_rng(seed), phases)
            assert np.asarray(offsets).tobytes() == current_offsets.tobytes()
            assert np.array_equal(np.asarray(index), current_index)

    def test_rate_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_offsets(rng, 0.0, 4)
        with pytest.raises(ValueError):
            phased_poisson_offsets(rng, [("p", -1.0, 1.0)])

    def test_run_arrival_schedule_paces_and_indexes(self):
        seen = []
        t0 = run_arrival_schedule([0.0, 0.001, 0.002], seen.append)
        assert seen == [0, 1, 2]
        assert t0 > 0


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------
class TestSpecParsing:
    def test_inline_grammar(self):
        spec = ScenarioSpec.parse(
            "web,slo=interactive,curve=flash_crowd,rate=40,peak=160,"
            "at=0.3,width=0.2;"
            "mix,model=MicroCNN*3+TinyCNN,curve=burst,rate=20;"
            "jobs,slo=batch,rate=30,budget_ms=5000")
        web, mix, jobs = spec.tenants
        assert (web.slo, web.curve, web.peak_rps) == ("interactive",
                                                      "flash_crowd", 160.0)
        assert mix.models == (("MicroCNN", 3.0), ("TinyCNN", 1.0))
        assert jobs.budget_ms == 5000.0

    def test_json_round_trip_compiles_identically(self, tmp_path):
        spec = BUNDLED_SCENARIOS["multi_burst"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = ScenarioSpec.from_json(str(path))
        assert loaded.compile(11).digest() == spec.compile(11).digest()

    def test_resolve_bundled_file_and_inline(self, tmp_path):
        assert resolve_scenario("flash_crowd").name == "flash_crowd"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(BUNDLED_SCENARIOS["diurnal"].to_dict()))
        assert resolve_scenario(str(path)).name == "diurnal"
        assert resolve_scenario("t,rate=5").tenants[0].rate_rps == 5.0

    @pytest.mark.parametrize("bad, match", [
        ("", "no tenants"),
        ("slo=interactive", "bare tenant name"),
        ("t,slo", "key=value"),
        ("t,slo=gold", "unknown SLO class"),
        ("t,curve=warp", "unknown arrival curve"),
        ("t,rate=-3", "rate_rps must be positive"),
        ("t,rate=9,peak=2", "peak_rps must be at least"),
        ("t,frobnicate=1", "unknown tenant key"),
        ("t,model=", "empty model entry"),
        ("a,rate=1;a,rate=2", "duplicate tenant names"),
    ])
    def test_malformed_specs_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            ScenarioSpec.parse(bad)

    def test_unknown_scenario_name_lists_bundled(self):
        with pytest.raises(ValueError, match="steady_mix"):
            resolve_scenario("definitely_not_a_scenario")

    def test_json_rejects_unknown_keys_and_versions(self):
        with pytest.raises(ValueError, match="unknown tenant keys"):
            ScenarioSpec.from_json(
                {"name": "x", "tenants": [{"name": "t", "oops": 1}]})
        with pytest.raises(ValueError, match="unsupported scenario version"):
            ScenarioSpec.from_json(
                {"name": "x", "version": 99,
                 "tenants": [{"name": "t"}]})


# ---------------------------------------------------------------------------
# schedule determinism
# ---------------------------------------------------------------------------
class TestScheduleDeterminism:
    @pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
    def test_same_seed_byte_identical(self, name):
        spec = BUNDLED_SCENARIOS[name]
        first = spec.compile(42)
        second = spec.compile(42)
        for a, b in zip(first.tenants, second.tenants):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.model_index.tobytes() == b.model_index.tobytes()
        assert first.digest() == second.digest()
        assert first.digest() != spec.compile(43).digest()

    def test_tenant_child_streams_are_independent(self):
        # Dropping a later tenant must not perturb an earlier tenant's
        # schedule: each tenant owns an rng child stream keyed by its
        # index, exactly like FaultPlan's per-rule streams.
        full = BUNDLED_SCENARIOS["steady_mix"]
        truncated = ScenarioSpec(name=full.name, tenants=full.tenants[:1],
                                 duration_s=full.duration_s)
        a = full.compile(7).tenants[0]
        b = truncated.compile(7).tenants[0]
        assert a.times.tobytes() == b.times.tobytes()
        assert a.model_index.tobytes() == b.model_index.tobytes()

    def test_merged_is_time_ordered_and_complete(self):
        schedule = BUNDLED_SCENARIOS["flash_crowd"].compile(3)
        offsets, tenant_index, model_names = schedule.merged()
        assert len(offsets) == schedule.offered == len(model_names)
        assert np.all(np.diff(offsets) >= 0)
        assert set(tenant_index) <= set(range(len(schedule.tenants)))

    def test_burst_correlates_model_mix_with_window(self):
        schedule = BUNDLED_SCENARIOS["multi_burst"].compile(7)
        tenant = schedule.tenants[0]
        spec = tenant.tenant
        start = spec.at * schedule.duration_s
        end = start + spec.width * schedule.duration_s
        outside = (tenant.times < start) | (tenant.times >= end)
        # Only the primary model outside the window; the full mix inside.
        assert np.all(tenant.model_index[outside] == 0)
        assert set(tenant.model_index[~outside]) == {0, 1}

    def test_slow_drip_never_clumps(self):
        schedule = BUNDLED_SCENARIOS["slow_drip"].compile(5)
        drip = schedule.tenants[0]
        spacing = schedule.duration_s / drip.offered
        # Jitter is bounded to ±25% of the spacing, so consecutive
        # arrivals can never be closer than half a spacing.
        assert np.all(np.diff(drip.times) >= 0.5 * spacing - 1e-12)

    def test_rate_scale_and_duration_reshape_the_schedule(self):
        spec = BUNDLED_SCENARIOS["steady_mix"]
        base = spec.compile(3)
        doubled = spec.compile(3, rate_scale=2.0)
        assert doubled.offered > 1.5 * base.offered
        shorter = spec.compile(3, duration_s=1.0)
        assert shorter.offered < base.offered
        with pytest.raises(ValueError):
            spec.compile(3, rate_scale=0.0)
        with pytest.raises(ValueError):
            spec.compile(3, duration_s=-1.0)


# ---------------------------------------------------------------------------
# golden schedule summaries
# ---------------------------------------------------------------------------
def current_schedule_summaries() -> dict:
    return {name: spec.compile(GOLDEN_SEED).summary()
            for name, spec in BUNDLED_SCENARIOS.items()}


class TestGoldenScenarioSummaries:
    def test_bundled_summaries_match_golden(self):
        current = current_schedule_summaries()
        path = GOLDEN_DIR / "scenario_summaries.json"
        if REGEN:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(
                json.dumps(current, indent=2, sort_keys=True) + "\n")
        if not path.exists():
            pytest.fail(f"golden file {path} is missing; generate it with "
                        "REPRO_REGEN_GOLDEN=1")
        golden = json.loads(path.read_text())
        assert golden == current

    def test_golden_covers_every_bundled_scenario(self):
        golden = json.loads(
            (GOLDEN_DIR / "scenario_summaries.json").read_text())
        assert set(golden) == set(BUNDLED_SCENARIOS)
        for name, summary in golden.items():
            assert summary["offered"] == sum(
                t["offered"] for t in summary["tenants"]), name
            assert summary["offered"] == sum(
                summary["per_class"].values()), name


# ---------------------------------------------------------------------------
# pass aggregation (no cluster needed)
# ---------------------------------------------------------------------------
def _result(seed: int, attainment_pairs) -> ScenarioResult:
    tenants, classes = [], []
    for slo, (offered, within, shed) in attainment_pairs.items():
        completed = offered - shed
        tenants.append(TenantSummary(
            tenant=f"t-{slo}", slo=slo, offered=offered, completed=completed,
            shed=shed, deadline_expired=0, failed=0, within_budget=within,
            budget_ms=100.0, p50_ms=1.0, p99_ms=2.0, goodput_rps=1.0))
        classes.append(ClassSummary(
            slo=slo, offered=offered, completed=completed, shed=shed,
            deadline_expired=0, failed=0, within_budget=within,
            shed_share=0.0))
    return ScenarioResult(
        scenario="synthetic", seed=seed, duration_s=1.0, rate_scale=1.0,
        digest="0" * 64, wall_s=1.0, tenants=tuple(tenants),
        classes=tuple(classes), bit_identical=True, model_shares={},
        pin_suggestion=None, pins_applied=None, retries=0, hedges=0,
        respawns=0)


class TestPassAggregation:
    def test_aggregates_mean_min_max_per_class(self):
        results = [
            _result(0, {"interactive": (100, 90, 0), "batch": (50, 25, 25)}),
            _result(1, {"interactive": (100, 100, 0), "batch": (50, 50, 0)}),
        ]
        aggregates = {a.slo: a for a in aggregate_passes(results)}
        interactive = aggregates["interactive"]
        assert interactive.passes == 2
        assert interactive.offered == 200
        assert interactive.attainment_min == pytest.approx(0.9)
        assert interactive.attainment_max == pytest.approx(1.0)
        assert interactive.attainment_mean == pytest.approx(0.95)
        assert aggregates["batch"].shed == 25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_passes([])


# ---------------------------------------------------------------------------
# end-to-end: scenario runner against a live cluster
# ---------------------------------------------------------------------------
class TestScenarioRunner:
    def test_steady_mix_end_to_end(self):
        spec = BUNDLED_SCENARIOS["steady_mix"]
        result = run_scenario(spec, seed=3, workers=2, duration_s=1.0,
                              pin_models={"MicroCNN": 1},
                              rebalance_pins=True)
        # Lossless accounting per tenant: every arrival lands in exactly
        # one bucket.
        for tenant in result.tenants:
            assert tenant.offered == (tenant.completed + tenant.shed +
                                      tenant.deadline_expired + tenant.failed)
        assert result.offered == spec.compile(3, duration_s=1.0).offered
        assert result.digest == spec.compile(3, duration_s=1.0).digest()
        # Completed outputs match the single-process engine bit-for-bit.
        assert result.bit_identical
        assert {t.slo for t in result.tenants} == set(SLO_CLASSES)
        assert result.class_summary("interactive").offered > 0
        # Measured traffic feeds the pinning planner (ROADMAP item 1
        # leftover): live shares in, a pin layout out.
        assert result.model_shares.get("MicroCNN", 0) > 0
        assert result.pin_suggestion is not None
        assert result.pins_applied is not None
        assert "MicroCNN" in result.pins_applied
        # The rendered tables carry the per-class contract.
        rendered = result.table()
        assert "interactive" in rendered and "shed share %" in rendered
