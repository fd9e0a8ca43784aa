"""Serving throughput benchmark (wall-clock, not simulated).

Measures the async micro-batching inference service against the pre-serving
client path — one ``engine.run`` call per request — across several offered
batch levels, and emits machine-readable JSON records for the BENCH
trajectory:

    {op, model, offered_batch, batch, requests, req_per_s, sequential_rps,
     sequential_forward_rps, speedup_vs_sequential, speedup_vs_forward_only,
     latency_p50_ms, latency_p99_ms, mean_batch_size, batches, bit_identical}

The ``--min-speedup`` floor applies to ``speedup_vs_sequential`` — the
client path as shipped before serving existed, per-request ``engine.run``
including its per-request cost estimate.  ``sequential_forward_rps`` /
``speedup_vs_forward_only`` (per-request execution with the estimate
disabled) are recorded alongside so the trajectory separates the
micro-batching win from the skipped-estimate win.

Every level first verifies that the scheduler's micro-batched outputs are
bit-identical to unbatched execution of the same inputs, so a throughput
win can never hide a correctness drift.

Usage:

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py \
        --json BENCH_serving_throughput.json --min-speedup 3
"""

import argparse
import sys
import time


def sequential_baseline(engine, network, images) -> tuple:
    """Per-request ``engine.run`` over ``images``: (outputs, wall_s).

    This is the pre-serving client path exactly as shipped — including the
    per-request simulated cost estimate ``engine.run`` always computes.
    """
    import numpy as np

    outputs = []
    t0 = time.perf_counter()
    for i in range(images.shape[0]):
        outputs.append(engine.run(network, images[i:i + 1]).output.data[0])
    wall_s = time.perf_counter() - t0
    return np.stack(outputs), wall_s


def sequential_forward_baseline(engine, network, images) -> float:
    """Wall seconds for per-request execution *without* the cost estimate.

    Reported alongside the ``engine.run`` baseline so the benchmark records
    separate how much of the serving speedup comes from micro-batching the
    kernels versus from not re-running the cost model per request.
    """
    t0 = time.perf_counter()
    for i in range(images.shape[0]):
        engine.run_batch(network, images[i:i + 1], collect_estimate=False)
    return time.perf_counter() - t0


def throughput_sweep(model, offered_batches, requests_per_level, seed) -> list:
    """Closed-loop serving throughput vs the sequential baseline.

    For each offered batch level ``b`` a fresh service is configured with
    ``max_batch_size=b`` and fed ``requests_per_level`` requests
    back-to-back; the same images then run through per-request
    ``engine.run`` calls for the baseline.  Outputs are checked
    bit-identical before anything is recorded.
    """
    import numpy as np

    from repro.core.engine import PhoneBitEngine
    from repro.serving.loadgen import run_closed_loop, synthetic_images
    from repro.serving.pool import ModelPool
    from repro.serving.service import InferenceService

    engine = PhoneBitEngine()
    pool = ModelPool()
    network = pool.get(model)
    images = synthetic_images(network.input_shape, requests_per_level, seed=seed)

    # One warm pass (weight packing, NumPy internals) outside all timings.
    engine.run_batch(network, images[:2], collect_estimate=False)
    baseline_out, baseline_s = sequential_baseline(engine, network, images)
    baseline_rps = images.shape[0] / baseline_s if baseline_s > 0 else float("inf")
    forward_s = sequential_forward_baseline(engine, network, images)
    forward_rps = images.shape[0] / forward_s if forward_s > 0 else float("inf")

    records = []
    for offered in offered_batches:
        service = InferenceService(
            pool=pool,
            engine=engine,
            max_batch_size=int(offered),
            cache_capacity=0,  # throughput measurements must not hit the cache
        )
        try:
            result = run_closed_loop(service, model, images)
        finally:
            service.close()
        if not np.array_equal(result.rows(), baseline_out):
            raise AssertionError(
                f"serving outputs diverged from unbatched execution at "
                f"offered batch {offered}"
            )
        report = result.report
        records.append(
            {
                "op": "serving_throughput",
                "model": model,
                "offered_batch": int(offered),
                # Canonical trajectory aliases (tools/check_bench_schema.py):
                # every BENCH record carries {op|model, shape|batch,
                # ns_per_op|req_per_s} under exactly those key spellings.
                "batch": int(offered),
                "req_per_s": result.achieved_rps,
                "requests": int(images.shape[0]),
                "sequential_rps": baseline_rps,
                "sequential_forward_rps": forward_rps,
                "speedup_vs_sequential": (
                    result.achieved_rps / baseline_rps if baseline_rps else float("inf")
                ),
                "speedup_vs_forward_only": (
                    result.achieved_rps / forward_rps if forward_rps else float("inf")
                ),
                "latency_p50_ms": report.latency.p50_ms,
                "latency_p99_ms": report.latency.p99_ms,
                "mean_batch_size": report.scheduler.mean_batch_size,
                "batches": report.scheduler.batch_count,
                "bit_identical": True,
            }
        )
    return records


def sweep_table(records, title) -> str:
    """Render :func:`throughput_sweep` records as an aligned table."""
    from repro.analysis.reporting import format_table

    return format_table(
        ["offered batch", "req/s", "seq req/s", "fwd req/s", "speedup",
         "p50 (ms)", "p99 (ms)", "mean batch"],
        [
            [r["offered_batch"], r["req_per_s"], r["sequential_rps"],
             r["sequential_forward_rps"],
             f"{r['speedup_vs_sequential']:.2f}x",
             r["latency_p50_ms"], r["latency_p99_ms"], r["mean_batch_size"]]
            for r in records
        ],
        title=title,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="MicroCNN",
                        help="serving-zoo model to benchmark")
    parser.add_argument("--batches", default="1,4,16,64",
                        help="comma-separated offered batch levels")
    parser.add_argument("--requests", type=int, default=96,
                        help="requests per offered-load level")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write records to PATH ('-' for stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer requests / levels (CI smoke mode)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless some offered batch >= 16 reaches this "
                             "speedup over sequential engine.run")
    args = parser.parse_args(argv)

    from repro.serving.loadgen import write_sweep_records

    if args.quick:
        batches = (1, 16, 64)
        requests = min(args.requests, 64)
    else:
        batches = tuple(int(b) for b in str(args.batches).split(",") if b.strip())
        requests = args.requests

    records = throughput_sweep(
        model=args.model,
        offered_batches=batches,
        requests_per_level=requests,
        seed=args.seed,
    )

    print(sweep_table(
        records,
        title=f"Serving throughput — {args.model} ({requests} requests/level, "
              "outputs verified bit-identical to unbatched engine.run)",
    ))
    if args.json:
        print(write_sweep_records(records, args.json))

    if args.min_speedup is not None:
        eligible = [r for r in records if r["offered_batch"] >= 16]
        if not eligible:
            print("FAIL: no offered batch level >= 16 was measured",
                  file=sys.stderr)
            return 1
        best = max(r["speedup_vs_sequential"] for r in eligible)
        if best < args.min_speedup:
            print(
                f"FAIL: best serving speedup at offered batch >= 16 is "
                f"{best:.2f}x < required {args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
