"""Cluster scaling + overload benchmark (wall-clock, not simulated).

Two modes, one BENCH trajectory file:

**Closed loop** (default) measures the sharded
:class:`repro.serving.ClusterService` against the single-process
:class:`InferenceService` serving the *same published artifact*, across a
sweep of worker counts and transports (``--transports pipe,uds,tcp``), and
emits JSON records:

    {op: "cluster_scaling", model, transport, workers, batch, shape,
     requests, req_per_s, single_process_rps,
     speedup_vs_single_process, latency_p50_ms, latency_p99_ms,
     mean_batch_size, shm_attach_ms_mean, store_bytes, host_cpus,
     bit_identical}

**Open loop** (``--open-loop``) measures what *overload* looks like: the
cluster's closed-loop capacity is calibrated first, then non-blocking
Poisson arrivals are offered at each ``--overload-x`` multiple of it.
Backpressure never stalls the arrival clock, so the admission controller's
shed / retry-after behaviour becomes a recorded trajectory instead of just
a test assertion:

    {op: "cluster_open_loop", model, transport, workers, batch, shape,
     requests, offered_rps, offered_x_capacity, capacity_rps, req_per_s,
     completed, shed, shed_rate, retry_after_ms_mean, latency_p50_ms,
     latency_p99_ms, host_cpus, bit_identical}

Every closed-loop sweep point verifies cluster outputs bit-identical to
the single-process service; every open-loop point verifies each *completed*
response bit-identical to the engine's direct ``run_batch`` rows — a
throughput or overload result can never hide a correctness drift.

The ``--min-speedup`` floor applies to the largest worker count of the
**first** listed transport (pipe by default; socket transports carry real
framing overhead and are compared, not gated).  Process-level scaling
needs physical parallelism: the floor is checked only when the host has at
least ``--gate-min-cpus`` usable CPUs (every record carries ``host_cpus``
so trajectory tooling can tell single-CPU runs apart).

Usage:

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py \
        --json benchmarks/BENCH_cluster_scaling.json --min-speedup 2
    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py \
        --open-loop --transports pipe,uds,tcp --json -
"""

import argparse
import sys


def scaling_sweep(model, worker_counts, offered_batch, requests, seed,
                  mp_context, transport) -> list:
    """Closed-loop cluster throughput vs the single-process service.

    Publishes ``model`` once into shared memory, measures a single-process
    :class:`InferenceService` over the attached artifact as the baseline,
    then sweeps the worker counts over ``transport`` (recorded on every
    sweep point, so one BENCH file can compare transports at equal worker
    counts).  Every sweep point's outputs are checked bit-identical against
    the baseline before anything is recorded — both sides serve the same
    published bytes, so equality is exact.

    Warm-up (weight packing, plan compilation, NumPy internals) runs
    through ``engine.run_batch`` on the attached artifact *before* any
    measured service exists, so the recorded throughput and latency
    percentiles cover exactly the measured requests.  Cluster workers warm
    themselves at attach time (``ModelPool.register(warm=True)``); their
    residual first-batch cost is part of every sweep point equally.
    """
    import numpy as np

    from repro.core.engine import PhoneBitEngine
    from repro.serving.cluster import ClusterService, usable_cpus
    from repro.serving.loadgen import run_closed_loop, synthetic_images
    from repro.serving.pool import ModelPool
    from repro.serving.service import InferenceService
    from repro.serving.shm_store import SharedModelStore, attach_model

    store = SharedModelStore()
    try:
        handles = store.publish_models([model], rng=0)
        key = next(iter(handles))
        attached = attach_model(handles[key])
        images = synthetic_images(attached.network.input_shape, requests,
                                  seed=seed)

        # One warm pass outside all timings and outside the measured
        # services, so their request counters and latency windows stay
        # exactly the measured run.
        warm_engine = PhoneBitEngine(num_threads=1, backend="auto")
        warm_engine.run_batch(attached.network, images[:2],
                              collect_estimate=False)

        pool = ModelPool(backend="auto")
        pool.register(attached.network, name=key, warm=True)
        baseline = InferenceService(
            pool=pool, engine=warm_engine, max_batch_size=offered_batch,
            cache_capacity=0,
        )
        try:
            result = run_closed_loop(baseline, key, images)
        finally:
            baseline.close()
        baseline_out = result.rows()
        baseline_rps = result.achieved_rps

        records = []
        for workers in worker_counts:
            cluster = ClusterService(
                store=store, workers=int(workers),
                max_batch_size=offered_batch,
                cache_capacity=0, worker_threads=1, mp_context=mp_context,
                transport=transport,
            )
            try:
                run = run_closed_loop(cluster, key, images)
                cluster_detail = cluster.cluster_report()
            finally:
                cluster.close()
            if not np.array_equal(run.rows(), baseline_out):
                raise AssertionError(
                    f"cluster outputs diverged from the single-process "
                    f"service at {workers} workers over {transport}"
                )
            report = run.report
            records.append({
                "op": "cluster_scaling",
                "model": key,
                "transport": transport,
                "backend": "auto",
                "workers": cluster_detail.workers,
                "batch": int(offered_batch),
                "shape": list(attached.network.input_shape),
                "requests": int(images.shape[0]),
                "req_per_s": run.achieved_rps,
                "single_process_rps": baseline_rps,
                "speedup_vs_single_process": (
                    run.achieved_rps / baseline_rps if baseline_rps else float("inf")
                ),
                "latency_p50_ms": report.latency.p50_ms,
                "latency_p99_ms": report.latency.p99_ms,
                "mean_batch_size": report.scheduler.mean_batch_size,
                "shm_attach_ms_mean": cluster_detail.attach_ms_mean,
                "store_bytes": cluster_detail.store_bytes,
                "host_cpus": usable_cpus(),
                "bit_identical": True,
            })
        return records
    finally:
        store.close()


def scaling_table(records, title) -> str:
    """Render :func:`scaling_sweep` records as an aligned table."""
    from repro.analysis.reporting import format_table

    return format_table(
        ["workers", "batch", "req/s", "1-proc req/s", "speedup",
         "p50 (ms)", "p99 (ms)", "attach (ms)"],
        [
            [r["workers"], r["batch"], r["req_per_s"],
             r["single_process_rps"],
             f"{r['speedup_vs_single_process']:.2f}x",
             r["latency_p50_ms"], r["latency_p99_ms"],
             r["shm_attach_ms_mean"]]
            for r in records
        ],
        title=title,
    )


def open_loop_sweep(model, workers, offered_batch, requests, overload_x,
                    seed, mp_context, transport) -> list:
    """Open-loop overload trajectory: shed / retry-after vs offered load.

    A fresh cluster is first driven closed-loop to calibrate its capacity,
    then non-blocking Poisson arrivals are offered at each ``overload_x``
    multiple of it (:func:`repro.serving.loadgen.drive` with
    ``block=False``).  The cluster-wide admission budget is
    ``offered_batch`` divided across the workers — deliberately tighter
    than the serving default of ``2 × offered_batch`` per worker — so the
    overload regime sheds within a bounded request budget.  Every completed
    response is verified bit-identical to the engine's direct
    ``run_batch`` rows over the same published artifact.
    """
    import numpy as np

    from repro.core.engine import PhoneBitEngine
    from repro.serving.cluster import ClusterService, usable_cpus
    from repro.serving.loadgen import (
        drive,
        poisson_offsets,
        run_closed_loop,
        synthetic_images,
    )
    from repro.serving.shm_store import SharedModelStore, attach_model

    store = SharedModelStore()
    try:
        handles = store.publish_models([model], rng=0)
        key = next(iter(handles))
        attached = attach_model(handles[key])
        images = synthetic_images(attached.network.input_shape, requests,
                                  seed=seed)
        baseline_rows = PhoneBitEngine(num_threads=1).run_batch(
            attached.network, images, collect_estimate=False).output.data
        window = max(2, offered_batch // max(1, workers))

        def make_cluster():
            return ClusterService(
                store=store, workers=workers, max_batch_size=offered_batch,
                cache_capacity=0, worker_threads=1,
                mp_context=mp_context, transport=transport,
                max_outstanding=window,
            )

        with make_cluster() as cluster:
            capacity_rps = run_closed_loop(cluster, key, images).achieved_rps
        records = []
        for multiple in overload_x:
            offered_rps = max(1.0, capacity_rps * float(multiple))
            offsets = poisson_offsets(np.random.default_rng(seed),
                                      offered_rps, len(images))
            with make_cluster() as cluster:
                run = drive(cluster, key, images, offsets, block=False)
                fleet = cluster.cluster_report().workers
            for index, row in run.outputs.items():
                if not np.array_equal(row, baseline_rows[index]):
                    raise AssertionError(
                        f"open-loop output {index} diverged from run_batch "
                        f"at {multiple}x capacity over {transport}")
            records.append({
                "op": "cluster_open_loop", "model": key,
                "transport": transport, "workers": fleet,
                "batch": int(offered_batch),
                "shape": list(attached.network.input_shape),
                "requests": int(images.shape[0]),
                "offered_rps": offered_rps,
                "offered_x_capacity": float(multiple),
                "capacity_rps": capacity_rps,
                "admission_budget": offered_batch,
                "per_worker_window": window,
                "req_per_s": run.achieved_rps,
                "completed": run.completed, "shed": run.shed,
                "shed_rate": run.shed_rate,
                "retry_after_ms_mean": run.retry_after_ms_mean,
                "latency_p50_ms": run.latency_ms(50.0),
                "latency_p99_ms": run.latency_ms(99.0),
                "host_cpus": usable_cpus(),
                "bit_identical": True,
            })
        return records
    finally:
        store.close()


def open_loop_table(records, title):
    from repro.analysis.reporting import format_table

    return format_table(
        ["transport", "offered ×cap", "offered rps", "done rps", "shed %",
         "retry-after (ms)", "p50 (ms)", "p99 (ms)"],
        [
            [r["transport"], f"{r['offered_x_capacity']:.1f}x",
             r["offered_rps"], r["req_per_s"],
             f"{100.0 * r['shed_rate']:.1f}", r["retry_after_ms_mean"],
             r["latency_p50_ms"], r["latency_p99_ms"]]
            for r in records
        ],
        title=title,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="MicroCNN",
                        help="serving-zoo model to benchmark")
    parser.add_argument("--workers", default="1,2,4,8",
                        help="comma-separated worker counts (closed loop); "
                             "open loop uses the largest")
    parser.add_argument("--transports", default="pipe",
                        help="comma-separated transports to compare "
                             "(pipe,uds,tcp); the speedup gate applies to "
                             "the first")
    parser.add_argument("--batch", type=int, default=64,
                        help="offered batch level (per-worker micro-batch bound)")
    parser.add_argument("--requests", type=int, default=256,
                        help="requests per sweep point")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mp-context", default=None,
                        help="multiprocessing start method for the pipe "
                             "transport (fork/spawn)")
    parser.add_argument("--open-loop", action="store_true",
                        help="record the shed/retry-after overload "
                             "trajectory instead of closed-loop scaling")
    parser.add_argument("--overload-x", default="0.5,1.5,3.0",
                        help="open-loop offered-load multiples of the "
                             "calibrated closed-loop capacity")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write records to PATH ('-' for stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer requests / worker counts (CI smoke mode)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the first transport's largest "
                             "worker count reaches this speedup over the "
                             "single-process service (closed loop only)")
    parser.add_argument("--gate-min-cpus", type=int, default=2,
                        help="skip the --min-speedup gate below this many "
                             "usable host CPUs (scaling needs parallelism)")
    args = parser.parse_args(argv)

    from repro.serving.cluster import usable_cpus
    from repro.serving.loadgen import write_sweep_records

    transports = tuple(
        t.strip() for t in str(args.transports).split(",") if t.strip()
    )
    if args.quick:
        # Socket workers are full subprocesses (interpreter + NumPy import
        # per worker), so the smoke sweep keeps their counts small.
        worker_counts = (1, 8) if transports == ("pipe",) else (1, 2)
        requests = min(args.requests, 128)
        overload_x = (0.5, 3.0)
    else:
        worker_counts = tuple(
            int(w) for w in str(args.workers).split(",") if w.strip()
        )
        requests = args.requests
        overload_x = tuple(
            float(x) for x in str(args.overload_x).split(",") if x.strip()
        )

    records = []
    if args.open_loop:
        for transport in transports:
            records.extend(open_loop_sweep(
                model=args.model,
                workers=max(worker_counts),
                offered_batch=args.batch,
                requests=requests,
                overload_x=overload_x,
                seed=args.seed,
                mp_context=args.mp_context,
                transport=transport,
            ))
        print(open_loop_table(
            records,
            title=f"Cluster open-loop overload — {args.model} "
                  f"({max(worker_counts)} workers; completed outputs "
                  "bit-identical to run_batch)",
        ))
    else:
        for transport in transports:
            records.extend(scaling_sweep(
                model=args.model,
                worker_counts=worker_counts,
                offered_batch=args.batch,
                requests=requests,
                seed=args.seed,
                mp_context=args.mp_context,
                transport=transport,
            ))
        print(scaling_table(
            records,
            title=f"Cluster scaling — {args.model} (offered batch "
                  f"{args.batch}, transports {'/'.join(transports)}, outputs "
                  "bit-identical to the single-process service)",
        ))
    if args.json:
        print(write_sweep_records(records, args.json))

    if args.min_speedup is not None and not args.open_loop:
        cpus = usable_cpus()
        if cpus < args.gate_min_cpus:
            print(
                f"SKIP speedup gate: host has {cpus} usable CPU(s) < "
                f"{args.gate_min_cpus}; process-level scaling cannot be "
                "measured here (bit-exactness was still verified)",
                file=sys.stderr,
            )
            return 0
        gated = [r for r in records if r["transport"] == transports[0]]
        top = max(gated, key=lambda r: r["workers"])
        if top["speedup_vs_single_process"] < args.min_speedup:
            print(
                f"FAIL: cluster speedup at {top['workers']} workers over "
                f"{top['transport']} is "
                f"{top['speedup_vs_single_process']:.2f}x < required "
                f"{args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
