"""Command-line interface for the PhoneBit reproduction.

Usage (no console-script entry point is installed; invoke the module):

    python -m repro.cli devices
    python -m repro.cli sizes
    python -m repro.cli runtime     [--model "YOLOv2 Tiny"] [--device sd855]
    python -m repro.cli energy      [--model "YOLOv2 Tiny"] [--device sd820]
    python -m repro.cli figure5     [--device sd855]
    python -m repro.cli ablations
    python -m repro.cli summary     <model.pbit>
    python -m repro.cli serve-bench [--model MicroCNN] [--batches 1,4,16,64]
    python -m repro.cli loadgen     [--model MicroCNN] [--rps 200]
    python -m repro.cli rollout     [--model MicroCNN] [--divergent]
    python -m repro.cli rollback    [--model MicroCNN]
    python -m repro.cli cluster-worker --connect tcp://HOST:PORT

Each sub-command regenerates one of the paper's tables/figures, inspects a
``.pbit`` model file, or exercises the micro-batching inference service
(``serve-bench`` sweeps closed-loop throughput vs the sequential engine;
``loadgen`` offers an open-loop Poisson load and reports tail latency).
Both serving commands take ``--workers N`` to route the same traffic
through a sharded :class:`~repro.serving.cluster.ClusterService` instead
of one in-process service, and ``--transport pipe|uds|tcp`` to pick the
worker wire (see ``docs/architecture.md`` and ``docs/deployment.md``).
``loadgen`` additionally takes ``--autoscale MIN:MAX`` (elastic fleet —
grow on sustained shedding, shrink when idle), ``--pin MODEL=K,...``
(attach each model only to its rendezvous top-K workers), and
``--chaos SEED:PLAN`` (seeded deterministic fault injection — e.g.
``7:crash,stall*2,delay`` — against a cluster with retries, hedging and
slow-worker quarantine; see ``docs/deployment.md``).  ``--scenario
NAME|FILE|SPEC`` replays a seeded multi-tenant workload (bundled name,
JSON spec file, or inline tenant grammar) with SLO-tiered admission and
per-class pass summaries, composable with ``--chaos``; ``--slo
interactive|standard|batch`` tags a plain open-loop stream with one
class (see ``docs/serving.md``).
``cluster-worker`` runs one self-registering worker process — on the
router's host or any other — that dials the router, fetches model bytes
it has never seen into the per-host digest cache, and serves until the
router stops it.
``rollout`` drives a zero-downtime live rollout under sustained load —
publish a v2 artifact mid-stream, canary-mirror a traffic fraction
against the stable digest, promote on a clean gate (``--divergent``
instead publishes different weights and must auto-roll back on the
first mismatch); ``rollback`` aborts a live rollout by operator command
mid-canary.  Both print the rollout event timeline and verify zero
shed, zero lost requests and bit-identical outputs throughout (see
docs/deployment.md, "Live rollout & rollback").
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import ablations, experiments
from repro.gpusim.device import get_device


def _add_device_argument(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--device",
        default=default,
        help="device preset (snapdragon_820 / snapdragon_855 / sd820 / sd855)",
    )


def parse_byte_size(text: str) -> int:
    """Parse a byte budget like ``64M``, ``512K``, ``1G`` or plain bytes."""
    text = str(text).strip()
    multipliers = {"K": 2**10, "M": 2**20, "G": 2**30}
    scale = 1
    if text and text[-1].upper() in multipliers:
        scale = multipliers[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(float(text) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid byte size {text!r}; expected e.g. 64M, 512K, 1G or bytes"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("byte size must be positive")
    return value


def parse_autoscale_bounds(text: str) -> "tuple[int, int]":
    """Parse an autoscale spec like ``1:4`` into ``(min, max)`` workers."""
    parts = str(text).split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"invalid autoscale spec {text!r}; expected MIN:MAX (e.g. 1:4)"
        )
    try:
        low, high = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid autoscale spec {text!r}; MIN and MAX must be integers"
        ) from None
    if low < 1 or high < low:
        raise argparse.ArgumentTypeError(
            "autoscale bounds must satisfy 1 <= MIN <= MAX"
        )
    return (low, high)


def parse_pin_spec(text: str) -> "dict[str, int]":
    """Parse a pinning spec like ``VGG16=2,MicroCNN=1`` into ``{model: K}``."""
    pins: "dict[str, int]" = {}
    for item in str(text).split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, count = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise argparse.ArgumentTypeError(
                f"invalid pin {item!r}; expected MODEL=K"
            )
        try:
            workers = int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid pin count in {item!r}; K must be an integer"
            ) from None
        if workers < 1:
            raise argparse.ArgumentTypeError(
                f"pin count for {name!r} must be >= 1"
            )
        pins[name] = workers
    if not pins:
        raise argparse.ArgumentTypeError("empty --pin spec")
    return pins


def parse_chaos_argument(text: str):
    """Parse ``--chaos SEED:PLAN`` into a fault plan (argparse type).

    Thin :mod:`argparse` shim over
    :func:`repro.serving.faults.parse_chaos_spec` so a bad spec surfaces
    as a usage error instead of a traceback.
    """
    from repro.serving.faults import parse_chaos_spec

    try:
        return parse_chaos_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_scenario_argument(text: str):
    """Parse ``--scenario`` into a :class:`ScenarioSpec` (argparse type).

    Accepts a bundled scenario name, a ``.json`` spec file, or an inline
    tenant spec string; malformed specs surface as usage errors.
    """
    from repro.serving.scenarios import resolve_scenario

    try:
        return resolve_scenario(text)
    except (ValueError, OSError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: Kernel-backend specs accepted by ``--backend`` — kept in lockstep with
#: :data:`repro.core.backends.BACKEND_CHOICES` (asserted by the CLI tests)
#: without importing the backend registry at parser-build time.
BACKEND_CHOICES = ("auto", "numpy", "cffi")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared fused-executor knobs for the bench subcommands."""
    parser.add_argument(
        "--chunk-hint", type=parse_byte_size, default=None, metavar="BYTES",
        help="working-set byte budget for run_batch chunking (e.g. 64M); "
             "default uses the engine's built-in budget",
    )
    parser.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="fused-executor tile threads (default: REPRO_NUM_THREADS or "
             "all cores)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="compiled kernel backend for the fused plan (default: "
             "REPRO_BACKEND or auto — compile where possible, verified "
             "bit-exact, NumPy fallback otherwise)",
    )


def _add_transport_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared cluster-transport knobs for the serving subcommands."""
    parser.add_argument(
        "--transport", choices=("pipe", "uds", "tcp"), default="pipe",
        help="how cluster workers are launched and connected: forked, on a "
             "private Unix-domain socket (single host, default); exec'd, "
             "on a Unix-domain socket; or exec'd, over TCP (cross-host)",
    )
    parser.add_argument(
        "--bind", default=None, metavar="ADDR",
        help="socket-transport listen address (tcp://host:port or "
             "uds:///path); defaults to TCP loopback on an ephemeral port "
             "or a temp-dir socket path",
    )
    parser.add_argument(
        "--expect-workers", type=int, default=0, metavar="N",
        help="wait for N externally launched cluster-worker processes to "
             "self-register (socket transports; combine with --workers 0 "
             "to spawn none locally)",
    )


def _wants_cluster(args) -> bool:
    """Route through a ClusterService instead of one in-process service?"""
    return (args.workers > 1 or args.transport != "pipe"
            or args.expect_workers > 0
            or getattr(args, "autoscale", None) is not None
            or getattr(args, "pin", None) is not None
            or getattr(args, "slo", None) is not None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the PhoneBit paper's evaluation tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("devices", help="Table I — device configurations")
    subparsers.add_parser("sizes", help="Table II — model sizes")

    runtime = subparsers.add_parser("runtime", help="Table III — runtime comparison")
    runtime.add_argument("--model", default=None,
                         help="limit to one model (AlexNet / 'YOLOv2 Tiny' / VGG16)")

    energy = subparsers.add_parser("energy", help="Table IV — power and FPS/W")
    energy.add_argument("--model", default="YOLOv2 Tiny")
    _add_device_argument(energy, "snapdragon_820")

    figure5 = subparsers.add_parser("figure5", help="Figure 5 — per-layer speedup")
    figure5.add_argument("--model", default="YOLOv2 Tiny")
    _add_device_argument(figure5, "snapdragon_855")

    subparsers.add_parser("ablations", help="fusion / branchless / packing ablations")

    summary = subparsers.add_parser("summary", help="summarize a .pbit model file")
    summary.add_argument("path", help="path to a .pbit file")

    serve_bench = subparsers.add_parser(
        "serve-bench",
        help="closed-loop serving throughput sweep vs sequential engine.run",
    )
    serve_bench.add_argument("--model", default="MicroCNN",
                             help="serving-zoo model (MicroCNN / TinyCNN / ...)")
    serve_bench.add_argument("--batches", default="1,4,16,64",
                             help="comma-separated offered batch levels")
    serve_bench.add_argument("--requests", type=int, default=64,
                             help="requests per offered-load level")
    serve_bench.add_argument("--max-wait-ms", type=float, default=2.0,
                             help="scheduler max wait before a partial flush")
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument("--json", metavar="PATH", default=None,
                             help="also write records to PATH ('-' for stdout)")
    serve_bench.add_argument("--workers", type=int, default=1, metavar="N",
                             help="serve through a ClusterService of N worker "
                                  "processes instead of one in-process service")
    _add_transport_arguments(serve_bench)
    _add_execution_arguments(serve_bench)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="open-loop Poisson load generator against the inference service",
    )
    loadgen.add_argument("--model", default="MicroCNN",
                         help="serving-zoo model (MicroCNN / TinyCNN / ...)")
    loadgen.add_argument("--rps", type=float, default=200.0,
                         help="offered load in requests per second")
    loadgen.add_argument("--requests", type=int, default=64,
                         help="total requests to offer")
    loadgen.add_argument("--max-batch-size", type=int, default=32)
    loadgen.add_argument("--max-wait-ms", type=float, default=2.0)
    loadgen.add_argument("--cache-capacity", type=int, default=1024,
                         help="LRU response-cache entries (0 disables)")
    loadgen.add_argument("--unique-inputs", action="store_true",
                         help="make every request distinct (defeats the cache)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--workers", type=int, default=1, metavar="N",
                         help="offer the load to a ClusterService of N worker "
                              "processes instead of one in-process service")
    loadgen.add_argument("--autoscale", type=parse_autoscale_bounds,
                         default=None, metavar="MIN:MAX",
                         help="let the cluster grow on sustained shedding and "
                              "shrink when idle, within MIN..MAX workers "
                              "(implies cluster mode; see docs/deployment.md)")
    loadgen.add_argument("--pin", type=parse_pin_spec, default=None,
                         metavar="MODEL=K,...",
                         help="pin each MODEL to its rendezvous top-K workers "
                              "so only K workers attach and serve it "
                              "(implies cluster mode); pinned models are "
                              "published even if not the --model under load")
    loadgen.add_argument("--chaos", type=parse_chaos_argument, default=None,
                         metavar="SEED:PLAN",
                         help="run a deterministic chaos scenario: a seeded "
                              "fault plan (e.g. 7:crash,stall*2,delay) is "
                              "injected into a cluster with retries and "
                              "slow-worker quarantine enabled; the same SEED "
                              "replays the same fault schedule (implies "
                              "cluster mode with at least 2 workers)")
    loadgen.add_argument("--deadline-s", type=float, default=None, metavar="S",
                         help="end-to-end per-request deadline: expired work "
                              "is dropped unexecuted and its future fails "
                              "with DeadlineExceededError (chaos mode)")
    loadgen.add_argument("--scenario", type=parse_scenario_argument,
                         default=None, metavar="NAME|FILE|SPEC",
                         help="drive a seeded multi-tenant scenario instead "
                              "of a single-rate stream: a bundled name "
                              "(steady_mix, flash_crowd, ...), a .json spec "
                              "file, or an inline spec "
                              "('web,slo=interactive,rate=80;jobs,slo=batch"
                              ",rate=40'); implies cluster mode, composes "
                              "with --chaos (see docs/serving.md)")
    loadgen.add_argument("--slo", choices=("interactive", "standard",
                                           "batch"),
                         default=None,
                         help="tag every request with one SLO class for the "
                              "router's tiered admission (implies cluster "
                              "mode with non-blocking admission)")
    loadgen.add_argument("--rate-scale", type=float, default=1.0,
                         metavar="X",
                         help="multiply every scenario tenant's arrival "
                              "rate by X (scenario mode)")
    loadgen.add_argument("--duration-s", type=float, default=None,
                         metavar="S",
                         help="override the scenario's duration (scenario "
                              "mode)")
    loadgen.add_argument("--passes", type=int, default=1, metavar="N",
                         help="run the scenario N times with seeds "
                              "SEED..SEED+N-1 and aggregate per-class "
                              "attainment (scenario mode)")
    _add_transport_arguments(loadgen)
    _add_execution_arguments(loadgen)

    def _add_rollout_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--model", default="MicroCNN",
                         help="serving-zoo model to roll out")
        sub.add_argument("--workers", type=int, default=2, metavar="N",
                         help="cluster worker processes")
        sub.add_argument("--requests", type=int, default=192,
                         help="open-loop requests offered across the drill")
        sub.add_argument("--rps", type=float, default=250.0,
                         help="offered load in requests per second")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--publish-at", type=float, default=0.25,
                         metavar="F",
                         help="publish the v2 artifact once this fraction "
                              "of the schedule has arrived")
        sub.add_argument("--canary-fraction", type=float, default=0.25,
                         metavar="F",
                         help="fraction of traffic mirrored to the canary")
        sub.add_argument("--min-samples", type=int, default=4, metavar="N",
                         help="comparison samples required before promote")
        sub.add_argument("--json", metavar="PATH", default=None,
                         help="also write the rollout event timeline to "
                              "PATH ('-' for stdout)")

    rollout = subparsers.add_parser(
        "rollout",
        help="live-rollout drill: publish a v2 artifact under sustained "
             "load, canary it against the stable digest, promote on a "
             "clean gate (zero shed, zero lost, bit-identical)",
    )
    _add_rollout_arguments(rollout)
    rollout.add_argument(
        "--divergent", action="store_true",
        help="publish an artifact with genuinely different weights: the "
             "canary must catch the first mismatched answer and "
             "auto-roll back with the stable digest still serving")

    rollback = subparsers.add_parser(
        "rollback",
        help="operator-rollback drill: abort a live rollout mid-canary "
             "and verify the stable digest never stopped serving",
    )
    _add_rollout_arguments(rollback)

    cluster_worker = subparsers.add_parser(
        "cluster-worker",
        help="run one self-registering cluster worker (remote or loopback)",
    )
    cluster_worker.add_argument(
        "--connect", required=True, metavar="ADDR",
        help="router address: tcp://host:port or uds:///path/to.sock",
    )
    cluster_worker.add_argument(
        "--retry-s", type=float, default=30.0, metavar="S",
        help="keep dialing a router that is not up yet for this long "
             "(lets workers start before the router)",
    )
    cluster_worker.add_argument(
        "--no-reconnect", action="store_true",
        help="exit on connection loss instead of re-registering",
    )
    cluster_worker.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="fused-executor threads (overrides the router-sent config)",
    )
    cluster_worker.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="kernel backend for this worker's host (overrides the "
             "router-sent config; selection is per host because the "
             "toolchain is)",
    )
    return parser


def _command_runtime(model: Optional[str]) -> str:
    models = (model,) if model else experiments.DEFAULT_MODELS
    table = experiments.table3_runtime(models=models)
    return table.table()


def _command_summary(path: str) -> str:
    from repro.core.model_format import load_network

    network = load_network(path)
    return network.summary()


def _command_serve_bench(args) -> str:
    from repro.core.engine import PhoneBitEngine
    from repro.serving import sweep_table, throughput_sweep, write_sweep_records

    batches = tuple(int(b) for b in str(args.batches).split(",") if b.strip())
    if _wants_cluster(args):
        from repro.serving.cluster import scaling_sweep, scaling_table

        if args.expect_workers > 0 and len(batches) > 1:
            raise SystemExit(
                "serve-bench: --expect-workers supports a single --batches "
                "level (each level's cluster close() stops the external "
                "workers; restart them between levels or use one level)"
            )
        records = []
        for batch in batches:
            records.extend(scaling_sweep(
                model=args.model,
                worker_counts=(args.workers,),
                offered_batch=batch,
                requests=args.requests,
                max_wait_ms=args.max_wait_ms,
                seed=args.seed,
                worker_threads=args.threads,
                worker_backend=args.backend or "auto",
                chunk_bytes=args.chunk_hint,
                transport=args.transport,
                bind=args.bind,
                expect_workers=args.expect_workers,
            ))
        table = scaling_table(
            records,
            title=f"Cluster serving throughput — {args.model} "
                  f"({args.workers}+{args.expect_workers} workers over "
                  f"{args.transport}, outputs verified bit-identical "
                  "to the single-process service)",
        )
        if args.json:
            table = table + "\n" + write_sweep_records(records, args.json)
        return table
    records = throughput_sweep(
        model=args.model,
        offered_batches=batches,
        requests_per_level=args.requests,
        max_wait_ms=args.max_wait_ms,
        seed=args.seed,
        engine=PhoneBitEngine(num_threads=args.threads, backend=args.backend),
        chunk_bytes=args.chunk_hint,
    )
    table = sweep_table(
        records,
        title=f"Serving throughput — {args.model} ({args.requests} requests/level, "
              "outputs verified bit-identical to unbatched engine.run)",
    )
    if args.json:
        table = table + "\n" + write_sweep_records(records, args.json)
    return table


def _command_chaos(args) -> str:
    """Seeded fault-injection run (``loadgen --chaos SEED:PLAN``)."""
    from repro.serving import run_chaos_scenario

    result = run_chaos_scenario(
        args.chaos,
        model=args.model,
        workers=max(2, args.workers),
        requests=args.requests,
        offered_rps=args.rps,
        deadline_s=args.deadline_s,
        seed=args.seed,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        cache_capacity=args.cache_capacity,
        chunk_bytes=args.chunk_hint,
        worker_threads=args.threads,
        worker_backend=args.backend or "auto",
        transport=args.transport,
        bind=args.bind,
        expect_workers=args.expect_workers,
    )
    return result.table()


def _command_scenario(args) -> str:
    """Seeded multi-tenant scenario run (``loadgen --scenario ...``)."""
    from repro.serving.scenarios import passes_table, run_scenario_passes

    results, aggregates = run_scenario_passes(
        args.scenario,
        passes=max(1, args.passes),
        seed=args.seed,
        workers=max(2, args.workers),
        duration_s=args.duration_s,
        rate_scale=args.rate_scale,
        chaos=args.chaos,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        cache_capacity=args.cache_capacity,
        chunk_bytes=args.chunk_hint,
        worker_threads=args.threads,
        worker_backend=args.backend or "auto",
        transport=args.transport,
        bind=args.bind,
        expect_workers=args.expect_workers,
    )
    pieces = [result.table() for result in results]
    if len(results) > 1:
        pieces.append(passes_table(aggregates))
    return "\n\n".join(pieces)


def _command_rollout(args, operator_rollback: bool = False) -> str:
    """Live-rollout / operator-rollback drill (``rollout`` / ``rollback``)."""
    from repro.serving.loadgen import run_rollout_drill, write_sweep_records
    from repro.serving.rollout import RolloutConfig

    min_samples = (10**9 if operator_rollback else max(1, args.min_samples))
    result = run_rollout_drill(
        model=args.model,
        workers=max(2, args.workers),
        requests=args.requests,
        offered_rps=args.rps,
        seed=args.seed,
        divergent=getattr(args, "divergent", False),
        operator_rollback=operator_rollback,
        publish_at=args.publish_at,
        rollout=RolloutConfig(
            canary_fraction=args.canary_fraction,
            # The rollback drill parks the rollout in canary (an
            # unreachable quota) so the operator abort is what ends it.
            min_canary_samples=min_samples,
        ),
    )
    table = result.table()
    if args.json:
        table = table + "\n" + write_sweep_records(
            list(result.timeline), args.json)
    return table


def _command_loadgen(args) -> str:
    from repro.core.engine import PhoneBitEngine
    from repro.serving import InferenceService, run_open_loop, synthetic_images

    if args.scenario is not None:
        return _command_scenario(args)
    if args.chaos is not None:
        return _command_chaos(args)
    if _wants_cluster(args):
        from repro.models.zoo import get_serving_config
        from repro.serving import ClusterService

        input_shape = get_serving_config(args.model).input_shape
        autoscale = None
        if args.autoscale is not None:
            from repro.serving.autoscale import AutoscaleConfig

            autoscale = AutoscaleConfig(min_workers=args.autoscale[0],
                                        max_workers=args.autoscale[1])
        # Pinned models must be published so workers can attach them.
        models = tuple(dict.fromkeys((args.model,) + tuple(args.pin or ())))
        service = ClusterService(
            models=models,
            workers=args.workers,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            cache_capacity=args.cache_capacity,
            chunk_bytes=args.chunk_hint,
            worker_threads=args.threads,
            worker_backend=args.backend or "auto",
            transport=args.transport,
            bind=args.bind,
            expect_workers=args.expect_workers,
            pin_models=args.pin,
            autoscale=autoscale,
        )
    else:
        service = InferenceService(
            engine=PhoneBitEngine(num_threads=args.threads,
                                  backend=args.backend),
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            cache_capacity=args.cache_capacity,
            chunk_bytes=args.chunk_hint,
        )
        input_shape = None
    try:
        if input_shape is None:
            # Inside the guard: an unknown model must still close the service.
            input_shape = service.pool.get(args.model).input_shape
        images = synthetic_images(
            input_shape, args.requests, seed=args.seed,
            unique=args.unique_inputs,
        )
        if args.slo is not None:
            from repro.analysis.reporting import format_kv
            from repro.serving import run_open_loop_shedding

            shed_result = run_open_loop_shedding(
                service, args.model, images, offered_rps=args.rps,
                seed=args.seed, slo=args.slo,
            )
            return format_kv(
                [
                    ("slo class", args.slo),
                    ("offered", shed_result.offered),
                    ("completed", shed_result.completed),
                    ("shed", shed_result.shed),
                    ("shed %", 100.0 * shed_result.shed_rate),
                    ("achieved (req/s)", shed_result.achieved_rps),
                    ("retry-after mean (ms)",
                     shed_result.retry_after_ms_mean),
                ],
                title=f"Open loop ({args.model}, non-blocking admission)",
            )
        result = run_open_loop(
            service, args.model, images, offered_rps=args.rps, seed=args.seed
        )
    finally:
        service.close()
    return result.table()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "devices":
        output = experiments.table1_devices().table()
    elif args.command == "sizes":
        output = experiments.table2_model_size().table()
    elif args.command == "runtime":
        output = _command_runtime(args.model)
    elif args.command == "energy":
        output = experiments.table4_energy(
            model=args.model, device=get_device(args.device)
        ).table()
    elif args.command == "figure5":
        output = experiments.figure5_layer_speedup(
            model=args.model, device=get_device(args.device)
        ).chart()
    elif args.command == "ablations":
        output = "\n\n".join([
            ablations.fusion_ablation().table("Ablation — layer integration"),
            ablations.branchless_ablation().table("Ablation — branch divergence"),
            ablations.packing_width_ablation().table("Ablation — packing word width"),
            ablations.workload_rule_ablation().table("Ablation — workload rule"),
        ])
    elif args.command == "summary":
        output = _command_summary(args.path)
    elif args.command == "serve-bench":
        output = _command_serve_bench(args)
    elif args.command == "loadgen":
        output = _command_loadgen(args)
    elif args.command == "rollout":
        output = _command_rollout(args)
    elif args.command == "rollback":
        output = _command_rollout(args, operator_rollback=True)
    elif args.command == "cluster-worker":
        from repro.serving.transport import run_cluster_worker

        return run_cluster_worker(
            args.connect,
            threads=args.threads,
            retry_s=args.retry_s,
            reconnect=not args.no_reconnect,
            backend=args.backend,
        )
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(2)
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
