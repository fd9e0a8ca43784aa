"""Command-line interface for the PhoneBit reproduction.

Usage (no console-script entry point is installed; invoke the module):

    python -m repro.cli devices
    python -m repro.cli sizes
    python -m repro.cli runtime     [--model "YOLOv2 Tiny"] [--device sd855]
    python -m repro.cli energy      [--model "YOLOv2 Tiny"] [--device sd820]
    python -m repro.cli figure5     [--device sd855]
    python -m repro.cli ablations
    python -m repro.cli summary     <model.pbit>
    python -m repro.cli loadgen     [--model MicroCNN] [--rps 200]
    python -m repro.cli rollout     [--model MicroCNN] [--divergent]
    python -m repro.cli rollback    [--model MicroCNN]
    python -m repro.cli cluster-worker --connect tcp://HOST:PORT

Each sub-command regenerates one of the paper's tables/figures, inspects a
``.pbit`` model file, or exercises the micro-batching inference service.
``loadgen`` offers an open-loop Poisson load and reports tail latency;
``--workers N`` routes the same traffic through a sharded
:class:`~repro.serving.cluster.ClusterService` instead of one in-process
service, and ``--transport pipe|uds|tcp`` picks the worker wire (see
``docs/architecture.md`` and ``docs/deployment.md``).  Closed-loop
throughput sweeps are benchmarks, not commands:
``benchmarks/bench_serving_throughput.py`` (service vs sequential
``engine.run``) and ``benchmarks/bench_cluster_scaling.py`` (cluster vs
single process).
``loadgen`` also takes ``--autoscale MIN:MAX`` (elastic fleet —
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


def _wants_cluster(args) -> bool:
    """Route through a ClusterService instead of one in-process service?"""
    return (args.workers > 1 or args.transport != "pipe"
            or args.expect_workers > 0 or args.autoscale is not None
            or args.pin is not None or args.slo is not None)


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
    loadgen.add_argument(
        "--transport", choices=("pipe", "uds", "tcp"), default="pipe",
        help="how cluster workers are launched and connected: forked, on a "
             "private Unix-domain socket (single host, default); exec'd, "
             "on a Unix-domain socket; or exec'd, over TCP (cross-host)",
    )
    loadgen.add_argument(
        "--bind", default=None, metavar="ADDR",
        help="socket-transport listen address (tcp://host:port or "
             "uds:///path); defaults to TCP loopback on an ephemeral port "
             "or a temp-dir socket path",
    )
    loadgen.add_argument(
        "--expect-workers", type=int, default=0, metavar="N",
        help="wait for N externally launched cluster-worker processes to "
             "self-register (socket transports; combine with --workers 0 "
             "to spawn none locally)",
    )
    loadgen.add_argument(
        "--chunk-hint", type=parse_byte_size, default=None, metavar="BYTES",
        help="working-set byte budget for run_batch chunking (e.g. 64M); "
             "default uses the engine's built-in budget",
    )
    loadgen.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="fused-executor tile threads (default: REPRO_NUM_THREADS or "
             "all cores)",
    )
    loadgen.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="compiled kernel backend for the fused plan (default: "
             "REPRO_BACKEND or auto — compile where possible, verified "
             "bit-exact, NumPy fallback otherwise)",
    )

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


def _cluster_kwargs(args) -> dict:
    """ClusterService keywords shared by every cluster-mode ``loadgen``."""
    return dict(
        max_batch_size=args.max_batch_size,
        cache_capacity=args.cache_capacity,
        chunk_bytes=args.chunk_hint,
        worker_threads=args.threads,
        worker_backend=args.backend or "auto",
        transport=args.transport,
        bind=args.bind,
        expect_workers=args.expect_workers,
    )


def _poisson_schedule(args, count: int):
    import numpy as np

    from repro.serving import poisson_offsets

    return poisson_offsets(np.random.default_rng(args.seed), args.rps, count)


def _command_chaos(args) -> str:
    """Seeded fault-injection run (``loadgen --chaos SEED:PLAN``)."""
    from repro.analysis.reporting import format_kv
    from repro.models.zoo import get_serving_config
    from repro.serving import (
        ClusterService,
        QuarantinePolicy,
        RetryPolicy,
        drive,
        matches_baseline,
        synthetic_images,
    )

    images = synthetic_images(get_serving_config(args.model).input_shape,
                              args.requests, seed=args.seed)
    with ClusterService(models=(args.model,), workers=max(2, args.workers),
                        retry=RetryPolicy(), quarantine=QuarantinePolicy(),
                        faults=args.chaos, **_cluster_kwargs(args)) as cluster:
        result = drive(cluster, args.model, images,
                       _poisson_schedule(args, args.requests), block=False,
                       deadline_s=args.deadline_s)
        events = tuple(cluster.fault_events)
        detail = cluster.cluster_report()
        identical = matches_baseline(cluster, result, images)
    lines = [
        result.table(title="Chaos scenario"), "",
        format_kv([
            ("latency p99 (ms)", result.latency_ms(99.0)),
            ("retries", detail.retries),
            ("hedges", detail.hedges),
            ("quarantined", detail.quarantined),
            ("respawns", detail.respawns),
            ("requeued", detail.requeued),
            ("faults fired", len(events)),
            ("bit identical", identical),
        ], title="Recovery"),
    ]
    if events:
        lines += ["", "fault timeline:"]
        lines += [f"  t={event.at_s:6.3f}s  {event.kind:<10s} {event.target}"
                  for event in events]
    return "\n".join(lines)


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
        **_cluster_kwargs(args),
    )
    pieces = [result.table() for result in results]
    if len(results) > 1:
        pieces.append(passes_table(aggregates))
    return "\n\n".join(pieces)


def _command_rollout(args, operator_rollback: bool = False) -> str:
    """Live-rollout / operator-rollback drill (``rollout`` / ``rollback``).

    Publishes a v2 artifact once ``--publish-at`` of the open-loop
    schedule has arrived and lets canary → promote → commit ride the
    drill's own traffic.  The default v2 is the serving network stamped
    with new release metadata (byte-distinct digest, identical outputs),
    which must commit with zero shed and zero lost requests;
    ``--divergent`` publishes fresh weights, which the canary must roll
    back; ``rollback`` parks the canary on an unreachable sample quota
    and aborts it by hand midway through the remaining schedule.
    """
    from repro.analysis.reporting import format_kv
    from repro.models.zoo import build_phonebit_network, get_serving_config
    from repro.serving import (
        ClusterService,
        RetryPolicy,
        drive,
        matches_baseline,
        rollout_hook,
        settle_rollout,
        synthetic_images,
        write_sweep_records,
    )
    from repro.serving.rollout import RolloutConfig

    config = get_serving_config(args.model)
    divergent = getattr(args, "divergent", False)
    if divergent:
        candidate = build_phonebit_network(config, rng=7 + args.seed)
        candidate.metadata["release"] = "drill-divergent"
    else:
        candidate = build_phonebit_network(config)
        candidate.metadata["release"] = "drill-v2"
    requests = args.requests
    publish_index = min(requests - 1, int(args.publish_at * requests))
    rollback_index = (min(requests - 1, publish_index
                          + max(1, (requests - publish_index) // 2))
                      if operator_rollback else None)
    rollout = RolloutConfig(
        canary_fraction=args.canary_fraction,
        min_canary_samples=(10**9 if operator_rollback
                            else max(1, args.min_samples)),
    )
    images = synthetic_images(config.input_shape, requests, seed=args.seed)
    with ClusterService(models=(args.model,), workers=max(2, args.workers),
                        retry=RetryPolicy()) as cluster:
        result = drive(
            cluster, args.model, images, _poisson_schedule(args, requests),
            block=False,
            on_arrival=rollout_hook(cluster, candidate, args.model,
                                    publish_index, rollback_index, rollout))
        status = settle_rollout(cluster, args.model)
        timeline = cluster.rollout_timeline(args.model)
        identical = matches_baseline(cluster, result, images)
    lines = [
        result.table(title="Live rollout drill"), "",
        format_kv([
            ("old digest", str(status["old_digest"])[:16] + "..."),
            ("new digest", str(status["new_digest"])[:16] + "..."),
            ("final phase", status["phase"]),
            ("rollback reason", status["rollback_reason"] or "-"),
            ("canary samples", status["canary"].get("samples", 0)),
            ("canary mismatches", status["canary"].get("mismatches", 0)),
            ("bit identical", identical),
        ], title="Rollout"),
    ]
    if timeline:
        lines += ["", "rollout timeline:"]
        lines += [f"  t={event['t_s']:7.3f}s  {event['phase']:<11s} "
                  f"{event['kind']:<15s} {event['detail']}"
                  for event in timeline]
    if args.json:
        lines.append(write_sweep_records(timeline, args.json))
    return "\n".join(lines)


def _command_loadgen(args) -> str:
    from repro.core.engine import PhoneBitEngine
    from repro.serving import InferenceService, drive, synthetic_images

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
            pin_models=args.pin,
            autoscale=autoscale,
            **_cluster_kwargs(args),
        )
    else:
        service = InferenceService(
            engine=PhoneBitEngine(num_threads=args.threads,
                                  backend=args.backend),
            max_batch_size=args.max_batch_size,
            cache_capacity=args.cache_capacity,
            chunk_bytes=args.chunk_hint,
        )
        input_shape = None
    with service:
        if input_shape is None:
            # Inside the guard: an unknown model must still close the service.
            input_shape = service.pool.get(args.model).input_shape
        images = synthetic_images(
            input_shape, args.requests, seed=args.seed,
            unique=args.unique_inputs,
        )
        # --slo tags every arrival with one class and admits non-blocking,
        # so the router's tiered sheds are counted instead of stalling.
        result = drive(service, args.model, images,
                       _poisson_schedule(args, len(images)), slo=args.slo,
                       block=args.slo is None)
    if args.slo is not None:
        return result.table(
            title=f"Open loop ({args.model}, non-blocking admission, "
                  f"slo class {args.slo})")
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
