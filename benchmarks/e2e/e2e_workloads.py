"""The five workloads: seeded inputs, set-up, the request call and the oracle.

Each workload has a *target* object whose constructor is the set-up the
benchmark times (build / publish / spawn / attach / ``warm()``), whose
``submit(index)`` makes one request through the program's public API, whose
``oracle(pool_indices)`` computes the expected outputs with the layer
interpreter (``Network.forward``) and whose ``layer_metrics`` reads, once
after the window, the figures the program already reports about itself.

Sizing rules (two cores): one generator thread, two workers, the UDS
transport and otherwise default knobs.  The program only ever receives the
arrays generated here from ``--seed``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import plan as plan_mod
from repro.core.engine import PhoneBitEngine
from repro.models.zoo import build_phonebit_network, get_serving_config
from repro.serving.cluster import ClusterOverloadError, ClusterService
from repro.serving.service import InferenceService
from repro.serving.shm_store import attach_model

from e2e_drivers import Refused
from e2e_stats import percentile

#: The paper's three networks at the reduced resolutions the repo's other
#: wall-clock benchmarks use (a valid shape pyramid that runs in tens of ms).
PAPER_NETS = (("alexnet", "AlexNet", 127), ("yolov2tiny", "YOLOv2 Tiny", 96),
              ("vgg16", "VGG16", 64))

#: Open-loop arrival rate of ``cluster_open_poisson`` (requests per second).
POISSON_RPS = 1000.0

#: Oracle batches stay small so the interpreter's float temporaries do not
#: show up in ``peak_rss_mb``.
ORACLE_CHUNK = 64


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; why it exists is in ``BENCHMARK.json``."""

    name: str
    #: Fixed latency limit a request must meet to count as within the SLO.
    slo_ms: float
    loop: str  #: "closed" or "open"
    #: Outstanding requests the closed loop keeps (ignored by the open loop).
    window: int
    #: Closed loops: recorder capacity per measured second, far above
    #: anything reachable (the open loop records exactly its schedule).
    max_rps: int
    pool_size: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper_nets_batch1", slo_ms=60.0, loop="closed", window=1,
             max_rps=400, pool_size=6),
    Workload("service_single_stream", slo_ms=10.0, loop="closed", window=1,
             max_rps=4000, pool_size=256),
    Workload("cluster_saturated_small", slo_ms=25.0, loop="closed", window=64,
             max_rps=60000, pool_size=1024),
    Workload("cluster_open_poisson", slo_ms=10.0, loop="open", window=0,
             max_rps=int(POISSON_RPS), pool_size=1024),
    Workload("cluster_cache_zipf", slo_ms=25.0, loop="closed", window=64,
             max_rps=120000, pool_size=1024),
)}


# ------------------------------------------------------------------ inputs
@dataclass
class Inputs:
    """Everything one run feeds the program, a pure function of the seed."""

    #: ``{tag: uint8 array (pool, H, W, 3)}``; one tag per network used.
    images: Dict[str, np.ndarray]
    #: Pool index used by request ``i`` is ``order[i % len(order)]``.
    order: np.ndarray
    #: Open-loop arrival offsets in seconds (empty for closed loops).
    offsets: np.ndarray

    def pool_index(self, request):
        """Pool entry used by request number(s) ``request`` (int or array)."""
        return self.order[request % len(self.order)]


def zipf_order(rng: np.random.Generator, count: int, pool: int) -> np.ndarray:
    return (rng.zipf(1.2, size=count) % pool).astype(np.int64)


def poisson_offsets(rng: np.random.Generator, rate: float,
                    seconds: float) -> np.ndarray:
    # The harness's own schedule, not loadgen's: inputs must not change
    # when the program's load generators are refactored (ROADMAP item 3).
    return np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds)))


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Seeded inputs: same ``(workload, seed, seconds)`` gives the same bytes."""
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([int(seed), index])
    if workload.name == "paper_nets_batch1":
        shapes = {tag: (size, size, 3) for tag, _, size in PAPER_NETS}
    elif workload.name == "service_single_stream":
        shapes = {"TinyCNN": (32, 32, 3)}
    else:
        shapes = {"MicroCNN": (8, 8, 3)}
    images = {
        tag: rng.integers(0, 256, size=(workload.pool_size, *shape),
                          dtype=np.uint8)
        for tag, shape in shapes.items()
    }
    if workload.name == "cluster_cache_zipf":
        order = zipf_order(rng, 1 << 18, workload.pool_size)
    else:
        order = np.arange(workload.pool_size, dtype=np.int64)
    offsets = (poisson_offsets(rng, POISSON_RPS, seconds)
               if workload.loop == "open" else np.zeros(0))
    return Inputs(images=images, order=order, offsets=offsets)


# ----------------------------------------------------------------- targets
def _chunked_forward(network, images: np.ndarray) -> np.ndarray:
    rows = [network.forward(images[start:start + ORACLE_CHUNK]).data
            for start in range(0, len(images), ORACLE_CHUNK)]
    return np.concatenate(rows)


def _step_kind(layer) -> str:
    """Fig. 5's axis: which kind of step a layer's wall time belongs to."""
    return {"InputConv2d": "input_conv", "BinaryConv2d": "binary_conv",
            "BinaryDense": "dense", "Dense": "dense"}.get(
                type(layer).__name__, "other")


def bitops_per_image(network) -> int:
    """Xor-popcount bit operations of one image, counted from layer shapes."""
    total = 0
    for layer, _, out_shape in network.layer_shapes():
        kind = type(layer).__name__
        if kind in ("InputConv2d", "BinaryConv2d"):
            planes = layer.input_bits if kind == "InputConv2d" else 1
            total += (out_shape[0] * out_shape[1] * layer.out_channels
                      * layer.kernel_size ** 2 * layer.in_channels * planes)
        elif kind == "BinaryDense":
            total += layer.in_features * layer.out_features
    return int(total)


class Target:
    """What the harness needs from a set-up workload."""

    #: Set to a list for the traced window; targets that see inside a
    #: request (``PaperNetsTarget``) add their child spans to it.
    spans: Optional[list] = None

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs

    def pool_index(self, index: int) -> int:
        return int(self.inputs.pool_index(index))


class PaperNetsTarget(Target):
    """AlexNet, YOLOv2 Tiny and VGG16 called directly, batch 1.

    One request is one *frame-set*: one frame through each network in
    turn, so the latency distribution has one mode instead of three.

    The engine runs its tiles on one thread.  On the two-core sandbox the
    default two-thread fan-out was both slower (p50 26-40 ms against
    22-25 ms) and the source of a 17-20% run-to-run spread, which no
    regression bound survives; what the default costs is kept visible per
    layer as ``core.plan.default_threads_b1_ms.<net>``.
    """

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(inputs)
        self.engine = PhoneBitEngine(num_threads=1)
        self.networks = {}
        self.compile_ms: Dict[str, float] = {}
        for tag, zoo_name, size in PAPER_NETS:
            config = dataclasses.replace(
                get_serving_config(zoo_name), input_shape=(size, size, 3))
            network = build_phonebit_network(config, rng=0)
            t0 = time.perf_counter()
            network.warm()
            self.compile_ms[tag] = (time.perf_counter() - t0) * 1000.0
            self.networks[tag] = network
        #: Traced window only: ``{tag: {step kind: ms}}``, run_batch wall, calls.
        self.step_ms: Dict[str, Dict[str, float]] = {
            tag: {} for tag in self.networks}
        self.run_ms = {tag: 0.0 for tag in self.networks}
        self.calls = 0

    def submit(self, index: int) -> Future:
        frame = self.pool_index(index)
        parts = []
        for tag, network in self.networks.items():
            t0 = time.perf_counter()
            report = self.engine.run_batch(
                network, self.inputs.images[tag][frame][None],
                collect_estimate=False)
            t1 = time.perf_counter()
            parts.append(report.output.data.ravel())
            if self.spans is not None:
                self._trace(index, tag, network, report, t0, t1)
        if self.spans is not None:
            self.calls += 1
        future: Future = Future()
        future.set_result(np.concatenate(parts))
        return future

    def _trace(self, index, tag, network, report, t0, t1) -> None:
        parent = f"engine.run_batch:{tag}"
        self.spans.append((index, parent, "submit_call", t0, t1))
        cursor = t0
        kinds = self.step_ms[tag]
        for layer, (name, ms) in zip(network.layers,
                                     report.layer_wall_ms.items()):
            if ms <= 0.0:
                continue  # folded into the fused step that starts earlier
            # layer_wall_ms gives durations only; steps run back to back.
            self.spans.append((index, f"plan.step:{tag}:{name}", parent,
                               cursor, cursor + ms / 1000.0))
            cursor += ms / 1000.0
            kind = _step_kind(layer)
            kinds[kind] = kinds.get(kind, 0.0) + ms
        self.run_ms[tag] += (t1 - t0) * 1000.0

    def oracle(self, pool_indices: Sequence[int]) -> np.ndarray:
        return np.stack([
            np.concatenate([
                network.forward(self.inputs.images[tag][frame][None]).data.ravel()
                for tag, network in self.networks.items()])
            for frame in pool_indices])

    def backends(self) -> dict:
        return {tag: self.engine.backend_report(network)
                for tag, network in self.networks.items()}

    def layer_metrics(self, recorder, summary) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        calls = max(1, self.calls)
        compiled = fused = 0
        for tag, network in self.networks.items():
            steps = self.step_ms[tag]
            for kind in ("input_conv", "binary_conv", "dense", "other"):
                metrics[f"core.plan.step_ms.{tag}.{kind}"] = (
                    steps.get(kind, 0.0) / calls)
            plan = plan_mod.get_plan(network)
            metrics[f"core.plan.fused_step_share.{tag}"] = (
                plan.fused_step_count / len(plan.steps))
            metrics[f"core.plan.compile_ms.{tag}"] = self.compile_ms[tag]
            metrics[f"core.plan.bitops_per_image.{tag}"] = float(
                bitops_per_image(network))
            wall = self.run_ms[tag] / calls
            metrics[f"core.engine.run_batch_b1_ms.{tag}"] = wall
            metrics[f"core.engine.self_ms.{tag}"] = (
                wall - sum(steps.values()) / calls)
            frames = self.inputs.images[tag]
            eight = frames[np.arange(8) % len(frames)]
            batch8 = [self.engine.run_batch(
                network, eight, collect_estimate=False).wall_ms_total
                for _ in range(3)]
            metrics[f"core.engine.run_batch_b8_ms_per_image.{tag}"] = (
                percentile(batch8, 50.0) / 8.0)
            fanned_out = [PhoneBitEngine().run_batch(
                network, frames[:1], collect_estimate=False).wall_ms_total
                for _ in range(9)]
            metrics[f"core.plan.default_threads_b1_ms.{tag}"] = percentile(
                fanned_out, 50.0)
            adopted = self.engine.backend_report(network)["steps"].values()
            fused += plan.fused_step_count
            compiled += sum(1 for backend in adopted if backend != "numpy")
        metrics["core.backends.compiled_step_share"] = (
            compiled / fused if fused else 0.0)
        return metrics

    def close(self) -> None:
        self.networks.clear()


def _scheduler_metrics(scheduler, served_p50_ms: float) -> Dict[str, float]:
    """What one ``SchedulerStats`` and the service-side latency say."""
    batch_wall = percentile(
        [record.wall_ms for record in scheduler.batches], 50.0)
    return {
        "serving.service.batch_wall_p50_ms": batch_wall,
        "serving.scheduler.queue_wait_p50_ms":
            max(0.0, served_p50_ms - batch_wall),
        "serving.scheduler.mean_batch_size": scheduler.mean_batch_size,
        "serving.scheduler.timeout_flush_share":
            scheduler.trigger_counts.get("timeout", 0)
            / max(1, scheduler.batch_count),
    }


def _engine_busy_cores(engine, network, images: np.ndarray,
                       mean_batch: float, throughput_rps: float) -> float:
    """Cores' worth of ``run_batch`` work the workload's traffic amounts to.

    ``run_batch`` wall time per image at the workload's mean batch size,
    measured here on the same artifact, times the measured throughput.  A
    small figure means the workload measures ``serving/``, not the kernels.
    """
    batch = images[np.arange(max(1, round(mean_batch))) % len(images)]
    walls = [engine.run_batch(network, batch, collect_estimate=False)
             .wall_ms_total for _ in range(20)]
    return percentile(walls, 50.0) / len(batch) * throughput_rps / 1000.0


class ServiceTarget(Target):
    """In-process ``InferenceService`` serving TinyCNN, response cache off."""

    model = "TinyCNN"

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(inputs)
        self.images = inputs.images[self.model]
        self.service = InferenceService(
            max_batch_size=32, max_wait_ms=2.0, cache_capacity=0)
        self.network = self.service.pool.get(self.model)

    def submit(self, index: int) -> Future:
        return self.service.submit(
            self.model, self.images[self.pool_index(index)])

    def oracle(self, pool_indices: Sequence[int]) -> np.ndarray:
        return _chunked_forward(self.network, self.images[list(pool_indices)])

    def backends(self) -> dict:
        return {self.model: self.service.engine.backend_report(self.network)}

    def layer_metrics(self, recorder, summary) -> Dict[str, float]:
        report = self.service.report(self.model)
        metrics = _scheduler_metrics(report.scheduler, report.latency.p50_ms)
        metrics["core.engine.busy_cores"] = _engine_busy_cores(
            self.service.engine, self.network, self.images,
            report.scheduler.mean_batch_size, summary["window_throughput_rps"])
        metrics["serving.service.submit_call_us"] = percentile(
            (recorder.t_return - recorder.t_call) * 1e6, 50.0)
        metrics["serving.service.self_p50_ms"] = max(
            0.0, summary["window_p50_ms"] - report.latency.p50_ms)
        return metrics

    def close(self) -> None:
        self.service.close()


class ClusterTarget(Target):
    """Two-worker ``ClusterService`` over Unix-domain sockets, MicroCNN."""

    model = "MicroCNN"

    def __init__(self, inputs: Inputs, run_dir: str, cache_capacity: int,
                 block: bool) -> None:
        super().__init__(inputs)
        self.images = inputs.images[self.model]
        self.block = block
        # A relative socket path: sun_path holds about 100 bytes and the
        # checkout may sit under a long directory.
        socket_path = os.path.join(
            os.path.relpath(run_dir), f"cluster-{os.getpid()}.sock")
        # max_outstanding: the default (64 per worker) turns a host stall of
        # a tenth of a second at 1000 req/s into refusals; with 256 such a
        # stall is latency and only sustained overload is refused.  The
        # closed loops keep 64 outstanding in total and never reach either.
        self.cluster = ClusterService(
            models=(self.model,), workers=2, transport="uds",
            cache_capacity=cache_capacity, max_outstanding=256,
            bind=f"uds://{socket_path}")
        try:
            self.attached = attach_model(
                self.cluster.store.handles()[self.model])
        except BaseException:
            self.cluster.close(drain=False)
            raise

    def submit(self, index: int) -> Future:
        image = self.images[self.pool_index(index)]
        try:
            return self.cluster.submit(self.model, image, block=self.block)
        except ClusterOverloadError:
            raise Refused from None

    def oracle(self, pool_indices: Sequence[int]) -> np.ndarray:
        return _chunked_forward(
            self.attached.network, self.images[list(pool_indices)])

    def backends(self) -> dict:
        # Workers select their own kernels; this is the same artifact on
        # the same host, selected the same way.
        return {self.model:
                PhoneBitEngine().backend_report(self.attached.network)}

    def layer_metrics(self, recorder, summary) -> Dict[str, float]:
        report = self.cluster.cluster_report()
        served = [per_model[self.model].latency.p50_ms
                  for per_model in report.worker_reports.values()
                  if self.model in per_model]
        served_p50 = float(np.mean(served)) if served else 0.0
        scheduler = report.aggregated[self.model].scheduler
        metrics = _scheduler_metrics(scheduler, served_p50)
        dispatched = ~recorder.synchronous  # cache hits never reach a worker
        # Workers run the plan on one thread (ClusterService's default).
        metrics["core.engine.busy_cores"] = _engine_busy_cores(
            PhoneBitEngine(num_threads=1), self.attached.network, self.images,
            scheduler.mean_batch_size,
            summary["window_throughput_rps"] * float(dispatched.mean()))
        metrics["serving.cluster.submit_call_p50_us"] = percentile(
            (recorder.t_return - recorder.t_call)[dispatched] * 1e6, 50.0)
        metrics["serving.cluster.overhead_p50_ms"] = max(
            0.0, summary["window_p50_ms"] - served_p50)
        metrics["serving.cluster.latency_p99_ms"] = summary["latency_p99_ms"]
        metrics["serving.cluster.retries"] = float(report.retries)
        metrics["serving.cluster.requeued"] = float(report.requeued)
        metrics["serving.cluster.respawns"] = float(report.respawns)
        metrics["serving.cluster.deadline_expired"] = float(
            report.deadline_expired)
        metrics["serving.router.shed"] = float(report.router.shed)
        metrics["serving.shm_store.worker_attach_ms"] = report.attach_ms_mean
        cache = self.cluster.cache_stats()
        if cache is not None:
            hits = ((recorder.t_done - recorder.t_call)
                    [recorder.synchronous] * 1e6)
            metrics["serving.cache.hit_rate"] = cache.hit_rate
            metrics["serving.cache.hit_path_p50_us"] = percentile(hits, 50.0)
            metrics["serving.cache.hit_path_p99_us"] = percentile(hits, 99.0)
        return metrics

    def baseline_service(self):
        """Single-process service over the same published artifact."""
        return self.cluster.baseline_service()

    def close(self) -> None:
        self.attached.close()
        self.cluster.close()


def build_target(workload: Workload, inputs: Inputs, run_dir: str) -> Target:
    """Run the workload's set-up and return its target."""
    if workload.name == "paper_nets_batch1":
        return PaperNetsTarget(inputs)
    if workload.name == "service_single_stream":
        return ServiceTarget(inputs)
    return ClusterTarget(
        inputs, run_dir,
        cache_capacity=512 if workload.name == "cluster_cache_zipf" else 0,
        block=workload.loop == "closed")


def output_layout(target: Target) -> tuple:
    """``(shape, dtype)`` of one request's output, from the oracle."""
    row = target.oracle([target.pool_index(0)])[0]
    return row.shape, row.dtype
