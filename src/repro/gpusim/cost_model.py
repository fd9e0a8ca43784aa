"""Roofline-style timing model for kernel launches on a mobile SoC.

For every :class:`~repro.gpusim.kernel.KernelLaunch` the model computes

* a compute time — total operations divided by the executing unit's
  sustained throughput for the kernel's arithmetic class, degraded by
  occupancy, divergence and a framework-supplied efficiency factor;
* a memory time — total bytes divided by the effective bandwidth after
  coalescing/vectorization effects;
* a launch overhead — per-enqueue host/driver cost, multiplied by the
  framework's overhead factor (frameworks that cannot fuse layers enqueue
  more kernels *and* pay more per enqueue).

Compute and memory time overlap according to the scheduler's latency-hiding
estimate; the kernel time is their combination plus the overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from repro.gpusim.device import DeviceSpec
from repro.gpusim.divergence import divergence_penalty
from repro.gpusim.kernel import ExecutionUnit, KernelLaunch, LayerWorkload, OpKind
from repro.gpusim.memory import effective_bandwidth_gbs
from repro.gpusim.scheduler import combine_times, estimate_schedule


@dataclass(frozen=True)
class EfficiencyProfile:
    """Framework-level efficiency knobs applied on top of the hardware model.

    These encode how well a given framework's generated kernels use the
    hardware, independent of the algorithmic op/byte counts (which come from
    the kernel descriptors).
    """

    name: str = "ideal"
    #: Fraction of the sustained arithmetic throughput actually achieved.
    compute_efficiency: float = 1.0
    #: Fraction of the effective memory bandwidth actually achieved.
    memory_efficiency: float = 1.0
    #: Multiplier on the per-enqueue launch overhead.
    launch_overhead_factor: float = 1.0
    #: Fixed per-inference host-side overhead in seconds (graph dispatch,
    #: data marshalling, JNI crossings, …).
    per_inference_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.compute_efficiency <= 1.0):
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not (0.0 < self.memory_efficiency <= 1.0):
            raise ValueError("memory_efficiency must be in (0, 1]")


@dataclass(frozen=True)
class KernelCost:
    """Timing breakdown for one kernel launch."""

    kernel: KernelLaunch
    compute_s: float
    memory_s: float
    overhead_s: float
    occupancy: float
    #: compute and memory time combined under the latency-hiding estimate.
    combined_s: float

    @property
    def busy_s(self) -> float:
        """Time the execution unit is busy (excludes launch overhead)."""
        return self.combined_s

    @property
    def total_s(self) -> float:
        return self.combined_s + self.overhead_s

    @property
    def bound(self) -> str:
        """Which resource dominates this kernel ("compute" or "memory")."""
        return "compute" if self.compute_s >= self.memory_s else "memory"


@dataclass
class LayerCost:
    """Aggregated cost of all kernels of one layer."""

    layer_name: str
    layer_type: str
    kernel_costs: List[KernelCost] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(k.total_s for k in self.kernel_costs)

    @property
    def total_ops(self) -> float:
        return sum(k.kernel.total_ops for k in self.kernel_costs)

    @property
    def total_bytes(self) -> float:
        return sum(k.kernel.total_bytes for k in self.kernel_costs)


@dataclass
class RunCost:
    """Cost of a full inference: per-layer breakdown plus totals."""

    device: DeviceSpec
    profile: EfficiencyProfile
    layer_costs: List[LayerCost] = field(default_factory=list)
    per_inference_overhead_s: float = 0.0

    @property
    def total_s(self) -> float:
        return sum(l.total_s for l in self.layer_costs) + self.per_inference_overhead_s

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    def layer_times_ms(self) -> dict:
        """Mapping of layer name to milliseconds."""
        return {l.layer_name: l.total_s * 1e3 for l in self.layer_costs}


class CostModel:
    """Times kernel launches on a device under a framework efficiency profile."""

    #: Sustained fraction of peak arithmetic throughput reachable by a
    #: well-written OpenCL kernel on Adreno-class GPUs.
    GPU_SUSTAINED_FRACTION = 0.60

    def __init__(self, device: DeviceSpec, profile: EfficiencyProfile | None = None):
        self.device = device
        self.profile = profile or EfficiencyProfile()

    # ------------------------------------------------------------------ GPU
    def _gpu_kernel_cost(self, kernel: KernelLaunch) -> KernelCost:
        gpu = self.device.gpu
        schedule = estimate_schedule(gpu, kernel)
        peak_gops = gpu.peak_gflops(kernel.op_kind.value)
        sustained = (
            peak_gops
            * 1e9
            * self.GPU_SUSTAINED_FRACTION
            * self.profile.compute_efficiency
            * max(schedule.occupancy, 0.05)
        )
        compute_s = kernel.total_ops / sustained if sustained else float("inf")
        compute_s *= divergence_penalty(kernel)

        bandwidth = (
            effective_bandwidth_gbs(gpu, kernel) * 1e9 * self.profile.memory_efficiency
        )
        memory_s = kernel.total_bytes / bandwidth if bandwidth else float("inf")

        overhead_s = gpu.kernel_launch_overhead_s * self.profile.launch_overhead_factor
        combined = combine_times(compute_s, memory_s, schedule.overlap)
        return KernelCost(
            kernel=kernel,
            compute_s=compute_s,
            memory_s=memory_s,
            overhead_s=overhead_s,
            occupancy=schedule.occupancy,
            combined_s=combined,
        )

    # ------------------------------------------------------------------ CPU
    def _cpu_kernel_cost(self, kernel: KernelLaunch) -> KernelCost:
        cpu = self.device.cpu
        peak_gops = cpu.peak_gflops(kernel.op_kind.value, threads=kernel.threads)
        sustained = (
            peak_gops * 1e9 * cpu.sustained_efficiency * self.profile.compute_efficiency
        )
        compute_s = kernel.total_ops / sustained if sustained else float("inf")

        bandwidth = cpu.memory_bandwidth_gbs * 1e9 * self.profile.memory_efficiency
        memory_s = kernel.total_bytes / bandwidth if bandwidth else float("inf")

        # CPU execution has no kernel launch, but each layer pays a small
        # dispatch/thread-pool cost.
        overhead_s = 10e-6 * self.profile.launch_overhead_factor
        combined = combine_times(compute_s, memory_s, overlap=0.6)
        return KernelCost(
            kernel=kernel,
            compute_s=compute_s,
            memory_s=memory_s,
            overhead_s=overhead_s,
            occupancy=1.0,
            combined_s=combined,
        )

    # ----------------------------------------------------------------- API
    def kernel_cost(self, kernel: KernelLaunch) -> KernelCost:
        """Time a single kernel launch."""
        if kernel.unit is ExecutionUnit.CPU:
            return self._cpu_kernel_cost(kernel)
        return self._gpu_kernel_cost(kernel)

    def layer_cost(self, workload: LayerWorkload) -> LayerCost:
        """Time all kernels of one layer."""
        costs = [self.kernel_cost(k) for k in workload.kernels]
        return LayerCost(
            layer_name=workload.layer_name,
            layer_type=workload.layer_type,
            kernel_costs=costs,
        )

    def run_cost(self, workloads: Sequence[LayerWorkload]) -> RunCost:
        """Time a full inference described by per-layer workloads."""
        layer_costs = [self.layer_cost(w) for w in workloads]
        return RunCost(
            device=self.device,
            profile=self.profile,
            layer_costs=layer_costs,
            per_inference_overhead_s=self.profile.per_inference_overhead_s,
        )


def total_ops(workloads: Iterable[LayerWorkload]) -> float:
    """Total arithmetic operations across a set of layer workloads."""
    return sum(w.total_ops for w in workloads)


def total_bytes(workloads: Iterable[LayerWorkload]) -> float:
    """Total memory traffic across a set of layer workloads."""
    return sum(w.total_bytes for w in workloads)
