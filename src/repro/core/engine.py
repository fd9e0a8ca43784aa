"""The PhoneBit inference engine.

The engine plays the role of the OpenCL runtime in the paper: it walks a
:class:`~repro.core.network.Network`, executes each layer functionally (the
bit-exact NumPy kernels) and/or emits the corresponding
:class:`~repro.gpusim.kernel.KernelLaunch` descriptors to the mobile-GPU
cost model to obtain the simulated on-device latency.

Two usage modes:

``run(network, batch)``
    Execute the network on real data and return the output together with an
    :class:`InferenceReport` (simulated latency, per-layer breakdown,
    memory footprint).

``estimate(network)``
    Skip the functional execution and only produce the cost estimate —
    used by the benchmark harness so full-size networks (VGG16 at 224²,
    YOLOv2-Tiny at 416²) can be swept quickly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core import kernels as kern
from repro.core import plan as plan_mod
from repro.core.kernels import ConvGeometry
from repro.core.layers import (
    AvgPool2d,
    BatchNorm2d,
    Binarize,
    BinaryConv2d,
    BinaryDense,
    Dense,
    Flatten,
    FloatConv2d,
    InputConv2d,
    MaxPool2d,
    Relu,
    Softmax,
)
from repro.core.network import Network
from repro.core.tensor import Tensor
from repro.gpusim.cost_model import CostModel, EfficiencyProfile, RunCost
from repro.gpusim.device import DeviceSpec, snapdragon_855
from repro.gpusim.kernel import KernelLaunch, LayerWorkload, OpKind


#: Default byte budget for the working-set-aware chunk heuristic: batches
#: whose per-image arena working set would exceed this are split into chunks
#: that fit (see :meth:`PhoneBitEngine.auto_chunk_size`).
DEFAULT_CHUNK_BYTES = 256 * 2**20

#: Efficiency profile of PhoneBit's hand-tuned OpenCL kernels.
PHONEBIT_PROFILE = EfficiencyProfile(
    name="phonebit",
    compute_efficiency=0.80,
    memory_efficiency=0.90,
    launch_overhead_factor=1.0,
    per_inference_overhead_s=1.5e-3,
)


@dataclass
class InferenceReport:
    """Result of running (or estimating) one inference."""

    network_name: str
    device_name: str
    latency_ms: float
    layer_times_ms: Dict[str, float]
    run_cost: RunCost
    output: Optional[Tensor] = None
    peak_activation_bytes: float = 0.0
    weight_bytes: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def fps(self) -> float:
        return 1000.0 / self.latency_ms if self.latency_ms > 0 else float("inf")


@dataclass
class BatchInferenceReport:
    """Result of one batched execution (:meth:`PhoneBitEngine.run_batch`).

    Wall-clock figures are real measurements on this machine; ``estimate``
    carries the simulated single-image on-device cost (computed once for
    the whole batch rather than once per image).
    """

    network_name: str
    device_name: str
    batch_size: int
    wall_ms_total: float
    layer_wall_ms: Dict[str, float]
    estimate: Optional[InferenceReport]
    output: Optional[Tensor] = None

    @property
    def wall_ms_per_image(self) -> float:
        return self.wall_ms_total / self.batch_size if self.batch_size else 0.0

    @property
    def throughput_ips(self) -> float:
        """Measured end-to-end throughput in images per second."""
        if self.wall_ms_total <= 0:
            return float("inf")
        return 1000.0 * self.batch_size / self.wall_ms_total

    @property
    def layer_throughput_ips(self) -> Dict[str, float]:
        """Measured per-layer throughput in images per second."""
        return {
            name: (1000.0 * self.batch_size / ms if ms > 0 else float("inf"))
            for name, ms in self.layer_wall_ms.items()
        }


class PhoneBitEngine:
    """Inference engine combining functional execution with cost estimation."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        word_size: int = 64,
        profile: EfficiencyProfile | None = None,
        fused: bool = True,
        branchless: bool = True,
        use_plan: bool = True,
        num_threads: int | None = None,
        backend: str | None = None,
    ) -> None:
        self.device = device or snapdragon_855()
        self.word_size = word_size
        self.profile = profile or PHONEBIT_PROFILE
        self.fused = fused
        self.branchless = branchless
        #: Execute through compiled fused plans (:mod:`repro.core.plan`);
        #: ``False`` forces the layer-by-layer interpreter (the unfused
        #: baseline the ``bench_fused_exec`` benchmark measures against).
        self.use_plan = use_plan
        #: Tile-execution thread fan-out; ``None`` defers to
        #: ``REPRO_NUM_THREADS``, then to ``os.cpu_count()`` at execution
        #: time.  Either source is validated by
        #: :func:`repro.core.plan.positive_int`, the single thread-count
        #: validation path.
        self.num_threads = num_threads
        #: Kernel backend spec applied to plans before execution — one of
        #: :data:`repro.core.backends.BACKEND_CHOICES`; ``None`` defers to
        #: ``REPRO_BACKEND`` / ``"auto"``.  Selection is per plan step and
        #: gated on bit-exactness (:mod:`repro.core.backends`).
        self.backend = backend
        self.cost_model = CostModel(self.device, self.profile)

    # ----------------------------------------------------------- planning
    def _plan_for(self, network: Network, backend: str | None = None):
        """Compiled (and cached) execution plan, or None when disabled.

        Also (re)attaches the compiled kernel backend: selection is
        idempotent per spec, so the per-batch cost is one string compare.
        """
        if not self.use_plan:
            return None
        plan = plan_mod.get_plan(network)
        plan.select_backend(backend or self.backend)
        return plan

    def backend_report(self, network: Network) -> dict:
        """Per-step backend selection for ``network`` under current settings."""
        plan = self._plan_for(network)
        if plan is None:
            return {"spec": "numpy", "backend": "numpy", "isa": None, "steps": {}}
        return plan.backend_report()

    def auto_chunk_size(
        self,
        network: Network,
        batch_size: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        plan=None,
    ) -> int:
        """Working-set-aware chunk bound: images per chunk within a byte budget.

        The compiled plan knows its per-image arena working set (packed
        activations + patch scratch, plus the bit-plane ``x1`` map for the
        input layer); the chunk is sized so that working set stays within
        ``chunk_bytes``.  Without a plan the estimate falls back to float32
        layer activations.  At least one image always runs per chunk — the
        budget bounds the *chunking*, it cannot make a single image fit.
        """
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if plan is None:
            plan = self._plan_for(network)
        if plan is not None:
            per_sample = plan.per_sample_bytes
        else:
            per_sample = max(
                (
                    4 * (int(np.prod(in_shape)) + int(np.prod(out_shape)))
                    for _, in_shape, out_shape in network.layer_shapes()
                ),
                default=0,
            )
        if per_sample <= 0:
            return batch_size
        return max(1, min(batch_size, chunk_bytes // per_sample))

    # ----------------------------------------------------------- workloads
    def _elementwise_workload(
        self, name: str, layer_type: str, values: int, element_bytes: float,
        op_kind: OpKind = OpKind.FP32,
    ) -> LayerWorkload:
        kernel = KernelLaunch(
            name=f"{name}/{layer_type}",
            work_items=max(values, 1),
            ops_per_item=2,
            bytes_read_per_item=element_bytes,
            bytes_written_per_item=element_bytes,
            op_kind=op_kind,
            vector_width=4,
        )
        return LayerWorkload(layer_name=name, layer_type=layer_type, kernels=[kernel])

    def network_workloads(self, network: Network) -> List[LayerWorkload]:
        """Translate every layer of a network into kernel workloads."""
        workloads: List[LayerWorkload] = []
        packed_stream = False
        for layer, in_shape, out_shape in network.layer_shapes():
            if isinstance(layer, InputConv2d):
                geometry = ConvGeometry(
                    in_height=in_shape[0], in_width=in_shape[1],
                    in_channels=layer.in_channels, out_channels=layer.out_channels,
                    kernel_size=layer.kernel_size, stride=layer.stride,
                    padding=layer.padding,
                )
                workloads.append(
                    kern.phonebit_binary_conv_workload(
                        layer.name, geometry, word_size=self.word_size,
                        fused=self.fused, branchless=self.branchless,
                        input_bitplanes=layer.input_bits,
                        output_binary=layer.output_binary,
                    )
                )
                packed_stream = layer.output_binary
            elif isinstance(layer, BinaryConv2d):
                geometry = ConvGeometry(
                    in_height=in_shape[0], in_width=in_shape[1],
                    in_channels=layer.in_channels, out_channels=layer.out_channels,
                    kernel_size=layer.kernel_size, stride=layer.stride,
                    padding=layer.padding,
                )
                workloads.append(
                    kern.phonebit_binary_conv_workload(
                        layer.name, geometry, word_size=self.word_size,
                        fused=self.fused, branchless=self.branchless,
                        output_binary=layer.output_binary,
                    )
                )
                packed_stream = layer.output_binary
            elif isinstance(layer, FloatConv2d):
                geometry = ConvGeometry(
                    in_height=in_shape[0], in_width=in_shape[1],
                    in_channels=layer.in_channels, out_channels=layer.out_channels,
                    kernel_size=layer.kernel_size, stride=layer.stride,
                    padding=layer.padding,
                )
                workloads.append(kern.phonebit_float_conv_workload(layer.name, geometry))
                packed_stream = False
            elif isinstance(layer, (MaxPool2d, AvgPool2d)):
                padding = getattr(layer, "padding", 0)
                workloads.append(
                    kern.phonebit_pool_workload(
                        layer.name, in_shape[0], in_shape[1], in_shape[2],
                        layer.pool_size, layer.stride, padding,
                        packed=packed_stream and isinstance(layer, MaxPool2d),
                        word_size=self.word_size,
                    )
                )
            elif isinstance(layer, BinaryDense):
                workloads.append(
                    kern.phonebit_binary_dense_workload(
                        layer.name, layer.in_features, layer.out_features,
                        word_size=self.word_size,
                        output_binary=layer.output_binary,
                    )
                )
                packed_stream = layer.output_binary
            elif isinstance(layer, Dense):
                workloads.append(
                    kern.phonebit_float_dense_workload(
                        layer.name, layer.in_features, layer.out_features
                    )
                )
                packed_stream = False
            elif isinstance(layer, Binarize):
                values = int(np.prod(out_shape))
                workloads.append(
                    self._elementwise_workload(
                        layer.name, "binarize", values, 4.0, OpKind.BITWISE
                    )
                )
                packed_stream = True
            elif isinstance(layer, (BatchNorm2d, Relu, Softmax)):
                values = int(np.prod(out_shape))
                workloads.append(
                    self._elementwise_workload(layer.name, type(layer).__name__.lower(),
                                               values, 4.0)
                )
            elif isinstance(layer, Flatten):
                # Pure view change; PhoneBit performs it during the next
                # layer's indexing, so no kernel is emitted.
                continue
            else:
                raise TypeError(
                    f"engine does not know how to cost layer type {type(layer).__name__}"
                )
        return workloads

    # ----------------------------------------------------------- estimation
    def estimate(self, network: Network) -> InferenceReport:
        """Estimate one-image inference latency without executing the math."""
        workloads = self.network_workloads(network)
        run_cost = self.cost_model.run_cost(workloads)
        peak_activation = max((w.activation_bytes for w in workloads), default=0.0)
        weight_bytes = sum(w.weight_bytes for w in workloads)
        return InferenceReport(
            network_name=network.name,
            device_name=self.device.soc,
            latency_ms=run_cost.total_ms,
            layer_times_ms=run_cost.layer_times_ms(),
            run_cost=run_cost,
            peak_activation_bytes=peak_activation,
            weight_bytes=weight_bytes,
        )

    # ----------------------------------------------------------- execution
    def run(self, network: Network, batch: np.ndarray) -> InferenceReport:
        """Execute the network on a batch and attach the cost estimate.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.core.engine import PhoneBitEngine
        >>> from repro.models.zoo import build_phonebit_network, micro_cnn_config
        >>> network = build_phonebit_network(micro_cnn_config())
        >>> engine = PhoneBitEngine()
        >>> batch = np.zeros((2, 8, 8, 3), dtype=np.uint8)
        >>> report = engine.run(network, batch)
        >>> report.output.data.shape   # one 10-class row per image
        (2, 10)
        >>> report.latency_ms > 0      # simulated on-device latency attached
        True
        """
        plan = self._plan_for(network)
        if plan is not None:
            output = plan.execute(
                network.coerce_input(batch), threads=self.num_threads
            )
        else:
            output = network.forward(batch)
        report = self.estimate(network)
        report.output = output
        return report

    def run_batch(
        self,
        network: Network,
        batch: np.ndarray,
        chunk_size: int | None = None,
        collect_estimate: bool = True,
        chunk_bytes: int | None = None,
        backend: str | None = None,
    ) -> BatchInferenceReport:
        """Execute a whole batch through the network in one vectorized pass.

        Unlike calling :meth:`run` once per image, this amortizes all
        per-call overhead across the batch: every layer kernel runs once on
        the full (or chunked) batch, per-layer wall-clock times and
        throughput are recorded, and the simulated cost estimate is computed
        a single time instead of once per image.

        This method is reentrant: it keeps all mutable state in locals, so
        concurrent callers (e.g. the serving scheduler's worker threads) may
        share one engine and one network as long as the network's weights
        are not mutated mid-flight — layer forward passes only *read* layer
        state (packed weights are replaced on assignment, never mutated).

        Examples
        --------
        >>> import numpy as np
        >>> from repro.core.engine import PhoneBitEngine
        >>> from repro.models.zoo import build_phonebit_network, micro_cnn_config
        >>> network = build_phonebit_network(micro_cnn_config())
        >>> engine = PhoneBitEngine()
        >>> batch = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        >>> report = engine.run_batch(network, batch, collect_estimate=False)
        >>> report.output.data.shape
        (4, 10)
        >>> per_image = engine.run(network, batch[:1]).output.data[0]
        >>> bool(np.array_equal(report.output.data[0], per_image))
        True

        Parameters
        ----------
        network:
            The network to execute.
        batch:
            Input of shape ``(N,) + network.input_shape``.
        chunk_size:
            Optional explicit bound on how many images run through the layer
            stack at once.  When omitted, the working-set-aware heuristic
            below picks the chunk.  The final output buffer is allocated
            once and reused across chunks (chunk results are written in
            place, never concatenated).
        collect_estimate:
            When False, skip the simulated on-device cost estimate (the
            report's ``estimate`` is None).  The serving hot path disables
            it: the estimate depends only on the network, not the data, so
            recomputing it per micro-batch is pure overhead.
        chunk_bytes:
            Byte budget for the working-set-aware chunk heuristic
            (:meth:`auto_chunk_size`); defaults to ``DEFAULT_CHUNK_BYTES``.
            Ignored when ``chunk_size`` is given explicitly.
        backend:
            Per-call kernel backend override (a
            :data:`repro.core.backends.BACKEND_CHOICES` spec); ``None``
            keeps the engine's ``backend`` setting.
        """
        x = network.coerce_input(batch)
        n = int(x.data.shape[0])
        if n == 0:
            raise ValueError("run_batch needs a non-empty batch")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if chunk_bytes is not None and chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        plan = self._plan_for(network, backend)
        if chunk_size is None:
            auto = self.auto_chunk_size(
                network, n, chunk_bytes or DEFAULT_CHUNK_BYTES, plan=plan
            )
            chunk_size = auto if auto < n else None

        # Report keys must be unique even when layers share a (default)
        # name, or duplicate layers would silently merge their timings;
        # repeats are disambiguated as "name#2", "name#3", ...
        layer_keys: List[str] = []
        name_counts: Dict[str, int] = {}
        for layer in network.layers:
            count = name_counts.get(layer.name, 0) + 1
            name_counts[layer.name] = count
            layer_keys.append(layer.name if count == 1 else f"{layer.name}#{count}")
        layer_wall: Dict[str, float] = {key: 0.0 for key in layer_keys}
        out_buffer: Optional[np.ndarray] = None
        out_template: Optional[Tensor] = None

        starts = range(0, n, chunk_size) if chunk_size else [0]
        t_total = time.perf_counter()
        for start in starts:
            stop = min(start + chunk_size, n) if chunk_size else n
            chunk = Tensor(
                x.data[start:stop], x.layout, x.packed, x.true_channels
            ) if (start, stop) != (0, n) else x
            if plan is not None:
                step_times: list = []
                current = plan.execute(
                    chunk, threads=self.num_threads, step_times=step_times
                )
                for step, seconds in step_times:
                    # A fused step may cover several layers (conv → BN →
                    # binarize); its wall clock is attributed to the first.
                    layer_wall[layer_keys[step.layer_start]] += seconds
            else:
                current = chunk
                t_layer = time.perf_counter()
                for key, (_, current) in zip(layer_keys, network.iter_forward(current)):
                    now = time.perf_counter()
                    layer_wall[key] += now - t_layer
                    t_layer = now
            if out_buffer is None:
                # First chunk sizes the reusable output buffer for the batch.
                out_shape = (n,) + current.data.shape[1:]
                out_buffer = np.empty(out_shape, dtype=current.data.dtype)
                out_template = current
            out_buffer[start:stop] = current.data
        wall_ms = (time.perf_counter() - t_total) * 1000.0

        output = Tensor(
            out_buffer,
            out_template.layout,
            out_template.packed,
            out_template.true_channels,
        )
        return BatchInferenceReport(
            network_name=network.name,
            device_name=self.device.soc,
            batch_size=n,
            wall_ms_total=wall_ms,
            layer_wall_ms={name: ms * 1000.0 for name, ms in layer_wall.items()},
            estimate=self.estimate(network) if collect_estimate else None,
            output=output,
        )


def split_batch_output(
    output: Tensor,
    sizes: "list[int] | tuple[int, ...]",
    copy: bool = False,
) -> List[Tensor]:
    """Split a batched output tensor back into per-request tensors.

    The serving executor concatenates several requests into one micro-batch;
    this undoes that concatenation.  ``sizes`` holds the number of leading
    rows each request contributed, and must sum to the batch dimension.

    With ``copy=False`` the returned tensors are zero-copy row views sharing
    the batch buffer — cheap, but any part kept alive pins the whole buffer.
    With ``copy=True`` each part owns its data, which is what the serving
    path uses: responses outlive the batch (response cache, client
    references) and must not alias one another.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.tensor import Layout, Tensor
    >>> batched = Tensor(np.arange(12).reshape(6, 2), Layout.NHWC)
    >>> parts = split_batch_output(batched, [2, 1, 3])
    >>> [p.data.shape[0] for p in parts]
    [2, 1, 3]
    >>> bool(parts[1].data[0, 0] == batched.data[2, 0])
    True
    """
    sizes = [int(s) for s in sizes]
    if any(s <= 0 for s in sizes):
        raise ValueError("every request must contribute at least one row")
    n = int(output.data.shape[0])
    if sum(sizes) != n:
        raise ValueError(
            f"request sizes sum to {sum(sizes)} but the batch has {n} rows"
        )
    parts: List[Tensor] = []
    start = 0
    for size in sizes:
        rows = output.data[start:start + size]
        parts.append(
            Tensor(
                rows.copy() if copy else rows,
                output.layout,
                output.packed,
                output.true_channels,
            )
        )
        start += size
    return parts
