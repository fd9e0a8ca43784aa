"""Sequential network container.

A :class:`Network` is an ordered list of layers plus an input shape.  It
supports shape inference, functional forward execution, and the parameter /
memory accounting used for Table II of the paper.  The user-facing API
mirrors the paper's "construct network with C++ API" step (Fig. 3), just in
Python:

>>> net = Network("tiny", input_shape=(32, 32, 3), input_dtype="uint8")
>>> net.add(InputConv2d(3, 16, kernel_size=3, padding=1))      # doctest: +SKIP
>>> net.add(MaxPool2d(2))                                       # doctest: +SKIP
>>> output = net.forward(image)                                 # doctest: +SKIP
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.layers.base import Layer, ParamCount
from repro.core.tensor import Layout, Tensor


class Network:
    """An ordered stack of PhoneBit layers."""

    def __init__(
        self,
        name: str,
        input_shape: Tuple[int, ...],
        input_dtype: str = "uint8",
        layers: Sequence[Layer] | None = None,
        metadata: dict | None = None,
    ) -> None:
        self.name = name
        self.input_shape = tuple(int(d) for d in input_shape)
        self.input_dtype = input_dtype
        self.layers: List[Layer] = []
        self.metadata = dict(metadata or {})
        for layer in layers or []:
            self.add(layer)

    # ------------------------------------------------------------- building
    def add(self, layer: Layer) -> "Network":
        """Append a layer (returns self so calls can be chained)."""
        if not isinstance(layer, Layer):
            raise TypeError(f"expected a Layer, got {type(layer).__name__}")
        # Validate immediately so shape errors point at the offending layer.
        self.layers.append(layer)
        try:
            self.output_shape()
        except ValueError:
            self.layers.pop()
            raise
        return self

    def extend(self, layers: Iterable[Layer]) -> "Network":
        """Append several layers."""
        for layer in layers:
            self.add(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    # ------------------------------------------------------------- shapes
    def layer_shapes(self) -> List[Tuple[Layer, Tuple[int, ...], Tuple[int, ...]]]:
        """(layer, input_shape, output_shape) triples for every layer."""
        shapes = []
        current = self.input_shape
        for layer in self.layers:
            out = layer.output_shape(current)
            shapes.append((layer, current, out))
            current = out
        return shapes

    def output_shape(self, upto: int | None = None) -> Tuple[int, ...]:
        """Shape produced by the first ``upto`` layers (all by default)."""
        current = self.input_shape
        count = len(self.layers) if upto is None else upto
        for layer in self.layers[:count]:
            current = layer.output_shape(current)
        return current

    # ------------------------------------------------------------- forward
    def coerce_input(self, x) -> Tensor:
        """Wrap/validate a batch as a :class:`Tensor` with the right shape."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x), Layout.NHWC)
        if x.data.shape[1:] != self.input_shape:
            raise ValueError(
                f"{self.name}: expected input shape (N,)+{self.input_shape}, "
                f"got {x.data.shape}"
            )
        return x

    def iter_forward(self, x):
        """Run the network layer by layer, yielding ``(layer, activation)``.

        The generator form lets callers (e.g. the engine's batched executor)
        observe per-layer outputs and wall-clock times without the network
        having to know about timing or buffering concerns.
        """
        current = self.coerce_input(x)
        for layer in self.layers:
            current = layer.forward(current)
            yield layer, current

    def forward(self, x, collect_activations: bool = False):
        """Run the network on a batch.

        Parameters
        ----------
        x:
            Input batch as an ndarray of shape ``(N,) + input_shape`` or a
            :class:`Tensor`.
        collect_activations:
            When True, also return the list of intermediate tensors.
        """
        current = self.coerce_input(x)
        activations = []
        for _, current in self.iter_forward(current):  # re-coercion is a no-op
            if collect_activations:
                activations.append(current)
        if collect_activations:
            return current, activations
        return current

    __call__ = forward

    # ------------------------------------------------------------- warm-up
    def warm(self, backend: "str | None" = None) -> "Network":
        """Compile the execution plan ahead of the first request (returns self).

        Compiles the fused execution plan (integer thresholds, arena
        layout — see :mod:`repro.core.plan`) *and* attaches compiled
        kernel backends to the plan's lowered steps (``backend`` is a
        :data:`repro.core.backends.BACKEND_CHOICES` spec; ``None`` uses the
        process default), so a serving system pays compile and per-step
        verification costs at load time rather than on the first request.
        Safe to call repeatedly — a still-current plan and an unchanged
        backend spec are no-ops.
        """
        from repro.core import plan as plan_mod  # local import: plan builds on layers

        plan_mod.get_plan(self).select_backend(backend)
        return self

    # ------------------------------------------------------------- accounting
    def param_count(self) -> ParamCount:
        """Aggregate parameter inventory across all layers."""
        total = ParamCount()
        for layer in self.layers:
            total = total + layer.param_count()
        return total

    def compressed_size_bytes(self) -> int:
        """Model size in PhoneBit's compressed storage format."""
        return self.param_count().compressed_bytes

    def full_precision_size_bytes(self) -> int:
        """Model size if every parameter were stored as float32."""
        return self.param_count().full_precision_bytes

    def compression_ratio(self) -> float:
        """Full-precision size divided by compressed size."""
        compressed = self.compressed_size_bytes()
        return self.full_precision_size_bytes() / compressed if compressed else float("inf")

    # ------------------------------------------------------------- reporting
    def summary(self) -> str:
        """Human-readable per-layer summary table."""
        lines = [f"Network {self.name!r} (input {self.input_shape}, {self.input_dtype})"]
        header = f"{'layer':<24}{'type':<16}{'output shape':<20}{'params':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for layer, _, out_shape in self.layer_shapes():
            params = layer.param_count().total
            lines.append(
                f"{layer.name:<24}{type(layer).__name__:<16}"
                f"{str(out_shape):<20}{params:>12,}"
            )
        count = self.param_count()
        lines.append("-" * len(header))
        lines.append(
            f"total params: {count.total:,} "
            f"(binary {count.binary:,}, float32 {count.float32:,}, int8 {count.int8:,})"
        )
        lines.append(
            f"compressed size: {self.compressed_size_bytes() / 2**20:.1f} MiB; "
            f"full precision: {self.full_precision_size_bytes() / 2**20:.1f} MiB"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Network(name={self.name!r}, layers={len(self.layers)})"
