"""The compressed PhoneBit model format (``.pbit``).

The deployment flow in Fig. 2 of the paper converts a trained BNN model into
a compressed PhoneBit file that is uploaded to the phone and loaded by the
C++ API.  The format implemented here keeps the same spirit:

* binary filter weights are stored *packed* (one bit per weight);
* the fused per-channel thresholds ``ξ`` and the batch-norm scale signs are
  stored as float32 vectors;
* full-precision layers store float32 weights;
* the file is self-describing — a JSON header lists every layer with its
  hyper-parameters and the offset/shape/dtype of each attached array.

Layout of a ``.pbit`` file::

    bytes 0..3    magic  b"PBIT"
    bytes 4..5    format version (uint16, little endian)
    bytes 6..13   header length H (uint64, little endian)
    bytes 14..    JSON header (H bytes, UTF-8)
    ...           concatenated raw array payloads, 8-byte aligned
"""

from __future__ import annotations

import io
import json
from typing import BinaryIO, Dict, List, Tuple

import numpy as np

from repro.core.fusion import BatchNormParams
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

MAGIC = b"PBIT"
FORMAT_VERSION = 1
_ALIGNMENT = 8


class ModelFormatError(RuntimeError):
    """Raised when a ``.pbit`` payload cannot be parsed."""


# --------------------------------------------------------------------------
# per-layer (de)serialization
# --------------------------------------------------------------------------

def _bn_from_threshold(threshold: np.ndarray, gamma: np.ndarray) -> BatchNormParams:
    """Reconstruct batch-norm parameters that reproduce a fused threshold.

    Only the threshold and the sign of γ affect a fused binary layer, so the
    reconstruction picks β = 0, µ = ξ and σ = 1; the resulting layer is
    functionally identical to the one that was saved.
    """
    channels = threshold.shape[0]
    return BatchNormParams(
        gamma=gamma.astype(np.float64),
        beta=np.zeros(channels),
        mean=threshold.astype(np.float64),
        var=np.full(channels, 1.0 - 1e-5),
    )


def _bn_from_affine(scale: np.ndarray, offset: np.ndarray) -> BatchNormParams:
    """Reconstruct batch-norm parameters that reproduce a folded affine."""
    channels = scale.shape[0]
    return BatchNormParams(
        gamma=scale.astype(np.float64),
        beta=offset.astype(np.float64),
        mean=np.zeros(channels),
        var=np.full(channels, 1.0 - 1e-5),
    )


def _serialize_binary_conv(layer) -> Tuple[dict, Dict[str, np.ndarray]]:
    config = {
        "in_channels": layer.in_channels,
        "out_channels": layer.out_channels,
        "kernel_size": layer.kernel_size,
        "stride": layer.stride,
        "padding": layer.padding,
        "word_size": layer.word_size,
        "output_binary": layer.output_binary,
    }
    if isinstance(layer, InputConv2d):
        config["input_bits"] = layer.input_bits
    arrays = {
        "weights_packed": layer.weights_packed,
        "threshold": layer.threshold.astype(np.float32),
        "gamma": layer.gamma.astype(np.float32),
        "bias": layer.bias.astype(np.float32),
    }
    if not layer.output_binary:
        from repro.core.fusion import fold_batchnorm_affine

        scale, offset = fold_batchnorm_affine(layer.batchnorm, layer.bias)
        arrays["scale"] = scale.astype(np.float32)
        arrays["offset"] = offset.astype(np.float32)
    return config, arrays


def _deserialize_binary_conv(cls, name, config, arrays):
    if config["output_binary"]:
        bn = _bn_from_threshold(arrays["threshold"], arrays["gamma"])
        bias = None
    else:
        bn = _bn_from_affine(arrays["scale"], arrays["offset"])
        bias = None
    kwargs = {}
    if cls is InputConv2d:
        kwargs["input_bits"] = config.get("input_bits", 8)
    return cls(
        config["in_channels"],
        config["out_channels"],
        config["kernel_size"],
        stride=config["stride"],
        padding=config["padding"],
        word_size=config["word_size"],
        output_binary=config["output_binary"],
        batchnorm=bn,
        bias=bias,
        name=name,
        weights_packed=arrays["weights_packed"],
        **kwargs,
    )


def _serialize_binary_dense(layer: BinaryDense) -> Tuple[dict, Dict[str, np.ndarray]]:
    config = {
        "in_features": layer.in_features,
        "out_features": layer.out_features,
        "word_size": layer.word_size,
        "output_binary": layer.output_binary,
    }
    arrays = {
        "weights_packed": layer.weights_packed,
        "threshold": layer.threshold.astype(np.float32),
        "gamma": layer.gamma.astype(np.float32),
    }
    if not layer.output_binary:
        from repro.core.fusion import fold_batchnorm_affine

        scale, offset = fold_batchnorm_affine(layer.batchnorm, layer.bias)
        arrays["scale"] = scale.astype(np.float32)
        arrays["offset"] = offset.astype(np.float32)
    return config, arrays


def _deserialize_binary_dense(name, config, arrays) -> BinaryDense:
    if config["output_binary"]:
        bn = _bn_from_threshold(arrays["threshold"], arrays["gamma"])
    else:
        bn = _bn_from_affine(arrays["scale"], arrays["offset"])
    return BinaryDense(
        config["in_features"],
        config["out_features"],
        word_size=config["word_size"],
        output_binary=config["output_binary"],
        batchnorm=bn,
        name=name,
        weights_packed=arrays["weights_packed"],
    )


def _layer_record(layer) -> Tuple[str, dict, Dict[str, np.ndarray]]:
    """(type name, config, arrays) for one layer."""
    if isinstance(layer, InputConv2d):
        config, arrays = _serialize_binary_conv(layer)
        return "input_conv2d", config, arrays
    if isinstance(layer, BinaryConv2d):
        config, arrays = _serialize_binary_conv(layer)
        return "binary_conv2d", config, arrays
    if isinstance(layer, FloatConv2d):
        config = {
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "kernel_size": layer.kernel_size,
            "stride": layer.stride,
            "padding": layer.padding,
            "use_bias": layer.use_bias,
            "activation": layer.activation,
        }
        return "float_conv2d", config, {"weights": layer.weights, "bias": layer.bias}
    if isinstance(layer, BinaryDense):
        config, arrays = _serialize_binary_dense(layer)
        return "binary_dense", config, arrays
    if isinstance(layer, Dense):
        config = {
            "in_features": layer.in_features,
            "out_features": layer.out_features,
            "use_bias": layer.use_bias,
            "activation": layer.activation,
        }
        return "dense", config, {"weights": layer.weights, "bias": layer.bias}
    if isinstance(layer, MaxPool2d):
        return "max_pool2d", {
            "pool_size": layer.pool_size,
            "stride": layer.stride,
            "padding": layer.padding,
        }, {}
    if isinstance(layer, AvgPool2d):
        return "avg_pool2d", {"pool_size": layer.pool_size, "stride": layer.stride}, {}
    if isinstance(layer, BatchNorm2d):
        params = layer.params
        return "batch_norm2d", {"eps": params.eps}, {
            "gamma": params.gamma.astype(np.float32),
            "beta": params.beta.astype(np.float32),
            "mean": params.mean.astype(np.float32),
            "var": params.var.astype(np.float32),
        }
    if isinstance(layer, Binarize):
        return "binarize", {"word_size": layer.word_size}, {}
    if isinstance(layer, Flatten):
        return "flatten", {"word_size": layer.word_size}, {}
    if isinstance(layer, Relu):
        return "relu", {}, {}
    if isinstance(layer, Softmax):
        return "softmax", {}, {}
    raise ModelFormatError(f"layer type {type(layer).__name__} cannot be serialized")


def _build_layer(type_name: str, name: str, config: dict,
                 arrays: Dict[str, np.ndarray]):
    if type_name == "input_conv2d":
        return _deserialize_binary_conv(InputConv2d, name, config, arrays)
    if type_name == "binary_conv2d":
        return _deserialize_binary_conv(BinaryConv2d, name, config, arrays)
    if type_name == "float_conv2d":
        return FloatConv2d(
            config["in_channels"], config["out_channels"], config["kernel_size"],
            stride=config["stride"], padding=config["padding"],
            use_bias=config["use_bias"], activation=config["activation"],
            weights=arrays["weights"], bias=arrays["bias"], name=name,
        )
    if type_name == "binary_dense":
        return _deserialize_binary_dense(name, config, arrays)
    if type_name == "dense":
        return Dense(
            config["in_features"], config["out_features"],
            use_bias=config["use_bias"], activation=config["activation"],
            weights=arrays["weights"], bias=arrays["bias"], name=name,
        )
    if type_name == "max_pool2d":
        return MaxPool2d(config["pool_size"], config["stride"],
                         padding=config.get("padding", 0), name=name)
    if type_name == "avg_pool2d":
        return AvgPool2d(config["pool_size"], config["stride"], name=name)
    if type_name == "batch_norm2d":
        params = BatchNormParams(
            gamma=arrays["gamma"], beta=arrays["beta"],
            mean=arrays["mean"], var=arrays["var"], eps=config.get("eps", 1e-5),
        )
        return BatchNorm2d(params, name=name)
    if type_name == "binarize":
        return Binarize(word_size=config.get("word_size", 64), name=name)
    if type_name == "flatten":
        return Flatten(word_size=config.get("word_size", 64), name=name)
    if type_name == "relu":
        return Relu(name=name)
    if type_name == "softmax":
        return Softmax(name=name)
    raise ModelFormatError(f"unknown layer type {type_name!r} in model file")


# --------------------------------------------------------------------------
# container
# --------------------------------------------------------------------------

def _aligned(offset: int) -> int:
    remainder = offset % _ALIGNMENT
    return offset if remainder == 0 else offset + (_ALIGNMENT - remainder)


def save_network(network: Network, target) -> int:
    """Serialize a network to ``target`` (path or binary file object).

    Returns the number of payload bytes written.
    """
    layer_entries: List[dict] = []
    payload = io.BytesIO()
    for layer in network.layers:
        type_name, config, arrays = _layer_record(layer)
        array_entries = {}
        for array_name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _aligned(payload.tell())
            payload.write(b"\x00" * (offset - payload.tell()))
            payload.write(array.tobytes())
            array_entries[array_name] = {
                "offset": offset,
                "shape": list(array.shape),
                "dtype": array.dtype.str,
            }
        layer_entries.append(
            {
                "type": type_name,
                "name": layer.name,
                "config": config,
                "arrays": array_entries,
            }
        )
    header = {
        "name": network.name,
        "input_shape": list(network.input_shape),
        "input_dtype": network.input_dtype,
        "metadata": network.metadata,
        "layers": layer_entries,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    payload_bytes = payload.getvalue()

    def _write(stream: BinaryIO) -> int:
        stream.write(MAGIC)
        stream.write(FORMAT_VERSION.to_bytes(2, "little"))
        stream.write(len(header_bytes).to_bytes(8, "little"))
        stream.write(header_bytes)
        stream.write(payload_bytes)
        return len(payload_bytes)

    if hasattr(target, "write"):
        return _write(target)
    with open(target, "wb") as handle:
        return _write(handle)


def serialize_network(network: Network) -> bytes:
    """Serialize ``network`` to an in-memory ``.pbit`` payload.

    Convenience wrapper over :func:`save_network` used by the shared-memory
    model store, which needs the byte length before allocating the segment.

    Examples
    --------
    >>> from repro.models.zoo import build_phonebit_network, micro_cnn_config
    >>> raw = serialize_network(build_phonebit_network(micro_cnn_config()))
    >>> raw[:4]
    b'PBIT'
    """
    buffer = io.BytesIO()
    save_network(network, buffer)
    return buffer.getvalue()


def load_network(source) -> Network:
    """Deserialize a network from ``source`` (path or binary file object).

    Every array is copied out of the file image, so the returned network
    owns its memory.  To attach to an existing buffer without copying the
    bulk weights (e.g. a ``multiprocessing.shared_memory`` segment), use
    :func:`load_network_from_buffer` with ``zero_copy=True``.
    """
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "rb") as handle:
            raw = handle.read()
    return load_network_from_buffer(raw)


def load_network_from_buffer(buffer, zero_copy: bool = False) -> Network:
    """Deserialize a network from a bytes-like ``.pbit`` image.

    Parameters
    ----------
    buffer:
        Bytes-like object (``bytes``, ``memoryview``, ``shm.buf``) holding a
        complete ``.pbit`` image.
    zero_copy:
        When True, the packed binary weights of conv/dense layers are
        *views* into ``buffer`` — nothing is copied, which is how cluster
        workers attach to the shared-memory model store.  Either way the
        layers adopt the packed words as stored; nothing is unpacked.  The
        caller must keep the underlying buffer alive (and should keep it
        unmodified) for the lifetime of the returned network; weight arrays
        are frozen read-only.  Small per-channel vectors (thresholds, γ,
        batch-norm statistics) are always copied into float64 working form
        by layer construction.

    Returns
    -------
    Network
        Functionally identical to the network that was saved; outputs are
        bit-identical between ``zero_copy=True`` and ``False``.
    """
    view = memoryview(buffer)
    if bytes(view[:4]) != MAGIC:
        raise ModelFormatError("not a PhoneBit model file (bad magic)")
    version = int.from_bytes(view[4:6], "little")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    header_len = int.from_bytes(view[6:14], "little")
    header = json.loads(bytes(view[14:14 + header_len]).decode("utf-8"))
    payload = view[14 + header_len:]

    layers = []
    for entry in header["layers"]:
        arrays = {}
        for array_name, info in entry["arrays"].items():
            dtype = np.dtype(info["dtype"])
            shape = tuple(info["shape"])
            count = int(np.prod(shape)) if shape else 1
            start = info["offset"]
            stop = start + count * dtype.itemsize
            array = np.frombuffer(payload[start:stop], dtype=dtype).reshape(shape)
            if zero_copy:
                if array.flags.writeable:
                    array.setflags(write=False)
            else:
                array = array.copy()
            arrays[array_name] = array
        layers.append(
            _build_layer(entry["type"], entry["name"], entry["config"], arrays)
        )
    return Network(
        header["name"],
        input_shape=tuple(header["input_shape"]),
        input_dtype=header["input_dtype"],
        layers=layers,
        metadata=header.get("metadata", {}),
    )
