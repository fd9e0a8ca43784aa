"""Compiled kernel backend benchmark (wall-clock, not simulated).

Measures the compiled backend (:mod:`repro.core.backends`: cffi C kernels
behind the fused execution plan, per-step bit-exactness gating) against the
PR 3 NumPy fused plan, at two granularities:

* **per-kernel** — the three compiled kernels (fused xor+threshold+pack,
  xor-popcount GEMM, packed patch extraction) head-to-head with their
  NumPy references on representative shapes;
* **end-to-end** — ``PhoneBitEngine.run_batch`` per backend × model ×
  batch, on the plan's static execution policy.

Every end-to-end cell first asserts the compiled outputs are bit-identical
to the NumPy plan, so a throughput win can never hide a correctness drift.
Records carry the canonical trajectory keys (``op``/``model``, ``shape``/
``batch``, ``ns_per_op``) plus a ``backend`` field validated by
``tools/check_bench_schema.py``.

Usage:

    PYTHONPATH=src python benchmarks/bench_compiled_backend.py \
        --json benchmarks/BENCH_compiled_backend.json --min-speedup 1.5

    # CI smoke (small models/batches, enforced floor):
    PYTHONPATH=src python benchmarks/bench_compiled_backend.py \
        --quick --json compiled-smoke.json --min-speedup 1.3
"""

import argparse
import dataclasses
import sys
import time

#: Reduced per-model input resolutions (same rationale as bench_fused_exec:
#: keep a valid shape pyramid while the sweep finishes in seconds on CPU).
REDUCED_SIZES = {
    "VGG16": 64,
    "AlexNet": 127,
    "YOLOv2 Tiny": 64,
    "TinyCNN": 32,
    "MicroCNN": 8,
}

QUICK_MODELS = ("VGG16:48", "MicroCNN")
DEFAULT_MODELS = ("VGG16", "AlexNet", "TinyCNN", "MicroCNN")


def _resolve_models(specs, full):
    """Parse ``name[:size]`` specs into (name, input_size) pairs."""
    from repro.models.zoo import get_serving_config

    resolved = []
    for spec in specs:
        name, _, size = str(spec).partition(":")
        config = get_serving_config(name.strip())
        if size:
            input_size = int(size)
        elif full:
            input_size = config.input_shape[0]
        else:
            input_size = REDUCED_SIZES.get(config.name, config.input_shape[0])
        resolved.append((config.name, input_size))
    return resolved


def _best_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1000.0


def bench_kernels(impl, reps, seed):
    """Head-to-head per-kernel records: compiled vs the NumPy reference."""
    import numpy as np

    from repro.core import binary_conv, bitpack

    rng = np.random.default_rng(seed)
    records = []

    # Fused xor + threshold + pack: 4096 rows x 512 bits -> 256 channels.
    rows, n_words, cols, word_size = 4096, 8, 256, 64
    a = rng.integers(0, 2 ** 63, size=(rows, n_words), dtype=np.uint64)
    b = rng.integers(0, 2 ** 63, size=(cols, n_words), dtype=np.uint64)
    thresh = rng.integers(0, n_words * word_size, size=cols).astype(np.int32)
    flip = rng.integers(0, 2, size=cols).astype(bool)
    out = np.zeros((rows, bitpack.words_per_channel(cols, word_size)),
                   dtype=np.uint64)
    shape = f"{rows}x{n_words * word_size}x{cols}"
    numpy_ms = _best_ms(lambda: bitpack.fused_xor_threshold_rows(
        a, b, thresh, flip, out, 0, rows, word_size), reps)
    compiled_ms = _best_ms(lambda: impl.fused_xor_threshold_rows(
        a, b, thresh, flip, out, 0, rows, word_size), reps)
    for backend, ms in (("numpy", numpy_ms), (impl.name, compiled_ms)):
        records.append({
            "op": "fused_xor_threshold", "backend": backend, "shape": shape,
            "ns_per_op": ms * 1e6,
            "speedup_vs_numpy": numpy_ms / ms if ms else float("inf"),
        })

    # Exact xor-popcount GEMM (the input-conv path): 1024 x 512 x 128.
    rows, n_words, cols = 1024, 8, 128
    a = rng.integers(0, 2 ** 63, size=(rows, n_words), dtype=np.uint64)
    b = rng.integers(0, 2 ** 63, size=(cols, n_words), dtype=np.uint64)
    gemm_out = np.empty((rows, cols), dtype=np.int64)
    shape = f"{rows}x{n_words * 64}x{cols}"
    numpy_ms = _best_ms(lambda: bitpack.xor_popcount_gemm(a, b), reps)
    compiled_ms = _best_ms(
        lambda: impl.xor_popcount_gemm_rows(a, b, gemm_out, 0, rows), reps)
    for backend, ms in (("numpy", numpy_ms), (impl.name, compiled_ms)):
        records.append({
            "op": "xor_popcount_gemm", "backend": backend, "shape": shape,
            "ns_per_op": ms * 1e6,
            "speedup_vs_numpy": numpy_ms / ms if ms else float("inf"),
        })

    # Packed patch extraction: 8 x 56x56 x 128ch, 3x3 s1 p1.
    packed = rng.integers(0, 2 ** 63, size=(8, 56, 56, 2), dtype=np.uint64)
    k, stride, padding = 3, 1, 1
    ref, oh, ow = binary_conv.packed_patch_matrix(packed, k, stride, padding)
    patch_out = np.empty_like(np.ascontiguousarray(ref))
    shape = "8x56x56x128c_k3s1p1"
    numpy_ms = _best_ms(
        lambda: binary_conv.packed_patch_matrix(packed, k, stride, padding),
        reps)
    compiled_ms = _best_ms(lambda: impl.packed_patch_rows(
        packed, k, stride, padding, oh, ow, patch_out, 0,
        patch_out.shape[0]), reps)
    for backend, ms in (("numpy", numpy_ms), (impl.name, compiled_ms)):
        records.append({
            "op": "packed_patch_rows", "backend": backend, "shape": shape,
            "ns_per_op": ms * 1e6,
            "speedup_vs_numpy": numpy_ms / ms if ms else float("inf"),
        })
    return records


def measure_model(model, input_size, compiled_name, batches, reps, threads,
                  seed):
    """End-to-end records for one model: numpy vs compiled."""
    import numpy as np

    from repro.core import plan as plan_mod
    from repro.core.engine import PhoneBitEngine
    from repro.models.zoo import build_phonebit_network, get_serving_config

    config = get_serving_config(model)
    if input_size != config.input_shape[0]:
        config = dataclasses.replace(
            config, input_shape=(input_size, input_size, 3))
    network = build_phonebit_network(config, rng=seed)
    rng = np.random.default_rng(seed)
    plan = plan_mod.get_plan(network)

    records = []
    for batch in batches:
        images = rng.integers(
            0, 256, size=(batch,) + network.input_shape).astype(np.uint8)
        baseline_ms = None
        reference = None
        for backend in ("numpy", compiled_name):
            engine = PhoneBitEngine(num_threads=threads, backend=backend)
            kwargs = dict(collect_estimate=False)
            out = engine.run_batch(network, images, **kwargs).output.data
            if reference is None:
                reference = out.copy()
            else:
                np.testing.assert_array_equal(reference, out)
            ms = _best_ms(
                lambda e=engine: e.run_batch(network, images, **kwargs), reps)
            if baseline_ms is None:
                baseline_ms = ms
            records.append({
                "op": "compiled_exec",
                "model": model,
                "input_size": input_size,
                "batch": batch,
                "backend": backend,
                "variant": backend,
                "threads": (threads if threads is not None
                            else plan_mod.default_num_threads()),
                "fused_steps": plan.fused_step_count,
                "ms_per_image": ms / batch,
                "ns_per_op": (ms / batch) * 1e6,
                "speedup_vs_numpy": baseline_ms / ms if ms else float("inf"),
                "bit_identical": True,
            })
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", default=None,
                        help="comma-separated zoo models, each optionally "
                             "'name:input_size' (default: "
                             + ",".join(DEFAULT_MODELS) + ")")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full input resolutions")
    parser.add_argument("--batches", default="1,16",
                        help="comma-separated batch sizes")
    parser.add_argument("--reps", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-kernels", action="store_true",
                        help="skip the per-kernel micro section")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write records to PATH ('-' for stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller models/batches (CI smoke mode)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless every model's compiled "
                             "backend reaches this end-to-end speedup "
                             "over the numpy fused plan")
    args = parser.parse_args(argv)

    from repro.core import backends

    name, impl = backends.resolve_backend("auto")
    if impl is None:
        print("no compiled backend available: "
              f"{backends.availability()}", file=sys.stderr)
        return 1

    if args.models:
        specs = [m for m in args.models.split(",") if m.strip()]
    elif args.quick:
        specs = list(QUICK_MODELS)
    else:
        specs = list(DEFAULT_MODELS)
    batches = [int(b) for b in args.batches.split(",") if b.strip()]
    if args.quick:
        batches = batches[:1]
    reps = min(args.reps, 2) if args.quick else args.reps

    records = []
    if not args.no_kernels:
        records.extend(bench_kernels(impl, reps, args.seed))
        for rec in records:
            if rec["backend"] != "numpy":
                print(f"{rec['op']:22s} {rec['shape']:18s} "
                      f"{rec['backend']}: {rec['speedup_vs_numpy']:.2f}x "
                      f"vs numpy")

    model_records = []
    for model, input_size in _resolve_models(specs, args.full):
        rows = measure_model(model, input_size, name, batches, reps,
                             args.threads, args.seed)
        model_records.extend(rows)
        for rec in rows:
            print(f"{model}@{input_size} b{rec['batch']:<3d} "
                  f"{rec['variant']:12s} {rec['ms_per_image']:8.2f} ms/img  "
                  f"{rec['speedup_vs_numpy']:.2f}x vs numpy")
    records.extend(model_records)

    if args.json:
        from repro.serving import write_sweep_records

        print(write_sweep_records(records, args.json))

    if args.min_speedup is not None:
        best = {}
        for rec in model_records:
            if rec["backend"] == "numpy":
                continue
            key = rec["model"]
            best[key] = max(best.get(key, 0.0), rec["speedup_vs_numpy"])
        failed = {m: s for m, s in best.items() if s < args.min_speedup}
        if failed:
            for model, speedup in sorted(failed.items()):
                print(f"FAIL: {model} best compiled speedup {speedup:.2f}x "
                      f"< required {args.min_speedup:.2f}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
