"""End-to-end benchmark of the whole stack: five workloads, one command.

One workload, as the benchmark driver calls it (last stdout line is the
result object; ``--trace 1`` prints the per-layer metrics instead of the
end-to-end ones)::

    python3 benchmarks/e2e/run.py --workload cluster_saturated_small \
        --seed 0 --seconds 12 --trace 0

All five, each in its own child process with a hard timeout, written as one
results file that ``compare.py`` reads::

    python3 benchmarks/e2e/run.py --seed 0 --repeat 3 --out A.json

Names, units, directions and bounds live in ``BENCHMARK.json`` at the root
of the repository; ``README.md`` beside this file says what each measures.
Everything the run leaves behind goes under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(BUILD_DIR, "e2e")

# The driver's command names this file and nothing else, so the program
# (src/) and the harness modules beside this file are put on the path here.
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from e2e_drivers import (  # noqa: E402
    Recorder, drive_closed, drive_open, self_times, write_spans)
from e2e_probes import run_probes  # noqa: E402
from e2e_stats import OK, percentile, summarize_requests  # noqa: E402
from e2e_workloads import (  # noqa: E402
    WORKLOADS, build_target, make_inputs, output_layout, poisson_offsets)
from repro.core import backends as kernel_backends  # noqa: E402

#: Discarded load before the measured window (caches fill, threads start).
WARMUP_S = 1.0
#: Cold set-ups per untraced run; ``setup_s`` is their median.  A set-up of
#: a few milliseconds is repeated more often, up to a second in total.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 1.0
#: A single workload must end well inside the driver's 180 s limit.
HARD_TIMEOUT_S = 150
#: Traced-run extras: single-process comparison and the open-loop ladder.
BASELINE_S = 2.0
LADDER_STEP_S = 1.5
LADDER_RPS = (1000, 2000, 3000, 4000)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def prepare_environment() -> None:
    """Run directory and build cache, both inside the checkout."""
    os.makedirs(RUN_DIR, exist_ok=True)
    # Compiled kernels are built once per checkout (workers inherit this),
    # and the compiler's scratch files stay in the checkout too.
    os.environ["REPRO_BACKEND_CACHE"] = os.path.join(BUILD_DIR, "backends")
    os.environ["TMPDIR"] = RUN_DIR


def check_backend() -> str:
    """Build the kernels and refuse a silent NumPy fallback.

    On a host with a C compiler and cffi, ``auto`` must resolve to the
    compiled backend: the NumPy plan is about five times slower and would
    read as a regression of ``paper_nets_batch1``, not as a broken build.
    """
    name, _ = kernel_backends.resolve_backend("auto")
    toolchain = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))
    if (toolchain and importlib.util.find_spec("cffi") is not None
            and name != "cffi"):
        raise SystemExit(
            f"backend 'auto' resolved to {name!r} although a C compiler and "
            f"cffi are present: {kernel_backends.availability()}")
    return name


def measure(submit, workload, inputs, seconds, layout, spans=None,
            offsets=None):
    """Drive one window and return its trimmed recorder."""
    shape, dtype = layout
    if workload.loop == "open":
        if offsets is None:
            offsets = inputs.offsets[inputs.offsets < seconds]
        recorder = Recorder(len(offsets), shape, dtype, spans)
        return drive_open(submit, recorder, offsets)
    recorder = Recorder(int(workload.max_rps * seconds) + workload.window,
                        shape, dtype, spans)
    return drive_closed(submit, recorder, workload.window, seconds)


def oracle_outputs(target, workload, inputs, recorders):
    """Interpreter outputs for every pool entry the windows used."""
    used = np.unique(np.concatenate([
        inputs.pool_index(np.arange(recorder.count))
        for recorder in recorders]))
    rows = target.oracle(used)
    expected = np.zeros((workload.pool_size,) + rows.shape[1:], rows.dtype)
    expected[used] = rows
    return expected


def summarize(recorder, workload, inputs, expected):
    """Verify every output against the oracle and reduce the window."""
    same = recorder.outputs == expected[
        inputs.pool_index(np.arange(recorder.count))]
    correct = same.reshape(recorder.count, -1).all(axis=1)
    return summarize_requests(
        recorder.status, recorder.t_origin, recorder.t_done, correct,
        workload.slo_ms, t_first=float(recorder.t_call.min()))


def peak_rss_mb() -> float:
    """This process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def traced_extras(workload, target, inputs, layout, untraced, seed):
    """Per-layer figures that need a run of their own."""
    metrics = {}
    if workload.name == "cluster_saturated_small":
        service = target.baseline_service()
        try:
            recorder = measure(
                lambda i: service.submit(
                    target.model, target.images[target.pool_index(i)]),
                workload, inputs, BASELINE_S, layout)
        finally:
            service.close()
        single = int((recorder.status == OK).sum()) / (
            float(recorder.t_done.max()) - float(recorder.t_call.min()))
        metrics["serving.cluster.vs_single_process_ratio"] = (
            untraced["window_throughput_rps"] / single if single else 0.0)
    if workload.name == "cluster_open_poisson":
        best = 0
        for rate in LADDER_RPS:
            rng = np.random.default_rng([int(seed), 2000 + rate])
            recorder = measure(
                target.submit, workload, inputs, LADDER_STEP_S, layout,
                offsets=poisson_offsets(rng, rate, LADDER_STEP_S))
            step = summarize_requests(
                recorder.status, recorder.t_origin, recorder.t_done,
                np.ones(recorder.count, dtype=bool), workload.slo_ms)
            if step["failed"] or step["latency_p95_ms"] > workload.slo_ms:
                break
            best = rate
        metrics["serving.cluster.max_rate_within_slo_rps"] = float(best)
    return metrics


def set_up(workload, inputs, once: bool):
    """Cold set-ups, each through a first inference checked against the
    oracle; returns the last target (left open) and every set-up's seconds."""
    times = []
    target = None
    try:
        while not (times and once) and len(times) < MAX_SETUPS and not (
                len(times) >= MIN_SETUPS and sum(times) >= SETUP_BUDGET_S):
            if target is not None:
                target.close()
                target = None
            t0 = time.perf_counter()
            target = build_target(workload, inputs, RUN_DIR)
            first = target.submit(0).result(timeout=60)
            if not np.array_equal(
                    first, target.oracle([target.pool_index(0)])[0]):
                raise SystemExit(
                    f"{workload.name}: first inference differs from the oracle")
            times.append(time.perf_counter() - t0)
    except BaseException:
        if target is not None:
            target.close()
        raise
    return target, times


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> dict:
    """Set up, drive, verify and tear down one workload in this process."""
    workload = WORKLOADS[name]
    backend = check_backend()
    inputs = make_inputs(workload, seed, seconds)
    spans = [] if traced else None
    layer = {}
    target, setup_times = set_up(workload, inputs, once=smoke or traced)
    try:
        backends = target.backends()
        for tag, report in backends.items():
            if report["backend"] != backend:
                raise SystemExit(
                    f"{name}: plan {tag} runs on {report['backend']!r}, "
                    f"expected {backend!r}")
        layout = output_layout(target)
        measure(target.submit, workload, inputs,
                0.1 if smoke else WARMUP_S, layout)
        if traced:
            recorder = measure(target.submit, workload, inputs, seconds / 2,
                               layout)
            target.spans = spans
            traced_recorder = measure(target.submit, workload, inputs,
                                      seconds / 2, layout, spans)
            target.spans = None
        else:
            recorder = measure(target.submit, workload, inputs, seconds, layout)
        expected = oracle_outputs(
            target, workload, inputs,
            [recorder, traced_recorder] if traced else [recorder])
        summary = summarize(recorder, workload, inputs, expected)
        if traced:
            traced_summary = summarize(traced_recorder, workload, inputs, expected)
            layer.update(target.layer_metrics(traced_recorder, traced_summary))
            layer.update(traced_extras(workload, target, inputs, layout,
                                       summary, seed))
            layer["bench.tracing_overhead_share"] = (
                1.0 - traced_summary["window_throughput_rps"]
                / summary["window_throughput_rps"]
                if summary["window_throughput_rps"] else 0.0)
            layer["bench.generator_lag_p99_ms"] = percentile(
                (traced_recorder.t_call - traced_recorder.t_origin) * 1e3, 99.0)
            layer["bench.slo_miss_share"] = traced_summary["slo_miss_share"]
            layer["bench.failed_share"] = traced_summary["failed_share"]
            for key in ("attempted", "succeeded", "failed", "refused",
                        "raised", "wrong"):
                summary[key] += traced_summary[key]
    finally:
        target.close()
    rss = peak_rss_mb()

    if traced:
        layer.update(run_probes(seed))
        write_spans(os.path.join(RUN_DIR, f"{name}.spans.jsonl"), name, spans)
        selfs = self_times(spans)
        roots = float(np.sum(traced_recorder.t_done - traced_recorder.t_origin))
        covered = sum(float(np.sum(values)) for values in selfs.values())
        if roots and abs(covered - roots) > 0.01 * roots:
            raise SystemExit(f"{name}: span self times cover {covered:.3f} s "
                             f"of {roots:.3f} s of requests")
        for span_name in ("request", "submit_call", "await_result"):
            layer[f"bench.span_self_p50_us.{span_name}"] = percentile(
                selfs.get(span_name, []), 50.0) * 1e6

    end_to_end = {
        "throughput_rps": summary["throughput_rps"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p95_ms": summary["latency_p95_ms"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "summary": summary, "end_to_end": end_to_end, "per_layer": layer,
        "setup_times_s": setup_times, "backends": backends,
        "provenance": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "backend": backend,
        },
    }


def result_line(spec: dict, outcome: dict) -> dict:
    """The object the driver reads: exactly the metrics ``BENCHMARK.json`` names."""
    summary = outcome["summary"]
    if outcome["traced"]:
        unknown = set(outcome["per_layer"]) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        metrics = {m["name"]: {"value": float(outcome["per_layer"].get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(outcome["end_to_end"][m["name"]]),
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": summary["failed"] == 0,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics}


def print_outcome(outcome: dict, line: dict) -> None:
    summary = outcome["summary"]
    name = outcome["workload"]
    print(f"{name}: attempted={summary['attempted']} "
          f"succeeded={summary['succeeded']} failed={summary['failed']} "
          f"refused={summary['refused']} raised={summary['raised']} "
          f"wrong={summary['wrong']} failed_share={summary['failed_share']:.5f} "
          f"slo_miss_share={summary['slo_miss_share']:.5f}")
    print(f"{name}: whole window of {summary['wall_s']:.2f} s: "
          f"{summary['window_throughput_rps']:.6g} 1/s, "
          f"p50 {summary['window_p50_ms']:.6g} ms, "
          f"p95 {summary['window_p95_ms']:.6g} ms; "
          f"tail p{summary['tail_percentile']:g} {summary['tail_ms']:.6g} ms "
          f"(the highest percentile with ten samples beyond it)")
    for metric, entry in line["metrics"].items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    Publishing a model to shared memory starts the tracker as a child of
    this process.  Before Python 3.12 the interpreter does not wait for it
    at exit, so it outlived every cluster run by a moment, as an orphan.
    Called after ``close()``, when every segment is already unlinked.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    pid = getattr(tracker, "_pid", None)
    if pid is None:
        return  # never started
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for the process
        return
    os.kill(pid, signal.SIGTERM)
    os.waitpid(pid, 0)


def run_one(args, spec: dict) -> int:
    def interrupted(signum, frame):
        raise SystemExit(f"{args.workload}: stopped by signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGALRM, interrupted)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
    finally:
        signal.alarm(0)
        stop_resource_tracker()
    line = result_line(spec, outcome)
    with open(os.path.join(
            RUN_DIR, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump({**outcome, "result": line}, fh)
    print_outcome(outcome, line)
    print(json.dumps(line))
    return 0


# ------------------------------------------------------------------- suite
def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def session_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def run_child(name: str, args) -> dict:
    """One workload in its own session, so a timeout can kill all of it."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    child = subprocess.Popen(command, start_new_session=True, cwd=ROOT)
    try:
        code = child.wait(timeout=HARD_TIMEOUT_S + 20)
    except subprocess.TimeoutExpired:
        child.terminate()  # SIGTERM unwinds through close()
        try:
            child.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        code = -1
    # The child's resource tracker unlinks what a killed child left in
    # /dev/shm; give the session a moment to empty before killing the rest.
    deadline = time.monotonic() + 5.0
    while session_alive(child.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if session_alive(child.pid):
        os.killpg(child.pid, signal.SIGKILL)  # workers that outlived it
    child.wait()
    if os.path.isdir("/dev/shm"):
        leaked = set(os.listdir("/dev/shm")) - before
        if leaked:
            raise SystemExit(f"{name}: shared-memory segments left behind: "
                             f"{sorted(leaked)}")
    if code != 0:
        raise SystemExit(f"{name}: exited with code {code}")
    with open(os.path.join(RUN_DIR, f"{name}.trace{args.trace}.json")) as fh:
        return json.load(fh)


def run_suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    started = time.perf_counter()
    for repeat in range(args.repeat):
        for name in names:
            outcome = run_child(name, args)
            outcome["repeat"] = repeat
            runs.append(outcome)
    first = runs[0]
    results = {
        "provenance": {
            **first["provenance"], "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace), "git_commit": git_commit(),
            "backends": {run["workload"]: run["backends"] for run in runs},
        },
        "runs": [{key: run[key] for key in (
            "workload", "repeat", "summary", "end_to_end", "per_layer",
            "setup_times_s")} for run in runs],
    }
    out = args.out or os.path.join(
        RUN_DIR, f"results.seed{args.seed}.trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(results, fh, indent=1)
    if args.repeat > 1:
        print(f"\n{'workload':26s} {'metric':16s} {'min':>10s} {'median':>10s} "
              f"{'max':>10s} {'(max-min)/median':>17s}")
        for name in names:
            for metric in spec["end_to_end"]:
                values = [run["end_to_end"][metric["name"]] for run in runs
                          if run["workload"] == name]
                median = statistics.median(values)
                print(f"{name:26s} {metric['name']:16s} {min(values):10.4g} "
                      f"{median:10.4g} {max(values):10.4g} "
                      f"{(max(values) - min(values)) / median:17.3f}")
    print(f"\nwrote {os.path.relpath(out)} "
          f"({len(runs)} runs in {time.perf_counter() - started:.0f} s)")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run this workload in this process "
                             "(default: all five, one child process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and print the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite passes (min/median/max are printed)")
    parser.add_argument("--out", default=None, help="results JSON path")
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and a 0.1 s warm-up (self-tests)")
    args = parser.parse_args(argv)
    prepare_environment()
    if args.workload is not None:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
