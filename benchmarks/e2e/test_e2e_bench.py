"""Fast self-tests of the end-to-end benchmark harness (no cluster is started)."""

import collections
import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import compare
import e2e_drivers
import e2e_stats
import e2e_workloads
from e2e_stats import OK, RAISED, REFUSED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


class FakeClock:
    """Advances by ``step`` on every reading; ``sleep`` jumps it forward."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeService:
    """Answers request ``index`` with ``[index]`` from its own thread.

    Counts how many requests are outstanding at once, so a driver that
    overshoots its window is caught.  With ``immediate=True`` the answer is
    ready when ``submit`` returns (no thread, usable with a fake clock).
    """

    def __init__(self, immediate=False):
        self.immediate = immediate
        self.lock = threading.Lock()
        self.pending = collections.deque()
        self.outstanding = 0
        self.max_outstanding = 0
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self._answer, daemon=True)
        if not immediate:
            self.thread.start()

    def submit(self, index):
        future = Future()
        if self.immediate:
            future.set_result(np.array([index]))
            return future
        with self.lock:
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)
            self.pending.append((index, future))
        return future

    def _answer(self):
        while not self.stopped.is_set():
            with self.lock:
                item = self.pending.popleft() if self.pending else None
                if item is not None:
                    self.outstanding -= 1
            if item is None:
                time.sleep(0.0002)
            else:
                item[1].set_result(np.array([item[0]]))

    def close(self):
        self.stopped.set()
        if self.thread.is_alive():
            self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


def test_same_seed_gives_byte_identical_schedule_and_zipf_order():
    poisson = e2e_workloads.WORKLOADS["cluster_open_poisson"]
    zipf = e2e_workloads.WORKLOADS["cluster_cache_zipf"]
    for workload in (poisson, zipf):
        a = e2e_workloads.make_inputs(workload, 7, 2.0)
        b = e2e_workloads.make_inputs(workload, 7, 2.0)
        other = e2e_workloads.make_inputs(workload, 8, 2.0)
        assert a.offsets.tobytes() == b.offsets.tobytes()
        assert a.order.tobytes() == b.order.tobytes()
        assert a.images["MicroCNN"].tobytes() == b.images["MicroCNN"].tobytes()
        assert a.images["MicroCNN"].tobytes() != other.images["MicroCNN"].tobytes()
    a = e2e_workloads.make_inputs(poisson, 7, 2.0)
    assert len(a.offsets) == 2000 and np.all(np.diff(a.offsets) > 0)
    z = e2e_workloads.make_inputs(zipf, 7, 2.0).order
    assert z.min() >= 0 and z.max() < zipf.pool_size
    assert z.tobytes() != e2e_workloads.make_inputs(zipf, 8, 2.0).order.tobytes()


@pytest.mark.parametrize("count, expected", [
    (100_000, 99.9), (1_000, 99.0), (999, 95.0), (220, 95.0), (199, 90.0),
    (40, 75.0), (39, 50.0), (3, 50.0)])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert e2e_stats.highest_supported_percentile(count) == expected


def test_closed_driver_never_exceeds_its_window():
    window = 4
    service = FakeService()
    recorder = e2e_drivers.Recorder(100_000, (1,), np.int64)
    try:
        e2e_drivers.drive_closed(service.submit, recorder, window, 0.2)
    finally:
        service.close()
    assert service.max_outstanding == window
    assert window < recorder.count < recorder.capacity
    assert service.outstanding == 0  # drained before returning
    assert np.all(recorder.status == OK)
    assert np.array_equal(recorder.outputs[:, 0], np.arange(recorder.count))
    assert np.all(recorder.t_done > recorder.t_origin)
    assert recorder.t_origin.max() - recorder.t_origin.min() < 0.2


def test_open_driver_times_from_the_due_instant():
    clock = FakeClock(step=0.0)
    offsets = np.arange(1, 11) * 0.001  # one request per millisecond

    def slow_submit(index):
        clock.sleep(0.005)  # the call takes five times the arrival gap
        future = Future()
        future.set_result(np.array([index]))
        return future

    recorder = e2e_drivers.Recorder(len(offsets), (1,), np.int64)
    e2e_drivers.drive_open(slow_submit, recorder, offsets, clock, clock.sleep)
    assert np.allclose(recorder.t_origin, offsets)  # start is 0.0
    lag = recorder.t_call - recorder.t_origin
    assert lag[0] == 0.0 and np.all(np.diff(lag) > 0)  # falls ever further behind
    latency = recorder.t_done - recorder.t_origin
    assert np.allclose(latency, lag + 0.005)


def test_refusals_errors_and_wrong_outputs_are_failures():
    def submit(index):
        if index == 1:
            raise e2e_drivers.Refused
        if index == 2:
            raise ValueError("boom")
        future = Future()
        if index == 3:
            future.set_exception(RuntimeError("worker died"))
        else:
            future.set_result(np.array([index]))
        return future

    clock = FakeClock(step=0.0)
    recorder = e2e_drivers.Recorder(5, (1,), np.int64)
    e2e_drivers.drive_open(submit, recorder, np.arange(5) * 0.001, clock,
                           clock.sleep)
    assert list(recorder.status) == [OK, REFUSED, RAISED, RAISED, OK]
    correct = recorder.outputs[:, 0] == np.array([0, 1, 2, 3, 99])  # last is wrong
    summary = e2e_stats.summarize_requests(
        recorder.status, recorder.t_origin, recorder.t_done + 0.001, correct,
        slo_ms=10.0)
    assert summary["attempted"] == 5 and summary["succeeded"] == 1
    assert (summary["refused"], summary["raised"], summary["wrong"]) == (1, 2, 1)
    assert summary["failed_share"] == pytest.approx(0.8)
    assert summary["slo_miss_share"] == pytest.approx(0.8)  # a failure misses


def test_window_figures_are_those_of_a_good_second():
    # Ten seconds at 100 req/s and 10 ms, of which three at 50 req/s and 20 ms.
    done, latency = [], []
    for second in range(10):
        slow = 3 <= second < 6
        count = 50 if slow else 100
        done.extend(second + (np.arange(count) + 1) / count)
        latency.extend([0.020 if slow else 0.010] * count)
    done, latency = np.array(done), np.array(latency)
    summary = e2e_stats.summarize_requests(
        np.full(done.size, OK, dtype=np.int8), done - latency, done,
        np.ones(done.size, dtype=bool), slo_ms=15.0, t_first=0.0)
    assert summary["throughput_rps"] == pytest.approx(100.0)
    assert summary["latency_p50_ms"] == pytest.approx(10.0)
    assert summary["latency_p95_ms"] == pytest.approx(10.0)
    assert summary["latency_p99_ms"] == pytest.approx(20.0)  # whole window
    assert summary["slo_miss_share"] == pytest.approx(150 / 850)


def test_span_self_times_add_up_to_the_request():
    spans = []
    service = FakeService(immediate=True)
    recorder = e2e_drivers.Recorder(100, (1,), np.int64, spans)
    e2e_drivers.drive_closed(service.submit, recorder, 1, 0.05,
                             FakeClock(step=0.001))
    spans.append((0, "engine.run_batch:net", "submit_call",
                  recorder.t_call[0], recorder.t_return[0]))
    selfs = e2e_drivers.self_times(spans)
    assert set(selfs) == {"request", "submit_call", "await_result",
                          "engine.run_batch:net"}
    total = sum(sum(values) for values in selfs.values())
    assert total == pytest.approx(float(np.sum(recorder.t_done - recorder.t_origin)))
    assert selfs["submit_call"][0] == pytest.approx(0.0)  # all in its child


def test_compare_verdicts_and_provenance_guard():
    assert compare.verdict([100, 101, 99], [98, 100, 99], "higher", 0.10) == "ok"
    assert compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.10) == "regressed"
    assert compare.verdict(
        [10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.10) == "regressed"
    assert compare.verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.10) == "ok"
    # Spread wider than the bound and overlapping runs: cannot tell.
    assert compare.verdict(
        [100, 130, 90], [85, 120, 95], "higher", 0.10) == "unresolved"
    base = {"provenance": {"nproc": 2, "backend": "cffi", "backends": {},
                           "seconds": 12, "traced": False}}
    other = {"provenance": dict(base["provenance"], nproc=8, backend="numpy")}
    assert compare.incomparable(base, base) == []
    assert compare.incomparable(base, other) == ["nproc", "backend"]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert [w["name"] for w in SPEC["workloads"]] == list(e2e_workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    assert end_to_end == ["throughput_rps", "latency_p50_ms", "latency_p95_ms",
                          "setup_s", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]] + end_to_end
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 11) <= 3420  # set-up, verify, teardown


def test_resource_tracker_is_stopped_and_reaped():
    # In a process of its own: stopping pytest's tracker is not this test's job.
    script = (
        "import os, sys\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import run\n"
        "from multiprocessing import resource_tracker\n"
        "run.stop_resource_tracker()  # never started: nothing to do\n"
        "resource_tracker.ensure_running()\n"
        "pid = resource_tracker._resource_tracker._pid\n"
        "os.kill(pid, 0)  # alive\n"
        "run.stop_resource_tracker()\n"
        "try:\n"
        "    os.kill(pid, 0)\n"
        "except ProcessLookupError:\n"
        "    sys.exit(0)  # gone and waited for: not even a zombie is left\n"
        "sys.exit(f'resource tracker {pid} outlived stop_resource_tracker()')\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, cwd=ROOT)
    assert done.returncode == 0, done.stderr


def test_smoke_pass_of_service_single_stream():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "service_single_stream", "--seconds", "0.3", "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 10
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
