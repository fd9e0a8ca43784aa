"""Tests for the command-line interface and the bench scripts' entry points."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

from repro import cli
from repro.core import model_format


class TestCli:
    def test_devices(self, capsys):
        assert cli.main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Snapdragon 820" in out and "Snapdragon 855" in out

    def test_sizes(self, capsys):
        assert cli.main(["sizes"]) == 0
        assert "VGG16" in capsys.readouterr().out

    def test_runtime_single_model(self, capsys):
        assert cli.main(["runtime", "--model", "YOLOv2 Tiny"]) == 0
        out = capsys.readouterr().out
        assert "PhoneBit" in out and "Snapdragon 855" in out

    def test_energy(self, capsys):
        assert cli.main(["energy", "--device", "sd820"]) == 0
        assert "FPS/W" in capsys.readouterr().out

    def test_figure5(self, capsys):
        assert cli.main(["figure5", "--device", "sd855"]) == 0
        assert "conv9" in capsys.readouterr().out

    def test_summary(self, tmp_path, capsys, tiny_bnn_network):
        path = tmp_path / "tiny.pbit"
        model_format.save_network(tiny_bnn_network, str(path))
        assert cli.main(["summary", str(path)]) == 0
        assert "conv2" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            cli.main([])


def load_bench(name):
    """Import ``benchmarks/<name>.py`` as a module (the scripts are not a
    package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchScripts:
    def test_serving_throughput_table(self, capsys):
        bench = load_bench("bench_serving_throughput")
        assert bench.main([
            "--model", "MicroCNN", "--batches", "1,4", "--requests", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Serving throughput" in out
        assert "bit-identical" in out
        assert "speedup" in out

    def test_serving_throughput_json(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        bench = load_bench("bench_serving_throughput")
        assert bench.main([
            "--batches", "4", "--requests", "8", "--json", str(path),
        ]) == 0
        records = json.loads(path.read_text())["records"]
        assert len(records) == 1
        record = records[0]
        assert record["offered_batch"] == 4
        assert record["bit_identical"] is True
        assert record["req_per_s"] > 0
        assert f"wrote {path}" in capsys.readouterr().out

    def test_cluster_scaling_json(self, tmp_path, capsys):
        path = tmp_path / "scaling.json"
        bench = load_bench("bench_cluster_scaling")
        assert bench.main([
            "--workers", "1", "--batch", "8", "--requests", "16",
            "--json", str(path),
        ]) == 0
        (record,) = json.loads(path.read_text())["records"]
        assert record["op"] == "cluster_scaling"
        assert record["workers"] == 1
        assert record["requests"] == 16
        assert record["bit_identical"] is True
        assert "Cluster scaling" in capsys.readouterr().out


class TestServingCli:
    def test_serve_bench_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve-bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'serve-bench'" in capsys.readouterr().err

    def test_loadgen(self, capsys):
        assert cli.main([
            "loadgen", "--model", "MicroCNN", "--rps", "500",
            "--requests", "12",
        ]) == 0
        out = capsys.readouterr().out
        assert "Load generation" in out
        assert "Serving report — MicroCNN" in out
        assert "latency p99 (ms)" in out

    def test_loadgen_unique_inputs_defeat_the_cache(self, capsys):
        assert cli.main([
            "loadgen", "--rps", "500", "--requests", "8", "--unique-inputs",
        ]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "cache hit rate" in l)
        assert line.rstrip().endswith("0.0%")


class TestScenarioCli:
    def test_scenario_run_prints_per_class_summary(self, capsys):
        assert cli.main([
            "loadgen", "--scenario",
            "web,slo=interactive,rate=50;jobs,slo=batch,rate=30",
            "--duration-s", "0.8", "--workers", "2", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Per-class summary" in out
        assert "interactive" in out and "batch" in out
        assert "schedule digest" in out
        assert "bit identical     True" in out

    def test_scenario_accepts_bundled_names(self):
        args = cli.build_parser().parse_args(
            ["loadgen", "--scenario", "flash_crowd"])
        assert args.scenario.name == "flash_crowd"
        assert {t.slo for t in args.scenario.tenants} >= {"interactive",
                                                          "batch"}

    def test_malformed_scenario_spec_is_a_usage_error(self, capsys):
        for bad in ("no_such_scenario", "t,curve=warp", "t,slo=gold",
                    "slo=interactive"):
            with pytest.raises(SystemExit) as excinfo:
                cli.build_parser().parse_args(["loadgen", "--scenario", bad])
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown arrival curve" in err
        assert "unknown SLO class" in err

    def test_malformed_chaos_spec_is_a_usage_error(self, capsys):
        for bad in ("x:crash", "7:warp", "7:crash*0", "7:"):
            with pytest.raises(SystemExit) as excinfo:
                cli.build_parser().parse_args(["loadgen", "--chaos", bad])
            assert excinfo.value.code == 2
        assert "unknown fault class" in capsys.readouterr().err

    def test_slo_flag_routes_through_shedding_admission(self, capsys):
        assert cli.main([
            "loadgen", "--slo", "batch", "--rps", "400", "--requests", "10",
            "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "non-blocking admission" in out
        assert "slo class" in out and "batch" in out

    def test_unknown_slo_class_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["loadgen", "--slo", "gold"])
        assert excinfo.value.code == 2
