import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from worker import PROBE_REFERENCE_S, SpeedProbe, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match_what_the_trace_reports():
    reported = set(layer_metrics(Tracer())) | {"machine.calib_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == reported


def test_every_layer_metric_has_a_prediction():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    layers = PREDICTIONS["layers"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for name, p in layers.items():
        assert set(p["moves"]) <= end_to_end, name
        assert set(p["hot"]) | set(p["cold"]) <= set(WORKLOADS), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_samples_while_the_block_runs():
    with SpeedProbe() as probe:
        time.sleep(0.4)
    assert len(probe.samples) >= 3
    assert probe.scale == PROBE_REFERENCE_S / statistics.fmean(probe.samples)
