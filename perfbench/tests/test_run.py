"""run.py against BENCHMARK.json, and its refusal to run without sources."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import worker
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_benchmark_json():
    raw = {"lat": [0.1, 0.2, 0.3], "cpu": [0.1, 0.2, 0.3], "attempted": 3, "failed": 0,
           "undetermined": 1, "sign_count": 4}
    units = {k: u for k, (_, u) in worker.end_to_end(raw, "certify").items()}
    units["setup_s"] = "s"
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert all(units[m["name"]] == m["unit"] for m in BENCH["end_to_end"])


def test_per_layer_metrics_match_benchmark_json():
    tracer = Tracer()
    tracer.spans = [(0, "eval", 0.0, 1.0, -1), (0, "curvature.frame", 0.2, 0.6, 0)]
    raw = {"tracer": tracer, "attempted": 1, "raw_lat": [0.9], "traced_lat": [1.0],
           "eval_slowness": [1.0], "slowness": 1.0}
    layers = worker.per_layer(raw, "lu-sweep")
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert abs(layers["curvature.frame_s"][0] - 0.4) < 1e-12
    assert abs(layers["trace.other_s"][0] - 0.6) < 1e-12
    assert abs(layers["trace.overhead_frac"][0] - 0.1) < 1e-12


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
