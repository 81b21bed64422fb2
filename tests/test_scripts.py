"""Smoke runs of the experiment scripts, each in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    # each script puts the src tree next to it on its own path
    subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, argv)],
                   check=True, capture_output=True, text=True, timeout=600)


def test_motion_benchmark_reports_each_seeds_gap(tmp_path):
    run_script("run_motion_benchmark.py", "--seeds", "0,1", "--steps", 2, "--n-per-class", 1,
               "--train-per-class", 1, "--test-per-class", 1, "--out", tmp_path)
    rows = json.loads((tmp_path / "benchmark.json").read_text())
    assert [row["seed"] for row in rows] == [0, 1]
    for row in rows:
        assert row["gap_pp"] == 100.0 * (row["kinematic_l1"] - row["baseline"]), row


def test_variant_sweep_writes_one_row_per_variant(tmp_path):
    run_script("run_variant_sweep.py", "--variants", "Baseline,Kin.-L1", "--steps", 2,
               "--n-per-class", 1, "--out", tmp_path)
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert [row["variant"] for row in rows] == ["Baseline", "Kin.-L1"]
    assert all(row["steps"] == 2 for row in rows)
