"""Smoke runs of the experiment scripts, each in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv) -> str:
    # each script puts the src tree next to it on its own path
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, argv)],
                          check=True, capture_output=True, text=True, timeout=600).stdout


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


def test_memory_phases_prints_every_phase():
    out = run_script("memory_phases.py", "--workload", "motion-future-resume", "--steps", 2,
                     "--n-per-class", 1, "--train-per-class", 1, "--test-per-class", 1)
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [" ".join(row[1:-3]) for row in rows] == [
        "import", "dataset", "first step", "training", "train features", "fit",
        "test features", "predict"]
    maxrss = [float(row[-3]) for row in rows]
    assert maxrss == sorted(maxrss) and maxrss[0] > 0.0
    assert all((row[-2] == "-" or float(row[-2]) > 0.0) and int(row[-1]) >= 0 for row in rows)
