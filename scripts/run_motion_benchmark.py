#!/usr/bin/env python3
"""Seed-paired motion discrimination: Baseline vs Kinematic-L1.

Trains both encoders under an identical budget (same seed, data, schedule,
masking), probes each on held-out synthetic clips, and prints the
percentage-point gap per seed. The kinematic arm differs only in its
objective: the temporal-smoothness penalty with the EMA teacher disabled.
Each seed is one `lab sweep` of the two arms under OUT/s<seed>, which
renders the seed's training set and probe sets once for both.

Usage:
    python3 scripts/run_motion_benchmark.py [--seeds 0,1,2] [--steps 500]
        [--out runs/motion-benchmark] [--train-per-class 32] [--test-per-class 16]
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vjlab.cli import SWEEP_NAME
from vjlab.cli import main as lab_main
from vjlab.config import save_config, variant_defaults


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=str, default="0,1,2")
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--n-per-class", type=int, default=64)
    ap.add_argument("--train-per-class", type=int, default=32)
    ap.add_argument("--test-per-class", type=int, default=16)
    ap.add_argument("--out", type=str, default="runs/motion-benchmark")
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    out = Path(args.out)
    rows = []
    for seed in seeds:
        root = out / f"s{seed}"
        root.mkdir(parents=True, exist_ok=True)
        shared = root / "shared.lab"
        save_config(dataclasses.replace(variant_defaults("Baseline"), seed=seed,
                                        steps=args.steps, n_per_class=args.n_per_class
                                        ).validate(), shared)
        rc = lab_main(["sweep", "--config", str(shared), "--out", str(root),
                       "--variants", "Baseline,Kin.-L1",
                       "--train-per-class", str(args.train_per_class),
                       "--test-per-class", str(args.test_per_class)])
        if rc != 0:
            return rc
        base, kin = json.loads((root / SWEEP_NAME).read_text())
        gap = 100.0 * (kin["accuracy"] - base["accuracy"])
        seconds = base["seconds"] + kin["seconds"]
        rows.append({"seed": seed, "baseline": base["accuracy"],
                     "kinematic_l1": kin["accuracy"], "gap_pp": gap,
                     "seconds": round(seconds, 1)})
        print(f"seed {seed}: baseline {base['accuracy']:.4f}  "
              f"kinematic-l1 {kin['accuracy']:.4f}  gap {gap:+.2f}pp  "
              f"({seconds:.0f}s)", flush=True)

    mean_gap = sum(r["gap_pp"] for r in rows) / len(rows)
    print(f"mean gap over {len(seeds)} seeds: {mean_gap:+.2f}pp")
    (out / "benchmark.json").write_text(json.dumps(rows, indent=2) + "\n")
    print(f"wrote {out / 'benchmark.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
