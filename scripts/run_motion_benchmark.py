#!/usr/bin/env python3
"""Seed-paired motion discrimination: Baseline vs Kinematic-L1.

Trains both encoders under an identical budget (same seed, data, schedule,
masking), probes each on held-out synthetic clips, and prints the
percentage-point gap per seed. The kinematic arm differs only in its
objective: the temporal-smoothness penalty with the EMA teacher disabled.

Usage:
    python3 scripts/run_motion_benchmark.py [--seeds 0,1,2] [--steps 500]
        [--out runs/motion-benchmark] [--train-per-class 32] [--test-per-class 16]
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vjlab.config import variant_defaults, variant_slug
from vjlab.probing import synthetic_benchmark
from vjlab.synth import gen_motion_dataset
from vjlab.training import run_pretrain


def train_and_probe(variant, seed, args):
    cfg = dataclasses.replace(
        variant_defaults(variant),
        seed=seed,
        steps=args.steps,
        n_per_class=args.n_per_class,
        out=str(Path(args.out) / f"{variant_slug(variant)}-s{seed}"),
    ).validate()
    ds = gen_motion_dataset(cfg.n_per_class, cfg.seed,
                            t=cfg.frames, h=cfg.height, w=cfg.width)
    t0 = time.time()
    state = run_pretrain(cfg, dataset=ds)
    train_s = time.time() - t0
    rep = synthetic_benchmark(state.student, cfg,
                              n_train_per_class=args.train_per_class,
                              n_test_per_class=args.test_per_class)
    return rep, train_s


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
    rows = []
    for seed in seeds:
        base, bt = train_and_probe("Baseline", seed, args)
        kin, kt = train_and_probe("Kin.-L1", seed, args)
        gap = 100.0 * (kin.accuracy - base.accuracy)
        rows.append({"seed": seed, "baseline": base.accuracy,
                     "kinematic_l1": kin.accuracy, "gap_pp": gap,
                     "seconds": round(bt + kt, 1)})
        print(f"seed {seed}: baseline {base.accuracy:.4f}  "
              f"kinematic-l1 {kin.accuracy:.4f}  gap {gap:+.2f}pp  "
              f"({bt + kt:.0f}s)", flush=True)

    mean_gap = sum(r["gap_pp"] for r in rows) / len(rows)
    print(f"mean gap over {len(seeds)} seeds: {mean_gap:+.2f}pp")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "benchmark.json").write_text(json.dumps(rows, indent=2) + "\n")
    print(f"wrote {out / 'benchmark.json'}")


if __name__ == "__main__":
    main()
