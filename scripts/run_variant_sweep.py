#!/usr/bin/env python3
"""Pretrain and probe every registered objective variant on one shared budget.

Each variant trains with its own recipe (masking mode, hard-weight
coefficient, EMA setting) but identical seed, data, schedule, and encoder.
Results land in one sweep.json readable by `lab report`.

Usage:
    python3 scripts/run_variant_sweep.py [--variants all] [--steps 500]
        [--seed 0] [--out runs/variant-sweep]
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vjlab.cli import main as lab_main
from vjlab.config import save_config, variant_defaults


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--variants", type=str, default="all")
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--n-per-class", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=str, default="runs/variant-sweep")
    args = ap.parse_args()

    cfg = dataclasses.replace(variant_defaults("Baseline"), steps=args.steps,
                              n_per_class=args.n_per_class, seed=args.seed).validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shared = out / "shared.lab"
    save_config(cfg, shared)

    rc = lab_main(["sweep", "--config", str(shared), "--out", str(out),
                   "--variants", args.variants])
    if rc == 0:
        rc = lab_main(["report", "--out", str(out)])
    return rc


if __name__ == "__main__":
    sys.exit(main())
