#!/usr/bin/env python3
"""Fingerprint the training trajectory of every variant at one short config.

    python3 scripts/trajectories.py run OUT
    python3 scripts/trajectories.py diff OLD NEW

``run`` pretrains each of the variants in ``objectives.VARIANTS`` at batch 4,
2 clips per class, 6 steps and seed 0 into ``OUT/<variant slug>`` and prints
the sha256 of its ``metrics.jsonl`` and ``checkpoint.jpck``. It trains with
the ``src`` tree next to this script, so to compare two commits, run a copy of
this file from each checkout.

``diff`` compares two trees written by ``run``: for each variant, whether
both files are byte-identical, and the largest relative difference between
the per-step ``total`` values of the two logs.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vjlab.config import variant_defaults, variant_slug
from vjlab.objectives import VARIANTS
from vjlab.training import CHECKPOINT_NAME, METRICS_NAME, run_pretrain

FIXED = dict(batch_size=4, n_per_class=2, steps=6, seed=0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(out: Path) -> None:
    for name in VARIANTS:
        run_dir = out / variant_slug(name)
        run_pretrain(dataclasses.replace(variant_defaults(name), out=str(run_dir), **FIXED))
        print(f"{name:>18}  metrics {sha256(run_dir / METRICS_NAME)}  "
              f"ckpt {sha256(run_dir / CHECKPOINT_NAME)}", flush=True)


def totals(run_dir: Path) -> list[float]:
    lines = (run_dir / METRICS_NAME).read_text().splitlines()
    return [json.loads(line)["total"] for line in lines]


def diff(old: Path, new: Path) -> int:
    changed = 0
    for name in VARIANTS:
        a, b = old / variant_slug(name), new / variant_slug(name)
        same = {f: sha256(a / f) == sha256(b / f) for f in (METRICS_NAME, CHECKPOINT_NAME)}
        ta, tb = totals(a), totals(b)
        if len(ta) != len(tb):
            raise SystemExit(f"{name}: {len(ta)} logged steps against {len(tb)}")
        rel = max(abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(ta, tb))
        changed += not all(same.values())
        print(f"{name:>18}  metrics {'same' if same[METRICS_NAME] else 'DIFF'}  "
              f"ckpt {'same' if same[CHECKPOINT_NAME] else 'DIFF'}  "
              f"max rel total diff {rel:.2e}")
    print(f"{changed} of {len(VARIANTS)} variants differ in a file")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="train every variant into OUT")
    p.add_argument("out", type=Path)
    p = sub.add_parser("diff", help="compare two trees written by run")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = ap.parse_args()
    if args.command == "run":
        run(args.out)
        return 0
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
