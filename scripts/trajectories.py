#!/usr/bin/env python3
"""Fingerprint the training trajectory of every variant at one short config.

    python3 scripts/trajectories.py run OUT
    python3 scripts/trajectories.py diff OLD NEW
    python3 scripts/trajectories.py pin OUT

``run`` pretrains each of the variants in ``config.VARIANTS`` at batch 4,
2 clips per class, 6 steps and seed 0 into ``OUT/<variant slug>`` and prints
the sha256 of its ``metrics.jsonl`` and ``checkpoint.jpck``. It trains with
the ``src`` tree next to this script, so to compare two commits, run a copy of
this file from each checkout.

``diff`` compares two trees written by ``run``: for each variant, whether
both files are byte-identical, and the largest relative difference between
the per-step ``total`` values of the two logs. Like diff(1), it exits 0 when
no variant differs in a file, 1 when any does, and 2 when the trees cannot
be compared: a file is missing, a log line does not parse, or the two logs
of a variant hold different step counts.

``pin`` trains like ``run`` and writes ``tests/data/trajectories.json``: per
variant the two hashes and each step's ``total``, plus the identity of the
machine (numpy, its BLAS build, the CPU model). ``tests/test_trajectories.py``
replays every variant against that file: the totals must agree within 1e-9
relative anywhere, the hashes exactly on a machine of the same identity.
A change that moves the bytes re-pins and names the cause.
"""

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from vjlab.config import variant_defaults, variant_slug
from vjlab.config import VARIANTS
from vjlab.training import CHECKPOINT_NAME, METRICS_NAME, run_pretrain

FIXED = dict(batch_size=4, n_per_class=2, steps=6, seed=0)
PIN = ROOT / "tests" / "data" / "trajectories.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def totals(run_dir: Path) -> list[float]:
    lines = (run_dir / METRICS_NAME).read_text().splitlines()
    return [json.loads(line)["total"] for line in lines]


def train(name: str, out: Path) -> Path:
    """Pretrain variant ``name`` at ``FIXED`` into its directory under out."""
    run_dir = out / variant_slug(name)
    run_pretrain(dataclasses.replace(variant_defaults(name), out=str(run_dir), **FIXED))
    return run_dir


def fingerprint(run_dir: Path) -> dict:
    return {"metrics": sha256(run_dir / METRICS_NAME), "ckpt": sha256(run_dir / CHECKPOINT_NAME),
            "totals": totals(run_dir)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def identity() -> dict[str, str]:
    """What a run's bytes depend on beyond the code: numpy, the BLAS it was
    built with (a DYNAMIC_ARCH OpenBLAS picks its kernels by CPU) and the CPU."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    build = " ".join(str(blas[k]) for k in ("name", "version", "openblas configuration")
                     if k in blas)
    return {"numpy": np.__version__, "blas": build or "unknown", "cpu": cpu_model()}


def run(out: Path) -> None:
    for name in VARIANTS:
        fp = fingerprint(train(name, out))
        print(f"{name:>18}  metrics {fp['metrics']}  ckpt {fp['ckpt']}", flush=True)


def pin(out: Path) -> None:
    variants = {name: fingerprint(train(name, out)) for name in VARIANTS}
    PIN.parent.mkdir(parents=True, exist_ok=True)
    PIN.write_text(json.dumps({"identity": identity(), "fixed": FIXED, "variants": variants},
                              indent=1) + "\n")
    print(f"pinned {len(variants)} variants to {PIN}")


def compare(a: Path, b: Path) -> tuple[dict[str, bool], float]:
    """Per-file byte identity of two run directories, and the largest
    relative difference between their per-step totals."""
    same = {f: sha256(a / f) == sha256(b / f) for f in (METRICS_NAME, CHECKPOINT_NAME)}
    ta, tb = totals(a), totals(b)
    if len(ta) != len(tb):
        raise ValueError(f"{len(ta)} logged steps against {len(tb)}")
    rel = max(abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(ta, tb))
    return same, rel


def diff(old: Path, new: Path) -> int:
    changed = broken = 0
    for name in VARIANTS:
        try:
            same, rel = compare(old / variant_slug(name), new / variant_slug(name))
        except (OSError, ValueError, KeyError, TypeError) as err:
            broken += 1
            print(f"{name:>18}  cannot compare: {type(err).__name__}: {err}")
            continue
        changed += not all(same.values())
        print(f"{name:>18}  metrics {'same' if same[METRICS_NAME] else 'DIFF'}  "
              f"ckpt {'same' if same[CHECKPOINT_NAME] else 'DIFF'}  "
              f"max rel total diff {rel:.2e}")
    print(f"{changed} of {len(VARIANTS)} variants differ in a file")
    if broken:
        print(f"{broken} of {len(VARIANTS)} variants cannot be compared")
        return 2
    return 1 if changed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="train every variant into OUT")
    p.add_argument("out", type=Path)
    p = sub.add_parser("diff", help="compare two trees written by run")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p = sub.add_parser("pin", help=f"train every variant into OUT and pin it in {PIN.name}")
    p.add_argument("out", type=Path)
    args = ap.parse_args()
    if args.command == "diff":
        return diff(args.old, args.new)
    (run if args.command == "run" else pin)(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
