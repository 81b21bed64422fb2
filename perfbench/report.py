#!/usr/bin/env python3
"""Print every benchmark metric of every workload, with units.

    python3 perfbench/report.py [--seed 0] [--seconds 30]

Runs ``run.py`` once untraced and once traced per workload, each in a fresh
process, one after another. Prints the end-to-end metrics, ``failed_frac``,
the per-module metrics, and whether the per-module self times account for
the traced step. Writes the whole table to ``perfbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import STEP_METRICS, WORKLOADS

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()

    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"running {workload} trace {trace} ...", file=sys.stderr, flush=True)
            results[workload, trace] = run_one(workload, args.seed, args.seconds, trace)

    print(results[next(iter(WORKLOADS)), 0]["log"][0])  # the env line
    names = list(WORKLOADS)
    width = max(len(n) for n in names) + 2
    for trace, title in ((0, "end to end (untraced)"), (1, "per module (traced)")):
        print(f"\n{title}\n{'metric':30s} {'unit':8s}" + "".join(f"{n:>{width}s}" for n in names))
        rows = {}
        for n in names:
            for key, m in results[n, trace]["metrics"].items():
                rows.setdefault(key, (m["unit"], {}))[1][n] = m["value"]
        if trace == 0:
            rows["failed_frac"] = ("ratio", {
                n: results[n, 0]["failed"] / results[n, 0]["attempted"] for n in names})
        for key, (unit, vals) in rows.items():
            cells = "".join(f"{vals[n]:>{width}.6g}" if n in vals else f"{'absent':>{width}s}"
                            for n in names)
            print(f"{key:30s} {unit:8s}{cells}")

    print("\ntrace accounting: per-step self times against the traced step median")
    for n in names:
        m = {k: v["value"] for k, v in results[n, 1]["metrics"].items()}
        total = sum(m.get(k, 0.0) for k in STEP_METRICS)
        p50 = m["trace.step_ms_p50"]
        print(f"  {n:22s} sum {total:8.2f} ms  traced p50 {p50:8.2f} ms  "
              f"gap {100 * (total / p50 - 1):+6.2f}%  overhead {m['trace.overhead_pct']:+6.2f}%")
    for n in names:
        r = results[n, 0]
        print(f"  {n:22s} correct {r['correct'] and results[n, 1]['correct']}  "
              f"failed {r['failed']}/{r['attempted']} untraced, "
              f"{results[n, 1]['failed']}/{results[n, 1]['attempted']} traced")

    out = HERE / "out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({f"{n}/trace{t}": r for (n, t), r in results.items()},
                              indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
