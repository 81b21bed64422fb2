#!/usr/bin/env python3
"""Resident memory after each phase of benchmark-shaped rounds, in process.

Runs rounds as perfbench does, with perfbench's own workload table, config
and pretraining (``perfbench/run.py``: the dataset, ``training.run_pretrain``,
the resume workload stopping at half and resuming, then
``probing.synthetic_benchmark``), and prints, after the import, the
dataset, the first step, training, and each probe phase (train features,
fit, test features, predict), one line each:

    round  phase  ru_maxrss MiB  current RSS MiB  minor faults since the last line

The current RSS is read from /proc/self/statm (``-`` where there is none).
A phase whose ru_maxrss is above the line before it raised the process's
high-water mark. One BLAS thread, as perfbench pins it.

Usage:
    python3 scripts/memory_phases.py [--workload motion-future-resume] [--seed 11]
        [--rounds 1] [--steps 24] [--n-per-class 64]
        [--train-per-class 32] [--test-per-class 16]
"""

import argparse
import dataclasses
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as perfbench  # noqa: E402  perfbench/run.py, which imports no numpy

PROBE_PHASES = {"dataset_features": ("train features", "test features"),
                "train_probe": ("fit",), "predict": ("predict",)}


class Phases:
    def __init__(self):
        self.round = 0
        self.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        print(f"{'round':>5}  {'phase':<15} {'maxrss_mib':>10} {'rss_mib':>8} {'faults':>7}")

    def mark(self, phase: str) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        try:
            with open("/proc/self/statm") as f:
                rss = f"{int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 2**20:8.2f}"
        except OSError:
            rss = "-"
        print(f"{self.round:>5}  {phase:<15} {usage.ru_maxrss / 1024:10.2f} {rss:>8} "
              f"{usage.ru_minflt - self.faults:7d}", flush=True)
        self.faults = usage.ru_minflt


def wrap(module, name: str, after) -> None:
    """Call ``after(call_index)`` once each call to ``module.name`` returns."""
    original = getattr(module, name)
    calls = [0]

    def marked(*args, **kwargs):
        out = original(*args, **kwargs)
        after(calls[0])
        calls[0] += 1
        return out

    setattr(module, name, marked)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(perfbench.WORKLOADS),
                    default="motion-future-resume")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--steps", type=int, default=perfbench.STEPS)
    ap.add_argument("--n-per-class", type=int, default=perfbench.N_PER_CLASS)
    ap.add_argument("--train-per-class", type=int, default=perfbench.PROBE_TRAIN)
    ap.add_argument("--test-per-class", type=int, default=perfbench.PROBE_TEST)
    args = ap.parse_args(argv)

    perfbench.pin_threads()
    phases = Phases()
    from vjlab import probing, synth, training
    phases.mark("import")

    step_in_round = [0]

    def after_step(_):
        step_in_round[0] += 1
        if step_in_round[0] == 1:
            phases.mark("first step")

    wrap(training, "train_step", after_step)
    for name, labels in PROBE_PHASES.items():
        wrap(probing, name, lambda i, labels=labels: phases.mark(labels[i % len(labels)]))

    wl = perfbench.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dataclasses.replace(
            perfbench.make_config(wl, args.seed, Path(tmp) / "run"),
            steps=args.steps, n_per_class=args.n_per_class).validate()
        for r in range(1, args.rounds + 1):
            phases.round, step_in_round[0] = r, 0
            dataset = synth.gen_motion_dataset(cfg.n_per_class, cfg.seed, t=cfg.frames,
                                               h=cfg.height, w=cfg.width)
            phases.mark("dataset")
            state = perfbench.pretrain(training, cfg, dataset, wl.resume)
            phases.mark("training")
            probing.synthetic_benchmark(state.student, cfg,
                                        n_train_per_class=args.train_per_class,
                                        n_test_per_class=args.test_per_class)
            del dataset, state
    return 0


if __name__ == "__main__":
    sys.exit(main())
