#!/usr/bin/env python3
"""vjlab pretraining benchmark: one workload and one seed in a fresh process.

    python3 perfbench/run.py --workload baseline --seed 0 --seconds 25 --trace 0

A round generates the dataset, pretrains through ``training.run_pretrain``
and probes through ``probing.synthetic_benchmark`` at the criterion-8
geometry: 32x32x8 clips, batch 8, a 4x4x4 token grid, dim 32, 64 clips per
class, probes on 32 train / 16 test clips per class. Rounds repeat until
``--seconds`` have passed. Every round replays the same seed, so each round
after the first also checks that ``metrics.jsonl`` and ``checkpoint.jpck``
came out byte-identical.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-module metrics: its first round runs untraced as the byte-identity
reference, later rounds trace every other step, and the tracing overhead is
the traced step median against that of the untraced steps between them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import HOOKS, Patches, Tracer, step_profile, totals

UNTRACED_STEP = "untraced_step"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

STEPS = 24                 # per round; the resume workload stops at half of it
N_PER_CLASS = 64
PROBE_TRAIN, PROBE_TEST = 32, 16
WARMUP_STEPS = 2           # first steps of the process carry one-off costs
MIN_ROUNDS = 2             # the byte-identity check needs a repeat
MIN_STEP_SAMPLES = 100     # leaves at least 10 samples above p90


@dataclasses.dataclass(frozen=True)
class Workload:
    variant: str
    probe_kind: str
    resume: bool


WORKLOADS = {
    # Common path and control: tube masks, EMA teacher, JEPA term only.
    "baseline": Workload("Baseline", "linear", False),
    # Largest graph and loss-assembly share: full-grid encode, channel-split
    # static/orth terms and a hard-weighted latent-dynamics head.
    "fwm-hw-ld": Workload("FWM-HW-LD", "linear", False),
    # Motion-guided future masks (16 visible, 48 targets), a checkpoint
    # written, read and appended to mid-run, and the attentive probe.
    "motion-future-resume": Workload("Motion-Future", "attentive", True),
}

LOSSES = (
    "jepa_loss", "kinematic_loss", "sigreg_loss", "hamiltonian_loss", "velgate_loss",
    "delta_loss", "ld_loss_part", "ld_errors", "ld_hw_loss", "spectral_loss", "ltc_loss",
    "fwm_losses", "hw_jepa_loss", "per_token_errors", "ac_loss",
)

# Names wrapped in traced rounds: (module, attribute, metric). A metric in
# STEP_METRICS takes the self time of its spans per step (see step_profile);
# the others take whole spans per call, or per probe for ``probing.*``.
WRAPS = [
    ("training", "draw_batch", "training.batch_ms"),
    ("training", "train_step", "training.step_self_ms"),
    ("training", "encode", "model.student_encode_ms"),
    ("training", "full_grid", "model.full_grid_ms"),
    ("training", "predict_masked", "model.predictor_ms"),
    ("training", "teacher_targets", "model.teacher_ms"),
    ("training", "sample_clip_mask", "masking.mask_ms"),
    ("training", "backward", "tensor.backward_ms"),
    ("training", "adamw_step", "training.adamw_ms"),
    ("training", "ema_update", "training.ema_ms"),
    ("training", "quantize_params", "training.ema_ms"),
    ("training", "compose_total", "objectives.loss_ms"),
    *[("training", name, "objectives.loss_ms") for name in LOSSES],
    ("training", "run_pretrain", "training.loop_self_ms"),
    ("training", "init_state", "training.init_ms"),
    ("training", "save_checkpoint", "model.ckpt_write_ms"),
    ("training", "load_checkpoint", "model.ckpt_read_ms"),
    ("synth", "gen_motion_dataset", "synth.dataset_ms"),
    ("probing", "synthetic_benchmark", "probing.benchmark"),
    ("probing", "dataset_features", "probing.features_ms"),
    ("probing", "gen_motion_dataset", "probing.data_ms"),
    ("probing", "train_probe", "probing.fit_ms"),
    ("probing", "predict", "probing.predict_ms"),
]
STEP_METRICS = (
    "training.batch_ms", "training.step_self_ms", "model.student_encode_ms",
    "model.full_grid_ms", "model.predictor_ms", "model.teacher_ms", "masking.mask_ms",
    "tensor.backward_ms", "objectives.loss_ms", "training.adamw_ms", "training.ema_ms",
    HOOKS,
)
CALL_METRICS = ("training.init_ms", "synth.dataset_ms", "model.ckpt_write_ms",
                "model.ckpt_read_ms")
PROBE_METRICS = ("probing.features_ms", "probing.data_ms", "probing.fit_ms",
                 "probing.predict_ms")


def pin_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def graph_nodes(root) -> int:
    """Nodes ``backward`` visits: the root and its requires-grad ancestors."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class StepClock:
    """Times one ``draw_batch`` + ``train_step``: the step a user waits for.

    Installed last, so it wraps any tracer wrapper. With a tracer it traces
    every other step and leaves the steps between untraced, so the tracing
    overhead is measured between neighbouring steps, clear of the drift of a
    shared machine.
    """

    def __init__(self, tag: str, tracer: Tracer | None = None):
        self.tag = tag
        self.samples: list[float] = []
        self.traced: list[bool] = []
        self.setup_end: float | None = None
        self.tracer = tracer
        self._start = 0.0

    def install(self, patches: Patches, training) -> None:
        def make_draw(draw):
            def timed_draw(*args, **kwargs):
                self._start = time.perf_counter()
                if self.setup_end is None:
                    self.setup_end = self._start
                if self.tracer is not None:
                    on = len(self.samples) % 2 == 1
                    self.tracer.enabled = on
                    self.tracer.step = f"{self.tag}.{len(self.samples) + 1}" if on else None
                return draw(*args, **kwargs)
            return timed_draw

        def make_step(step):
            def timed_step(*args, **kwargs):
                metrics = step(*args, **kwargs)
                end = time.perf_counter()
                self.samples.append(end - self._start)
                tracer = self.tracer
                self.traced.append(tracer is not None and tracer.enabled)
                if tracer is not None:
                    if not tracer.enabled:
                        tracer.enabled = True
                        tracer.record(UNTRACED_STEP, self._start, end)
                    tracer.step = None
                return metrics
            return timed_step

        for attr, make in (("draw_batch", make_draw), ("train_step", make_step)):
            if not patches.patch(training, attr, make):
                raise SystemExit(f"vjlab.training.{attr} is gone; the step cannot be timed")


def install_tracer(tracer: Tracer, patches: Patches, modules: dict) -> None:
    counters = {
        "backward": lambda a, r: {"tensor.nodes_per_step": graph_nodes(a[0])},
        "sample_clip_mask": lambda a, r: {"masking.visible_per_mask": int(r.visible.sum()),
                                          "masking.targets_per_mask": r.n_targets,
                                          "masks": 1},
        "save_checkpoint": lambda a, r: {"model.ckpt_bytes": os.path.getsize(a[0])},
        **{name: (lambda a, r: {"objectives.terms_per_step": 1}) for name in LOSSES},
    }
    for module, attr, metric in WRAPS:
        count = counters.get(attr) if module == "training" else None
        tracer.wrap(patches, modules[module], attr, metric, count)


def make_config(wl: Workload, seed: int, out: Path):
    from vjlab.config import variant_defaults

    return dataclasses.replace(
        variant_defaults(wl.variant), seed=seed, steps=STEPS, n_per_class=N_PER_CLASS,
        probe_kind=wl.probe_kind, out=str(out),
    ).validate()


def pretrain(training, cfg, dataset, resume: bool):
    if not resume:
        return training.run_pretrain(cfg, dataset)
    training.run_pretrain(cfg, dataset, stop_after=cfg.steps // 2)
    return training.run_pretrain(cfg, dataset, resume=True)


def run_round(wl: Workload, cfg, modules: dict, clock: StepClock) -> dict:
    training, synth, probing = modules["training"], modules["synth"], modules["probing"]
    t0 = time.perf_counter()
    dataset = synth.gen_motion_dataset(cfg.n_per_class, cfg.seed, t=cfg.frames,
                                       h=cfg.height, w=cfg.width)
    t1 = time.perf_counter()
    state = pretrain(training, cfg, dataset, wl.resume)
    t2 = time.perf_counter()
    report = probing.synthetic_benchmark(state.student, cfg, n_train_per_class=PROBE_TRAIN,
                                         n_test_per_class=PROBE_TEST)
    t3 = time.perf_counter()
    return {"setup_s": clock.setup_end - t0, "train_s": t2 - t1, "probe_s": t3 - t2,
            "workload_s": t3 - t0, "accuracy": report.accuracy}


def run_outputs(out: Path) -> dict:
    from vjlab.training import CHECKPOINT_NAME, METRICS_NAME

    metrics = (out / METRICS_NAME).read_bytes()
    ckpt = (out / CHECKPOINT_NAME).read_bytes()
    return {"lines": metrics.splitlines(), "metrics_sha256": hashlib.sha256(metrics).hexdigest(),
            "ckpt_sha256": hashlib.sha256(ckpt).hexdigest()}


class Ledger:
    """Operations attempted and failed: train steps, checkpoint writes and reads, probes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check_steps(self, tag: str, lines: list[bytes], steps: int, ref: list[bytes] | None):
        for i in range(steps):
            line = lines[i] if i < len(lines) else None
            ok = line is not None and finite_total(line)
            if ok and ref is not None:
                ok = line == ref[i]
            self.record(f"{tag} step {i + 1}", ok)


def finite_total(line: bytes) -> bool:
    try:
        return math.isfinite(json.loads(line)["total"])
    except (ValueError, KeyError, TypeError):
        return False


def sha_number(hexdigest: str) -> int:
    """The first 48 bits of a sha256, exact as a JSON number."""
    return int(hexdigest[:12], 16)


def end_to_end(rounds: list[dict], samples: list[float], batch: int, steps: int) -> dict:
    p50, p90 = statistics.median(samples), statistics.quantiles(samples, n=10)[-1]
    med = lambda key: statistics.median(r[key] for r in rounds)
    return {
        "step_ms_p50": (1e3 * p50, "ms"),
        "step_ms_p90": (1e3 * p90, "ms"),
        "train_clips_per_s": (batch * steps * len(rounds) / sum(r["train_s"] for r in rounds),
                              "clips/s"),
        "probe_s": (med("probe_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "workload_s": (med("workload_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tracer: Tracer, missing: list[str], traced_samples: list[float],
              plain_samples: list[float], rounds: list[dict], outputs: dict) -> dict:
    profile = step_profile(tracer.spans)
    all_self, incl, calls = totals(tracer.spans)
    steps = len(traced_samples)
    probes = calls["probing.benchmark"]
    sources = {}
    for module, attr, metric in WRAPS:
        sources.setdefault(metric, []).append(f"{module}.{attr}")
    absent = {m for m, names in sources.items()
              if all(f"vjlab.{n}" in missing for n in names)}

    out = {}
    for m in STEP_METRICS:
        out[m] = (1e3 * profile[m], "ms")
    all_steps = steps + len(plain_samples)   # every step of the traced rounds
    out["training.loop_self_ms"] = (1e3 * all_self["training.loop_self_ms"] / all_steps, "ms")
    for m in CALL_METRICS:
        out[m] = (1e3 * incl[m] / calls[m] if calls[m] else 0.0, "ms")
    for m in PROBE_METRICS:
        out[m] = (1e3 * incl[m] / probes, "ms")
    c = tracer.counts
    masks = c["masks"] or 1
    out["tensor.nodes_per_step"] = (c["tensor.nodes_per_step"] / steps, "count")
    out["objectives.terms_per_step"] = (c["objectives.terms_per_step"] / steps, "count")
    out["masking.visible_per_mask"] = (c["masking.visible_per_mask"] / masks, "count")
    out["masking.targets_per_mask"] = (c["masking.targets_per_mask"] / masks, "count")
    writes = calls["model.ckpt_write_ms"]
    out["model.ckpt_bytes"] = (c["model.ckpt_bytes"] / writes if writes else 0.0, "bytes")
    out["probing.accuracy"] = (rounds[0]["accuracy"], "ratio")
    out["training.final_total"] = (json.loads(outputs["lines"][-1])["total"], "loss")
    out["training.metrics_sha256"] = (sha_number(outputs["metrics_sha256"]), "sha48")
    out["training.ckpt_sha256"] = (sha_number(outputs["ckpt_sha256"]), "sha48")
    traced_p50 = statistics.median(traced_samples)
    plain_p50 = statistics.median(plain_samples)
    out["trace.step_ms_p50"] = (1e3 * traced_p50, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced_p50 / plain_p50 - 1.0), "%")
    for m in absent:
        out.pop(m, None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "vjlab" / "__init__.py").is_file():
        print(f"error: no vjlab sources under {src}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(src))
    import vjlab
    from vjlab import probing, synth, training

    if Path(vjlab.__file__).resolve().parent != (src / "vjlab").resolve():
        print(f"error: imported vjlab from {vjlab.__file__}, not {src}", file=sys.stderr)
        return 2
    modules = {"training": training, "synth": synth, "probing": probing}

    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = make_config(wl, args.seed, run_dir / "run")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    ledger = Ledger()
    tracer = Tracer()
    missing: list[str] = []
    rounds: list[dict] = []
    plain: list[float] = []       # untraced step samples
    traced: list[float] = []      # traced step samples
    first = None
    writes_per_round = 2 if wl.resume else 1
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or len(rounds) < MIN_ROUNDS
           or (not args.trace and len(plain) < MIN_STEP_SAMPLES)):
        tag = f"round {len(rounds) + 1}"
        tracing = bool(args.trace) and bool(rounds)  # the untraced first round is the reference
        clock = StepClock(str(len(rounds) + 1), tracer if tracing else None)
        patches = Patches()
        if tracing:
            install_tracer(tracer, patches, modules)
        clock.install(patches, training)
        try:
            result = run_round(wl, cfg, modules, clock)
        except Exception as err:  # a failed operation ends the run; report it
            result = None
            ledger.record(f"{tag}: {type(err).__name__}: {err}", False)
        finally:
            stuck = patches.restore()
        missing += patches.missing
        if stuck:
            ledger.problems.append(f"wrappers not restored: {stuck}")
        if result is None:
            break
        outputs = run_outputs(Path(cfg.out))
        ref = None if first is None else first["lines"]
        ledger.check_steps(tag, outputs["lines"], cfg.steps, ref)
        same = first is None or outputs["ckpt_sha256"] == first["ckpt_sha256"]
        for _ in range(writes_per_round):
            ledger.record(f"{tag} checkpoint write", same)
        acc_ok = 0.0 <= result["accuracy"] <= 1.0 and (
            not rounds or result["accuracy"] == rounds[0]["accuracy"])
        ledger.record(f"{tag} probe accuracy {result['accuracy']}", acc_ok)
        timed = list(zip(clock.samples, clock.traced))[0 if rounds else WARMUP_STEPS:]
        if not args.trace:
            plain.extend(t for t, _ in timed)
        elif tracing:
            for t, on in timed:
                (traced if on else plain).append(t)
        result["traced"] = tracing
        result["step_ms"] = [round(1e3 * t, 3) for t in clock.samples]
        rounds.append(result)
        first = first or outputs

    if first is not None and wl.resume:
        # The resumed rounds must match an uninterrupted run of the same config.
        ref_cfg = dataclasses.replace(cfg, out=str(run_dir / "reference"))
        try:
            training.run_pretrain(ref_cfg, None)
            ref = run_outputs(Path(ref_cfg.out))
            ledger.check_steps("reference", ref["lines"], cfg.steps, None)
            ledger.record("reference checkpoint write", True)
            resumed_ok = ref["metrics_sha256"] == first["metrics_sha256"] and \
                ref["ckpt_sha256"] == first["ckpt_sha256"]
        except Exception as err:
            ledger.record(f"reference run: {type(err).__name__}: {err}", False)
            resumed_ok = False
        for r in rounds:  # one checkpoint read per round
            ledger.record("resume matches uninterrupted run", resumed_ok)

    correct = not ledger.problems and len(rounds) >= MIN_ROUNDS
    metrics: dict = {}
    if correct and args.trace:
        metrics = per_layer(tracer, missing, traced, plain, rounds, first)
    elif correct:
        metrics = end_to_end(rounds, plain, cfg.batch_size, cfg.steps)

    run_dir.mkdir(parents=True, exist_ok=True)
    if tracer.spans:
        with open(run_dir / "spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    summary = {"env": env, "workload": args.workload, "seed": args.seed,
               "rounds": rounds,
               "missing": sorted(set(missing)), "problems": ledger.problems,
               "metrics_sha256": first and first["metrics_sha256"],
               "ckpt_sha256": first and first["ckpt_sha256"]}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    samples = traced if args.trace else plain
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {cfg.steps} steps, "
          f"{len(samples)} step samples, trace {args.trace}")
    if "step_ms_p90" in metrics:
        above = sum(1e3 * t > metrics["step_ms_p90"][0] for t in samples)
        print(f"  {above} step samples lie above p90")
    for problem in ledger.problems[:20]:
        print(f"  problem: {problem}")
    for name in sorted(set(missing)):
        print(f"  absent: {name} is gone; its metric is not reported")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {unit}")
    frac = ledger.failed / max(ledger.attempted, 1)
    print(f"  {'failed_frac':28s} {frac:>14.6g} ratio ({ledger.failed}/{ledger.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
