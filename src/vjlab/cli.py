"""`lab` command line: gendata | pretrain | probe | verify | sweep | report.

gendata, pretrain, probe and sweep take --config PATH (key = value file),
--seed N and --out DIR; flags override the config file, which overrides
variant defaults. verify takes no flags and report only --out, so a flag
that a subcommand would not read is rejected. pretrain and probe take
`--variant NAME`, which, like each entry of a sweep's --variants list,
applies that variant's recipe fields (config.RECIPE_FIELDS) over the config
file; a config RunConfig.validate refuses exits 1 before anything is written.
pretrain and sweep train on a run directory's dataset.synv when it has one
(a sweep renders one shared set for the others, and one pair of probe sets
for every variant), and refuse one that cannot be read or whose clip count
or clip shape does not fit the config. A sweep checks every directory's file
from its header before any variant trains, and loads each when its variant
trains; it refuses a --variants list that names no variant, or one variant
twice. probe and sweep reject a --train-per-class or --test-per-class below 1
at parse time.
probe and pretrain --resume load the checkpoint through training.load_train_state
and refuse one that does not fit the config or holds a non-finite value;
--resume also refuses a missing or changed config.lab and a checkpoint step past
the config's steps, and both refuse one they cannot parse. A non-finite
training step ends the command in one line, exit 1.
verify runs verify.CHECKS, the same functions the unit tests call. probe writes
probe-<kind>.json; report reads the sweep.json and every probe*.json under
--out, and refuses one that is not JSON or holds no result rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .config import (
    VARIANTS,
    RunConfig,
    apply_overrides,
    load_config,
    variant_defaults,
    variant_slug,
    with_variant,
)
from .probing import evaluate, probe_datasets, synthetic_benchmark
from .synth import N_CLASSES, dataset_header, gen_motion_dataset, load_dataset, save_dataset
from .training import (CHECKPOINT_NAME, CONFIG_NAME, METRICS_NAME, Refused, load_train_state,
                       run_pretrain)
from .verify import CHECKS

DATASET_NAME = "dataset.synv"
PROBE_NAME = "probe-{kind}.json"
PROBE_GLOB = "probe*.json"  # also the single probe.json of older runs
SWEEP_NAME = "sweep.json"


def _build_config(args, variant: str | None = None, out: str | None = None) -> RunConfig:
    """The flags' config; a sweep passes each entry's variant and directory."""
    variant = variant or getattr(args, "variant", None)
    try:
        if args.config is None:
            cfg = variant_defaults(variant or "Baseline")
        else:
            cfg = load_config(args.config)
            if variant is not None:
                cfg = with_variant(cfg, variant)
        return apply_overrides(cfg, seed=args.seed, out=out or args.out)
    except ValueError as err:
        raise Refused(f"invalid config: {err}") from None


def _read(path: Path, reader):
    """``reader(path)``, with a file it cannot read refused in one line."""
    try:
        return reader(path)
    except (OSError, ValueError) as err:
        raise Refused(f"cannot read {path}: {err}") from None


def _run_dataset(cfg: RunConfig) -> Path | None:
    """The run's dataset.synv, or None to have run_pretrain generate the
    config's own. SYNV v1 stores no seed, so only the clip count and the
    clip shape, read from the file's header, are checked against the config."""
    path = Path(cfg.out) / DATASET_NAME
    if not path.exists():
        return None
    count, clip_shape = _read(path, dataset_header)
    n, shape = N_CLASSES * cfg.n_per_class, (cfg.frames, cfg.height, cfg.width, cfg.channels)
    if count != n or clip_shape != shape:
        raise Refused(
            f"{path} holds {count} clips of shape {clip_shape}, but the config "
            f"asks for {n} of shape {shape}; regenerate it with `lab gendata` or remove it")
    return path


def cmd_gendata(args) -> int:
    cfg = _build_config(args)
    ds = gen_motion_dataset(cfg.n_per_class, cfg.seed,
                            t=cfg.frames, h=cfg.height, w=cfg.width)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(out / DATASET_NAME, ds)
    labels = [clip.label for clip in ds.clips]
    print(f"wrote {len(ds.clips)} clips ({len(set(labels))} classes) "
          f"to {out / DATASET_NAME}")
    return 0


def _final_total(out: str) -> float:
    path = Path(out) / METRICS_NAME
    lines = path.read_text().splitlines() if path.exists() else []
    return json.loads(lines[-1])["total"] if lines else float("nan")


def cmd_pretrain(args) -> int:
    cfg = _build_config(args)
    path = _run_dataset(cfg)
    ds = None if path is None else _read(path, load_dataset)
    t0 = time.time()
    state = run_pretrain(cfg, dataset=ds, resume=args.resume,
                         log=print if args.verbose else None)
    print(f"{cfg.variant}: {state.step} steps in {time.time() - t0:.1f}s, "
          f"final total {_final_total(cfg.out):.6f} "
          f"-> {Path(cfg.out) / CHECKPOINT_NAME}")
    return 0


def cmd_probe(args) -> int:
    cfg = _build_config(args)
    saved = Path(cfg.out) / CONFIG_NAME
    if saved.exists():  # the run's own config fixes its variant, model and probe settings
        run = _read(saved, load_config)
        if (args.variant or args.config) and cfg.variant != run.variant:
            print(f"{saved} holds a {run.variant} run, not {cfg.variant}", file=sys.stderr)
            return 1
        cfg = apply_overrides(run, seed=args.seed, out=cfg.out)
    ck = Path(cfg.out) / CHECKPOINT_NAME
    if not ck.exists():
        print(f"no checkpoint at {ck}; run `lab pretrain` first", file=sys.stderr)
        return 1
    student = load_train_state(cfg, ck).student
    cfg = dataclasses.replace(cfg, probe_kind=args.probe or cfg.probe_kind)
    rep = synthetic_benchmark(student, cfg,
                              n_train_per_class=args.train_per_class,
                              n_test_per_class=args.test_per_class)
    payload = {
        "variant": rep.variant, "kind": rep.kind, "accuracy": rep.accuracy,
        "n_train": rep.n_train, "n_test": rep.n_test,
        "per_class": rep.per_class, "seed": cfg.seed,
    }
    path = Path(cfg.out) / PROBE_NAME.format(kind=rep.kind)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    per_class = " ".join(f"{name}={a:.2f}" for name, a in rep.per_class.items())
    print(f"{rep.variant} {rep.kind} probe: top-1 {rep.accuracy:.4f} "
          f"(n_test {rep.n_test}; {per_class})")
    return 0


def cmd_verify(args) -> int:
    passed = 0
    for check in CHECKS:
        try:
            check()
        except Exception as err:  # noqa: BLE001 - every failure mode is a check failure
            print(f"[FAIL] {check.__name__}  {type(err).__name__}: {err}")
        else:
            print(f"[PASS] {check.__name__}")
            passed += 1
    print(f"{passed}/{len(CHECKS)} checks passed")
    return 0 if passed == len(CHECKS) else 1


def cmd_sweep(args) -> int:
    if args.variants == "all":
        names = list(VARIANTS)
    else:
        names = [v.strip() for v in args.variants.split(",") if v.strip()]
        if not names:
            print(f"--variants {args.variants!r} names no variant", file=sys.stderr)
            return 1
        for i, name in enumerate(names):
            if name not in VARIANTS:
                print(f"unknown variant {name!r}", file=sys.stderr)
                return 1
            if name in names[:i]:
                print(f"--variants names {name!r} twice", file=sys.stderr)
                return 1
    root = Path(_build_config(args).out)
    cfgs = [_build_config(args, name, str(root / variant_slug(name))) for name in names]
    paths = [_run_dataset(cfg) for cfg in cfgs]  # refuse a misfit before training
    shared = None
    if None in paths:  # recipes leave the data alone: render it once
        c = cfgs[0]
        shared = gen_motion_dataset(c.n_per_class, c.seed, t=c.frames, h=c.height, w=c.width)
    probe_sets = probe_datasets(cfgs[0], args.train_per_class, args.test_per_class)
    rows = []
    for name, cfg, path in zip(names, cfgs, paths):
        t0 = time.time()
        # a directory's own file is loaded when its variant trains and freed after it
        state = run_pretrain(cfg, dataset=shared if path is None else _read(path, load_dataset))
        rep = evaluate(state.student, cfg, *probe_sets)
        row = {
            "variant": name, "kind": rep.kind, "accuracy": rep.accuracy,
            "final_total": _final_total(cfg.out),
            "steps": state.step, "seconds": round(time.time() - t0, 1),
            "seed": cfg.seed,
        }
        rows.append(row)
        print(f"{name:>14}: acc {rep.accuracy:.4f} "
              f"total {row['final_total']:.4f} ({row['seconds']}s)", flush=True)
    root.mkdir(parents=True, exist_ok=True)
    (root / SWEEP_NAME).write_text(json.dumps(rows, indent=2) + "\n")
    print(f"wrote {root / SWEEP_NAME}")
    return 0


def _is_row(row) -> bool:
    """A result row as sweep and probe write it, as far as report reads it."""
    return (isinstance(row, dict) and isinstance(row.get("variant"), str)
            and isinstance(row.get("kind", "linear"), str)
            and isinstance(row.get("accuracy"), (int, float)))


def _result_rows(path: Path, many: bool) -> list[dict]:
    """The rows of a sweep.json (a list, ``many``) or of a probe file (one
    row), with a file that is not such JSON or holds no row refused in one line."""
    data = _read(path, lambda p: json.loads(p.read_bytes()))
    rows = data if many else [data]
    if not (isinstance(rows, list) and rows and all(_is_row(row) for row in rows)):
        held = "a list of result rows" if many else "one result row"
        raise Refused(f"cannot read {path}: it does not hold {held}")
    return rows


def _collect_rows(root: Path) -> list[dict]:
    rows = []
    sweep = root / SWEEP_NAME
    if sweep.exists():
        rows.extend(_result_rows(sweep, many=True))
    for probe in sorted(root.glob(f"**/{PROBE_GLOB}")):
        rows.extend(_result_rows(probe, many=False))
    return rows


def cmd_report(args) -> int:
    root = Path(args.out)
    rows = _collect_rows(root)
    if not rows:
        print(f"no {SWEEP_NAME} or {PROBE_GLOB} under {root}", file=sys.stderr)
        return 1
    seen = {}
    for row in rows:  # later probe rows refresh earlier sweep entries
        seen[(row["variant"], row.get("kind", "linear"))] = row
    base = {kind: row["accuracy"] for (variant, kind), row in seen.items()
            if variant == "Baseline"}  # each probe kind is compared with its own Baseline
    print(f"{'variant':>14}  {'kind':>9}  {'top-1':>7}  {'vs base':>8}")
    for (variant, kind), row in sorted(seen.items(), key=lambda kv: -kv[1]["accuracy"]):
        delta = f"{100 * (row['accuracy'] - base[kind]):+8.2f}" if kind in base else ""
        print(f"{variant:>14}  {kind:>9}  {row['accuracy']:7.4f}  {delta:>8}")
    return 0


def _per_class(text: str) -> int:
    """A probe set's clips per class, refused at parse time below 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab", description="desk-scale video representation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant_flag=True):
        p.add_argument("--config", type=str, default=None,
                       help="key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if variant_flag:
            p.add_argument("--variant", type=str, default=None,
                           choices=sorted(VARIANTS))

    p = sub.add_parser("gendata", help="write a synthetic motion dataset")
    common(p, variant_flag=False)
    p.set_defaults(fn=cmd_gendata)

    p = sub.add_parser("pretrain", help="train one variant")
    common(p)
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --out")
    p.add_argument("--verbose", action="store_true", help="print per-step metrics")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("probe", help="evaluate a pretrained checkpoint")
    common(p)
    p.add_argument("--probe", choices=("linear", "attentive"), default=None,
                   help="probe kind (default: the run's probe_kind)")
    p.add_argument("--train-per-class", type=_per_class, default=32)
    p.add_argument("--test-per-class", type=_per_class, default=16)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("verify", help="run the named self-check battery")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="pretrain + probe a list of variants")
    common(p, variant_flag=False)
    p.add_argument("--variants", type=str, default="all",
                   help="comma-separated labels, or 'all'")
    p.add_argument("--train-per-class", type=_per_class, default=32)
    p.add_argument("--test-per-class", type=_per_class, default=16)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="tabulate sweep/probe results under --out")
    p.add_argument("--out", type=str, default="runs")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (Refused, FloatingPointError) as err:
        print(err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
