"""Pretraining loop: LR schedule, AdamW, EMA teacher, per-step RNG streams.

Reproducibility contract: every random draw comes from a fresh
``default_rng([seed, stream, step, ...])`` so no generator state has to live
in checkpoints, and all persistent state (parameters, Adam moments, teacher)
is rounded to the float32 grid after each update so the float32 checkpoint
is lossless and resume is bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

import numpy as np

from .config import TEMPORAL_PARTS, VARIANTS, RunConfig, load_config, save_config
from .masking import MaskSpec, motion_energy, sample_mask
from .model import (
    EncoderParams,
    HeadParams,
    clone_frozen,
    ema_update,
    encode,
    full_grid,
    init_encoder,
    init_heads,
    load_checkpoint,
    predict_masked,
    quantize_params,
    round_f32,
    save_checkpoint,
    teacher_targets,
    token_grid,
)
from .objectives import (
    ac_loss,
    compose_total,
    delta_loss,
    fwm_losses,
    hamiltonian_loss,
    hw_jepa_loss,
    jepa_loss,
    kinematic_loss,
    ld_errors,
    ld_loss,
    ltc_loss,
    per_token_errors,
    sigreg_loss,
    spectral_loss,
    velgate_loss,
)
from .synth import Dataset, VideoClip, gen_motion_dataset
from .tensor import Tensor, backward

# Disjoint RNG stream tags; synth owns its own keying.
STREAM_INIT = 0
STREAM_BATCH = 1
STREAM_MASK = 2
STREAM_SIGREG = 3

# AdamW's moment decays and denominator floor (Loshchilov & Hutter, arXiv:1711.05101)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

CHECKPOINT_NAME = "checkpoint.jpck"
METRICS_NAME = "metrics.jsonl"


class Refused(ValueError):
    """A config, or a file of the run directory, that no run can start from."""


# -- schedule ------------------------------------------------------------


def lr_at(step: int, total: int, warmup_frac: float = 0.1,
          lr_start: float = 1e-4, lr_peak: float = 6e-4) -> float:
    """Linear warmup from lr_start to lr_peak, then cosine decay to 0."""
    if total < 1:
        raise ValueError("total steps must be at least 1")
    if not 0.0 <= warmup_frac < 1.0:
        raise ValueError("warmup_frac must lie in [0, 1)")
    warmup = int(math.floor(warmup_frac * total))
    if step < warmup:
        return lr_start + (lr_peak - lr_start) * (step / warmup)
    progress = min((step - warmup) / (total - warmup), 1.0)
    return lr_peak * 0.5 * (1.0 + math.cos(math.pi * progress))


# -- optimizer -----------------------------------------------------------


@dataclass
class OptState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_opt(params: dict[str, Tensor]) -> OptState:
    return OptState(
        m={k: np.zeros_like(t.data) for k, t in params.items()},
        v={k: np.zeros_like(t.data) for k, t in params.items()},
    )


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               opt: OptState, lr: float, weight_decay: float = 0.04) -> None:
    """Decoupled weight decay first, then the bias-corrected Adam update.

    Parameters and moments are rounded to the float32 grid afterwards.
    Parameters without a gradient this step keep their values and moments.
    """
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        theta = p.data - lr * weight_decay * p.data
        m = ADAM_BETA1 * opt.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * opt.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        theta = theta - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data = round_f32(theta)
        opt.m[name] = round_f32(m)
        opt.v[name] = round_f32(v)


def descend(params: dict[str, Tensor], loss: Tensor, opt: OptState, lr: float,
            weight_decay: float) -> None:
    """One AdamW step of ``params`` down the gradient of ``loss``, for
    pretraining and probes alike; a non-finite gradient raises
    FloatingPointError naming its parameter before any value moves."""
    for p in params.values():
        p.grad = None
    backward(loss)
    grads = {k: p.grad for k, p in params.items() if p.grad is not None}
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for '{name}'")
    adamw_step(params, grads, opt, lr, weight_decay)


# -- state ---------------------------------------------------------------


@dataclass
class TrainState:
    cfg: RunConfig
    student: EncoderParams
    heads: HeadParams
    teacher: EncoderParams | None
    opt: OptState

    @property
    def step(self) -> int:
        """Steps taken: AdamW's own count."""
        return self.opt.step

    def trainable(self) -> dict[str, Tensor]:
        return {**self.student.named(), **self.heads.named()}

    def record_tensors(self) -> dict[str, Tensor]:
        """Every tensor a checkpoint holds, by record name: student, heads, teacher."""
        teacher = {} if self.teacher is None else self.teacher.named("teacher")
        return {**self.trainable(), **teacher}


def init_state(cfg: RunConfig) -> TrainState:
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, STREAM_INIT])
    student = init_encoder(cfg, rng)
    heads = init_heads(cfg, rng)
    trainable = {**student.named(), **heads.named()}
    quantize_params(trainable)
    teacher = clone_frozen(student) if VARIANTS[cfg.variant].ema else None
    return TrainState(cfg=cfg, student=student, heads=heads, teacher=teacher,
                      opt=init_opt(trainable))


# -- data / masks --------------------------------------------------------


def draw_batch(dataset: Dataset, batch_size: int, seed: int, step: int) -> list[VideoClip]:
    rng = np.random.default_rng([seed, STREAM_BATCH, step])
    idx = rng.integers(0, len(dataset.clips), size=batch_size)
    return [dataset.clips[int(j)] for j in idx]


def sample_clip_mask(cfg: RunConfig, clip: VideoClip, grid: tuple[int, int, int],
                     rng: np.random.Generator) -> MaskSpec:
    energy = motion_energy(clip, cfg.patch) if cfg.motion_guided else None
    return sample_mask(grid, cfg.mask_ratio, rng, cfg.max_temporal_keep, cfg.full_complement,
                       energy, cfg.motion_guided_strength, cfg.motion_guided_random_rate)


# -- loss assembly -------------------------------------------------------


def batch_parts(state: TrainState, clips: list[VideoClip], masks: list[MaskSpec],
                sig_rngs: list[np.random.Generator | None] | None) -> dict[str, Tensor]:
    """Every loss part of the configured variant, each the mean over the
    batch of its per-clip values.

    The batch takes one masked student encode, one predictor pass, one
    teacher encode and, when a part needs it, one full-grid encode; each part
    is then computed once on those slabs. On a token grid of one temporal
    block, every part in ``TEMPORAL_PARTS`` is 0 and its loss is not called.
    """
    cfg, heads = state.cfg, state.heads
    spec = VARIANTS[cfg.variant]
    bsz = len(clips)
    tp, gh, gw = token_grid(state.student, clips[0])

    z_vis, _ = encode(state.student, clips, [m.visible for m in masks])
    pred = predict_masked(heads.predictor, z_vis, masks)
    z = full_grid(state.student, clips) if spec.components else None
    # without EMA the targets are the detached student; every such variant has a part
    h = teacher_targets(state.teacher, clips) if spec.ema else z.data
    h = h.reshape(bsz, tp, gh * gw, cfg.dim)

    targets = np.zeros(pred.shape)
    weights = np.zeros(pred.shape[:2])
    for b, m in enumerate(masks):
        targets[b, :m.n_targets] = h.reshape(bsz, -1, cfg.dim)[b, m.target_indices]
        weights[b, :m.n_targets] = m.distance_weight
    valid = np.arange(pred.shape[1]) < np.array([m.n_targets for m in masks])[:, None]
    e = per_token_errors(pred, targets)
    fwm = cache(lambda: fwm_losses(z, cfg.app_ratio))
    # One batched loss per part, in PART_WEIGHTS order. The losses are
    # looked up in this module when called, so wrappers set on its names see them.
    losses = {
        "jepa": lambda: jepa_loss(e, weights, valid),
        "hw_jepa": lambda: hw_jepa_loss(e, cfg.tau, valid=valid),
        "static": lambda: fwm()[0],
        "orth": lambda: fwm()[1],
        "ld_hw": lambda: hw_jepa_loss(ld_errors(heads, z, h, spec.fwm, cfg.app_ratio), cfg.tau),
        "kin": lambda: kinematic_loss(z, spec.kin_kind, cfg.huber_delta),
        "sigreg": lambda: sigreg_loss(z, cfg.sigreg_projections, sig_rngs),
        "ham": lambda: hamiltonian_loss(z, heads.ham),
        "velgate": lambda: velgate_loss(z),
        "delta": lambda: delta_loss(z, h),
        "ld": lambda: ld_loss(heads, z, h, spec.fwm, cfg.app_ratio),
        "spectral": lambda: spectral_loss(z, h),
        "ltc": lambda: ltc_loss(z, h, cfg.ltc_margin),
        "ac": lambda: ac_loss(heads, z, clips, cfg.patch, cfg.tubelet, spec.fwm, cfg.app_ratio),
    }
    return {name: Tensor(0.0) if tp == 1 and name in TEMPORAL_PARTS else loss()
            for name, loss in losses.items() if name == "jepa" or name in spec.components}


def batch_bundle(state: TrainState, clips: list[VideoClip],
                 masks: list[MaskSpec] | None = None):
    """The batch's loss parts, composed once at this step."""
    cfg = state.cfg
    step = state.step
    if masks is None:
        masks = [sample_clip_mask(cfg, clip, token_grid(state.student, clip),
                                  np.random.default_rng([cfg.seed, STREAM_MASK, step, i]))
                 for i, clip in enumerate(clips)]
    sig_rngs = None
    if "sigreg" in VARIANTS[cfg.variant].components:  # only SIGReg draws from these
        sig_rngs = [np.random.default_rng([cfg.seed, STREAM_SIGREG, step, i])
                    for i in range(len(clips))]
    return compose_total(cfg, batch_parts(state, clips, masks, sig_rngs), step)


# -- steps and loop ------------------------------------------------------


def train_step(state: TrainState, clips: list[VideoClip],
               masks: list[MaskSpec] | None = None) -> dict:
    cfg = state.cfg
    lr = lr_at(state.step, cfg.steps, cfg.warmup_frac, cfg.lr_start, cfg.lr_peak)
    try:
        bundle = batch_bundle(state, clips, masks)
        descend(state.trainable(), bundle.total_node, state.opt, lr, cfg.weight_decay)
    except FloatingPointError as err:
        raise FloatingPointError(f"step {state.step}: {err}") from None

    if state.teacher is not None:
        t_named = state.teacher.named()
        ema_update(t_named, state.student.named(), cfg.ema_momentum)
        quantize_params(t_named)

    metrics = {"step": state.step, "lr": lr, "total": bundle.total}
    for name, val in bundle.components.items():
        metrics[f"loss_{name}"] = val
    return metrics


def train_records(state: TrainState) -> dict[str, np.ndarray]:
    """Every checkpoint record of a state, by name."""
    records = {name: t.data for name, t in state.record_tensors().items()}
    for name in state.opt.m:
        records[f"opt.m.{name}"] = state.opt.m[name]
        records[f"opt.v.{name}"] = state.opt.v[name]
    records["meta.step"] = np.array([float(state.step)])
    return records


def load_train_state(cfg: RunConfig, path) -> TrainState:
    """The state a checkpoint holds; it must carry exactly the records that
    ``train_records`` gives under ``cfg``, no fewer and no others, each of
    its shape and finite, and a whole step count of at most ``cfg.steps``."""
    state = init_state(cfg)
    try:
        records = load_checkpoint(path)
    except (OSError, ValueError) as err:
        raise Refused(f"cannot read checkpoint {path}: {err}") from None
    expected = train_records(state)
    shared = sorted(expected.keys() & records.keys())
    missing = sorted(expected.keys() - records.keys())
    unknown = sorted(records.keys() - expected.keys())
    reshaped = [f"{k} {records[k].shape} vs {expected[k].shape}"
                for k in shared if records[k].shape != expected[k].shape]
    non_finite = [k for k in shared if not np.isfinite(records[k]).all()]
    if missing or unknown or reshaped or non_finite:
        raise Refused(f"checkpoint {path} does not fit this config: missing records "
                      f"{missing}, unknown records {unknown}, other shapes {reshaped}, "
                      f"non-finite records {non_finite}")
    step = float(records["meta.step"][0])
    if not (step.is_integer() and 0 <= step <= cfg.steps):
        raise Refused(f"checkpoint {path} holds meta.step {step!r}, not a whole step "
                      f"count from 0 to {cfg.steps}")
    for name, t in state.record_tensors().items():
        t.data = records[name]
    for name in state.opt.m:
        state.opt.m[name] = records[f"opt.m.{name}"]
        state.opt.v[name] = records[f"opt.v.{name}"]
    state.opt.step = int(step)
    return state


def _logged_step(line: bytes) -> int | None:
    """The step a log line records, or None for a line that is no step record."""
    try:
        return json.loads(line)["step"]
    except (ValueError, TypeError, KeyError):  # not UTF-8 or JSON; no object; no step
        return None


def _truncate_metrics(path: Path, step: int) -> None:
    """Keep the log lines of steps 1..step, dropping any that a crash after
    the checkpoint left behind; fail if those steps are not all there."""
    kept = path.read_bytes().splitlines(keepends=True)[:step] if path.exists() else []
    if [_logged_step(line) for line in kept] != list(range(1, step + 1)):
        raise Refused(f"{path} does not hold steps 1..{step} of the checkpoint")
    path.write_bytes(b"".join(kept))


def _check_resumed_config(cfg: RunConfig, path: Path) -> None:
    """Refuse to resume a run under any config but the one it was started with."""
    if not path.exists():
        raise Refused(f"cannot resume: {path} is missing")
    try:
        saved = load_config(path)
    except (OSError, ValueError) as err:
        raise Refused(f"cannot read {path}: {err}") from None
    changed = [f.name for f in fields(RunConfig)
               if f.name != "out" and getattr(saved, f.name) != getattr(cfg, f.name)]
    if changed:
        raise Refused(f"cannot resume under a config that differs from {path} in "
                         f"{', '.join(changed)}")


def run_pretrain(cfg: RunConfig, dataset: Dataset | None = None,
                 resume: bool = False, stop_after: int | None = None,
                 log=None) -> TrainState:
    """Full pretraining run; writes metrics.jsonl and a final checkpoint.

    ``stop_after`` checkpoints and returns early while keeping the schedule
    keyed to cfg.steps, so a later ``resume=True`` call continues bit-exactly.
    """
    cfg.validate()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if resume:
        _check_resumed_config(cfg, out / "config.lab")
    save_config(cfg, out / "config.lab")
    if dataset is None:
        dataset = gen_motion_dataset(cfg.n_per_class, cfg.seed, t=cfg.frames,
                                     h=cfg.height, w=cfg.width)

    ckpt = out / CHECKPOINT_NAME
    if resume:
        state = load_train_state(cfg, ckpt)
        _truncate_metrics(out / METRICS_NAME, state.step)
        mode = "a"
    else:
        state = init_state(cfg)
        mode = "w"

    end = cfg.steps if stop_after is None else min(stop_after, cfg.steps)
    with open(out / METRICS_NAME, mode) as f:
        for step in range(state.step, end):
            clips = draw_batch(dataset, cfg.batch_size, cfg.seed, step)
            metrics = train_step(state, clips)
            f.write(json.dumps(metrics, sort_keys=True) + "\n")
            if log is not None and (step + 1) % 50 == 0:
                log(f"[{cfg.variant}] step {step + 1}/{cfg.steps} "
                    f"total {metrics['total']:.4f}")
    save_checkpoint(ckpt, train_records(state))
    return state
