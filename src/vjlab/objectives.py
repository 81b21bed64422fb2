"""All pretraining losses and the per-variant composition recipes.

Every loss returns a scalar Tensor on the student graph; teacher-side
inputs arrive as plain arrays (already detached). Gates and hard weights
are computed from values and treated as constants for differentiation, so
gradients only ever flow through the unweighted error terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fourier import dft_matrices
from .model import (
    HeadParams,
    LatentGrid,
    action_head,
    dyn_channels,
    dyn_head,
    linear,
    slice_cols,
    split_channels,
)
from .synth import VideoClip
from .tensor import Tensor, gather_rows, huber as huber_op, softmax

COMPONENTS = (
    "jepa", "hw_jepa", "static", "orth", "ld_hw", "kin", "sigreg", "ham",
    "velgate", "delta", "ld", "spectral", "ltc", "ac",
)

KIN_KINDS = ("l1", "huber", "accel", "split", "anneal")


@dataclass(frozen=True)
class VariantSpec:
    """What a named variant adds on top of the masked-prediction loss."""

    components: frozenset[str] = frozenset()
    kin_kind: str | None = None
    ema: bool = True
    fwm: bool = False            # dyn/action heads read the dynamics slice
    lambda_hw: float = 0.3
    masking: dict = field(default_factory=dict)


_MG = {"motion_guided": True, "motion_guided_strength": 2.0, "motion_guided_random_rate": 0.1}
_AMG = {"motion_guided": True, "motion_guided_strength": 5.0, "motion_guided_random_rate": 0.0}
_FP = {"full_complement": True, "max_temporal_keep": 0.5}

VARIANTS: dict[str, VariantSpec] = {
    "Baseline": VariantSpec(),
    "Motion-Guided": VariantSpec(masking=_MG),
    "AMG-JEPA": VariantSpec(masking=_AMG),
    "Future-Predictive": VariantSpec(masking=_FP),
    "Motion-Future": VariantSpec(masking={**_MG, **_FP}),
    "Kin.-L1": VariantSpec(components=frozenset({"kin"}), kin_kind="l1", ema=False),
    "Kin.-Huber": VariantSpec(components=frozenset({"kin"}), kin_kind="huber", ema=False),
    "Kin.-Accel": VariantSpec(components=frozenset({"kin"}), kin_kind="accel", ema=False),
    "Kin.-Split": VariantSpec(components=frozenset({"kin"}), kin_kind="split", ema=False),
    "Kin.-Anneal": VariantSpec(components=frozenset({"kin"}), kin_kind="anneal", ema=False),
    "SIGReg": VariantSpec(components=frozenset({"sigreg"})),
    "SIGReg-no-EMA": VariantSpec(components=frozenset({"sigreg"}), ema=False),
    "Hamiltonian": VariantSpec(components=frozenset({"ham"})),
    "VelGate": VariantSpec(components=frozenset({"velgate"})),
    "Delta-JEPA": VariantSpec(components=frozenset({"delta"})),
    "LD-JEPA": VariantSpec(components=frozenset({"ld"})),
    "Spectral-JEPA": VariantSpec(components=frozenset({"spectral"})),
    "LTC-JEPA": VariantSpec(components=frozenset({"ltc"})),
    "FWM-JEPA": VariantSpec(components=frozenset({"static", "orth"}), fwm=True),
    "HW-JEPA": VariantSpec(components=frozenset({"hw_jepa"}), lambda_hw=0.3),
    "HW-LD-JEPA": VariantSpec(components=frozenset({"hw_jepa", "ld_hw"}), lambda_hw=1.0),
    "FWM-LD-JEPA": VariantSpec(components=frozenset({"static", "orth", "ld"}), fwm=True),
    "AC-JEPA": VariantSpec(components=frozenset({"ac"})),
    "FAC-JEPA": VariantSpec(components=frozenset({"ac", "static", "orth"}), fwm=True),
    "AC+HW-JEPA": VariantSpec(components=frozenset({"ac", "hw_jepa"}), lambda_hw=0.3),
    "Combo": VariantSpec(components=frozenset({"delta", "hw_jepa"}), lambda_hw=0.3, masking=_AMG),
    "FWM-HW-LD": VariantSpec(
        components=frozenset({"hw_jepa", "static", "orth", "ld_hw"}), fwm=True, lambda_hw=1.0
    ),
}


@dataclass
class ObjectiveConfig:
    variant: str = "Baseline"
    lambda_kin: float = 0.1
    lambda_s: float = 0.05
    lambda_o: float = 0.01
    lambda_d: float = 1.0
    lambda_hw: float = 0.3
    lambda_ac: float = 1.0
    lambda_delta: float = 0.5
    lambda_spec: float = 1.0
    lambda_ltc: float = 0.5
    tau: float = 1.0
    huber_delta: float = 1.0
    ltc_margin: float = 0.5
    app_ratio: float = 0.5
    anneal_horizon: int = 500
    sigreg_projections: int = 8
    ema: bool = True
    mask_ratio: float = 0.5
    motion_guided: bool = False
    motion_guided_strength: float = 2.0
    motion_guided_random_rate: float = 0.1
    full_complement: bool = False
    max_temporal_keep: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant '{self.variant}'")
        for name in ["lambda_kin", "lambda_s", "lambda_o", "lambda_d", "lambda_hw",
                     "lambda_ac", "lambda_delta", "lambda_spec", "lambda_ltc"]:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.tau <= 0.0 or self.huber_delta <= 0.0 or self.ltc_margin <= 0.0:
            raise ValueError("tau, huber_delta and ltc_margin must be positive")
        if not 0.0 < self.app_ratio < 1.0:
            raise ValueError(f"app_ratio must be in (0, 1), got {self.app_ratio}")
        if self.anneal_horizon < 1:
            raise ValueError("anneal_horizon must be at least 1")
        if self.sigreg_projections < 1:
            raise ValueError("sigreg_projections must be at least 1")

    @property
    def spec(self) -> VariantSpec:
        return VARIANTS[self.variant]


def resolve_objective(variant: str, **overrides) -> ObjectiveConfig:
    """Variant defaults (lambda_hw, EMA, masking flags) plus explicit overrides."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant '{variant}'")
    spec = VARIANTS[variant]
    cfg = ObjectiveConfig(variant=variant, lambda_hw=spec.lambda_hw, ema=spec.ema,
                          **spec.masking)
    return replace(cfg, **overrides) if overrides else cfg


# -- shared helpers ------------------------------------------------------


def time_diff(x: Tensor) -> Tensor:
    """First difference along the leading axis."""
    t = x.shape[0]
    if t < 2:
        raise ValueError("time_diff needs at least two steps")
    return gather_rows(x, range(1, t)) - gather_rows(x, range(0, t - 1))


def _zero() -> Tensor:
    return Tensor(0.0)


def per_token_errors(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean-abs residual per token: the e_i that hard weighting reweights."""
    targets = np.asarray(targets, dtype=np.float64)
    if pred.shape != targets.shape:
        raise ValueError(f"prediction {pred.shape} vs target {targets.shape}")
    return (pred - Tensor(targets)).abs().mean(axis=1)


# -- losses --------------------------------------------------------------


def jepa_loss(pred: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Distance-weighted L1 between predictions and detached teacher targets."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (pred.shape[0],):
        raise ValueError(f"weights {weights.shape} vs {pred.shape[0]} targets")
    if abs(weights.mean() - 1.0) > 1e-9:
        raise ValueError("distance weights must average to 1")
    e = per_token_errors(pred, targets)
    return (Tensor(weights) * e).mean()


def kinematic_loss(z: LatentGrid, kind: str = "l1", huber_delta: float = 1.0) -> Tensor:
    """Temporal smoothness of the student's own latents, no teacher involved."""
    if kind not in KIN_KINDS:
        raise ValueError(f"unknown kinematic kind '{kind}'")
    tp = z.t_blocks
    if tp == 1:
        return _zero()  # image clips carry no temporal signal
    vals = z.values
    if kind == "split":
        d = z.dim
        if d % 2:
            raise ValueError("split kinematic needs an even channel count")
        vals = slice_cols(vals, 0, d // 2)
    vel = time_diff(vals)
    if kind in ("l1", "anneal"):
        return vel.abs().mean()
    if kind == "huber":
        return huber_op(vel, delta=huber_delta).mean()
    # accel and split use second differences
    if tp < 3:
        raise ValueError(f"acceleration penalty needs >= 3 temporal blocks, got {tp}")
    return time_diff(vel).abs().mean()


def anneal_coeff(step: int, horizon: int) -> float:
    """Cosine decay of the kinematic coefficient from 1 to 0 over the horizon."""
    if horizon < 1:
        raise ValueError("anneal horizon must be at least 1")
    progress = min(max(step / horizon, 0.0), 1.0)
    return 0.5 * (1.0 + math.cos(math.pi * progress))


def sigreg_loss(z, n_proj: int, rng: np.random.Generator) -> Tensor:
    """Moment-matching penalty on random 1-d projections of the latents.

    Per direction: mean^2 + (var-1)^2 + skew^2 + (excess kurtosis)^2.
    Constant projections take the analytic limit (skew 0, kurtosis term 9).
    """
    flat = z.flat() if isinstance(z, LatentGrid) else z
    n, d = flat.shape
    if n < 8:
        raise ValueError(f"sigreg needs at least 8 tokens, got {n}")
    terms = []
    for _ in range(n_proj):
        u = rng.standard_normal(d)
        u = u / np.linalg.norm(u)
        s = (flat * Tensor(np.tile(u, (n, 1)))).sum(axis=1)
        m = s.mean()
        c = s - m
        v = (c * c).mean()
        t = m * m + (v - 1.0) * (v - 1.0)
        if v.item() == 0.0:
            t = t + 9.0
        else:
            skew = (c * c * c).mean() / v.pow(1.5)
            exk = (c * c * c * c).mean() / v.pow(2.0) - 3.0
            t = t + skew * skew + exk * exk
        terms.append(t)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / n_proj)


def hamiltonian_loss(z: LatentGrid, ham) -> Tensor:
    """Discrete Hamiltonian residual |dq - dH/dp| + |dp + dH/dq|.

    The partials are written out analytically from the energy net, so the
    loss stays first-order differentiable end to end.
    """
    tp, half2 = z.t_blocks, z.dim
    if half2 % 2:
        raise ValueError("hamiltonian split needs an even channel count")
    if tp < 2:
        return _zero()
    half = half2 // 2
    x = z.flat()

    a = linear(x, ham.w1, ham.b1).tanh()
    gate = (1.0 - a * a) * ham.w2.reshape(1, -1).broadcast_to(a.shape)
    dhdx = gate @ ham.w1.transpose() + x * ham.quad.reshape(1, -1).broadcast_to(x.shape)

    def grid(t: Tensor, width: int) -> Tensor:
        return t.reshape(tp, z.n_space, width)

    q = grid(slice_cols(x, 0, half), half)
    p = grid(slice_cols(x, half, half2), half)
    dhdq = grid(slice_cols(dhdx, 0, half), half)
    dhdp = grid(slice_cols(dhdx, half, half2), half)

    dq = time_diff(q)
    dp = time_diff(p)
    lead = gather_rows  # partials evaluated at the earlier state of each pair
    dhdq_t = lead(dhdq, range(tp - 1))
    dhdp_t = lead(dhdp, range(tp - 1))
    return (dq - dhdp_t).abs().mean() + (dp + dhdq_t).abs().mean()


def velgate_loss(z: LatentGrid) -> Tensor:
    """Kinematic L1 restricted to the slow half of the spatial tokens.

    Velocity ranking comes from values and is constant for differentiation;
    ties break by token index.
    """
    tp = z.t_blocks
    if tp < 2 or z.n_space < 2:
        return _zero()
    vals = z.values
    vel = np.abs(np.diff(vals.data, axis=0)).mean(axis=(0, 2))  # [n_space]
    order = sorted(range(z.n_space), key=lambda j: (vel[j], j))
    gated = order[: z.n_space // 2]
    by_token = vals.transpose(1, 0, 2)
    slow = gather_rows(by_token, gated).transpose(1, 0, 2)
    return time_diff(slow).abs().mean()


def delta_loss(z: LatentGrid, h_values: np.ndarray) -> Tensor:
    """Match student latent velocity to detached teacher velocity."""
    if z.t_blocks < 2:
        return _zero()
    dh = np.diff(h_values, axis=0)
    return (time_diff(z.values) - Tensor(dh)).abs().mean()


def ld_errors(heads: HeadParams, z: LatentGrid, h_values: np.ndarray,
              fwm: bool, app_ratio: float) -> Tensor | None:
    """Per-token errors of the dynamics head predicting teacher deltas.

    Returns None for single-block clips (no transition to predict).
    """
    tp = z.t_blocks
    if tp < 2:
        return None
    src = z.values
    if fwm:
        src = dyn_channels(src, app_ratio)
    m = (tp - 1) * z.n_space
    inputs = gather_rows(src, range(tp - 1)).reshape(m, src.shape[-1])
    pred = dyn_head(heads, inputs)
    targets = np.diff(h_values, axis=0).reshape(m, h_values.shape[-1])
    return per_token_errors(pred, targets)


def ld_loss(heads: HeadParams, z: LatentGrid, h_values: np.ndarray,
            fwm: bool = False, app_ratio: float = 0.5) -> Tensor:
    e = ld_errors(heads, z, h_values, fwm, app_ratio)
    return _zero() if e is None else e.mean()


def spectral_loss(z: LatentGrid, h_values: np.ndarray) -> Tensor:
    """Frequency-weighted L1 on temporal DFT coefficient differences.

    Weight k/(T'-1) suppresses DC and emphasizes the fastest bins. The
    transform is applied as its (constant) matrix form so it stays
    differentiable; fourier.fft_time computes the identical map.
    """
    tp = z.t_blocks
    if tp < 2:
        return _zero()
    cmat, smat = dft_matrices(tp)
    fibers = z.values.reshape(tp, z.n_space * z.dim).transpose()
    h_fib = h_values.reshape(tp, -1).T
    d_re = (fibers @ Tensor(cmat)) - Tensor(h_fib @ cmat)
    d_im = (fibers @ Tensor(smat)) - Tensor(h_fib @ smat)
    mag = d_re.abs() + d_im.abs()
    w = np.arange(tp) / (tp - 1)
    return (mag * Tensor(np.tile(w, (mag.shape[0], 1)))).mean()


def ltc_loss(z: LatentGrid, h_values: np.ndarray, margin: float = 0.5) -> Tensor:
    """Hinge: the aligned-time teacher latent must win the next-step one
    by ``margin`` in cosine similarity. Zero-vector cosines count as 0."""
    if margin <= 0.0:
        raise ValueError("ltc margin must be positive")
    tp = z.t_blocks
    if tp < 2:
        return _zero()
    m = (tp - 1) * z.n_space
    d = z.dim
    zz = gather_rows(z.values, range(tp - 1)).reshape(m, d)
    h0 = h_values[:-1].reshape(m, d)
    h1 = h_values[1:].reshape(m, d)

    zn2 = (zz * zz).sum(axis=1)
    hn0 = np.sum(h0 * h0, axis=1)
    hn1 = np.sum(h1 * h1, axis=1)

    def cosine(h, hn2):
        valid = ((zn2.data > 0.0) & (hn2 > 0.0)).astype(np.float64)
        dot = (zz * Tensor(h)).sum(axis=1) * Tensor(valid)
        denom = (zn2 * Tensor(hn2) + Tensor(1.0 - valid)).sqrt()
        return dot / denom

    hinge = (cosine(h1, hn1) - cosine(h0, hn0) + margin).relu()
    return hinge.mean()


def fwm_losses(z: LatentGrid, app_ratio: float = 0.5) -> tuple[Tensor, Tensor]:
    """(static, orth): freeze the appearance slice over time and keep the
    centered appearance/dynamics subspaces uncorrelated."""
    app, dyn = split_channels(z.values, app_ratio)
    static = time_diff(app).abs().mean() if z.t_blocks >= 2 else _zero()
    n = z.t_blocks * z.n_space
    app_f = app.reshape(n, app.shape[-1])
    dyn_f = dyn.reshape(n, dyn.shape[-1])
    app_c = app_f - app_f.mean(axis=0, keepdims=True).broadcast_to(app_f.shape)
    dyn_c = dyn_f - dyn_f.mean(axis=0, keepdims=True).broadcast_to(dyn_f.shape)
    cross = app_c.transpose() @ dyn_c
    orth = (cross * cross).sum() * (1.0 / n)
    return static, orth


def hard_weights(e, tau: float = 1.0) -> Tensor:
    """softmax(e / tau) * N, logits clipped to [-20, 20], returned detached."""
    e_data = e.data if isinstance(e, Tensor) else np.asarray(e, dtype=np.float64)
    if e_data.ndim != 1:
        raise ValueError(f"hard weights want a flat error vector, got {e_data.shape}")
    n = e_data.shape[0]
    w = softmax(Tensor(e_data), temperature=tau, clip=(-20.0, 20.0)) * float(n)
    return w.detach()


def hw_jepa_loss(e: Tensor, tau: float = 1.0, weights=None) -> Tensor:
    """Hard-weighted mean of per-token errors (weights constant).

    Serves both the predictor's errors (``hw_jepa``) and the dynamics
    head's errors (``ld_hw``).
    """
    if weights is None:
        weights = hard_weights(e, tau)
    w_data = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    if w_data.shape != e.shape:
        raise ValueError(f"weights {w_data.shape} vs errors {e.shape}")
    return (Tensor(w_data) * e).mean()


def ac_targets(clip: VideoClip, patch: int, tubelet: int) -> np.ndarray:
    """Patch-mean pixel change between consecutive frame blocks, [M, C]."""
    t, h, w, c = clip.shape
    if t % tubelet or h % patch or w % patch:
        raise ValueError("clip not divisible by patch/tubelet")
    tp, gh, gw = t // tubelet, h // patch, w // patch
    block_mean = clip.pixels.reshape(tp, tubelet, h, w, c).mean(axis=1)
    d = np.diff(block_mean, axis=0)  # [tp-1, H, W, C]
    per_patch = d.reshape(tp - 1, gh, patch, gw, patch, c).mean(axis=(2, 4))
    return per_patch.reshape((tp - 1) * gh * gw, c)


def ac_loss(heads: HeadParams, z: LatentGrid, clip: VideoClip, patch: int,
            tubelet: int, fwm: bool = False, app_ratio: float = 0.5) -> Tensor:
    """L1 between the action head and per-patch frame-difference targets."""
    tp = z.t_blocks
    if tp < 2:
        return _zero()
    src = z.values
    if fwm:
        src = dyn_channels(src, app_ratio)
    m = (tp - 1) * z.n_space
    inputs = gather_rows(src, range(tp - 1)).reshape(m, src.shape[-1])
    pred = action_head(heads, inputs)
    targets = ac_targets(clip, patch, tubelet)
    return per_token_errors(pred, targets).mean()


# -- composition ---------------------------------------------------------


@dataclass
class LossBundle:
    """Per-component scalars plus the weighted total for one step/batch."""

    components: dict[str, float]
    total: float
    total_node: Tensor | None = None

    def validate(self, cfg: ObjectiveConfig, step: int = 0) -> "LossBundle":
        for name, val in self.components.items():
            if name not in COMPONENTS:
                raise ValueError(f"unknown loss component '{name}'")
            if not np.isfinite(val):
                raise FloatingPointError(f"non-finite loss component '{name}'")
            if val < 0.0:
                raise ValueError(f"loss component '{name}' is negative: {val}")
        want = sum(
            component_weight(cfg, name, step) * val
            for name, val in self.components.items()
        )
        if abs(self.total - want) > 1e-9:
            raise ValueError(f"total {self.total} != weighted sum {want}")
        return self


def component_weight(cfg: ObjectiveConfig, name: str, step: int = 0) -> float:
    if name in ("jepa", "sigreg", "ham", "velgate"):
        return 1.0
    if name == "kin":
        lam = cfg.lambda_kin
        if cfg.spec.kin_kind == "anneal":
            lam *= anneal_coeff(step, cfg.anneal_horizon)
        return lam
    return {
        "hw_jepa": cfg.lambda_hw,
        "static": cfg.lambda_s,
        "orth": cfg.lambda_o,
        "ld_hw": cfg.lambda_d,
        "ld": cfg.lambda_d,
        "delta": cfg.lambda_delta,
        "spectral": cfg.lambda_spec,
        "ltc": cfg.lambda_ltc,
        "ac": cfg.lambda_ac,
    }[name]


def compose_total(cfg: ObjectiveConfig, parts: dict[str, Tensor], step: int = 0) -> LossBundle:
    """Weighted sum per the variant's recipe; part set must match exactly."""
    required = {"jepa"} | set(cfg.spec.components)
    missing = required - parts.keys()
    if missing:
        raise ValueError(f"variant '{cfg.variant}' requires part '{sorted(missing)[0]}'")
    extra = parts.keys() - required
    if extra:
        raise ValueError(f"variant '{cfg.variant}' does not use part '{sorted(extra)[0]}'")
    total = None
    comp: dict[str, float] = {}
    for name in COMPONENTS:  # fixed order keeps float sums reproducible
        if name not in parts:
            continue
        node = parts[name]
        comp[name] = float(node.item())
        term = node * component_weight(cfg, name, step)
        total = term if total is None else total + term
    bundle = LossBundle(components=comp, total=float(total.item()), total_node=total)
    return bundle.validate(cfg, step)
