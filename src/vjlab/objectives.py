"""All pretraining losses and their composition into a step's total.

Every loss returns a scalar Tensor on the student graph; teacher-side
inputs arrive as plain arrays (already detached). Gates and hard weights
are computed from values and treated as constants for differentiation, so
gradients only ever flow through the unweighted error terms.

Losses work on one batch at a time. Student latents arrive as a
[B, T', n_space, dim] Tensor and teacher values as an array of the same
shape; predictor errors arrive as a [B, K] slab whose padded rows carry
weight exactly 0. The loss of a batch is the mean over its clips of each
clip's own loss, so a batch of one is that clip's loss. Whatever the math
takes per clip (centering, gating, moments, hard weights) stays per clip.
A loss that compares time blocks raises ValueError on one block; on such a
grid ``training.batch_parts`` gives its part (``config.TEMPORAL_PARTS``) 0.

This module holds the losses and their composition only. What a variant
is lives in ``config``: composition reads ``config.VARIANTS[cfg.variant]``
for the parts and the kinematic kind, and ``config.PART_WEIGHTS`` for the
summation order and the ``RunConfig`` field that weights each part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PART_WEIGHTS, VARIANTS, RunConfig, app_width
from .fourier import dft_matrices
from .model import HeadParams, action_head, dyn_head, linear, view
from .synth import VideoClip
from .tensor import Tensor, huber as huber_op

KIN_KINDS = ("l1", "huber", "accel", "split", "anneal")


# -- shared helpers ------------------------------------------------------


def time_diff(x: Tensor) -> Tensor:
    """First difference along the time axis (axis 1) of a [B, T', ...] slab."""
    lead = _lead(x)
    return view(x, (slice(None), slice(1, x.shape[1]))) - lead


def _lead(x: Tensor, *index) -> Tensor:
    """The states that start each transition: time steps [0, T'-1) of x,
    further indexed by ``index``. One step holds no transition."""
    t = x.shape[1]
    if t < 2:
        raise ValueError(f"a transition needs at least two steps, got {t}")
    return view(x, (slice(None), slice(0, t - 1), *index))


def per_token_errors(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean-abs residual over the last axis: the e_i that hard weighting reweights."""
    targets = np.asarray(targets, dtype=np.float64)
    if pred.shape != targets.shape:
        raise ValueError(f"prediction {pred.shape} vs target {targets.shape}")
    return (pred - Tensor(targets)).abs().mean(axis=-1)


def _valid_rows(shape: tuple[int, ...], valid: np.ndarray | None) -> np.ndarray:
    """The real rows of a [B, K] error slab, all of them when valid is None."""
    if len(shape) != 2:
        raise ValueError(f"errors must be a [clips, rows] slab, got {shape}")
    valid = np.ones(shape, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    if valid.shape != shape or not valid.any(axis=1).all():
        raise ValueError(f"valid rows {valid.shape} do not fit errors {shape}")
    return valid


def _weighted_rows(e: Tensor, weights: np.ndarray, valid: np.ndarray) -> Tensor:
    """Mean over clips of each clip's weighted mean error over its valid
    rows, as one weighted sum over the slab; padded rows weigh 0."""
    if weights.shape != e.shape:
        raise ValueError(f"weights {weights.shape} vs errors {e.shape}")
    counts = valid.sum(axis=1, keepdims=True)
    scale = np.where(valid, weights, 0.0) / (counts * e.shape[0])
    return (Tensor(scale) * e).sum()


# -- losses --------------------------------------------------------------


def jepa_loss(e: Tensor, weights: np.ndarray, valid: np.ndarray | None = None) -> Tensor:
    """Distance-weighted L1 between predictions and detached teacher targets,
    from the per-token errors e [B, K]; each clip's weights average 1 over
    its valid rows."""
    valid = _valid_rows(e.shape, valid)
    weights = np.asarray(weights, dtype=np.float64)
    means = np.where(valid, weights, 0.0).sum(axis=1) / valid.sum(axis=1)
    if np.any(np.abs(means - 1.0) > 1e-9):
        raise ValueError("distance weights must average to 1")
    return _weighted_rows(e, weights, valid)


def kinematic_loss(z: Tensor, kind: str = "l1", huber_delta: float = 1.0) -> Tensor:
    """Temporal smoothness of the student's own latents, no teacher involved."""
    if kind not in KIN_KINDS:
        raise ValueError(f"unknown kinematic kind '{kind}'")
    tp = z.shape[1]
    if kind == "split":
        d = z.shape[-1]
        if d % 2:
            raise ValueError("split kinematic needs an even channel count")
        z = view(z, (Ellipsis, slice(0, d // 2)))
    vel = time_diff(z)
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


def sigreg_loss(z: Tensor, n_proj: int, rngs: list[np.random.Generator]) -> Tensor:
    """Moment-matching penalty on random 1-d projections of each clip's latents.

    Per direction: mean^2 + (var-1)^2 + skew^2 + (excess kurtosis)^2.
    Constant projections take the analytic limit (skew 0, kurtosis term 9).
    Clip b draws its ``n_proj`` unit directions from ``rngs[b]``.
    """
    bsz, d = z.shape[0], z.shape[-1]
    n = z.size // (bsz * d)
    if n < 8:
        raise ValueError(f"sigreg needs at least 8 tokens, got {n}")
    if len(rngs) != bsz or any(rng is None for rng in rngs):
        raise ValueError(f"sigreg needs a projection rng for each of {bsz} clips")
    draws = [[rng.standard_normal(d) for _ in range(n_proj)] for rng in rngs]
    dirs = np.array([[u / np.linalg.norm(u) for u in clip] for clip in draws])  # [B, P, d]
    s = z.reshape(bsz, n, d) @ Tensor(dirs.transpose(0, 2, 1))  # [B, n, P]
    m = s.mean(axis=1, keepdims=True)
    c = s - m.broadcast_to(s.shape)
    c2 = c * c
    c3 = c2 * c
    v = c2.mean(axis=1)
    # A constant projection has c = 0: taking its variance as 1 in the
    # denominators gives skew 0 and excess kurtosis -3, the analytic limit.
    v_div = v + Tensor((v.data == 0.0).astype(np.float64))
    skew = c3.mean(axis=1) / v_div.pow(1.5)
    exk = (c3 * c).mean(axis=1) / v_div.pow(2.0) - 3.0
    m = m.reshape(bsz, n_proj)
    return (m * m + (v - 1.0) * (v - 1.0) + skew * skew + exk * exk).mean()


def hamiltonian_loss(z: Tensor, ham) -> Tensor:
    """Discrete Hamiltonian residual |dq - dH/dp| + |dp + dH/dq|.

    The partials are written out analytically from the energy net, so the
    loss stays first-order differentiable end to end.
    """
    d = z.shape[-1]
    if d % 2:
        raise ValueError("hamiltonian split needs an even channel count")
    a = linear(z, ham.w1, ham.b1).tanh()
    gate = (1.0 - a * a) * ham.w2.broadcast_to(a.shape)
    dhdx = gate @ ham.w1.transpose() + z * ham.quad.broadcast_to(z.shape)
    # Hamilton's equations as rows: (dq, dp) = (dH/dq, dH/dp) @ J^T with
    # J = [[0, I], [-I, 0]], partials taken at the earlier state of each pair.
    j_t = np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(d // 2))
    r = time_diff(z) - _lead(dhdx) @ Tensor(j_t)
    return r.abs().mean() * 2.0  # the q and p halves, each averaged on its own


def velgate_loss(z: Tensor) -> Tensor:
    """Kinematic L1 restricted to the slow half of each clip's spatial tokens.

    Velocity ranking comes from values and is constant for differentiation;
    ties break by token index.
    """
    bsz, tp, n_space, d = z.shape
    moved = time_diff(z).abs()
    if n_space < 2:
        return Tensor(0.0)
    vel = moved.data.mean(axis=(1, 3))  # [B, n_space]
    slow = np.argsort(vel, axis=1, kind="stable")[:, : n_space // 2]
    gate = np.zeros((bsz, 1, n_space, 1))
    np.put_along_axis(gate, slow[:, None, :, None], 1.0, axis=2)
    kept = moved * Tensor(np.broadcast_to(gate, moved.shape))
    return kept.sum() * (1.0 / (bsz * (tp - 1) * (n_space // 2) * d))


def delta_loss(z: Tensor, h_values: np.ndarray) -> Tensor:
    """Match student latent velocity to detached teacher velocity."""
    return (time_diff(z) - Tensor(np.diff(h_values, axis=1))).abs().mean()


def _transition_inputs(z: Tensor, fwm: bool, app_ratio: float) -> Tensor:
    """What the dynamics and action heads read: the earlier state of each
    transition, its dynamics channels only under FWM."""
    d = z.shape[-1]
    first = app_width(app_ratio, d) if fwm else 0
    return _lead(z, Ellipsis, slice(first, d))


def ld_errors(heads: HeadParams, z: Tensor, h_values: np.ndarray,
              fwm: bool, app_ratio: float) -> Tensor:
    """Per-token errors [B, (T'-1) * n_space] of the dynamics head predicting
    teacher deltas."""
    bsz, tp, n_space, _ = z.shape
    pred = dyn_head(heads, _transition_inputs(z, fwm, app_ratio))
    e = per_token_errors(pred, np.diff(h_values, axis=1))
    return e.reshape(bsz, (tp - 1) * n_space)


def ld_loss(heads: HeadParams, z: Tensor, h_values: np.ndarray,
            fwm: bool = False, app_ratio: float = 0.5) -> Tensor:
    return ld_errors(heads, z, h_values, fwm, app_ratio).mean()


def spectral_loss(z: Tensor, h_values: np.ndarray) -> Tensor:
    """Frequency-weighted L1 on temporal DFT coefficient differences.

    Weight k/(T'-1) suppresses DC and emphasizes the fastest bins. The
    transform is applied as its (constant) matrix form so it stays
    differentiable; fourier.fft_time computes the identical map.
    """
    bsz, tp = z.shape[:2]
    if tp < 2:  # the weights below divide by T' - 1
        raise ValueError(f"spectral loss needs at least two steps, got {tp}")
    cmat, smat = dft_matrices(tp)
    series = z.reshape(bsz, tp, -1)  # one time series per column
    h_series = h_values.reshape(bsz, tp, -1)
    d_re = Tensor(cmat.T) @ series - Tensor(cmat.T @ h_series)
    d_im = Tensor(smat.T) @ series - Tensor(smat.T @ h_series)
    mag = d_re.abs() + d_im.abs()
    w = np.arange(tp) / (tp - 1)
    return (mag * Tensor(np.broadcast_to(w[:, None], mag.shape))).mean()


def ltc_loss(z: Tensor, h_values: np.ndarray, margin: float = 0.5) -> Tensor:
    """Hinge: the aligned-time teacher latent must win the next-step one
    by ``margin`` in cosine similarity. Zero-vector cosines count as 0."""
    if margin <= 0.0:
        raise ValueError("ltc margin must be positive")
    zz = _lead(z)
    h0 = h_values[:, :-1]
    h1 = h_values[:, 1:]

    zn2 = (zz * zz).sum(axis=-1)
    hn0 = np.sum(h0 * h0, axis=-1)
    hn1 = np.sum(h1 * h1, axis=-1)

    def cosine(h, hn2):
        valid = ((zn2.data > 0.0) & (hn2 > 0.0)).astype(np.float64)
        dot = (zz * Tensor(h)).sum(axis=-1) * Tensor(valid)
        denom = (zn2 * Tensor(hn2) + Tensor(1.0 - valid)).sqrt()
        return dot / denom

    hinge = (cosine(h1, hn1) - cosine(h0, hn0) + margin).relu()
    return hinge.mean()


def fwm_losses(z: Tensor, app_ratio: float = 0.5) -> tuple[Tensor, Tensor]:
    """(static, orth): freeze the appearance slice over time and keep each
    clip's centered appearance/dynamics subspaces uncorrelated."""
    bsz, tp, n_space, d = z.shape
    d_app = app_width(app_ratio, d)
    app, dyn = view(z, (Ellipsis, slice(0, d_app))), view(z, (Ellipsis, slice(d_app, d)))
    static = time_diff(app).abs().mean() if tp >= 2 else Tensor(0.0)
    n = tp * n_space

    def centered(x: Tensor) -> Tensor:
        rows = x.reshape(bsz, n, x.shape[-1])
        return rows - rows.mean(axis=1, keepdims=True).broadcast_to(rows.shape)

    cross = centered(app).transpose(0, 2, 1) @ centered(dyn)
    orth = (cross * cross).sum() * (1.0 / (bsz * n))
    return static, orth


def hard_weights(e, tau: float = 1.0, valid: np.ndarray | None = None) -> Tensor:
    """Per clip, softmax(e / tau) over its valid rows times their count, with
    logits clipped to [-20, 20]; e and valid are [B, K] and padded rows get
    weight 0. Returned detached."""
    e_data = e.data if isinstance(e, Tensor) else np.asarray(e, dtype=np.float64)
    if tau <= 0.0:
        raise ValueError(f"hard-weight temperature must be positive, got {tau}")
    valid = _valid_rows(e_data.shape, valid)
    s = np.clip(e_data * (1.0 / float(tau)), -20.0, 20.0)
    s[~valid] = -np.inf
    s -= np.max(s, axis=1, keepdims=True)
    w = np.exp(s)
    w /= np.sum(w, axis=1, keepdims=True)
    w *= valid.sum(axis=1, keepdims=True)
    return Tensor(w)


def hw_jepa_loss(e: Tensor, tau: float = 1.0, weights=None,
                 valid: np.ndarray | None = None) -> Tensor:
    """Hard-weighted mean of per-token errors e [B, K] (weights constant).

    Serves both the predictor's errors (``hw_jepa``) and the dynamics
    head's errors (``ld_hw``).
    """
    valid = _valid_rows(e.shape, valid)
    if weights is None:
        weights = hard_weights(e, tau, valid)
    w_data = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    return _weighted_rows(e, w_data, valid)


def ac_targets(clip: VideoClip, patch: int, tubelet: int) -> np.ndarray:
    """Patch-mean pixel change between consecutive frame blocks, [M, C]."""
    t, h, w, c = clip.shape
    if t % tubelet or h % patch or w % patch:
        raise ValueError("clip not divisible by patch/tubelet")
    tp, gh, gw = t // tubelet, h // patch, w // patch
    pixels = clip.pixels.astype(np.float64, copy=False)
    block_mean = pixels.reshape(tp, tubelet, h, w, c).mean(axis=1)
    d = np.diff(block_mean, axis=0)  # [tp-1, H, W, C]
    per_patch = d.reshape(tp - 1, gh, patch, gw, patch, c).mean(axis=(2, 4))
    return per_patch.reshape((tp - 1) * gh * gw, c)


def ac_loss(heads: HeadParams, z: Tensor, clips: list[VideoClip], patch: int,
            tubelet: int, fwm: bool = False, app_ratio: float = 0.5) -> Tensor:
    """L1 between the action head and per-patch frame-difference targets."""
    pred = action_head(heads, _transition_inputs(z, fwm, app_ratio))
    targets = np.stack([ac_targets(c, patch, tubelet) for c in clips]).reshape(pred.shape)
    return per_token_errors(pred, targets).mean()


# -- composition ---------------------------------------------------------


@dataclass
class LossBundle:
    """Per-component scalars plus the weighted total for one step/batch."""

    components: dict[str, float]
    total: float
    total_node: Tensor | None = None

    def validate(self, cfg: RunConfig, step: int = 0) -> "LossBundle":
        for name, val in self.components.items():
            if name not in PART_WEIGHTS:
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


def component_weight(cfg: RunConfig, name: str, step: int = 0) -> float:
    weight = PART_WEIGHTS[name]
    lam = 1.0 if weight is None else getattr(cfg, weight)
    if name == "kin" and VARIANTS[cfg.variant].kin_kind == "anneal":
        lam *= anneal_coeff(step, cfg.anneal_horizon)
    return lam


def compose_total(cfg: RunConfig, parts: dict[str, Tensor], step: int = 0) -> LossBundle:
    """Weighted sum per the variant's recipe; part set must match exactly."""
    required = {"jepa"} | VARIANTS[cfg.variant].components
    missing = required - parts.keys()
    if missing:
        raise ValueError(f"variant '{cfg.variant}' requires part '{sorted(missing)[0]}'")
    extra = parts.keys() - required
    if extra:
        raise ValueError(f"variant '{cfg.variant}' does not use part '{sorted(extra)[0]}'")
    total = None
    comp: dict[str, float] = {}
    for name in PART_WEIGHTS:
        if name not in parts:
            continue
        node = parts[name]
        comp[name] = float(node.item())
        term = node * component_weight(cfg, name, step)
        total = term if total is None else total + term
    bundle = LossBundle(components=comp, total=float(total.item()), total_node=total)
    return bundle.validate(cfg, step)
