"""Token masks: one sampler for tube, motion-guided and future-predictive masks.

`sample_mask` places 1-4 rectangular spatial blocks by drawing block centers
from a categorical distribution over patches (uniform, or softmax of
scaled motion energy) and extruding across temporal blocks. A draw is
retried until the achieved target fraction lands within +-10% (relative)
of the requested ratio, so uniform and guided sampling differ only in the
center distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .synth import VideoClip

_MAX_TRIES = 1000


@dataclass
class MotionEnergy:
    """Per-patch motion scores, normalized so the max is 1 (or all zero)."""

    scores: np.ndarray  # [gh, gw]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2:
            raise ValueError(f"energy grid must be 2-d, got {self.scores.shape}")
        if np.any(self.scores < 0.0):
            raise ValueError("energy scores must be non-negative")
        peak = self.scores.max() if self.scores.size else 0.0
        if peak > 0.0 and abs(peak - 1.0) > 1e-9:
            raise ValueError("nonzero energy must be normalized to max 1")


@dataclass
class MaskSpec:
    """Visible/target split over the token grid [T', gh, gw].

    Temporally constrained masks can leave tokens in neither set, so the
    visible array is stored explicitly rather than derived.
    """

    target: np.ndarray
    visible: np.ndarray
    distance_weight: np.ndarray = field(default_factory=lambda: np.zeros(0))
    centers: list[tuple[int, int]] = field(default_factory=list)
    used_fallback: bool = False

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=bool)
        self.visible = np.asarray(self.visible, dtype=bool)

    @property
    def grid(self) -> tuple[int, int, int]:
        return self.target.shape  # type: ignore[return-value]

    @property
    def n_targets(self) -> int:
        return int(self.target.sum())

    @property
    def target_indices(self) -> np.ndarray:
        return np.flatnonzero(self.target.reshape(-1))

    def validate(self) -> "MaskSpec":
        if self.target.shape != self.visible.shape or self.target.ndim != 3:
            raise ValueError(
                f"bad mask arrays: target {self.target.shape}, visible {self.visible.shape}"
            )
        if not self.visible.any():
            raise ValueError("mask leaves no visible token")
        if not self.target.any():
            raise ValueError("mask selects no target token")
        if np.any(self.target & self.visible):
            raise ValueError("token marked both visible and target")
        k = self.n_targets
        if self.distance_weight.shape != (k,):
            raise ValueError(
                f"distance weights shape {self.distance_weight.shape}, expected ({k},)"
            )
        if np.any(self.distance_weight <= 0.0):
            raise ValueError("distance weights must be positive")
        if abs(self.distance_weight.mean() - 1.0) > 1e-9:
            raise ValueError("distance weights must average to 1")
        return self


def motion_energy(clip: VideoClip, patch: int) -> MotionEnergy:
    """Mean |frame difference| per patch, normalized by the clip maximum."""
    t, h, w, _ = clip.shape
    if h % patch or w % patch:
        raise ValueError(f"frame {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    if t < 2:
        return MotionEnergy(scores=np.zeros((gh, gw)))
    pixels = clip.pixels.astype(np.float64, copy=False)
    diff = np.abs(np.diff(pixels, axis=0)).mean(axis=(0, 3))  # [H, W]
    per_patch = diff.reshape(gh, patch, gw, patch).mean(axis=(1, 3))
    peak = per_patch.max()
    if peak > 0.0:
        per_patch = per_patch / peak
    return MotionEnergy(scores=per_patch)


def distance_weights(visible: np.ndarray, target: np.ndarray) -> np.ndarray:
    """w = 1/(1+d), d = Chebyshev distance to the nearest visible token in
    the same temporal block (full 3-d distance when that block has none),
    normalized to mean 1 over targets."""
    _, gh, gw = target.shape
    vis_all = np.argwhere(visible)  # rows of (t, r, c)
    if vis_all.size == 0:
        raise ValueError("no visible tokens to measure distance against")
    gap = np.abs(np.argwhere(target)[:, None, :] - vis_all[None, :, :])  # [K, V, 3]
    same_block = gap[:, :, 0] == 0
    far = max(gh, gw)  # beyond any in-block distance
    in_block = np.where(same_block, gap[:, :, 1:].max(axis=2), far).min(axis=1)
    anywhere = gap.max(axis=2).min(axis=1)
    d = np.where(same_block.any(axis=1), in_block, anywhere)
    raw = 1.0 / (1.0 + d.astype(np.float64))
    return raw / raw.mean()


def feasible_counts(n_spatial: int, mask_ratio: float) -> tuple[float, float]:
    """(lo, hi): the spatial target counts within 10% of ``mask_ratio``."""
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError(f"mask_ratio must be in (0, 1), got {mask_ratio}")
    tol = 0.1 * mask_ratio
    lo = max(1, math.ceil((mask_ratio - tol) * n_spatial - 1e-12))
    hi = min(n_spatial - 1, math.floor((mask_ratio + tol) * n_spatial + 1e-12))
    if lo > hi:
        raise ValueError(
            f"grid of {n_spatial} spatial tokens cannot hit ratio {mask_ratio} within 10%"
        )
    return lo, hi


def _categorical_sampler(probs: np.ndarray, rng: np.random.Generator):
    """``lambda: int(rng.choice(len(probs), p=probs))`` with ``probs`` checked
    and its CDF built once: each call draws the same single double as choice."""
    rng.choice(len(probs), size=0, p=probs)  # choice's own checks of p; draws nothing
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return lambda: int(cdf.searchsorted(rng.random(), side="right"))


def _draw_spatial_pattern(gh: int, gw: int, mask_ratio: float,
                          rng: np.random.Generator,
                          probs: np.ndarray | None) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Union of 1-4 rectangles; retried until the covered fraction fits."""
    n_spatial = gh * gw
    lo, hi = feasible_counts(n_spatial, mask_ratio)
    guided = None if probs is None else _categorical_sampler(probs, rng)
    max_h = max(1, math.ceil(gh * 0.75))
    max_w = max(1, math.ceil(gw * 0.75))
    for _ in range(_MAX_TRIES):
        pattern = np.zeros((gh, gw), dtype=bool)
        centers: list[tuple[int, int]] = []
        n_blocks = int(rng.integers(1, 5))
        for _ in range(n_blocks):
            flat = int(rng.integers(0, n_spatial)) if guided is None else guided()
            cr, cc = divmod(flat, gw)
            centers.append((cr, cc))
            bh = int(rng.integers(1, max_h + 1))
            bw = int(rng.integers(1, max_w + 1))
            r0 = min(max(cr - bh // 2, 0), gh - bh)
            c0 = min(max(cc - bw // 2, 0), gw - bw)
            pattern[r0:r0 + bh, c0:c0 + bw] = True
        if lo <= pattern.sum() <= hi:
            return pattern, centers
    raise RuntimeError(f"no admissible mask after {_MAX_TRIES} tries")


def _energy_probs(energy: MotionEnergy, grid_hw: tuple[int, int], alpha: float) -> np.ndarray:
    if energy.scores.shape != grid_hw:
        raise ValueError(f"energy grid {energy.scores.shape} does not match mask grid {grid_hw}")
    logits = np.clip(alpha * energy.scores.reshape(-1), -20.0, 20.0)
    logits = logits - logits.max()
    e = np.exp(logits)
    return e / e.sum()


def sample_mask(grid: tuple[int, int, int], mask_ratio: float, rng: np.random.Generator,
                max_temporal_keep: float = 1.0, full_complement: bool = False,
                energy: MotionEnergy | None = None, alpha: float = 0.0,
                fallback_rate: float = 0.0) -> MaskSpec:
    """The one mask sampler; its defaults give a tube mask.

    A spatial pattern is the target in every temporal block, and its
    complement is visible in the leading ``max_temporal_keep`` share of the
    blocks only. With full_complement every non-visible token is a target;
    otherwise late-block tokens outside the pattern belong to neither set.
    Given an ``energy``, block centers ~ softmax(alpha * energy), falling back
    to uniform centers at ``fallback_rate``; zero energy (images, static
    clips) degrades to uniform.
    """
    if not 0.0 < max_temporal_keep <= 1.0:
        raise ValueError(f"max_temporal_keep must be in (0, 1], got {max_temporal_keep}")
    if not 0.0 <= fallback_rate <= 1.0:
        raise ValueError(f"fallback rate must be in [0, 1], got {fallback_rate}")
    t_blocks, gh, gw = grid
    keep = math.ceil(max_temporal_keep * t_blocks)
    used_fallback = energy is not None and rng.random() < fallback_rate
    probs = None if energy is None or used_fallback else _energy_probs(energy, (gh, gw), alpha)
    pattern, centers = _draw_spatial_pattern(gh, gw, mask_ratio, rng, probs=probs)

    visible = np.zeros((t_blocks, gh, gw), dtype=bool)
    visible[:keep] = ~pattern
    if full_complement:
        target = ~visible
    else:
        target = np.broadcast_to(pattern, (t_blocks, gh, gw)).copy()
    return MaskSpec(target=target, visible=visible,
                    distance_weight=distance_weights(visible, target),
                    centers=centers, used_fallback=used_fallback).validate()
