"""Token masks: one sampler for tube, motion-guided and future-predictive masks.

`sample_mask` places 1-4 rectangular spatial blocks by drawing block centers
from a categorical distribution over patches (uniform, or softmax of
scaled motion energy) and extruding across temporal blocks. A draw is
retried until the achieved target fraction lands within +-10% (relative)
of the requested ratio, so uniform and guided sampling differ only in the
center distribution.

The spatial draws are replayed in Python from a block of the generator's raw
PCG64 words (``_Draws``), value for value and state for state what the
``Generator.integers`` / ``random`` calls of a plain rejection loop would
give; a pattern is an integer bitmask, so a try costs a few integer
operations and no array.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache

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
        if not np.isfinite(self.scores).all():  # a NaN passes both tests below
            raise ValueError("energy scores must be finite")
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
        if not np.isfinite(self.distance_weight).all():  # a NaN passes both tests below
            raise ValueError("distance weights must be finite")
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


_WORD_BLOCK = 64  # raw words drawn at a time; a 4x4 tube mask at ratio 0.5 uses about 50


class _Draws:
    """``Generator.integers(0, n)`` and ``random()`` of a PCG64 generator,
    replayed in Python from its raw 64-bit words.

    The words are drawn in blocks from the generator, after a copy of its
    state is taken; ``commit`` puts that state back and advances it past the
    words used, to the state the same calls would have left. A 32-bit draw
    takes the low half of a word and buffers the high half for the next one
    (``has_uint32`` / ``uinteger``); ``random`` takes a whole word and
    leaves a buffered half in place.
    """

    def __init__(self, rng: np.random.Generator):
        self.live = rng.bit_generator
        if not isinstance(self.live, np.random.PCG64):
            raise TypeError(f"mask draws replay PCG64 words, not {type(self.live).__name__}")
        self.start = self.live.state
        self.has_uint32, self.uinteger = self.start["has_uint32"], self.start["uinteger"]
        self.words: list[int] = []
        self.used = 0

    def word(self) -> int:
        try:
            word = self.words[self.used]
        except IndexError:
            self.words += self.live.random_raw(_WORD_BLOCK).tolist()
            word = self.words[self.used]
        self.used += 1
        return word

    def below(self, n: int) -> int:
        """``integers(0, n)`` for 1 <= n < 2**32: Lemire's bounded method
        (arXiv:1805.10941) on 32-bit draws, a draw rejected while the low
        half of its product with n lies below (2**32 - n) % n. A width of 1
        draws nothing."""
        if n == 1:
            return 0
        while True:
            if self.has_uint32:
                self.has_uint32 = 0
                m = self.uinteger * n  # the uinteger stays in the state, stale, as numpy leaves it
            else:
                word = self.word()
                self.has_uint32, self.uinteger = 1, word >> 32
                m = (word & 0xFFFFFFFF) * n
            low = m & 0xFFFFFFFF
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32

    def random(self) -> float:
        return (self.word() >> 11) * 2.0 ** -53

    def commit(self) -> None:
        self.live.state = self.start
        self.live.advance(self.used)  # which clears the buffered half
        state = self.live.state
        state["has_uint32"], state["uinteger"] = self.has_uint32, self.uinteger
        self.live.state = state


@cache
def _block_masks(gh: int, gw: int) -> tuple[list[list[int]], list[list[int]]]:
    """(rows, cols): rows[bh - 1][cr] is the bitmask of the grid rows that a
    block of height bh centred on row cr covers, cols[bw - 1][cc] that of its
    columns; a block is ``rows & cols``. Bit r * gw + c is token (r, c)."""
    def starts(n: int, size: int):
        return [min(max(centre - size // 2, 0), n - size) for centre in range(n)]

    row = (1 << gw) - 1
    column = sum(1 << (r * gw) for r in range(gh))
    rows = [[sum(row << (r * gw) for r in range(r0, r0 + bh)) for r0 in starts(gh, bh)]
            for bh in range(1, max(1, math.ceil(gh * 0.75)) + 1)]
    cols = [[sum(column << c for c in range(c0, c0 + bw)) for c0 in starts(gw, bw)]
            for bw in range(1, max(1, math.ceil(gw * 0.75)) + 1)]
    return rows, cols


def _draw_spatial_pattern(gh: int, gw: int, mask_ratio: float,
                          rng: np.random.Generator,
                          probs: np.ndarray | None) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Union of 1-4 rectangles; retried until the covered fraction fits.

    Each try draws, from ``rng`` in this order, the block count
    ``integers(1, 5)``, then per block its centre (``integers(0, gh * gw)``,
    or, given ``probs``, one ``random()`` bisected into their CDF, draw for
    draw ``rng.choice(gh * gw, p=probs)``), height ``integers(1, max_h + 1)``
    and width ``integers(1, max_w + 1)``.
    """
    n_spatial = gh * gw
    lo, hi = feasible_counts(n_spatial, mask_ratio)
    cdf = None
    if probs is not None:
        rng.choice(len(probs), size=0, p=probs)  # choice's own checks of p; draws nothing
        cdf = probs.cumsum()
        cdf = (cdf / cdf[-1]).tolist()
    rows, cols = _block_masks(gh, gw)
    max_h, max_w = len(rows), len(cols)
    draws = _Draws(rng)
    below, random = draws.below, draws.random
    for _ in range(_MAX_TRIES):
        pattern = 0
        centers: list[tuple[int, int]] = []
        for _ in range(1 + below(4)):
            flat = below(n_spatial) if cdf is None else bisect_right(cdf, random())
            cr, cc = divmod(flat, gw)
            centers.append((cr, cc))
            block_rows = rows[below(max_h)][cr]
            pattern |= block_rows & cols[below(max_w)][cc]
        if lo <= pattern.bit_count() <= hi:
            draws.commit()
            bits = np.frombuffer(pattern.to_bytes((n_spatial + 7) // 8, "little"), np.uint8)
            return (np.unpackbits(bits, count=n_spatial, bitorder="little")
                    .astype(bool).reshape(gh, gw)), centers
    draws.commit()
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
