"""Oracles the tests compare run code against; no ``lab`` command reaches them.

- A radix-2 / direct temporal DFT, written out from scratch: the independent
  route for ``objectives.spectral_loss``'s matrix form and for criterion 10.
  Power-of-two lengths go through an iterative radix-2 butterfly; anything
  else falls back to the direct O(T^2) sum. Forward is unnormalized, the
  inverse divides by T, so round trips are identity up to float error.
- The composed softmax graph, built from elementwise ``Tensor._node`` ops:
  the bit-for-bit oracle for the probes' fused nodes
  (``probing.attentive_pool`` and ``probing.cross_entropy``).
- The composed transformer block, twelve graph nodes per block
  (``layer_norm``, four ``linear``, ``attention_core``, ``Tensor.gelu`` and
  two residual adds): the bit-for-bit oracle for ``model.block``.
- The probe on whole feature arrays: one [n, tokens, dim] buffer of every
  clip's latents (``token_features``), numpy's mean and std over its joined
  rows (``standardize_stats``), the fit on one standardized copy of all the
  features, prediction on one standardized copy, and ``evaluate`` built from
  them: the bit-for-bit oracle for ``probing``, which streams its features
  one encode chunk at a time and standardizes each chunk once, in place.
- The spatial mask pattern as a rejection loop of live ``Generator`` calls,
  an array per try and ``rng.choice``'s categorical draw through a CDF
  (``loop_spatial_pattern``, ``categorical_sampler``): the bit-for-bit
  oracle for ``masking._draw_spatial_pattern``, which replays the same draws
  from raw PCG64 words, and for the generator state it leaves.
"""

from __future__ import annotations

import math

import numpy as np

from vjlab.masking import _MAX_TRIES, feasible_counts
from vjlab.model import _ATTN_CLIP, Block, encode, layer_norm, linear
from vjlab.probing import (FEATURE_CHUNK, EvalReport, _nll, _one_hot, apply_standardize,
                           init_probe, probe_logits)
from vjlab.synth import MotionClass
from vjlab.tensor import Tensor, matmul, no_grad
from vjlab.training import descend, init_opt


# -- temporal DFT --------------------------------------------------------

def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _fft_radix2(x: np.ndarray, sign: float) -> np.ndarray:
    """Iterative Cooley-Tukey along the last axis of a complex array."""
    n = x.shape[-1]
    y = x[..., _bit_reverse_permutation(n)].copy()
    span = 1
    while span < n:
        half = span
        span *= 2
        # twiddle factors for this stage
        k = np.arange(half)
        w = np.exp(sign * 2j * np.pi * k / span)
        y = y.reshape(y.shape[:-1] + (n // span, span))
        even = y[..., :half]
        odd = y[..., half:] * w
        y = np.concatenate([even + odd, even - odd], axis=-1)
        y = y.reshape(y.shape[:-2] + (n,))
    return y


def _dft_direct(x: np.ndarray, sign: float) -> np.ndarray:
    n = x.shape[-1]
    t = np.arange(n)
    mat = np.exp(sign * 2j * np.pi * np.outer(t, t) / n)
    return x @ mat


def fft_time(x, axis: int = 0) -> np.ndarray:
    """Unnormalized DFT of real data along ``axis`` (moved to the last axis),
    as a complex128 array."""
    data = np.asarray(x, dtype=np.float64)
    if data.shape[axis] < 1:
        raise ValueError("fft_time needs a non-empty transform axis")
    moved = np.moveaxis(data, axis, -1).astype(np.complex128)
    n = moved.shape[-1]
    return _fft_radix2(moved, -1.0) if _is_pow2(n) else _dft_direct(moved, -1.0)


def ifft_time(z: np.ndarray) -> np.ndarray:
    """Inverse of fft_time along the last axis of a complex array; returns
    the real part."""
    n = z.shape[-1]
    out = _fft_radix2(z, 1.0) if _is_pow2(n) else _dft_direct(z, 1.0)
    return (out / n).real


# -- composed softmax ----------------------------------------------------

def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("exp overflow; clamp inputs first")
    return Tensor._node(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive inputs")
    return Tensor._node(np.log(a.data), (a,), lambda g: (g / a.data,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ValueError(f"clamp needs lo < hi, got [{lo}, {hi}]")
    mask = ((a.data >= lo) & (a.data <= hi)).astype(np.float64)
    return Tensor._node(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def softmax(logits: Tensor, temperature: float = 1.0, clip: tuple[float, float] = (-20.0, 20.0),
            axis: int = -1) -> Tensor:
    """Temperature-scaled softmax; logits clamped to ``clip`` before exp.

    Max-subtraction keeps exp in range; the shift is data-derived but
    constant, which leaves the gradient exact (softmax is shift invariant).
    """
    if temperature <= 0.0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    s = logits * (1.0 / float(temperature))
    s = clamp(s, float(clip[0]), float(clip[1]))
    shift = Tensor(np.max(s.data, axis=axis, keepdims=True))
    e = exp(s - shift.broadcast_to(s.shape)) if shift.size > 1 else exp(s - shift)
    denom = e.sum(axis=axis, keepdims=True)
    if denom.size > 1:
        denom = denom.broadcast_to(e.shape)
    return e / denom


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(np.max(logits.data, axis=axis, keepdims=True))
    s = logits - (shift.broadcast_to(logits.shape) if shift.size > 1 else shift)
    lse = log(exp(s).sum(axis=axis, keepdims=True))
    if lse.size > 1:
        lse = lse.broadcast_to(s.shape)
    return s - lse


def composed_pool(x: Tensor, query: Tensor) -> Tensor:
    """The tensor-op graph attentive_pool fuses: the oracle for its bytes."""
    n, k, d = x.shape
    scores = matmul(x.reshape(n * k, d), query.reshape(d, 1))
    attn = softmax(scores.reshape(n, k) * (1.0 / np.sqrt(d)), axis=-1)
    return (attn.reshape(n, k, 1).broadcast_to((n, k, d)) * x).sum(axis=1)


def composed_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """The tensor-op graph cross_entropy fuses: the oracle for its bytes."""
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return (log_softmax(logits) * Tensor(onehot)).sum() * (-1.0 / n)


# -- composed transformer block ------------------------------------------

def attention_core(q: Tensor, k: Tensor, v: Tensor, heads: int, valid: np.ndarray) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(dh)) v over [B, N, d] inputs, one graph
    node computed as [B, H, N, dh] batched matmuls.

    ``valid`` [B, N] marks the real tokens of each sequence. A padded key's
    score becomes -inf, so it gets weight exactly 0 and no gradient, and the
    max shift runs over valid keys only. Scores are clipped to ``_ATTN_CLIP``
    before the softmax; a clipped score passes no gradient back to q or k.
    """
    bsz, n, d = q.shape
    keys = np.asarray(valid, dtype=bool)
    if keys.shape != (bsz, n) or not keys.any(axis=1).all():
        raise ValueError(f"attention needs a [{bsz}, {n}] key mask with a valid key per row")
    keys = keys[:, None, None, :]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(t: np.ndarray) -> np.ndarray:
        return t.reshape(bsz, n, heads, dh).transpose(0, 2, 1, 3)  # [B, H, N, dh]

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = qh @ kh.swapaxes(-1, -2)
    s *= scale
    inside = (s >= _ATTN_CLIP[0]) & (s <= _ATTN_CLIP[1]) & keys
    np.clip(s, *_ATTN_CLIP, out=s)
    np.copyto(s, -np.inf, where=~keys)
    s -= np.max(s, axis=-1, keepdims=True)
    p = np.exp(s, out=s)
    p /= np.sum(p, axis=-1, keepdims=True)

    def merge(t: np.ndarray) -> np.ndarray:
        return t.transpose(0, 2, 1, 3).reshape(bsz, n, d)

    def vjp(g):
        gh = split(g)
        gs = gh @ vh.swapaxes(-1, -2)
        gs -= np.sum(gs * p, axis=-1, keepdims=True)
        gs *= p
        gs *= inside
        gs *= scale
        return merge(gs @ kh), merge(gs.swapaxes(-1, -2) @ qh), merge(p.swapaxes(-1, -2) @ gh)

    return Tensor._node(merge(p @ vh), (q, k, v), vjp)


def composed_attention(blk: Block, x: Tensor, heads: int, valid: np.ndarray) -> Tensor:
    q = linear(x, blk.wq, blk.bq)
    k = linear(x, blk.wk, blk.bk)
    v = linear(x, blk.wv, blk.bv)
    return linear(attention_core(q, k, v, heads, valid), blk.wo, blk.bo)


def composed_block(blk: Block, x: Tensor, heads: int, valid: np.ndarray) -> Tensor:
    """The graph ``model.block`` fuses: the oracle for its bytes."""
    x = x + composed_attention(blk, layer_norm(x, blk.ln1_g, blk.ln1_b), heads, valid)
    return x + linear(linear(layer_norm(x, blk.ln2_g, blk.ln2_b), blk.w1, blk.b1).gelu(),
                      blk.w2, blk.b2)


# -- the probe on whole feature arrays ------------------------------------

def token_features(encoder, clips) -> np.ndarray:
    """Full-grid latents per clip, [n_clips, n_tokens, dim], no gradients:
    ``FEATURE_CHUNK`` clips are encoded at a time and each chunk's latents
    are copied into one output buffer allocated at the first chunk."""
    feats = None
    with no_grad():
        for lo in range(0, len(clips), FEATURE_CHUNK):
            latents, _ = encode(encoder, clips[lo:lo + FEATURE_CHUNK])
            if feats is None:
                feats = np.empty((len(clips),) + latents.data.shape[1:])
            feats[lo:lo + len(latents.data)] = latents.data
    return feats


def standardize_stats(feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over every row (and token, if present); dead
    channels (std below 1e-8) pass through unscaled."""
    flat = feats.reshape(-1, feats.shape[-1])
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    return mean, std


def train_probe_on_copy(feats: np.ndarray, labels: np.ndarray, n_classes: int,
                        kind: str = "linear", epochs: int = 50, batch_size: int = 16,
                        lr: float = 1e-3, seed: int = 0):
    """``probing.train_probe`` as it was when it standardized all its features
    once, into a second feature-sized buffer, and indexed each minibatch from
    it; ``feats`` is left as it was."""
    labels = np.asarray(labels)
    n = feats.shape[0]
    onehot = _one_hot(labels, n, n_classes)
    mean, std = standardize_stats(feats)
    x = apply_standardize(feats, mean, std)
    probe = init_probe(kind, feats.shape[-1], n_classes, np.random.default_rng([seed, 0]),
                       mean, std)
    params = probe.named()
    opt = init_opt(params)
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 1 + epoch]).permutation(n)
        for lo in range(0, n, batch_size):
            sel = order[lo:lo + batch_size]
            descend(params, _nll(probe_logits(probe, x[sel]), onehot[sel]), opt, lr, 0.0)
    return probe


def predict_on_copy(probe, feats: np.ndarray) -> np.ndarray:
    """``probing.predict`` on one standardized copy of all the features."""
    x = apply_standardize(feats, probe.feat_mean, probe.feat_std)
    with no_grad():
        logits = probe_logits(probe, x).data
    return np.argmax(logits, axis=1)


def evaluate_whole(encoder, cfg, train_ds, test_ds, seed: int | None = None) -> EvalReport:
    """``probing.evaluate`` on whole feature arrays."""
    seed = cfg.seed if seed is None else seed

    def features(ds):
        feats = token_features(encoder, ds.clips)
        return (feats.mean(axis=1) if cfg.probe_kind == "linear" else feats,
                np.array([c.label for c in ds.clips]))

    train_x, train_y = features(train_ds)
    probe = train_probe_on_copy(train_x, train_y, len(MotionClass), kind=cfg.probe_kind,
                                epochs=cfg.probe_epochs, batch_size=cfg.probe_batch,
                                lr=cfg.probe_lr, seed=seed)
    test_x, test_y = features(test_ds)
    preds = predict_on_copy(probe, test_x)
    per_class = {m.name.lower(): float(np.mean(preds[test_y == int(m)] == int(m)))
                 for m in MotionClass if (test_y == int(m)).any()}
    return EvalReport(variant=cfg.variant, kind=cfg.probe_kind,
                      accuracy=float(np.mean(preds == test_y)), n_train=len(train_y),
                      n_test=len(test_y), per_class=per_class)


# -- spatial mask pattern ------------------------------------------------

def categorical_sampler(probs: np.ndarray, rng: np.random.Generator):
    """``lambda: int(rng.choice(len(probs), p=probs))`` with ``probs`` checked
    and its CDF built once: each call draws the same single double as choice."""
    rng.choice(len(probs), size=0, p=probs)  # choice's own checks of p; draws nothing
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return lambda: int(cdf.searchsorted(rng.random(), side="right"))


def loop_spatial_pattern(gh: int, gw: int, mask_ratio: float, rng: np.random.Generator,
                         probs: np.ndarray | None) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Union of 1-4 rectangles, retried until the covered fraction fits, each
    draw a call on ``rng``."""
    n_spatial = gh * gw
    lo, hi = feasible_counts(n_spatial, mask_ratio)
    guided = None if probs is None else categorical_sampler(probs, rng)
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
