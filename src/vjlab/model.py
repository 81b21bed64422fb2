"""Token encoder, masked predictor, auxiliary heads, EMA, checkpoints.

The encoder is a small pre-norm transformer over tubelet-patch tokens with
fixed sinusoidal position codes. Clips and single-frame images share the
transformer trunk; images enter through their own tubelet-1 embedding.
Encoder, predictor and teacher run once per batch on [B, N, dim] token
slabs. Masked encoding still drops non-visible tokens, so attention can only
ever mix visible content; clips with fewer visible tokens are padded to the
batch maximum, and padding never gets attention weight. Each transformer
block is one graph node (``block``) whose hand-written VJP keeps only what it
reads and cannot cheaply rebuild, and recomputes the layer-norm outputs, the
q/k/v projections, the attention output and the GELU output; its composed
twelve-node graph lives in the tests' ``oracles.py``, which it matches bit
for bit. The array kernels below (``_affine``, ``_norm``, ``_attend`` and
their VJPs) serve ``linear``, ``layer_norm`` and ``block`` alike. Parameters
carry the run's `config.RunConfig`, which fixes their geometry; a
parameter's checkpoint record name is its field path (``Params.named``).
"""

from __future__ import annotations

import copy
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import VARIANTS, RunConfig, app_width
from .masking import MaskSpec
from .synth import VideoClip
from .tensor import Tensor, concat, gelu_cdf, gelu_slope, grad_enabled, no_grad

LN_EPS = 1e-5
INIT_SCALE = 0.02
_ATTN_CLIP = (-30.0, 30.0)


# -- parameters ----------------------------------------------------------


class Params:
    """A dataclass of parameters whose record names are its field paths.

    ``named`` walks the fields in order: a Tensor field is ``prefix.field``,
    a list of blocks is ``prefix.block{i}.*`` and a nested ``Params`` goes
    under its own ``PREFIX``. Other fields (the config, plain arrays) and
    absent heads hold no record. These names are what AdamW steps, the EMA
    teacher follows and a checkpoint stores.
    """

    PREFIX = ""

    def named(self, prefix: str | None = None) -> dict[str, Tensor]:
        prefix = self.PREFIX if prefix is None else prefix
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, Tensor):
                out[f"{prefix}.{name}"] = value
            elif isinstance(value, Params):
                out.update(value.named(f"{prefix}.{value.PREFIX}"))
            elif isinstance(value, list):
                for i, blk in enumerate(value):
                    out.update(blk.named(f"{prefix}.block{i}"))
        return out


@dataclass
class Block(Params):
    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def _normal(rng: np.random.Generator, *shape: int) -> Tensor:
    """A trainable tensor drawn from N(0, INIT_SCALE^2). The initializers
    below draw in keyword order, so that order is the RNG draw order."""
    return Tensor(rng.standard_normal(shape) * INIT_SCALE, requires_grad=True)


def _full(value: float, *shape: int) -> Tensor:
    """A trainable tensor holding ``value`` everywhere."""
    return Tensor(np.full(shape, value, dtype=np.float64), requires_grad=True)


def _init_block(rng: np.random.Generator, dim: int, ff: int) -> Block:
    return Block(
        ln1_g=_full(1.0, dim), ln1_b=_full(0.0, dim),
        wq=_normal(rng, dim, dim), bq=_full(0.0, dim),
        wk=_normal(rng, dim, dim), bk=_full(0.0, dim),
        wv=_normal(rng, dim, dim), bv=_full(0.0, dim),
        wo=_normal(rng, dim, dim), bo=_full(0.0, dim),
        ln2_g=_full(1.0, dim), ln2_b=_full(0.0, dim),
        w1=_normal(rng, dim, ff), b1=_full(0.0, ff),
        w2=_normal(rng, ff, dim), b2=_full(0.0, dim),
    )


@dataclass
class EncoderParams(Params):
    PREFIX = "enc"
    cfg: RunConfig
    embed_w: Tensor
    embed_b: Tensor
    embed_img_w: Tensor
    embed_img_b: Tensor
    blocks: list[Block]
    ln_g: Tensor
    ln_b: Tensor


@dataclass
class PredictorParams(Params):
    PREFIX = "pred"
    cfg: RunConfig
    mask_token: Tensor
    blocks: list[Block]
    ln_g: Tensor
    ln_b: Tensor
    out_w: Tensor
    out_b: Tensor


@dataclass
class HamiltonianParams(Params):
    """Scalar energy net: two-layer tanh MLP plus a learned diagonal
    quadratic term, so hand-set kinetic-energy forms are representable."""

    PREFIX = "ham"
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    quad: Tensor


@dataclass
class HeadParams(Params):
    PREFIX = "heads"
    predictor: PredictorParams
    dyn_w1: Tensor
    dyn_b1: Tensor
    dyn_w2: Tensor
    dyn_b2: Tensor
    act_w: Tensor
    act_b: Tensor
    ham: HamiltonianParams | None = None


def init_encoder(cfg: RunConfig, rng: np.random.Generator) -> EncoderParams:
    p_vid = cfg.tubelet * cfg.patch * cfg.patch * cfg.channels
    p_img = cfg.patch * cfg.patch * cfg.channels
    return EncoderParams(
        cfg=cfg,
        embed_w=_normal(rng, p_vid, cfg.dim),
        embed_b=_full(0.0, cfg.dim),
        embed_img_w=_normal(rng, p_img, cfg.dim),
        embed_img_b=_full(0.0, cfg.dim),
        blocks=[_init_block(rng, cfg.dim, cfg.ff) for _ in range(cfg.layers)],
        ln_g=_full(1.0, cfg.dim),
        ln_b=_full(0.0, cfg.dim),
    )


def init_heads(cfg: RunConfig, rng: np.random.Generator) -> HeadParams:
    """The predictor and the auxiliary heads of ``cfg.variant``. Under FWM the
    dynamics and action heads read only the dynamics channels; the energy
    net exists only for a variant with a ``ham`` part."""
    spec = VARIANTS[cfg.variant]
    d = cfg.dim
    head_in = d - app_width(cfg.app_ratio, d) if spec.fwm else d
    pred = PredictorParams(
        cfg=cfg,
        mask_token=_normal(rng, d),
        blocks=[_init_block(rng, d, cfg.ff) for _ in range(cfg.pred_layers)],
        ln_g=_full(1.0, d),
        ln_b=_full(0.0, d),
        out_w=_normal(rng, d, d),
        out_b=_full(0.0, d),
    )
    ham = None
    if "ham" in spec.components:
        ham = HamiltonianParams(
            w1=_normal(rng, d, cfg.ham_hidden),
            b1=_full(0.0, cfg.ham_hidden),
            w2=_normal(rng, cfg.ham_hidden),
            b2=_full(0.0, 1),
            quad=_full(0.0, d),
        )
    return HeadParams(
        predictor=pred,
        dyn_w1=_normal(rng, head_in, cfg.dyn_hidden),
        dyn_b1=_full(0.0, cfg.dyn_hidden),
        dyn_w2=_normal(rng, cfg.dyn_hidden, d),
        dyn_b2=_full(0.0, d),
        act_w=_normal(rng, head_in, cfg.channels),
        act_b=_full(0.0, cfg.channels),
        ham=ham,
    )


def clone_frozen(params: EncoderParams) -> EncoderParams:
    """Value copy with gradients off; the teacher starts equal to the student
    and shares its config."""
    frozen = copy.deepcopy(params, {id(params.cfg): params.cfg})
    for t in frozen.named().values():
        t.requires_grad, t.grad, t.grad_slot = False, None, None
    return frozen


def flat_views(named: dict[str, Tensor | np.ndarray], flat: np.ndarray) -> dict[str, np.ndarray]:
    """A view into ``flat`` per name, shaped like its tensor (or array), in
    the layout that ``flatten`` gives ``named``: one after another, in order."""
    views, at = {}, 0
    for name, t in named.items():
        views[name] = flat[at:at + t.size].reshape(t.shape)
        at += t.size
    return views


def flatten(named: dict[str, Tensor]) -> np.ndarray:
    """Moves the values of ``named`` into one new contiguous float64 buffer and
    makes each tensor's ``data`` its view there (``flat_views``), so one
    ufunc over the buffer updates every tensor. Returns the buffer; whatever
    updates the values later writes into the views and never rebinds them."""
    flat = np.empty(sum(t.size for t in named.values()))
    for t, view in zip(named.values(), flat_views(named, flat).values()):
        view[...] = t.data
        t.data = view
    return flat


# -- position codes and patch extraction --------------------------------


def _sincos(n_pos: int, dim: int) -> np.ndarray:
    half = dim // 2
    pos = np.arange(n_pos)[:, None]
    freq = 1.0 / (10_000.0 ** (np.arange(half) / half))
    ang = pos * freq[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


_pos_cache: dict[tuple[int, int, int, int], np.ndarray] = {}


def pos_table(t_blocks: int, gh: int, gw: int, dim: int) -> np.ndarray:
    """Fixed [T'*gh*gw, dim] sinusoidal codes: half time, quarter row, quarter col."""
    key = (t_blocks, gh, gw, dim)
    if key not in _pos_cache:
        dt, dr = dim // 2, dim // 4
        dc = dim - dt - dr
        time = _sincos(t_blocks, dt)
        row = _sincos(gh, dr)
        col = _sincos(gw, dc)
        out = np.zeros((t_blocks, gh, gw, dim))
        out[..., :dt] = time[:, None, None, :]
        out[..., dt:dt + dr] = row[None, :, None, :]
        out[..., dt + dr:] = col[None, None, :, :]
        _pos_cache[key] = out.reshape(-1, dim)
    return _pos_cache[key]


def extract_patches(pixels: np.ndarray, patch: int, tubelet: int) -> np.ndarray:
    """[T, H, W, C] -> [T', gh, gw, tubelet*patch*patch*C] float64, scan order."""
    t, h, w, c = pixels.shape
    if t % tubelet or h % patch or w % patch:
        raise ValueError(
            f"clip {pixels.shape} not divisible by tubelet {tubelet} / patch {patch}"
        )
    tp, gh, gw = t // tubelet, h // patch, w // patch
    x = pixels.reshape(tp, tubelet, gh, patch, gw, patch, c)
    out = np.empty((tp, gh, gw, tubelet, patch, patch, c))
    out[...] = x.transpose(0, 2, 4, 1, 3, 5, 6)  # one copy, widened to float64 as it goes
    return out.reshape(tp, gh, gw, -1)


def token_grid(params: EncoderParams, clip: VideoClip) -> tuple[int, int, int]:
    cfg = params.cfg
    t, h, w, _ = clip.shape
    tubelet = 1 if t == 1 else cfg.tubelet
    return t // tubelet, h // cfg.patch, w // cfg.patch


# -- forward passes ------------------------------------------------------


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` in one fresh buffer: the forward of ``linear``."""
    out = x @ w
    out += b
    return out


def _affine_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray, need_x: bool = True):
    """The gradients of ``_affine`` for x, w and b; the weight and bias
    gradients reduce over every leading row."""
    rows = g.reshape(-1, w.shape[1])
    return (g @ w.T if need_x else None), x.reshape(-1, w.shape[0]).T @ rows, rows.sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [..., in], w [in, out], b [out], as one graph node."""
    xd, wd = x.data, w.data
    if xd.ndim < 1 or wd.ndim != 2 or b.shape != (wd.shape[1],) or xd.shape[-1] != wd.shape[0]:
        raise ValueError(f"linear shapes do not fit: x {xd.shape}, w {wd.shape}, b {b.shape}")
    return Tensor._node(_affine(xd, wd, b.data), (x, w, b),
                        lambda g: _affine_vjp(g, xd, wd, x.requires_grad))


def _norm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, s): x [..., d] centred and scaled to unit variance over its last
    axis, and the scale s [..., 1]; layer norm's output is ``y * g + b``."""
    inv_n = 1.0 / x.shape[-1]
    y = x - np.sum(x, axis=-1, keepdims=True) * inv_n
    s = np.sqrt(np.sum(y * y, axis=-1, keepdims=True) * inv_n + LN_EPS)
    y /= s
    return y, s


def _scale_shift(y: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = y * g
    out += b
    return out


def _norm_vjp(gout: np.ndarray, y: np.ndarray, s: np.ndarray, g: np.ndarray):
    """The gradients of ``_scale_shift(*_norm(x), g, b)`` for x, g and b."""
    width = y.shape[-1]
    inv_n = 1.0 / width
    gy = gout * g
    gx = gy - np.sum(gy, axis=-1, keepdims=True) * inv_n
    gy *= y
    gx -= y * (np.sum(gy, axis=-1, keepdims=True) * inv_n)
    gx /= s
    return (gx, np.sum((gout * y).reshape(-1, width), axis=0),
            np.sum(gout.reshape(-1, width), axis=0))


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """Normalization over the last axis of x [..., d] with gain g and bias b,
    one graph node; the gain and bias gradients reduce over every leading row."""
    y, s = _norm(x.data)
    gd = g.data
    return Tensor._node(_scale_shift(y, gd, b.data), (x, g, b),
                        lambda gout: _norm_vjp(gout, y, s, gd))


def view(x: Tensor, index) -> Tensor:
    """``x.data[index]`` for a basic index (integers and slices) as one graph
    node; backward writes only those entries."""

    def vjp(g):
        out = np.zeros(x.shape)
        out[index] = g
        return (out,)

    return Tensor._node(x.data[index].copy(), (x,), vjp)


def gather_padded(x: Tensor, keep: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """The kept rows of each sequence of x [B, N, ...], packed in order to the
    front of a [B, K, ...] slab with K the largest kept count; padded slots
    hold zeros. Returns (slab, valid [B, K]). Backward writes only the kept
    rows."""
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != x.shape[:2]:
        raise ValueError(f"keep mask {keep.shape} does not fit rows {x.shape[:2]}")
    counts = keep.sum(axis=1)
    valid = np.arange(counts.max()) < counts[:, None]
    out = np.zeros(valid.shape + x.shape[2:])
    out[valid] = x.data[keep]

    def vjp(g):
        gx = np.zeros(x.shape)
        gx[keep] = g[valid]
        return (gx,)

    return Tensor._node(out, (x,), vjp), valid


def _heads(t: np.ndarray, heads: int) -> np.ndarray:
    bsz, n, d = t.shape
    return t.reshape(bsz, n, heads, d // heads).transpose(0, 2, 1, 3)  # [B, H, N, dh]


def _merge(t: np.ndarray) -> np.ndarray:
    bsz, heads, n, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(bsz, n, heads * dh)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, keys: np.ndarray,
            track: bool):
    """Multi-head softmax(q k^T / sqrt(dh)) v over [B, N, d] arrays, as
    [B, H, N, dh] batched matmuls; ``keys`` [B, 1, 1, N] marks the real keys.

    A padded key's score becomes -inf, so it gets weight exactly 0, and the
    max shift runs over real keys only. Scores are clipped to ``_ATTN_CLIP``
    before the softmax. Returns the output and, when ``track``, the
    probabilities and the mask of scores that are neither clipped nor padded:
    what ``_attend_vjp`` reads beside the head views, which the caller can
    rebuild from q, k and v.
    """
    qh, kh, vh = _heads(q, heads), _heads(k, heads), _heads(v, heads)
    # The [B, H, N, N] buffers are worked on in place: each fresh one costs page faults.
    s = qh @ kh.swapaxes(-1, -2)
    s *= 1.0 / math.sqrt(qh.shape[-1])
    inside = (s >= _ATTN_CLIP[0]) & (s <= _ATTN_CLIP[1]) & keys if track else None
    np.clip(s, *_ATTN_CLIP, out=s)
    np.copyto(s, -np.inf, where=~keys)
    s -= np.max(s, axis=-1, keepdims=True)
    p = np.exp(s, out=s)  # exactly 0 at padded keys
    p /= np.sum(p, axis=-1, keepdims=True)
    return _merge(p @ vh), ((p, inside) if track else None)


def _attend_vjp(g: np.ndarray, qh, kh, vh, p, inside):
    """The gradients of ``_attend`` for q, k and v; a clipped score passes none."""
    gh = _heads(g, qh.shape[1])
    gs = gh @ vh.swapaxes(-1, -2)
    gs -= np.sum(gs * p, axis=-1, keepdims=True)
    gs *= p
    gs *= inside
    gs *= 1.0 / math.sqrt(qh.shape[-1])
    return _merge(gs @ kh), _merge(gs.swapaxes(-1, -2) @ qh), _merge(p.swapaxes(-1, -2) @ gh)


def block(blk: Block, x: Tensor, heads: int, valid: np.ndarray) -> Tensor:
    """One pre-norm transformer block over x [B, N, d], as one graph node:
    ``x1 = x + attention(ln1(x)) @ wo + bo``, then
    ``x1 + gelu(ln2(x1) @ w1 + b1) @ w2 + b2``, op for op the graph of
    ``layer_norm``, ``linear``, ``Tensor.gelu`` and residual adds.

    ``valid`` [B, N] marks the real tokens of each sequence: padding gets no
    attention weight and no gradient, so real rows do not depend on what
    padded slots hold. The node keeps only what its VJP reads and cannot
    cheaply rebuild: each layer norm's y and s, the attention probabilities
    and clip mask, the MLP pre-activation u and Phi(u). The VJP recomputes
    the layer-norm outputs, q, k, v, the attention output and gelu(u) with
    the forward's own ops on the same inputs, so the bytes are the forward's,
    and drops each array once it has used it. Under ``no_grad`` the block
    builds no clip mask and drops each of those arrays after its last forward
    use.
    """
    bsz, n, _ = x.shape
    keys = np.asarray(valid, dtype=bool)
    if keys.shape != (bsz, n) or not keys.any(axis=1).all():
        raise ValueError(f"attention needs a [{bsz}, {n}] key mask with a valid key per row")
    params = tuple(getattr(blk, name) for name in blk.__dataclass_fields__)
    ln1_g, ln1_b, wq, bq, wk, bk, wv, bv, wo, bo, ln2_g, ln2_b, w1, b1, w2, b2 = (
        t.data for t in params)
    track = grad_enabled() and any(t.requires_grad for t in (x, *params))

    y1, s1 = _norm(x.data)
    h1 = _scale_shift(y1, ln1_g, ln1_b)
    if not track:
        y1 = s1 = None
    a, att = _attend(_affine(h1, wq, bq), _affine(h1, wk, bk), _affine(h1, wv, bv), heads,
                     keys[:, None, None, :], track)
    # h1 is freed when the block returns: freed here, before the residual sum
    # is allocated, it left glibc's heap about 3 MiB wider at FWM-HW-LD's peak
    x1 = x.data + _affine(a, wo, bo)
    a = None
    y2, s2 = _norm(x1)
    u = _affine(_scale_shift(y2, ln2_g, ln2_b), w1, b1)
    if not track:
        y2 = s2 = None
    phi = gelu_cdf(u)
    out = x1 + _affine(u * phi, w2, b2)
    if not track:
        return Tensor(out)

    def vjp(g):
        nonlocal y1, s1, att, y2, s2, u, phi
        gf, gw2, gb2 = _affine_vjp(g, u * phi, w2)
        gu = gelu_slope(u, phi, gf)
        u = phi = gf = None
        gh, gw1, gb1 = _affine_vjp(gu, _scale_shift(y2, ln2_g, ln2_b), w1)
        gu = None
        gx1, gln2_g, gln2_b = _norm_vjp(gh, y2, s2, ln2_g)
        y2 = s2 = gh = None
        gx1 += g
        h1 = _scale_shift(y1, ln1_g, ln1_b)
        qh, kh, vh = (_heads(_affine(h1, w, b), heads)
                      for w, b in ((wq, bq), (wk, bk), (wv, bv)))
        p, inside = att
        att = None
        ga, gwo, gbo = _affine_vjp(gx1, _merge(p @ vh), wo)
        gq, gk, gv = _attend_vjp(ga, qh, kh, vh, p, inside)
        qh = kh = vh = p = inside = ga = None
        gh, gwq, gbq = _affine_vjp(gq, h1, wq)
        gq = None
        ghk, gwk, gbk = _affine_vjp(gk, h1, wk)
        gh += ghk  # (q + k) + v: the order in which separate nodes accumulated
        gk = ghk = None
        ghv, gwv, gbv = _affine_vjp(gv, h1, wv)
        gh += ghv
        h1 = gv = ghv = None
        gx, gln1_g, gln1_b = _norm_vjp(gh, y1, s1, ln1_g)
        y1 = s1 = None
        gx += gx1
        return (gx, gln1_g, gln1_b, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gln2_g, gln2_b, gw1, gb1, gw2, gb2)

    return Tensor._node(out, (x, *params), vjp)


def embed_clips(params: EncoderParams, clips: list[VideoClip]) -> Tensor:
    """All tokens of each clip embedded to [B, N, dim] with position codes
    added; the clips of one batch share a shape."""
    if not clips:
        raise ValueError("no clips to embed")
    shape = clips[0].shape
    if any(c.shape != shape for c in clips):
        raise ValueError(f"clips of one batch must share a shape, got {[c.shape for c in clips]}")
    cfg = params.cfg
    if shape[0] == 1:
        tubelet, w, b = 1, params.embed_img_w, params.embed_img_b
    else:
        tubelet, w, b = cfg.tubelet, params.embed_w, params.embed_b
    patches = np.stack([extract_patches(c.pixels, cfg.patch, tubelet) for c in clips])
    bsz, tp, gh, gw, _ = patches.shape
    x = linear(Tensor(patches.reshape(bsz, tp * gh * gw, -1)), w, b)
    return x + Tensor(np.broadcast_to(pos_table(tp, gh, gw, cfg.dim), x.shape))


def encode_tokens(params: EncoderParams, x: Tensor, valid: np.ndarray) -> Tensor:
    for blk in params.blocks:
        x = block(blk, x, params.cfg.heads, valid)
    return layer_norm(x, params.ln_g, params.ln_b)


def encode(params: EncoderParams, clips: list[VideoClip],
           visible: list[np.ndarray] | None = None) -> tuple[Tensor, np.ndarray]:
    """Latents of each clip's visible tokens (all tokens when visible is None).

    Non-visible tokens are dropped before the trunk, so attention only ever
    mixes visible content. Returns (latents [B, K, dim], valid [B, K]): row j
    of clip b is its j-th visible token in scan order while valid[b, j], and
    K is the batch's largest visible count.
    """
    x = embed_clips(params, clips)
    bsz, n, _ = x.shape
    if visible is None:
        valid = np.ones((bsz, n), dtype=bool)
        return encode_tokens(params, x, valid), valid
    flats = [np.asarray(v, dtype=bool).reshape(-1) for v in visible]
    for flat in flats:
        if flat.shape[0] != n:
            raise ValueError(f"visibility over {flat.shape[0]} tokens, clip has {n}")
        if not flat.any():
            raise ValueError("no visible tokens to encode")
    x, valid = gather_padded(x, np.stack(flats))
    return encode_tokens(params, x, valid), valid


def full_grid(params: EncoderParams, clips: list[VideoClip]) -> Tensor:
    """Full-grid latents of the batch as one [B, T', gh*gw, dim] slab."""
    latents, _ = encode(params, clips)
    tp, gh, gw = token_grid(params, clips[0])
    return latents.reshape(len(clips), tp, gh * gw, params.cfg.dim)


def predict_masked(pred: PredictorParams, z_vis: Tensor, masks: list[MaskSpec]) -> Tensor:
    """Predictor outputs [B, K, dim]: row j of clip b predicts its j-th target
    token in scan order while j < masks[b].n_targets; later rows are padding.

    ``z_vis`` holds each clip's visible latents as ``encode`` packs them. The
    predictor runs over the visible latents followed by the target queries,
    with the padding of both masked out of attention.
    """
    bsz, k_vis, d = z_vis.shape
    n_vis = np.array([m.visible.sum() for m in masks])
    targets = [m.target_indices for m in masks]
    n_tgt = np.array([len(t) for t in targets])
    if len(masks) != bsz or k_vis != n_vis.max():
        raise ValueError(f"{len(masks)} masks with at most {n_vis.max()} visible tokens "
                         f"do not fit latents {z_vis.shape}")
    if n_tgt.min() == 0:
        raise ValueError("mask has no targets to predict")
    k_tgt = n_tgt.max()
    pos = np.zeros((bsz, k_tgt, d))
    for b, (m, t) in enumerate(zip(masks, targets)):
        pos[b, :len(t)] = pos_table(*m.grid, d)[t]
    queries = pred.mask_token.reshape(1, 1, d).broadcast_to((bsz, k_tgt, d)) + Tensor(pos)
    valid = np.concatenate([np.arange(k_vis) < n_vis[:, None],
                            np.arange(k_tgt) < n_tgt[:, None]], axis=1)
    seq = concat([z_vis, queries], axis=1)
    for blk in pred.blocks:
        seq = block(blk, seq, pred.cfg.pred_heads, valid)
    seq = view(seq, (slice(None), slice(k_vis, None)))
    return linear(layer_norm(seq, pred.ln_g, pred.ln_b), pred.out_w, pred.out_b)


def teacher_targets(teacher: EncoderParams, clips: list[VideoClip]) -> np.ndarray:
    """Full-grid teacher latents as plain values, [B, N, dim]."""
    with no_grad():
        latents, _ = encode(teacher, clips)
    return latents.data


# -- heads ---------------------------------------------------------------


def dyn_head(heads: HeadParams, x: Tensor) -> Tensor:
    """Two-layer GELU MLP mapping per-token latents to a full-width delta."""
    return linear(linear(x, heads.dyn_w1, heads.dyn_b1).gelu(), heads.dyn_w2, heads.dyn_b2)


def action_head(heads: HeadParams, x: Tensor) -> Tensor:
    """Per-token prediction of the patch-mean pixel change, [N, channels]."""
    return linear(x, heads.act_w, heads.act_b)


def ema_update(teacher: np.ndarray, student: np.ndarray, momentum: float) -> None:
    """theta_bar <- momentum * theta_bar + (1 - momentum) * theta, in place,
    over the teacher's and the student's value buffers (``flatten``), which
    share one layout."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {momentum}")
    if teacher.shape != student.shape:
        raise ValueError(f"teacher/student parameter sets differ: {teacher.shape} values "
                         f"vs {student.shape}")
    pull = student * (1.0 - momentum)
    teacher *= momentum
    teacher += pull


def quantize_params(flat: np.ndarray) -> None:
    """Round a value buffer to the float32 grid, in place; keeps the float32
    checkpoint lossless."""
    np.copyto(flat, flat.astype(np.float32))


# -- checkpoints ---------------------------------------------------------

CKPT_MAGIC = b"JPCK"
CKPT_VERSION = 1


def save_checkpoint(path: str | os.PathLike, records: dict[str, np.ndarray]) -> None:
    """Named float32 arrays, little-endian, written atomically (tmp+rename)."""
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        for name in sorted(records):
            arr = np.asarray(records[name])
            name_b = name.encode("utf-8")
            f.write(struct.pack("<I", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f4").tobytes())
    os.replace(tmp, path)


def _read_exact(f, size: int, end: int, what: str) -> bytes:
    """The next ``size`` bytes of f, refused before the read when the file
    ends (at byte ``end``) first, however large a size a damaged header declares."""
    if size > end - f.tell():
        raise ValueError(f"truncated checkpoint: cut inside {what}")
    return f.read(size)


def load_checkpoint(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """The records of a checkpoint file; a cut anywhere is a ValueError."""
    records: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if f.read(4) != CKPT_MAGIC:
            raise ValueError("not a checkpoint file: bad magic")
        end = os.fstat(f.fileno()).st_size
        (version,) = struct.unpack("<I", _read_exact(f, 4, end, "the version"))
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        while head := f.read(4):
            if len(head) < 4:
                raise ValueError("truncated checkpoint: cut inside a record's name length")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(f, name_len, end, "a record name").decode("utf-8")
            what = f"record '{name}'"
            (rank,) = struct.unpack("<I", _read_exact(f, 4, end, what))
            shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, end, what))
            payload = _read_exact(f, 4 * math.prod(shape), end, what)
            records[name] = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(shape)
    return records

