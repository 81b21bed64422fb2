"""Token encoder, masked predictor, auxiliary heads, EMA, checkpoints.

The encoder is a small pre-norm transformer over tubelet-patch tokens with
fixed sinusoidal position codes. Clips and single-frame images share the
transformer trunk; images enter through their own tubelet-1 embedding.
Encoder, predictor and teacher run once per batch on [B, N, dim] token
slabs. Masked encoding still drops non-visible tokens, so attention can only
ever mix visible content; clips with fewer visible tokens are padded to the
batch maximum, and padding never gets attention weight. Parameters carry
the run's `config.RunConfig`, which fixes their geometry; a parameter's
checkpoint record name is its field path (``Params.named``).
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
from .tensor import Tensor, concat, no_grad

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
        t.requires_grad, t.grad = False, None
    return frozen


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [..., in], w [in, out], b [out], as one graph node.

    The weight and bias gradients reduce over every leading row.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 1 or wd.ndim != 2 or b.shape != (wd.shape[1],) or xd.shape[-1] != wd.shape[0]:
        raise ValueError(f"linear shapes do not fit: x {xd.shape}, w {wd.shape}, b {b.shape}")

    def vjp(g):
        gx = g @ wd.T if x.requires_grad else None
        rows = g.reshape(-1, wd.shape[1])
        return gx, xd.reshape(-1, wd.shape[0]).T @ rows, rows.sum(axis=0)

    out = xd @ wd
    out += b.data
    return Tensor._node(out, (x, w, b), vjp)


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """Normalization over the last axis of x [..., d] with gain g and bias b,
    one graph node; the gain and bias gradients reduce over every leading row."""
    xd, gd = x.data, g.data
    width = xd.shape[-1]
    inv_n = 1.0 / width
    y = xd - np.sum(xd, axis=-1, keepdims=True) * inv_n
    s = np.sqrt(np.sum(y * y, axis=-1, keepdims=True) * inv_n + LN_EPS)
    y /= s

    def vjp(gout):
        gy = gout * gd
        gx = gy - np.sum(gy, axis=-1, keepdims=True) * inv_n
        gy *= y
        gx -= y * (np.sum(gy, axis=-1, keepdims=True) * inv_n)
        gx /= s
        return (gx, np.sum((gout * y).reshape(-1, width), axis=0),
                np.sum(gout.reshape(-1, width), axis=0))

    out = y * gd
    out += b.data
    return Tensor._node(out, (x, g, b), vjp)


def view(x: Tensor, index, shape: tuple[int, ...] | None = None) -> Tensor:
    """``x.data[index]`` for a basic index (integers and slices), reshaped to
    ``shape`` if given, as one graph node; backward writes only those entries."""
    part = x.data[index]

    def vjp(g):
        out = np.zeros(x.shape)
        out[index] = g.reshape(part.shape)
        return (out,)

    out = part.copy()
    return Tensor._node(out if shape is None else out.reshape(shape), (x,), vjp)


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


def attention_core(q: Tensor, k: Tensor, v: Tensor, heads: int, valid: np.ndarray) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(dh)) v over [B, N, d] inputs, one graph
    node computed as [B, H, N, dh] batched matmuls.

    ``valid`` [B, N] marks the real tokens of each sequence. A padded key's
    score becomes -inf, so it gets weight exactly 0 and no gradient, and the
    max shift runs over valid keys only: valid rows do not depend on what
    padded slots hold. Scores are clipped to ``_ATTN_CLIP`` before the
    softmax; a clipped score passes no gradient back to q or k.
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
    # The [B, H, N, N] buffers are worked on in place: each fresh one costs page faults.
    s = qh @ kh.swapaxes(-1, -2)
    s *= scale
    inside = (s >= _ATTN_CLIP[0]) & (s <= _ATTN_CLIP[1]) & keys
    np.clip(s, *_ATTN_CLIP, out=s)
    np.copyto(s, -np.inf, where=~keys)
    s -= np.max(s, axis=-1, keepdims=True)
    p = np.exp(s, out=s)  # exactly 0 at padded keys
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


def _attention(blk: Block, x: Tensor, heads: int, valid: np.ndarray) -> Tensor:
    q = linear(x, blk.wq, blk.bq)
    k = linear(x, blk.wk, blk.bk)
    v = linear(x, blk.wv, blk.bv)
    return linear(attention_core(q, k, v, heads, valid), blk.wo, blk.bo)


def _trunk(blocks: list[Block], heads: int, x: Tensor, valid: np.ndarray) -> Tensor:
    for blk in blocks:
        x = x + _attention(blk, layer_norm(x, blk.ln1_g, blk.ln1_b), heads, valid)
        x = x + linear(linear(layer_norm(x, blk.ln2_g, blk.ln2_b), blk.w1, blk.b1).gelu(),
                       blk.w2, blk.b2)
    return x


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
    x = _trunk(params.blocks, params.cfg.heads, x, valid)
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
    seq = _trunk(pred.blocks, pred.cfg.pred_heads, concat([z_vis, queries], axis=1), valid)
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


def ema_update(teacher: dict[str, Tensor], student: dict[str, Tensor], momentum: float) -> None:
    """theta_bar <- momentum * theta_bar + (1 - momentum) * theta, in place."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {momentum}")
    if teacher.keys() != student.keys():
        raise ValueError("teacher/student parameter sets differ")
    for k in teacher:
        teacher[k].data = momentum * teacher[k].data + (1.0 - momentum) * student[k].data


def round_f32(a: np.ndarray) -> np.ndarray:
    """``a`` rounded to the float32 grid, held as float64."""
    return a.astype(np.float32).astype(np.float64)


def quantize_params(named: dict[str, Tensor]) -> None:
    """Round values to float32 grid; keeps the float32 checkpoint lossless."""
    for t in named.values():
        t.data = round_f32(t.data)


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

