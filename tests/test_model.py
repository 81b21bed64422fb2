"""Encoder/predictor wiring, EMA arithmetic, channel split, checkpoints."""

import dataclasses
import hashlib

import numpy as np
import pytest

from vjlab import verify
from vjlab.gradcheck import grad_check
from vjlab.config import VARIANTS, RunConfig, app_width, variant_defaults
from vjlab.masking import MaskSpec, motion_energy, sample_mask
from vjlab.model import (
    Block,
    HeadParams,
    Params,
    action_head,
    block,
    clone_frozen,
    dyn_head,
    embed_clips,
    ema_update,
    encode,
    encode_tokens,
    extract_patches,
    flatten,
    full_grid,
    gather_padded,
    init_encoder,
    init_heads,
    layer_norm,
    linear,
    load_checkpoint,
    pos_table,
    predict_masked,
    save_checkpoint,
    teacher_targets,
    view,
)
from vjlab.probing import train_probe
from vjlab.objectives import ac_loss, ac_targets
from vjlab.synth import MotionClass, VideoClip, gen_motion_clip, image_as_clip
from vjlab.tensor import Tensor, backward, no_grad
from vjlab.training import init_state, train_records

from oracles import attention_core, composed_block

CFG = RunConfig()


def clip8(seed=0):
    return gen_motion_clip(MotionClass.TRANSLATE_RIGHT, np.random.default_rng(seed))


def params(seed=0, cfg=CFG):
    return init_encoder(cfg, np.random.default_rng(seed))


class TestPixelPrecision:
    """Rendered clips hold bool pixels, loaded clips float32, and every reader
    widens them to float64, so a bool clip, its float32 copy and its float64
    copy give the same bytes downstream."""

    @pytest.fixture(params=list(MotionClass))
    def triple(self, request):
        cb = gen_motion_clip(request.param, np.random.default_rng(4))
        c32, c64 = (VideoClip(pixels=cb.pixels.astype(dtype), label=cb.label)
                    for dtype in (np.float32, np.float64))
        assert cb.pixels.dtype == np.bool_
        assert c32.pixels.dtype == np.float32 and c64.pixels.dtype == np.float64
        return cb, c32, c64

    @staticmethod
    def assert_same_bytes(arrays):
        first, *rest = arrays
        assert all(a.tobytes() == first.tobytes() for a in rest)

    def test_extract_patches(self, triple):
        out = [extract_patches(c.pixels, CFG.patch, CFG.tubelet) for c in triple]
        assert all(a.dtype == np.float64 and a.flags.c_contiguous for a in out)
        self.assert_same_bytes(out)

    def test_motion_energy(self, triple):
        out = [motion_energy(c, CFG.patch).scores for c in triple]
        assert all(a.dtype == np.float64 for a in out)
        self.assert_same_bytes(out)

    def test_ac_targets_and_loss(self, triple):
        out = [ac_targets(c, CFG.patch, CFG.tubelet) for c in triple]
        assert all(a.dtype == np.float64 for a in out)
        self.assert_same_bytes(out)
        p, heads = params(1), init_heads(CFG, np.random.default_rng(2))
        z = full_grid(p, [triple[0]])
        self.assert_same_bytes([ac_loss(heads, z, [c], CFG.patch, CFG.tubelet).data
                                for c in triple])

    def test_encode(self, triple):
        p = params(3)
        mask = sample_mask((4, 4, 4), 0.5, np.random.default_rng(5))
        for visible in (None, [mask.visible]):
            self.assert_same_bytes([encode(p, [c], visible=visible)[0].data for c in triple])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pixel_widening_check(self, seed):
        verify.pixel_widening(seed=seed)


class TestPatchify:
    def test_desk_grid_shape(self):
        patches = extract_patches(clip8().pixels, patch=8, tubelet=2)
        assert patches.shape == (4, 4, 4, 2 * 8 * 8 * 1)

    def test_single_pixel_touches_single_token(self):
        a = clip8(3).pixels.copy()
        b = a.copy()
        b[3, 17, 9, 0] = 1.0 - b[3, 17, 9, 0]
        pa = extract_patches(a, 8, 2).reshape(64, -1)
        pb = extract_patches(b, 8, 2).reshape(64, -1)
        changed = np.flatnonzero(np.any(pa != pb, axis=1))
        # frame 3 -> block 1; row 17 -> r 2; col 9 -> c 1
        assert changed.tolist() == [(1 * 4 + 2) * 4 + 1]

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            extract_patches(np.zeros((8, 30, 32, 1)), 8, 2)

    def test_image_uses_tubelet_one(self):
        img = image_as_clip(np.random.default_rng(0).uniform(size=(32, 32, 1)))
        x = embed_clips(params(), [img])
        assert x.shape == (1, 16, CFG.dim)


class TestPositionCodes:
    def test_shape_and_determinism(self):
        a = pos_table(4, 4, 4, 32)
        b = pos_table(4, 4, 4, 32)
        assert a.shape == (64, 32)
        assert a is b  # cached

    def test_rows_distinct(self):
        tab = pos_table(4, 4, 4, 32)
        assert len(np.unique(tab.round(9), axis=0)) == 64


class TestEncoder:
    def test_full_vs_all_visible_identical(self):
        p = params()
        clip = clip8()
        za, _ = encode(p, [clip])
        zb, _ = encode(p, [clip], visible=[np.ones(64, dtype=bool)])
        assert np.array_equal(za.data, zb.data)

    def test_zeroed_projections_reduce_to_normed_embeddings(self):
        p = params(1)
        for blk in p.blocks:
            blk.wo.data[:] = 0.0
            blk.bo.data[:] = 0.0
            blk.w2.data[:] = 0.0
            blk.b2.data[:] = 0.0
        clip = clip8(1)
        z, _ = encode(p, [clip])
        want = layer_norm(embed_clips(p, [clip]), p.ln_g, p.ln_b)
        assert np.max(np.abs(z.data - want.data)) <= 1e-12

    def test_masked_encode_returns_only_visible(self):
        p = params()
        mask = sample_mask((4, 4, 4), 0.5, np.random.default_rng(5))
        z, valid = encode(p, [clip8()], visible=[mask.visible])
        assert z.shape == (1, int(mask.visible.sum()), CFG.dim)
        assert valid.shape == (1, int(mask.visible.sum())) and valid.all()

    def test_masked_latents_ignore_hidden_content(self):
        p = params()
        mask = sample_mask((4, 4, 4), 0.5, np.random.default_rng(6))
        a = clip8(7)
        b_pixels = a.pixels.copy()
        # repaint one fully-masked patch; visible latents must not move
        t, r, c = np.argwhere(mask.target)[0]
        b_pixels[t * 2:(t + 1) * 2, r * 8:(r + 1) * 8, c * 8:(c + 1) * 8, :] = 0.5
        za, _ = encode(p, [a], visible=[mask.visible])
        zb, _ = encode(p, [VideoClip(pixels=b_pixels)], visible=[mask.visible])
        assert np.array_equal(za.data, zb.data)

    def test_token_permutation_equivariance(self):
        p = params(2)
        x = embed_clips(p, [clip8(2)])
        perm = np.random.default_rng(0).permutation(64)
        valid = np.ones((1, 64), dtype=bool)
        out_perm = encode_tokens(p, Tensor(x.data[:, perm]), valid)
        out = encode_tokens(p, x, valid)
        assert np.max(np.abs(out_perm.data - out.data[:, perm])) <= 1e-9

    def test_image_encoded_deterministically(self):
        p = params()
        img = image_as_clip(np.random.default_rng(1).uniform(size=(32, 32, 1)))
        za, _ = encode(p, [img])
        zb, _ = encode(p, [img])
        assert np.array_equal(za.data, zb.data)

    def test_full_grid_shape(self):
        assert full_grid(params(), [clip8(), clip8()]).shape == (2, 4, 16, 32)


class TestPredictor:
    def test_one_row_per_target(self):
        p = params()
        heads = init_heads(CFG, np.random.default_rng(3))
        mask = sample_mask((4, 4, 4), 0.5, np.random.default_rng(4))
        z, _ = encode(p, [clip8()], visible=[mask.visible])
        out = predict_masked(heads.predictor, z, [mask])
        assert out.shape == (1, mask.n_targets, CFG.dim)

    def test_gradient_reaches_student_through_predictor(self):
        p = params()
        heads = init_heads(CFG, np.random.default_rng(3))
        mask = sample_mask((4, 4, 4), 0.5, np.random.default_rng(4))
        z, _ = encode(p, [clip8()], visible=[mask.visible])
        out = predict_masked(heads.predictor, z, [mask])
        backward((out * out).mean())
        assert p.embed_w.grad is not None and np.any(p.embed_w.grad != 0.0)
        assert heads.predictor.mask_token.grad is not None


def weighted_sum(out: Tensor, seed: int) -> Tensor:
    """A smooth scalar of every output entry, for finite differences."""
    return (out * Tensor(np.random.default_rng(seed).standard_normal(out.shape))).sum()


def rand_t(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestFusedOps:
    def test_linear_grad(self):
        rng = np.random.default_rng(0)
        rep = grad_check(lambda x, w, b: weighted_sum(linear(x, w, b), 1),
                         [rand_t(rng, (5, 4)), rand_t(rng, (4, 3)), rand_t(rng, 3)])
        assert rep.ok(1e-4), rep.per_input

    def test_linear_rejects_mismatched_bias(self):
        with pytest.raises(ValueError, match="linear shapes"):
            linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)))

    def test_layer_norm_grad(self):
        rng = np.random.default_rng(2)
        rep = grad_check(lambda x, g, b: weighted_sum(layer_norm(x, g, b), 3),
                         [rand_t(rng, (5, 6)), rand_t(rng, 6), rand_t(rng, 6)])
        assert rep.ok(1e-4), rep.per_input

    def test_attention_core_grad_inside_clip(self):
        rng = np.random.default_rng(4)
        qkv = [rand_t(rng, (1, 5, 8)) for _ in range(3)]
        for cols in (slice(0, 4), slice(4, 8)):
            assert np.abs(qkv[0].data[0, :, cols] @ qkv[1].data[0, :, cols].T / 2.0).max() < 30.0
        valid = np.ones((1, 5), dtype=bool)
        rep = grad_check(lambda q, k, v: weighted_sum(attention_core(q, k, v, 2, valid), 5), qkv)
        assert rep.ok(1e-4), rep.per_input

    def test_attention_core_clipped_scores_pass_no_gradient(self):
        # head 0 (columns 0-1): every score of query 0 and of key 3 is
        # beyond +-30 after the 1/sqrt(2) scale; the other scores are not
        q = np.array([[40.0, 40.0], [1.0, 0.0], [-1.0, 0.5], [2.0, 1.0]])
        k = np.array([[1.0, 1.0], [0.5, 1.0], [-1.0, -0.5], [60.0, -20.0]])
        raw = q @ k.T / np.sqrt(2.0)
        clipped = np.abs(raw) > 30.0
        assert clipped[0].all() and clipped[:, 3].all() and not clipped[1:, :3].any()
        rng = np.random.default_rng(6)
        qt = Tensor(np.concatenate([q, rng.standard_normal((4, 2))], axis=1)[None],
                    requires_grad=True)
        kt = Tensor(np.concatenate([k, rng.standard_normal((4, 2))], axis=1)[None],
                    requires_grad=True)
        vt = rand_t(rng, (1, 4, 4))
        backward(weighted_sum(attention_core(qt, kt, vt, 2, np.ones((1, 4), dtype=bool)), 7))
        qg, kg = qt.grad[0], kt.grad[0]
        assert np.all(qg[0, :2] == 0.0) and np.all(kg[3, :2] == 0.0)
        assert np.all(qg[1:, :2] != 0.0) and np.all(kg[:3, :2] != 0.0)

    @pytest.mark.parametrize("shape", [(5, 6), (2, 3, 6)])
    def test_slice_cols_grad(self, shape):
        rng = np.random.default_rng(8)
        x = rand_t(rng, shape)
        cols = (Ellipsis, slice(2, 5))
        assert np.array_equal(view(x, cols).data, x.data[..., 2:5])
        rep = grad_check(lambda t: weighted_sum(view(t, cols), 9), [x])
        assert rep.ok(1e-4), rep.per_input


    def test_linear_grad_batched(self):
        rng = np.random.default_rng(10)
        rep = grad_check(lambda x, w, b: weighted_sum(linear(x, w, b), 11),
                         [rand_t(rng, (2, 3, 4)), rand_t(rng, (4, 3)), rand_t(rng, 3)])
        assert rep.ok(1e-4), rep.per_input

    def test_layer_norm_grad_batched(self):
        rng = np.random.default_rng(12)
        rep = grad_check(lambda x, g, b: weighted_sum(layer_norm(x, g, b), 13),
                         [rand_t(rng, (2, 3, 6)), rand_t(rng, 6), rand_t(rng, 6)])
        assert rep.ok(1e-4), rep.per_input

    def test_attention_core_grad_padded_keys(self):
        # sequence 1 holds 3 real tokens and 2 padded ones
        rng = np.random.default_rng(14)
        qkv = [rand_t(rng, (2, 5, 8)) for _ in range(3)]
        valid = np.array([[True] * 5, [True, True, True, False, False]])
        attn = lambda q, k, v: attention_core(q, k, v, 2, valid)
        rep = grad_check(lambda q, k, v: weighted_sum(attn(q, k, v), 15), qkv)
        assert rep.ok(1e-4), rep.per_input
        out = attn(*qkv)
        alone = attention_core(*[Tensor(t.data[1:, :3]) for t in qkv], 2, np.ones((1, 3), bool))
        assert np.max(np.abs(out.data[1, :3] - alone.data[0])) <= 1e-12
        backward(weighted_sum(out, 15))
        assert np.all(qkv[1].grad[1, 3:] == 0.0) and np.all(qkv[2].grad[1, 3:] == 0.0)

    @pytest.mark.parametrize("valid", [np.ones((2, 6), bool), np.ones((5, 2), bool),
                                       np.array([[True] * 5, [False] * 5])],
                             ids=["extra-key", "transposed", "row-without-a-key"])
    def test_attention_core_refuses_a_misfit_key_mask(self, valid):
        rng = np.random.default_rng(16)
        qkv = [Tensor(rng.standard_normal((2, 5, 8))) for _ in range(3)]
        with pytest.raises(ValueError, match=r"\[2, 5\] key mask"):
            attention_core(*qkv, 2, valid)

    @pytest.mark.parametrize("valid", [np.ones((2, 6), bool), np.ones((5, 2), bool),
                                       np.array([[True] * 5, [False] * 5])],
                             ids=["extra-key", "transposed", "row-without-a-key"])
    def test_attention_core_refuses_a_misfit_key_mask(self, valid):
        rng = np.random.default_rng(16)
        qkv = [Tensor(rng.standard_normal((2, 5, 8))) for _ in range(3)]
        with pytest.raises(ValueError, match=r"\[2, 5\] key mask"):
            attention_core(*qkv, 2, valid)

    def test_gather_padded_grad(self):
        rng = np.random.default_rng(16)
        x = rand_t(rng, (2, 5, 3))
        keep = np.array([[True, False, True, True, False], [False, True, False, False, False]])
        out, valid = gather_padded(x, keep)
        assert valid.tolist() == [[True, True, True], [True, False, False]]
        assert np.array_equal(out.data[valid], x.data[keep]) and np.all(out.data[~valid] == 0.0)
        rep = grad_check(lambda t: weighted_sum(gather_padded(t, keep)[0], 17), [x])
        assert rep.ok(1e-4), rep.per_input
        backward(weighted_sum(out, 17))
        assert np.all(x.grad[~keep] == 0.0) and np.all(x.grad[keep] != 0.0)

    def test_view_grad(self):
        rng = np.random.default_rng(18)
        x = rand_t(rng, (3, 5, 4))
        index = (1, slice(0, 3))
        assert np.array_equal(view(x, index).data, x.data[1, :3])
        rep = grad_check(lambda t: weighted_sum(view(t, index), 19), [x])
        assert rep.ok(1e-4), rep.per_input


def rand_block(rng, dim=CFG.dim, ff=CFG.ff, scale=0.5) -> Block:
    """A block whose every parameter is drawn (gains about 1), so no gradient
    path is trivial; ``init_encoder`` starts biases at 0 and gains at 1."""
    blk = init_encoder(dataclasses.replace(CFG, dim=dim, ff=ff, layers=1), rng).blocks[0]
    for name, t in blk.named("").items():
        t.data = rng.standard_normal(t.shape) * scale + name.endswith("_g")
    return blk


def raw_scores(blk: Block, x: np.ndarray, heads: int) -> np.ndarray:
    """The [B, H, N, N] attention scores of a block, before the clip."""
    with no_grad():
        h = layer_norm(Tensor(x), blk.ln1_g, blk.ln1_b)
        q, k = linear(h, blk.wq, blk.bq).data, linear(h, blk.wk, blk.bk).data
    bsz, n, d = q.shape
    qh, kh = (t.reshape(bsz, n, heads, d // heads).transpose(0, 2, 1, 3) for t in (q, k))
    return qh @ kh.swapaxes(-1, -2) / np.sqrt(d // heads)


class TestBlock:
    """``model.block`` against the twelve-node graph it fuses, finite
    differences (``verify.block_gradient``) and its attention rules."""

    GEOMETRY = {
        # a full-grid encode: clip 1 holds 40 of 64 tokens
        "encoder": (CFG.heads, np.arange(64) < np.array([[64], [40]])),
        # a predictor pass: 20 / 28 visible latents, then 24 / 10 target queries
        "predictor": (CFG.pred_heads, np.concatenate(
            [np.arange(28) < np.array([[20], [28]]), np.arange(24) < np.array([[24], [10]])],
            axis=1)),
    }

    @pytest.mark.parametrize("geometry", GEOMETRY)
    def test_matches_the_composed_graph_bit_for_bit(self, geometry):
        heads, valid = self.GEOMETRY[geometry]
        rng = np.random.default_rng(20)
        blk = rand_block(rng)
        x = rng.standard_normal(valid.shape + (CFG.dim,))
        # scale the queries so that the largest real score is clipped and nearly all others are not
        real = (valid[:, None, :, None] & valid[:, None, None, :]).repeat(heads, axis=1)
        factor = 31.0 / np.abs(raw_scores(blk, x, heads)[real]).max()
        blk.wq.data *= factor
        blk.bq.data *= factor
        s = np.abs(raw_scores(blk, x, heads)[real])
        assert (s > 30.0).any() and (s > 30.0).mean() < 0.01

        def run(fn):
            xt = Tensor(x, requires_grad=True)
            for t in blk.named("").values():
                t.grad = None
            out = fn(blk, xt, heads, valid)
            backward(weighted_sum(out, 21))
            return [out.data, xt.grad] + [t.grad for t in blk.named("").values()]

        fused, composed = run(block), run(composed_block)
        for name, a, b in zip(["out", "x", *blk.named("")], fused, composed):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_differences(self, seed):
        verify.block_gradient(seed=seed)

    def test_no_grad_forward_is_byte_equal(self):
        heads, valid = self.GEOMETRY["predictor"]
        rng = np.random.default_rng(22)
        blk = rand_block(rng)
        x = Tensor(rng.standard_normal(valid.shape + (CFG.dim,)), requires_grad=True)
        tracked = block(blk, x, heads, valid)
        with no_grad():
            free = block(blk, x, heads, valid)
        assert tracked.requires_grad and not free.requires_grad and free._vjp is None
        assert free.data.tobytes() == tracked.data.tobytes()

    def test_one_node_over_x_and_the_parameters(self):
        blk = rand_block(np.random.default_rng(23))
        x = Tensor(np.zeros((1, 3, CFG.dim)), requires_grad=True)
        out = block(blk, x, CFG.heads, np.ones((1, 3), bool))
        assert out._parents == (x, *blk.named("").values())

    def test_clipped_scores_pass_no_gradient(self):
        # wq = wk = 0: every token's query is bq and its key bk. In head 0
        # (columns 0-1) each score is 72 / sqrt(2), beyond +-30; in head 1 it is
        # 1.25 / sqrt(2). Unclipped, equal keys and queries still pass a
        # gradient to k (the columns of the softmax gradient do not sum to 0)
        rng = np.random.default_rng(24)
        blk = rand_block(rng, dim=4, ff=8)
        for name, value in (("wq", 0.0), ("wk", 0.0), ("bq", [6.0, 6.0, 1.0, 0.5]),
                            ("bk", [6.0, 6.0, 1.0, 0.5])):
            getattr(blk, name).data = np.broadcast_to(value, getattr(blk, name).shape).copy()
        for t in blk.named("").values():
            t.requires_grad = True
        backward(weighted_sum(block(blk, rand_t(rng, (1, 4, 4)), 2, np.ones((1, 4), bool)), 25))
        for name in ("wq", "wk"):
            assert np.all(getattr(blk, name).grad[:, :2] == 0.0), name
        for name in ("bq", "bk"):
            assert np.all(getattr(blk, name).grad[:2] == 0.0), name
        assert np.all(blk.wk.grad[:, 2:] != 0.0)

    def test_padded_tokens_change_no_real_row_and_get_no_gradient(self):
        # sequence 1 holds 3 real tokens and 2 padded ones
        rng = np.random.default_rng(26)
        blk = rand_block(rng, dim=8, ff=16)
        valid = np.array([[True] * 5, [True, True, True, False, False]])
        x = rand_t(rng, (2, 5, 8))
        out = block(blk, x, 2, valid)
        alone = block(blk, Tensor(x.data[1:, :3]), 2, np.ones((1, 3), bool))
        assert np.max(np.abs(out.data[1, :3] - alone.data[0])) <= 1e-12
        weights = rng.standard_normal(out.shape) * valid[:, :, None]
        backward((out * Tensor(weights)).sum())
        assert np.all(x.grad[1, 3:] == 0.0) and np.all(x.grad[1, :3] != 0.0)

    @pytest.mark.parametrize("valid", [np.ones((2, 6), bool), np.ones((5, 2), bool),
                                       np.array([[True] * 5, [False] * 5])],
                             ids=["extra-key", "transposed", "row-without-a-key"])
    def test_refuses_a_misfit_key_mask(self, valid):
        blk = rand_block(np.random.default_rng(16), dim=8, ff=16)
        x = Tensor(np.random.default_rng(17).standard_normal((2, 5, 8)))
        with pytest.raises(ValueError, match=r"\[2, 5\] key mask"):
            block(blk, x, 2, valid)


def hand_mask(n_visible: int, n_targets: int) -> MaskSpec:
    """Tokens 0..n_visible-1 visible, the last n_targets of the 4x4x4 grid targets."""
    flat = np.zeros((2, 64), dtype=bool)
    flat[0, :n_visible] = True
    flat[1, 64 - n_targets:] = True
    return MaskSpec(target=flat[1].reshape(4, 4, 4), visible=flat[0].reshape(4, 4, 4),
                    distance_weight=np.ones(n_targets))


class TestPadding:
    def test_padded_slots_change_no_valid_output_or_gradient(self):
        # clip 0 has 20 visible tokens and 24 targets, clip 1 has 28 and 10, so
        # the encoder slab pads clip 0 and the predictor's query slab pads clip 1
        p = params(3)
        heads = init_heads(CFG, np.random.default_rng(4))
        masks = [hand_mask(20, 24), hand_mask(28, 10)]
        enc_valid = np.arange(28) < np.array([[20], [28]])
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 28, CFG.dim))
        junk = x.copy()
        junk[0, 20:] = rng.standard_normal((8, CFG.dim)) * 10.0

        def run(slab):
            named = {**p.named("enc"), **heads.predictor.named("pred")}
            for t in named.values():
                t.grad = None
            z = encode_tokens(p, Tensor(slab), enc_valid)
            out = predict_masked(heads.predictor, z, masks)
            loss = sum((weighted_sum(view(out, (b, slice(0, m.n_targets))), 6 + b)
                        for b, m in enumerate(masks)), Tensor(0.0))
            backward(loss)
            return z.data, out.data, {k: t.grad for k, t in named.items()}

        z_a, out_a, grads_a = run(x)
        z_b, out_b, grads_b = run(junk)
        assert not np.array_equal(z_a[~enc_valid], z_b[~enc_valid])
        assert np.array_equal(z_a[enc_valid], z_b[enc_valid])
        for b, m in enumerate(masks):
            assert np.array_equal(out_a[b, :m.n_targets], out_b[b, :m.n_targets])
        assert grads_a.keys() == grads_b.keys()
        for k in grads_a:
            assert np.array_equal(grads_a[k], grads_b[k]), k


class TestEMA:
    def test_exact_formula(self):
        verify.ema_update_exact()

    def test_momentum_one_freezes(self):
        student = params(0)
        teacher = clone_frozen(student)
        before = {k: t.data.copy() for k, t in teacher.named().items()}
        student.embed_w.data += 1.0
        ema_update(flatten(teacher.named()), flatten(student.named()), 1.0)
        for k, t in teacher.named().items():
            assert np.array_equal(t.data, before[k])

    def test_teacher_requires_no_grad(self):
        teacher = clone_frozen(params(0))
        assert all(not t.requires_grad for t in teacher.named().values())

    def test_teacher_is_a_value_copy_sharing_the_config(self):
        student = params(0)
        student.embed_w.grad = np.ones(student.embed_w.shape)
        teacher = clone_frozen(student)
        assert teacher.cfg is student.cfg
        s_named, t_named = student.named(), teacher.named()
        assert list(t_named) == list(s_named)
        for k, t in t_named.items():
            assert t is not s_named[k] and t.grad is None
            assert np.array_equal(t.data, s_named[k].data)
        student.blocks[0].wq.data += 1.0
        assert not np.array_equal(teacher.blocks[0].wq.data, student.blocks[0].wq.data)

    def test_teacher_targets_detached(self):
        p = params(0)
        h = teacher_targets(clone_frozen(p), [clip8()])
        assert isinstance(h, np.ndarray) and h.shape == (1, 64, 32)


class TestSplitAndHeads:
    def test_split_concat_inverse(self):
        x = Tensor(np.random.default_rng(0).standard_normal((10, 32)))
        d_app = app_width(0.5, 32)
        app, dyn = view(x, (Ellipsis, slice(0, d_app))), view(x, (Ellipsis, slice(d_app, 32)))
        assert app.shape == (10, 16) and dyn.shape == (10, 16)
        from vjlab.tensor import concat

        assert np.array_equal(concat([app, dyn], axis=1).data, x.data)

    def test_non_integral_split_rejected(self):
        with pytest.raises(ValueError, match="integrally"):
            app_width(0.45, 30)

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError, match="empty side"):
            app_width(0.0, 2)

    def test_dyn_head_zero_weights_zero_output(self):
        heads = init_heads(CFG, np.random.default_rng(0))
        heads.dyn_w2.data[:] = 0.0
        heads.dyn_b2.data[:] = 0.0
        out = dyn_head(heads, Tensor(np.random.default_rng(1).standard_normal((5, 32))))
        assert out.shape == (5, 32)
        assert np.all(out.data == 0.0)

    def test_dyn_head_width_follows_input(self):
        # an FWM head reads only the 16 dynamics channels of a 32-wide latent
        fwm = dataclasses.replace(CFG, variant="FWM-HW-LD")
        heads = init_heads(fwm, np.random.default_rng(0))
        out = dyn_head(heads, Tensor(np.zeros((3, 16))))
        assert out.shape == (3, 32)

    def test_action_head_shape(self):
        heads = init_heads(CFG, np.random.default_rng(0))
        out = action_head(heads, Tensor(np.zeros((7, 32))))
        assert out.shape == (7, 1)


@dataclasses.dataclass
class _Inner(Params):
    PREFIX = "inner"
    w: Tensor


@dataclasses.dataclass
class _Outer(Params):
    PREFIX = "outer"
    cfg: RunConfig
    a: Tensor
    blocks: list
    inner: _Inner
    stats: np.ndarray
    absent: _Inner | None
    z: Tensor


class TestParamsNamed:
    def test_record_names_are_field_paths(self):
        t = [Tensor(np.full(2, float(i))) for i in range(5)]
        outer = _Outer(cfg=CFG, a=t[0], blocks=[_Inner(w=t[1]), _Inner(w=t[2])],
                       inner=_Inner(w=t[3]), stats=np.zeros(2), absent=None, z=t[4])
        named = outer.named()
        assert list(named) == ["outer.a", "outer.block0.w", "outer.block1.w",
                               "outer.inner.w", "outer.z"]
        assert [id(v) for v in named.values()] == [id(x) for x in t]
        assert list(outer.named("x")) == ["x.a", "x.block0.w", "x.block1.w", "x.inner.w", "x.z"]


class TestCheckpoint:
    def test_round_trip_exact_after_quantize(self):
        verify.checkpoint_round_trip()

    def test_write_is_deterministic(self, tmp_path):
        p = params(5)
        records = {k: t.data for k, t in p.named().items()}
        save_checkpoint(tmp_path / "a.jpck", records)
        save_checkpoint(tmp_path / "b.jpck", records)
        assert (tmp_path / "a.jpck").read_bytes() == (tmp_path / "b.jpck").read_bytes()

    def test_truncated_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ck.jpck", {"w": np.ones((4, 4))})
        raw = (tmp_path / "ck.jpck").read_bytes()
        (tmp_path / "cut.jpck").write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(tmp_path / "cut.jpck")

    def test_every_cut_inside_a_record_is_refused(self, tmp_path):
        save_checkpoint(tmp_path / "ck.jpck", {"a.w": np.ones((2, 3)), "b": np.ones(())})
        raw = (tmp_path / "ck.jpck").read_bytes()
        # magic and version, then per record: name length, name, rank, shape, payload
        ends = {8: [], 8 + 4 + 3 + 4 + 8 + 24: ["a.w"]}
        for cut in range(len(raw)):
            (tmp_path / "cut.jpck").write_bytes(raw[:cut])
            if cut in ends:  # a cut between records leaves a shorter checkpoint
                assert list(load_checkpoint(tmp_path / "cut.jpck")) == ends[cut]
                continue
            with pytest.raises(ValueError, match="magic" if cut < 4 else "truncated"):
                load_checkpoint(tmp_path / "cut.jpck")

    def test_a_declared_size_beyond_the_file_is_refused(self, tmp_path):
        save_checkpoint(tmp_path / "ck.jpck", {"w": np.ones(3)})
        raw = bytearray((tmp_path / "ck.jpck").read_bytes())
        raw[8:12] = (2 ** 32 - 1).to_bytes(4, "little")  # the record's name length
        (tmp_path / "big.jpck").write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(tmp_path / "big.jpck")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "x.jpck").write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(tmp_path / "x.jpck")

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "ck.jpck"
        save_checkpoint(path, {"w": np.ones(3)})
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")  # the records that follow still parse as v1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    def test_no_tmp_left(self, tmp_path):
        save_checkpoint(tmp_path / "ck.jpck", {"w": np.ones(3)})
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ck.jpck"]


class TestGeometryValidation:
    def test_dim_multiple_of_eight(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            RunConfig(dim=20).validate()

    def test_heads_divide_dim(self):
        with pytest.raises(ValueError, match="divide"):
            RunConfig(dim=32, heads=3).validate()


# A small geometry on the default 4x4x4 token grid, where every variant validates.
PIN_GEOMETRY = dict(dim=16, heads=2, layers=1, ff=16, pred_layers=1, pred_heads=2,
                    dyn_hidden=16, ham_hidden=8)

# sha256 over train_records(init_state(cfg)) at PIN_GEOMETRY; see TestPinnedRecords.
# Variants share a digest when they share a record set: EMA teacher or not,
# Hamiltonian net or not, and the FWM heads reading only the dynamics channels.
_EMA = "0d01107c2af1e41151cade477a59352b7aa142e03bbfaa245a53a1495fa9955e"
_NO_EMA = "3c5a4d0939ee7d0f6d68c32f876dfae5efa4eadae1ec9ef0410d975342ecc474"
_HAM = "86ea672e3317b065760a027bc66c65d693df74cdd3157265ab53a94a21e5f556"
_FWM = "54ac5a5d439d677a32dd459e2111eeaa8a94914f58b4a2aa6e9be6273298f738"
PINNED_RECORDS = {
    "Baseline": _EMA, "Motion-Guided": _EMA, "AMG-JEPA": _EMA, "Future-Predictive": _EMA,
    "Motion-Future": _EMA, "Kin.-L1": _NO_EMA, "Kin.-Huber": _NO_EMA, "Kin.-Accel": _NO_EMA,
    "Kin.-Split": _NO_EMA, "Kin.-Anneal": _NO_EMA, "SIGReg": _EMA, "SIGReg-no-EMA": _NO_EMA,
    "Hamiltonian": _HAM, "VelGate": _EMA, "Delta-JEPA": _EMA, "LD-JEPA": _EMA,
    "Spectral-JEPA": _EMA, "LTC-JEPA": _EMA, "FWM-JEPA": _FWM, "HW-JEPA": _EMA,
    "HW-LD-JEPA": _EMA, "FWM-LD-JEPA": _FWM, "AC-JEPA": _EMA, "FAC-JEPA": _FWM,
    "AC+HW-JEPA": _EMA, "Combo": _EMA, "FWM-HW-LD": _FWM,
}


class TestPinnedRecords:
    """The checkpoint record set (names, shapes and values of the student,
    heads, teacher and Adam moments) stays what it was when pinned."""

    def test_every_variant_is_pinned(self):
        assert sorted(PINNED_RECORDS) == sorted(VARIANTS)

    @pytest.mark.parametrize("variant", sorted(PINNED_RECORDS))
    def test_initial_records_digest(self, variant):
        cfg = dataclasses.replace(variant_defaults(variant), **PIN_GEOMETRY)
        digest = hashlib.sha256()
        for name, arr in sorted(train_records(init_state(cfg)).items()):
            digest.update(name.encode())
            digest.update(str(arr.shape).encode())
            digest.update(np.asarray(arr, dtype=np.float64).tobytes())
        assert digest.hexdigest() == PINNED_RECORDS[variant]

    @pytest.mark.parametrize("kind,names", [("linear", ["probe.w", "probe.b"]),
                                            ("attentive", ["probe.w", "probe.b", "probe.q"])])
    def test_probe_record_names(self, kind, names):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((8, 6) if kind == "linear" else (8, 3, 6))
        probe = train_probe(feats, np.arange(8) % 2, 2, kind=kind, epochs=1)
        assert list(probe.named()) == names
