"""Schedule, optimizer, EMA wiring, determinism, resume."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from vjlab.config import VARIANTS, RunConfig, variant_defaults
from vjlab.masking import sample_mask
from vjlab.model import save_checkpoint, token_grid
from vjlab.objectives import compose_total
from vjlab.synth import gen_motion_dataset, load_dataset, save_dataset
from vjlab import training
from vjlab.tensor import Tensor, backward
from vjlab.training import (
    STREAM_SIGREG,
    OptState,
    Refused,
    adamw_step,
    batch_bundle,
    batch_parts,
    draw_batch,
    init_opt,
    init_state,
    load_train_state,
    lr_at,
    run_pretrain,
    sample_clip_mask,
    train_records,
    train_step,
)


def small_cfg(variant="Baseline", **kw):
    base = dict(steps=4, batch_size=2, n_per_class=2)
    base.update(kw)
    return dataclasses.replace(variant_defaults(variant), **base)


def f32(x):
    return np.asarray(x, dtype=np.float32).astype(np.float64)


class TestSchedule:
    def test_frozen_points(self):
        assert lr_at(0, 500) == 1e-4
        assert abs(lr_at(25, 500) - 3.5e-4) <= 1e-18
        assert lr_at(50, 500) == 6e-4               # warmup ends at the peak
        assert abs(lr_at(275, 500) - 3e-4) <= 1e-18  # cosine midpoint
        assert lr_at(500, 500) == 0.0

    def test_warmup_rises_then_cosine_falls(self):
        vals = [lr_at(s, 100) for s in range(101)]
        assert all(a < b for a, b in zip(vals[:10], vals[1:11]))
        assert all(a >= b for a, b in zip(vals[10:], vals[11:]))

    def test_no_warmup_starts_at_peak(self):
        assert lr_at(0, 100, warmup_frac=0.0) == 6e-4

    def test_beyond_total_clamps_to_zero(self):
        assert lr_at(1000, 100) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="total"):
            lr_at(0, 0)
        with pytest.raises(ValueError, match="warmup_frac"):
            lr_at(0, 10, warmup_frac=1.0)


class TestAdamW:
    def test_single_step_hand_value(self):
        # unit gradient, zero decay: update is lr * 1 / (1 + eps), then f32
        p = {"w": Tensor(np.zeros(1), requires_grad=True)}
        opt = init_opt(p)
        adamw_step(p, {"w": np.ones(1)}, opt, lr=0.1, weight_decay=0.0)
        want = f32(-0.1 / (1.0 + 1e-8))
        np.testing.assert_array_equal(p["w"].data, want)
        assert opt.step == 1

    def test_decay_is_decoupled(self):
        # zero gradient still shrinks the parameter by lr * wd
        p = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        opt = init_opt(p)
        adamw_step(p, {"w": np.zeros(1)}, opt, lr=0.1, weight_decay=0.04)
        np.testing.assert_array_equal(p["w"].data, f32(2.0 * (1.0 - 0.1 * 0.04)))

    def test_absent_gradient_leaves_param(self):
        p = {"a": Tensor(np.ones(2), requires_grad=True),
             "b": Tensor(np.ones(2), requires_grad=True)}
        opt = init_opt(p)
        adamw_step(p, {"a": np.ones(2)}, opt, lr=0.1)
        np.testing.assert_array_equal(p["b"].data, np.ones(2))
        np.testing.assert_array_equal(opt.m["b"], np.zeros(2))

    def test_state_on_float32_grid(self):
        rng = np.random.default_rng(0)
        p = {"w": Tensor(f32(rng.standard_normal(5)), requires_grad=True)}
        opt = init_opt(p)
        for _ in range(3):
            adamw_step(p, {"w": rng.standard_normal(5)}, opt, lr=0.01)
        np.testing.assert_array_equal(p["w"].data, f32(p["w"].data))
        np.testing.assert_array_equal(opt.m["w"], f32(opt.m["w"]))
        np.testing.assert_array_equal(opt.v["w"], f32(opt.v["w"]))

    def test_two_steps_match_reference_formula(self):
        # independent rebuild of the update rule, without quantization drift:
        # feed f32-grid gradients so both routes stay on representable values
        g1, g2 = np.array([0.25]), np.array([-0.5])
        p = {"w": Tensor(np.zeros(1), requires_grad=True)}
        opt = init_opt(p)
        adamw_step(p, {"w": g1}, opt, lr=0.125, weight_decay=0.0)
        adamw_step(p, {"w": g2}, opt, lr=0.125, weight_decay=0.0)

        theta, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
        for t, g in ((1, g1), (2, g2)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta = theta - 0.125 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            theta, m, v = f32(theta), f32(m), f32(v)
        np.testing.assert_array_equal(p["w"].data, theta)


class TestInitState:
    def test_teacher_presence_follows_variant(self):
        assert init_state(small_cfg("Baseline")).teacher is not None
        assert init_state(small_cfg("Kin.-L1")).teacher is None
        assert init_state(small_cfg("SIGReg-no-EMA")).teacher is None

    def test_teacher_starts_equal_and_frozen(self):
        st = init_state(small_cfg("Baseline"))
        s = st.student.named("enc")
        t = st.teacher.named("enc")
        for k in s:
            np.testing.assert_array_equal(s[k].data, t[k].data)
            assert not t[k].requires_grad

    def test_ham_head_only_for_hamiltonian(self):
        assert init_state(small_cfg("Hamiltonian")).heads.ham is not None
        assert init_state(small_cfg("Baseline")).heads.ham is None

    def test_fwm_heads_consume_dynamics_slice(self):
        st = init_state(small_cfg("FWM-LD-JEPA"))
        assert st.heads.dyn_w1.shape[0] == 16  # dim 32 at app_ratio 0.5
        st2 = init_state(small_cfg("LD-JEPA"))
        assert st2.heads.dyn_w1.shape[0] == 32

    def test_params_start_on_float32_grid(self):
        st = init_state(small_cfg())
        for t in st.trainable().values():
            np.testing.assert_array_equal(t.data, f32(t.data))


class TestBatchAndMasks:
    def test_draw_batch_deterministic(self):
        ds = gen_motion_dataset(2, 0)
        a = draw_batch(ds, 4, seed=1, step=7)
        b = draw_batch(ds, 4, seed=1, step=7)
        assert [id(x) for x in a] == [id(x) for x in b]
        c = draw_batch(ds, 4, seed=1, step=8)
        assert [id(x) for x in a] != [id(x) for x in c]

    def test_tube_mask_partitions_tokens(self):
        cfg = small_cfg()
        st = init_state(cfg)
        clip = gen_motion_dataset(1, 0).clips[0]
        grid = token_grid(st.student, clip)
        mask = sample_clip_mask(cfg, clip, grid, np.random.default_rng(0))
        assert np.array_equal(mask.visible, ~mask.target)

    def test_future_predictive_confines_visible(self):
        cfg = small_cfg("Future-Predictive")
        st = init_state(cfg)
        clip = gen_motion_dataset(1, 0).clips[0]
        grid = token_grid(st.student, clip)
        mask = sample_clip_mask(cfg, clip, grid, np.random.default_rng(0))
        keep = int(np.ceil(cfg.max_temporal_keep * grid[0]))
        assert not mask.visible[keep:].any()
        assert np.array_equal(mask.target, ~mask.visible)  # full complement

    def test_motion_guided_mask_valid(self):
        cfg = small_cfg("Motion-Guided")
        st = init_state(cfg)
        clip = gen_motion_dataset(1, 0).clips[0]
        grid = token_grid(st.student, clip)
        mask = sample_clip_mask(cfg, clip, grid, np.random.default_rng(0))
        mask.validate()


class TestClipParts:
    def test_part_keys_match_variant(self):
        ds = gen_motion_dataset(1, 0)
        for variant, want in [
            ("Baseline", {"jepa"}),
            ("Kin.-L1", {"jepa", "kin"}),
            ("FWM-HW-LD", {"jepa", "hw_jepa", "static", "orth", "ld_hw"}),
            ("FAC-JEPA", {"jepa", "ac", "static", "orth"}),
        ]:
            st = init_state(small_cfg(variant))
            clip = ds.clips[0]
            grid = token_grid(st.student, clip)
            mask = sample_mask(grid, 0.5, np.random.default_rng(1))
            parts = batch_parts(st, [clip], [mask], [np.random.default_rng(2)])
            assert set(parts) == want, variant

    def test_no_ema_targets_match_teacher_at_init(self):
        # teacher == student at step 0, so both target routes agree exactly
        ds = gen_motion_dataset(1, 0)
        clip = ds.clips[0]
        st_t = init_state(small_cfg("Delta-JEPA"))
        st_s = init_state(small_cfg("Kin.-L1"))
        grid = token_grid(st_t.student, clip)
        mask = sample_mask(grid, 0.5, np.random.default_rng(3))
        a = batch_parts(st_t, [clip], [mask], [None])["jepa"].item()
        b = batch_parts(st_s, [clip], [mask], [None])["jepa"].item()
        assert a == b

    def test_teacher_drift_changes_targets(self):
        ds = gen_motion_dataset(1, 0)
        clip = ds.clips[0]
        st = init_state(small_cfg("Baseline"))
        grid = token_grid(st.student, clip)
        mask = sample_mask(grid, 0.5, np.random.default_rng(3))
        before = batch_parts(st, [clip], [mask], [None])["jepa"].item()
        for t in st.teacher.named("enc").values():
            t.data = t.data + 0.05
        after = batch_parts(st, [clip], [mask], [None])["jepa"].item()
        assert before != after

    def test_batch_bundle_averages_parts(self):
        cfg = small_cfg("Kin.-L1")
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        clips = [ds.clips[0], ds.clips[5]]
        grid = token_grid(st.student, clips[0])
        masks = [sample_mask(grid, 0.5, np.random.default_rng(i)) for i in (0, 1)]
        bundle = batch_bundle(st, clips, masks)
        singles = [batch_parts(st, [c], [m], [None]) for c, m in zip(clips, masks)]
        for name, val in bundle.components.items():
            want = np.mean([s[name].item() for s in singles])
            assert abs(val - want) <= 1e-12, name


    @pytest.mark.parametrize("variant", ["Baseline", "SIGReg", "SIGReg-no-EMA", "FWM-HW-LD"])
    def test_sigreg_generators_only_for_sigreg_variants(self, variant, monkeypatch):
        st = init_state(small_cfg(variant))
        clips = gen_motion_dataset(1, 0).clips[:3]
        built = []
        default_rng = np.random.default_rng

        def spy(seed=None):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        batch_bundle(st, clips)
        sigreg = [s for s in built if isinstance(s, list) and s[1] == STREAM_SIGREG]
        want = len(clips) if "sigreg" in VARIANTS[variant].components else 0
        assert sigreg == [[st.cfg.seed, STREAM_SIGREG, 0, i] for i in range(want)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_padded_batch_matches_clips_run_alone(self, variant):
        # 64x64 clips give an 8x8 spatial grid, where visible counts differ
        # from mask to mask, so the batched slabs carry padding
        cfg = small_cfg(variant, height=64, width=64, batch_size=4)
        st = init_state(cfg)
        clips = draw_batch(gen_motion_dataset(1, 0, h=64, w=64), 4, cfg.seed, 0)
        masks = [sample_clip_mask(cfg, c, token_grid(st.student, c),
                                  np.random.default_rng([cfg.seed, 2, 0, i]))
                 for i, c in enumerate(clips)]
        assert len({int(m.visible.sum()) for m in masks}) > 1
        assert len({m.n_targets for m in masks}) > 1 or variant == "Baseline"

        bundle = batch_bundle(st, clips, masks)
        singles = [batch_parts(st, [c], [m], [np.random.default_rng([cfg.seed, 3, 0, i])])
                   for i, (c, m) in enumerate(zip(clips, masks))]
        assert set(bundle.components) == set(singles[0])
        for name, val in bundle.components.items():
            want = np.mean([s[name].item() for s in singles])
            assert abs(val - want) <= 1e-12, name

        params = st.trainable()
        backward(bundle.total_node)
        batched = {k: np.zeros_like(p.data) if p.grad is None else p.grad
                   for k, p in params.items()}
        alone = {k: np.zeros_like(p.data) for k, p in params.items()}
        for parts in singles:
            for p in params.values():
                p.grad = None
            backward(compose_total(cfg, parts).total_node)
            for k, p in params.items():
                if p.grad is not None:
                    alone[k] += p.grad / len(clips)
        for k, g in batched.items():
            assert np.max(np.abs(g - alone[k])) <= 1e-12 * max(1.0, np.max(np.abs(g))), k


# the parts that compare time blocks, and the variants that use any of them
TEMPORAL = {"static", "ld_hw", "kin", "ham", "velgate", "delta", "ld", "spectral", "ltc", "ac"}


class TestSingleTemporalBlock:
    @pytest.mark.parametrize("variant", [v for v, s in VARIANTS.items() if s.components & TEMPORAL])
    def test_temporal_parts_are_zero_and_the_step_is_finite(self, variant):
        # frames = tubelet = 2: a 1x4x4 token grid, no transition to compare
        cfg = small_cfg(variant, frames=2, tubelet=2)
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0, t=2)
        clips = draw_batch(ds, 2, cfg.seed, 0)
        assert token_grid(st.student, clips[0]) == (1, 4, 4)
        masks = [sample_clip_mask(cfg, c, (1, 4, 4), np.random.default_rng([cfg.seed, 2, 0, i]))
                 for i, c in enumerate(clips)]
        sig_rngs = [np.random.default_rng([cfg.seed, 3, 0, i]) for i in range(len(clips))]
        parts = batch_parts(st, clips, masks, sig_rngs)
        assert set(parts) == {"jepa"} | VARIANTS[variant].components
        for name, part in parts.items():
            val = part.item()
            if name in TEMPORAL:
                assert val == 0.0, name
            else:
                assert np.isfinite(val) and val > 0.0, name
        assert np.isfinite(train_step(st, clips)["total"])


class TestTrainStep:
    def test_metrics_and_param_movement(self):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        before = {k: t.data.copy() for k, t in st.trainable().items()}
        m = train_step(st, draw_batch(ds, 2, cfg.seed, 0))
        assert m["step"] == 1
        assert m["lr"] == lr_at(0, cfg.steps, cfg.warmup_frac, cfg.lr_start, cfg.lr_peak)
        assert m["total"] > 0 and "loss_jepa" in m
        moved = [k for k, t in st.trainable().items()
                 if not np.array_equal(before[k], t.data)]
        assert moved  # gradients actually applied

    def test_teacher_follows_ema_of_post_step_student(self):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        t_before = {k: t.data.copy() for k, t in st.teacher.named("enc").items()}
        train_step(st, draw_batch(ds, 2, cfg.seed, 0))
        mom = cfg.ema_momentum
        for k, t in st.teacher.named("enc").items():
            want = f32(mom * t_before[k] + (1.0 - mom) * st.student.named("enc")[k].data)
            np.testing.assert_array_equal(t.data, want)

    def test_teacher_receives_no_gradient(self):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        train_step(st, draw_batch(ds, 2, cfg.seed, 0))
        for t in st.teacher.named("enc").values():
            assert t.grad is None
            assert not t.requires_grad

    def test_non_finite_component_aborts_with_name_and_step(self):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        # poison the predictor's final projection: the forward stays inside
        # finite-range primitives and the NaN surfaces as the jepa component
        st.heads.predictor.out_w.data[...] = np.nan
        with pytest.raises(FloatingPointError, match="step 0.*'jepa'"):
            train_step(st, draw_batch(ds, 2, cfg.seed, 0))

    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch):
        import vjlab.training as training
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        train_step(st, draw_batch(ds, 2, cfg.seed, 0))
        real_backward = training.backward

        def plant_inf(loss):
            real_backward(loss)
            st.student.ln_g.grad[0] = np.inf

        monkeypatch.setattr(training, "backward", plant_inf)
        before = {k: t.data.copy() for k, t in st.trainable().items()}
        with pytest.raises(FloatingPointError,
                           match=r"^step 1: non-finite gradient for 'enc.ln_g'$"):
            train_step(st, draw_batch(ds, 2, cfg.seed, 1))
        assert st.step == 1
        for k, t in st.trainable().items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_explicit_masks_override_sampling(self):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        clips = draw_batch(ds, 2, cfg.seed, 0)
        grid = token_grid(st.student, clips[0])
        masks = [sample_mask(grid, 0.5, np.random.default_rng(9)) for _ in clips]
        st2 = init_state(cfg)
        m1 = train_step(st, clips, masks)
        m2 = train_step(st2, clips, masks)
        assert m1 == m2


class TestGraphSize:
    @staticmethod
    def graph_nodes(root):
        seen = {id(root)}
        stack = [root]
        while stack:
            for parent in stack.pop()._parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen)

    LIMITS = {"Baseline": 95, "Kin.-L1": 109, "SIGReg": 136, "FWM-HW-LD": 149}

    @pytest.mark.parametrize("variant", LIMITS)
    def test_nodes_per_step_at_criterion_8_geometry(self, variant):
        # batch 8, 32x32x8 clips, a 4x4x4 token grid at dim 32; the graph
        # held about 3,800 (Baseline) and 6,200 (FWM-HW-LD) nodes before the
        # fused linear, layer-norm, attention and column-slice ops, 613 and
        # 1,237 before one token slab per batch, 208, 304 (Kin.-L1), 2,312
        # (SIGReg) and 643 before the losses ran once per batch, and 139, 175,
        # 202 and 215 before each transformer block became one node
        limit = self.LIMITS[variant]
        cfg = dataclasses.replace(variant_defaults(variant), batch_size=8, n_per_class=2)
        state = init_state(cfg)
        clips = draw_batch(gen_motion_dataset(2, 0), 8, cfg.seed, 0)
        assert token_grid(state.student, clips[0]) == (4, 4, 4)
        assert self.graph_nodes(batch_bundle(state, clips).total_node) <= limit


class TestMemoryCeilings:
    # the heap bytes allocated since a step began and still held when AdamW
    # starts: a few small objects, measured at 13.4-13.5 kB and 14.2-15.0 kB,
    # since the gradients land in the optimizer's arena, allocated at init;
    # 336.6-338.4 kB and 363.5-365.6 kB while each step's gradients (about 42k
    # and 45k float64 values) took a fresh buffer; 10.8 MB (Baseline) and
    # 19.7 MB (FWM-HW-LD) before backward freed the graph it walked
    HELD_AT_ADAMW = {"Baseline": 16_000, "FWM-HW-LD": 17_000}
    # the step's heap peak: measured at 6.96 MB, 12.90 MB and 6.28 MB; 7.29,
    # 13.25 and 6.61 MB while each step's gradients took a fresh buffer; 8.21,
    # 15.22 and 7.54 MB when each block kept its q/k/v views and attention
    # output for the backward; 11.85 MB and 19.79 MB (Baseline, FWM-HW-LD)
    # when each block's twelve nodes kept every output and the teacher
    # encoded on top of the student's graph
    STEP_PEAK = {"Baseline": 6_970_000, "FWM-HW-LD": 12_900_000, "Motion-Future": 6_285_000}

    @staticmethod
    def traced_second_step(variant, monkeypatch) -> tuple[int, int]:
        """(bytes held when AdamW starts, heap peak) of a step at the
        criterion-8 geometry, after a first step has filled its caches."""
        cfg = dataclasses.replace(variant_defaults(variant), batch_size=8, n_per_class=2)
        state = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        train_step(state, draw_batch(ds, 8, cfg.seed, 0))
        held = []
        adamw_step = training.adamw_step

        def spy(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0] - start)
            return adamw_step(*args, **kwargs)

        monkeypatch.setattr(training, "adamw_step", spy)
        clips = draw_batch(ds, 8, cfg.seed, 1)
        assert token_grid(state.student, clips[0]) == (4, 4, 4)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_step(state, clips)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return held[0], peak

    @pytest.mark.parametrize("variant", HELD_AT_ADAMW)
    def test_bytes_held_when_adamw_starts(self, variant, monkeypatch):
        assert self.traced_second_step(variant, monkeypatch)[0] <= self.HELD_AT_ADAMW[variant]

    @pytest.mark.parametrize("variant", STEP_PEAK)
    def test_heap_peak_of_a_step(self, variant, monkeypatch):
        assert self.traced_second_step(variant, monkeypatch)[1] <= self.STEP_PEAK[variant]

    def test_stored_pixel_bytes_of_a_benchmark_dataset(self):
        # 512 clips of 8x32x32 bool pixels at one bit each; 4 MiB at a byte each
        ds = gen_motion_dataset(64, 0)
        assert sum(clip._stored.nbytes for clip in ds.clips) <= 512 * 1024


def assert_tiles(named, buffers):
    """Each dict of ``buffers`` (name -> array, in ``named``'s order) tiles the
    paired flat buffer: entry i is a view of the i-th slice, of its tensor's shape."""
    for views, flat in buffers:
        at = 0
        for name, t in named.items():
            view = views[name]
            assert view.shape == t.shape, name
            assert np.shares_memory(view, flat[at:at + t.size]), name
            assert not np.shares_memory(view, flat[:at]), name
            at += t.size
        assert at == flat.size


def assert_arena(st):
    """The state's values, moments and teacher live in its flat buffers."""
    params = st.trainable()
    opt = st.opt
    assert_tiles(params, [({k: t.data for k, t in params.items()}, opt.theta),
                          (opt.m, opt.m_flat), (opt.v, opt.v_flat)])
    if opt.grad is not None:  # allocated by the first descend
        assert_tiles(params, [(opt.grads, opt.grad)])
    for name, p in params.items():
        assert p.grad is None or p.grad is opt.grads[name], name
    if st.teacher is not None:
        teacher = st.teacher.named()
        assert_tiles(teacher, [({k: t.data for k, t in teacher.items()}, st.teacher_flat)])
        assert not np.shares_memory(st.teacher_flat, opt.theta)


class TestArena:
    def test_views_after_init_and_a_step(self):
        cfg = small_cfg()
        st = init_state(cfg)
        assert_arena(st)
        ds = gen_motion_dataset(2, 0)
        train_step(st, draw_batch(ds, 2, cfg.seed, 0))
        assert_arena(st)
        assert st.student.embed_w.grad is st.opt.grads["enc.embed_w"]

    def test_views_after_a_resume(self, tmp_path):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        train_step(st, draw_batch(ds, 2, cfg.seed, 0))
        path = tmp_path / "state.jpck"
        save_checkpoint(path, train_records(st))
        back = load_train_state(cfg, path)
        assert_arena(back)
        np.testing.assert_array_equal(back.opt.theta, st.opt.theta)
        np.testing.assert_array_equal(back.teacher_flat, st.teacher_flat)

    def test_teacher_clone_has_its_own_buffer(self):
        st = init_state(small_cfg())
        assert_arena(st)
        np.testing.assert_array_equal(st.teacher_flat, st.opt.theta[:st.teacher_flat.size])
        st.opt.theta += 1.0
        assert not np.array_equal(st.teacher_flat, st.opt.theta[:st.teacher_flat.size])

    @pytest.mark.parametrize("variant,runs", [("Baseline", 2), ("FWM-HW-LD", 2),
                                              ("Hamiltonian", 4)])
    def test_tensors_without_a_gradient_keep_value_and_moments(self, variant, runs,
                                                                monkeypatch):
        cfg = small_cfg(variant)
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        train_step(st, draw_batch(ds, 2, cfg.seed, 0))
        idle = [k for k, p in st.trainable().items() if p.grad is None]
        assert idle and "enc.embed_img_w" in idle
        rng = np.random.default_rng(1)
        for k in idle:  # moments no update would leave as they are by chance
            st.opt.m[k][...] = f32(rng.standard_normal(st.opt.m[k].shape))
            st.opt.v[k][...] = f32(rng.random(st.opt.v[k].shape))
        before = {k: [a.tobytes() for a in (st.trainable()[k].data, st.opt.m[k], st.opt.v[k])]
                  for k in idle}
        seen, runs_of = [], st.opt.runs

        def recorded(grads):
            seen.append(runs_of(grads))
            return seen[-1]

        monkeypatch.setattr(st.opt, "runs", recorded)
        train_step(st, draw_batch(ds, 2, cfg.seed, 1))
        for k in idle:
            now = [a.tobytes() for a in (st.trainable()[k].data, st.opt.m[k], st.opt.v[k])]
            assert now == before[k], k
        assert len(seen[-1]) == runs

    def test_descend_names_the_first_non_finite_parameter(self, monkeypatch):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        real_backward = training.backward

        def plant(loss):
            real_backward(loss)
            st.heads.predictor.out_b.grad[1] = np.inf
            st.student.blocks[0].wq.grad[0, 0] = np.nan

        monkeypatch.setattr(training, "backward", plant)
        before = st.opt.theta.copy()
        with pytest.raises(FloatingPointError,
                           match=r"^step 0: non-finite gradient for 'enc.block0.wq'$"):
            train_step(st, draw_batch(ds, 2, cfg.seed, 0))
        assert st.step == 0
        assert st.opt.theta.tobytes() == before.tobytes()
        assert not st.opt.m_flat.any() and not st.opt.v_flat.any()

    def test_a_gradient_kept_from_a_plain_backward_is_not_overwritten(self):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        clips = draw_batch(ds, 2, cfg.seed, 0)
        masks = [sample_clip_mask(cfg, c, token_grid(st.student, c), np.random.default_rng(i))
                 for i, c in enumerate(clips)]
        backward(batch_bundle(st, clips, masks).total_node)
        kept = st.student.embed_w.grad
        copy = kept.copy()
        train_step(st, clips, masks)  # descend resets the grads and fills its arena
        assert kept.tobytes() == copy.tobytes()
        assert not np.shares_memory(kept, st.opt.grad)


class TestRunAndResume:
    def test_metrics_file_sorted_keys_one_line_per_step(self, tmp_path):
        cfg = small_cfg(out=str(tmp_path / "run"))
        ds = gen_motion_dataset(2, 0)
        run_pretrain(cfg, ds)
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == cfg.steps
        for i, line in enumerate(lines, start=1):
            rec = json.loads(line)
            assert list(rec) == sorted(rec)
            assert rec["step"] == i

    def test_config_snapshot_written(self, tmp_path):
        from vjlab.config import load_config
        cfg = small_cfg(out=str(tmp_path / "run"))
        run_pretrain(cfg, gen_motion_dataset(2, 0))
        assert load_config(tmp_path / "run" / "config.lab") == cfg

    def test_checkpoint_round_trip_exact(self, tmp_path):
        cfg = small_cfg()
        st = init_state(cfg)
        ds = gen_motion_dataset(2, 0)
        for s in range(2):
            train_step(st, draw_batch(ds, 2, cfg.seed, s))
        path = tmp_path / "state.jpck"
        save_checkpoint(path, train_records(st))
        st2 = load_train_state(cfg, path)
        assert st2.step == st.step and st2.opt.step == st.opt.step
        for k, t in st.trainable().items():
            np.testing.assert_array_equal(t.data, st2.trainable()[k].data)
        for k in st.opt.m:
            np.testing.assert_array_equal(st.opt.m[k], st2.opt.m[k])
            np.testing.assert_array_equal(st.opt.v[k], st2.opt.v[k])
        for k, t in st.teacher.named("enc").items():
            np.testing.assert_array_equal(t.data, st2.teacher.named("enc")[k].data)

    @pytest.mark.parametrize("name", ["opt.m.enc.embed_w", "enc.ln_g", "teacher.ln_g"])
    def test_missing_optimizer_record_rejected(self, tmp_path, name):
        from vjlab.model import load_checkpoint, save_checkpoint
        cfg = small_cfg()
        st = init_state(cfg)
        path = tmp_path / "state.jpck"
        save_checkpoint(path, train_records(st))
        records = load_checkpoint(path)
        records.pop(name)
        save_checkpoint(path, records)
        with pytest.raises(Refused, match=rf"missing records \['{name}'\]"):
            load_train_state(cfg, path)

    def test_unknown_checkpoint_record_rejected(self, tmp_path):
        from vjlab.model import load_checkpoint, save_checkpoint
        cfg = small_cfg()
        path = tmp_path / "state.jpck"
        save_checkpoint(path, train_records(init_state(cfg)))
        # a Baseline checkpoint carries teacher records that Kin.-L1 never writes
        with pytest.raises(ValueError, match=r"unknown records \['teacher\."):
            load_train_state(small_cfg("Kin.-L1"), path)
        records = load_checkpoint(path)
        records["enc.stray"] = np.ones(3)
        save_checkpoint(path, records)
        with pytest.raises(ValueError, match=r"unknown records \['enc.stray'\]"):
            load_train_state(cfg, path)

    def test_checkpoint_records_of_another_shape_refused(self, tmp_path):
        path = tmp_path / "state.jpck"
        save_checkpoint(path, train_records(init_state(small_cfg())))
        # FWM heads read only the dynamics channels, so their input widths differ
        with pytest.raises(Refused, match=r"missing records \[\], unknown records \[\], "
                                          r"other shapes \['heads.act_w \(32, 1\) vs \(16, 1\)'"):
            load_train_state(small_cfg("FWM-HW-LD"), path)

    def test_resume_is_bit_exact(self, tmp_path):
        ds = gen_motion_dataset(2, 0)
        straight = small_cfg(out=str(tmp_path / "a"))
        run_pretrain(straight, ds)
        split = small_cfg(out=str(tmp_path / "b"))
        run_pretrain(split, ds, stop_after=2)
        run_pretrain(split, ds, resume=True)
        assert (tmp_path / "a" / "checkpoint.jpck").read_bytes() == \
            (tmp_path / "b" / "checkpoint.jpck").read_bytes()
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "b" / "metrics.jsonl").read_bytes()

    def test_resume_after_crash_drops_unsaved_log_lines(self, tmp_path, monkeypatch):
        import vjlab.training as training
        ds = gen_motion_dataset(2, 0)
        straight = small_cfg(steps=6, out=str(tmp_path / "a"))
        run_pretrain(straight, ds)
        crashed = small_cfg(steps=6, out=str(tmp_path / "b"))
        run_pretrain(crashed, ds, stop_after=3)

        real_step = training.train_step

        def crash_after_step_5(state, clips):
            if state.step == 5:
                raise RuntimeError("simulated crash")
            return real_step(state, clips)

        monkeypatch.setattr(training, "train_step", crash_after_step_5)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_pretrain(crashed, ds, resume=True)  # logs steps 4, 5; no checkpoint
        monkeypatch.setattr(training, "train_step", real_step)
        run_pretrain(crashed, ds, resume=True)

        lines = (tmp_path / "b" / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["step"] for line in lines] == [1, 2, 3, 4, 5, 6]
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert (tmp_path / "a" / "checkpoint.jpck").read_bytes() == \
            (tmp_path / "b" / "checkpoint.jpck").read_bytes()

        # a log that lacks checkpointed steps is refused, not appended to
        (tmp_path / "b" / "metrics.jsonl").write_text(lines[0] + "\n")
        with pytest.raises(ValueError, match="steps 1..6"):
            run_pretrain(crashed, ds, resume=True)

    def test_resume_under_another_config_refused(self, tmp_path):
        ds = gen_motion_dataset(2, 0)
        cfg = small_cfg(out=str(tmp_path / "run"))
        run_pretrain(cfg, ds, stop_after=2)
        saved = (tmp_path / "run" / "config.lab").read_bytes()
        other = dataclasses.replace(small_cfg("Kin.-L1", out=cfg.out), lr_peak=1e-3)
        with pytest.raises(ValueError, match="variant, .*lr_peak"):
            run_pretrain(other, ds, resume=True)
        assert (tmp_path / "run" / "config.lab").read_bytes() == saved
        (tmp_path / "run" / "config.lab").unlink()
        with pytest.raises(ValueError, match="config.lab is missing"):
            run_pretrain(cfg, ds, resume=True)

    def test_identical_runs_identical_bytes(self, tmp_path):
        ds = gen_motion_dataset(2, 0)
        a = small_cfg("HW-JEPA", out=str(tmp_path / "a"))
        b = small_cfg("HW-JEPA", out=str(tmp_path / "b"))
        run_pretrain(a, ds)
        run_pretrain(b, ds)
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert (tmp_path / "a" / "checkpoint.jpck").read_bytes() == \
            (tmp_path / "b" / "checkpoint.jpck").read_bytes()

    @pytest.mark.parametrize("variant", ["Baseline", "Motion-Future"])
    def test_loaded_float32_clips_train_as_rendered_bool_clips(self, tmp_path, variant):
        rendered = gen_motion_dataset(2, 0)
        save_dataset(tmp_path / "clips.synv", rendered)
        loaded = load_dataset(tmp_path / "clips.synv")
        assert rendered.clips[0].pixels.dtype == np.bool_
        assert loaded.clips[0].pixels.dtype == np.float32
        for name, ds in (("rendered", rendered), ("loaded", loaded)):
            run_pretrain(small_cfg(variant, steps=3, out=str(tmp_path / name)), ds)
        for name in ("metrics.jsonl", "checkpoint.jpck"):
            assert (tmp_path / "rendered" / name).read_bytes() == \
                (tmp_path / "loaded" / name).read_bytes(), name

    def test_a_non_finite_metric_is_refused_not_logged(self, tmp_path, monkeypatch):
        import vjlab.training as training
        ds = gen_motion_dataset(2, 0)
        cfg = small_cfg(out=str(tmp_path / "run"))
        run_pretrain(cfg, ds)
        finite = (tmp_path / "run" / "metrics.jsonl").read_bytes()
        real_step = training.train_step

        def nan_total_at_step_2(state, clips):
            metrics = real_step(state, clips)
            if metrics["step"] == 2:
                metrics["total"] = float("nan")
            return metrics

        monkeypatch.setattr(training, "train_step", nan_total_at_step_2)
        with pytest.raises(FloatingPointError, match="^step 1: non-finite metric in"):
            run_pretrain(cfg, ds)
        log = (tmp_path / "run" / "metrics.jsonl").read_bytes()
        assert b"NaN" not in log
        assert log == finite.splitlines(keepends=True)[0]


class TestVariantSweepSmoke:
    def test_every_variant_takes_one_step(self):
        ds = gen_motion_dataset(2, 0)
        for variant in VARIANTS:
            st = init_state(small_cfg(variant))
            m = train_step(st, draw_batch(ds, 2, 0, 0))
            assert np.isfinite(m["total"]), variant
