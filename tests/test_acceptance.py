"""Ten-point acceptance battery; one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see each line as it
completes. Tolerances are the binding ones, not looser stand-ins; the
directional training comparison (criterion 8) trains two full encoders
and dominates the suite's runtime.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import chi2

from vjlab.cli import main as lab_main
from vjlab.config import VARIANTS, RunConfig, variant_defaults
from vjlab.fourier import fft_time, ifft_time
from vjlab.gradcheck import grad_check
from vjlab.masking import MotionEnergy, sample_mask
from vjlab.model import (
    HamiltonianParams,
    HeadParams,
    encode,
    init_encoder,
    init_heads,
    predict_masked,
    full_grid,
    teacher_targets,
    token_grid,
)
from vjlab.objectives import (
    ac_loss,
    delta_loss,
    fwm_losses,
    hamiltonian_loss,
    hard_weights,
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
from vjlab.probing import synthetic_benchmark
from vjlab.synth import Dataset, MixtureSpec, gen_motion_dataset, image_as_clip, sample_mixture
from vjlab.tensor import Tensor, backward
from vjlab.training import (
    STREAM_MASK,
    STREAM_SIGREG,
    draw_batch,
    init_state,
    run_pretrain,
    sample_clip_mask,
    train_step,
)

GC_TOL = 1e-4

# criterion 8 shared budget: both arms identical except the objective
MOTION_SEED = 0
MOTION_STEPS = 500
MOTION_BATCH = 8
MOTION_N_PER_CLASS = 64
MOTION_PROBE_TRAIN = 32
MOTION_PROBE_TEST = 16


def conclude(n: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[acceptance {n:02d}] {status}  {label}{suffix}")
    assert ok, f"criterion {n} ({label}) {detail}"


def one(t, grid):
    """[T', gh*gw, dim] latents as a batch of one, [1, T', gh*gw, dim]."""
    tp, gh, gw = grid
    return t.reshape(1, tp, gh * gw, t.shape[-1])


def lat(values, grid):
    values = np.asarray(values, dtype=np.float64)
    return Tensor(one(Tensor(values), grid).data, requires_grad=True)


def mini_heads(rng, dyn_in, hidden, d, channels=1, act_in=None):
    act_in = dyn_in if act_in is None else act_in
    t = lambda a: Tensor(a, requires_grad=True)
    return HeadParams(
        predictor=None,
        dyn_w1=t(rng.standard_normal((dyn_in, hidden)) * 0.3),
        dyn_b1=t(np.zeros(hidden)),
        dyn_w2=t(rng.standard_normal((hidden, d)) * 0.3),
        dyn_b2=t(np.zeros(d)),
        act_w=t(rng.standard_normal((act_in, channels)) * 0.3),
        act_b=t(np.zeros(channels)),
    )


def alternating_walk(rng, t, s, d):
    """Latent trajectory whose increments flip sign each step: every L1
    term keeps a stable sign under FD probing, none sits on a kink."""
    start = rng.uniform(-1.0, 1.0, (1, s, d))
    inc = rng.uniform(0.2, 1.0, (t - 1, s, d))
    signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(t - 1)])
    inc = inc * signs.reshape(-1, 1, 1)
    return np.concatenate([start, start + np.cumsum(inc, axis=0)])


class TestCriterion1GradientOracle:
    def test_all_losses_pass_fd_within_budget(self):
        t0 = time.monotonic()
        grid = (2, 2, 2)
        d = 8
        rng = np.random.default_rng(11)
        worst = {}

        def check(name, f, inputs, tol=GC_TOL):
            rep = grad_check(f, inputs)
            worst[name] = rep.max_rel_err
            assert rep.ok(tol), f"{name}: max rel err {rep.max_rel_err:.3e}"

        # masked prediction, residuals held away from the L1 kink
        pred0 = rng.standard_normal((8, d))
        targets = pred0 + rng.choice([-1.0, 1.0], (8, d)) * rng.uniform(0.4, 1.2, (8, d))
        w = rng.uniform(0.5, 1.5, 8)
        w = w / w.mean()
        check("jepa", lambda p: jepa_loss(per_token_errors(p, targets[None]), w[None]),
              [Tensor(pred0[None].copy(), requires_grad=True)])

        walk2 = alternating_walk(rng, 2, 4, d)
        walk3 = alternating_walk(rng, 3, 4, d)
        check("kin_l1", lambda v: kinematic_loss(one(v, grid), "l1"),
              [Tensor(walk2.copy(), requires_grad=True)])
        check("kin_huber", lambda v: kinematic_loss(one(v, grid), "huber", 1.0),
              [Tensor(walk2.copy(), requires_grad=True)])
        check("kin_accel", lambda v: kinematic_loss(one(v, (3, 2, 2)), "accel"),
              [Tensor(walk3.copy(), requires_grad=True)])
        check("kin_split", lambda v: kinematic_loss(one(v, (3, 2, 2)), "split"),
              [Tensor(walk3.copy(), requires_grad=True)])

        z8 = rng.standard_normal((2, 4, d))
        check("sigreg", lambda v: sigreg_loss(one(v, grid), 4,
                                              [np.random.default_rng(3)]),
              [Tensor(z8.copy(), requires_grad=True)])

        ham = HamiltonianParams(
            w1=Tensor(rng.standard_normal((d, 3)) * 0.3, requires_grad=True),
            b1=Tensor(rng.standard_normal(3) * 0.1, requires_grad=True),
            w2=Tensor(rng.standard_normal(3) * 0.3, requires_grad=True),
            b2=Tensor(np.zeros(1), requires_grad=True),
            quad=Tensor(rng.uniform(0.2, 1.0, d), requires_grad=True),
        )
        zham = alternating_walk(rng, 2, 4, d)
        check("hamiltonian",
              lambda v, w1, b1, w2, quad: hamiltonian_loss(
                  one(v, grid),
                  HamiltonianParams(w1=w1, b1=b1, w2=w2, b2=ham.b2, quad=quad)),
              [Tensor(zham.copy(), requires_grad=True), ham.w1, ham.b1, ham.w2, ham.quad])

        vel = alternating_walk(rng, 2, 4, d)
        vel[1] = vel[0] + np.arange(1, 4 * d + 1).reshape(4, d) * 0.05  # distinct velocities
        check("velgate", lambda v: velgate_loss(one(v, grid)),
              [Tensor(vel.copy(), requires_grad=True)])

        h = rng.standard_normal((2, 4, d))
        zdelta = h + rng.choice([-1.0, 1.0], (2, 4, d)) * rng.uniform(0.3, 0.9, (2, 4, d))
        check("delta", lambda v: delta_loss(one(v, grid), h[None]),
              [Tensor(zdelta.copy(), requires_grad=True)])

        heads = mini_heads(rng, d, 5, d)
        zld = rng.standard_normal((2, 4, d))
        check("ld", lambda v, w1, b1, w2, b2: ld_loss(
                  HeadParams(predictor=None, dyn_w1=w1, dyn_b1=b1, dyn_w2=w2,
                             dyn_b2=b2, act_w=heads.act_w, act_b=heads.act_b),
                  one(v, grid), h[None]),
              [Tensor(zld.copy(), requires_grad=True),
               heads.dyn_w1, heads.dyn_b1, heads.dyn_w2, heads.dyn_b2])

        zspec = h + rng.choice([-1.0, 1.0], (2, 4, d)) * rng.uniform(0.5, 1.5, (2, 4, d))
        check("spectral", lambda v: spectral_loss(one(v, grid), h[None]),
              [Tensor(zspec.copy(), requires_grad=True)], tol=2e-4)

        zltc = rng.standard_normal((2, 4, d)) * 2.0
        check("ltc", lambda v: ltc_loss(one(v, grid), h[None], 0.5),
              [Tensor(zltc.copy(), requires_grad=True)], tol=2e-4)

        zfwm = alternating_walk(rng, 2, 4, d)
        check("fwm_static", lambda v: fwm_losses(one(v, grid), 0.5)[0],
              [Tensor(zfwm.copy(), requires_grad=True)])
        check("fwm_orth", lambda v: fwm_losses(one(v, grid), 0.5)[1],
              [Tensor(zfwm.copy(), requires_grad=True)])

        # weights are detached inside the losses; freezing them at the
        # unperturbed point keeps FD and the analytic gradient comparable
        w_hw = hard_weights(per_token_errors(Tensor(pred0[None]), targets[None]), 1.0).data
        check("hw_jepa", lambda p: hw_jepa_loss(per_token_errors(p, targets[None]),
                                                1.0, weights=w_hw),
              [Tensor(pred0[None].copy(), requires_grad=True)])
        ld_f = lambda v, w1, w2: ld_errors(
            HeadParams(predictor=None, dyn_w1=w1, dyn_b1=heads.dyn_b1,
                       dyn_w2=w2, dyn_b2=heads.dyn_b2,
                       act_w=heads.act_w, act_b=heads.act_b),
            one(v, grid), h[None], False, 0.5)
        w_ld = hard_weights(ld_f(Tensor(zld.copy()), heads.dyn_w1, heads.dyn_w2), 1.0).data
        check("ld_hw", lambda v, w1, w2: hw_jepa_loss(ld_f(v, w1, w2), 1.0, weights=w_ld),
              [Tensor(zld.copy(), requires_grad=True), heads.dyn_w1, heads.dyn_w2])

        clip = image_as_clip(np.zeros((8, 8, 1)))
        clip = dataclasses.replace(
            clip, pixels=np.random.default_rng(5).uniform(0.0, 1.0, (2, 8, 8, 1)))
        ac_heads = mini_heads(rng, d, 5, d, channels=1, act_in=d)
        ac_heads.act_b.data[:] = 2.0  # residuals pushed off the L1 kink
        zac = rng.standard_normal((2, 2, 2, d)).reshape(2, 4, d)
        check("ac", lambda v, aw, ab: ac_loss(
                  HeadParams(predictor=None, dyn_w1=ac_heads.dyn_w1, dyn_b1=ac_heads.dyn_b1,
                             dyn_w2=ac_heads.dyn_w2, dyn_b2=ac_heads.dyn_b2,
                             act_w=aw, act_b=ab),
                  one(v, grid), [clip], patch=4, tubelet=1),
              [Tensor(zac.copy(), requires_grad=True), ac_heads.act_w, ac_heads.act_b])

        # encoder -> predictor end to end: the gradients at both ends pass
        # back through every linear, layer-norm, attention, gather and concat
        mcfg = RunConfig(patch=4, tubelet=1, dim=8, heads=2, layers=1, ff=8,
                         pred_layers=1, pred_heads=2)
        enc = init_encoder(mcfg, rng)
        predictor = init_heads(mcfg, rng).predictor
        for t in [*enc.named().values(), *predictor.named().values()]:
            t.data = rng.standard_normal(t.shape) * 0.5
        mask = sample_mask((2, 2, 2), 0.5, rng)
        w_out = rng.standard_normal((mask.n_targets, d))

        def enc_pred(ew, eb, token):
            z, _ = encode(dataclasses.replace(enc, embed_w=ew, embed_b=eb), [clip],
                          [mask.visible])
            out = predict_masked(dataclasses.replace(predictor, mask_token=token), z, [mask])
            return (out * Tensor(w_out[None])).sum()

        check("encode_predict", enc_pred, [enc.embed_w, enc.embed_b, predictor.mask_token])

        elapsed = time.monotonic() - t0
        top = max(worst.values())
        conclude(1, "gradient oracle over the full loss zoo",
                 elapsed < 60.0,
                 f"{len(worst)} losses, max rel err {top:.2e}, {elapsed:.1f}s")


class TestCriterion2HardWeightIdentities:
    def test_sum_uniform_and_extreme(self):
        rng = np.random.default_rng(21)
        max_dev = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            e = rng.standard_normal((1, n)) * rng.uniform(0.1, 10.0)
            w = hard_weights(Tensor(e), tau=rng.uniform(0.5, 2.0))
            max_dev = max(max_dev, abs(float(w.data.sum()) - n))
        assert max_dev <= 1e-9, max_dev

        e_u = Tensor(np.full((1, 16), 0.7))
        hw = hw_jepa_loss(e_u, 1.0).item()
        assert abs(hw - 0.7) <= 1e-12

        w_ext = hard_weights(np.array([[0.0, 1e6, 3.0, -2.0]]), tau=1.0).data
        assert np.all(np.isfinite(w_ext)) and abs(w_ext.sum() - 4.0) <= 1e-9
        conclude(2, "hard-weight normalization, uniform identity, 1e6 clipping",
                 True, f"max |sum-N| {max_dev:.1e} over 1000 vectors")


class TestCriterion3ZeroCases:
    def test_analytic_zero_identities(self):
        rng = np.random.default_rng(31)
        grid, d = (2, 2, 2), 8
        checks = {}

        # appearance slice constant over time; spatial app/dyn patterns
        # orthogonal after centering
        p_app = np.array([1.0, 1.0, -1.0, -1.0])
        p_dyn = np.array([1.0, -1.0, 1.0, -1.0])
        vals = np.zeros((2, 4, d))
        vals[:, :, :4] = p_app.reshape(1, 4, 1) * np.array([1.0, 2.0, -1.5, 0.5])
        vals[:, :, 4:] = p_dyn.reshape(1, 4, 1) * np.array([0.7, -1.1, 2.0, 1.3])
        static, orth = fwm_losses(lat(vals, grid), 0.5)
        checks["static"] = static.item()
        checks["orth"] = orth.item()

        h = rng.standard_normal((2, 4, d))
        checks["delta"] = delta_loss(lat(h.copy(), grid), h[None]).item()
        checks["spectral"] = spectral_loss(lat(h.copy(), grid), h[None]).item()

        pred = rng.standard_normal((5, d))
        checks["jepa"] = jepa_loss(per_token_errors(Tensor(pred[None].copy(), requires_grad=True),
                                                    pred[None]), np.ones((1, 5))).item()

        # teacher fiber with constant delta; head biased to exactly that delta
        const_delta = rng.standard_normal(d)
        h_lin = np.cumsum(np.broadcast_to(const_delta, (3, 4, d)), axis=0)
        t = lambda a: Tensor(a, requires_grad=True)
        perfect = HeadParams(
            predictor=None,
            dyn_w1=t(np.zeros((d, 3))), dyn_b1=t(np.zeros(3)),
            dyn_w2=t(np.zeros((3, d))), dyn_b2=t(const_delta.copy()),
            act_w=t(np.zeros((d, 1))), act_b=t(np.zeros(1)),
        )
        checks["ld"] = ld_loss(perfect, lat(h_lin.copy(), (3, 2, 2)), h_lin[None]).item()

        bad = {k: v for k, v in checks.items() if not abs(v) <= 1e-12}
        conclude(3, "analytically forced zero cases at 1e-12",
                 not bad, ", ".join(f"{k}={v:.1e}" for k, v in checks.items()))


def _np_softmax_weights(e, tau):
    s = np.clip(e / tau, -20.0, 20.0)
    s = s - s.max()
    w = np.exp(s)
    return w / w.sum() * e.shape[0]


def _np_gelu(x):
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _recompute_fwm_hw_ld(state, clips, step):
    """Line-by-line re-execution of the composed training loss in numpy."""
    cfg = state.cfg
    app = int(round(cfg.app_ratio * cfg.dim))
    parts = {k: [] for k in ("jepa", "hw_jepa", "static", "orth", "ld_hw")}
    for i, clip in enumerate(clips):
        rng = np.random.default_rng([cfg.seed, STREAM_MASK, step, i])
        mask = sample_clip_mask(cfg, clip, token_grid(state.student, clip), rng)
        z_vis, _ = encode(state.student, [clip], visible=[mask.visible])
        pred = predict_masked(state.heads.predictor, z_vis, [mask]).data[0]
        z = full_grid(state.student, [clip]).data[0]
        h_flat = teacher_targets(state.teacher, [clip])[0]
        targets = h_flat[mask.target_indices]

        e = np.abs(pred - targets).mean(axis=1)
        parts["jepa"].append(float((mask.distance_weight * e).mean()))
        parts["hw_jepa"].append(float((_np_softmax_weights(e, cfg.tau) * e).mean()))

        tp, gh, gw = token_grid(state.student, clip)
        zg = z.reshape(tp, gh * gw, cfg.dim)
        hg = h_flat.reshape(tp, gh * gw, cfg.dim)
        z_app, z_dyn = zg[..., :app], zg[..., app:]
        parts["static"].append(float(np.abs(np.diff(z_app, axis=0)).mean()))

        n = tp * gh * gw
        af = z_app.reshape(n, -1)
        df = z_dyn.reshape(n, -1)
        cross = (af - af.mean(axis=0)).T @ (df - df.mean(axis=0))
        parts["orth"].append(float((cross ** 2).sum() / n))

        x = z_dyn[:-1].reshape(-1, cfg.dim - app)
        hidden = _np_gelu(x @ state.heads.dyn_w1.data + state.heads.dyn_b1.data)
        dhat = hidden @ state.heads.dyn_w2.data + state.heads.dyn_b2.data
        e_ld = np.abs(dhat - np.diff(hg, axis=0).reshape(-1, cfg.dim)).mean(axis=1)
        parts["ld_hw"].append(float((_np_softmax_weights(e_ld, cfg.tau) * e_ld).mean()))

    avg = {k: float(np.mean(v)) for k, v in parts.items()}
    total = (avg["jepa"] + cfg.lambda_hw * avg["hw_jepa"] + cfg.lambda_s * avg["static"]
             + cfg.lambda_o * avg["orth"] + cfg.lambda_d * avg["ld_hw"])
    return avg, total


class TestCriterion4CompositionEquivalence:
    def test_twenty_batches_match_independent_recompute(self):
        cfg = dataclasses.replace(variant_defaults("FWM-HW-LD"),
                                  steps=20, batch_size=4, n_per_class=2, seed=4)
        assert (cfg.lambda_d, cfg.lambda_s, cfg.lambda_o, cfg.lambda_hw) == \
            (1.0, 0.05, 0.01, 1.0)
        state = init_state(cfg)
        ds = gen_motion_dataset(cfg.n_per_class, cfg.seed)
        worst = 0.0
        for step in range(20):
            clips = draw_batch(ds, cfg.batch_size, cfg.seed, step)
            want, want_total = _recompute_fwm_hw_ld(state, clips, step)
            metrics = train_step(state, clips)
            for name, val in want.items():
                dev = abs(metrics[f"loss_{name}"] - val)
                worst = max(worst, dev)
                assert dev <= 1e-9, f"step {step} {name}: {dev:.2e}"
            dev = abs(metrics["total"] - want_total)
            worst = max(worst, dev)
            assert dev <= 1e-9, f"step {step} total: {dev:.2e}"
        conclude(4, "composed loss equals line-by-line recompute over 20 batches",
                 True, f"max component deviation {worst:.1e}")


class TestCriterion5MaskingDistributions:
    def test_distribution_checks(self):
        grid = (4, 4, 4)
        n = 10_000
        counts = np.zeros((2, 16))
        rng_a = np.random.default_rng(100)
        rng_b = np.random.default_rng(200)
        zero_en = MotionEnergy(scores=np.zeros((4, 4)))
        for _ in range(n):
            for row, spec in enumerate([
                sample_mask(grid, 0.5, rng_a),
                sample_mask(grid, 0.5, rng_b, energy=zero_en, alpha=0.0, fallback_rate=0.0),
            ]):
                for r, c in spec.centers:
                    counts[row, r * 4 + c] += 1
        expected = counts.sum(axis=1, keepdims=True) * counts.sum(axis=0) / counts.sum()
        stat = float(((counts - expected) ** 2 / expected).sum())
        crit = float(chi2.ppf(0.999, df=15))
        assert stat < crit, f"chi-square {stat:.1f} >= {crit:.1f}"

        rng = np.random.default_rng(42)
        en = MotionEnergy(scores=np.eye(4))
        hits = sum(sample_mask(grid, 0.5, rng, energy=en, alpha=2.0,
                               fallback_rate=0.1).used_fallback for _ in range(n))
        fb = hits / n
        assert abs(fb - 0.10) <= 0.01, fb

        scores = np.zeros((4, 4))
        scores[1, 2] = 1.0
        rng = np.random.default_rng(7)
        amg = variant_defaults("AMG-JEPA")
        assert (amg.motion_guided_strength, amg.motion_guided_random_rate) == (5.0, 0.0)
        hit = sum((1, 2) in sample_mask(
            grid, 0.5, rng, energy=MotionEnergy(scores=scores), alpha=amg.motion_guided_strength,
            fallback_rate=amg.motion_guided_random_rate).centers
            for _ in range(1000))
        assert hit >= 950, hit

        rng = np.random.default_rng(9)
        for _ in range(200):
            fp = sample_mask(grid, 0.5, rng, 0.5, True)
            assert not fp.visible[2:].any()

        conclude(5, "mask distributions: uniform equivalence, fallback rate, "
                    "concentration, temporal confinement",
                 True, f"chi2 {stat:.1f} < {crit:.1f}, fallback {fb:.3f}, "
                       f"concentration {hit}/1000")


class TestCriterion6TeacherIsolation:
    def test_every_variant_leaves_teacher_gradient_free(self):
        ds = gen_motion_dataset(1, 6)
        for name in VARIANTS:
            cfg = dataclasses.replace(variant_defaults(name),
                                      steps=2, batch_size=2, n_per_class=1, seed=6)
            state = init_state(cfg)
            if state.teacher is None:
                continue
            t_named = state.teacher.named("enc")
            before = {k: t.data.copy() for k, t in t_named.items()}
            s_named = state.student.named("enc")
            clips = draw_batch(ds, 2, cfg.seed, 0)
            train_step(state, clips)
            m = cfg.ema_momentum
            for k, t in t_named.items():
                assert t.grad is None or not np.any(t.grad), f"{name}: {k}"
                want = m * before[k] + (1.0 - m) * s_named[k].data
                want = want.astype(np.float32).astype(np.float64)
                assert np.array_equal(t.data, want), f"{name}: EMA mismatch for {k}"
        conclude(6, "teacher gradient isolation and exact EMA step, all variants", True)


class TestCriterion7MixtureProportions:
    def test_30000_draws_hit_weights(self):
        datasets = []
        for label in range(3):
            img = np.full((16, 16, 1), (label + 1) / 4.0)
            datasets.append(Dataset(clips=[image_as_clip(img, label=label)]))
        spec = MixtureSpec(entries=[(datasets[0], 0.2), (datasets[1], 0.6),
                                    (datasets[2], 0.2)], seed=7)
        clips = sample_mixture(spec, 30_000)
        freqs = np.bincount([c.label for c in clips], minlength=3) / 30_000
        dev = np.abs(freqs - np.array([0.2, 0.6, 0.2])).max()
        conclude(7, "mixed sampling proportions within 0.01", dev <= 0.01,
                 f"max deviation {dev:.4f}")


class TestCriterion8MotionDirection:
    def test_kinematic_probe_beats_baseline_by_ten_points(self, tmp_path):
        t0 = time.monotonic()
        accs = {}
        for variant in ("Baseline", "Kin.-L1"):
            cfg = dataclasses.replace(
                variant_defaults(variant),
                seed=MOTION_SEED, steps=MOTION_STEPS, batch_size=MOTION_BATCH,
                n_per_class=MOTION_N_PER_CLASS,
                out=str(tmp_path / variant.lower().replace(".", "")),
            ).validate()
            assert cfg.lambda_kin == 0.1
            ds = gen_motion_dataset(cfg.n_per_class, cfg.seed,
                                    t=cfg.frames, h=cfg.height, w=cfg.width)
            state = run_pretrain(cfg, dataset=ds)
            rep = synthetic_benchmark(state.student, cfg,
                                      n_train_per_class=MOTION_PROBE_TRAIN,
                                      n_test_per_class=MOTION_PROBE_TEST)
            accs[variant] = rep.accuracy
        elapsed = time.monotonic() - t0
        gap = accs["Kin.-L1"] - accs["Baseline"]
        conclude(8, "kinematic-L1 probe exceeds baseline by 10 points",
                 gap >= 0.10 and elapsed <= 1800.0,
                 f"baseline {accs['Baseline']:.4f}, kinematic {accs['Kin.-L1']:.4f}, "
                 f"gap {100 * gap:+.2f}pp, {elapsed:.0f}s")


class TestCriterion9Determinism:
    def test_identical_runs_and_exact_resume(self, tmp_path):
        cfg_text = (
            "variant = Baseline\nsteps = 6\nbatch_size = 2\nn_per_class = 2\nseed = 3\n"
        )
        conf = tmp_path / "det.lab"
        conf.write_text(cfg_text)
        for name in ("a", "b"):
            rc = lab_main(["pretrain", "--config", str(conf),
                           "--out", str(tmp_path / name)])
            assert rc == 0
        log_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert log_a == log_b and len(log_a.splitlines()) == 6

        cfg = dataclasses.replace(variant_defaults("Baseline"), steps=6,
                                  batch_size=2, n_per_class=2, seed=3,
                                  out=str(tmp_path / "resume"))
        run_pretrain(cfg, stop_after=3)
        run_pretrain(cfg, resume=True)
        log_r = (tmp_path / "resume" / "metrics.jsonl").read_bytes()
        assert log_r == log_a
        ck_a = (tmp_path / "a" / "checkpoint.jpck").read_bytes()
        ck_r = (tmp_path / "resume" / "checkpoint.jpck").read_bytes()
        assert ck_a == ck_r
        conclude(9, "byte-identical metrics logs and bit-exact resume", True,
                 "6-step runs, resume split at step 3")


class TestCriterion10FourierOracle:
    def test_thousand_fibers_vs_naive_dft(self):
        rng = np.random.default_rng(101)
        worst = worst_rt = 0.0
        for t in (8, 12, 16):  # radix-2 and direct fallback paths
            x = rng.standard_normal((1000, t))
            k = np.arange(t)
            ang = 2.0 * np.pi * np.outer(k, k) / t
            naive = x.astype(np.complex128) @ np.exp(-1j * ang)
            series = fft_time(x, axis=1)
            got = series.real + 1j * series.imag
            worst = max(worst, float(np.abs(got - naive).max()))
            back = ifft_time(series)
            worst_rt = max(worst_rt, float(np.abs(back - x).max()))
        ok = worst <= 1e-9 and worst_rt <= 1e-9
        conclude(10, "fft matches naive DFT on 1000 fibers per length and inverts",
                 ok, f"max DFT dev {worst:.1e}, round trip {worst_rt:.1e}")
