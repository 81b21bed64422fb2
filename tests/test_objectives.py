"""Loss zoo: frozen values, closed-form oracles, FD gradient checks, composition."""

import dataclasses

import numpy as np
import pytest

from vjlab import verify
from vjlab.config import PART_WEIGHTS, TEMPORAL_PARTS, VARIANTS, RunConfig, variant_defaults
from vjlab.gradcheck import grad_check
from vjlab.fourier import fft_time
from vjlab.model import HamiltonianParams, HeadParams
from vjlab.objectives import (
    KIN_KINDS,
    LossBundle,
    ac_loss,
    ac_targets,
    anneal_coeff,
    compose_total,
    component_weight,
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
    time_diff,
    velgate_loss,
)
from vjlab.synth import VideoClip
from vjlab.tensor import Tensor, backward

GC_TOL = 1e-4


def one(t: Tensor, grid) -> Tensor:
    """[T', gh*gw, dim] latents as a batch of one, [1, T', gh*gw, dim]."""
    tp, gh, gw = grid
    return t.reshape(1, tp, gh * gw, t.shape[-1])


def lat(values, grid) -> Tensor:
    values = np.asarray(values, dtype=np.float64)
    return Tensor(one(Tensor(values), grid).data, requires_grad=True)


def mini_heads(rng, dyn_in, hidden, d, channels=1, act_in=None):
    """Head bundle without a predictor; enough for dyn/action losses."""
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


class TestJepa:
    def test_frozen_single_token(self):
        pred = Tensor(np.array([[[1.0]]]), requires_grad=True)
        loss = jepa_loss(per_token_errors(pred, np.array([[[3.0]]])), np.array([[1.0]]))
        assert loss.item() == 2.0

    def test_weighted_mean_oracle(self):
        rng = np.random.default_rng(3)
        pred = rng.standard_normal((6, 4))
        targ = pred + np.where(rng.standard_normal((6, 4)) > 0, 0.5, -0.5)
        w = rng.uniform(0.5, 1.5, 6)
        w = w / w.mean()
        loss = jepa_loss(per_token_errors(Tensor(pred[None], requires_grad=True), targ[None]),
                         w[None])
        want = float(np.mean(w * np.abs(pred - targ).mean(axis=1)))
        assert abs(loss.item() - want) <= 1e-12

    def test_weights_must_average_one(self):
        pred = Tensor(np.zeros((1, 2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="average to 1"):
            jepa_loss(per_token_errors(pred, np.zeros((1, 2, 2))), np.array([[1.0, 2.0]]))

    def test_shape_mismatch_rejected(self):
        pred = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match="target"):
            per_token_errors(pred, np.zeros((2, 2)))

    def test_analytic_gradient_formula(self):
        # d/dpred = w_i * sign(r_ic) / (K * D)
        rng = np.random.default_rng(7)
        pred_data = rng.standard_normal((5, 3))
        targ = pred_data + np.where(rng.standard_normal((5, 3)) > 0, 0.4, -0.4)
        w = rng.uniform(0.5, 1.5, 5)
        w = w / w.mean()
        pred = Tensor(pred_data[None], requires_grad=True)
        backward(jepa_loss(per_token_errors(pred, targ[None]), w[None]))
        want = w[:, None] * np.sign(pred_data - targ) / (5 * 3)
        np.testing.assert_allclose(pred.grad[0], want, atol=1e-15)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(11)
        pred = rng.standard_normal((4, 3))
        targ = pred + np.where(rng.standard_normal((4, 3)) > 0, 0.3, -0.3)
        w = np.full(4, 1.0)
        rep = grad_check(lambda p: jepa_loss(per_token_errors(p, targ[None]), w[None]),
                         [Tensor(pred[None])])
        assert rep.ok(GC_TOL), rep.max_rel_err


class TestKinematic:
    def test_frozen_linear_fiber(self):
        z = lat(np.arange(4.0).reshape(4, 1, 1), (4, 1, 1))
        assert kinematic_loss(z, "l1").item() == 1.0
        assert kinematic_loss(z, "accel").item() == 0.0

    def test_huber_quadratic_region(self):
        z = lat(np.array([0.0, 0.5]).reshape(2, 1, 1), (2, 1, 1))
        # |v| = 0.5 < delta -> 0.5 * 0.25
        assert abs(kinematic_loss(z, "huber", huber_delta=1.0).item() - 0.125) <= 1e-15

    def test_anneal_kind_same_value_as_l1(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, 2, 2))
        assert kinematic_loss(lat(v, (3, 1, 2)), "anneal").item() == \
            kinematic_loss(lat(v, (3, 1, 2)), "l1").item()

    def test_split_ignores_second_half(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((4, 2, 4))
        noisy = base.copy()
        noisy[..., 2:] = rng.standard_normal((4, 2, 2)) * 50.0
        a = kinematic_loss(lat(base, (4, 1, 2)), "split").item()
        b = kinematic_loss(lat(noisy, (4, 1, 2)), "split").item()
        assert abs(a - b) <= 1e-12

    def test_accel_needs_three_blocks(self):
        z = lat(np.ones((2, 1, 2)), (2, 1, 1))
        with pytest.raises(ValueError, match="3 temporal blocks"):
            kinematic_loss(z, "accel")

    def test_split_needs_even_channels(self):
        z = lat(np.ones((3, 1, 3)), (3, 1, 1))
        with pytest.raises(ValueError, match="even channel"):
            kinematic_loss(z, "split")

    def test_unknown_kind(self):
        z = lat(np.ones((2, 1, 2)), (2, 1, 1))
        with pytest.raises(ValueError, match="kinematic kind"):
            kinematic_loss(z, "l2")

    def test_grads_match_fd(self):
        rng = np.random.default_rng(5)
        # alternating-sign increments: every residual sits 0.2 from the L1
        # kink and no coordinate's sign contributions cancel to zero
        inc = rng.uniform(0.2, 1.0, (3, 2, 3)) * np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)
        start = rng.standard_normal((1, 2, 3))
        v = np.concatenate([start, start + np.cumsum(inc, axis=0)], axis=0)
        for kind in ("l1", "accel"):
            rep = grad_check(lambda t: kinematic_loss(one(t, (4, 1, 2)), kind), [Tensor(v)])
            assert rep.ok(GC_TOL), (kind, rep.max_rel_err)

    def test_huber_grad_matches_fd(self):
        rng = np.random.default_rng(6)
        v = np.cumsum(rng.uniform(0.3, 0.7, (3, 1, 4)), axis=0)  # |vel| well inside (0, delta)
        rep = grad_check(
            lambda t: kinematic_loss(one(t, (3, 1, 1)), "huber", huber_delta=1.0), [Tensor(v)]
        )
        assert rep.ok(GC_TOL), rep.max_rel_err


class TestAnneal:
    def test_endpoints_and_midpoint(self):
        assert anneal_coeff(0, 100) == 1.0
        assert abs(anneal_coeff(50, 100) - 0.5) <= 1e-15
        assert abs(anneal_coeff(100, 100)) <= 1e-15
        assert anneal_coeff(250, 100) == anneal_coeff(100, 100)

    def test_monotone_decreasing(self):
        vals = [anneal_coeff(s, 200) for s in range(0, 201, 10)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            anneal_coeff(0, 0)


class TestSigreg:
    def test_all_zero_latents_frozen_penalty(self):
        verify.sigreg_degenerate_penalty()

    def test_gaussian_latents_small_penalty(self):
        rng = np.random.default_rng(2)
        z = lat(rng.standard_normal((8, 64, 6)), (8, 8, 8))
        loss = sigreg_loss(z, 4, [np.random.default_rng(3)])
        assert loss.item() < 0.5

    def test_mean_shift_raises_penalty(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((4, 8, 4))
        lo = sigreg_loss(lat(base, (4, 4, 2)), 4, [np.random.default_rng(0)]).item()
        hi = sigreg_loss(lat(base + 5.0, (4, 4, 2)), 4, [np.random.default_rng(0)]).item()
        assert hi > lo + 10.0  # mean^2 ~ 25 per direction

    def test_needs_eight_tokens(self):
        z = lat(np.ones((1, 4, 3)), (1, 2, 2))
        with pytest.raises(ValueError, match="at least 8 tokens"):
            sigreg_loss(z, 2, [np.random.default_rng(0)])

    def test_deterministic_given_rng(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((2, 4, 5))
        a = sigreg_loss(lat(z, (2, 2, 2)), 3, [np.random.default_rng(7)]).item()
        b = sigreg_loss(lat(z, (2, 2, 2)), 3, [np.random.default_rng(7)]).item()
        assert a == b

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((8, 4))
        rep = grad_check(lambda t: sigreg_loss(t, 2, [np.random.default_rng(5)]), [Tensor(z[None])])
        assert rep.ok(GC_TOL), rep.max_rel_err


def _quad_ham(d, p_only=True):
    """Zeroed energy net plus diag quadratic: H = 0.5 * ||p||^2 when p_only."""
    h = 3
    quad = np.zeros(d)
    quad[d // 2:] = 1.0
    if not p_only:
        quad[:] = 1.0
    t = lambda a: Tensor(a, requires_grad=True)
    return HamiltonianParams(
        w1=t(np.zeros((d, h))), b1=t(np.zeros(h)),
        w2=t(np.zeros(h)), b2=t(np.zeros(1)), quad=t(quad),
    )


class TestHamiltonian:
    def test_hand_set_kinetic_energy_zero_residual(self):
        # q advances by the constant momentum each block: exact flow of H = ||p||^2 / 2
        ham = _quad_ham(4)
        p = np.array([0.3, -0.2])
        q0 = np.array([0.1, 0.5])
        traj = np.stack([np.concatenate([q0 + i * p, p]) for i in range(3)])
        vals = np.tile(traj[:, None, :], (1, 2, 1))
        loss = hamiltonian_loss(lat(vals, (3, 1, 2)), ham)
        assert abs(loss.item()) <= 1e-12

    def test_violating_trajectory_penalized(self):
        ham = _quad_ham(4)
        rng = np.random.default_rng(3)
        loss = hamiltonian_loss(lat(rng.standard_normal((3, 2, 4)), (3, 1, 2)), ham)
        assert loss.item() > 0.01

    def test_frozen_pure_drift(self):
        # static latents, momentum 1: |dq - p| = 1 per q channel, |dp + 0| = 0
        ham = _quad_ham(2)
        vals = np.tile(np.array([0.0, 1.0]), (2, 1, 1))
        loss = hamiltonian_loss(lat(vals, (2, 1, 1)), ham)
        assert abs(loss.item() - 1.0) <= 1e-12

    def test_odd_width_rejected(self):
        ham = _quad_ham(4)
        with pytest.raises(ValueError, match="even channel"):
            hamiltonian_loss(lat(np.ones((2, 1, 3)), (2, 1, 1)), ham)

    def test_grad_matches_fd_through_net_and_latents(self):
        rng = np.random.default_rng(8)
        d, h = 4, 3
        vals = rng.standard_normal((3, 2, d))
        w1 = rng.standard_normal((d, h)) * 0.4
        b1 = rng.standard_normal(h) * 0.1
        w2 = rng.standard_normal(h) * 0.4
        quad = rng.standard_normal(d) * 0.3

        def f(v, a, b, c, q):
            ham = HamiltonianParams(w1=a, b1=b, w2=c, b2=Tensor(np.zeros(1)), quad=q)
            return hamiltonian_loss(one(v, (3, 1, 2)), ham)

        rep = grad_check(f, [Tensor(vals), Tensor(w1), Tensor(b1), Tensor(w2), Tensor(quad)])
        assert rep.ok(GC_TOL), rep.max_rel_err


class TestVelgate:
    def test_static_tokens_are_gated(self):
        v = np.zeros((3, 2, 2))
        v[:, 1, :] = np.arange(3)[:, None] * 10.0
        assert velgate_loss(lat(v, (3, 1, 2))).item() == 0.0

    def test_frozen_slow_half_velocity(self):
        v = np.zeros((3, 2, 1))
        v[:, 0, 0] = [0.0, 0.1, 0.2]   # slow: velocity 0.1
        v[:, 1, 0] = [0.0, 10.0, 20.0]  # fast, excluded by the gate
        loss = velgate_loss(lat(v, (3, 1, 2)))
        assert abs(loss.item() - 0.1) <= 1e-12

    def test_tie_breaks_to_lower_index(self):
        # equal velocities: gradient must reach token 0 only
        v = np.zeros((3, 2, 1))
        v[:, 0, 0] = [0.0, 1.0, 2.0]
        v[:, 1, 0] = [0.0, 1.0, 2.0]
        z = lat(v, (3, 1, 2))
        backward(velgate_loss(z))
        g = z.grad[0]
        assert np.any(g[:, 0, :] != 0.0)
        assert np.all(g[:, 1, :] == 0.0)

    def test_short_clip_or_single_token_zero(self):
        assert velgate_loss(lat(np.ones((3, 1, 2)), (3, 1, 1))).item() == 0.0

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(12)
        # gate ranking separated by orders of magnitude; alternating-sign
        # increments keep every gated coordinate's gradient away from zero
        alt = np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)
        slow = np.concatenate([np.zeros((1, 2, 2)),
                               np.cumsum(rng.uniform(0.1, 0.3, (3, 2, 2)) * alt, axis=0)])
        fast = np.cumsum(rng.uniform(20.0, 30.0, (4, 2, 2)), axis=0)
        v = np.concatenate([slow, fast], axis=1)
        rep = grad_check(lambda t: velgate_loss(one(t, (4, 2, 2))), [Tensor(v)])
        assert rep.ok(GC_TOL), rep.max_rel_err


class TestDelta:
    def test_matching_velocity_zero(self):
        verify.loss_zero_identities()

    def test_frozen_constant_gap(self):
        h = np.zeros((3, 1, 1))
        z = np.cumsum(np.full((3, 1, 1), 0.3), axis=0)
        assert abs(delta_loss(lat(z, (3, 1, 1)), h[None]).item() - 0.3) <= 1e-12

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal((3, 2, 2))
        z = h + np.cumsum(np.full((3, 2, 2), 0.4), axis=0)
        rep = grad_check(lambda t: delta_loss(one(t, (3, 1, 2)), h[None]), [Tensor(z)])
        assert rep.ok(GC_TOL), rep.max_rel_err


class TestLatentDynamics:
    def test_zero_head_constant_targets(self):
        rng = np.random.default_rng(0)
        heads = mini_heads(rng, 4, 3, 4)
        for t in (heads.dyn_w1, heads.dyn_w2):
            t.data[...] = 0.0
        h = np.ones((3, 2, 4))
        z = lat(rng.standard_normal((3, 2, 4)), (3, 1, 2))
        assert ld_loss(heads, z, h[None]).item() == 0.0

    def test_zero_head_frozen_delta(self):
        rng = np.random.default_rng(1)
        heads = mini_heads(rng, 2, 3, 2)
        for t in (heads.dyn_w1, heads.dyn_w2):
            t.data[...] = 0.0
        h = np.cumsum(np.full((3, 1, 2), 0.25), axis=0)
        z = lat(np.zeros((3, 1, 2)), (3, 1, 1))
        assert abs(ld_loss(heads, z, h[None]).item() - 0.25) <= 1e-12

    def test_fwm_route_ignores_appearance_channels(self):
        rng = np.random.default_rng(3)
        heads = mini_heads(rng, 2, 3, 4)  # dyn head consumes the 2 dynamics channels
        base = rng.standard_normal((3, 2, 4))
        h = rng.standard_normal((3, 2, 4))
        a = ld_loss(heads, lat(base, (3, 1, 2)), h[None], fwm=True, app_ratio=0.5).item()
        poked = base.copy()
        poked[..., :2] += 100.0
        b = ld_loss(heads, lat(poked, (3, 1, 2)), h[None], fwm=True, app_ratio=0.5).item()
        assert a == b

    def test_error_vector_length(self):
        rng = np.random.default_rng(4)
        heads = mini_heads(rng, 3, 4, 3)
        z = lat(rng.standard_normal((4, 2, 3)), (4, 1, 2))
        e = ld_errors(heads, z, rng.standard_normal((1, 4, 2, 3)), False, 0.5)
        assert e.shape == (1, 6)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(14)
        d, hid = 3, 4
        vals = rng.standard_normal((3, 2, d))
        h = rng.standard_normal((3, 2, d)) + 2.0  # residuals pushed away from 0
        w1 = rng.standard_normal((d, hid)) * 0.3
        w2 = rng.standard_normal((hid, d)) * 0.3

        def f(v, a, b, c, e):
            heads = HeadParams(predictor=None, dyn_w1=a, dyn_b1=b, dyn_w2=c, dyn_b2=e,
                               act_w=Tensor(np.zeros((d, 1))), act_b=Tensor(np.zeros(1)))
            return ld_loss(heads, one(v, (3, 1, 2)), h[None])

        rep = grad_check(f, [Tensor(vals), Tensor(w1), Tensor(np.zeros(hid)),
                             Tensor(w2), Tensor(np.zeros(d))])
        assert rep.ok(GC_TOL), rep.max_rel_err


class TestSpectral:
    def test_matching_latents_zero(self):
        verify.loss_zero_identities()

    def test_dc_shift_invisible(self):
        # constant offsets live entirely in bin 0, which carries weight 0
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 2, 3))
        assert spectral_loss(lat(h + 3.0, (4, 1, 2)), h[None]).item() <= 1e-12

    def test_frozen_two_block_value(self):
        # T'=2: bins (sum, difference), weights (0, 1)
        h = np.zeros((2, 1, 1))
        z = np.array([0.2, -0.1]).reshape(2, 1, 1)
        loss = spectral_loss(lat(z, (2, 1, 1)), h[None])
        assert abs(loss.item() - 0.15) <= 1e-12  # |0.2 - (-0.1)| / 2

    def test_oracle_via_fft(self):
        # independent route: radix-2 FFT per fiber instead of the matrix form
        rng = np.random.default_rng(2)
        tp, ns, d = 4, 2, 3
        zv = rng.standard_normal((tp, ns, d))
        h = rng.standard_normal((tp, ns, d))
        loss = spectral_loss(lat(zv, (tp, 1, 2)), h[None]).item()
        fibers_z = zv.reshape(tp, ns * d).T
        fibers_h = h.reshape(tp, ns * d).T
        w = np.arange(tp) / (tp - 1)
        acc = []
        for fz, fh in zip(fibers_z, fibers_h):
            sz = fft_time(fz)
            sh = fft_time(fh)
            acc.append(w * (np.abs(sz.real - sh.real) + np.abs(sz.imag - sh.imag)))
        want = float(np.mean(acc))
        assert abs(loss - want) <= 1e-9

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(15)
        h = rng.standard_normal((4, 2, 2))
        z = h + rng.uniform(0.5, 1.0, (4, 2, 2))
        zt = spectral_loss(lat(z, (4, 1, 2)), h[None])
        assert zt.item() > 0.01
        rep = grad_check(lambda t: spectral_loss(one(t, (4, 1, 2)), h[None]), [Tensor(z)])
        assert rep.ok(2e-4), rep.max_rel_err


class TestTemporalContrast:
    def test_equal_targets_pay_margin(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((3, 2, 2))
        loss = ltc_loss(lat(h.copy(), (3, 1, 2)), np.tile(h[0], (3, 1, 1))[None], margin=0.5)
        assert abs(loss.item() - 0.5) <= 1e-12

    def test_aligned_current_beats_zero_next(self):
        z = np.tile(np.array([1.0, 0.0]), (2, 1, 1))
        h = z.copy()
        h[1] = 0.0  # next-step target is the zero vector: cosine 0
        assert ltc_loss(lat(z, (2, 1, 1)), h[None], margin=0.5).item() == 0.0

    def test_zero_latents_pay_margin(self):
        h = np.tile(np.array([1.0, 0.0]), (2, 1, 1))
        loss = ltc_loss(lat(np.zeros((2, 1, 2)), (2, 1, 1)), h[None], margin=0.5)
        assert abs(loss.item() - 0.5) <= 1e-12

    def test_frozen_partial_alignment(self):
        z = np.tile(np.array([1.0, 0.0]), (2, 1, 1))
        h = np.zeros((2, 1, 2))
        h[0] = [1.0, 0.0]
        h[1] = [1.0, 1.0]
        want = 1.0 / np.sqrt(2.0) - 1.0 + 0.5
        loss = ltc_loss(lat(z, (2, 1, 1)), h[None], margin=0.5)
        assert abs(loss.item() - want) <= 1e-12

    def test_margin_validation_and_single_block(self):
        with pytest.raises(ValueError, match="margin"):
            ltc_loss(lat(np.ones((2, 1, 2)), (2, 1, 1)), np.ones((1, 2, 1, 2)), margin=0.0)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(16)
        z = rng.standard_normal((3, 2, 3)) + 1.0  # rows well away from the origin
        h = rng.standard_normal((3, 2, 3)) + 1.0
        loss = ltc_loss(lat(z, (3, 1, 2)), h[None], margin=0.5)
        assert loss.item() > 0.05  # hinge active somewhere, not grazing zero
        rep = grad_check(lambda t: ltc_loss(one(t, (3, 1, 2)), h[None], margin=0.5), [Tensor(z)])
        assert rep.ok(2e-4), rep.max_rel_err


class TestFwm:
    def test_static_appearance_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, 2, 4))
        v[..., :2] = v[0, :, :2]  # appearance channels frozen in time
        s, _ = fwm_losses(lat(v, (3, 1, 2)), 0.5)
        assert s.item() == 0.0

    def test_frozen_static_value(self):
        v = np.zeros((3, 1, 2))
        v[:, 0, 0] = [0.0, 0.2, 0.4]  # appearance channel drifts by 0.2
        s, _ = fwm_losses(lat(v, (3, 1, 1)), 0.5)
        assert abs(s.item() - 0.2) <= 1e-12

    def test_orth_closed_form(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((3, 2, 6))
        _, o = fwm_losses(lat(v, (3, 1, 2)), 0.5)
        flat = v.reshape(6, 6)
        app, dyn = flat[:, :3], flat[:, 3:]
        ca = app - app.mean(axis=0)
        cd = dyn - dyn.mean(axis=0)
        want = float(np.sum((ca.T @ cd) ** 2) / 6)
        assert abs(o.item() - want) <= 1e-12

    def test_orth_zero_for_constant_dynamics(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((2, 2, 4))
        v[..., 2:] = 7.0  # constant columns center to zero
        _, o = fwm_losses(lat(v, (2, 1, 2)), 0.5)
        assert o.item() <= 1e-20

    def test_single_block_static_zero_orth_alive(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((1, 4, 4))
        s, o = fwm_losses(lat(v, (1, 2, 2)), 0.5)
        assert s.item() == 0.0
        assert o.item() > 0.0

    def test_grads_match_fd(self):
        rng = np.random.default_rng(17)
        inc = rng.uniform(0.2, 0.8, (2, 2, 4)) * np.array([1.0, -1.0]).reshape(2, 1, 1)
        start = rng.standard_normal((1, 2, 4))
        v = np.concatenate([start, start + np.cumsum(inc, axis=0)], axis=0)

        def f_static(t):
            return fwm_losses(one(t, (3, 1, 2)), 0.5)[0]

        def f_orth(t):
            return fwm_losses(one(t, (3, 1, 2)), 0.5)[1]

        assert grad_check(f_static, [Tensor(v)]).ok(GC_TOL)
        assert grad_check(f_orth, [Tensor(v)]).ok(2e-4)


class TestHardWeights:
    def test_sum_equals_token_count(self):
        verify.hard_weight_normalization()

    def test_uniform_errors_give_unit_weights(self):
        w = hard_weights(np.full((1, 8), 0.37), tau=1.0)
        np.testing.assert_allclose(w.data, np.ones((1, 8)), atol=1e-12)

    def test_frozen_two_token_values(self):
        w = hard_weights(np.array([[0.0, 20.0]]), tau=1.0).data[0]
        e20 = np.exp(20.0)
        np.testing.assert_allclose(w, [2.0 / (1.0 + e20), 2.0 * e20 / (1.0 + e20)], rtol=1e-12)

    def test_extreme_errors_stay_finite(self):
        verify.hard_weight_normalization()

    def test_temperature_flattens(self):
        e = np.array([[0.0, 1.0, 2.0, 5.0]])
        sharp = hard_weights(e, tau=0.5).data
        flat = hard_weights(e, tau=10.0).data
        assert sharp.max() > flat.max()

    def test_detached_from_graph(self):
        e = Tensor(np.array([[0.1, 0.9]]), requires_grad=True)
        w = hard_weights(e, tau=1.0)
        assert not w.requires_grad

    def test_hw_loss_gradient_treats_weights_constant(self):
        # d/de of mean(w * e) with w detached is exactly w / N
        e = Tensor(np.array([[0.2, 0.4, 0.9]]), requires_grad=True)
        w = hard_weights(e, tau=1.0)
        backward(hw_jepa_loss(e, tau=1.0))
        np.testing.assert_allclose(e.grad, w.data / 3.0, atol=1e-15)

    def test_uniform_matches_unweighted(self):
        e_data = np.full((1, 5), 0.6)
        e = Tensor(e_data, requires_grad=True)
        assert abs(hw_jepa_loss(e, tau=1.0).item() - 0.6) <= 1e-12

    def test_explicit_weights_respected(self):
        e = Tensor(np.array([[1.0, 3.0]]), requires_grad=True)
        loss = hw_jepa_loss(e, tau=1.0, weights=np.array([[2.0, 0.0]]))
        assert abs(loss.item() - 1.0) <= 1e-12

    def test_weight_shape_checked(self):
        e = Tensor(np.array([[1.0, 3.0]]), requires_grad=True)
        with pytest.raises(ValueError, match="weights"):
            hw_jepa_loss(e, weights=np.ones((1, 3)))
        with pytest.raises(ValueError, match="slab"):
            hard_weights(np.ones(2))


class TestActionConditioning:
    def test_targets_oracle(self):
        rng = np.random.default_rng(0)
        t, h, w, c, patch, tub = 4, 4, 4, 1, 2, 2
        clip = VideoClip(rng.uniform(0, 1, (t, h, w, c)))
        got = ac_targets(clip, patch, tub)
        bm = clip.pixels.reshape(t // tub, tub, h, w, c).mean(axis=1)
        rows = []
        for i in range(t // tub - 1):
            for gy in range(h // patch):
                for gx in range(w // patch):
                    block = bm[i + 1, gy * patch:(gy + 1) * patch, gx * patch:(gx + 1) * patch]
                    prev = bm[i, gy * patch:(gy + 1) * patch, gx * patch:(gx + 1) * patch]
                    rows.append((block - prev).mean(axis=(0, 1)))
        np.testing.assert_allclose(got, np.array(rows), atol=1e-15)

    def test_static_clip_zero_with_zero_head(self):
        rng = np.random.default_rng(1)
        heads = mini_heads(rng, 3, 2, 3, channels=1)
        heads.act_w.data[...] = 0.0
        clip = VideoClip(np.full((4, 4, 4, 1), 0.5))
        z = lat(rng.standard_normal((2, 4, 3)), (2, 2, 2))
        assert ac_loss(heads, z, [clip], patch=2, tubelet=2).item() == 0.0

    def test_frozen_uniform_brightening(self):
        rng = np.random.default_rng(2)
        heads = mini_heads(rng, 3, 2, 3, channels=1)
        heads.act_w.data[...] = 0.0
        pix = np.zeros((4, 4, 4, 1))
        pix[2:] = 0.5  # second block brighter by 0.5 everywhere
        z = lat(rng.standard_normal((2, 4, 3)), (2, 2, 2))
        loss = ac_loss(heads, z, [VideoClip(pix)], patch=2, tubelet=2)
        assert abs(loss.item() - 0.5) <= 1e-12

    def test_fwm_route_uses_dynamics_slice(self):
        rng = np.random.default_rng(4)
        heads = mini_heads(rng, 2, 2, 2, channels=1, act_in=2)
        base = rng.standard_normal((2, 4, 4))
        clip = VideoClip(rng.uniform(0, 1, (4, 4, 4, 1)))
        a = ac_loss(heads, lat(base, (2, 2, 2)), [clip], 2, 2, fwm=True, app_ratio=0.5).item()
        poked = base.copy()
        poked[..., :2] -= 9.0
        b = ac_loss(heads, lat(poked, (2, 2, 2)), [clip], 2, 2, fwm=True, app_ratio=0.5).item()
        assert a == b

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(18)
        d, c = 3, 1
        vals = rng.standard_normal((2, 4, d))
        clip = VideoClip(rng.uniform(0, 1, (4, 4, 4, c)))

        def f(v, aw, ab):
            heads = HeadParams(predictor=None,
                               dyn_w1=Tensor(np.zeros((d, 2))), dyn_b1=Tensor(np.zeros(2)),
                               dyn_w2=Tensor(np.zeros((2, d))), dyn_b2=Tensor(np.zeros(d)),
                               act_w=aw, act_b=ab)
            return ac_loss(heads, one(v, (2, 2, 2)), [clip], 2, 2)

        aw = rng.standard_normal((d, c)) * 0.3
        ab = np.full(c, 2.0)  # bias pushes residuals away from the L1 kink
        rep = grad_check(f, [Tensor(vals), Tensor(aw), Tensor(ab)])
        assert rep.ok(GC_TOL), rep.max_rel_err


class TestCompose:
    def test_frozen_recipe_total(self):
        verify.compose_recipe_frozen()

    def test_baseline_total_is_jepa(self):
        cfg = variant_defaults("Baseline")
        bundle = compose_total(cfg, {"jepa": Tensor(0.42)})
        assert bundle.total == 0.42

    def test_missing_part_named(self):
        cfg = variant_defaults("HW-LD-JEPA")
        with pytest.raises(ValueError, match="requires part 'hw_jepa'"):
            compose_total(cfg, {"jepa": Tensor(0.1), "ld_hw": Tensor(0.1)})

    def test_extra_part_named(self):
        cfg = variant_defaults("Baseline")
        with pytest.raises(ValueError, match="does not use part 'kin'"):
            compose_total(cfg, {"jepa": Tensor(0.1), "kin": Tensor(0.1)})

    def test_anneal_schedule_applied(self):
        cfg = dataclasses.replace(variant_defaults("Kin.-Anneal"), anneal_horizon=100).validate()
        parts = lambda: {"jepa": Tensor(1.0), "kin": Tensor(2.0)}
        assert abs(compose_total(cfg, parts(), step=0).total - 1.2) <= 1e-12
        assert abs(compose_total(cfg, parts(), step=50).total - 1.1) <= 1e-12
        assert abs(compose_total(cfg, parts(), step=100).total - 1.0) <= 1e-12

    def test_plain_kin_not_annealed(self):
        cfg = variant_defaults("Kin.-L1")
        parts = lambda: {"jepa": Tensor(1.0), "kin": Tensor(2.0)}
        assert compose_total(cfg, parts(), step=0).total == \
            compose_total(cfg, parts(), step=10**6).total

    def test_non_finite_component_names_itself(self):
        cfg = variant_defaults("Delta-JEPA")
        with pytest.raises(FloatingPointError, match="'delta'"):
            compose_total(cfg, {"jepa": Tensor(0.1), "delta": Tensor(float("nan"))})

    def test_negative_component_rejected(self):
        bundle = LossBundle(components={"jepa": -0.1}, total=-0.1)
        with pytest.raises(ValueError, match="negative"):
            bundle.validate(variant_defaults("Baseline"))

    def test_total_node_carries_gradient(self):
        cfg = variant_defaults("Delta-JEPA")
        a = Tensor(np.array(0.3), requires_grad=True)
        b = Tensor(np.array(0.8), requires_grad=True)
        bundle = compose_total(cfg, {"jepa": a * 1.0, "delta": b * 1.0})
        backward(bundle.total_node)
        assert a.grad == 1.0
        assert b.grad == cfg.lambda_delta

    def test_component_order_is_fixed(self):
        cfg = variant_defaults("FWM-HW-LD")
        parts = {k: Tensor(v) for k, v in
                 [("ld_hw", 0.5), ("orth", 0.4), ("static", 0.3), ("hw_jepa", 0.2), ("jepa", 0.1)]}
        again = compose_total(cfg, dict(reversed(list(parts.items()))))
        first = compose_total(cfg, parts)
        assert first.total == again.total
        assert list(first.components) == [k for k in PART_WEIGHTS if k in first.components]


class TestVariantRegistry:
    def test_all_labels_present(self):
        assert len(VARIANTS) == 27
        for label in ["Baseline", "Motion-Guided", "AMG-JEPA", "Future-Predictive",
                      "Motion-Future", "Kin.-L1", "Kin.-Huber", "Kin.-Accel", "Kin.-Split",
                      "Kin.-Anneal", "SIGReg", "SIGReg-no-EMA", "Hamiltonian", "VelGate",
                      "Delta-JEPA", "LD-JEPA", "Spectral-JEPA", "LTC-JEPA", "FWM-JEPA",
                      "HW-JEPA", "HW-LD-JEPA", "FWM-LD-JEPA", "AC-JEPA", "FAC-JEPA",
                      "AC+HW-JEPA", "Combo", "FWM-HW-LD"]:
            assert label in VARIANTS, label

    def test_kinematic_variants_drop_ema(self):
        for label, spec in VARIANTS.items():
            if spec.kin_kind is not None:
                assert not spec.ema, label
                assert spec.components == {"kin"}, label

    def test_masking_defaults(self):
        mg = variant_defaults("Motion-Guided")
        assert mg.motion_guided and mg.motion_guided_strength == 2.0
        assert mg.motion_guided_random_rate == 0.1
        amg = variant_defaults("AMG-JEPA")
        assert amg.motion_guided_strength == 5.0
        assert amg.motion_guided_random_rate == 0.0
        fp = variant_defaults("Future-Predictive")
        assert fp.full_complement and fp.max_temporal_keep == 0.5
        mf = variant_defaults("Motion-Future")
        assert mf.motion_guided and mf.full_complement

    def test_hw_coefficient_defaults(self):
        assert variant_defaults("HW-JEPA").lambda_hw == 0.3
        assert variant_defaults("AC+HW-JEPA").lambda_hw == 0.3
        assert variant_defaults("Combo").lambda_hw == 0.3
        assert variant_defaults("HW-LD-JEPA").lambda_hw == 1.0
        assert variant_defaults("FWM-HW-LD").lambda_hw == 1.0

    def test_combo_recipe_and_masking(self):
        combo = variant_defaults("Combo")
        assert VARIANTS["Combo"].components == {"delta", "hw_jepa"}
        assert combo.motion_guided_strength == 5.0

    def test_fwm_flag(self):
        for label in ["FWM-JEPA", "FWM-LD-JEPA", "FAC-JEPA", "FWM-HW-LD"]:
            assert VARIANTS[label].fwm, label
        assert not VARIANTS["HW-JEPA"].fwm

    def test_overrides_win(self):
        cfg = dataclasses.replace(variant_defaults("Motion-Guided"),
                                  motion_guided_strength=7.0, lambda_kin=0.2).validate()
        assert cfg.motion_guided_strength == 7.0
        assert cfg.lambda_kin == 0.2

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            variant_defaults("Baseline2")
        with pytest.raises(ValueError, match="unknown variant"):
            RunConfig(variant="nope").validate()

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="lambda_kin"):
            RunConfig(lambda_kin=-0.1).validate()
        with pytest.raises(ValueError, match="positive"):
            RunConfig(tau=0.0).validate()
        with pytest.raises(ValueError, match="app_ratio"):
            RunConfig(app_ratio=1.0).validate()
        with pytest.raises(ValueError, match="anneal_horizon"):
            RunConfig(anneal_horizon=0).validate()
        with pytest.raises(ValueError, match="sigreg_projections"):
            RunConfig(sigreg_projections=0).validate()

    def test_component_weights(self):
        cfg = variant_defaults("SIGReg")
        assert component_weight(cfg, "sigreg") == 1.0
        assert component_weight(cfg, "jepa") == 1.0
        cfg = dataclasses.replace(variant_defaults("Spectral-JEPA"), lambda_spec=0.25).validate()
        assert component_weight(cfg, "spectral") == 0.25


class TestOneTemporalBlock:
    # each loss of a part in TEMPORAL_PARTS but static, which fwm_losses
    # computes with orth; called on a 1x2x2 grid of 4 channels
    CALLS = {
        **{f"kin-{kind}": lambda z, h, heads, clip, kind=kind: kinematic_loss(z, kind)
           for kind in KIN_KINDS},
        "ham": lambda z, h, heads, clip: hamiltonian_loss(z, _quad_ham(4)),
        "velgate": lambda z, h, heads, clip: velgate_loss(z),
        "delta": lambda z, h, heads, clip: delta_loss(z, h),
        "ld": lambda z, h, heads, clip: ld_loss(heads, z, h),
        "ld_hw": lambda z, h, heads, clip: ld_errors(heads, z, h, False, 0.5),
        "spectral": lambda z, h, heads, clip: spectral_loss(z, h),
        "ltc": lambda z, h, heads, clip: ltc_loss(z, h),
        "ac": lambda z, h, heads, clip: ac_loss(heads, z, [clip], patch=2, tubelet=2),
    }

    @pytest.mark.parametrize("part", CALLS)
    def test_temporal_loss_refuses_one_block(self, part):
        z = lat(np.ones((1, 4, 4)), (1, 2, 2))
        heads = mini_heads(np.random.default_rng(3), 4, 2, 4)
        clip = VideoClip(np.zeros((2, 4, 4, 1)))
        with pytest.raises(ValueError, match="two steps"):
            self.CALLS[part](z, np.ones((1, 1, 4, 4)), heads, clip)

    def test_every_temporal_part_but_static_is_called_above(self):
        assert {name.split("-")[0] for name in self.CALLS} == TEMPORAL_PARTS - {"static"}


class TestTimeDiff:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 2, 3))
        got = time_diff(Tensor(x, requires_grad=True))
        np.testing.assert_allclose(got.data, np.diff(x, axis=1), atol=0)

    def test_needs_two_steps(self):
        with pytest.raises(ValueError, match="two steps"):
            time_diff(Tensor(np.ones((2, 1, 2)), requires_grad=True))
