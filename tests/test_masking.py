"""Mask sampler checks: coverage bands, guidance distributions, weights."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from vjlab import verify
from vjlab.masking import (
    MaskSpec,
    MotionEnergy,
    _categorical_sampler,
    distance_weights,
    motion_energy,
    sample_future_predictive,
    sample_motion_guided,
    sample_tube_mask,
)
from vjlab.synth import MotionClass, gen_motion_clip, image_as_clip

GRID = (4, 4, 4)  # desk-scale token grid


def loop_distance_weights(visible, target):
    """Per-target reference for the vectorized distance_weights."""
    vis_all = np.argwhere(visible)
    raw = []
    for t, r, c in np.argwhere(target):
        in_block = vis_all[vis_all[:, 0] == t]
        if len(in_block):
            d = np.min(np.maximum(np.abs(in_block[:, 1] - r), np.abs(in_block[:, 2] - c)))
        else:
            d = np.min(np.abs(vis_all - (t, r, c)).max(axis=1))
        raw.append(1.0 / (1.0 + float(d)))
    raw = np.array(raw, dtype=np.float64)
    return raw / raw.mean()


class TestTubeMask:
    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_coverage_band_and_extrusion(self, seed):
        verify.mask_coverage_band(seed=seed)

    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_given_seed(self, seed):
        a = sample_tube_mask(GRID, 0.5, np.random.default_rng(seed))
        b = sample_tube_mask(GRID, 0.5, np.random.default_rng(seed))
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.distance_weight, b.distance_weight)

    def test_partition(self):
        spec = sample_tube_mask(GRID, 0.5, np.random.default_rng(0))
        assert np.all(spec.target ^ spec.visible)

    def test_infeasible_ratio_rejected(self):
        with pytest.raises(ValueError, match="cannot hit"):
            sample_tube_mask((1, 2, 2), 0.1, np.random.default_rng(0))

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="mask_ratio"):
            sample_tube_mask(GRID, 1.5, np.random.default_rng(0))


class TestMotionEnergy:
    def test_translate_clip_argmax_on_trajectory(self):
        clip = gen_motion_clip(MotionClass.TRANSLATE_RIGHT, np.random.default_rng(4))
        en = motion_energy(clip, patch=8)
        # independent pixel-diff route
        diff = np.abs(np.diff(clip.pixels, axis=0)).mean(axis=(0, 3))
        want = diff.reshape(4, 8, 4, 8).mean(axis=(1, 3))
        assert np.argmax(en.scores) == np.argmax(want)
        assert en.scores.max() == pytest.approx(1.0)

    def test_static_clip_zero_energy(self):
        still = np.repeat(
            gen_motion_clip(MotionClass.ROTATE_CW, np.random.default_rng(1)).pixels[:1],
            8,
            axis=0,
        )
        from vjlab.synth import VideoClip

        en = motion_energy(VideoClip(pixels=still), patch=8)
        assert np.all(en.scores == 0.0)

    def test_single_frame_zero_energy(self):
        clip = image_as_clip(np.random.default_rng(0).uniform(size=(32, 32, 1)))
        en = motion_energy(clip, patch=8)
        assert np.all(en.scores == 0.0)

    def test_indivisible_patch_rejected(self):
        clip = image_as_clip(np.zeros((30, 32, 1)))
        with pytest.raises(ValueError, match="divisible"):
            motion_energy(clip, patch=8)

    def test_unnormalized_energy_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            MotionEnergy(scores=np.full((2, 2), 0.5))


class TestMotionGuided:
    def test_alpha_zero_matches_tube_distribution(self):
        """Two-sample chi-square over pooled block centers, 10k draws each."""
        n = 10_000
        counts = np.zeros((2, 16))
        rng_a = np.random.default_rng(100)
        rng_b = np.random.default_rng(200)
        en = MotionEnergy(scores=np.zeros((4, 4)))
        for _ in range(n):
            for row, spec in enumerate(
                [
                    sample_tube_mask(GRID, 0.5, rng_a),
                    sample_motion_guided(GRID, 0.5, en, alpha=0.0, fallback_rate=0.0, rng=rng_b),
                ]
            ):
                for r, c in spec.centers:
                    counts[row, r * 4 + c] += 1
        row_tot = counts.sum(axis=1, keepdims=True)
        col_tot = counts.sum(axis=0, keepdims=True)
        expected = row_tot * col_tot / counts.sum()
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, df=15), stat

    def test_fallback_rate_frequency(self):
        rng = np.random.default_rng(42)
        en = MotionEnergy(scores=np.eye(4))
        hits = sum(
            sample_motion_guided(GRID, 0.5, en, alpha=2.0, fallback_rate=0.1, rng=rng).used_fallback
            for _ in range(10_000)
        )
        assert abs(hits / 10_000 - 0.10) <= 0.01

    def test_concentrated_energy_dominates_centers(self):
        scores = np.zeros((4, 4))
        scores[1, 2] = 1.0
        rng = np.random.default_rng(7)
        hit = 0
        for _ in range(1000):
            spec = sample_motion_guided(
                GRID, 0.5, MotionEnergy(scores=scores), alpha=5.0, fallback_rate=0.0, rng=rng
            )
            hit += (1, 2) in spec.centers
        assert hit >= 950

    def test_zero_energy_degrades_to_uniform(self):
        # images / static clips: sampler must still work
        spec = sample_motion_guided(
            (1, 4, 4), 0.5, MotionEnergy(scores=np.zeros((4, 4))), alpha=5.0,
            fallback_rate=0.0, rng=np.random.default_rng(0)
        )
        spec.validate()

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64).filter(lambda w: sum(w) > 0))
    @settings(max_examples=80, deadline=None)
    def test_categorical_sampler_matches_choice_draw_for_draw(self, seed, weights):
        p = np.array(weights) / np.sum(weights)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = _categorical_sampler(p, ours)
        for _ in range(40):  # interleaved with other draws, as in the block loop
            assert draw() == int(ref.choice(len(p), p=p))
            assert ours.integers(1, 5) == ref.integers(1, 5)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_categorical_sampler_checks_p_like_choice(self):
        for p in (np.full(4, 0.3), np.array([0.5, np.nan, 0.5, 0.0]),
                  np.array([1.5, -0.5, 0.0, 0.0]), np.full((2, 2), 0.25)):
            with pytest.raises(ValueError) as ours:
                _categorical_sampler(p, np.random.default_rng(0))
            with pytest.raises(ValueError) as ref:
                np.random.default_rng(0).choice(len(p), p=p)
            assert str(ours.value) == str(ref.value)

    def test_energy_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            sample_motion_guided(
                GRID, 0.5, MotionEnergy(scores=np.zeros((2, 2))), alpha=1.0,
                fallback_rate=0.0, rng=np.random.default_rng(0)
            )


class TestFuturePredictive:
    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_visible_confined_to_leading_blocks(self, seed):
        spec = sample_future_predictive(
            GRID, 0.5, max_temporal_keep=0.5, full_complement=True,
            rng=np.random.default_rng(seed)
        )
        assert not spec.visible[2:].any()
        assert spec.target[2:].all()

    def test_full_complement_partitions(self):
        spec = sample_future_predictive(
            GRID, 0.5, max_temporal_keep=0.5, full_complement=True,
            rng=np.random.default_rng(3)
        )
        assert np.all(spec.target ^ spec.visible)

    def test_keep_one_no_complement_reduces_to_tube(self):
        spec = sample_future_predictive(
            GRID, 0.5, max_temporal_keep=1.0, full_complement=False,
            rng=np.random.default_rng(5)
        )
        per_block = spec.target.sum(axis=(1, 2))
        assert np.all(per_block == per_block[0])
        assert np.all(spec.target ^ spec.visible)

    def test_without_complement_leaves_gap_tokens(self):
        spec = sample_future_predictive(
            GRID, 0.5, max_temporal_keep=0.5, full_complement=False,
            rng=np.random.default_rng(8)
        )
        neither = ~(spec.target | spec.visible)
        assert neither[2:].any()
        assert not neither[:2].any()

    def test_bad_keep_rejected(self):
        with pytest.raises(ValueError, match="max_temporal_keep"):
            sample_future_predictive(
                GRID, 0.5, max_temporal_keep=0.0, full_complement=True,
                rng=np.random.default_rng(0)
            )


class TestDistanceWeights:
    def test_closed_form_pre_normalization(self):
        # one visible token at (0,0,0); targets at distances 1 and 3
        visible = np.zeros((1, 1, 5), dtype=bool)
        visible[0, 0, 0] = True
        target = np.zeros((1, 1, 5), dtype=bool)
        target[0, 0, 1] = True  # d=1 -> 0.5
        target[0, 0, 3] = True  # d=3 -> 0.25
        w = distance_weights(visible, target)
        raw = w * np.mean([0.5, 0.25])
        assert raw == pytest.approx([0.5, 0.25])
        assert w.mean() == pytest.approx(1.0)

    def test_chebyshev_diagonal(self):
        visible = np.zeros((1, 3, 3), dtype=bool)
        visible[0, 0, 0] = True
        target = np.zeros((1, 3, 3), dtype=bool)
        target[0, 2, 2] = True  # Chebyshev distance 2
        target[0, 1, 1] = True  # distance 1
        w = distance_weights(visible, target)
        # argwhere order: (1,1) then (2,2); weights proportional to 1/2 and 1/3
        assert w[1] / w[0] == pytest.approx((1 / 3) / (1 / 2))

    def test_empty_block_falls_back_to_3d_distance(self):
        spec = sample_future_predictive(
            GRID, 0.5, max_temporal_keep=0.5, full_complement=True,
            rng=np.random.default_rng(1)
        )
        # weights exist and are valid even for fully-masked late blocks
        spec.validate()
        assert len(spec.distance_weight) == spec.n_targets
        np.testing.assert_array_equal(spec.distance_weight,
                                      loop_distance_weights(spec.visible, spec.target))

    def test_empty_block_exact_3d_weights(self):
        # block 0 sees only (0,0,0); block 1 has no visible token
        visible = np.zeros((2, 1, 3), dtype=bool)
        visible[0, 0, 0] = True
        target = np.zeros((2, 1, 3), dtype=bool)
        target[0, 0, 2] = True  # in-block distance 2 -> 1/3
        target[1, 0, 0] = True  # 3-d distance max(1, 0, 0) = 1 -> 1/2
        target[1, 0, 2] = True  # 3-d distance max(1, 0, 2) = 2 -> 1/3
        w = distance_weights(visible, target)
        raw = np.array([1 / 3, 1 / 2, 1 / 3])
        np.testing.assert_array_equal(w, raw / raw.mean())
        assert w == pytest.approx([6 / 7, 9 / 7, 6 / 7])

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_mean_one(self, seed):
        spec = sample_tube_mask(GRID, 0.5, np.random.default_rng(seed))
        assert abs(spec.distance_weight.mean() - 1.0) <= 1e-9
        np.testing.assert_array_equal(spec.distance_weight,
                                      loop_distance_weights(spec.visible, spec.target))

    def test_validate_catches_no_visible(self):
        target = np.ones((1, 2, 2), dtype=bool)
        spec = MaskSpec(target=target, visible=~target)
        with pytest.raises(ValueError, match="no visible"):
            spec.validate()
