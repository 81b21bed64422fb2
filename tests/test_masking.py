"""Mask sampler checks: coverage bands, guidance distributions, weights."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from vjlab import verify
from vjlab.config import variant_defaults
from vjlab.masking import (
    MaskSpec,
    MotionEnergy,
    _Draws,
    _draw_spatial_pattern,
    _energy_probs,
    distance_weights,
    feasible_counts,
    motion_energy,
    sample_mask,
)
from vjlab.synth import MotionClass, gen_motion_clip, gen_motion_dataset, image_as_clip
from vjlab.training import STREAM_MASK, sample_clip_mask

from oracles import categorical_sampler, loop_spatial_pattern

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
        a = sample_mask(GRID, 0.5, np.random.default_rng(seed))
        b = sample_mask(GRID, 0.5, np.random.default_rng(seed))
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.distance_weight, b.distance_weight)

    def test_partition(self):
        spec = sample_mask(GRID, 0.5, np.random.default_rng(0))
        assert np.all(spec.target ^ spec.visible)

    def test_infeasible_ratio_rejected(self):
        with pytest.raises(ValueError, match="cannot hit"):
            sample_mask((1, 2, 2), 0.1, np.random.default_rng(0))

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="mask_ratio"):
            sample_mask(GRID, 1.5, np.random.default_rng(0))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_energy_rejected(self, bad):
        # a NaN is neither below 0 nor off the max-1 normalization, so only a
        # finiteness check refuses it
        with pytest.raises(ValueError, match="finite"):
            MotionEnergy(scores=[[bad, 1.0], [0.0, 0.5]])


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
                    sample_mask(GRID, 0.5, rng_a),
                    sample_mask(GRID, 0.5, rng_b, energy=en, alpha=0.0, fallback_rate=0.0),
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
            sample_mask(GRID, 0.5, rng, energy=en, alpha=2.0, fallback_rate=0.1).used_fallback
            for _ in range(10_000)
        )
        assert abs(hits / 10_000 - 0.10) <= 0.01

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_fallback_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="fallback rate"):
            sample_mask(GRID, 0.5, np.random.default_rng(0),
                        energy=MotionEnergy(scores=np.eye(4)), alpha=2.0, fallback_rate=rate)

    def test_concentrated_energy_dominates_centers(self):
        scores = np.zeros((4, 4))
        scores[1, 2] = 1.0
        rng = np.random.default_rng(7)
        hit = 0
        for _ in range(1000):
            spec = sample_mask(
                GRID, 0.5, rng, energy=MotionEnergy(scores=scores), alpha=5.0, fallback_rate=0.0
            )
            hit += (1, 2) in spec.centers
        assert hit >= 950

    def test_zero_energy_degrades_to_uniform(self):
        # images / static clips: sampler must still work
        spec = sample_mask(
            (1, 4, 4), 0.5, np.random.default_rng(0), energy=MotionEnergy(scores=np.zeros((4, 4))),
            alpha=5.0, fallback_rate=0.0
        )
        spec.validate()

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64).filter(lambda w: sum(w) > 0))
    @settings(max_examples=80, deadline=None)
    def test_categorical_sampler_matches_choice_draw_for_draw(self, seed, weights):
        p = np.array(weights) / np.sum(weights)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = categorical_sampler(p, ours)
        for _ in range(40):  # interleaved with other draws, as in the block loop
            assert draw() == int(ref.choice(len(p), p=p))
            assert ours.integers(1, 5) == ref.integers(1, 5)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_categorical_sampler_checks_p_like_choice(self):
        for p in (np.full(4, 0.3), np.array([0.5, np.nan, 0.5, 0.0]),
                  np.array([1.5, -0.5, 0.0, 0.0]), np.full((2, 2), 0.25)):
            with pytest.raises(ValueError) as ours:
                categorical_sampler(p, np.random.default_rng(0))
            with pytest.raises(ValueError) as ref:
                np.random.default_rng(0).choice(len(p), p=p)
            assert str(ours.value) == str(ref.value)

    def test_energy_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            sample_mask(
                GRID, 0.5, np.random.default_rng(0), energy=MotionEnergy(scores=np.zeros((2, 2))),
                alpha=1.0, fallback_rate=0.0
            )


def drawn(fn, *args):
    """fn(*args), or the RuntimeError it raised."""
    try:
        return fn(*args)
    except RuntimeError as err:
        return str(err)


class TestReplayedDraws:
    """``masking._draw_spatial_pattern`` replays the rejection loop of live
    generator calls in ``oracles.loop_spatial_pattern`` from raw PCG64 words."""

    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([0.3, 0.5, 0.75]),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_live_loop(self, gh, gw, ratio, guided, buffered, seed):
        # grids from 1 to 144 spatial tokens: a pattern wider than 64 bits is a Python int too
        try:
            feasible_counts(gh * gw, ratio)
        except ValueError:
            return
        probs = None
        if guided:
            scores = np.random.default_rng(seed).random((gh, gw))
            probs = _energy_probs(MotionEnergy(scores=scores / scores.max()), (gh, gw), 3.0)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:  # start with the high half of a word buffered
            assert ours.integers(0, 7) == ref.integers(0, 7)
        got = drawn(_draw_spatial_pattern, gh, gw, ratio, ours, probs)
        want = drawn(loop_spatial_pattern, gh, gw, ratio, ref, probs)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.random() == ref.random()

    def test_pattern_wider_than_64_tokens(self):
        ours, ref = np.random.default_rng(4), np.random.default_rng(4)
        got, want = (_draw_spatial_pattern(16, 16, 0.5, ours, None),
                     loop_spatial_pattern(16, 16, 0.5, ref, None))
        assert got[0].shape == (16, 16) and np.array_equal(got[0], want[0])
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_lemire_rejection_redraws_like_numpy(self):
        # at width 3 only a 32-bit draw of 0 is rejected, since (2**32 - 3) % 3 == 1;
        # a buffered half of 0 makes that numpy's next 32-bit draw
        live, replayed = np.random.default_rng(5), np.random.default_rng(5)
        for rng in (live, replayed):
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
        draws = _Draws(replayed)
        assert draws.below(3) == live.integers(0, 3)
        assert draws.used == 1  # the buffered 0, rejected, then a fresh word's low half
        draws.commit()
        assert replayed.bit_generator.state == live.bit_generator.state

    def test_lemire_rejection_on_a_constructed_word(self):
        draws = _Draws(np.random.default_rng(0))
        high = 0x12345678
        draws.words = [high << 32, 1]  # low half 0, rejected at width 3; then the high half
        assert draws.below(3) == (high * 3) >> 32
        assert (draws.used, draws.has_uint32) == (1, 0)
        assert draws.below(3) == 0  # low half 1 of the next word: 3 is not below 3, accepted

    def test_non_pcg64_generator_refused(self):
        with pytest.raises(TypeError, match="MT19937"):
            sample_mask(GRID, 0.5, np.random.Generator(np.random.MT19937(0)))

    def test_mask_replay_check(self):
        verify.mask_replay()
        verify.mask_replay(seed=7)


class TestFuturePredictive:
    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_visible_confined_to_leading_blocks(self, seed):
        spec = sample_mask(
            GRID, 0.5, max_temporal_keep=0.5, full_complement=True,
            rng=np.random.default_rng(seed)
        )
        assert not spec.visible[2:].any()
        assert spec.target[2:].all()

    def test_full_complement_partitions(self):
        spec = sample_mask(
            GRID, 0.5, max_temporal_keep=0.5, full_complement=True,
            rng=np.random.default_rng(3)
        )
        assert np.all(spec.target ^ spec.visible)

    def test_keep_one_no_complement_reduces_to_tube(self):
        spec = sample_mask(
            GRID, 0.5, max_temporal_keep=1.0, full_complement=False,
            rng=np.random.default_rng(5)
        )
        per_block = spec.target.sum(axis=(1, 2))
        assert np.all(per_block == per_block[0])
        assert np.all(spec.target ^ spec.visible)

    def test_without_complement_leaves_gap_tokens(self):
        spec = sample_mask(
            GRID, 0.5, max_temporal_keep=0.5, full_complement=False,
            rng=np.random.default_rng(8)
        )
        neither = ~(spec.target | spec.visible)
        assert neither[2:].any()
        assert not neither[:2].any()

    def test_bad_keep_rejected(self):
        with pytest.raises(ValueError, match="max_temporal_keep"):
            sample_mask(
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
        spec = sample_mask(
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
        spec = sample_mask(GRID, 0.5, np.random.default_rng(seed))
        assert abs(spec.distance_weight.mean() - 1.0) <= 1e-9
        np.testing.assert_array_equal(spec.distance_weight,
                                      loop_distance_weights(spec.visible, spec.target))

    def test_validate_catches_no_visible(self):
        target = np.ones((1, 2, 2), dtype=bool)
        spec = MaskSpec(target=target, visible=~target)
        with pytest.raises(ValueError, match="no visible"):
            spec.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validate_catches_a_non_finite_weight(self, bad):
        spec = sample_mask(GRID, 0.5, np.random.default_rng(3))
        spec.distance_weight[0] = bad
        with pytest.raises(ValueError, match="finite"):
            spec.validate()

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_validate_catches_a_weight_per_target_missing_or_extra(self, extra):
        # unit weights pass the positivity and mean checks: only the shape is wrong
        spec = sample_mask(GRID, 0.5, np.random.default_rng(3))
        spec.distance_weight = np.ones(spec.n_targets + extra)
        with pytest.raises(ValueError, match="distance weights shape"):
            spec.validate()


# sha256 over the masks that training.sample_clip_mask draws for every clip of
# gen_motion_dataset(4, 0) under each masking recipe; see TestPinnedMasks.
PINNED_MASK_DIGESTS = {
    "Baseline": "1c345b48a188de5a7eda0ed879cdde2d0a9b7cd6505b8133e0cc02ea5d84d947",
    "Motion-Guided": "67e02d519163036245f1523c46c74e1356ae8e5df765d457fbb89eb1912abe38",
    "AMG-JEPA": "6faba905d9966b5e889c662f440e23f31aeba618a1c1e5d3003be58ae01386b0",
    "Future-Predictive": "3001c91b917e580d7e502f129465f70ae6e81e42a241e6c92fa353e1c16f9842",
    "Motion-Future": "a053abec89478be9b62c5696cee98ebdcdc368f3c47c23dc32a8bade6623d3cf",
}


class TestPinnedMasks:
    @pytest.mark.parametrize("variant", PINNED_MASK_DIGESTS)
    def test_sample_clip_mask_digest(self, variant):
        """Masks, weights, centres and fallback flags stay byte for byte what
        each recipe drew when the digests were recorded."""
        cfg = variant_defaults(variant)
        digest = hashlib.sha256()
        for i, clip in enumerate(gen_motion_dataset(4, 0).clips):
            m = sample_clip_mask(cfg, clip, (4, 4, 4),
                                 np.random.default_rng([0, STREAM_MASK, 0, i]))
            digest.update(m.target.tobytes())
            digest.update(m.visible.tobytes())
            digest.update(m.distance_weight.tobytes())
            digest.update(np.array(m.centers, dtype=np.int64).tobytes())
            digest.update(bytes([m.used_fallback]))
        assert digest.hexdigest() == PINNED_MASK_DIGESTS[variant]
