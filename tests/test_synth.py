"""Generator checks: motion direction oracles, export round trip, mixtures."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from vjlab import synth, verify
from vjlab.synth import (
    ROTATE_STEP,
    SCALE_STEP,
    SQUARE_SIDE,
    TRANSLATE_STEP,
    Dataset,
    MixtureSpec,
    MotionClass,
    VideoClip,
    dataset_header,
    gen_motion_clip,
    gen_motion_dataset,
    image_as_clip,
    load_dataset,
    sample_mixture,
    save_dataset,
)


def centroid(frame):
    ys, xs = np.nonzero(frame[:, :, 0] > 0.5)
    return ys.mean(), xs.mean()


def orientation_mod90(frame):
    """Orientation of the square's corners, mod 90 deg, via angle quadrupling."""
    ys, xs = np.nonzero(frame[:, :, 0] > 0.5)
    cy, cx = ys.mean(), xs.mean()
    dy, dx = ys - cy, xs - cx
    r = np.hypot(dy, dx)
    w = r ** 4  # corners dominate
    ang = np.arctan2(dy, dx)
    z = np.sum(w * np.exp(1j * 4.0 * ang))
    return np.angle(z) / 4.0


def rotation_direction(clip):
    """Sign of the tracked frame-to-frame angle step (+1 cw in row-down coords)."""
    phis = [orientation_mod90(f) for f in clip.pixels]
    total = 0.0
    for a, b in zip(phis, phis[1:]):
        d = (b - a + np.pi / 4) % (np.pi / 2) - np.pi / 4
        total += d
    return 1 if total > 0 else -1


def reference_clip(motion, rng, t=8, h=32, w=32):
    """The per-clip renderer the batched kernel replaced, kept as its oracle:
    the poses as scalar arithmetic frame by frame, then one broadcast pass
    over [T, H, W]. Returns float32 pixels [T, H, W, 1]."""
    cx = w / 2.0 - 8.0 + rng.uniform(0.0, 16.0)
    cy = h / 2.0 - 8.0 + rng.uniform(0.0, 16.0)
    theta = rng.uniform(0.0, np.pi / 2.0)
    half = SQUARE_SIDE / 2.0
    poses = []
    for i in range(t):
        off = TRANSLATE_STEP * (i - (t - 1) / 2.0)
        fx, fy, fth, fhalf = cx, cy, theta, half
        if motion == MotionClass.TRANSLATE_UP:
            fy = cy - off
        elif motion == MotionClass.TRANSLATE_DOWN:
            fy = cy + off
        elif motion == MotionClass.TRANSLATE_LEFT:
            fx = cx - off
        elif motion == MotionClass.TRANSLATE_RIGHT:
            fx = cx + off
        elif motion == MotionClass.ROTATE_CW:
            fth = theta + ROTATE_STEP * i
        elif motion == MotionClass.ROTATE_CCW:
            fth = theta - ROTATE_STEP * i
        elif motion == MotionClass.SCALE_UP:
            fhalf = half * SCALE_STEP ** i
        elif motion == MotionClass.SCALE_DOWN:
            fhalf = half * SCALE_STEP ** (-i)
        poses.append((fx, fy, fhalf, np.cos(fth), np.sin(fth)))
    fx, fy, fhalf, c, s = (np.array(col)[:, None, None] for col in zip(*poses))
    dx = np.arange(w) + 0.5 - fx
    dy = np.arange(h)[:, None] + 0.5 - fy
    u = c * dx + s * dy
    v = -s * dx + c * dy
    inside = (np.abs(u) <= fhalf) & (np.abs(v) <= fhalf)
    return inside[..., None].astype(np.float32)


def reference_dataset(n_per_class, seed, t, h, w):
    """(label, pixels) per clip, in ``gen_motion_dataset``'s order."""
    return [(int(motion), reference_clip(motion, np.random.default_rng([seed, int(motion), i]),
                                         t=t, h=h, w=w))
            for motion in MotionClass for i in range(n_per_class)]


def same_pixels(clip, pixels):
    """A rendered bool clip holds exactly the oracle's float32 0/1 pixels."""
    return (clip.pixels.dtype == np.bool_ and clip.pixels.shape == pixels.shape
            and clip.pixels.astype(np.float32).tobytes() == pixels.tobytes())


class TestKernelMatchesReference:
    """The batched kernel against the per-clip renderer, value for value: the
    kernel writes bool pixels, the oracle float32 0/1 pixels."""

    @given(seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 70)),
           n=st.integers(1, 9), t=st.integers(1, 9), h=st.integers(16, 48),
           w=st.integers(16, 48))
    @settings(max_examples=50, deadline=None)
    def test_dataset(self, seed, n, t, h, w):
        ds = gen_motion_dataset(n, seed, t=t, h=h, w=w)
        ref = reference_dataset(n, seed, t, h, w)
        assert len(ds) == len(ref)
        for clip, (label, pixels) in zip(ds.clips, ref):
            assert clip.label == label and clip.pixels.shape == (t, h, w, 1)
            assert same_pixels(clip, pixels)

    @given(seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 70)),
           motion=st.sampled_from(list(MotionClass)), t=st.integers(1, 9),
           h=st.integers(16, 48), w=st.integers(16, 48))
    @settings(max_examples=40, deadline=None)
    def test_clip_and_the_callers_generator(self, seed, motion, t, h, w):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        clip = gen_motion_clip(motion, rng, t=t, h=h, w=w)
        pixels = reference_clip(motion, ref_rng, t=t, h=h, w=w)
        assert clip.label == int(motion)
        assert same_pixels(clip, pixels)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_square_edges_on_pixel_centers_are_inside(self):
        """Start poses whose edges fall exactly on pixel centers (angle 0,
        center 15.5): the tie |u| = half counts as inside, as in the reference."""

        class Draws:
            def __init__(self, *values):
                self.values = list(values)

            def uniform(self, low, high):
                return self.values.pop(0)

        for motion in MotionClass:
            clip = gen_motion_clip(motion, Draws(7.5, 7.5, 0.0))
            pixels = reference_clip(motion, Draws(7.5, 7.5, 0.0))
            assert same_pixels(clip, pixels), motion
            assert clip.pixels[0].sum() == 11 * 11, motion  # both tie rows and columns in

    def test_every_chunk_remainder(self):
        """Counts on both sides of whole chunks, at the default geometry."""
        for n in range(1, 2 * synth.RENDER_CHUNK + 2):
            ds = gen_motion_dataset(n, 17)
            for clip, (label, pixels) in zip(ds.clips, reference_dataset(n, 17, 8, 32, 32)):
                assert clip.label == label and same_pixels(clip, pixels)


class TestMotionClips:
    def test_shape_and_range(self):
        clip = gen_motion_clip(MotionClass.TRANSLATE_UP, np.random.default_rng(0))
        assert clip.shape == (8, 32, 32, 1)
        assert clip.pixels.min() >= 0.0 and clip.pixels.max() <= 1.0
        assert clip.label == int(MotionClass.TRANSLATE_UP)

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_translate_right_column_strictly_increases(self, seed):
        clip = gen_motion_clip(MotionClass.TRANSLATE_RIGHT, np.random.default_rng(seed))
        cols = [centroid(f)[1] for f in clip.pixels]
        assert all(b > a for a, b in zip(cols, cols[1:]))

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_translation_centroid_sign_constant_per_axis(self, seed):
        for motion, axis, sign in [
            (MotionClass.TRANSLATE_UP, 0, -1),
            (MotionClass.TRANSLATE_DOWN, 0, +1),
            (MotionClass.TRANSLATE_LEFT, 1, -1),
            (MotionClass.TRANSLATE_RIGHT, 1, +1),
        ]:
            clip = gen_motion_clip(motion, np.random.default_rng(seed))
            pos = [centroid(f)[axis] for f in clip.pixels]
            deltas = np.diff(pos)
            assert np.all(np.sign(deltas) == sign), (motion, deltas)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_rotation_reversed_clip_flips_direction(self, seed):
        clip = gen_motion_clip(MotionClass.ROTATE_CW, np.random.default_rng(seed))
        fwd = rotation_direction(clip)
        rev = rotation_direction(VideoClip(pixels=clip.pixels[::-1].copy()))
        assert fwd == -rev

    def test_rotation_classes_opposite_directions(self):
        for seed in range(10):
            cw = gen_motion_clip(MotionClass.ROTATE_CW, np.random.default_rng(seed))
            ccw = gen_motion_clip(MotionClass.ROTATE_CCW, np.random.default_rng(seed))
            assert rotation_direction(cw) == -rotation_direction(ccw)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_scale_pair_same_start_ordered_end(self, seed):
        up = gen_motion_clip(MotionClass.SCALE_UP, np.random.default_rng(seed))
        down = gen_motion_clip(MotionClass.SCALE_DOWN, np.random.default_rng(seed))
        assert np.array_equal(up.pixels[0], down.pixels[0])
        assert up.pixels[-1].sum() > down.pixels[-1].sum()

    def test_bright_region_never_empty(self):
        for motion in MotionClass:
            for seed in range(5):
                clip = gen_motion_clip(motion, np.random.default_rng(seed))
                assert np.all(clip.pixels.sum(axis=(1, 2, 3)) > 0)

    def test_clip_dims_validated(self):
        with pytest.raises(ValueError):
            gen_motion_clip(MotionClass.SCALE_UP, np.random.default_rng(0), h=8, w=8)


class TestDataset:
    def test_balanced_and_deterministic(self):
        verify.synth_determinism()

    def test_different_seeds_differ(self):
        a = gen_motion_dataset(1, seed=0)
        b = gen_motion_dataset(1, seed=1)
        assert any(
            not np.array_equal(ca.pixels, cb.pixels) for ca, cb in zip(a.clips, b.clips)
        )

    def test_image_as_clip(self):
        img = np.random.default_rng(0).uniform(size=(32, 32, 1))
        clip = image_as_clip(img, label=3)
        assert clip.shape == (1, 32, 32, 1)
        assert clip.label == 3

    def test_pixel_range_validated(self):
        with pytest.raises(ValueError, match="range"):
            VideoClip(pixels=np.full((1, 4, 4, 1), 2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_refused(self, bad):
        for dtype in (np.float32, np.float64):
            pixels = np.zeros((2, 4, 4, 1), dtype=dtype)
            pixels[1, 2, 3, 0] = bad
            with pytest.raises(ValueError, match="range"):
                VideoClip(pixels=pixels)

    def test_float32_kept_and_other_input_widened(self):
        f32 = np.zeros((1, 4, 4, 1), dtype=np.float32)
        assert VideoClip(pixels=f32).pixels is f32
        b = np.ones((1, 4, 4, 1), dtype=bool)
        clip = VideoClip(pixels=b)
        assert clip.pixels.dtype == np.bool_ and clip.pixels.shape == b.shape
        assert np.array_equal(clip.pixels, b)
        assert clip._stored.nbytes == b.size // 8  # one stored byte per 8 pixels
        with pytest.raises(ValueError, match="read-only"):
            clip.pixels[0, 0, 0, 0] = False
        f64 = np.zeros((1, 4, 4, 1))
        assert VideoClip(pixels=f64).pixels is f64
        for other in (np.zeros((1, 4, 4, 1), dtype=np.uint8), np.zeros((1, 4, 4, 1), ">f4"),
                      [[[[0.5]]]]):
            assert VideoClip(pixels=other).pixels.dtype == np.float64

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (3, 5, 7, 1), (2, 3, 3, 3)])
    def test_bool_round_trip_of_a_size_not_a_multiple_of_8(self, shape):
        b = np.random.default_rng(1).random(shape) < 0.5
        clip = VideoClip(pixels=b, label=2)
        assert clip.shape == shape and clip.label == 2
        assert clip._stored.nbytes == -(-b.size // 8)
        assert clip.pixels.dtype == np.bool_ and np.array_equal(clip.pixels, b)
        b[...] = ~b  # the clip holds its own copy
        assert np.array_equal(clip.pixels, ~b)

    def test_rendered_clips_are_bool(self):
        for motion in MotionClass:
            assert gen_motion_clip(motion, np.random.default_rng(0)).pixels.dtype == np.bool_
        assert {c.pixels.dtype for c in gen_motion_dataset(2, 0).clips} == {np.dtype(bool)}


class TestExport:
    def test_round_trip_identical(self, tmp_path):
        ds = gen_motion_dataset(2, seed=3)
        path = tmp_path / "clips.synv"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert len(back) == len(ds)
        for a, b in zip(ds.clips, back.clips):
            assert a.label == b.label
            assert np.array_equal(a.pixels, b.pixels)

    def test_loaded_clips_are_float32_and_writable(self, tmp_path):
        path = tmp_path / "clips.synv"
        save_dataset(path, gen_motion_dataset(1, seed=4))
        for clip in load_dataset(path).clips:
            assert clip.pixels.dtype == np.float32 and clip.pixels.flags.writeable

    def test_header_read_without_the_clips(self, tmp_path):
        path = tmp_path / "clips.synv"
        save_dataset(path, gen_motion_dataset(1, seed=0, t=4, h=16, w=24))
        assert dataset_header(path) == (8, (4, 16, 24, 1))

    def test_header_fields(self, tmp_path):
        ds = gen_motion_dataset(1, seed=0, t=4)
        path = tmp_path / "clips.synv"
        save_dataset(path, ds)
        raw = path.read_bytes()
        assert raw[:4] == b"SYNV"
        assert np.frombuffer(raw[4:28], dtype="<u4").tolist() == [1, 8, 4, 32, 32, 1]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.synv"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_dataset(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "clips.synv"
        save_dataset(path, gen_motion_dataset(1, seed=0, t=4))
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")  # the sizes still fit, so only the version refuses
        path.write_bytes(bytes(raw))
        for read in (dataset_header, load_dataset):
            with pytest.raises(ValueError, match="unsupported SYNV version 2"):
                read(path)

    def test_truncated_rejected(self, tmp_path):
        ds = gen_motion_dataset(1, seed=0)
        path = tmp_path / "clips.synv"
        save_dataset(path, ds)
        (tmp_path / "cut.synv").write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset(tmp_path / "cut.synv")

    @pytest.mark.parametrize("cut", [6, 10, 27, 30, 1000])
    def test_cut_anywhere_is_refused_by_header_and_load(self, tmp_path, cut):
        path = tmp_path / "clips.synv"
        save_dataset(path, gen_motion_dataset(1, seed=0))
        path.write_bytes(path.read_bytes()[:cut])
        for read in (dataset_header, load_dataset):
            with pytest.raises(ValueError, match="truncated"):
                read(path)

    def test_trailing_bytes_refused_by_header_and_load(self, tmp_path):
        path = tmp_path / "clips.synv"
        save_dataset(path, gen_motion_dataset(1, seed=0))
        path.write_bytes(path.read_bytes() + b"\x00")
        for read in (dataset_header, load_dataset):
            with pytest.raises(ValueError, match="trailing"):
                read(path)

    def test_no_temp_file_left_behind(self, tmp_path):
        save_dataset(tmp_path / "x.synv", gen_motion_dataset(1, seed=0))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.synv"]

    @pytest.mark.parametrize("n, seed, t, h, w, digest", [
        (64, 0, 8, 32, 32, "d55168c8712654eab888619581f2f317988920e5a0b83200dad15d8e7b184ee8"),
        (8, 1, 4, 16, 16, "77927170331d6e7d7e3d51583ed6c56ff67344eda90c6ac0ef41c0ac65acfb21"),
        (4, 2, 6, 48, 40, "f1262f50a2dbab448461e00d3fedd2f827efc3f2b30628c69be46c74bb5c0a40"),
        (2, 3, 1, 16, 16, "6deeefa1202133bf455f1670e86920b06b9b272a012cf158dd544a153bc17b13"),
        (2, 3, 8, 32, 32, "83c02740cf8631ee24fd17a8e03b049b1556b9ea76e83ce5362e05e72d6cabaa"),
    ])
    def test_rendered_bytes_pinned(self, tmp_path, n, seed, t, h, w, digest):
        path = tmp_path / "clips.synv"
        save_dataset(path, gen_motion_dataset(n, seed, t=t, h=h, w=w))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_mixed_dims_rejected(self, tmp_path):
        ds = Dataset(
            clips=gen_motion_dataset(1, seed=0).clips
            + [image_as_clip(np.zeros((32, 32, 1)))]
        )
        with pytest.raises(ValueError, match="share dims"):
            save_dataset(tmp_path / "x.synv", ds)


class TestMixture:
    def _spec(self, weights, seed=0):
        sets = [gen_motion_dataset(1, seed=i, name=f"d{i}") for i in range(len(weights))]
        return MixtureSpec(entries=list(zip(sets, weights)), seed=seed)

    def test_proportions_match_weights(self):
        spec = self._spec([0.2, 0.6, 0.2], seed=11)
        names = {id(ds): i for i, (ds, _) in enumerate(spec.entries)}
        ids = {id(c): names[id(ds)] for ds, _ in spec.entries for c in ds.clips}
        draws = sample_mixture(spec, 30_000)
        counts = np.bincount([ids[id(c)] for c in draws], minlength=3)
        frac = counts / 30_000
        assert np.max(np.abs(frac - [0.2, 0.6, 0.2])) <= 0.01

    def test_half_half_chi_square(self):
        spec = self._spec([0.5, 0.5], seed=5)
        first = set(id(c) for c in spec.entries[0][0].clips)
        draws = sample_mixture(spec, 10_000)
        n0 = sum(1 for c in draws if id(c) in first)
        stat = (n0 - 5000) ** 2 / 5000 + (10_000 - n0 - 5000) ** 2 / 5000
        assert stat < chi2.ppf(0.999, df=1)

    def test_deterministic_given_seed(self):
        spec = self._spec([0.3, 0.7], seed=9)
        a = sample_mixture(spec, 50)
        b = sample_mixture(spec, 50)
        assert all(x is y for x, y in zip(a, b))

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            self._spec([0.5, 0.6])
        with pytest.raises(ValueError, match="positive"):
            self._spec([1.5, -0.5])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MixtureSpec(entries=[(Dataset(clips=[]), 1.0)])
