"""Synthetic motion clips: a bright square on black, one motion class each.

Eight classes (4 translations, 2 rotations, 2 scalings), rendered without
anti-aliasing, so every pixel is exactly 0 or 1. Rendered clips are bool,
held as packed bits (one byte per 8 pixels) behind a read-only ``pixels``;
loaded clips are float32, the SYNV file's own precision, and both give the
same bytes downstream. The readers that do arithmetic on pixels
(``model.extract_patches``, ``masking.motion_energy``,
``objectives.ac_targets``) widen them to float64 where they read them.

Per-clip RNG is derived from (seed, class, index), which makes datasets
reproducible element by element and lets train/test splits be disjoint by
construction. Each clip draws its three start-pose uniforms from its own
generator; ``_render`` then renders all n clips of a class in one batched
kernel whose inside test runs ``RENDER_CHUNK`` clips at a time in reused
float64 buffers and hands each clip's inside test to ``VideoClip`` from one
reused bool buffer. ``gen_motion_clip`` is the n = 1 call of the same kernel.
"""

from __future__ import annotations

import enum
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"SYNV"
FORMAT_VERSION = 1
_NO_LABEL = 0xFFFFFFFF

SQUARE_SIDE = 10.0
TRANSLATE_STEP = 2.0          # pixels per frame
ROTATE_STEP = np.deg2rad(15.0)  # radians per frame
SCALE_STEP = 1.08             # multiplicative per frame
RENDER_CHUNK = 4              # clips per pass of the inside test


class MotionClass(enum.IntEnum):
    TRANSLATE_UP = 0
    TRANSLATE_DOWN = 1
    TRANSLATE_LEFT = 2
    TRANSLATE_RIGHT = 3
    ROTATE_CW = 4
    ROTATE_CCW = 5
    SCALE_UP = 6
    SCALE_DOWN = 7


N_CLASSES = len(MotionClass)


@dataclass(init=False)
class VideoClip:
    """Pixels [T, H, W, C] in [0, 1], channel-last, optional class label.

    A float32 array is kept as it is, and any other non-bool input becomes
    float64. A bool array is stored as ``np.packbits`` bytes, one bit per
    pixel; ``pixels`` unpacks it on each read into a fresh read-only array,
    so a write raises instead of vanishing. A bool array needs no range
    check: its dtype holds only 0 and 1."""

    label: int | None
    shape: tuple[int, int, int, int] = field(init=False)
    _stored: np.ndarray = field(init=False, repr=False)  # packed bits, or the float pixels

    def __init__(self, pixels: np.ndarray, label: int | None = None):
        pixels = np.asarray(pixels)
        if pixels.ndim != 4:
            raise ValueError(f"clip pixels must be [T, H, W, C], got {pixels.shape}")
        if pixels.size == 0:
            raise ValueError("empty clip")
        if pixels.dtype == np.bool_:
            stored = np.packbits(pixels, axis=None)
        else:
            if pixels.dtype != np.float32:
                pixels = pixels.astype(np.float64, copy=False)
            lo, hi = float(pixels.min()), float(pixels.max())
            if not (lo >= 0.0 and hi <= 1.0):  # also false for a NaN, which min and max carry
                raise ValueError(f"pixel range [{lo}, {hi}] outside [0, 1]")
            stored = pixels
        self.label = label
        self.shape = pixels.shape
        self._stored = stored

    @property
    def pixels(self) -> np.ndarray:
        if self._stored.dtype != np.uint8:
            return self._stored
        size = math.prod(self.shape)
        bits = np.unpackbits(self._stored, count=size).view(np.bool_).reshape(self.shape)
        bits.flags.writeable = False
        return bits


@dataclass
class Dataset:
    clips: list[VideoClip]
    name: str = "dataset"

    def __len__(self) -> int:
        return len(self.clips)


@dataclass
class MixtureSpec:
    """Weighted pool of datasets; weights must sum to 1."""

    entries: list[tuple[Dataset, float]]
    seed: int = 0

    def __post_init__(self):
        if not self.entries:
            raise ValueError("mixture needs at least one dataset")
        for ds, w in self.entries:
            if len(ds) == 0:
                raise ValueError(f"mixture dataset '{ds.name}' is empty")
            if w <= 0.0:
                raise ValueError(f"mixture weight for '{ds.name}' must be positive")
        total = sum(w for _, w in self.entries)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total}, expected 1")


def _start_pose(rng: np.random.Generator, h: int, w: int) -> tuple[float, float, float]:
    """A clip's three draws: center jittered in the middle quarter, then angle."""
    cx = w / 2.0 - 8.0 + rng.uniform(0.0, 16.0)
    cy = h / 2.0 - 8.0 + rng.uniform(0.0, 16.0)
    return cx, cy, rng.uniform(0.0, np.pi / 2.0)


def _render(motion: MotionClass, starts: list[tuple[float, float, float]],
            t: int, h: int, w: int) -> list[VideoClip]:
    """The n clips of ``motion`` from n start poses, bool [T, H, W, 1] each.

    The per-frame offsets, angle steps and half sides are Python-float
    arithmetic; the [n, T] poses follow from them in one broadcast each. The
    offsets are separable ([k, T, 1, W] and [k, T, H, 1]), so only the sums
    of the rotated coordinates and the inside test span the full grid, which
    runs ``RENDER_CHUNK`` clips at a time in reused float64 buffers. Each
    clip's inside test lands in one reused bool buffer, which ``VideoClip``
    packs to bits. (Rows of one [n, T, H, W, 1] block would render as fast,
    but the blocks fragment the heap: peak RSS rose about 4 MiB on a
    benchmark round.)"""
    n = len(starts)
    cx, cy, theta = (np.array(col)[:, None] for col in zip(*starts))   # [n, 1]
    # Translation paths are centered on the jittered point so the square
    # never fully leaves the frame; centroid tracking stays well defined.
    off = np.array([TRANSLATE_STEP * (i - (t - 1) / 2.0) for i in range(t)])
    turn = np.array([ROTATE_STEP * i for i in range(t)])
    half = SQUARE_SIDE / 2.0
    fhalf = np.full(t, half)
    fx, fy, fth = cx, cy, theta
    if motion == MotionClass.TRANSLATE_UP:
        fy = cy - off
    elif motion == MotionClass.TRANSLATE_DOWN:
        fy = cy + off
    elif motion == MotionClass.TRANSLATE_LEFT:
        fx = cx - off
    elif motion == MotionClass.TRANSLATE_RIGHT:
        fx = cx + off
    elif motion == MotionClass.ROTATE_CW:
        fth = theta + turn
    elif motion == MotionClass.ROTATE_CCW:
        fth = theta - turn
    elif motion == MotionClass.SCALE_UP:
        fhalf = np.array([half * SCALE_STEP ** i for i in range(t)])
    elif motion == MotionClass.SCALE_DOWN:
        fhalf = np.array([half * SCALE_STEP ** (-i) for i in range(t)])
    fx, fy, fth = (np.broadcast_to(col, (n, t)) for col in (fx, fy, fth))
    c, s = np.cos(fth), np.sin(fth)
    bound = np.repeat(fhalf, h * w).reshape(t, h, w)   # a full-size operand compares fastest

    clips = []
    inside = np.empty((t, h, w, 1), dtype=bool)
    xs = np.arange(w) + 0.5
    ys = np.arange(h)[:, None] + 0.5
    k = min(n, RENDER_CHUNK)
    u_buf, v_buf = np.empty((k, t, h, w)), np.empty((k, t, h, w))
    for lo in range(0, n, k):
        rows = slice(lo, lo + k)
        u, v = u_buf[:min(k, n - lo)], v_buf[:min(k, n - lo)]
        cc, ss = c[rows, :, None, None], s[rows, :, None, None]
        dx = xs - fx[rows, :, None, None]      # [k, T, 1, W]
        dy = ys - fy[rows, :, None, None]      # [k, T, H, 1]
        np.copyto(u, cc * dx)
        u += ss * dy                           # u = c dx + s dy
        np.copyto(v, -ss * dx)
        v += cc * dy                           # v = -s dx + c dy
        np.abs(u, out=u)
        np.abs(v, out=v)
        np.maximum(u, v, out=u)                # inside: |u| <= half and |v| <= half
        for j in range(len(u)):
            np.less_equal(u[j], bound, out=inside[..., 0])
            clips.append(VideoClip(pixels=inside, label=int(motion)))
    return clips


def _check_dims(t: int, h: int, w: int) -> None:
    if t < 1 or h < 16 or w < 16:
        raise ValueError(f"clip dims too small: t={t}, h={h}, w={w}")


def gen_motion_clip(motion: MotionClass, rng: np.random.Generator,
                    t: int = 8, h: int = 32, w: int = 32) -> VideoClip:
    """One clip of ``motion``; start pose jittered in the middle quarter.

    The n = 1 case of ``_render``: every frame of the filled square is
    sampled at the pixel centers in one broadcast pass over [T, H, W]."""
    _check_dims(t, h, w)
    (clip,) = _render(motion, [_start_pose(rng, h, w)], t, h, w)
    return clip


def gen_motion_dataset(n_per_class: int, seed: int, t: int = 8, h: int = 32,
                       w: int = 32, name: str = "synthetic") -> Dataset:
    """Balanced dataset, n_per_class clips for each of the 8 classes.

    Each clip draws its start pose from its own ``default_rng([seed, class,
    i])``; a class's clips then render in one ``_render`` call."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    _check_dims(t, h, w)
    clips = []
    for motion in MotionClass:
        starts = [_start_pose(np.random.default_rng([seed, int(motion), i]), h, w)
                  for i in range(n_per_class)]
        clips.extend(_render(motion, starts, t, h, w))
    return Dataset(clips=clips, name=name)


def image_as_clip(image: np.ndarray, label: int | None = None) -> VideoClip:
    """[H, W, C] image to a single-frame clip (tubelet-1 path downstream)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ValueError(f"image must be [H, W, C], got {image.shape}")
    return VideoClip(pixels=image[None], label=label)


def sample_mixture(spec: MixtureSpec, n: int) -> list[VideoClip]:
    """Draw n clips: dataset by weight, then uniform element within it."""
    rng = np.random.default_rng(spec.seed)
    return [mixture_draw(spec.entries, rng) for _ in range(n)]


def mixture_draw(entries: list[tuple[Dataset, float]], rng: np.random.Generator) -> VideoClip:
    u = rng.random()
    acc = 0.0
    chosen = entries[-1][0]
    for ds, wt in entries:
        acc += wt
        if u < acc:
            chosen = ds
            break
    return chosen.clips[int(rng.integers(0, len(chosen)))]


# -- binary export -------------------------------------------------------


def save_dataset(path: str | os.PathLike, dataset: Dataset) -> None:
    """SYNV container: header dims, then per clip a label u32 + f32 pixels."""
    if len(dataset) == 0:
        raise ValueError("refusing to save an empty dataset")
    t, h, w, c = dataset.clips[0].shape
    for clip in dataset.clips:
        if clip.shape != (t, h, w, c):
            raise ValueError(
                f"all clips in one file must share dims, got {clip.shape} vs {(t, h, w, c)}"
            )
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIIIII", FORMAT_VERSION, len(dataset), t, h, w, c))
        for clip in dataset.clips:
            label = _NO_LABEL if clip.label is None else int(clip.label)
            f.write(struct.pack("<I", label))
            f.write(clip.pixels.astype("<f4").tobytes())
    os.replace(tmp, path)


def _read_header(f) -> tuple[int, tuple[int, int, int, int]]:
    """The clip count and clip shape of an open SYNV file, checked against
    the file's size, so a cut or padded file is refused before any clip is read."""
    head = f.read(28)
    if head[:4] != MAGIC:
        raise ValueError(f"not a SYNV file: bad magic {head[:4]!r}")
    if len(head) < 28:
        raise ValueError("truncated SYNV file: cut inside its header")
    version, n_clips, t, h, w, c = struct.unpack("<6I", head[4:])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported SYNV version {version}")
    size = 28 + n_clips * (4 + 4 * t * h * w * c)
    actual = os.fstat(f.fileno()).st_size
    if actual < size:
        raise ValueError(f"truncated SYNV file: {actual} bytes, its header declares {size}")
    if actual > size:
        raise ValueError("trailing bytes after final clip")
    return n_clips, (t, h, w, c)


def dataset_header(path: str | os.PathLike) -> tuple[int, tuple[int, int, int, int]]:
    """The clip count and clip shape a SYNV file holds, without reading its clips."""
    with open(path, "rb") as f:
        return _read_header(f)


def load_dataset(path: str | os.PathLike, name: str | None = None) -> Dataset:
    """The clips of a SYNV file, as float32 pixels read straight from it."""
    with open(path, "rb") as f:
        n_clips, shape = _read_header(f)
        clips = []
        for _ in range(n_clips):
            (label,) = struct.unpack("<I", f.read(4))
            pixels = np.empty(shape, dtype="<f4")
            f.readinto(pixels)
            clips.append(VideoClip(pixels=pixels, label=None if label == _NO_LABEL else label))
    return Dataset(clips=clips, name=name or os.path.basename(str(path)))
