"""Synthetic motion clips: a bright square on black, one motion class each.

Eight classes (4 translations, 2 rotations, 2 scalings), rendered without
anti-aliasing, so their 0/1 pixels are exact in float32. Clips are rendered
and loaded as float32, the SYNV file's own precision; the readers that do
arithmetic on pixels (``model.extract_patches``, ``masking.motion_energy``,
``objectives.ac_targets``) widen them to float64 where they read them. All
frames of a clip are rendered in one broadcast pass over [T, H, W]. Per-clip
RNG is derived from (seed, class, index), which makes datasets reproducible
element by element and lets train/test splits be disjoint by construction.
"""

from __future__ import annotations

import enum
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


@dataclass
class VideoClip:
    """Pixels [T, H, W, C] in [0, 1], channel-last, optional class label.

    A float32 array is kept as it is; any other input becomes float64."""

    pixels: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.float32:
            self.pixels = self.pixels.astype(np.float64, copy=False)
        if self.pixels.ndim != 4:
            raise ValueError(f"clip pixels must be [T, H, W, C], got {self.pixels.shape}")
        if self.pixels.size == 0:
            raise ValueError("empty clip")
        lo, hi = float(self.pixels.min()), float(self.pixels.max())
        if not (lo >= 0.0 and hi <= 1.0):  # also false for a NaN, which min and max carry
            raise ValueError(f"pixel range [{lo}, {hi}] outside [0, 1]")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.pixels.shape  # type: ignore[return-value]


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


def gen_motion_clip(motion: MotionClass, rng: np.random.Generator,
                    t: int = 8, h: int = 32, w: int = 32) -> VideoClip:
    """One clip of ``motion``; start pose jittered in the middle quarter.

    The T poses are scalar arithmetic per frame. One broadcast pass then
    samples every frame's filled square at the pixel centers; the offsets
    are separable ([T, 1, W] and [T, H, 1]), so only the rotated coordinates
    and the inside test span the full [T, H, W] grid."""
    if t < 1 or h < 16 or w < 16:
        raise ValueError(f"clip dims too small: t={t}, h={h}, w={w}")
    cx = w / 2.0 - 8.0 + rng.uniform(0.0, 16.0)
    cy = h / 2.0 - 8.0 + rng.uniform(0.0, 16.0)
    theta = rng.uniform(0.0, np.pi / 2.0)
    half = SQUARE_SIDE / 2.0

    poses = []
    for i in range(t):
        # Translation paths are centered on the jittered point so the square
        # never fully leaves the frame; centroid tracking stays well defined.
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
    dx = np.arange(w) + 0.5 - fx               # [T, 1, W]
    dy = np.arange(h)[:, None] + 0.5 - fy      # [T, H, 1]
    u = c * dx + s * dy
    v = -s * dx + c * dy
    inside = (np.abs(u) <= fhalf) & (np.abs(v) <= fhalf)
    return VideoClip(pixels=inside[..., None].astype(np.float32), label=int(motion))


def gen_motion_dataset(n_per_class: int, seed: int, t: int = 8, h: int = 32,
                       w: int = 32, name: str = "synthetic") -> Dataset:
    """Balanced dataset, n_per_class clips for each of the 8 classes."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    clips = []
    for motion in MotionClass:
        for i in range(n_per_class):
            rng = np.random.default_rng([seed, int(motion), i])
            clips.append(gen_motion_clip(motion, rng, t=t, h=h, w=w))
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
