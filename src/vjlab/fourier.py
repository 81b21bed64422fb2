"""Temporal discrete Fourier transforms, written out from scratch.

Power-of-two lengths go through an iterative radix-2 butterfly; anything
else falls back to the direct O(T^2) sum. Forward is unnormalized, the
inverse divides by T, so round trips are identity up to float error.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _fft_radix2(x: np.ndarray, sign: float) -> np.ndarray:
    """Iterative Cooley-Tukey along the last axis of a complex array."""
    n = x.shape[-1]
    y = x[..., _bit_reverse_permutation(n)].copy()
    span = 1
    while span < n:
        half = span
        span *= 2
        # twiddle factors for this stage
        k = np.arange(half)
        w = np.exp(sign * 2j * np.pi * k / span)
        y = y.reshape(y.shape[:-1] + (n // span, span))
        even = y[..., :half]
        odd = y[..., half:] * w
        y = np.concatenate([even + odd, even - odd], axis=-1)
        y = y.reshape(y.shape[:-2] + (n,))
    return y


def _dft_direct(x: np.ndarray, sign: float) -> np.ndarray:
    n = x.shape[-1]
    t = np.arange(n)
    mat = np.exp(sign * 2j * np.pi * np.outer(t, t) / n)
    return x @ mat


def dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin matrices C, S with Re(F) = x @ C and Im(F) = x @ S.

    The same linear map the transforms implement; losses use these to keep
    the spectrum differentiable.
    """
    t = np.arange(n)
    ang = 2.0 * np.pi * np.outer(t, t) / n
    return np.cos(ang), -np.sin(ang)


def fft_time(x, axis: int = 0) -> np.ndarray:
    """Unnormalized DFT of real data along ``axis`` (moved to the last axis),
    as a complex128 array."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if data.shape[axis] < 1:
        raise ValueError("fft_time needs a non-empty transform axis")
    moved = np.moveaxis(data, axis, -1).astype(np.complex128)
    n = moved.shape[-1]
    return _fft_radix2(moved, -1.0) if _is_pow2(n) else _dft_direct(moved, -1.0)


def ifft_time(z: np.ndarray) -> np.ndarray:
    """Inverse of fft_time along the last axis of a complex array; returns
    the real part."""
    n = z.shape[-1]
    out = _fft_radix2(z, 1.0) if _is_pow2(n) else _dft_direct(z, 1.0)
    return (out / n).real
