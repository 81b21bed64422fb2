"""The spectral loss's DFT matrices and the test-side FFT oracle, both checked
against the naive textbook DFT in vjlab.verify."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vjlab import verify
from vjlab.objectives import dft_matrices
from vjlab.verify import naive_dft
from oracles import fft_time, ifft_time


def test_impulse_spectrum_flat():
    out = fft_time(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.max(np.abs(out.real - 1.0)) <= 1e-12
    assert np.max(np.abs(out.imag)) <= 1e-12


def test_constant_fiber_dc_only():
    c = 0.7
    out = fft_time(np.full(4, c))
    assert out.real[0] == pytest.approx(4 * c, abs=1e-12)
    assert np.max(np.abs(out.real[1:])) <= 1e-12
    assert np.max(np.abs(out.imag)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 16])
def test_matches_naive_dft_all_lengths(n):
    x = np.random.default_rng(n).standard_normal(n)
    got, want = fft_time(x), naive_dft(x)
    assert np.max(np.abs(got.real - want.real)) <= 1e-9
    assert np.max(np.abs(got.imag - want.imag)) <= 1e-9


def test_many_random_fibers_radix2_vs_naive():
    g = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        x = g.standard_normal(8) * 3.0
        got = fft_time(x)
        want = naive_dft(x)
        worst = max(
            worst,
            np.max(np.abs(got.real - want.real)),
            np.max(np.abs(got.imag - want.imag)),
        )
    assert worst <= 1e-9


@given(st.integers(0, 10_000), st.sampled_from([2, 4, 6, 8]))
@settings(max_examples=40)
def test_round_trip(seed, n):
    x = np.random.default_rng(seed).standard_normal(n)
    back = ifft_time(fft_time(x))
    assert np.max(np.abs(back - x)) <= 1e-9, f"round trip off at length {n}"


def test_multifiber_axis_handling():
    g = np.random.default_rng(7)
    grid = g.standard_normal((4, 5, 3))  # time on axis 0
    out = fft_time(grid, axis=0)
    assert out.real.shape == (5, 3, 4)
    for i in range(5):
        for j in range(3):
            want = naive_dft(grid[:, i, j])
            assert np.max(np.abs(out.real[i, j] - want.real)) <= 1e-9
            assert np.max(np.abs(out.imag[i, j] - want.imag)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 16])
def test_dft_matrices_agree_with_fft_time(n):
    g = np.random.default_rng(21)
    x = g.standard_normal(n)
    c, s = dft_matrices(n)
    got = fft_time(x)
    assert np.max(np.abs(x @ c - got.real)) <= 1e-12
    assert np.max(np.abs(x @ s - got.imag)) <= 1e-12


def test_spectral_matrices():
    verify.spectral_matrices()


def test_empty_axis_rejected():
    with pytest.raises(ValueError):
        fft_time(np.zeros((0,)))
