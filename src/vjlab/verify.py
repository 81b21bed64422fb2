"""Named self-checks: fast invariants over every layer, one function each.

`lab verify` runs every function in CHECKS and prints its name. Each check is
the one implementation of its property: its unit tests call it as
`verify.<name>`, passing the inputs they vary as keywords, and the defaults
are what `lab verify` runs. A check fails by raising AssertionError (or any
exception). The battery runs in about a second.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from .config import variant_defaults
from .fourier import fft_time, ifft_time
from .gradcheck import grad_check
from .masking import sample_future_predictive, sample_tube_mask
from .model import (
    ModelConfig,
    clone_frozen,
    ema_update,
    init_encoder,
    load_checkpoint,
    quantize_params,
    save_checkpoint,
)
from .objectives import (
    compose_total,
    delta_loss,
    hard_weights,
    jepa_loss,
    per_token_errors,
    sigreg_loss,
    spectral_loss,
)
from .synth import gen_motion_dataset
from .tensor import Tensor
from .training import draw_batch, init_state, train_step


def naive_dft(x: np.ndarray) -> np.ndarray:
    """Direct textbook DFT sum of a 1-d series, the oracle route for fft_time."""
    n = len(x)
    return np.array([sum(x[t] * np.exp(-2j * np.pi * k * t / n) for t in range(n))
                     for k in range(n)])


def fft_round_trip(seed: int = 0, lengths: tuple[int, ...] = (2, 4, 6, 8, 12, 16)) -> None:
    rng = np.random.default_rng(seed)
    for n in lengths:
        x = rng.standard_normal(n)
        back = ifft_time(fft_time(x))
        assert np.max(np.abs(back - x)) <= 1e-9, f"round trip off at length {n}"


def fft_vs_naive_dft(n: int = 8) -> None:
    x = np.random.default_rng(n).standard_normal(n)
    got, want = fft_time(x), naive_dft(x)
    assert np.max(np.abs(got.real - want.real)) <= 1e-9
    assert np.max(np.abs(got.imag - want.imag)) <= 1e-9


def gradient_engine() -> None:
    def f(a, b):
        return ((a @ b).tanh() * a.sum()).mean()

    rep = grad_check(f, [Tensor(np.random.default_rng(10).standard_normal((3, 4))),
                         Tensor(np.random.default_rng(11).standard_normal((4, 3)))])
    assert rep.ok(1e-4), f"max rel err {rep.max_rel_err:.2e}"


def loss_zero_identities() -> None:
    h = np.random.default_rng(0).standard_normal((1, 3, 2, 2))
    assert delta_loss(Tensor(h.copy(), requires_grad=True), h).item() == 0.0
    # constant offsets cancel in the differences up to rounding
    assert delta_loss(Tensor(h + 4.0, requires_grad=True), h).item() <= 1e-12
    h = np.random.default_rng(0).standard_normal((1, 4, 2, 3))
    assert spectral_loss(Tensor(h.copy(), requires_grad=True), h).item() == 0.0


def sigreg_degenerate_penalty() -> None:
    z = Tensor(np.zeros((1, 4, 4, 6)), requires_grad=True)
    val = sigreg_loss(z, 3, [np.random.default_rng(1)]).item()
    assert abs(val - 10.0) <= 1e-12, f"degenerate penalty {val}"


def hard_weight_normalization() -> None:
    rng = np.random.default_rng(0)
    for n in (4, 16, 33):
        w = hard_weights(rng.standard_normal((1, n)), tau=1.0).data
        assert abs(w.sum() - n) <= 1e-9, n
    w = hard_weights(np.array([[0.0, 1e6, -1e6]]), tau=1.0).data
    assert np.all(np.isfinite(w))
    assert abs(w.sum() - 3.0) <= 1e-9


def jepa_distance_weighting() -> None:
    rng = np.random.default_rng(7)
    pred = Tensor(rng.standard_normal((1, 4, 3)), requires_grad=True)
    targ = pred.data + 0.5
    w = np.array([[0.5, 1.5, 0.5, 1.5]])
    got = jepa_loss(per_token_errors(pred, targ), w).item()
    assert abs(got - 0.5) <= 1e-12, got  # uniform errors: weighting cancels


def mask_coverage_band(seed: int = 0) -> None:
    grid = (4, 4, 4)
    rng = np.random.default_rng(seed)
    spec = sample_tube_mask(grid, 0.5, rng)
    per_block = spec.target.sum(axis=(1, 2))
    assert np.all(per_block == per_block[0]), "spatial pattern differs between blocks"
    assert 6 <= per_block[0] <= 10
    # the band admits exactly 8 of the 16 spatial tokens
    assert abs(per_block[0] / 16.0 - 0.5) <= 0.05 + 1e-12, f"coverage {per_block[0]} outside band"
    assert np.array_equal(spec.visible, ~spec.target)
    fp = sample_future_predictive(grid, 0.5, 0.5, True, rng)
    assert not fp.visible[2:].any(), "future tokens visible"
    assert np.array_equal(fp.target, ~fp.visible)


def ema_update_exact() -> None:
    student = init_encoder(ModelConfig(), np.random.default_rng(0))
    s_named, t_named = student.named(), clone_frozen(student).named()
    rng = np.random.default_rng(9)
    for t in t_named.values():
        t.data = rng.standard_normal(t.data.shape)
    before = {k: t.data.copy() for k, t in t_named.items()}
    ema_update(t_named, s_named, 0.99925)
    for k, t in t_named.items():
        want = 0.99925 * before[k] + (1.0 - 0.99925) * s_named[k].data
        assert np.array_equal(t.data, want), k
        approx = 0.99925 * before[k] + 0.00075 * s_named[k].data
        assert np.max(np.abs(t.data - approx)) <= 1e-12, k


def compose_recipe_frozen() -> None:
    cfg = variant_defaults("FWM-HW-LD")
    parts = {"jepa": Tensor(0.1), "hw_jepa": Tensor(0.2), "static": Tensor(0.3),
             "orth": Tensor(0.4), "ld_hw": Tensor(0.5)}
    bundle = compose_total(cfg, parts)
    assert abs(bundle.total - 0.819) <= 1e-12, bundle.total
    assert bundle.components == {"jepa": 0.1, "hw_jepa": 0.2, "static": 0.3,
                                 "orth": 0.4, "ld_hw": 0.5}


def checkpoint_round_trip() -> None:
    params = init_encoder(ModelConfig(), np.random.default_rng(5))
    quantize_params(params.named())
    records = {k: t.data for k, t in params.named().items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.jpck"
        save_checkpoint(path, records)
        back = load_checkpoint(path)
    assert set(back) == set(records)
    for k in records:
        assert np.array_equal(back[k], records[k]), k


def synth_determinism() -> None:
    a = gen_motion_dataset(3, seed=7)
    b = gen_motion_dataset(3, seed=7)
    assert len(a) == 24
    assert sorted(c.label for c in a.clips) == sorted(list(range(8)) * 3)
    for ca, cb in zip(a.clips, b.clips):
        assert np.array_equal(ca.pixels, cb.pixels)
        assert ca.pixels.min() >= 0.0 and ca.pixels.max() <= 1.0


def train_step_determinism() -> None:
    cfg = dataclasses.replace(variant_defaults("Baseline"),
                              steps=2, batch_size=2, n_per_class=1, seed=0)
    ds = gen_motion_dataset(1, 0)
    m1 = train_step(init_state(cfg), draw_batch(ds, 2, 0, 0))
    m2 = train_step(init_state(cfg), draw_batch(ds, 2, 0, 0))
    assert m1 == m2, "identical steps disagree"
    assert np.isfinite(m1["total"])


CHECKS = (
    fft_round_trip,
    fft_vs_naive_dft,
    gradient_engine,
    loss_zero_identities,
    sigreg_degenerate_penalty,
    hard_weight_normalization,
    jepa_distance_weighting,
    mask_coverage_band,
    ema_update_exact,
    compose_recipe_frozen,
    checkpoint_round_trip,
    synth_determinism,
    train_step_determinism,
)
