"""Named self-checks wired to `lab verify`: fast invariants over every layer.

Each check raises AssertionError (or any exception) to fail; the runner
collects (name, ok, detail) triples. The full battery runs in seconds.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import variant_defaults
from .fourier import fft_time, ifft_time
from .gradcheck import grad_check
from .masking import sample_future_predictive, sample_tube_mask
from .model import ema_update, load_checkpoint, save_checkpoint
from .objectives import (
    compose_total,
    delta_loss,
    hard_weights,
    jepa_loss,
    per_token_errors,
    sigreg_loss,
    spectral_loss,
)
from .synth import MotionClass, gen_motion_clip, gen_motion_dataset
from .tensor import Tensor, matmul
from .training import draw_batch, init_state, train_step


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check_fft_round_trip(seed: int) -> None:
    rng = np.random.default_rng([seed, 1])
    for n in (8, 12, 16):
        x = rng.standard_normal((5, n))
        back = ifft_time(fft_time(x, axis=1))
        assert np.abs(back.real - x).max() <= 1e-9, f"round trip off at length {n}"
        assert np.abs(back.imag).max() <= 1e-9


def _check_fft_vs_naive(seed: int) -> None:
    rng = np.random.default_rng([seed, 2])
    x = rng.standard_normal(8)
    spec = fft_time(x)
    naive_re = np.zeros(8)
    naive_im = np.zeros(8)
    for k in range(8):
        for t in range(8):
            ang = -2.0 * np.pi * k * t / 8
            naive_re[k] += x[t] * np.cos(ang)
            naive_im[k] += x[t] * np.sin(ang)
    assert np.abs(spec.real - naive_re).max() <= 1e-9
    assert np.abs(spec.imag - naive_im).max() <= 1e-9


def _check_gradients(seed: int) -> None:
    rng = np.random.default_rng([seed, 3])
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def f(x, y):
        return (matmul(x, y).tanh() * matmul(x, y)).mean()

    rep = grad_check(f, [Tensor(a), Tensor(b)])
    assert rep.ok(1e-4), f"max rel err {rep.max_rel_err:.2e}"


def _check_loss_zero_identities(seed: int) -> None:
    rng = np.random.default_rng([seed, 4])
    h = rng.standard_normal((1, 3, 4, 8))
    z = Tensor(h.copy(), requires_grad=True)
    assert delta_loss(z, h).item() == 0.0
    assert spectral_loss(z, h).item() == 0.0


def _check_sigreg_degenerate(seed: int) -> None:
    z = Tensor(np.zeros((1, 4, 4, 6)), requires_grad=True)
    val = sigreg_loss(z, 3, [np.random.default_rng([seed, 5])]).item()
    assert abs(val - 10.0) <= 1e-12, f"degenerate penalty {val}"


def _check_hard_weights(seed: int) -> None:
    rng = np.random.default_rng([seed, 6])
    e = rng.standard_normal((1, 16))
    w = hard_weights(e).data
    assert abs(w.sum() - 16.0) <= 1e-9
    w2 = hard_weights(np.array([[0.0, 1e6]])).data
    assert np.all(np.isfinite(w2))


def _check_jepa_weighting(seed: int) -> None:
    rng = np.random.default_rng([seed, 7])
    pred = Tensor(rng.standard_normal((1, 4, 3)), requires_grad=True)
    targ = pred.data + 0.5
    w = np.array([[0.5, 1.5, 0.5, 1.5]])
    got = jepa_loss(per_token_errors(pred, targ), w).item()
    assert abs(got - 0.5) <= 1e-12, got  # uniform errors: weighting cancels


def _check_masking(seed: int) -> None:
    rng = np.random.default_rng([seed, 8])
    grid = (4, 4, 4)
    for _ in range(20):
        mask = sample_tube_mask(grid, 0.5, rng)
        n_spatial = mask.target[0].sum()
        # 10% ratio tolerance on 16 spatial tokens admits exactly 8
        assert n_spatial == 8, f"coverage {n_spatial} outside band"
        assert np.array_equal(mask.visible, ~mask.target)
    fp = sample_future_predictive(grid, 0.5, 0.5, True, rng)
    assert not fp.visible[2:].any(), "future tokens visible"
    assert np.array_equal(fp.target, ~fp.visible)


def _check_ema_formula(seed: int) -> None:
    rng = np.random.default_rng([seed, 9])
    t = {"w": Tensor(rng.standard_normal(8))}
    s = {"w": Tensor(rng.standard_normal(8), requires_grad=True)}
    before = t["w"].data.copy()
    ema_update(t, s, 0.99925)
    want = 0.99925 * before + (1.0 - 0.99925) * s["w"].data
    assert np.array_equal(t["w"].data, want)


def _check_compose_recipe(seed: int) -> None:
    cfg = variant_defaults("FWM-HW-LD")
    parts = {"jepa": Tensor(0.1), "hw_jepa": Tensor(0.2), "static": Tensor(0.3),
             "orth": Tensor(0.4), "ld_hw": Tensor(0.5)}
    total = compose_total(cfg, parts).total
    assert abs(total - 0.819) <= 1e-12, total


def _check_checkpoint_round_trip(seed: int) -> None:
    rng = np.random.default_rng([seed, 10])
    records = {
        "a.w": rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64),
        "b": rng.standard_normal(5).astype(np.float32).astype(np.float64),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.jpck"
        save_checkpoint(path, records)
        back = load_checkpoint(path)
    assert set(back) == set(records)
    for k in records:
        assert np.array_equal(back[k], records[k]), k


def _check_synth_determinism(seed: int) -> None:
    a = gen_motion_clip(MotionClass.TRANSLATE_RIGHT, np.random.default_rng([seed, 11]))
    b = gen_motion_clip(MotionClass.TRANSLATE_RIGHT, np.random.default_rng([seed, 11]))
    assert np.array_equal(a.pixels, b.pixels)
    assert a.pixels.min() >= 0.0 and a.pixels.max() <= 1.0


def _check_train_step_determinism(seed: int) -> None:
    cfg = dataclasses.replace(variant_defaults("Baseline"),
                              steps=2, batch_size=2, n_per_class=1, seed=seed)
    ds = gen_motion_dataset(1, seed)
    m1 = train_step(init_state(cfg), draw_batch(ds, 2, seed, 0))
    m2 = train_step(init_state(cfg), draw_batch(ds, 2, seed, 0))
    assert m1 == m2, "identical steps disagree"
    assert np.isfinite(m1["total"])


CHECKS = [
    ("fft_round_trip", _check_fft_round_trip),
    ("fft_vs_naive_dft", _check_fft_vs_naive),
    ("gradient_engine", _check_gradients),
    ("loss_zero_identities", _check_loss_zero_identities),
    ("sigreg_degenerate_penalty", _check_sigreg_degenerate),
    ("hard_weight_normalization", _check_hard_weights),
    ("jepa_distance_weighting", _check_jepa_weighting),
    ("mask_coverage_band", _check_masking),
    ("ema_update_exact", _check_ema_formula),
    ("compose_recipe_frozen", _check_compose_recipe),
    ("checkpoint_round_trip", _check_checkpoint_round_trip),
    ("synth_determinism", _check_synth_determinism),
    ("train_step_determinism", _check_train_step_determinism),
]


def run_verify(seed: int = 0) -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            fn(seed)
            results.append(CheckResult(name, True))
        except Exception as err:  # noqa: BLE001 - every failure mode is a check failure
            results.append(CheckResult(name, False, f"{type(err).__name__}: {err}"))
    return results
