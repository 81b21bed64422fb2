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

from .config import RunConfig, variant_defaults
from .gradcheck import grad_check
from .masking import _Draws, sample_mask
from .model import (
    Block,
    block,
    clone_frozen,
    ema_update,
    extract_patches,
    flatten,
    init_encoder,
    load_checkpoint,
    quantize_params,
    save_checkpoint,
)
from .objectives import (
    compose_total,
    delta_loss,
    dft_matrices,
    hard_weights,
    jepa_loss,
    per_token_errors,
    sigreg_loss,
    spectral_loss,
)
from .probing import FEATURE_CHUNK, feature_stats
from .synth import gen_motion_dataset, load_dataset, save_dataset
from .tensor import Tensor, backward, erf
from .training import draw_batch, init_state, train_step


def naive_dft(x: np.ndarray) -> np.ndarray:
    """Direct textbook DFT sum of a 1-d series: the oracle for the spectral
    loss's matrices here and for the tests' FFT."""
    n = len(x)
    return np.array([sum(x[t] * np.exp(-2j * np.pi * k * t / n) for t in range(n))
                     for k in range(n)])


def spectral_matrices() -> None:
    rng = np.random.default_rng(0)
    for n in range(1, 17):  # the loss's own T' (4 by default) and 15 lengths around it
        x = rng.standard_normal(n)
        c, s = dft_matrices(n)
        dev = np.max(np.abs(x @ c + 1j * (x @ s) - naive_dft(x)))
        assert dev <= 1e-9, f"DFT matrices off by {dev:.1e} at length {n}"


def gradient_engine() -> None:
    def f(a, b):
        return ((a @ b).tanh() * a.sum()).mean()

    rep = grad_check(f, [Tensor(np.random.default_rng(10).standard_normal((3, 4))),
                         Tensor(np.random.default_rng(11).standard_normal((4, 3)))])
    assert rep.ok(1e-4), f"max rel err {rep.max_rel_err:.2e}"


def block_gradient(seed: int = 0) -> None:
    """Finite differences through ``model.block`` on a padded batch of two
    sequences (5 and 3 real tokens), for x and every parameter but the key
    bias ``bk``. Softmax ignores a per-query constant, so bk's exact gradient
    is 0, which a relative error cannot judge: its gradient is held to 1e-12."""
    rng = np.random.default_rng(seed)
    dim, ff, heads = 8, 16, 2
    wide = {"w1": (dim, ff), "b1": (ff,), "w2": (ff, dim)}
    shapes = {name: wide.get(name, (dim, dim) if name[0] == "w" else (dim,))
              for name in Block.__dataclass_fields__}
    # gains about 1, every other parameter about 0.5 in size, so no score is clipped
    values = {name: rng.standard_normal(shape) * 0.5 + name.endswith("_g")
              for name, shape in shapes.items()}
    x = rng.standard_normal((2, 5, dim))
    valid = np.array([[True] * 5, [True] * 3 + [False] * 2])
    weights = Tensor(rng.standard_normal(x.shape))
    names = [name for name in shapes if name != "bk"]

    def f(xt, *checked):
        blk = Block(bk=Tensor(values["bk"]), **dict(zip(names, checked)))
        return (block(blk, xt, heads, valid) * weights).sum()

    rep = grad_check(f, [Tensor(x)] + [Tensor(values[name]) for name in names])
    worst = dict(zip(["x"] + names, rep.per_input))
    assert rep.ok(1e-4), f"max rel err {rep.max_rel_err:.2e}: {worst}"
    blk = Block(**{name: Tensor(v, requires_grad=True) for name, v in values.items()})
    backward((block(blk, Tensor(x), heads, valid) * weights).sum())
    drift = np.max(np.abs(blk.bk.grad))
    assert drift <= 1e-12, f"key-bias gradient {drift:.1e}, exactly 0 in exact arithmetic"


# (argument, erf) as float.hex, from scipy.special.erf: every branch of cephes'
# erf, the signed zeros and subnormals, both sides of |x| = 1, the P/Q and R/S
# halves of erfc and both sides of its underflow cut near |x| = 26.64. Past
# |x| = 6 erfc is below half an ulp of 1, so erf is +-1 there whichever of R/S
# or the cut gave erfc: those lanes pin the sign and the infinities only.
ERF_REFERENCE = (
    ("0x0.0p+0", "0x0.0p+0"),
    ("-0x0.0p+0", "-0x0.0p+0"),
    ("0x0.0000000000001p-1022", "0x0.0000000000001p-1022"),
    ("-0x0.0000000000001p-1022", "-0x0.0000000000001p-1022"),
    ("0x1.56e1fc2f8f359p-997", "0x1.82e6d98711d3ap-997"),
    ("0x1.0000000000000p-1", "0x1.0a7ef5c18edd2p-1"),
    ("-0x1.0000000000000p-1", "-0x1.0a7ef5c18edd2p-1"),
    ("0x1.0000000000000p+0", "0x1.af767a741088ap-1"),
    ("-0x1.0000000000000p+0", "-0x1.af767a741088ap-1"),
    ("0x1.0000000000001p+0", "0x1.af767a741088cp-1"),
    ("-0x1.0000000000001p+0", "-0x1.af767a741088cp-1"),
    ("0x1.8000000000000p+0", "0x1.eea5557137ae0p-1"),
    ("0x1.8000000000000p+1", "0x1.fffd1ac4135f9p-1"),
    ("-0x1.8000000000000p+1", "-0x1.fffd1ac4135f9p-1"),
    ("0x1.4000000000000p+2", "0x1.fffffffffc9e8p-1"),
    ("0x1.ff5c28f5c28f6p+2", "0x1.0000000000000p+0"),
    ("0x1.0000000000000p+3", "0x1.0000000000000p+0"),
    ("0x1.4000000000000p+4", "0x1.0000000000000p+0"),
    ("0x1.a99999999999ap+4", "0x1.0000000000000p+0"),
    ("0x1.ab33333333333p+4", "0x1.0000000000000p+0"),
    ("-0x1.a99999999999ap+4", "-0x1.0000000000000p+0"),
    ("-0x1.ab33333333333p+4", "-0x1.0000000000000p+0"),
    ("inf", "0x1.0000000000000p+0"),
    ("-inf", "-0x1.0000000000000p+0"),
    ("nan", "nan"),
)


def erf_reference_values() -> None:
    args = np.array([float.fromhex(arg) for arg, _ in ERF_REFERENCE])
    together = erf(args)
    for i, (arg, want) in enumerate(ERF_REFERENCE):
        # one lane alone takes the rational's fast path; the array takes the mixed one
        for got in (float(together[i]), float(erf(args[i:i + 1])[0])):
            assert got.hex() == want, f"erf({arg}) = {got.hex()}, pinned {want}"


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
    spec = sample_mask(grid, 0.5, rng)
    per_block = spec.target.sum(axis=(1, 2))
    assert np.all(per_block == per_block[0]), "spatial pattern differs between blocks"
    assert 6 <= per_block[0] <= 10
    # the band admits exactly 8 of the 16 spatial tokens
    assert abs(per_block[0] / 16.0 - 0.5) <= 0.05 + 1e-12, f"coverage {per_block[0]} outside band"
    assert np.array_equal(spec.visible, ~spec.target)
    fp = sample_mask(grid, 0.5, rng, max_temporal_keep=0.5, full_complement=True)
    assert not fp.visible[2:].any(), "future tokens visible"
    assert np.array_equal(fp.target, ~fp.visible)


# A mixed sequence for mask_replay: widths 1 (which draws nothing), 3, 4 and 16,
# and doubles, some drawn while a 32-bit half is buffered; it ends on a buffered
# half consumed, so the state keeps a stale uinteger.
REPLAY_CALLS = (3, "random", 4, 1, 16, 16, "random", "random", 3, 1, 4, "random", 16, 3) * 8


def mask_replay(seed: int = 0) -> None:
    """The mask sampler's replay of ``Generator.integers(0, n)`` and
    ``random()`` from raw PCG64 words (``masking._Draws``) gives the live
    generator's values and leaves the same state dict, buffered half and
    stale ``uinteger`` included. A change to numpy's streams (NEP 19) fails
    here."""
    live, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = _Draws(replayed)
    for i, call in enumerate(REPLAY_CALLS):
        if call == "random":
            got, want = draws.random(), live.random()
        else:
            got, want = draws.below(call), int(live.integers(0, call))
        assert got == want, f"call {i} ({call}): replayed {got}, live {want}"
    draws.commit()
    assert replayed.bit_generator.state == live.bit_generator.state, "states differ"


def ema_update_exact() -> None:
    student = init_encoder(RunConfig(), np.random.default_rng(0))
    s_named, t_named = student.named(), clone_frozen(student).named()
    s_flat, t_flat = flatten(s_named), flatten(t_named)
    t_flat[...] = np.random.default_rng(9).standard_normal(t_flat.shape)
    before = {k: t.data.copy() for k, t in t_named.items()}
    ema_update(t_flat, s_flat, 0.99925)
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
    params = init_encoder(RunConfig(), np.random.default_rng(5))
    quantize_params(flatten(params.named()))
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.synv"
        save_dataset(path, a)
        back = load_dataset(path)
    assert len(back) == len(a)
    for ca, cb in zip(a.clips, back.clips):
        assert cb.pixels.dtype == np.float32, cb.pixels.dtype
        assert np.array_equal(cb.pixels, ca.pixels), "pixels change on a SYNV round trip"
        assert cb.label == ca.label


def pixel_widening(seed: int = 0) -> None:
    cfg = RunConfig()
    for clip in gen_motion_dataset(1, seed).clips:
        assert clip.pixels.dtype == np.bool_, clip.pixels.dtype
        a, b = (extract_patches(p, cfg.patch, cfg.tubelet)
                for p in (clip.pixels, clip.pixels.astype(np.float32)))
        assert a.tobytes() == b.tobytes(), "bool and float32 pixels patch differently"


def train_step_determinism() -> None:
    cfg = dataclasses.replace(variant_defaults("Baseline"),
                              steps=2, batch_size=2, n_per_class=1, seed=0)
    ds = gen_motion_dataset(1, 0)
    m1 = train_step(init_state(cfg), draw_batch(ds, 2, 0, 0))
    m2 = train_step(init_state(cfg), draw_batch(ds, 2, 0, 0))
    assert m1 == m2, "identical steps disagree"
    assert np.isfinite(m1["total"])


def probe_stream(seed: int = 0) -> None:
    """The probe's chunk-wise column statistics equal numpy's whole-array
    ``mean`` and ``std`` byte for byte, on token and on pooled features.
    They carry each chunk's running sum into the next, which matches only
    because numpy sums axis 0 of a C-contiguous array row after row; channel
    scales from 1e-3 to 1e3 make any other order show in the last bits."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** np.arange(-3, 4)
    tokens = rng.standard_normal((13, 5, 7)) * scales + rng.standard_normal(7) * scales
    for feats in (tokens, tokens.mean(axis=1)):
        flat = feats.reshape(-1, feats.shape[-1])
        mean, std = feature_stats([feats[lo:lo + FEATURE_CHUNK]
                                   for lo in range(0, len(feats), FEATURE_CHUNK)])
        assert mean.tobytes() == flat.mean(axis=0).tobytes(), \
            f"chunk-wise mean differs from numpy's for {feats.shape}"
        assert std.tobytes() == flat.std(axis=0).tobytes(), \
            f"chunk-wise std differs from numpy's for {feats.shape}"


CHECKS = (
    spectral_matrices,
    gradient_engine,
    block_gradient,
    erf_reference_values,
    loss_zero_identities,
    sigreg_degenerate_penalty,
    hard_weight_normalization,
    jepa_distance_weighting,
    mask_coverage_band,
    mask_replay,
    ema_update_exact,
    compose_recipe_frozen,
    checkpoint_round_trip,
    synth_determinism,
    pixel_widening,
    train_step_determinism,
    probe_stream,
)
