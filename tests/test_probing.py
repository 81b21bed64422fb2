"""Probe training, top-1 scoring, and the frozen-encoder benchmark."""

import dataclasses
import hashlib

import numpy as np
import pytest

from vjlab import probing, training
from vjlab.config import variant_defaults
from vjlab.gradcheck import grad_check
from vjlab.model import init_encoder
from vjlab.probing import (
    EvalReport,
    TEST_TAG,
    TRAIN_TAG,
    _child_seed,
    accuracy,
    apply_standardize,
    attentive_pool,
    cross_entropy,
    init_probe,
    pooled_features,
    predict,
    probe_logits,
    standardize_stats,
    synthetic_benchmark,
    token_features,
    train_probe,
)
from vjlab.synth import gen_motion_dataset
from vjlab.tensor import Tensor, backward, log_softmax, matmul, softmax


def small_cfg(**kw):
    base = dict(steps=2, batch_size=2, n_per_class=2)
    base.update(kw)
    return dataclasses.replace(variant_defaults("Baseline"), **base)


def separable_features(rng, n_per_class=12, n_classes=4, dim=8, gap=4.0):
    feats, labels = [], []
    for c in range(n_classes):
        center = np.zeros(dim)
        center[c] = gap
        feats.append(center + 0.1 * rng.standard_normal((n_per_class, dim)))
        labels.extend([c] * n_per_class)
    return np.concatenate(feats), np.array(labels)


class TestStandardize:
    def test_stats_whiten_training_features(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((40, 6)) * np.array([1, 2, 3, 4, 5, 6.0]) + 7.0
        mean, std = standardize_stats(feats)
        z = apply_standardize(feats, mean, std)
        assert np.abs(z.mean(axis=0)).max() <= 1e-12
        assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-12

    def test_dead_channel_passes_through_unscaled(self):
        feats = np.zeros((10, 3))
        feats[:, 0] = np.linspace(0, 1, 10)
        feats[:, 2] = 5.0  # constant: dead channel
        mean, std = standardize_stats(feats)
        assert std[1] == 1.0 and std[2] == 1.0
        z = apply_standardize(feats, mean, std)
        assert np.all(z[:, 2] == 0.0)

    def test_token_features_pool_over_tokens_too(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((5, 7, 4))
        mean, std = standardize_stats(feats)
        flat = feats.reshape(-1, 4)
        assert np.array_equal(mean, flat.mean(axis=0))
        assert np.array_equal(std, flat.std(axis=0))


class TestCrossEntropy:
    def test_matches_log_softmax_formula(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, 6)
        got = cross_entropy(Tensor(logits), labels).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        want = -logp[np.arange(6), labels].mean()
        assert abs(got - want) <= 1e-12

    def test_uniform_logits_give_log_n_classes(self):
        val = cross_entropy(Tensor(np.zeros((4, 8))), np.arange(4) % 8).item()
        assert abs(val - np.log(8.0)) <= 1e-12

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="class range"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ValueError, match="class range"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))


def weighted_sum(out: Tensor, seed: int) -> Tensor:
    """A smooth scalar of every output entry, for finite differences."""
    return (out * Tensor(np.random.default_rng(seed).standard_normal(out.shape))).sum()


def composed_pool(x: Tensor, query: Tensor) -> Tensor:
    """The tensor-op graph attentive_pool fuses: the oracle for its bytes."""
    n, k, d = x.shape
    scores = matmul(x.reshape(n * k, d), query.reshape(d, 1))
    attn = softmax(scores.reshape(n, k) * (1.0 / np.sqrt(d)), axis=-1)
    return (attn.reshape(n, k, 1).broadcast_to((n, k, d)) * x).sum(axis=1)


def composed_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """The tensor-op graph cross_entropy fuses: the oracle for its bytes."""
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return (log_softmax(logits) * Tensor(onehot)).sum() * (-1.0 / n)


def value_and_grads(f, arrays):
    """f's value and each input's gradient, as bytes."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = f(*inputs)
    backward(out if out.size == 1 else weighted_sum(out, 13))
    return [np.asarray(out.data).tobytes()] + [t.grad.tobytes() for t in inputs]


class TestFusedNodes:
    def test_attentive_pool_grad_check(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True)
        q = Tensor(rng.standard_normal(4), requires_grad=True)
        rep = grad_check(lambda x, q: weighted_sum(attentive_pool(x, q), 1), [x, q])
        assert rep.ok(1e-4), rep.per_input

    def test_cross_entropy_grad_check(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 5, 6)
        rep = grad_check(lambda z: cross_entropy(z, labels),
                         [Tensor(rng.standard_normal((6, 5)), requires_grad=True)])
        assert rep.ok(1e-4), rep.per_input

    def test_clamped_scores_pass_no_gradient_to_query(self):
        # q picks channel 0, so a score is x[..., 0] / sqrt(4) = x[..., 0] / 2:
        # every score of clip 0 lies beyond +-20, no score of clip 1 does
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 4))
        x[0, :, 0] = [50.0, -45.0, 60.0]
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for clip, zero in ((0, True), (1, False)):
            xt, qt = Tensor(x, requires_grad=True), Tensor(q, requires_grad=True)
            weights = np.zeros((2, 4))
            weights[clip] = rng.standard_normal(4)
            backward((attentive_pool(xt, qt) * Tensor(weights)).sum())
            assert np.all(qt.grad == 0.0) == zero, clip
            assert np.any(xt.grad[clip] != 0.0)  # the weighted token sum still passes gradient

    def test_equal_logits_give_log_n_classes_exactly(self):
        assert cross_entropy(Tensor(np.full((1, 8), 0.3)), np.array([5])).item() == np.log(8.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_the_composed_graph_bit_for_bit(self, seed):
        rng = np.random.default_rng([14, seed])
        # scores spread past +-20 on some tokens, so the clamp mask is exercised
        x, q = rng.standard_normal((5, 7, 6)) * 5.0, rng.standard_normal(6) * 4.0
        scores = x @ q / np.sqrt(6)
        assert (np.abs(scores) > 20.0).any() and (np.abs(scores) < 20.0).any()
        assert value_and_grads(attentive_pool, [x, q]) == value_and_grads(composed_pool, [x, q])
        logits, labels = rng.standard_normal((9, 8)) * 4.0, rng.integers(0, 8, 9)
        assert value_and_grads(lambda z: cross_entropy(z, labels), [logits]) == \
            value_and_grads(lambda z: composed_cross_entropy(z, labels), [logits])

    def test_attentive_pool_rejects_mismatched_query(self):
        with pytest.raises(ValueError, match="attentive pool"):
            attentive_pool(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(5)))


class TestPredict:
    def test_all_zero_logits_tie_break_to_class_zero(self):
        # zero weights, zero bias: every logit row ties at zero
        probe = init_probe("linear", 4, 8, np.random.default_rng(0),
                           np.zeros(4), np.ones(4))
        probe.w.data[:] = 0.0
        feats = np.random.default_rng(1).standard_normal((16, 4))
        preds = predict(probe, feats)
        assert np.all(preds == 0)
        labels = np.arange(16) % 8  # balanced: class 0 holds 1/8 of rows
        assert accuracy(probe, feats, labels) == pytest.approx(0.125)

    def test_hand_built_three_of_four_correct(self):
        probe = init_probe("linear", 2, 3, np.random.default_rng(0),
                           np.zeros(2), np.ones(2))
        probe.w.data = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        probe.b.data[:] = 0.0
        feats = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 1, 0, 2])  # last row predicted 1, labelled 2
        assert accuracy(probe, feats, labels) == pytest.approx(0.75)

    def test_argmax_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        probe = init_probe("linear", 5, 4, rng, np.zeros(5), np.ones(5))
        feats = rng.standard_normal((10, 5))
        base = predict(probe, feats)
        probe2 = init_probe("linear", 5, 4, np.random.default_rng(3),
                            np.zeros(5), np.ones(5))
        probe2.w.data = probe.w.data * 3.0
        probe2.b.data = probe.b.data * 3.0  # logits scaled by 3: same argmax
        assert np.array_equal(predict(probe2, feats), base)


class TestProbeTraining:
    def test_separable_features_reach_train_accuracy_one(self):
        rng = np.random.default_rng(4)
        feats, labels = separable_features(rng)
        probe = train_probe(feats, labels, 4, epochs=50, seed=0)
        assert accuracy(probe, feats, labels) == 1.0

    def test_shuffled_labels_score_near_chance(self):
        rng = np.random.default_rng(5)
        train_x = rng.standard_normal((64, 8))
        train_y = np.arange(64) % 8
        test_x = rng.standard_normal((64, 8))
        test_y = rng.permutation(np.arange(64) % 8)
        probe = train_probe(train_x, train_y, 8, epochs=20, seed=0)
        acc = accuracy(probe, test_x, test_y)
        assert 0.0 <= acc <= 0.30  # chance is 0.125 on unrelated noise

    def test_same_seed_identical_probe_weights(self):
        rng = np.random.default_rng(6)
        feats, labels = separable_features(rng, n_per_class=6)
        p1 = train_probe(feats, labels, 4, epochs=5, seed=9)
        p2 = train_probe(feats, labels, 4, epochs=5, seed=9)
        assert np.array_equal(p1.w.data, p2.w.data)
        assert np.array_equal(p1.b.data, p2.b.data)

    def test_single_class_rejected(self):
        feats = np.random.default_rng(7).standard_normal((8, 4))
        with pytest.raises(ValueError, match="two classes"):
            train_probe(feats, np.zeros(8, dtype=int), 3)

    @pytest.mark.parametrize("labels", [np.arange(40) % 5, np.arange(39) % 4,
                                        np.arange(41) % 4],
                             ids=["label_outside_classes", "too_few", "too_many"])
    def test_bad_labels_raise_before_any_step(self, labels, monkeypatch):
        with pytest.raises(ValueError) as want:
            cross_entropy(Tensor(np.zeros((40, 4))), labels)
        steps = []
        monkeypatch.setattr(training, "adamw_step", lambda *args, **kwargs: steps.append(args))
        feats = np.random.default_rng(12).standard_normal((40, 6))
        with pytest.raises(ValueError) as got:
            train_probe(feats, labels, 4)
        assert str(got.value) == str(want.value)
        assert steps == []

    def test_non_finite_feature_stops_the_fit(self):
        feats = np.random.default_rng(13).standard_normal((16, 4))
        feats[3, 1] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite gradient for 'probe.w'"):
            train_probe(feats, np.arange(16) % 4, 4)

    def test_bad_probe_kind_rejected(self):
        with pytest.raises(ValueError, match="linear or attentive"):
            init_probe("mlp", 4, 2, np.random.default_rng(0),
                       np.zeros(4), np.ones(4))

    def test_attentive_probe_trains_on_token_features(self):
        rng = np.random.default_rng(8)
        # class signal lives in one token; mean pooling dilutes it 1/16
        n, k, d = 48, 16, 6
        labels = np.arange(n) % 3
        feats = 0.05 * rng.standard_normal((n, k, d))
        for i in range(n):
            feats[i, 3, labels[i]] += 3.0
        probe = train_probe(feats, labels, 3, kind="attentive", epochs=50, seed=0)
        assert accuracy(probe, feats, labels) == 1.0

    def test_linear_probe_rejects_token_features(self):
        rng = np.random.default_rng(9)
        probe = init_probe("linear", 4, 2, rng, np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="linear probe"):
            probe_logits(probe, rng.standard_normal((3, 5, 4)))
        att = init_probe("attentive", 4, 2, rng, np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="attentive probe"):
            probe_logits(att, rng.standard_normal((3, 4)))


class TestFeatureExtraction:
    def test_feature_shapes(self):
        cfg = small_cfg()
        enc = init_encoder(cfg, np.random.default_rng(0))
        ds = gen_motion_dataset(1, 0, t=cfg.frames, h=cfg.height, w=cfg.width)
        tok = token_features(enc, ds.clips)
        assert tok.shape == (8, 64, cfg.dim)
        pooled = pooled_features(enc, ds.clips)
        assert pooled.shape == (8, cfg.dim)
        assert np.allclose(pooled, tok.mean(axis=1))

    def test_extraction_leaves_no_gradients(self):
        cfg = small_cfg()
        enc = init_encoder(cfg, np.random.default_rng(0))
        ds = gen_motion_dataset(1, 0, t=cfg.frames, h=cfg.height, w=cfg.width)
        token_features(enc, ds.clips[:2])
        assert all(t.grad is None for t in enc.named().values())


class TestBenchmark:
    def test_seed_partition_train_test_disjoint(self):
        assert _child_seed(0, TRAIN_TAG) != _child_seed(0, TEST_TAG)
        cfg = small_cfg()
        a = gen_motion_dataset(2, _child_seed(cfg.seed, TRAIN_TAG),
                               t=cfg.frames, h=cfg.height, w=cfg.width)
        b = gen_motion_dataset(2, _child_seed(cfg.seed, TEST_TAG),
                               t=cfg.frames, h=cfg.height, w=cfg.width)
        for ca in a.clips:
            for cb in b.clips:
                assert not np.array_equal(ca.pixels, cb.pixels)

    def test_untrained_encoder_report_well_formed(self):
        cfg = small_cfg(probe_epochs=2)
        enc = init_encoder(cfg, np.random.default_rng(1))
        rep = synthetic_benchmark(enc, cfg, n_train_per_class=2, n_test_per_class=2)
        assert isinstance(rep, EvalReport)
        assert rep.variant == "Baseline" and rep.kind == "linear"
        assert rep.n_train == 16 and rep.n_test == 16
        assert 0.0 <= rep.accuracy <= 1.0
        assert len(rep.per_class) == 8
        per_class_mean = np.mean(list(rep.per_class.values()))
        assert rep.accuracy == pytest.approx(per_class_mean)  # balanced test set

    def test_benchmark_deterministic_and_encoder_untouched(self):
        cfg = small_cfg(probe_epochs=2)
        enc = init_encoder(cfg, np.random.default_rng(2))
        before = {k: t.data.copy() for k, t in enc.named().items()}
        r1 = synthetic_benchmark(enc, cfg, n_train_per_class=2, n_test_per_class=2)
        r2 = synthetic_benchmark(enc, cfg, n_train_per_class=2, n_test_per_class=2)
        assert r1 == r2
        for k, t in enc.named().items():
            assert np.array_equal(t.data, before[k]), k

    def test_benchmark_seed_changes_partition(self):
        cfg = small_cfg(probe_epochs=2)
        enc = init_encoder(cfg, np.random.default_rng(3))
        r1 = synthetic_benchmark(enc, cfg, n_train_per_class=2, n_test_per_class=2, seed=0)
        r2 = synthetic_benchmark(enc, cfg, n_train_per_class=2, n_test_per_class=2, seed=1)
        assert r1 != r2

    def test_default_call_renders_through_the_module_name(self, monkeypatch):
        renders = []
        render = probing.gen_motion_dataset

        def counted(*args, **kwargs):
            renders.append(args)
            return render(*args, **kwargs)

        monkeypatch.setattr(probing, "gen_motion_dataset", counted)
        cfg = small_cfg(probe_epochs=1)
        synthetic_benchmark(init_encoder(cfg, np.random.default_rng(5)), cfg,
                            n_train_per_class=1, n_test_per_class=1)
        assert renders == [(1, _child_seed(cfg.seed, TRAIN_TAG)),
                           (1, _child_seed(cfg.seed, TEST_TAG))]

    def test_attentive_benchmark_runs(self):
        cfg = small_cfg(probe_kind="attentive", probe_epochs=2)
        enc = init_encoder(cfg, np.random.default_rng(4))
        rep = synthetic_benchmark(enc, cfg, n_train_per_class=2, n_test_per_class=2)
        assert rep.kind == "attentive"
        assert 0.0 <= rep.accuracy <= 1.0


def _pin_features(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # n = 40 at batch 16 leaves a short last minibatch of 8
    rng = np.random.default_rng([77, seed])
    shape = (40, 6) if kind == "linear" else (40, 5, 6)
    feats = rng.standard_normal(shape) * np.arange(1.0, 7.0) + 3.0
    return feats, np.arange(40) % 4


def _probe_digest(probe) -> str:
    digest = hashlib.sha256()
    for name, t in sorted(probe.named().items()):
        digest.update(name.encode())
        digest.update(t.data.tobytes())
    return digest.hexdigest()


# train_probe on _pin_features(kind, seed) for 7 epochs; see TestPinnedProbe.
PINNED_PROBE_DIGESTS = {
    ("linear", 0): "e80d9604a75ae18be5803b644807602659b852669f89070620a61cd8113090d7",
    ("linear", 1): "4cf120f505e9aea8b1bc4b684a92f75196d479f208ca2242f55ce03529507f99",
    ("attentive", 0): "69cbb278d67086ee2c5c58794b5368c54c63a4bd94b1eb2b479a9ef3789d7125",
    ("attentive", 1): "4c5d5a102718ca159eb90cf23424380793cf6f85511b74201626b55b8b7c3c9d",
}

# synthetic_benchmark on a fixed untrained encoder; see TestPinnedProbe.
PINNED_BENCHMARK = {
    "linear": (0.16666666666666666, {
        "translate_up": 1 / 3, "translate_down": 1 / 3, "translate_left": 0.0,
        "translate_right": 0.0, "rotate_cw": 1 / 3, "rotate_ccw": 0.0,
        "scale_up": 0.0, "scale_down": 1 / 3}),
    "attentive": (0.20833333333333334, {
        "translate_up": 0.0, "translate_down": 1 / 3, "translate_left": 0.0,
        "translate_right": 1 / 3, "rotate_cw": 0.0, "rotate_ccw": 0.0,
        "scale_up": 1.0, "scale_down": 0.0}),
}


class TestPinnedProbe:
    @pytest.mark.parametrize("kind,seed", [(k, s) for k in ("linear", "attentive") for s in (0, 1)])
    def test_trained_probe_digest(self, kind, seed):
        """probe.w, probe.b and probe.q stay byte for byte what train_probe
        learned when the digests were recorded."""
        feats, labels = _pin_features(kind, seed)
        probe = train_probe(feats, labels, 4, kind=kind, epochs=7, seed=seed)
        assert _probe_digest(probe) == PINNED_PROBE_DIGESTS[kind, seed]

    @pytest.mark.parametrize("kind", ["linear", "attentive"])
    def test_benchmark_accuracy(self, kind):
        cfg = small_cfg(probe_kind=kind, probe_epochs=4)
        enc = init_encoder(cfg, np.random.default_rng(11))
        rep = synthetic_benchmark(enc, cfg, n_train_per_class=3, n_test_per_class=3)
        assert (rep.accuracy, rep.per_class) == PINNED_BENCHMARK[kind]


# One step's raw gradients of train_probe on _pin_features(kind, 0); see
# TestPinnedProbeGradient.
PINNED_FIRST_GRADIENTS = {
    "linear": "6a40e0917c7be7085c241d354bc856cc3b0c0229b5e1c61a5041eb3137851353",
    "attentive": "5fec28d682023727a6e8dabfbdd85a42ad671d898379c37d64411e71a2292965",
}


class TestPinnedProbeGradient:
    @pytest.mark.parametrize("kind", ["linear", "attentive"])
    def test_first_step_gradient_digest(self, kind, monkeypatch):
        """The float64 gradients of probe.w, probe.b and probe.q, taken before
        adamw_step rounds the parameters to float32, so a last-bit change in
        the probe's graph shows here even where TestPinnedProbe cannot see it."""
        steps = []
        step = training.adamw_step

        def recorded(params, grads, *args, **kwargs):
            steps.append({name: g.copy() for name, g in grads.items()})
            step(params, grads, *args, **kwargs)

        monkeypatch.setattr(training, "adamw_step", recorded)
        feats, labels = _pin_features(kind, 0)
        train_probe(feats, labels, 4, kind=kind, epochs=1, seed=0)
        digest = hashlib.sha256()
        for name, g in sorted(steps[0].items()):
            assert g.dtype == np.float64, name
            digest.update(name.encode())
            digest.update(g.tobytes())
        assert digest.hexdigest() == PINNED_FIRST_GRADIENTS[kind]
