"""Probe training, top-1 scoring, and the frozen-encoder benchmark."""

import dataclasses

import numpy as np
import pytest

from vjlab.config import variant_defaults
from vjlab.model import init_encoder
from vjlab.probing import (
    EvalReport,
    TEST_TAG,
    TRAIN_TAG,
    _child_seed,
    accuracy,
    apply_standardize,
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
from vjlab.tensor import Tensor


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

    def test_attentive_benchmark_runs(self):
        cfg = small_cfg(probe_kind="attentive", probe_epochs=2)
        enc = init_encoder(cfg, np.random.default_rng(4))
        rep = synthetic_benchmark(enc, cfg, n_train_per_class=2, n_test_per_class=2)
        assert rep.kind == "attentive"
        assert 0.0 <= rep.accuracy <= 1.0
