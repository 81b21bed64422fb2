"""Probe training, top-1 scoring, and the frozen-encoder benchmark."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from vjlab import probing, training, verify
from vjlab.config import variant_defaults
from vjlab.gradcheck import grad_check
from vjlab.model import encode, init_encoder
from vjlab.probing import (
    EvalReport,
    TEST_TAG,
    TRAIN_TAG,
    _child_seed,
    apply_standardize,
    attentive_pool,
    cross_entropy,
    dataset_features,
    evaluate,
    feature_stats,
    init_probe,
    pooled_features,
    predict,
    probe_datasets,
    probe_logits,
    synthetic_benchmark,
    train_probe,
)
from vjlab.synth import gen_motion_dataset
from vjlab.tensor import Tensor, backward, no_grad
from oracles import (composed_cross_entropy, composed_pool, evaluate_whole, standardize_stats,
                     token_features, train_probe_on_copy)


def accuracy(probe, feats, labels) -> float:
    """Top-1 accuracy of ``probe`` on ``feats``."""
    return float(np.mean(predict(probe, feats) == np.asarray(labels)))


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
        mean, std = feature_stats(feats)
        z = apply_standardize(feats, mean, std)
        assert np.abs(z.mean(axis=0)).max() <= 1e-12
        assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-12

    def test_dead_channel_passes_through_unscaled(self):
        feats = np.zeros((10, 3))
        feats[:, 0] = np.linspace(0, 1, 10)
        feats[:, 2] = 5.0  # constant: dead channel
        mean, std = feature_stats(feats)
        assert std[1] == 1.0 and std[2] == 1.0
        z = apply_standardize(feats, mean, std)
        assert np.all(z[:, 2] == 0.0)

    def test_token_features_pool_over_tokens_too(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((5, 7, 4))
        mean, std = feature_stats([feats[:2], feats[2:]])
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
        probe = train_probe(feats.copy(), labels, 4, epochs=50, seed=0)
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

    @pytest.mark.parametrize("kind", ["linear", "attentive"])
    def test_fitted_probe_values_tile_one_buffer(self, kind, monkeypatch):
        opts = []

        def recorded(params):
            opts.append(training.init_opt(params))
            return opts[-1]

        monkeypatch.setattr(probing, "init_opt", recorded)
        rng = np.random.default_rng(6)
        feats, labels = separable_features(rng, n_per_class=6)
        if kind == "attentive":
            feats = np.repeat(feats[:, None], 3, axis=1)
        probe = train_probe(feats, labels, 4, kind=kind, epochs=2, seed=9)
        (opt,) = opts
        at = 0
        for name, t in probe.named().items():
            assert np.shares_memory(t.data, opt.theta[at:at + t.size]), name
            assert t.grad is opt.grads[name], name
            at += t.size
        assert at == opt.theta.size

    def test_same_seed_identical_probe_weights(self):
        rng = np.random.default_rng(6)
        feats, labels = separable_features(rng, n_per_class=6)
        p1 = train_probe(feats.copy(), labels, 4, epochs=5, seed=9)
        p2 = train_probe(feats.copy(), labels, 4, epochs=5, seed=9)
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
        probe = train_probe(feats.copy(), labels, 3, kind="attentive", epochs=50, seed=0)
        assert accuracy(probe, feats, labels) == 1.0

    @pytest.mark.parametrize("kind", ["linear", "attentive"])
    @pytest.mark.parametrize("batch_size", [1, 7, 16, 40])
    def test_minibatch_standardization_matches_a_standardized_copy(self, kind, batch_size):
        """Byte-equal weights to the fit on one standardized copy of all the
        features, as one chunk and as chunks of 8 (the fit standardizes the
        chunks it is handed in place); 40 rows leave a last partial batch at
        sizes 7 and 16."""
        rng = np.random.default_rng(14)
        feats = rng.standard_normal((40, 6) if kind == "linear" else (40, 5, 6)) * 3.0 + 2.0
        labels = np.arange(40) % 4
        fit = dict(kind=kind, epochs=3, batch_size=batch_size, seed=1)
        want = train_probe_on_copy(feats, labels, 4, **fit)
        want_named = want.named()
        for got in (train_probe(feats.copy(), labels, 4, **fit),
                    train_probe([feats[lo:lo + 8].copy() for lo in range(0, 40, 8)], labels, 4,
                                **fit)):
            assert got.feat_mean.tobytes() == want.feat_mean.tobytes()
            assert got.feat_std.tobytes() == want.feat_std.tobytes()
            for name, t in got.named().items():
                assert t.data.tobytes() == want_named[name].data.tobytes(), name

    def test_the_fit_holds_no_second_feature_buffer(self, monkeypatch):
        """The traced bytes held at each step stay below half the features'
        bytes: no standardized copy of them (which reads above 1x) is held."""
        feats = np.random.default_rng(15).standard_normal((512, 64))
        labels = np.arange(512) % 8
        train_probe(feats[:16], labels[:16], 8, epochs=1)  # the lazy imports a first fit makes
        held = []
        descend = probing.descend

        def spy(*args):
            held.append(tracemalloc.get_traced_memory()[0] - start)
            return descend(*args)

        monkeypatch.setattr(probing, "descend", spy)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_probe(feats, labels, 8, epochs=1)
        finally:
            tracemalloc.stop()
        assert len(held) == 32 and max(held) < 0.5 * feats.nbytes, (max(held), feats.nbytes)

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
        chunks, labels = dataset_features(enc, ds, "attentive")
        assert [c.shape for c in chunks] == [(8, 64, cfg.dim)] and labels.shape == (8,)

    def test_one_buffer_matches_the_joined_chunks(self):
        """The oracle's one feature buffer is byte-equal to the chunks the
        attentive probe streams, joined, on a clip count that is not a
        multiple of ``FEATURE_CHUNK``."""
        cfg = small_cfg()
        enc = init_encoder(cfg, np.random.default_rng(0))
        ds = gen_motion_dataset(2, 0)
        ds.clips = ds.clips[:13]
        assert len(ds.clips) % probing.FEATURE_CHUNK
        chunks, _ = dataset_features(enc, ds, "attentive")
        assert [len(c) for c in chunks] == [8, 5]
        with no_grad():
            encoded = [encode(enc, ds.clips[lo:lo + 8])[0].data for lo in (0, 8)]
        assert [c.tobytes() for c in chunks] == [e.tobytes() for e in encoded]
        joined = np.concatenate(chunks)
        tok = token_features(enc, ds.clips)
        assert tok.dtype == joined.dtype and tok.shape == joined.shape
        assert tok.tobytes() == joined.tobytes()

    def test_extraction_leaves_no_gradients(self):
        cfg = small_cfg()
        enc = init_encoder(cfg, np.random.default_rng(0))
        ds = gen_motion_dataset(1, 0, t=cfg.frames, h=cfg.height, w=cfg.width)
        pooled_features(enc, ds.clips[:2])
        dataset_features(enc, ds, "attentive")
        assert all(t.grad is None for t in enc.named().values())

    # evaluate's tracemalloc peak at the benchmark's probe sizes (32 train and
    # 16 test clips per class, the criterion-8 geometry): measured at 5.67 MB
    # (attentive) and 1.79 MB (linear); 8.49 and 5.92 MB when the features
    # were one [n, tokens, dim] buffer and predict standardized a whole copy
    EVALUATE_PEAK = {"attentive": 5_670_000, "linear": 1_800_000}

    @pytest.mark.parametrize("kind", EVALUATE_PEAK)
    def test_heap_peak_of_evaluate(self, kind):
        cfg = dataclasses.replace(variant_defaults("Baseline"), probe_kind=kind, probe_epochs=1)
        enc = init_encoder(cfg, np.random.default_rng(0))
        sets = probe_datasets(cfg, 32, 16)
        evaluate(enc, cfg, *probe_datasets(cfg, 1, 1))  # the lazy imports a first fit makes
        tracemalloc.start()
        try:
            evaluate(enc, cfg, *sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.EVALUATE_PEAK[kind], peak


class TestStreamedProbe:
    """The chunk-by-chunk probe is byte for byte the probe on whole arrays
    (``oracles``): features, statistics, fit and the benchmark report."""

    @pytest.mark.parametrize("kind", ["linear", "attentive"])
    @pytest.mark.parametrize("n_clips", [13, 256])
    def test_chunked_stats_equal_the_joined_arrays(self, kind, n_clips):
        cfg = small_cfg()
        enc = init_encoder(cfg, np.random.default_rng(1))
        ds = gen_motion_dataset(32, 3)
        ds.clips = ds.clips[:n_clips]
        chunks, _ = dataset_features(enc, ds, kind)
        joined = np.concatenate(chunks)
        for got, want in zip(feature_stats(chunks), standardize_stats(joined)):
            assert got.tobytes() == want.tobytes()

    def test_chunk_pooled_features_equal_the_token_mean(self):
        cfg = small_cfg()
        enc = init_encoder(cfg, np.random.default_rng(2))
        clips = gen_motion_dataset(2, 4).clips[:13]
        pooled = pooled_features(enc, clips)
        assert pooled.tobytes() == token_features(enc, clips).mean(axis=1).tobytes()

    @pytest.mark.parametrize("kind", ["linear", "attentive"])
    def test_one_chunk_and_many_chunks_fit_alike(self, kind):
        rng = np.random.default_rng(16)
        feats = rng.standard_normal((45, 6) if kind == "linear" else (45, 5, 6)) * 2.0 - 1.0
        labels = np.arange(45) % 3
        fit = dict(kind=kind, epochs=3, batch_size=16, seed=2)
        one = train_probe(feats.copy(), labels, 3, **fit)
        many = train_probe([feats[lo:lo + 8].copy() for lo in range(0, 45, 8)], labels, 3, **fit)
        for name, t in one.named().items():
            assert t.data.tobytes() == many.named()[name].data.tobytes(), name
        assert predict(one, feats).tolist() == predict(many, np.split(feats, [8, 30])).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stats_rely_on_numpys_row_order_and_verify_checks_it(self, seed, monkeypatch):
        """``verify.probe_stream`` passes, and fails once the chunks' sums are
        added in another order (each chunk summed alone, then the sums)."""
        verify.probe_stream(seed=seed)

        def sum_then_add(flats, buf, fill):
            total = 0.0
            for flat in flats:
                fill(flat, buf[:len(flat)])
                total = total + buf[:len(flat)].sum(axis=0)
            return total

        monkeypatch.setattr(probing, "_sum_rows", sum_then_add)
        with pytest.raises(AssertionError, match="chunk-wise mean differs"):
            verify.probe_stream(seed=seed)

    @pytest.mark.parametrize("kind", ["linear", "attentive"])
    def test_streamed_evaluate_matches_the_whole_array_oracle(self, kind):
        cfg = small_cfg(probe_kind=kind, probe_epochs=3)
        enc = init_encoder(cfg, np.random.default_rng(6))
        sets = probe_datasets(cfg, 3, 2, seed=5)
        assert evaluate(enc, cfg, *sets) == evaluate_whole(enc, cfg, *sets)


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
