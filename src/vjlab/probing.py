"""Frozen-encoder evaluation: linear and attentive probes over motion classes.

Features are standardized per channel with training-set statistics before
the probe sees them, so variants whose latent scales differ wildly (EMA
versus no-EMA training) are compared on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .model import EncoderParams, encode, linear
from .synth import Dataset, MotionClass, VideoClip, gen_motion_dataset
from .tensor import Tensor, backward, log_softmax, matmul, no_grad, softmax
from .training import OptState, adamw_step, init_opt

TRAIN_TAG = 101
TEST_TAG = 202
FEATURE_CHUNK = 8


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


# -- features ------------------------------------------------------------


def token_features(encoder: EncoderParams, clips: list[VideoClip]) -> np.ndarray:
    """Full-grid latents per clip, [n_clips, n_tokens, dim], no gradients.

    Clips are encoded ``FEATURE_CHUNK`` at a time, which keeps the activation
    slabs (and peak memory) as small as one training batch's.
    """
    rows = []
    with no_grad():
        for lo in range(0, len(clips), FEATURE_CHUNK):
            latents, _ = encode(encoder, clips[lo:lo + FEATURE_CHUNK])
            rows.append(latents.data)
    return np.concatenate(rows)


def pooled_features(encoder: EncoderParams, clips: list[VideoClip]) -> np.ndarray:
    """Mean-pooled latents per clip, [n_clips, dim]."""
    return token_features(encoder, clips).mean(axis=1)


def standardize_stats(feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over every row (and token, if present).

    Dead channels (std below 1e-8) pass through unscaled.
    """
    flat = feats.reshape(-1, feats.shape[-1])
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    return mean, std


def apply_standardize(feats: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (feats - mean) / std


# -- probes --------------------------------------------------------------


@dataclass
class ProbeParams:
    kind: str                      # "linear" | "attentive"
    w: Tensor
    b: Tensor
    query: Tensor | None
    feat_mean: np.ndarray
    feat_std: np.ndarray
    n_classes: int

    def named(self) -> dict[str, Tensor]:
        out = {"probe.w": self.w, "probe.b": self.b}
        if self.query is not None:
            out["probe.q"] = self.query
        return out


def init_probe(kind: str, dim: int, n_classes: int, rng: np.random.Generator,
               feat_mean: np.ndarray, feat_std: np.ndarray) -> ProbeParams:
    if kind not in ("linear", "attentive"):
        raise ValueError(f"probe kind must be linear or attentive, got '{kind}'")
    query = None
    if kind == "attentive":
        query = Tensor(rng.standard_normal(dim) * 0.02, requires_grad=True)
    return ProbeParams(
        kind=kind,
        w=Tensor(rng.standard_normal((dim, n_classes)) * 0.02, requires_grad=True),
        b=Tensor(np.zeros(n_classes), requires_grad=True),
        query=query,
        feat_mean=feat_mean,
        feat_std=feat_std,
        n_classes=n_classes,
    )


def probe_logits(probe: ProbeParams, feats: np.ndarray) -> Tensor:
    """Logits from standardized features.

    Linear probes take [n, dim]; attentive probes take [n, tokens, dim] and
    pool with a learned softmax query before the linear map.
    """
    x = apply_standardize(feats, probe.feat_mean, probe.feat_std)
    if probe.kind == "linear":
        if x.ndim != 2:
            raise ValueError(f"linear probe wants [n, dim] features, got {x.shape}")
        return linear(Tensor(x), probe.w, probe.b)
    if x.ndim != 3:
        raise ValueError(f"attentive probe wants [n, tokens, dim] features, got {x.shape}")
    n, k, d = x.shape
    scores = matmul(Tensor(x.reshape(n * k, d)), probe.query.reshape(d, 1))
    attn = softmax(scores.reshape(n, k) * (1.0 / np.sqrt(d)), axis=-1)
    pooled = _attn_pool(attn, x)
    return linear(pooled, probe.w, probe.b)


def _attn_pool(attn: Tensor, x: np.ndarray) -> Tensor:
    n, k, d = x.shape
    # weighted sum per clip: [n, k] against constant tokens [n, k, d]
    w3 = attn.reshape(n, k, 1).broadcast_to((n, k, d))
    return (w3 * Tensor(x)).sum(axis=1)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels {labels.shape} vs {n} rows")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label outside class range")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return (log_softmax(logits) * Tensor(onehot)).sum() * (-1.0 / n)


def train_probe(feats: np.ndarray, labels: np.ndarray, n_classes: int,
                kind: str = "linear", epochs: int = 50, batch_size: int = 16,
                lr: float = 1e-3, seed: int = 0) -> ProbeParams:
    """AdamW without weight decay, shuffled minibatches, CE objective."""
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise ValueError("probe training needs at least two classes")
    mean, std = standardize_stats(feats)
    dim = feats.shape[-1]
    probe = init_probe(kind, dim, n_classes, np.random.default_rng([seed, 0]), mean, std)
    params = probe.named()
    opt: OptState = init_opt(params)
    n = feats.shape[0]
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 1 + epoch]).permutation(n)
        for lo in range(0, n, batch_size):
            sel = order[lo:lo + batch_size]
            loss = cross_entropy(probe_logits(probe, feats[sel]), labels[sel])
            for p in params.values():
                p.grad = None
            backward(loss)
            grads = {k: p.grad for k, p in params.items() if p.grad is not None}
            adamw_step(params, grads, opt, lr, weight_decay=0.0)
    return probe


def predict(probe: ProbeParams, feats: np.ndarray) -> np.ndarray:
    """Top-1 class per row; ties resolve to the lowest class index."""
    with no_grad():
        logits = probe_logits(probe, feats).data
    return np.argmax(logits, axis=1)


def accuracy(probe: ProbeParams, feats: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predict(probe, feats) == np.asarray(labels)))


# -- benchmark -----------------------------------------------------------


@dataclass
class EvalReport:
    variant: str
    kind: str
    accuracy: float
    n_train: int
    n_test: int
    per_class: dict[str, float] = field(default_factory=dict)


def dataset_features(encoder: EncoderParams, ds: Dataset, kind: str):
    clips = ds.clips
    labels = np.array([c.label for c in clips])
    feats = pooled_features(encoder, clips) if kind == "linear" else token_features(encoder, clips)
    return feats, labels


def synthetic_benchmark(encoder: EncoderParams, cfg: RunConfig,
                        n_train_per_class: int = 16, n_test_per_class: int = 8,
                        seed: int | None = None) -> EvalReport:
    """Train a probe on one seed partition of synthetic clips, test on another."""
    seed = cfg.seed if seed is None else seed
    train_ds = gen_motion_dataset(n_train_per_class, _child_seed(seed, TRAIN_TAG),
                                  t=cfg.frames, h=cfg.height, w=cfg.width)
    test_ds = gen_motion_dataset(n_test_per_class, _child_seed(seed, TEST_TAG),
                                 t=cfg.frames, h=cfg.height, w=cfg.width)
    train_x, train_y = dataset_features(encoder, train_ds, cfg.probe_kind)
    test_x, test_y = dataset_features(encoder, test_ds, cfg.probe_kind)
    probe = train_probe(train_x, train_y, len(MotionClass), kind=cfg.probe_kind,
                        epochs=cfg.probe_epochs, batch_size=cfg.probe_batch,
                        lr=cfg.probe_lr, seed=seed)
    preds = predict(probe, test_x)
    per_class = {}
    for m in MotionClass:
        sel = test_y == int(m)
        if sel.any():
            per_class[m.name.lower()] = float(np.mean(preds[sel] == test_y[sel]))
    return EvalReport(
        variant=cfg.variant,
        kind=cfg.probe_kind,
        accuracy=float(np.mean(preds == test_y)),
        n_train=len(train_y),
        n_test=len(test_y),
        per_class=per_class,
    )
