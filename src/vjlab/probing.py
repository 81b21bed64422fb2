"""Frozen-encoder evaluation: linear and attentive probes over motion classes.

Features are standardized per channel with training-set statistics before
the probe sees them, so variants whose latent scales differ wildly (EMA
versus no-EMA training) are compared on equal footing. Features travel as a
sequence of chunks, one per ``FEATURE_CHUNK`` encoded clips, from
extraction through statistics, fit and prediction, so no
[n, tokens, dim] array exists: linear features are pooled as each chunk is
encoded into one [n, dim] array (a single chunk), attentive ones stay
[<= FEATURE_CHUNK, tokens, dim] chunks. ``train_probe`` checks the labels,
takes the statistics chunk by chunk (byte-equal to numpy's mean and std of
the joined rows) and standardizes each chunk once, in place, before the fit
gathers its minibatches; ``predict`` standardizes and scores one chunk at a
time; ``evaluate`` drops the train features before it encodes the test
features.

A probe step is three graph nodes: ``attentive_pool`` (attentive probes
only), ``model.linear`` and ``cross_entropy``. The two fused nodes here
replay the arithmetic of the composed tensor-op graph they replace
(matmul, a clamped max-shifted softmax, broadcast product and sum; a
log-softmax and a one-hot product), so probes train to the same bytes; the
composed graph lives in the tests' ``oracles.py``, which they compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .model import EncoderParams, Params, encode, linear
from .synth import Dataset, MotionClass, VideoClip, gen_motion_dataset
from .tensor import Tensor, no_grad
from .training import descend, init_opt

TRAIN_TAG = 101
TEST_TAG = 202
FEATURE_CHUNK = 8
POOL_CLIP = (-20.0, 20.0)  # attentive-pool scores, as the composed softmax's default clip


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


# -- features ------------------------------------------------------------


def _latent_chunks(encoder: EncoderParams, clips: list[VideoClip]):
    """Full-grid latents of ``FEATURE_CHUNK`` clips at a time, each
    [<= FEATURE_CHUNK, n_tokens, dim], no gradients; the activation slabs (and
    peak memory) stay as small as one training batch's."""
    for lo in range(0, len(clips), FEATURE_CHUNK):
        with no_grad():
            latents, _ = encode(encoder, clips[lo:lo + FEATURE_CHUNK])
        yield latents.data


def pooled_features(encoder: EncoderParams, clips: list[VideoClip]) -> np.ndarray:
    """Mean-pooled latents per clip, [n_clips, dim]; each chunk is pooled as
    it is encoded."""
    return np.concatenate([latents.mean(axis=1) for latents in _latent_chunks(encoder, clips)])


def _chunks(feats) -> list[np.ndarray]:
    """A feature chunk sequence; one array is one chunk."""
    return [feats] if isinstance(feats, np.ndarray) else list(feats)


def _sum_rows(flats: list[np.ndarray], buf: np.ndarray, fill) -> np.ndarray:
    """Column sums over the rows that ``fill(flat, out)`` writes for each 2-d
    part in turn, taken as numpy sums axis 0 of one C-contiguous array: row
    after row. So each part's rows follow the running sum in ``buf`` and are
    summed with it."""
    total = None
    for flat in flats:
        part = buf[:len(flat) + 1]
        fill(flat, part[1:])
        if total is None:
            total = part[1:].sum(axis=0)
        else:
            part[0] = total
            total = part.sum(axis=0)
    return total


def feature_stats(chunks) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over every row (and token, if present) of the
    chunks, byte for byte numpy's ``mean`` and ``std`` over axis 0 of the
    joined rows: a column sum divided by the row count, then the same over
    the squared deviations, and its square root. Dead channels (std below
    1e-8) pass through unscaled. One chunk-sized buffer holds the rows being
    summed."""
    flats = [c.reshape(-1, c.shape[-1]) for c in _chunks(chunks)]
    rows = sum(len(f) for f in flats)
    buf = np.empty((max(len(f) for f in flats) + 1, flats[0].shape[1]))
    mean = _sum_rows(flats, buf, lambda f, out: np.copyto(out, f)) / rows
    var = _sum_rows(flats, buf,
                    lambda f, out: np.square(np.subtract(f, mean, out=out), out=out)) / rows
    std = np.sqrt(var)
    return mean, np.where(std < 1e-8, 1.0, std)


def apply_standardize(feats: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """``(feats - mean) / std`` in one fresh buffer."""
    x = feats - mean
    x /= std
    return x


# -- probes --------------------------------------------------------------


@dataclass
class ProbeParams(Params):
    PREFIX = "probe"
    kind: str                      # "linear" | "attentive"
    w: Tensor
    b: Tensor
    q: Tensor | None               # the attentive pool's query
    feat_mean: np.ndarray
    feat_std: np.ndarray


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
        q=query,
        feat_mean=feat_mean,
        feat_std=feat_std,
    )


def probe_logits(probe: ProbeParams, x: np.ndarray) -> Tensor:
    """Logits from standardized features (``apply_standardize``).

    Linear probes take [n, dim]; attentive probes take [n, tokens, dim] and
    pool with a learned softmax query before the linear map.
    """
    if probe.kind == "linear":
        if x.ndim != 2:
            raise ValueError(f"linear probe wants [n, dim] features, got {x.shape}")
        return linear(Tensor(x), probe.w, probe.b)
    if x.ndim != 3:
        raise ValueError(f"attentive probe wants [n, tokens, dim] features, got {x.shape}")
    return linear(attentive_pool(Tensor(x), probe.q), probe.w, probe.b)


def attentive_pool(x: Tensor, query: Tensor) -> Tensor:
    """Softmax-weighted token sum of x [n, k, d] under a query [d], one graph
    node: scores x.q / sqrt(d), clamped to ``POOL_CLIP``, a max-shifted
    softmax over the k tokens, then the weighted sum [n, d].

    The VJP replays the composed graph's arithmetic term by term; a clamped
    score passes no gradient back to x or the query.
    """
    xd, qd = x.data, query.data
    if xd.ndim != 3 or qd.shape != (xd.shape[-1],):
        raise ValueError(f"attentive pool wants x [n, k, d] and query [d], "
                         f"got {xd.shape} and {qd.shape}")
    n, k, d = xd.shape
    x2, q2 = xd.reshape(n * k, d), qd.reshape(d, 1)
    scale = 1.0 / np.sqrt(d)
    s = (x2 @ q2).reshape(n, k)
    s *= scale
    inside = ((s >= POOL_CLIP[0]) & (s <= POOL_CLIP[1])).astype(np.float64)
    np.clip(s, *POOL_CLIP, out=s)
    s -= np.max(s, axis=-1, keepdims=True)
    e = np.exp(s, out=s)
    denom = np.sum(e, axis=-1, keepdims=True)
    attn = e / denom

    def vjp(g):
        ga = np.sum(g[:, None, :] * xd, axis=2)
        gs = ga / denom
        gs += np.sum(-ga * e / (denom * denom), axis=-1, keepdims=True)
        gs *= e
        gs *= inside
        gs *= scale
        gs = gs.reshape(n * k, 1)
        gx = None
        if x.requires_grad:
            gx = g[:, None, :] * attn[:, :, None]
            gx += (gs @ q2.T).reshape(n, k, d)
        return gx, (x2.T @ gs).reshape(d) if query.requires_grad else None

    return Tensor._node(np.sum(attn[:, :, None] * xd, axis=1), (x, query), vjp)


def _one_hot(labels: np.ndarray, n: int, n_classes: int) -> np.ndarray:
    """[n, n_classes] rows with a 1 at each label; refuses a label array that
    is not [n] or holds a label outside [0, n_classes)."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels {labels.shape} vs {n} rows")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("label outside class range")
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    return onehot


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the labels under softmax(logits)."""
    return _nll(logits, _one_hot(labels, *logits.shape))


def _nll(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """``cross_entropy`` on checked one-hot rows, one graph node: a max-shifted
    log-softmax, the one-hot product summed, times -1/n. The VJP replays the
    composed graph's arithmetic term by term."""
    n = logits.shape[0]
    s = logits.data - np.max(logits.data, axis=-1, keepdims=True)
    es = np.exp(s)
    sumexp = np.sum(es, axis=-1, keepdims=True)
    logp = s - np.log(sumexp)

    def vjp(g):
        gd = onehot * (g * (-1.0 / n))
        return (gd + (np.sum(-gd, axis=-1, keepdims=True) / sumexp) * es,)

    return Tensor._node(np.sum(logp * onehot) * (-1.0 / n), (logits,), vjp)


def train_probe(feats, labels: np.ndarray, n_classes: int,
                kind: str = "linear", epochs: int = 50, batch_size: int = 16,
                lr: float = 1e-3, seed: int = 0) -> ProbeParams:
    """AdamW without weight decay, shuffled minibatches, CE objective; a
    non-finite gradient raises FloatingPointError naming its parameter.

    ``feats`` is a sequence of feature chunks ([rows, dim] for a linear
    probe, [rows, tokens, dim] for an attentive one) or one array, a single
    chunk. The fit standardizes the chunks in place, once: the caller hands
    them over. Each minibatch is gathered in the permutation's row order, by
    fancy index from a single chunk and row by row from several.
    """
    chunks = _chunks(feats)
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise ValueError("probe training needs at least two classes")
    n = sum(len(c) for c in chunks)
    onehot = _one_hot(labels, n, n_classes)
    mean, std = feature_stats(chunks)
    for c in chunks:
        c -= mean
        c /= std
    rows = [row for c in chunks for row in c] if len(chunks) > 1 else None
    probe = init_probe(kind, mean.shape[0], n_classes, np.random.default_rng([seed, 0]),
                       mean, std)
    opt = init_opt(probe.named())
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 1 + epoch]).permutation(n)
        for lo in range(0, n, batch_size):
            sel = order[lo:lo + batch_size]
            xb = chunks[0][sel] if rows is None else np.stack([rows[i] for i in sel])
            descend(_nll(probe_logits(probe, xb), onehot[sel]), opt, lr, 0.0)
    return probe


def predict(probe: ProbeParams, feats) -> np.ndarray:
    """Top-1 class per row of a feature chunk sequence (or one array),
    standardized and scored one chunk at a time; ties resolve to the lowest
    class index."""
    preds = []
    with no_grad():
        for c in _chunks(feats):
            x = apply_standardize(c, probe.feat_mean, probe.feat_std)
            preds.append(np.argmax(probe_logits(probe, x).data, axis=1))
    return np.concatenate(preds)


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
    """(feature chunks, labels): one pooled [n, dim] chunk for a linear probe,
    one [<= FEATURE_CHUNK, tokens, dim] chunk per encode for an attentive one."""
    clips = ds.clips
    labels = np.array([c.label for c in clips])
    if kind == "linear":
        return [pooled_features(encoder, clips)], labels
    return list(_latent_chunks(encoder, clips)), labels


def probe_datasets(cfg: RunConfig, n_train_per_class: int = 16, n_test_per_class: int = 8,
                   seed: int | None = None) -> tuple[Dataset, Dataset]:
    """The probes' train and test clips: two child-seed partitions of the seed."""
    seed = cfg.seed if seed is None else seed
    shape = dict(t=cfg.frames, h=cfg.height, w=cfg.width)
    return (gen_motion_dataset(n_train_per_class, _child_seed(seed, TRAIN_TAG), **shape),
            gen_motion_dataset(n_test_per_class, _child_seed(seed, TEST_TAG), **shape))


def synthetic_benchmark(encoder: EncoderParams, cfg: RunConfig,
                        n_train_per_class: int = 16, n_test_per_class: int = 8,
                        seed: int | None = None) -> EvalReport:
    """Train a probe on one seed partition of synthetic clips, test on another."""
    return evaluate(encoder, cfg, *probe_datasets(cfg, n_train_per_class, n_test_per_class, seed),
                    seed)


def evaluate(encoder: EncoderParams, cfg: RunConfig, train_ds: Dataset, test_ds: Dataset,
             seed: int | None = None) -> EvalReport:
    """Fit a ``cfg.probe_kind`` probe on train_ds's features and score it on test_ds."""
    seed = cfg.seed if seed is None else seed
    train_x, train_y = dataset_features(encoder, train_ds, cfg.probe_kind)
    probe = train_probe(train_x, train_y, len(MotionClass), kind=cfg.probe_kind,
                        epochs=cfg.probe_epochs, batch_size=cfg.probe_batch,
                        lr=cfg.probe_lr, seed=seed)
    del train_x  # the test features take its place
    test_x, test_y = dataset_features(encoder, test_ds, cfg.probe_kind)
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
