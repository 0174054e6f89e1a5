"""The trainable model a walker carries.

Two architectures share one flat parameter vector: multinomial softmax
regression and a single tanh hidden layer. Training is plain mini-batch SGD
on cross-entropy with optional L2. `sgd_steps` trains in a per-process
workspace and returns a fresh copy of the result in a new model, so the
caller's theta is never aliased and callers can keep multiple model copies.
`evaluate` scores in a class-major layout whose operations reproduce the
sample-major `_log_softmax` bit for bit.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

logger = logging.getLogger(__name__)

SOFTMAX = "softmax"
MLP = "mlp"


@dataclass(frozen=True)
class ModelParams:
    arch: str
    n_dims: int
    n_classes: int
    hidden: int  # 0 for softmax regression
    theta: np.ndarray  # flat float64 parameter vector

    def __post_init__(self):
        expected = param_length(self.arch, self.n_dims, self.n_classes, self.hidden)
        if self.theta.shape != (expected,):
            raise ConfigError(
                f"{self.arch} model over {self.n_dims} dims / {self.n_classes} classes "
                f"needs {expected} parameters, got {self.theta.shape}"
            )


@dataclass(frozen=True)
class LearnerSpec:
    """The model a walker carries and how it trains: architecture, SGD step size, batch, L2."""

    arch: str = SOFTMAX
    hidden: int = 64  # mlp only
    learning_rate: float = 0.05
    batch_size: int = 32
    l2: float = 0.0

    def __post_init__(self):
        if self.arch not in (SOFTMAX, MLP):
            raise ConfigError(f"unknown learner arch {self.arch!r}")
        if self.arch == MLP and self.hidden < 1:
            raise ConfigError("an mlp learner needs at least 1 hidden unit")
        if self.batch_size < 1:
            raise ConfigError("learner batch_size must be at least 1")
        if self.learning_rate < 0:
            raise ConfigError("learner learning_rate must be non-negative")
        if self.l2 < 0:
            raise ConfigError("learner l2 must be non-negative")


def param_length(arch: str, n_dims: int, n_classes: int, hidden: int = 0) -> int:
    if arch == SOFTMAX:
        return n_classes * (n_dims + 1)
    if arch == MLP:
        return hidden * (n_dims + 1) + n_classes * (hidden + 1)
    raise ConfigError(f"unknown architecture {arch!r}")


def init_model(arch: str, n_dims: int, n_classes: int, seed: int, hidden: int = 64) -> ModelParams:
    """Small random initialization, deterministic in the seed."""
    if arch == SOFTMAX:
        hidden = 0
    rng = np.random.default_rng(np.random.SeedSequence([0x30, seed]))
    if arch == SOFTMAX:
        theta = rng.normal(0.0, 0.01, size=param_length(arch, n_dims, n_classes))
    elif arch == MLP:
        w1 = rng.normal(0.0, 1.0 / np.sqrt(n_dims + 1), size=hidden * (n_dims + 1))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden + 1), size=n_classes * (hidden + 1))
        theta = np.concatenate([w1, w2])
    else:
        raise ConfigError(f"unknown architecture {arch!r}")
    return ModelParams(arch=arch, n_dims=n_dims, n_classes=n_classes, hidden=hidden, theta=theta)


def _split_mlp(m: ModelParams):
    cut = m.hidden * (m.n_dims + 1)
    w1 = m.theta[:cut].reshape(m.hidden, m.n_dims + 1)
    w2 = m.theta[cut:].reshape(m.n_classes, m.hidden + 1)
    return w1, w2


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(
    m: ModelParams, features: np.ndarray, labels: np.ndarray, l2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy plus 0.5*l2*|theta|^2 and its gradient in theta."""
    n = features.shape[0]
    if m.arch == SOFTMAX:
        a = features  # what the output layer reads
        w = m.theta.reshape(m.n_classes, m.n_dims + 1)
    else:
        w1, w = _split_mlp(m)
        a = np.tanh(features @ w1[:, :-1].T + w1[:, -1])
    logp = _log_softmax(a @ w[:, :-1].T + w[:, -1])
    delta = np.exp(logp)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad = np.concatenate([delta.T @ a, delta.sum(axis=0)[:, None]], axis=1).ravel()
    if m.arch != SOFTMAX:
        back = (delta @ w[:, :-1]) * (1.0 - a * a)
        grad_w1 = np.concatenate([back.T @ features, back.sum(axis=0)[:, None]], axis=1)
        grad = np.concatenate([grad_w1.ravel(), grad])
    loss = -logp[np.arange(n), labels].mean()
    if l2 > 0.0:
        loss += 0.5 * l2 * float(m.theta @ m.theta)
        grad = grad + l2 * m.theta
    return float(loss), grad


# Steps whose batches are drawn and gathered at once; bounds the gather buffers whatever k is.
_CHUNK_STEPS = 64


@functools.lru_cache(maxsize=16)
def _sgd_workspace(arch: str, n_dims: int, n_classes: int, hidden: int, cfg: LearnerSpec):
    """A theta buffer and the SGD step that updates it in place, kept per model shape and spec.

    The step performs `loss_and_grad`'s floating-point operations in the same
    order on the same operand layouts, so theta matches `theta -= lr * grad`
    bit for bit. It skips only what the update does not read: the loss value.
    """
    theta = np.empty(param_length(arch, n_dims, n_classes, hidden))
    grad = np.empty(theta.size)
    batch = cfg.batch_size
    if arch == SOFTMAX:
        w_in = None
        w_out = theta.reshape(n_classes, n_dims + 1)
        g_out = grad.reshape(n_classes, n_dims + 1)
    else:
        cut = hidden * (n_dims + 1)
        w_in = theta[:cut].reshape(hidden, n_dims + 1)
        w_out = theta[cut:].reshape(n_classes, hidden + 1)
        g_in = grad[:cut].reshape(hidden, n_dims + 1)
        g_out = grad[cut:].reshape(n_classes, hidden + 1)
        w_in_t, b_in = w_in[:, :-1].T, w_in[:, -1]
        g_in_w, g_in_b = g_in[:, :-1], g_in[:, -1]
        h = np.empty((batch, hidden))
        back = np.empty((batch, hidden))
        back_t = back.T
        slope = np.empty((batch, hidden))
    w_out_w, b_out = w_out[:, :-1], w_out[:, -1]
    w_out_t = w_out_w.T
    g_out_w, g_out_b = g_out[:, :-1], g_out[:, -1]
    logits = np.empty((batch, n_classes))
    scratch = np.empty((batch, n_classes))
    probs = np.empty((batch, n_classes))
    probs_t = probs.T
    row = np.empty((batch, 1))
    decay = np.empty(theta.size) if cfg.l2 > 0.0 else None
    lr, l2, n = cfg.learning_rate, cfg.l2, float(batch)
    matmul, add, subtract, multiply = np.matmul, np.add, np.subtract, np.multiply

    def step(x: np.ndarray, onehot: np.ndarray) -> None:
        if w_in is None:
            a = x
        else:
            matmul(x, w_in_t, out=h)
            add(h, b_in, out=h)
            np.tanh(h, out=h)
            a = h
        matmul(a, w_out_t, out=logits)
        add(logits, b_out, out=logits)
        np.maximum.reduce(logits, 1, None, row, True)  # _log_softmax, in place in logits
        subtract(logits, row, out=logits)
        np.exp(logits, out=scratch)
        add.reduce(scratch, 1, None, row, True)
        np.log(row, out=row)
        subtract(logits, row, out=logits)
        np.exp(logits, out=probs)
        subtract(probs, onehot, out=probs)  # x - 0.0 == x, so only the label entries change
        np.divide(probs, n, out=probs)
        matmul(probs_t, a, out=g_out_w)
        add.reduce(probs, 0, None, g_out_b)
        if w_in is not None:
            matmul(probs, w_out_w, out=back)
            multiply(h, h, out=slope)
            subtract(1.0, slope, out=slope)
            multiply(back, slope, out=back)
            matmul(back_t, x, out=g_in_w)
            add.reduce(back, 0, None, g_in_b)
        if decay is not None:
            multiply(theta, l2, out=decay)
            add(grad, decay, out=grad)
        multiply(grad, lr, out=grad)
        subtract(theta, grad, out=theta)

    return theta, step


_one_hot_rows = functools.lru_cache(maxsize=16)(np.eye)  # row c: the one-hot target of class c


def sgd_steps(
    m: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    k: int,
    cfg: LearnerSpec,
    rng: np.random.Generator,
) -> ModelParams:
    """k mini-batch SGD steps; batches drawn with replacement from the local set.

    The result is bit-identical to k rounds of `rng.integers(0, n, size=B)`,
    `loss_and_grad` and `theta -= lr * grad`, and leaves rng in the same
    state: one flat draw of steps * B indices per chunk yields the same index
    stream as that many `B`-sized draws.

    Training runs in a workspace cached per model shape and spec, which is
    per-process scratch: `run_many` parallelizes with processes, never threads,
    so no two calls share it at once. The returned theta is a fresh copy.
    """
    if features.shape[0] == 0:
        raise ValueError("cannot train on an empty sample set")
    if k < 1:
        raise ConfigError("need at least one SGD step")
    theta, step = _sgd_workspace(m.arch, m.n_dims, m.n_classes, m.hidden, cfg)
    theta[...] = m.theta
    one_hot = _one_hot_rows(m.n_classes)
    batch = cfg.batch_size
    n = features.shape[0]
    for done in range(0, k, _CHUNK_STEPS):
        idx = rng.integers(0, n, size=min(_CHUNK_STEPS, k - done) * batch).reshape(-1, batch)
        for x, onehot in zip(features.take(idx, axis=0), one_hot.take(labels.take(idx), axis=0)):
            step(x, onehot)
    return ModelParams(m.arch, m.n_dims, m.n_classes, m.hidden, theta.copy())


def _class_sum(e: np.ndarray) -> np.ndarray:
    """Sums the rows of a (C, N) array: `np.add.reduce(e.T, axis=1)`, bit for bit.

    Each column is added in numpy's pairwise order for a contiguous run of C
    values, with every step a vector operation over the N columns: below 8
    terms, in sequence; up to 128, eight accumulators over blocks of 8, folded
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in sequence;
    above 128, the two halves split at a multiple of 8, recursively.
    """
    c = e.shape[0]
    if c < 8:
        total = e[0].copy()
        for i in range(1, c):
            total += e[i]
        return total
    if c <= 128:
        blocks = c - c % 8
        acc = e[0:8]
        for i in range(8, blocks, 8):
            acc = acc + e[i : i + 8]
        pairs = acc[0::2] + acc[1::2]
        quads = pairs[0::2] + pairs[1::2]
        total = quads[0] + quads[1]
        for i in range(blocks, c):
            total += e[i]
        return total
    half = c // 2
    half -= half % 8
    return _class_sum(e[:half]) + _class_sum(e[half:])


def _class_logits(m: ModelParams, features: np.ndarray) -> np.ndarray:
    """The logits as a class-major (C, N) array, equal to `loss_and_grad`'s (N, C) ones.

    The products keep the sample-major operand layouts: `W @ features.T`
    can reach other BLAS kernels, whose sums differ in the last bit on some
    shapes. Only the finished (N, C) product is transposed.
    """
    if m.arch == SOFTMAX:
        w = m.theta.reshape(m.n_classes, m.n_dims + 1)
        a = features
    else:
        w1, w = _split_mlp(m)
        a = np.tanh(features @ w1[:, :-1].T + w1[:, -1])
    logits = np.ascontiguousarray((a @ w[:, :-1].T).T)
    logits += w[:, -1:]
    return logits


def evaluate(m: ModelParams, features: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy on the given samples.

    Everything after the logits runs class-major, (C, N), so each reduction
    over classes is a handful of vector operations over the samples. The
    result equals `_log_softmax`, a per-sample gather and an `argmax` with its
    first-index tie rule, bit for bit.
    """
    n = features.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty sample set")
    logp = _class_logits(m, features)
    logp -= np.maximum.reduce(logp, 0)
    logp -= np.log(_class_sum(np.exp(logp)))
    picked = np.take(logp, labels * n + np.arange(n))  # logp[labels[i], i] in the (C, N) layout
    loss = -(np.add.reduce(picked) / n)
    top = np.maximum.reduce(logp, 0)
    if np.count_nonzero(logp == top) == n and not np.isnan(top).any():
        hits = picked == top  # one top class per sample: a hit iff it is the label
    else:
        hits = logp.argmax(axis=0) == labels  # ties or NaN: argmax takes the first
    return float(loss), float(np.count_nonzero(hits) / n)


def weighted_average(models: list[ModelParams], weights: list[float]) -> ModelParams:
    """Componentwise weighted mean of same-shape models."""
    if not models:
        raise ConfigError("no models to average")
    head = models[0]
    for m in models[1:]:
        if m.arch != head.arch or m.theta.shape != head.theta.shape:
            raise ConfigError("cannot average models with mismatched architectures")
    if len(weights) != len(models):
        raise ConfigError("one weight per model required")
    w = np.array(weights, dtype=np.float64)
    if (w < 0).any():
        raise ConfigError("weights must be non-negative")
    total = w.sum()
    if total == 0.0:
        logger.warning("all aggregation weights are zero; falling back to equal weights")
        w = np.ones_like(w)
        total = w.sum()
    stacked = np.stack([m.theta for m in models])
    return replace(head, theta=(w / total) @ stacked)
