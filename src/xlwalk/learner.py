"""The trainable model a walker carries.

Two architectures share one flat parameter vector: multinomial softmax
regression and a single tanh hidden layer. Training is plain mini-batch SGD
on cross-entropy with optional L2. `sgd_steps` updates a private copy of the
caller's parameters in place and returns it in a new model, so the caller's
theta is never aliased and callers can keep multiple model copies.
"""
from __future__ import annotations

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


def _logits(m: ModelParams, features: np.ndarray) -> np.ndarray:
    if m.arch == SOFTMAX:
        w = m.theta.reshape(m.n_classes, m.n_dims + 1)
        return features @ w[:, :-1].T + w[:, -1]
    w1, w2 = _split_mlp(m)
    h = np.tanh(features @ w1[:, :-1].T + w1[:, -1])
    return h @ w2[:, :-1].T + w2[:, -1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(
    m: ModelParams, features: np.ndarray, labels: np.ndarray, l2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy plus 0.5*l2*|theta|^2 and its gradient in theta."""
    n = features.shape[0]
    if m.arch == SOFTMAX:
        w = m.theta.reshape(m.n_classes, m.n_dims + 1)
        logits = features @ w[:, :-1].T + w[:, -1]
        logp = _log_softmax(logits)
        probs = np.exp(logp)
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        grad_w = np.concatenate([delta.T @ features, delta.sum(axis=0)[:, None]], axis=1)
        grad = grad_w.ravel()
    else:
        w1, w2 = _split_mlp(m)
        pre = features @ w1[:, :-1].T + w1[:, -1]
        h = np.tanh(pre)
        logits = h @ w2[:, :-1].T + w2[:, -1]
        logp = _log_softmax(logits)
        probs = np.exp(logp)
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        grad_w2 = np.concatenate([delta.T @ h, delta.sum(axis=0)[:, None]], axis=1)
        back = (delta @ w2[:, :-1]) * (1.0 - h * h)
        grad_w1 = np.concatenate([back.T @ features, back.sum(axis=0)[:, None]], axis=1)
        grad = np.concatenate([grad_w1.ravel(), grad_w2.ravel()])
    loss = -logp[np.arange(n), labels].mean()
    if l2 > 0.0:
        loss += 0.5 * l2 * float(m.theta @ m.theta)
        grad = grad + l2 * m.theta
    return float(loss), grad


# Steps whose batches are drawn and gathered at once; bounds the gather buffers whatever k is.
_CHUNK_STEPS = 64


def _sgd_kernel(m: ModelParams, theta: np.ndarray, batch: int, cfg: LearnerSpec):
    """One in-place SGD step on theta, as a closure over preallocated buffers.

    The step performs `loss_and_grad`'s floating-point operations in the same
    order on the same operand layouts, so theta matches `theta -= lr * grad`
    bit for bit. It skips only what the update does not read: the loss value.
    """
    grad = np.empty(theta.size)
    if m.arch == SOFTMAX:
        w_in = None
        w_out = theta.reshape(m.n_classes, m.n_dims + 1)
        g_out = grad.reshape(m.n_classes, m.n_dims + 1)
    else:
        cut = m.hidden * (m.n_dims + 1)
        w_in = theta[:cut].reshape(m.hidden, m.n_dims + 1)
        w_out = theta[cut:].reshape(m.n_classes, m.hidden + 1)
        g_in = grad[:cut].reshape(m.hidden, m.n_dims + 1)
        g_out = grad[cut:].reshape(m.n_classes, m.hidden + 1)
        w_in_t, b_in = w_in[:, :-1].T, w_in[:, -1]
        g_in_w, g_in_b = g_in[:, :-1], g_in[:, -1]
        h = np.empty((batch, m.hidden))
        back = np.empty((batch, m.hidden))
        back_t = back.T
        slope = np.empty((batch, m.hidden))
    w_out_w, b_out = w_out[:, :-1], w_out[:, -1]
    w_out_t = w_out_w.T
    g_out_w, g_out_b = g_out[:, :-1], g_out[:, -1]
    logits = np.empty((batch, m.n_classes))
    scratch = np.empty((batch, m.n_classes))
    probs = np.empty((batch, m.n_classes))
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

    return step


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
    state: one `(steps, B)` draw per chunk yields the same index stream as
    that many `B`-sized draws.
    """
    if features.shape[0] == 0:
        raise ValueError("cannot train on an empty sample set")
    if k < 1:
        raise ConfigError("need at least one SGD step")
    theta = m.theta.copy()
    batch = cfg.batch_size
    step = _sgd_kernel(m, theta, batch, cfg)
    classes = np.arange(m.n_classes)
    n = features.shape[0]
    for done in range(0, k, _CHUNK_STEPS):
        idx = rng.integers(0, n, size=(min(_CHUNK_STEPS, k - done), batch))
        onehots = (labels[idx][..., None] == classes).astype(np.float64)
        for x, onehot in zip(features[idx], onehots):
            step(x, onehot)
    return replace(m, theta=theta)


def evaluate(m: ModelParams, features: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy on the given samples."""
    if features.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty sample set")
    logp = _log_softmax(_logits(m, features))
    loss = -logp[np.arange(features.shape[0]), labels].mean()
    accuracy = float((logp.argmax(axis=1) == labels).mean())
    return float(loss), accuracy


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
