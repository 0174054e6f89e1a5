"""The trainable model a walker carries.

Two architectures share one flat parameter vector: multinomial softmax
regression and a single tanh hidden layer. Training is plain mini-batch SGD
on cross-entropy with optional L2. `sgd_steps` draws its batches when called;
inside a `lockstep` block its arithmetic waits, and the block's calls train
together as one stacked kernel when it exits, so a model returned inside a
block holds its theta once the block exits. Every returned model has a theta
array of its own, so callers can keep multiple model copies.
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


# Steps whose batches are gathered at once; bounds each walker's gather buffers whatever k is.
_CHUNK_STEPS = 64


@functools.lru_cache(maxsize=32)
def _stack(arch: str, n_dims: int, n_classes: int, hidden: int, cfg: LearnerSpec, rows: int, slots: int):
    """A (rows, P) theta block, gather buffers of `slots` steps per row, and `kernel(height)`:
    the SGD step that updates rows [:height] in place from the batches in one slot.

    The step performs `loss_and_grad`'s floating-point operations in the same
    order on the same per-row operand layouts, so each row matches
    `theta -= lr * grad` bit for bit: a stacked matmul or reduction computes
    each row as the 2-D call does, and at height 1 the step makes the 2-D calls.
    It skips only the loss value.
    """
    mlp, batch = arch == MLP, cfg.batch_size
    theta = np.empty((rows, param_length(arch, n_dims, n_classes, hidden)))
    grad, decay = np.empty_like(theta), np.empty_like(theta) if cfg.l2 > 0.0 else None
    xs = np.empty((rows, slots, batch, n_dims))  # row r, slot j: walker r's batch at step j of a chunk
    ys = np.empty((rows, slots, batch, n_classes))  # and its one-hot targets
    work = [np.empty((rows, batch, width)) for width in (hidden, hidden, hidden, n_classes, n_classes, n_classes, 1)]
    lr, l2, n = cfg.learning_rate, cfg.l2, float(batch)
    matmul, add, subtract, multiply, divide = np.matmul, np.add, np.subtract, np.multiply, np.divide
    exp, log, tanh, max_reduce, sum_reduce = np.exp, np.log, np.tanh, np.maximum.reduce, np.add.reduce

    @functools.cache
    def kernel(height: int):
        def cut(a):
            return a[0] if height == 1 else a[:height]

        th, gr, dec = cut(theta), cut(grad), decay if decay is None else cut(decay)
        h, back, slope, logits, scratch, probs, row = map(cut, work)
        x_slots, y_slots = (list(np.moveaxis(cut(a), -3, 0)) for a in (xs, ys))
        split, lead = hidden * (n_dims + 1) if mlp else 0, th.shape[:-1]
        w_in, g_in = (a[..., :split].reshape(lead + (-1, n_dims + 1)) for a in (th, gr))  # empty for softmax
        w_out, g_out = (a[..., split:].reshape(lead + (n_classes, -1)) for a in (th, gr))
        w_in_w, b_in, w_out_w, b_out = w_in[..., :-1], w_in[..., None, :, -1], w_out[..., :-1], w_out[..., None, :, -1]
        g_in_w, g_in_b, g_out_w, g_out_b = g_in[..., :-1], g_in[..., -1], g_out[..., :-1], g_out[..., -1]
        w_in_t, w_out_t, probs_t, back_t = (a.swapaxes(-1, -2) for a in (w_in_w, w_out_w, probs, back))

        def step(slot: int) -> None:  # outputs go positionally: parsing `out=` costs more than some calls
            x, onehot = x_slots[slot], y_slots[slot]
            a = x
            if mlp:
                matmul(x, w_in_t, h)
                add(h, b_in, h)
                a = tanh(h, h)
            matmul(a, w_out_t, logits)
            add(logits, b_out, logits)
            max_reduce(logits, -1, None, row, True)  # _log_softmax, in place in logits
            subtract(logits, row, logits)
            exp(logits, scratch)
            sum_reduce(scratch, -1, None, row, True)
            log(row, row)
            subtract(logits, row, logits)
            exp(logits, probs)
            subtract(probs, onehot, probs)  # x - 0.0 == x, so only the label entries change
            divide(probs, n, probs)
            matmul(probs_t, a, g_out_w)
            sum_reduce(probs, -2, None, g_out_b)
            if mlp:
                matmul(probs, w_out_w, back)
                multiply(h, h, slope)
                subtract(1.0, slope, slope)
                multiply(back, slope, back)
                matmul(back_t, x, g_in_w)
                sum_reduce(back, -2, None, g_in_b)
            if dec is not None:
                multiply(th, l2, dec)
                add(gr, dec, gr)
            multiply(gr, lr, gr)
            subtract(th, gr, th)

        return step

    return theta, xs, ys, kernel


_one_hot_rows = functools.lru_cache(maxsize=16)(np.eye)  # row c: the one-hot target of class c

_pending: dict[int, tuple] | None = None  # the open block's calls, (m, features, labels, k, cfg, draws, out), by id(out)


class lockstep:
    """Queue every `sgd_steps` call made inside the block, and train them when it exits normally.

    The calls train as one stack per model shape and spec, rows sorted by k,
    largest first, so the walkers still training at any step are a prefix of
    the stack. A block that raises trains nothing. Blocks do not nest. The
    queue, like the stacks, is per-process: `run_many` never fans out to threads.
    """

    def __enter__(self) -> None:
        global _pending
        if _pending is not None:
            raise RuntimeError("a lockstep block is already open")
        _pending = {}

    def __exit__(self, exc_type, *_) -> None:
        global _pending
        calls, _pending = _pending, None
        if exc_type is None:
            _train(list(calls.values()))


def _train(calls: list[tuple]) -> None:
    groups: dict[tuple, list[tuple]] = {}
    for call in calls:
        m = call[0]
        groups.setdefault((m.arch, m.n_dims, m.n_classes, m.hidden, call[4]), []).append(call)
    for key, group in groups.items():
        group.sort(key=lambda call: -call[3])
        # sizes rounded up to powers of two, so that few stacks serve varying walker counts and budgets
        sizes = (1 << (len(group) - 1).bit_length(), 1 << (min(group[0][3], _CHUNK_STEPS) - 1).bit_length())
        theta, xs, ys, kernel = _stack(*key, *sizes)
        for r, call in enumerate(group):
            theta[r] = call[0].theta
        one_hot, active, step = _one_hot_rows(key[2]), len(group), kernel(len(group))
        for s in range(group[0][3]):
            slot = s % _CHUNK_STEPS
            if group[active - 1][3] <= s:  # the prefix rule: rows whose k steps are done leave the stack
                while group[active - 1][3] <= s:
                    active -= 1
                step = kernel(active)
            if slot == 0:  # indices are drawn in range, so "clip" never acts; it spares take a copy
                for r, (_, features, labels, _, _, draws, _) in enumerate(group[:active]):
                    idx = draws[s // _CHUNK_STEPS]
                    features.take(idx, axis=0, out=xs[r, : len(idx)], mode="clip")
                    one_hot.take(labels.take(idx), axis=0, out=ys[r, : len(idx)], mode="clip")
            step(slot)
        for r, call in enumerate(group):
            call[-1][...] = theta[r]


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
    state: one flat draw of steps * B indices per chunk, all made before the
    call returns, yields the same index stream as that many `B`-sized draws.

    Outside a `lockstep` block the call trains at once. Inside one, the model
    it returns reads NaN until the block exits, and holds its theta from then
    on. Training runs in a stack cached per model shape and spec, per-process
    scratch; the returned theta is an array of its own.
    """
    if features.shape[0] == 0:
        raise ValueError("cannot train on an empty sample set")
    if k < 1:
        raise ConfigError("need at least one SGD step")
    if _pending and id(m.theta) in _pending:  # the queue holds each out alive, so its id is not reused
        raise RuntimeError("this model is still waiting to train in the open lockstep block")
    features, n, batch = np.asarray(features, dtype=np.float64), features.shape[0], cfg.batch_size
    draws = [rng.integers(0, n, size=min(_CHUNK_STEPS, k - done) * batch).reshape(-1, batch)
             for done in range(0, k, _CHUNK_STEPS)]
    call = (m, features, labels, k, cfg, draws, np.empty(m.theta.size))
    call[-1].fill(np.nan)
    if _pending is not None:
        _pending[id(call[-1])] = call
    else:
        with lockstep():  # outside a block, a block of one
            _pending[id(call[-1])] = call
    return ModelParams(m.arch, m.n_dims, m.n_classes, m.hidden, call[-1])


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
