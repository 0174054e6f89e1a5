"""Single-walker state machine: jumping, local training, memory, perception.

A walker owns two model copies: the instantaneous model it trains at every
visited node, and a stale model it periodically blends back in to damp
forgetting. In dynamic mode the walker rebuilds the row it samples next from
the importance mix that its model's last validation accuracy scales, which
makes the induced chain time-inhomogeneous.

A `WalkerState` is the walker's one mutable record: it carries its own
stream, the run's read-only transition rows and its counters, so `step`,
`visit` and `perception_refresh` take nothing of the run but the node's
data, and update the record in place. The models and rows it holds are
immutable, so walkers can share them.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import policy
from .errors import ConfigError
from .learner import LearnerSpec, ModelParams, sgd_steps
from .topology import Graph

logger = logging.getLogger(__name__)


@dataclass(eq=False)  # identity semantics: a walker is one agent, whatever its fields hold
class WalkerState:
    id: int
    position: int
    im: ModelParams  # instantaneous model, trained at every visit
    sm: ModelParams  # stale model, blended in by memory merges
    rng: np.random.Generator | None = None  # the walker's own stream: jumps and SGD batches
    policy: policy.TransitionPolicy | None = None  # the run's rows, which `step` samples
    row_cdf: np.ndarray | None = None  # a dynamic walker's running sums over its position's row
    home_clique: int | None = None  # set when walks are confined to the start clique
    samples_since_agg: int = 0
    cum_iters: int = 0  # SGD steps taken so far
    alpha: float | None = None  # mixing weight at the last perception refresh

    def __post_init__(self):
        if self.im.arch != self.sm.arch or self.im.theta.shape != self.sm.theta.shape:
            raise ConfigError("instantaneous and stale models must share shape")


@dataclass(frozen=True)
class MemorySpec:
    """Staged blending weights: (first jump of stage, stale-model weight)."""

    enabled: bool = False
    schedule: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        thresholds = [t for t, _ in self.schedule]
        if thresholds != sorted(set(thresholds)):
            raise ConfigError("memory schedule thresholds must be strictly increasing")
        if any(not 0.0 <= b <= 1.0 for _, b in self.schedule):
            raise ConfigError("memory blend weights must lie in [0, 1]")

    def beta_at(self, jumps: int) -> float:
        beta = 0.0
        for threshold, value in self.schedule:
            if jumps >= threshold:
                beta = value
        return beta


def step(w: WalkerState) -> None:
    """Jump to the next node via one inverse-CDF draw from the walker's stream over its current row."""
    w.position = w.policy.next_node(w.position, w.rng.random(), w.row_cdf)


def visit(w: WalkerState, features: np.ndarray, labels: np.ndarray, iters: int, cfg: LearnerSpec) -> None:
    """Train the instantaneous model for iters steps on the current node's local samples."""
    if features.shape[0] == 0:
        logger.debug("walker %d skipped empty node %d", w.id, w.position)
        return
    w.im = sgd_steps(w.im, features, labels, iters, cfg, w.rng)
    w.samples_since_agg += iters * cfg.batch_size
    w.cum_iters += iters


def memory_merge(w: WalkerState, beta: float) -> WalkerState:
    """Blend the stale model into the instantaneous one, then resynchronize.

    Unlike the other operations this returns a new record and leaves w as it
    was, so one walker can be merged at several weights.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"blend weight must lie in [0, 1], got {beta}")
    merged = replace(w.im, theta=(1.0 - beta) * w.im.theta + beta * w.sm.theta)
    return replace(w, im=merged, sm=merged)


def perception_refresh(
    w: WalkerState,
    accuracy: float,
    params: policy.PolicySpec,
    data_frac: np.ndarray,
    label_frac: np.ndarray,
    centrality: np.ndarray,
    g: Graph,
) -> None:
    """Recompute the walker's row at its position from its model's validation accuracy.

    The walker keeps that row's running sums, cut to its current clique when
    its walks are confined: the one row `step` reads before the next refresh.
    It also keeps the mixing weight the accuracy gives.
    """
    w.alpha = policy.accuracy_scaled_alpha(accuracy, params)
    imp = policy.importance_vector(
        data_frac, label_frac, centrality, w.alpha, params.normalize_terms
    )
    targets, probs, fell_back = policy.transition_row(g, imp, w.position)
    if fell_back:
        logger.warning(
            "zero-importance neighborhood of node %d fell back to a uniform row", w.position
        )
    if w.home_clique is not None:
        targets, probs = policy.confined_row(g, w.position, targets, probs)
    w.row_cdf = np.cumsum(probs)
