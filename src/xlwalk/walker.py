"""Single-walker state machine: jumping, local training, memory, perception.

A walker owns two model copies: the instantaneous model it trains at every
visited node, and a stale model it periodically blends back in to damp
forgetting. In dynamic mode the walker re-evaluates itself after visits and
rebuilds the transition row it samples next from the accuracy-scaled
importance mix, which makes the induced chain time-inhomogeneous.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .learner import ModelParams, TrainConfig, evaluate, sgd_steps
from .policy import (
    ImportanceParams,
    TransitionPolicy,
    accuracy_scaled_alpha,
    importance_vector,
    transition_at,
)
from .topology import Graph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WalkerState:
    id: int
    position: int
    im: ModelParams  # instantaneous model, trained at every visit
    sm: ModelParams  # stale model, blended in by memory merges
    jumps: int = 0
    samples_since_agg: int = 0
    samples_total: int = 0
    cached_loss: float = 0.0  # validation loss and accuracy at the last perception refresh
    cached_accuracy: float = 0.0

    def __post_init__(self):
        if self.im.arch != self.sm.arch or self.im.theta.shape != self.sm.theta.shape:
            raise ConfigError("instantaneous and stale models must share shape")


@dataclass(frozen=True)
class MemoryConfig:
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


def staged_memory(total_jumps: int, betas: tuple[float, ...] = (0.0, 0.2, 0.4)) -> MemoryConfig:
    """Evenly spaced stages over the jump budget, one blend weight per stage."""
    n = len(betas)
    schedule = tuple((total_jumps * i // n, b) for i, b in enumerate(betas))
    return MemoryConfig(enabled=True, schedule=schedule)


def step(w: WalkerState, pol: TransitionPolicy, rng: np.random.Generator) -> WalkerState:
    """Jump to the next node via one inverse-CDF draw over the current row."""
    targets, probs = pol.row(w.position)
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    idx = min(idx, targets.size - 1)  # guard the u ~ 1.0 edge against rounding
    return replace(w, position=int(targets[idx]), jumps=w.jumps + 1)


def visit(
    w: WalkerState,
    features: np.ndarray,
    labels: np.ndarray,
    iters: int,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> WalkerState:
    """Train the instantaneous model on the current node's local samples."""
    if features.shape[0] == 0:
        logger.debug("walker %d skipped empty node %d", w.id, w.position)
        return w
    im = sgd_steps(w.im, features, labels, iters, cfg, rng)
    seen = iters * cfg.batch_size
    return replace(
        w,
        im=im,
        samples_since_agg=w.samples_since_agg + seen,
        samples_total=w.samples_total + seen,
    )


def memory_merge(w: WalkerState, beta: float) -> WalkerState:
    """Blend the stale model into the instantaneous one, then resynchronize."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"blend weight must lie in [0, 1], got {beta}")
    merged = replace(w.im, theta=(1.0 - beta) * w.im.theta + beta * w.sm.theta)
    return replace(w, im=merged, sm=merged)


def perception_refresh(
    w: WalkerState,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    params: ImportanceParams,
    data_frac: np.ndarray,
    label_frac: np.ndarray,
    centrality: np.ndarray,
    g: Graph,
) -> tuple[WalkerState, TransitionPolicy]:
    """Re-measure the model and rebuild the transition row at the walker's position.

    That row is the only one `step` reads before the next refresh, so the
    returned policy holds just it. The state caches the measured loss and
    accuracy.
    """
    loss, accuracy = evaluate(w.im, val_features, val_labels)
    alpha = accuracy_scaled_alpha(accuracy, params)
    imp = importance_vector(data_frac, label_frac, centrality, alpha, params.normalize_terms)
    pol = transition_at(g, imp, w.position)
    return replace(w, cached_loss=loss, cached_accuracy=accuracy), pol
