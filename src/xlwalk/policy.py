"""Node importance scores, transition rows, and training-budget rules.

A node's importance mixes its data quality (share of samples times share of
labels) with its spatial quality (betweenness) through a weighting knob.
Transition rows send a walker to neighbors proportionally to their
importance; uniform and Metropolis-Hastings rows serve as baselines. The
elastic rule converts a node quality score into an SGD budget per visit.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .topology import Graph

logger = logging.getLogger(__name__)

UNIFORM = "uniform"
MH = "mh"
IMPORTANCE_STATIC = "importance-static"
IMPORTANCE_DYNAMIC = "importance-dynamic"


@dataclass(frozen=True)
class PolicySpec:
    """Which transition rows a walker samples, plus the importance mixing weights.

    alpha is the static mixing weight; dynamic mode maps the walker's
    accuracy from [acc_min, acc_max] onto [alpha_min, alpha_max] instead.
    """

    kind: str = UNIFORM
    alpha: float = 0.5
    alpha_min: float = 0.10
    alpha_max: float = 0.85
    acc_min: float = 0.1
    acc_max: float = 0.8
    normalize_terms: bool = True

    def __post_init__(self):
        if self.kind not in (UNIFORM, MH, IMPORTANCE_STATIC, IMPORTANCE_DYNAMIC):
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.alpha_min > self.alpha_max:
            raise ConfigError("alpha_min must not exceed alpha_max")
        if self.acc_min >= self.acc_max:
            raise ConfigError("acc_min must be below acc_max")


@dataclass(frozen=True)
class ElasticSpec:
    """The elastic rule: when enabled, a node's quality sets the SGD budget of each visit."""

    enabled: bool = False
    x_max: int = 20
    tau1: float = 10.0
    tau2: float = 0.4

    def __post_init__(self):
        if self.x_max < 1:
            raise ConfigError("x_max must be at least 1")


@dataclass(frozen=True)
class TransitionPolicy:
    """Per-node rows of (target ids ascending, probabilities summing to 1).

    Rows sit in tuples indexed by node, or in dicts keyed by node that may
    hold only some rows: dynamic mode builds just the row at a walker's
    position. Asking for a row the policy lacks raises KeyError.
    """

    kind: str
    targets: tuple[np.ndarray, ...] | dict[int, np.ndarray]
    probs: tuple[np.ndarray, ...] | dict[int, np.ndarray]

    def row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        return self.targets[node], self.probs[node]

    def nodes(self) -> list[int]:
        """Ids of the nodes whose rows this policy holds."""
        if isinstance(self.targets, dict):
            return list(self.targets)
        return list(range(len(self.targets)))


def importance_vector(
    data_frac: np.ndarray,
    label_frac: np.ndarray,
    centrality: np.ndarray,
    alpha: float,
    normalize_terms: bool = True,
) -> np.ndarray:
    """Per-node importance; optionally max-normalizes both terms first.

    Raw data products sit orders of magnitude below betweenness values, so
    without normalization the mixing weight is a nearly dead dial.
    """
    data_term = np.asarray(data_frac, dtype=np.float64) * np.asarray(label_frac, dtype=np.float64)
    spatial = np.asarray(centrality, dtype=np.float64)
    if normalize_terms:
        if data_term.max() > 0.0:
            data_term = data_term / data_term.max()
        if spatial.max() > 0.0:
            spatial = spatial / spatial.max()
    return alpha * data_term + (1.0 - alpha) * spatial


def accuracy_scaled_alpha(accuracy: float, p: PolicySpec) -> float:
    """Mixing weight as a clamped linear function of current model accuracy."""
    span = (p.alpha_max - p.alpha_min) / (p.acc_max - p.acc_min)
    alpha = p.alpha_min + (accuracy - p.acc_min) * span
    return min(max(alpha, p.alpha_min), p.alpha_max)


def _checked_importance(importance: np.ndarray) -> np.ndarray:
    importance = np.asarray(importance, dtype=np.float64)
    if (importance < 0).any():
        raise ConfigError("importance values must be non-negative")
    return importance


def transition_row(g: Graph, importance: np.ndarray, node: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Neighbors of node ascending, their shares of the neighborhood's importance,
    and whether the row fell back to uniform because that importance is zero.

    importance must be a non-negative float64 vector over all nodes.
    """
    nbrs = np.array(g.adjacency[node], dtype=np.int64)
    if nbrs.size == 0:
        raise ConfigError(f"node {node} has no neighbors")
    weights = importance[nbrs]
    total = weights.sum()
    if total <= 0.0:
        return nbrs, np.full(nbrs.size, 1.0 / nbrs.size), True
    return nbrs, weights / total, False


def build_transition(g: Graph, importance: np.ndarray, kind: str = IMPORTANCE_STATIC) -> TransitionPolicy:
    """Rows proportional to neighbor importance; all-zero rows fall back to uniform."""
    importance = _checked_importance(importance)
    rows = [transition_row(g, importance, i) for i in range(g.node_count)]
    fallbacks = sum(fell_back for _, _, fell_back in rows)
    if fallbacks:
        logger.warning("%d zero-importance neighborhood(s) fell back to uniform rows", fallbacks)
    return TransitionPolicy(
        kind=kind, targets=tuple(t for t, _, _ in rows), probs=tuple(p for _, p, _ in rows)
    )


def transition_at(g: Graph, importance: np.ndarray, node: int) -> TransitionPolicy:
    """A dynamic-mode policy holding only node's row of `build_transition(g, importance)`."""
    targets, probs, fell_back = transition_row(g, _checked_importance(importance), node)
    if fell_back:
        logger.warning("zero-importance neighborhood of node %d fell back to a uniform row", node)
    return TransitionPolicy(kind=IMPORTANCE_DYNAMIC, targets={node: targets}, probs={node: probs})


def uniform_transition(g: Graph) -> TransitionPolicy:
    targets = []
    probs = []
    for i in range(g.node_count):
        nbrs = np.array(g.adjacency[i], dtype=np.int64)
        targets.append(nbrs)
        probs.append(np.full(nbrs.size, 1.0 / nbrs.size))
    return TransitionPolicy(kind=UNIFORM, targets=tuple(targets), probs=tuple(probs))


def mh_transition(g: Graph) -> TransitionPolicy:
    """Metropolis-Hastings rows: min-degree rule plus a lazy self-loop.

    The resulting chain has the uniform distribution as its stationary law.
    """
    targets = []
    probs = []
    for i in range(g.node_count):
        deg_i = g.degree(i)
        ids = sorted(list(g.adjacency[i]) + [i])
        row = np.empty(len(ids))
        self_mass = 1.0
        for pos, j in enumerate(ids):
            if j == i:
                continue
            p = min(1.0 / deg_i, 1.0 / g.degree(j))
            row[pos] = p
            self_mass -= p
        row[ids.index(i)] = max(self_mass, 0.0)  # clamp float dust on regular graphs
        targets.append(np.array(ids, dtype=np.int64))
        probs.append(row)
    return TransitionPolicy(kind=MH, targets=tuple(targets), probs=tuple(probs))


def data_quality(data_frac: float, label_frac: float, tau2: float = 0.4) -> float:
    """Relative node quality: label share times a damped power of the data share."""
    exponent = tau2 * (1.0 - data_frac)
    if data_frac == 0.0:
        return label_frac if exponent == 0.0 else 0.0  # 0^0 := 1
    return label_frac * data_frac ** exponent


def elastic_iterations(quality: float, p: ElasticSpec) -> int:
    """Sigmoid-scaled SGD budget, rounded half-up and clamped to [1, x_max]."""
    if quality < 0:
        raise ConfigError("quality must be non-negative")
    x = p.x_max / (1.0 + math.exp(-p.tau1 * quality))
    return int(min(max(math.floor(x + 0.5), 1), p.x_max))


def validate_policy(pol: TransitionPolicy, g: Graph, tol: float = 1e-9) -> None:
    """Raise if any row is not a probability vector over the allowed support."""
    for i in range(g.node_count):
        t, p = pol.row(i)
        if (p < 0).any():
            raise AssertionError(f"negative probability in row {i}")
        if abs(p.sum() - 1.0) > tol:
            raise AssertionError(f"row {i} sums to {p.sum()}")
        allowed = set(g.adjacency[i]) | ({i} if pol.kind == MH else set())
        if not set(t[p > 0].tolist()) <= allowed:
            raise AssertionError(f"row {i} has support outside its neighborhood")
