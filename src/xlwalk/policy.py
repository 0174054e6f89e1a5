"""Node importance scores, transition rows, and training-budget rules.

A node's importance mixes its data quality (share of samples times share of
labels) with its spatial quality (betweenness) through a weighting knob.
Transition rows send a walker to neighbors proportionally to their
importance; uniform and Metropolis-Hastings rows serve as baselines, and a
confined row keeps only the neighbors in the node's own clique. The elastic
rule converts a node quality score into an SGD budget per visit.

Every policy is one `TransitionPolicy`: the chain's transition matrix in
compressed sparse rows, read-only so that walkers share it. This module alone
reads that layout; other modules use `row` and `next_node`. Tables are built
from the graph's CSR view (`Graph.csr`) in whole-array passes over groups of
equal-length rows, and one row normalizer serves every table, the confinement
to cliques and the single rows a dynamic walker rebuilds.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

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
        if not (0.0 <= self.alpha_min <= 1.0 and 0.0 <= self.alpha_max <= 1.0):
            raise ConfigError("alpha_min and alpha_max must lie in [0, 1]")
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
        if self.tau1 < 0 or self.tau2 < 0:  # a negative one overflows data_quality or the sigmoid
            raise ConfigError("elastic tau1 and tau2 must be non-negative")


@dataclass(frozen=True, eq=False)
class TransitionPolicy:
    """Transition rows in compressed sparse rows (CSR).

    Row i is the slice indptr[i]:indptr[i+1] of targets (ascending node ids),
    probs (summing to 1) and cdf (np.cumsum of that row's probs), which the
    table computes itself. It marks all four arrays read-only, the given ones
    included, so the views `row` returns never change.
    """

    kind: str
    indptr: np.ndarray
    targets: np.ndarray
    probs: np.ndarray
    cdf: np.ndarray = field(init=False)

    def __post_init__(self):
        cdf = np.empty_like(self.probs)
        for _, at in _row_blocks(self.indptr):
            cdf[at] = np.cumsum(self.probs[at], axis=1)
        object.__setattr__(self, "cdf", cdf)
        for a in (self.indptr, self.targets, self.probs, self.cdf):
            a.flags.writeable = False

    def row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.targets[lo:hi], self.probs[lo:hi]

    def next_node(self, node: int, u: float, cdf: np.ndarray | None = None) -> int:
        """The target of node's row that an inverse-CDF draw u in [0, 1) picks, over the
        row's own running sums or over cdf, running sums the caller gives for its targets."""
        lo, hi = self.indptr[node], self.indptr[node + 1]
        if cdf is None:
            cdf = self.cdf[lo:hi]
        elif len(cdf) != hi - lo:
            raise ValueError(f"row {node} has {hi - lo} targets, got {len(cdf)} running sums")
        idx = lo + int(np.searchsorted(cdf, u, side="right"))
        return int(self.targets[min(idx, hi - 1)])  # guard the u ~ 1.0 edge against rounding


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


def _row_blocks(indptr: np.ndarray):
    """Each group of equal-length rows: their ids, and their (rows, length) positions in the flat arrays."""
    lengths = np.diff(indptr)
    for d in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == d)
        yield rows, indptr[rows, None] + np.arange(d)


def _normalize(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a (rows, d) block divided by its sum, or 1 / d throughout where that sum
    is not positive; and which rows fell back to uniform that way."""
    total = block.sum(axis=1, keepdims=True)
    fell_back = total <= 0.0
    probs = np.divide(block, total, out=np.full(block.shape, 1.0 / block.shape[1]), where=~fell_back)
    return probs, fell_back[:, 0]


def _normalize_csr(indptr: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of the flat weights normalized, and which rows fell back to uniform."""
    if (np.diff(indptr) == 0).any():
        raise ConfigError(f"node {int(np.argmin(np.diff(indptr)))} has no neighbors")
    probs, fell_back = np.empty(weights.size), np.empty(indptr.size - 1, dtype=bool)
    for rows, at in _row_blocks(indptr):
        probs[at], fell_back[rows] = _normalize(weights[at])
    return probs, fell_back


def transition_row(g: Graph, importance: np.ndarray, node: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Neighbors of node ascending, their shares of the neighborhood's importance,
    and whether the row fell back to uniform because that importance is zero.

    importance must be a float64 vector over all nodes. A negative value in
    node's neighborhood raises ConfigError, since it would make the row's
    probabilities negative or its total non-positive.
    """
    indptr, targets = g.csr
    nbrs = targets[indptr[node]:indptr[node + 1]]
    if nbrs.size == 0:
        raise ConfigError(f"node {node} has no neighbors")
    weights = importance[nbrs]
    if (weights < 0).any():
        raise ConfigError("importance values must be non-negative")
    probs, fell_back = _normalize(weights[None])
    return nbrs, probs[0], bool(fell_back[0])


def confined_row(
    g: Graph, node: int, targets: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Node's row cut to the targets in node's clique and renormalized. The row stays
    compact: a zero-probability target outside the clique could be drawn at u ~ 1."""
    keep = np.asarray(g.clique_of)[targets] == g.clique_of[node]
    if not keep.any():
        raise ConfigError(f"node {node} has no neighbor inside its clique")
    kept, fell_back = _normalize(probs[keep][None])
    if fell_back[0]:
        logger.warning("node %d confined row had zero mass; using uniform", node)
    return targets[keep], kept[0]


def confined_transition(g: Graph, base: TransitionPolicy) -> TransitionPolicy:
    """Every row of base cut as `confined_row` cuts one, in one masked pass."""
    clique = np.asarray(g.clique_of)
    keep = clique[base.targets] == np.repeat(clique, np.diff(base.indptr))
    indptr = np.concatenate([[0], np.cumsum(keep)])[base.indptr]
    if (np.diff(indptr) == 0).any():
        raise ConfigError(f"node {int(np.argmin(np.diff(indptr)))} has no neighbor inside its clique")
    probs, fell_back = _normalize_csr(indptr, base.probs[keep])
    for node in np.flatnonzero(fell_back).tolist():
        logger.warning("node %d confined row had zero mass; using uniform", node)
    return TransitionPolicy(base.kind, indptr, base.targets[keep], probs)


def build_transition(g: Graph, importance: np.ndarray, kind: str = IMPORTANCE_STATIC) -> TransitionPolicy:
    """Rows proportional to neighbor importance; all-zero rows fall back to uniform."""
    indptr, targets = g.csr
    weights = np.asarray(importance, dtype=np.float64)[targets]
    if (weights < 0).any():
        raise ConfigError("importance values must be non-negative")
    probs, fell_back = _normalize_csr(indptr, weights)
    if fell_back.any():
        logger.warning("%d zero-importance neighborhood(s) fell back to uniform rows", fell_back.sum())
    return TransitionPolicy(kind, indptr, targets, probs)


def uniform_transition(g: Graph) -> TransitionPolicy:
    indptr, targets = g.csr
    return TransitionPolicy(UNIFORM, indptr, targets, _normalize_csr(indptr, np.ones(targets.size))[0])


def mh_transition(g: Graph) -> TransitionPolicy:
    """Metropolis-Hastings rows: min-degree rule plus a lazy self-loop.

    The resulting chain has the uniform distribution as its stationary law.
    """
    indptr, targets = g.csr
    n, degree = g.node_count, np.diff(indptr)
    nodes = np.repeat(np.arange(n), degree)
    moves = np.minimum(1.0 / degree[nodes], 1.0 / degree[targets])
    stay = np.ones(n)
    for k in range(degree.max()):  # what the neighbors leave of 1.0, subtracted in ascending order
        stay[degree > k] -= moves[indptr[:-1][degree > k] + k]
    nodes, targets = np.append(nodes, range(n)), np.append(targets, range(n))
    order = np.lexsort((targets, nodes))
    probs = np.append(moves, np.maximum(stay, 0.0))  # clamp float dust on regular graphs
    return TransitionPolicy(MH, indptr + np.arange(n + 1), targets[order], probs[order])


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
    """Raise unless indptr splits the arrays into one row per node and each row's targets
    ascend inside its allowed support, its cdf is np.cumsum of its probs byte for byte,
    and its probs form a probability vector."""
    ptr = pol.indptr
    if (ptr.size != g.node_count + 1 or ptr[0] != 0 or (np.diff(ptr) < 0).any()
            or not ptr[-1] == pol.targets.size == pol.probs.size == pol.cdf.size):
        raise AssertionError("indptr does not split targets, probs and cdf into one row per node")
    for i in range(g.node_count):
        t, p = pol.row(i)
        allowed = list(g.adjacency[i]) + ([i] if pol.kind == MH else [])
        if (np.diff(t) <= 0).any() or not np.isin(t, allowed).all():
            raise AssertionError(f"row {i} targets are not ascending ids from its neighborhood")
        if pol.cdf[ptr[i]:ptr[i + 1]].tobytes() != np.cumsum(p).tobytes():
            raise AssertionError(f"row {i} cdf is not the running sum of its probabilities")
        if (p < 0).any() or abs(p.sum() - 1.0) > tol:
            raise AssertionError(f"row {i} is not a probability vector: {p}")
