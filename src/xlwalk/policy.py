"""Node importance scores, transition rows, and training-budget rules.

A node's importance mixes its data quality (share of samples times share of
labels) with its spatial quality (betweenness) through a weighting knob.
Transition rows send a walker to neighbors proportionally to their
importance; uniform and Metropolis-Hastings rows serve as baselines, and a
confined row keeps only the neighbors in the node's own clique. The elastic
rule converts a node quality score into an SGD budget per visit.

Every policy is one `TransitionPolicy`: the chain's transition matrix in
compressed sparse rows. This module alone reads that layout; other modules
build policies with `TransitionPolicy.from_rows`, read-only so that walkers
can share them, and use `row` and `next_node`.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Iterable
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
    probs (summing to 1) and cdf (np.cumsum of that row's probs). Every array
    is read-only, so the views `row` returns never change.
    """

    kind: str
    indptr: np.ndarray
    targets: np.ndarray
    probs: np.ndarray
    cdf: np.ndarray

    @classmethod
    def from_rows(
        cls, kind: str, rows: Iterable[tuple[np.ndarray, np.ndarray]]
    ) -> TransitionPolicy:
        """Pack one (targets ascending, probs) row per node, node 0 first."""
        targets, probs = zip(*rows)
        indptr = np.cumsum([0] + [t.size for t in targets], dtype=np.int64)
        cdf = np.concatenate([np.cumsum(p) for p in probs])
        arrays = (indptr, np.concatenate(targets).astype(np.int64), np.concatenate(probs), cdf)
        for a in arrays:
            a.flags.writeable = False
        return cls(kind, *arrays)

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


def transition_row(g: Graph, importance: np.ndarray, node: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Neighbors of node ascending, their shares of the neighborhood's importance,
    and whether the row fell back to uniform because that importance is zero.

    importance must be a float64 vector over all nodes. A negative value in
    node's neighborhood raises ConfigError, since it would make the row's
    probabilities negative or its total non-positive.
    """
    nbrs = np.array(g.adjacency[node], dtype=np.int64)
    if nbrs.size == 0:
        raise ConfigError(f"node {node} has no neighbors")
    weights = importance[nbrs]
    if (weights < 0).any():
        raise ConfigError("importance values must be non-negative")
    total = weights.sum()
    if total <= 0.0:
        return nbrs, np.full(nbrs.size, 1.0 / nbrs.size), True
    return nbrs, weights / total, False


def confined_row(
    g: Graph, node: int, targets: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Node's row cut to the targets in node's clique and renormalized. The row stays
    compact: a zero-probability target outside the clique could be drawn at u ~ 1."""
    keep = np.array([g.clique_of[j] == g.clique_of[node] for j in targets.tolist()], dtype=bool)
    if not keep.any():
        raise ConfigError(f"node {node} has no neighbor inside its clique")
    kept = probs[keep]
    total = kept.sum()
    if total <= 0.0:
        logger.warning("node %d confined row had zero mass; using uniform", node)
        return targets[keep], np.full(kept.size, 1.0 / kept.size)
    return targets[keep], kept / total


def build_transition(g: Graph, importance: np.ndarray, kind: str = IMPORTANCE_STATIC) -> TransitionPolicy:
    """Rows proportional to neighbor importance; all-zero rows fall back to uniform."""
    importance = np.asarray(importance, dtype=np.float64)
    rows = [transition_row(g, importance, i) for i in range(g.node_count)]
    fallbacks = sum(fell_back for _, _, fell_back in rows)
    if fallbacks:
        logger.warning("%d zero-importance neighborhood(s) fell back to uniform rows", fallbacks)
    return TransitionPolicy.from_rows(kind, ((t, p) for t, p, _ in rows))


def uniform_transition(g: Graph) -> TransitionPolicy:
    nbrs = [np.array(adj, dtype=np.int64) for adj in g.adjacency]
    return TransitionPolicy.from_rows(UNIFORM, ((t, np.full(t.size, 1.0 / t.size)) for t in nbrs))


def mh_transition(g: Graph) -> TransitionPolicy:
    """Metropolis-Hastings rows: min-degree rule plus a lazy self-loop.

    The resulting chain has the uniform distribution as its stationary law.
    """
    rows = []
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
        rows.append((np.array(ids, dtype=np.int64), row))
    return TransitionPolicy.from_rows(MH, rows)


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
