"""Per-row transition table builders: one row per node, each normalized on its own.

These are the loops that `xlwalk.policy` replaced with whole-array passes. Each
builder returns a table's (indptr, targets, probs, cdf) and logs the same
fallback warnings, so tests can require the library's tables byte for byte.
"""
import logging

import numpy as np

from xlwalk.errors import ConfigError

logger = logging.getLogger("xlwalk.policy")


def pack_rows(rows):
    """(indptr, targets, probs, cdf) of one (targets ascending, probs) row per node, node 0 first."""
    targets, probs = zip(*rows)
    indptr = np.cumsum([0] + [t.size for t in targets], dtype=np.int64)
    cdf = np.concatenate([np.cumsum(p) for p in probs])
    return indptr, np.concatenate(targets).astype(np.int64), np.concatenate(probs), cdf


def transition_row(g, importance, node):
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


def confined_row(g, node, targets, probs):
    keep = np.array([g.clique_of[j] == g.clique_of[node] for j in targets.tolist()], dtype=bool)
    if not keep.any():
        raise ConfigError(f"node {node} has no neighbor inside its clique")
    kept = probs[keep]
    total = kept.sum()
    if total <= 0.0:
        logger.warning("node %d confined row had zero mass; using uniform", node)
        return targets[keep], np.full(kept.size, 1.0 / kept.size)
    return targets[keep], kept / total


def build_transition(g, importance):
    importance = np.asarray(importance, dtype=np.float64)
    rows = [transition_row(g, importance, i) for i in range(g.node_count)]
    fallbacks = sum(fell_back for _, _, fell_back in rows)
    if fallbacks:
        logger.warning("%d zero-importance neighborhood(s) fell back to uniform rows", fallbacks)
    return pack_rows((t, p) for t, p, _ in rows)


def uniform_transition(g):
    nbrs = [np.array(adj, dtype=np.int64) for adj in g.adjacency]
    return pack_rows((t, np.full(t.size, 1.0 / t.size)) for t in nbrs)


def mh_transition(g):
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
        row[ids.index(i)] = max(self_mass, 0.0)
        rows.append((np.array(ids, dtype=np.int64), row))
    return pack_rows(rows)


def confined_transition(g, base):
    """base is a reference table's (indptr, targets, probs, cdf)."""
    indptr, targets, probs, _ = base
    return pack_rows(
        confined_row(g, i, targets[indptr[i]:indptr[i + 1]], probs[indptr[i]:indptr[i + 1]])
        for i in range(g.node_count)
    )
