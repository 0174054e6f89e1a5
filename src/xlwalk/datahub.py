"""Synthetic dataset generation and non-iid partitioning across nodes.

The global task is a Gaussian-mixture classification problem: class k is an
isotropic unit-covariance blob centered on a random direction scaled by a
separation factor. Partitioners assign every training sample to exactly one
node and record per-node data-quality fractions: the node's share of the
training set and its share of the distinct labels.
"""
from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .topology import Graph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n_samples, n_dims) float64
    labels: np.ndarray  # (n_samples,) int64
    train_indices: np.ndarray
    val_indices: np.ndarray
    n_classes: int

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_dims(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Partition:
    """Per-node training-sample assignment plus quality fractions."""

    assignment: tuple[np.ndarray, ...]
    data_frac: np.ndarray  # share of the global train set held at each node
    label_frac: np.ndarray  # share of distinct labels present at each node


def check_dataset(n_classes: int, n_dims: int, per_class: int, val_frac: float, sep: float) -> None:
    if n_classes < 2 or per_class < 2 or n_dims < 1:
        raise ConfigError("need n_classes >= 2 and per_class >= 2, and n_dims >= 1")
    if not 0.0 < val_frac < 1.0:
        raise ConfigError(f"val_frac must lie in (0, 1), got {val_frac}")
    if not abs(sep) <= sys.float_info.max:  # NaN or infinite: every feature would be too
        raise ConfigError(f"sep must be a finite number, got {sep}")


def gen_synthetic(
    n_classes: int,
    n_dims: int,
    per_class: int,
    val_frac: float,
    sep: float,
    seed: int,
) -> Dataset:
    """Gaussian-mixture dataset with a stratified validation split."""
    check_dataset(n_classes, n_dims, per_class, val_frac, sep)
    rng = np.random.default_rng(np.random.SeedSequence([0x20, seed]))
    features = np.empty((n_classes * per_class, n_dims), dtype=np.float64)
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    val_per_class = int(round(per_class * val_frac))
    val_per_class = min(max(val_per_class, 1), per_class - 1)
    train_idx: list[np.ndarray] = []
    val_idx: list[np.ndarray] = []
    for k in range(n_classes):
        direction = rng.normal(size=n_dims)
        center = direction / np.linalg.norm(direction) * sep
        block = slice(k * per_class, (k + 1) * per_class)
        features[block] = center + rng.normal(size=(per_class, n_dims))
        labels[block] = k
        chosen = rng.choice(per_class, size=val_per_class, replace=False)
        mask = np.zeros(per_class, dtype=bool)
        mask[chosen] = True
        base = k * per_class
        val_idx.append(base + np.flatnonzero(mask))
        train_idx.append(base + np.flatnonzero(~mask))
    return Dataset(
        features=features,
        labels=labels,
        train_indices=np.concatenate(train_idx),
        val_indices=np.concatenate(val_idx),
        n_classes=n_classes,
    )


def node_view(ds: Dataset, part: Partition, node: int) -> tuple[np.ndarray, np.ndarray]:
    """Feature/label arrays for one node's local samples."""
    idx = part.assignment[node]
    return ds.features[idx], ds.labels[idx]


def _balanced_counts(n_train: int, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """Per-node sample counts differing by at most one, extras placed at random."""
    base, extra = divmod(n_train, n_nodes)
    counts = np.full(n_nodes, base, dtype=np.int64)
    if extra:
        counts[rng.choice(n_nodes, size=extra, replace=False)] += 1
    return counts


class _LabelPools:
    """Mutable per-label pools of unassigned train indices, drained by draws."""

    def __init__(self, ds: Dataset, rng: np.random.Generator):
        self.rng = rng
        self.pools: list[list[int]] = []
        train_labels = ds.labels[ds.train_indices]
        for k in range(ds.n_classes):
            pool = ds.train_indices[train_labels == k].tolist()
            self.rng.shuffle(pool)
            self.pools.append(pool)

    def remaining(self, labels: list[int]) -> int:
        return sum(len(self.pools[k]) for k in labels)

    def draw(self, labels: list[int], count: int) -> list[int]:
        """Draw uniformly without replacement from the union of the given pools."""
        sizes = [len(self.pools[k]) for k in labels]
        total = sum(sizes)
        if count > total:
            raise ValueError("draw exceeds pool")
        if total == 0 or count == 0:
            return []
        per_pool = self.rng.multivariate_hypergeometric(sizes, count)
        out: list[int] = []
        for k, take in zip(labels, per_pool):
            if take:
                pool = self.pools[k]
                out.extend(pool[-take:])
                del pool[-take:]
        return out

    def draw_with_fallback(self, labels: list[int], count: int, node: int) -> list[int]:
        """Draw from the preferred pools, topping up from the rest when exhausted."""
        take = min(count, self.remaining(labels))
        out = self.draw(labels, take)
        short = count - take
        if short:
            others = [k for k in range(len(self.pools)) if k not in labels]
            logger.info(
                "node %d: %d sample(s) substituted from other labels (preferred %s exhausted)",
                node, short, labels,
            )
            out.extend(self.draw(others, short))
        return out


def check_label_skew(skew_frac: float, labels_lo: int, labels_hi: int, n_classes: int) -> None:
    if not 0.0 <= skew_frac <= 1.0:
        raise ConfigError(f"skew_frac must lie in [0, 1], got {skew_frac}")
    if not 1 <= labels_lo <= labels_hi <= n_classes:
        raise ConfigError(f"need 1 <= labels_lo <= labels_hi <= {n_classes}, got {labels_lo} and {labels_hi}")


def check_clique_dominant(dominance: float, n_cliques: int, n_classes: int) -> None:
    if not 0.0 < dominance <= 1.0:
        raise ConfigError(f"dominance must lie in (0, 1], got {dominance}")
    if n_cliques > n_classes:
        raise ConfigError(f"{n_cliques} cliques need at most {n_classes} classes to dominate")


def _finish_partition(ds: Dataset, per_node: list[list[int]]) -> Partition:
    n_train = len(ds.train_indices)
    assignment = tuple(np.array(sorted(ix), dtype=np.int64) for ix in per_node)
    data_frac = np.array([len(ix) / n_train for ix in assignment])
    label_frac = np.array(
        [len(np.unique(ds.labels[ix])) / ds.n_classes if len(ix) else 0.0 for ix in assignment]
    )
    return Partition(assignment=assignment, data_frac=data_frac, label_frac=label_frac)


def partition_label_skew(
    ds: Dataset,
    g: Graph,
    skew_frac: float,
    labels_lo: int,
    labels_hi: int,
    seed: int,
) -> Partition:
    """Label-skewed split: most nodes hold samples from only a few labels.

    floor(skew_frac * n) nodes each receive samples drawn from a random label
    subset of size uniform in [labels_lo, labels_hi]; the rest receive uniform
    leftovers. Counts are balanced within +/-1 across nodes. If a demanded
    label runs out, the shortfall is drawn from remaining labels and logged.
    """
    check_label_skew(skew_frac, labels_lo, labels_hi, ds.n_classes)
    rng = np.random.default_rng(np.random.SeedSequence([0x21, seed]))
    n = g.node_count
    counts = _balanced_counts(len(ds.train_indices), n, rng)
    n_skew = int(np.floor(skew_frac * n))
    skewed = set(rng.choice(n, size=n_skew, replace=False).tolist())
    pools = _LabelPools(ds, rng)
    all_labels = list(range(ds.n_classes))
    per_node: list[list[int]] = [[] for _ in range(n)]
    for node in range(n):
        if node in skewed:
            k = int(rng.integers(labels_lo, labels_hi + 1))
            wanted = sorted(rng.choice(ds.n_classes, size=k, replace=False).tolist())
            per_node[node] = pools.draw_with_fallback(wanted, int(counts[node]), node)
    for node in range(n):
        if node not in skewed:
            per_node[node] = pools.draw(all_labels, int(counts[node]))
    return _finish_partition(ds, per_node)


def partition_clique_dominant(
    ds: Dataset,
    g: Graph,
    dominance: float,
    seed: int,
) -> Partition:
    """Each clique draws a dominance fraction of its samples from one label.

    Clique c prefers label c mod n_classes; the remainder is drawn uniformly
    from the other labels. When a clique wants more of its label than exists,
    the label's pool is split evenly across its nodes. At full dominance the
    shortfall stays unassigned so cliques remain pure, which also means
    labels no clique prefers are left out of the partition entirely.
    """
    if g.clique_of is None:
        raise ConfigError("clique-dominant partition requires a graph with cliques")
    check_clique_dominant(dominance, g.n_cliques, ds.n_classes)
    rng = np.random.default_rng(np.random.SeedSequence([0x22, seed]))
    n = g.node_count
    counts = _balanced_counts(len(ds.train_indices), n, rng)
    pools = _LabelPools(ds, rng)
    per_node: list[list[int]] = [[] for _ in range(n)]
    for c in range(g.n_cliques):
        members = g.clique_members(c)
        label = c % ds.n_classes
        want = {i: int(round(dominance * counts[i])) for i in members}
        available = len(pools.pools[label])
        total_want = sum(want.values())
        if total_want > available:
            logger.info(
                "clique %d wants %d sample(s) of label %d but only %d exist; splitting evenly",
                c, total_want, label, available,
            )
            shares = {i: available * want[i] // total_want for i in members}
            leftover = available - sum(shares.values())
            for i in members:  # hand the rounding remainder out in id order
                if leftover == 0:
                    break
                if shares[i] < want[i]:
                    shares[i] += 1
                    leftover -= 1
            want = shares
        for i in members:
            per_node[i] = pools.draw([label], want[i])
    if dominance < 1.0:
        for node in range(n):
            rest = int(counts[node]) - len(per_node[node])
            if rest > 0:
                dominant = g.clique_of[node] % ds.n_classes
                others = [k for k in range(ds.n_classes) if k != dominant]
                per_node[node].extend(pools.draw_with_fallback(others, rest, node))
    return _finish_partition(ds, per_node)


def save_dataset(ds: Dataset, path: str | Path, binary_features: bool = False) -> None:
    """Write a dataset as JSON, optionally with features in a float32 sidecar named after it."""
    path = Path(path)
    if not path.name:
        raise ConfigError(f"dataset path {str(path)!r} names no file")
    doc: dict = {
        "n_classes": ds.n_classes,
        "n_dims": ds.n_dims,
        "labels": ds.labels.tolist(),
        "train_indices": ds.train_indices.tolist(),
        "val_indices": ds.val_indices.tolist(),
    }
    if binary_features:
        bin_path = path.with_suffix(".features.bin")
        ds.features.astype("<f4").tofile(bin_path)
        doc["features_file"] = bin_path.name
        doc["features_shape"] = list(ds.features.shape)
        doc["features_dtype"] = "<f4"
    else:
        doc["features"] = ds.features.tolist()
    path.write_text(json.dumps(doc))


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    doc = json.loads(path.read_text())
    if "features_file" in doc:
        raw = np.fromfile(path.parent / doc["features_file"], dtype=doc["features_dtype"])
        features = raw.reshape(doc["features_shape"]).astype(np.float64)
    else:
        features = np.array(doc["features"], dtype=np.float64)
    return Dataset(
        features=features,
        labels=np.array(doc["labels"], dtype=np.int64),
        train_indices=np.array(doc["train_indices"], dtype=np.int64),
        val_indices=np.array(doc["val_indices"], dtype=np.int64),
        n_classes=doc["n_classes"],
    )
