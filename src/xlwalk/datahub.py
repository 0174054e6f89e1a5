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
from collections.abc import Callable
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
        rng.standard_normal(out=features[block])  # the draws and bits of center + rng.normal(size=...)
        features[block] += center
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


def _balanced_counts(n_train: int, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """Per-node sample counts differing by at most one, extras placed at random."""
    base, extra = divmod(n_train, n_nodes)
    counts = np.full(n_nodes, base, dtype=np.int64)
    if extra:
        counts[rng.choice(n_nodes, size=extra, replace=False)] += 1
    return counts


class _LabelPools:
    """Per-label pools of unassigned train indices, each shuffled once and drained from its end
    into `owner`, the node that holds each sample (n_nodes for none)."""

    def __init__(self, ds: Dataset, rng: np.random.Generator, n_nodes: int):
        self.rng = rng
        train_labels = ds.labels[ds.train_indices]
        self.pools = [ds.train_indices[train_labels == k] for k in range(ds.n_classes)]
        for pool in self.pools:
            rng.shuffle(pool)  # the order and stream state of shuffling pool.tolist()
        self.ends = [len(pool) for pool in self.pools]  # pool k still holds pools[k][:ends[k]]
        self.owner = np.full(ds.n_samples, n_nodes, dtype=np.min_scalar_type(n_nodes))

    def remaining(self, labels: list[int]) -> int:
        return sum(self.ends[k] for k in labels)

    def draw(self, labels: list[int], count: int, node: int) -> None:
        """Give `node` `count` indices drawn uniformly without replacement from the union of the given pools."""
        sizes = [self.ends[k] for k in labels]
        if count > sum(sizes):
            raise ValueError("draw exceeds pool")
        if count == 0:
            return
        # one colour takes everything and draws nothing, so the shortcut leaves the stream where it was
        per_pool = [count] if len(labels) == 1 else self.rng.multivariate_hypergeometric(sizes, count).tolist()
        for k, take in zip(labels, per_pool):
            self.ends[k] -= take
            self.owner[self.pools[k][self.ends[k]:self.ends[k] + take]] = node

    def draw_with_fallback(self, labels: list[int], count: int, node: int) -> None:
        """Draw from the preferred pools, topping up from the rest when exhausted."""
        take = min(count, self.remaining(labels))
        self.draw(labels, take, node)
        short = count - take
        if short:
            others = [k for k in range(len(self.pools)) if k not in labels]
            logger.info(
                "node %d: %d sample(s) substituted from other labels (preferred %s exhausted)",
                node, short, labels,
            )
            self.draw(others, short, node)


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


def _finish_partition(ds: Dataset, owner: np.ndarray, n: int) -> Partition:
    """Each of the n nodes' samples as one ascending index array, with its data and label fractions."""
    # stable keeps the sample ids of each node ascending; on 8- and 16-bit owners it is a radix sort
    by_node = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=n + 1)[:n]
    ends = np.cumsum(sizes).tolist()
    present = np.zeros((n + 1, ds.n_classes), dtype=bool)  # the (owner, label) pairs that occur
    present[owner, ds.labels] = True
    return Partition(
        assignment=tuple(by_node[a:b] for a, b in zip([0] + ends, ends)),
        data_frac=sizes / len(ds.train_indices),
        label_frac=present[:n].sum(axis=1) / ds.n_classes,
    )


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
    pools = _LabelPools(ds, rng, n)
    all_labels = list(range(ds.n_classes))
    for node in range(n):
        if node in skewed:
            k = int(rng.integers(labels_lo, labels_hi + 1))
            wanted = sorted(rng.choice(ds.n_classes, size=k, replace=False).tolist())
            pools.draw_with_fallback(wanted, int(counts[node]), node)
    for node in range(n):
        if node not in skewed:
            pools.draw(all_labels, int(counts[node]), node)
    return _finish_partition(ds, pools.owner, n)


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
    pools = _LabelPools(ds, rng, n)
    for c in range(g.n_cliques):
        members = g.clique_members(c)
        label = c % ds.n_classes
        want = {i: int(round(dominance * counts[i])) for i in members}
        available = pools.remaining([label])
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
            pools.draw([label], want[i], i)
    if dominance < 1.0:
        held = np.bincount(pools.owner, minlength=n + 1)
        for node in range(n):
            rest = int(counts[node] - held[node])
            if rest > 0:
                dominant = g.clique_of[node] % ds.n_classes
                others = [k for k in range(ds.n_classes) if k != dominant]
                pools.draw_with_fallback(others, rest, node)
    return _finish_partition(ds, pools.owner, n)


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
    bin_path = path.with_suffix(".features.bin")
    if binary_features:
        doc.update(features_file=bin_path.name, features_shape=list(ds.features.shape), features_dtype="<f4")
    else:
        doc["features"] = ds.features.tolist()
    writers = {bin_path: ds.features.astype("<f4").tofile} if binary_features else {}
    writers[path] = lambda temp: temp.write_text(json.dumps(doc))  # renamed last: a JSON always finds its sidecar
    replace_files(writers)


def replace_files(writers: dict[Path, Callable[[Path], object]]) -> None:
    """Write each target through its writer under a temporary name beside it, then rename them
    into place in order. A failure removes every temporary and every target this call renamed."""
    temps = {target: target.with_name(target.name + ".tmp") for target in writers}
    renamed = []
    try:
        for target, write in writers.items():
            write(temps[target])
        for target, temp in temps.items():
            temp.replace(target)
            renamed.append(target)
    except BaseException:
        for written in [*temps.values(), *renamed]:
            written.unlink(missing_ok=True)
        raise

