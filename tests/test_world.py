"""World building against a reference that builds each world the way it was first written.

`reference_build_environment` keeps the per-node build: list pools that always
draw through `multivariate_hypergeometric`, a `sorted` and an `np.unique` per
node, one feature gather per node and `center + rng.normal(...)`. Its graph
comes from the pairwise loop in `reference_gen_rgg`. Every `Environment` field
built by `experiment.build_environment` must equal it, bit for bit.
"""
import numpy as np
import pytest

from xlwalk import topology
from xlwalk.errors import GenerationError
from xlwalk.experiment import DataSpec, ExperimentConfig, GraphSpec, PartitionSpec, build_environment

from .test_topology import reference_gen_rgg


def reference_gen_synthetic(n_classes, n_dims, per_class, val_frac, sep, seed):
    rng = np.random.default_rng(np.random.SeedSequence([0x20, seed]))
    features = np.empty((n_classes * per_class, n_dims), dtype=np.float64)
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    val_per_class = min(max(int(round(per_class * val_frac)), 1), per_class - 1)
    train_idx, val_idx = [], []
    for k in range(n_classes):
        direction = rng.normal(size=n_dims)
        center = direction / np.linalg.norm(direction) * sep
        block = slice(k * per_class, (k + 1) * per_class)
        features[block] = center + rng.normal(size=(per_class, n_dims))
        labels[block] = k
        chosen = rng.choice(per_class, size=val_per_class, replace=False)
        mask = np.zeros(per_class, dtype=bool)
        mask[chosen] = True
        val_idx.append(k * per_class + np.flatnonzero(mask))
        train_idx.append(k * per_class + np.flatnonzero(~mask))
    return features, labels, np.concatenate(train_idx), np.concatenate(val_idx)


def reference_balanced_counts(n_train, n_nodes, rng):
    base, extra = divmod(n_train, n_nodes)
    counts = np.full(n_nodes, base, dtype=np.int64)
    if extra:
        counts[rng.choice(n_nodes, size=extra, replace=False)] += 1
    return counts


class ReferenceLabelPools:
    """List pools, drained by deleting their tails; every draw goes through multivariate_hypergeometric."""

    def __init__(self, labels, train_indices, n_classes, rng):
        self.rng = rng
        self.pools = []
        train_labels = labels[train_indices]
        for k in range(n_classes):
            pool = train_indices[train_labels == k].tolist()
            self.rng.shuffle(pool)
            self.pools.append(pool)

    def remaining(self, labels):
        return sum(len(self.pools[k]) for k in labels)

    def draw(self, labels, count):
        sizes = [len(self.pools[k]) for k in labels]
        total = sum(sizes)
        assert count <= total
        if total == 0 or count == 0:
            return []
        per_pool = self.rng.multivariate_hypergeometric(sizes, count)
        out = []
        for k, take in zip(labels, per_pool):
            if take:
                pool = self.pools[k]
                out.extend(pool[-take:])
                del pool[-take:]
        return out

    def draw_with_fallback(self, labels, count):
        take = min(count, self.remaining(labels))
        out = self.draw(labels, take)
        if count - take:
            out.extend(self.draw([k for k in range(len(self.pools)) if k not in labels], count - take))
        return out


def reference_partition(labels, train_indices, n_classes, g, pspec, seed):
    """Both partitioners as first written; the assignment is sorted and the labels counted node by node."""
    n = g.node_count
    if pspec.kind == "label_skew":
        rng = np.random.default_rng(np.random.SeedSequence([0x21, seed]))
        counts = reference_balanced_counts(len(train_indices), n, rng)
        skewed = set(rng.choice(n, size=int(np.floor(pspec.skew_frac * n)), replace=False).tolist())
        pools = ReferenceLabelPools(labels, train_indices, n_classes, rng)
        per_node = [[] for _ in range(n)]
        for node in range(n):
            if node in skewed:
                k = int(rng.integers(pspec.labels_lo, pspec.labels_hi + 1))
                wanted = sorted(rng.choice(n_classes, size=k, replace=False).tolist())
                per_node[node] = pools.draw_with_fallback(wanted, int(counts[node]))
        for node in range(n):
            if node not in skewed:
                per_node[node] = pools.draw(list(range(n_classes)), int(counts[node]))
    else:
        rng = np.random.default_rng(np.random.SeedSequence([0x22, seed]))
        counts = reference_balanced_counts(len(train_indices), n, rng)
        pools = ReferenceLabelPools(labels, train_indices, n_classes, rng)
        per_node = [[] for _ in range(n)]
        for c in range(g.n_cliques):
            members = g.clique_members(c)
            label = c % n_classes
            want = {i: int(round(pspec.dominance * counts[i])) for i in members}
            available = len(pools.pools[label])
            total_want = sum(want.values())
            if total_want > available:
                shares = {i: available * want[i] // total_want for i in members}
                leftover = available - sum(shares.values())
                for i in members:
                    if leftover == 0:
                        break
                    if shares[i] < want[i]:
                        shares[i] += 1
                        leftover -= 1
                want = shares
            for i in members:
                per_node[i] = pools.draw([label], want[i])
        if pspec.dominance < 1.0:
            for node in range(n):
                rest = int(counts[node]) - len(per_node[node])
                if rest > 0:
                    dominant = g.clique_of[node] % n_classes
                    others = [k for k in range(n_classes) if k != dominant]
                    per_node[node].extend(pools.draw_with_fallback(others, rest))
    assignment = tuple(np.array(sorted(ix), dtype=np.int64) for ix in per_node)
    data_frac = np.array([len(ix) / len(train_indices) for ix in assignment])
    label_frac = np.array([len(np.unique(labels[ix])) / n_classes if len(ix) else 0.0 for ix in assignment])
    return assignment, data_frac, label_frac


def reference_build_environment(cfg, seed):
    """Every field of the world `cfg` describes at `seed`, as a dict; None when no graph could be drawn."""
    gspec, d = cfg.graph, cfg.data
    if gspec.kind == "caveman":
        g = topology.gen_connected_caveman(gspec.cliques, gspec.nodes, seed)
    else:
        radius = topology.default_rgg_radius(gspec.nodes) if gspec.radius is None else gspec.radius
        g = reference_gen_rgg(gspec.nodes, radius, seed, gspec.max_retries)
        if g is None:
            return None
    features, labels, train_idx, val_idx = reference_gen_synthetic(
        d.classes, d.dims, d.per_class, d.val_frac, d.sep, seed
    )
    assignment, data_frac, label_frac = reference_partition(labels, train_idx, d.classes, g, cfg.partition, seed)
    return {
        "graph": g,
        "assignment": assignment,
        "data_frac": data_frac,
        "label_frac": label_frac,
        "node_features": [features[ix] for ix in assignment],
        "node_labels": [labels[ix] for ix in assignment],
        "val_features": features[val_idx],
        "val_labels": labels[val_idx],
    }


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def assert_same_world(cfg, seed):
    want = reference_build_environment(cfg, seed)
    if want is None:
        with pytest.raises(GenerationError):
            build_environment(cfg, seed)
        return
    env = build_environment(cfg, seed)
    assert env.graph == want["graph"]
    assert all(type(j) is int for adj in env.graph.adjacency for j in adj)
    part = env.partition
    for field in ("assignment", "node_features", "node_labels"):
        got = part.assignment if field == "assignment" else getattr(env, field)
        assert len(got) == len(want[field]) == env.graph.node_count
        assert all(same_array(a, b) for a, b in zip(got, want[field])), field
    for field in ("data_frac", "label_frac"):
        assert same_array(getattr(part, field), want[field]), field
    assert same_array(env.val_features, want["val_features"])
    assert same_array(env.val_labels, want["val_labels"])
    assert env.key == (cfg.graph, cfg.data, cfg.partition, seed)


def test_generated_worlds_equal_the_reference():
    """Both graph kinds up to 300 nodes, both partitioners, dominance with and without a shortfall,
    label skew from 0 to 1 over drawn label ranges, and worlds with more nodes than samples."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    datas = st.builds(DataSpec, classes=st.integers(2, 10), dims=st.integers(1, 6), per_class=st.integers(2, 60),
                      val_frac=st.sampled_from([0.1, 0.25, 0.5]), sep=st.floats(0.0, 4.0))

    @st.composite
    def layouts(draw, classes):
        """A graph and the partition of its samples."""
        layout = draw(st.sampled_from(["rgg", "clique_dominant", "caveman"]))
        if layout == "clique_dominant":
            cliques = draw(st.integers(1, classes))
            graph = GraphSpec(kind="caveman", cliques=cliques, nodes=draw(st.integers(2 * cliques, 300)))
            return graph, PartitionSpec(kind="clique_dominant", dominance=draw(st.sampled_from([1.0, 0.7, 0.3])))
        if layout == "caveman":
            graph = GraphSpec(kind="caveman", cliques=draw(st.integers(1, 4)), nodes=draw(st.integers(8, 300)))
        else:
            graph = GraphSpec(kind="rgg", cliques=0, nodes=draw(st.integers(2, 300)),
                              radius=draw(st.none() | st.floats(0.1, 0.5)))
        lo = draw(st.integers(1, classes))
        return graph, PartitionSpec(kind="label_skew", skew_frac=draw(st.floats(0.0, 1.0)),
                                    labels_lo=lo, labels_hi=draw(st.integers(lo, classes)))

    @st.composite
    def worlds(draw):
        data = draw(datas)
        graph, partition = draw(layouts(data.classes))
        return ExperimentConfig(graph=graph, data=data, partition=partition), draw(st.integers(0, 2 ** 16))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @example(world=(ExperimentConfig(graph=GraphSpec(kind="caveman", cliques=3, nodes=40),
                                     data=DataSpec(classes=3, dims=2, per_class=4),
                                     partition=PartitionSpec(kind="clique_dominant", dominance=0.7)), 5))
    @given(world=worlds())
    def check(world):
        assert_same_world(*world)

    check()


def test_a_thousand_node_world_equals_the_reference():
    cfg = ExperimentConfig(graph=GraphSpec(kind="rgg", cliques=0, nodes=1000),
                           partition=PartitionSpec(skew_frac=0.9, labels_lo=1, labels_hi=2))
    assert_same_world(cfg, 0)


@pytest.mark.parametrize("name", ["fig2", "fig4", "fig6"])
def test_preset_worlds_equal_the_reference(name):
    from xlwalk.presets import preset_configs

    cfg = preset_configs(name, 1)[0]
    for seed in range(3):
        assert_same_world(cfg, seed)
