import json
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest

from xlwalk.errors import ConfigError, GenerationError
from xlwalk.experiment import build_environment
from xlwalk.presets import PRESETS, preset_configs
from xlwalk.topology import (
    Centrality,
    Graph,
    betweenness,
    gen_connected_caveman,
    gen_rgg,
    graph_from_json,
    graph_to_json,
    is_connected,
    next_hop_toward,
    default_rgg_radius,
)


def graph_from_edges(n, edges):
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return Graph(node_count=n, adjacency=tuple(tuple(sorted(a)) for a in adj))


def random_connected_graph(n, p, rng):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = graph_from_edges(n, edges)
        if all(g.degree(i) > 0 for i in range(n)) and is_connected(g):
            return g


def brute_force_betweenness(g):
    """Enumerate every shortest path per unordered pair and count pass-throughs."""
    raw = [Fraction(0)] * g.node_count
    for s in range(g.node_count):
        dist = bfs_dist(g, s)
        for t in range(s + 1, g.node_count):
            paths = enumerate_shortest_paths(g, dist, s, t)
            through = Counter(v for path in paths for v in path[1:-1])
            for v, c in through.items():
                raw[v] += Fraction(c, len(paths))
    return [float(x) for x in raw]


def reference_betweenness(g):
    """Brandes' accumulation on exact rationals, which `betweenness` must match bit for bit."""
    acc = [Fraction(0)] * g.node_count
    for s in range(g.node_count):
        sigma = [0] * g.node_count
        preds = [[] for _ in range(g.node_count)]
        dist = {s: 0}
        sigma[s] = 1
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [Fraction(0)] * g.node_count
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            if w != s:
                acc[w] += delta[w]
    raw = tuple(float(a / 2) for a in acc)
    top = max(raw)
    normalized = tuple(v / top for v in raw) if top > 0.0 else raw
    return Centrality(raw=raw, normalized=normalized)


def bfs_dist(g, s):
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def enumerate_shortest_paths(g, dist, s, t):
    if t == s:
        return [[s]]
    out = []
    for w in g.adjacency[t]:
        if dist.get(w, -1) == dist[t] - 1:
            out.extend(path + [t] for path in enumerate_shortest_paths(g, dist, s, w))
    return out


class TestCaveman:
    def test_eight_cliques_fifty_nodes(self):
        g = gen_connected_caveman(8, 50, 7)
        sizes = sorted(Counter(g.clique_of).values(), reverse=True)
        assert sizes == [7, 7, 6, 6, 6, 6, 6, 6]
        assert is_connected(g)

    def test_single_clique_is_complete(self):
        g = gen_connected_caveman(1, 5, 3)
        assert all(g.degree(i) == 4 for i in range(5))
        assert len(g.edges()) == 10

    def test_large_even_split(self):
        g = gen_connected_caveman(10, 1000, 1)
        sizes = Counter(g.clique_of)
        assert all(sizes[c] == 100 for c in range(10))
        assert is_connected(g)

    def test_two_node_cliques_stay_connected(self):
        g = gen_connected_caveman(4, 8, 11)
        assert is_connected(g)
        sizes = Counter(g.clique_of)
        assert all(sizes[c] == 2 for c in range(4))

    def test_undirected_sorted_no_self_edges(self):
        g = gen_connected_caveman(5, 23, 2)
        for i in range(g.node_count):
            assert list(g.adjacency[i]) == sorted(set(g.adjacency[i]))
            assert i not in g.adjacency[i]
            for j in g.adjacency[i]:
                assert i in g.adjacency[j]

    def test_deterministic_in_seed(self):
        assert gen_connected_caveman(6, 30, 42) == gen_connected_caveman(6, 30, 42)

    @pytest.mark.parametrize("cliques,nodes", [(8, 15), (0, 10), (3, 5)])
    def test_invalid_sizes(self, cliques, nodes):
        with pytest.raises(ConfigError):
            gen_connected_caveman(cliques, nodes, 0)


class TestRgg:
    def test_edges_match_distances_exactly(self):
        g = gen_rgg(60, 0.2, 5)
        pos = np.array(g.positions)
        edge_set = set(g.edges())
        for i in range(60):
            for j in range(i + 1, 60):
                d = float(np.hypot(*(pos[i] - pos[j])))
                assert ((i, j) in edge_set) == (d <= 0.2)

    def test_two_nodes_max_radius(self):
        g = gen_rgg(2, 1.5, 9, max_retries=1)
        assert g.edges() == [(0, 1)]

    @pytest.mark.parametrize("n", [100, 500])
    def test_connected_at_degree_six_radius(self, n):
        g = gen_rgg(n, default_rgg_radius(n), 3)
        assert g.node_count == n
        assert is_connected(g)

    def test_failure_reports_radius(self):
        with pytest.raises(GenerationError, match="0.01"):
            gen_rgg(80, 0.01, 0, max_retries=3)

    def test_deterministic_in_seed(self):
        assert gen_rgg(40, 0.25, 8) == gen_rgg(40, 0.25, 8)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            gen_rgg(1, 0.5, 0)
        with pytest.raises(ConfigError):
            gen_rgg(10, 0.0, 0)
        with pytest.raises(ConfigError):
            gen_rgg(10, 0.5, 0, max_retries=0)


class TestBetweenness:
    def test_path_graph(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        c = betweenness(g)
        assert c.raw == (0.0, 1.0, 0.0)
        assert c.normalized == (0.0, 1.0, 0.0)

    def test_complete_graph_all_zero(self):
        g = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        c = betweenness(g)
        assert c.raw == (0.0, 0.0, 0.0, 0.0)
        assert c.normalized == c.raw

    def test_star_center(self):
        g = graph_from_edges(5, [(0, i) for i in range(1, 5)])
        c = betweenness(g)
        assert c.raw[0] == 6.0  # all C(4,2) leaf pairs route through the hub
        assert c.raw[1:] == (0.0, 0.0, 0.0, 0.0)
        assert c.normalized[0] == 1.0

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            g = random_connected_graph(n, float(rng.uniform(0.25, 0.7)), rng)
            assert list(betweenness(g).raw) == brute_force_betweenness(g)

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            g = random_connected_graph(n, float(rng.uniform(0.15, 0.6)), rng)
            assert betweenness(g) == reference_betweenness(g)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_preset_worlds(self, name, seed):
        env = build_environment(preset_configs(name, 1)[0], seed)  # a preset's series share one world
        assert env.centrality == reference_betweenness(env.graph)

    @pytest.mark.parametrize("n", [60, 150, 300])
    def test_matches_reference_on_rgg(self, n):
        g = gen_rgg(n, default_rgg_radius(n), n)
        assert betweenness(g) == reference_betweenness(g)

    @pytest.mark.parametrize("n", [60, 150, 300])
    def test_close_to_networkx(self, n):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(n)
        graphs = [gen_rgg(n, default_rgg_radius(n), 4)]
        graphs += [random_connected_graph(int(rng.integers(8, 60)), 0.25, rng) for _ in range(5)]
        for g in graphs:
            nx_graph = nx.Graph()
            nx_graph.add_nodes_from(range(g.node_count))
            nx_graph.add_edges_from(g.edges())
            expected = nx.betweenness_centrality(nx_graph, normalized=False)
            assert betweenness(g).raw == pytest.approx(
                [expected[v] for v in range(g.node_count)], rel=1e-9, abs=0.0
            )

    def test_normalization_preserves_argmax_and_order(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(10, 0.4, rng)
        c = betweenness(g)
        raw = np.array(c.raw)
        norm = np.array(c.normalized)
        assert raw.argmax() == norm.argmax()
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(norm[order]) >= 0)


class TestNextHop:
    def test_unique_path(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert next_hop_toward(g, 0, 2) == 1

    def test_adjacent_target(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert next_hop_toward(g, 1, 2) == 2

    def test_tie_breaks_to_lowest_id(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert next_hop_toward(g, 0, 2) == 1

    def test_same_node_rejected(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ConfigError):
            next_hop_toward(g, 1, 1)


class TestSerialization:
    def test_caveman_roundtrip(self):
        g = gen_connected_caveman(4, 17, 5)
        assert graph_from_json(graph_to_json(g)) == g

    def test_rgg_roundtrip(self):
        g = gen_rgg(30, 0.3, 2)
        g2 = graph_from_json(graph_to_json(g))
        assert g2.adjacency == g.adjacency
        assert g2.positions == g.positions

    def test_edges_listed_once_ascending(self):
        g = gen_connected_caveman(3, 9, 0)
        doc = json.loads(graph_to_json(g))
        assert all(i < j for i, j in doc["edges"])
        assert len(doc["edges"]) == len(set(map(tuple, doc["edges"])))
