import json
from collections import Counter, deque
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from xlwalk import topology
from xlwalk.errors import ConfigError, GenerationError
from xlwalk.experiment import build_environment, build_graph, simulate
from xlwalk.presets import PRESETS, preset_configs
from xlwalk.swarm import nearest_clique_node
from xlwalk.topology import (
    Centrality,
    Graph,
    betweenness,
    gen_connected_caveman,
    gen_rgg,
    graph_to_json,
    is_connected,
    next_hop_toward,
    default_rgg_radius,
    shortest_path_distances,
)

from .readers import graph_from_json


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


def reference_gen_rgg(n_nodes, radius, seed, max_retries=100):
    """gen_rgg as first written: its edge set from a Python loop over every pair i < j."""
    rng = np.random.default_rng(np.random.SeedSequence([0x11, seed]))
    for _ in range(max_retries):
        pos = rng.random((n_nodes, 2))
        diff = pos[:, None, :] - pos[None, :, :]
        within = (diff ** 2).sum(axis=2) <= radius * radius
        edges = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes) if within[i, j]]
        g = replace(graph_from_edges(n_nodes, edges), positions=tuple((float(x), float(y)) for x, y in pos))
        if is_connected(g):
            return g
    return None


class TestRgg:
    @pytest.mark.parametrize("n", [2, 5, 40, 100, 150, 300])
    def test_equals_the_pairwise_loop(self, n):
        for seed in range(5):
            want = reference_gen_rgg(n, default_rgg_radius(n), seed)
            if want is None:
                with pytest.raises(GenerationError):
                    gen_rgg(n, default_rgg_radius(n), seed)
                continue
            g = gen_rgg(n, default_rgg_radius(n), seed)
            assert g == want
            assert all(type(j) is int for adj in g.adjacency for j in adj)

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


def reference_next_hops(g, to_node):
    """Every other node's next hop toward `to_node` by a fresh BFS from the target, lowest id on ties."""
    dist = shortest_path_distances(g, to_node)
    hops = {}
    for from_node in range(g.node_count):
        if from_node != to_node:
            hops[from_node] = next(nb for nb in g.adjacency[from_node] if dist[nb] == dist[from_node] - 1)
    return hops


def reference_nearest_clique_nodes(g, from_node):
    """Per clique, its member closest to `from_node` by a fresh BFS, lowest id on ties."""
    dist = shortest_path_distances(g, from_node)
    nearest = {}
    for clique in range(g.n_cliques):
        if g.clique_of[from_node] == clique:
            nearest[clique] = from_node
        else:
            nearest[clique] = min(g.clique_members(clique), key=lambda m: (dist[m], m))
    return nearest


def preset_worlds(names, seeds):
    return [pytest.param(build_graph(preset_configs(name, 1)[0].graph, seed), id=f"{name}-seed{seed}")
            for name in names for seed in seeds]


class TestDistanceTable:
    """Steering reads one lazily built all-pairs table and agrees with a BFS per query."""

    CLIQUE_WORLDS = preset_worlds(["fig5", "fig6"], range(3)) + [
        pytest.param(gen_connected_caveman(k, n, seed), id=f"caveman-{k}-{n}-{seed}")
        for k, n, seed in [(1, 5, 0), (2, 4, 1), (3, 10, 2), (5, 23, 3), (7, 40, 4), (12, 60, 5)]
    ]
    WORLDS = CLIQUE_WORLDS + preset_worlds(["fig4"], range(3)) + [
        pytest.param(gen_rgg(n, default_rgg_radius(n), seed), id=f"rgg-{n}-{seed}")
        for n, seed in [(2, 0), (9, 1), (30, 2), (80, 3)]
    ]

    @pytest.mark.parametrize("g", WORLDS)
    def test_next_hop_equals_bfs(self, g):
        for to_node in range(g.node_count):
            expected = reference_next_hops(g, to_node)
            assert {f: next_hop_toward(g, f, to_node) for f in expected} == expected

    @pytest.mark.parametrize("g", CLIQUE_WORLDS)
    def test_nearest_clique_node_equals_bfs(self, g):
        for from_node in range(g.node_count):
            expected = reference_nearest_clique_nodes(g, from_node)
            assert {c: nearest_clique_node(g, from_node, c) for c in expected} == expected

    def test_unreachable_target_still_raises(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(RuntimeError):
            next_hop_toward(g, 0, 3)

    def test_built_once_from_one_bfs_per_node(self, monkeypatch):
        cfg = replace(preset_configs("fig6", 1)[2], jumps=40)  # strongest attraction: pursuits within 40 jumps
        env = build_environment(cfg, 0)
        sources = []
        bfs = topology.shortest_path_distances

        def counted(g, source):
            sources.append(source)
            return bfs(g, source)

        monkeypatch.setattr(topology, "shortest_path_distances", counted)
        res = simulate(env, [(cfg, 0)])[0]
        assert any(ev["kind"] == "pursuit_start" for ev in res.events)
        assert sources == list(range(env.graph.node_count))

    def test_worlds_that_never_steer_never_build_it(self):
        cfg = replace(preset_configs("fig4", 1)[0], jumps=20)
        env = build_environment(cfg, 0)
        simulate(env, [(cfg, 0)])
        assert "distances" not in vars(env.graph)


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
