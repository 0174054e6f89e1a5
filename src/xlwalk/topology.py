"""Network graphs the walkers move on.

Provides two generators (connected caveman and random geometric graph),
exact, order-independent betweenness centrality computed on integers, and a
shortest-path steering primitive. Graphs are immutable once built; node ids
are consecutive integers starting at 0 and every adjacency list is sorted
ascending. `Graph.csr` views the lists as two flat read-only arrays, from
which the transition tables are built.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GenerationError


@dataclass(frozen=True)
class Graph:
    """Undirected, connected graph with optional geometry or clique labels."""

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    positions: tuple[tuple[float, float], ...] | None = None
    clique_of: tuple[int, ...] | None = None

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def edges(self) -> list[tuple[int, int]]:
        """All edges, each listed once with i < j."""
        return [(i, j) for i in range(self.node_count) for j in self.adjacency[i] if i < j]

    @property
    def n_cliques(self) -> int:
        if self.clique_of is None:
            raise ConfigError("graph has no clique structure")
        return max(self.clique_of) + 1

    def clique_members(self, clique: int) -> list[int]:
        if self.clique_of is None:
            raise ConfigError("graph has no clique structure")
        return [i for i, c in enumerate(self.clique_of) if c == clique]

    @functools.cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as read-only (indptr, targets), built on first use: node i's
        neighbors, ascending, are targets[indptr[i]:indptr[i + 1]]."""
        indptr = np.cumsum([0, *map(len, self.adjacency)], dtype=np.int64)
        targets = np.fromiter(itertools.chain.from_iterable(self.adjacency), np.int64, indptr[-1])
        indptr.flags.writeable = targets.flags.writeable = False
        return indptr, targets

    @functools.cached_property
    def distances(self) -> tuple[list[int], ...]:
        """All-pairs hop distances (-1 if unreachable), one BFS per node, built on first use."""
        return tuple(shortest_path_distances(self, s) for s in range(self.node_count))


@dataclass(frozen=True)
class Centrality:
    """Betweenness values, raw and rescaled so the maximum is 1."""

    raw: tuple[float, ...]
    normalized: tuple[float, ...]


def _build_graph(n: int, edges: Iterable[tuple[int, int]], positions=None, clique_of=None) -> Graph:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return Graph(
        node_count=n,
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
        positions=positions,
        clique_of=clique_of,
    )


def is_connected(g: Graph) -> bool:
    return len(_bfs_shortest_paths(g, 0)[3]) == g.node_count


def _adjacency_connected(adjacent: np.ndarray) -> bool:
    """Whether a boolean adjacency matrix is connected: frontier expansion from node 0."""
    reached = frontier = np.arange(len(adjacent)) == 0
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())


def check_caveman(n_cliques: int, n_nodes: int) -> None:
    if n_cliques < 1 or n_nodes < 2 * n_cliques:
        raise ConfigError(
            f"need n_nodes >= 2 * n_cliques, got {n_nodes} nodes for {n_cliques} cliques"
        )


def gen_connected_caveman(n_cliques: int, n_nodes: int, seed: int) -> Graph:
    """Ring of cliques: per clique one internal edge is rewired to the next clique.

    Clique sizes differ by at most one. The seed picks which node of the next
    clique each rewired edge attaches to; everything else is deterministic.
    A single clique yields the complete graph (no rewiring partner).
    """
    check_caveman(n_cliques, n_nodes)
    rng = np.random.default_rng(np.random.SeedSequence([0x10, seed]))
    base, extra = divmod(n_nodes, n_cliques)
    sizes = [base + 1 if k < extra else base for k in range(n_cliques)]
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    clique_of = [0] * n_nodes
    edge_set: set[tuple[int, int]] = set()
    for k, (off, size) in enumerate(zip(offsets, sizes)):
        for a in range(off, off + size):
            clique_of[a] = k
            for b in range(a + 1, off + size):
                edge_set.add((a, b))
    if n_cliques > 1:
        for k in range(n_cliques):
            first = offsets[k]
            # Removing the lone edge of a 2-clique would disconnect it.
            if sizes[k] >= 3:
                edge_set.discard((first, first + 1))
            nxt = (k + 1) % n_cliques
            attach = offsets[nxt] + int(rng.integers(sizes[nxt]))
            edge_set.add((min(first, attach), max(first, attach)))
    g = _build_graph(n_nodes, edge_set, clique_of=tuple(clique_of))
    assert is_connected(g)
    return g


def rgg_radius_for_degree(n_nodes: int, expected_degree: float = 6.0) -> float:
    """Connection radius giving roughly the requested mean degree in the unit square."""
    return math.sqrt(expected_degree / (math.pi * n_nodes))


def default_rgg_radius(n_nodes: int) -> float:
    """Radius targeting mean degree 6, raised for large graphs where that
    would sit below the connectivity threshold (~log n expected degree)."""
    return rgg_radius_for_degree(n_nodes, max(6.0, math.log(n_nodes) + 2.0))


def check_rgg(n_nodes: int, radius: float | None, max_retries: int) -> None:
    if n_nodes < 2:
        raise ConfigError(f"need at least 2 nodes, got {n_nodes}")
    if radius is not None and radius <= 0.0:  # None stands for the default radius
        raise ConfigError(f"radius must be positive, got {radius}")
    if max_retries < 1:
        raise ConfigError("max_retries must be positive")


def gen_rgg(n_nodes: int, radius: float, seed: int, max_retries: int = 100) -> Graph:
    """Random geometric graph in the unit square; resamples until connected.

    Radii of sqrt(2) or more trivially connect everything. Connectivity is
    tested on the within-radius matrix: only the accepted draw becomes a `Graph`.
    """
    check_rgg(n_nodes, radius, max_retries)
    rng = np.random.default_rng(np.random.SeedSequence([0x11, seed]))
    r2 = radius * radius
    for _ in range(max_retries):
        pos = rng.random((n_nodes, 2))
        dx, dy = (c[:, None] - c for c in pos.T)  # each an (n, n) table of coordinate differences
        within = np.square(dx, out=dx) + np.square(dy, out=dy) <= r2  # the bits of summing squared differences
        np.fill_diagonal(within, False)
        if _adjacency_connected(within):
            cols = np.nonzero(within)[1].tolist()  # row by row, each row ascending
            ends = np.cumsum(np.count_nonzero(within, axis=1)).tolist()
            adjacency = tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))
            return Graph(node_count=n_nodes, adjacency=adjacency, positions=tuple(map(tuple, pos.tolist())))
    raise GenerationError(
        f"no connected geometric graph with radius {radius} in {max_retries} attempts"
    )


def _bfs_shortest_paths(g: Graph, source: int):
    """Distances, path counts, and predecessor lists for one BFS source.

    `order` lists the reached nodes by nondecreasing distance; it doubles as
    the BFS queue, so each node is expanded after all its predecessors.
    """
    dist = [-1] * g.node_count
    sigma = [0] * g.node_count
    preds: list[list[int]] = [[] for _ in range(g.node_count)]
    dist[source] = 0
    sigma[source] = 1
    order = [source]
    for v in order:
        d_next = dist[v] + 1
        sigma_v = sigma[v]
        for w in g.adjacency[v]:
            d_w = dist[w]
            if d_w < 0:
                dist[w] = d_w = d_next
                order.append(w)
            if d_w == d_next:
                sigma[w] += sigma_v
                preds[w].append(v)
    return dist, sigma, preds, order


def betweenness(g: Graph) -> Centrality:
    """Brandes betweenness over unordered node pairs: exact, order-independent.

    Runs on Python integers. For source s let L be the lcm of the path counts
    sigma; D[w] = L * delta[w] is then an integer, and Brandes' update
    delta[v] += sigma[v] / sigma[w] * (1 + delta[w]) becomes
    D[v] += sigma[v] * ((L + D[w]) // sigma[w]). The division is exact:
    L * (1 + delta[w]) / sigma[w] is a sum of terms L * sigma_wt / sigma_st.
    Sources are summed over the common denominator C, the lcm of their L, and
    each total is divided by 2C once. int/int division rounds correctly, so
    each value is its exact rational rounded once, the same to the last bit
    in any summation order.
    """
    acc = [0] * g.node_count  # sum over ordered pairs, times denom
    denom = 1
    for s in range(g.node_count):
        _, sigma, preds, order = _bfs_shortest_paths(g, s)
        lcm = math.lcm(*[sigma[w] for w in order])
        dep = [0] * g.node_count
        for w in reversed(order):
            coeff = (lcm + dep[w]) // sigma[w]
            for v in preds[w]:
                dep[v] += sigma[v] * coeff
        if denom % lcm:
            grown = math.lcm(denom, lcm)
            acc = [a * (grown // denom) for a in acc]
            denom = grown
        scale = denom // lcm
        for w in order:
            if w != s:
                acc[w] += dep[w] * scale
    raw = tuple(a / (2 * denom) for a in acc)  # each unordered pair was visited twice
    top = max(raw)
    if top > 0.0:
        normalized = tuple(v / top for v in raw)
    else:
        normalized = raw
    return Centrality(raw=raw, normalized=normalized)


def shortest_path_distances(g: Graph, source: int) -> list[int]:
    dist, _, _, _ = _bfs_shortest_paths(g, source)
    return dist


def next_hop_toward(g: Graph, from_node: int, to_node: int) -> int:
    """Neighbor of `from_node` on a shortest path to `to_node`, lowest id on ties."""
    if from_node == to_node:
        raise ConfigError("next hop undefined for identical endpoints")
    dist = g.distances[to_node]
    if dist[from_node] < 0:
        raise RuntimeError(f"node {to_node} unreachable from {from_node}")
    for nb in g.adjacency[from_node]:  # sorted ascending: first hit is lowest id
        if dist[nb] == dist[from_node] - 1:
            return nb
    raise RuntimeError("no neighbor decreases distance on a connected graph")


def graph_to_json(g: Graph) -> str:
    doc: dict = {"n": g.node_count, "edges": [[i, j] for i, j in g.edges()]}
    if g.positions is not None:
        doc["positions"] = [[x, y] for x, y in g.positions]
    if g.clique_of is not None:
        doc["cliques"] = list(g.clique_of)
    return json.dumps(doc)

