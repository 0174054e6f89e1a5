"""Multi-walker interactions: attraction, pursuit, collisions, rendezvous.

Walker pairs build up attraction the longer they go without aggregating;
a successful draw puts both into mutual shortest-path pursuit until they
meet, aggregate, and briefly lose attraction. Scheduled rendezvous and the
per-jump uplink baseline reuse the same group-average collision.

A SwarmState is owned by exactly one simulation loop. Operations update it
and its walkers in place and return only what they produce: events or
aggregation weights.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .learner import weighted_average
from .policy import MH, TransitionPolicy
from .topology import Graph, shortest_path_distances  # noqa: F401 (unused; perfbench's tracer checks it)
from .walker import WalkerState

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AttractionSpec:
    """Pairwise attraction between walkers.

    With base_coeff 0 no pair ever triggers, and an enabled block leaves the
    walkers independent: simulate runs no clocks, draws or collisions.
    """

    enabled: bool = False
    strength: float = 0.1  # exponent rate on the time since the pair last aggregated
    base_coeff: float = 0.05  # trigger probability floor right after a collision
    cooldown_max: int = 5  # jumps a freshly collided pair stays inert

    def __post_init__(self):
        if self.strength < 0:
            raise ConfigError("attraction strength must be non-negative")
        if not 0.0 <= self.base_coeff <= 1.0:
            raise ConfigError("base_coeff must lie in [0, 1]")
        if self.cooldown_max < 0:
            raise ConfigError("cooldown_max must be non-negative")


@dataclass
class SwarmState:
    walkers: list[WalkerState]
    since_collision: np.ndarray  # symmetric, zero diagonal
    cooldown: np.ndarray  # symmetric, remaining no-attraction jumps
    pursuit: list[int | None] = field(default_factory=list)  # partner walker id
    homing: list[int | None] = field(default_factory=list)  # node to return to

    @property
    def size(self) -> int:
        return len(self.walkers)


def new_swarm(walkers: list[WalkerState]) -> SwarmState:
    n = len(walkers)
    return SwarmState(
        walkers=list(walkers),
        since_collision=np.zeros((n, n), dtype=np.int64),
        cooldown=np.zeros((n, n), dtype=np.int64),
        pursuit=[None] * n,
        homing=[None] * n,
    )


def attraction_probability(elapsed: int, cfg: AttractionSpec) -> float:
    """min(1, base_coeff * exp(strength * elapsed)); grows with both knobs."""
    if elapsed < 0:
        raise ConfigError("elapsed time must be non-negative")
    exponent = cfg.strength * elapsed
    if cfg.base_coeff > 0.0 and exponent > 50.0:  # exp would overflow well past the cap
        return 1.0
    return min(1.0, cfg.base_coeff * math.exp(exponent))


def tick_attraction(s: SwarmState, cfg: AttractionSpec, rng: np.random.Generator) -> list[dict]:
    """Advance the pair clocks and draw pursuit triggers for idle pairs."""
    n = s.size
    off_diag = ~np.eye(n, dtype=bool)
    s.since_collision[off_diag] += 1
    np.maximum(s.cooldown - 1, 0, out=s.cooldown)
    events: list[dict] = []
    if cfg.base_coeff == 0.0:  # no pair can trigger, and exp() of a long clock could overflow
        return events
    for r in range(n):
        for q in range(r + 1, n):
            if s.pursuit[r] is not None or s.pursuit[q] is not None:
                continue
            if s.homing[r] is not None or s.homing[q] is not None:
                continue
            if s.cooldown[r, q] > 0:
                continue
            p = attraction_probability(int(s.since_collision[r, q]), cfg)
            if p > 0.0 and rng.random() < p:
                s.pursuit[r] = q
                s.pursuit[q] = r
                events.append({"kind": "pursuit_start", "walkers": [r, q]})
    return events


def steer_target(s: SwarmState, walker_id: int) -> int | None:
    """Node this walker is steering toward, or None for policy sampling."""
    partner = s.pursuit[walker_id]
    if partner is not None:
        return s.walkers[partner].position
    return s.homing[walker_id]


def collide(s: SwarmState, group: list[int], memory_enabled: bool = False) -> list[int]:
    """Replace every group member's model with their sample-weighted average.

    Weights are samples seen since the member's last aggregation, plus one
    so that freshly spawned walkers still count. Pair clocks reset and the
    cooldown starts for every pair inside the group. Returns the weights.
    """
    if len(group) < 2:
        return []
    weights = [s.walkers[r].samples_since_agg + 1 for r in group]
    merged = weighted_average([s.walkers[r].im for r in group], weights)
    for r in group:
        w = s.walkers[r]
        w.im = merged
        if memory_enabled:
            w.sm = merged
        w.samples_since_agg = 0
    for i, r in enumerate(group):
        for q in group[i + 1:]:
            s.since_collision[r, q] = s.since_collision[q, r] = 0
            s.cooldown[r, q] = s.cooldown[q, r] = 0
    return weights


def start_cooldown(s: SwarmState, group: list[int], cooldown_max: int) -> None:
    for i, r in enumerate(group):
        for q in group[i + 1:]:
            s.cooldown[r, q] = s.cooldown[q, r] = cooldown_max


def end_pursuits(s: SwarmState, group: list[int]) -> list[dict]:
    """Cancel any pursuit touching a group member (both partners released)."""
    events = []
    for r in group:
        partner = s.pursuit[r]
        if partner is not None:
            s.pursuit[r] = None
            s.pursuit[partner] = None
            events.append({"kind": "pursuit_end", "walkers": sorted([r, partner])})
    return events


def colocated_groups(s: SwarmState) -> list[list[int]]:
    """Walker indices grouped by shared node, smallest node first; singletons dropped."""
    by_node: dict[int, list[int]] = {}
    for idx, w in enumerate(s.walkers):
        by_node.setdefault(w.position, []).append(idx)
    return [sorted(idxs) for node, idxs in sorted(by_node.items()) if len(idxs) > 1]


def rendezvous_tick(s: SwarmState, every_k: int, node: int, memory_enabled: bool = False) -> list[int]:
    """Relocate every walker to the meeting node and apply one group average."""
    if every_k < 1:
        raise ConfigError("rendezvous period must be positive")
    if s.walkers and s.walkers[0].jumps % every_k != 0:
        raise ConfigError("rendezvous called off-schedule")
    for w in s.walkers:
        w.position = node
    return collide(s, list(range(s.size)), memory_enabled)


def uplink_aggregate(s: SwarmState, memory_enabled: bool = False) -> list[int]:
    """Group-average all walkers in place, without relocation."""
    return collide(s, list(range(s.size)), memory_enabled)


def nearest_clique_node(g: Graph, from_node: int, clique: int) -> int:
    """Closest member of the clique (lowest id on ties)."""
    members = g.clique_members(clique)
    if g.clique_of is not None and g.clique_of[from_node] == clique:
        return from_node
    dist = g.distances[from_node]
    return min(members, key=lambda m: (dist[m], m))


def clique_confined_policy(g: Graph, base: TransitionPolicy) -> TransitionPolicy:
    """Restrict every row to same-clique neighbors so walks stay inside cliques.

    Each row keeps the neighbors in its own node's clique, renormalized, so
    no row depends on a walker and one confined policy serves the whole
    swarm: sampling never leaves the clique a walker is in. Pursuit and
    homing steering bypass the policy; a walker left outside its home clique
    without homing, as after a rendezvous, walks the clique it is in.
    """
    if g.clique_of is None:
        raise ConfigError("confinement requires a graph with cliques")
    if base.kind == MH:
        raise ConfigError("confinement does not support rows with lazy self-loops")
    targets: dict[int, np.ndarray] = {}
    probs: dict[int, np.ndarray] = {}
    for i in base.nodes():
        t, p = base.row(i)
        keep = np.array([g.clique_of[int(j)] == g.clique_of[i] for j in t], dtype=bool)
        if not keep.any():
            raise ConfigError(f"node {i} has no neighbor inside its clique")
        t2 = t[keep]
        p2 = p[keep]
        total = p2.sum()
        if total <= 0.0:
            logger.warning("node %d confined row had zero mass; using uniform", i)
            p2 = np.full(t2.size, 1.0 / t2.size)
        else:
            p2 = p2 / total
        targets[i] = t2
        probs[i] = p2
    return TransitionPolicy(kind=base.kind, targets=targets, probs=probs)
