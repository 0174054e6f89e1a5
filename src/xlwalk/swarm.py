"""Multi-walker interactions: attraction, pursuit, collisions, rendezvous.

Walker pairs build up attraction the longer they go without aggregating;
a successful draw puts both into mutual shortest-path pursuit until they
meet, aggregate, and briefly lose attraction. Scheduled rendezvous and the
per-jump uplink baseline reuse the same group-average collision.

A SwarmState is owned by exactly one simulation loop. Its pair state is two
jump stamps that only `collide` writes; every rule that depends on time reads
them against the run's jump `t`. Operations update the state and its walkers
in place and return only what they produce: aggregation weights or the
walker index pairs whose pursuit started or ended.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .learner import weighted_average
from .policy import MH, TransitionPolicy, confined_transition
from .topology import Graph, shortest_path_distances  # noqa: F401 (unused; perfbench's tracer checks it)
from .walker import WalkerState


@dataclass(frozen=True)
class AttractionSpec:
    """Pairwise attraction between walkers.

    With base_coeff 0 no pair ever triggers, and an enabled block leaves the
    walkers independent: simulate makes no draws and no collisions.
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
    met_at: np.ndarray  # symmetric: jump of the pair's last aggregation, 0 before any
    inert_until: np.ndarray  # symmetric: first jump at which the pair is no longer inert
    pursuit: list[int | None] = field(default_factory=list)  # partner walker index
    homing: list[int | None] = field(default_factory=list)  # node to return to

    @property
    def size(self) -> int:
        return len(self.walkers)


def new_swarm(walkers: list[WalkerState]) -> SwarmState:
    n = len(walkers)
    return SwarmState(
        walkers=list(walkers),
        met_at=np.zeros((n, n), dtype=np.int64),
        inert_until=np.zeros((n, n), dtype=np.int64),
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


def tick_attraction(
    s: SwarmState, cfg: AttractionSpec, rng: np.random.Generator, t: int
) -> list[tuple[int, int]]:
    """Draw pursuit triggers at jump t for idle pairs no longer inert; return the pairs started."""
    started: list[tuple[int, int]] = []
    if cfg.base_coeff == 0.0:  # no pair can trigger, and exp() of a long elapsed time could overflow
        return started
    for r in range(s.size):
        for q in range(r + 1, s.size):
            if s.pursuit[r] is not None or s.pursuit[q] is not None:
                continue
            if s.homing[r] is not None or s.homing[q] is not None:
                continue
            if t < s.inert_until[r, q]:
                continue
            p = attraction_probability(t - int(s.met_at[r, q]), cfg)
            if p > 0.0 and rng.random() < p:
                s.pursuit[r] = q
                s.pursuit[q] = r
                started.append((r, q))
    return started


def steer_target(s: SwarmState, walker_id: int) -> int | None:
    """Node this walker is steering toward, or None for policy sampling."""
    partner = s.pursuit[walker_id]
    if partner is not None:
        return s.walkers[partner].position
    return s.homing[walker_id]


def collide(s: SwarmState, group: list[int], t: int, cooldown: int = 0) -> list[int]:
    """Replace both models of every group member with their sample-weighted average at jump t.

    Weights are samples seen since the member's last aggregation, plus one
    so that freshly spawned walkers still count. Every pair in the group is
    stamped as met at t and inert until t + cooldown. Returns the weights.
    """
    if len(group) < 2:
        return []
    weights = [s.walkers[r].samples_since_agg + 1 for r in group]
    merged = weighted_average([s.walkers[r].im for r in group], weights)
    for r in group:
        w = s.walkers[r]
        w.im = w.sm = merged
        w.samples_since_agg = 0
    members = np.array(group)  # [members[:, None], members] is every pair in the group, plus the unread diagonal
    s.met_at[members[:, None], members] = t
    s.inert_until[members[:, None], members] = t + cooldown
    return weights


def end_pursuits(s: SwarmState, group: list[int]) -> list[tuple[int, int]]:
    """Cancel any pursuit touching a group member (both partners released); return the pairs, (min, max)."""
    ended = []
    for r in group:
        partner = s.pursuit[r]
        if partner is not None:
            s.pursuit[r] = None
            s.pursuit[partner] = None
            ended.append((min(r, partner), max(r, partner)))
    return ended


def colocated_groups(s: SwarmState) -> list[list[int]]:
    """Walker indices grouped by shared node, smallest node first; singletons dropped."""
    by_node: dict[int, list[int]] = {}
    for idx, w in enumerate(s.walkers):
        by_node.setdefault(w.position, []).append(idx)
    return [sorted(idxs) for node, idxs in sorted(by_node.items()) if len(idxs) > 1]


def rendezvous_tick(s: SwarmState, node: int, t: int) -> list[int]:
    """Relocate every walker to the meeting node and apply one group average at jump t."""
    for w in s.walkers:
        w.position = node
    return collide(s, list(range(s.size)), t)


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
    return confined_transition(g, base)
