"""Configure, run, and record complete walker simulations.

A run is fully determined by (config, seed). Every random stream is derived
from the run seed with a distinct domain tag, and each walker draws from its
own sub-stream seeded by `seed XOR walker_id`, so walkers that never
interact are bit-identical to the same walkers run alone. Outputs carry no
wall-clock or machine state: identical inputs give identical bytes. Runs on
one world share its build, and only importance runs compute its betweenness.

`simulate` runs a batch of cells that share one world. It starts a `Run`
record per cell, scores each at jump 0, and then advances them together,
jump after jump, through the functions of `PHASES`, in this fixed order:
`attract` (pursuit triggers), `move` (ascending walker id), `train` (local
SGD), `merge_memory`, `collisions` (co-location, then rendezvous, then
uplink) and `score` (validation scores, written into the visit events, and
the dynamic perception refresh). Each phase runs over every live run before
the next begins, and the `train` phases of a jump share one
`learner.lockstep` block, so the batch's walkers train as one stack. Each
phase reads the jump `t`, the run's one clock; a run leaves the batch after
its last jump. The rendezvous schedule and the event format live in this
module alone. The events are the one record of a run: `_replay` derives from
them its metric rows after jump 0 and its collisions.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import logging
import os
import sys
import types
import typing
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from . import datahub, policy, swarm, topology, walker
from .errors import ConfigError
from .learner import LearnerSpec, evaluate, init_model, lockstep
from .policy import (
    IMPORTANCE_DYNAMIC,
    IMPORTANCE_STATIC,
    MH,
    ElasticSpec,
    PolicySpec,
    TransitionPolicy,
)
from .swarm import AttractionSpec
from .walker import MemorySpec

logger = logging.getLogger(__name__)

_WALKER_TAG = 0x40
_INTERACTION_TAG = 0x41


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class GraphSpec:
    kind: str = "caveman"  # caveman | rgg
    nodes: int = 50
    cliques: int = 8
    radius: float | None = None  # rgg only; None picks the mean-degree-6 radius
    max_retries: int = 100

    def __post_init__(self):
        if self.kind == "caveman":
            topology.check_caveman(self.cliques, self.nodes)
        elif self.kind == "rgg":
            topology.check_rgg(self.nodes, self.radius, self.max_retries)
        else:
            raise ConfigError(f"unknown graph kind {self.kind!r}")


@dataclass(frozen=True)
class DataSpec:
    classes: int = 10
    dims: int = 32
    per_class: int = 500
    val_frac: float = 0.2
    sep: float = 3.0

    def __post_init__(self):
        datahub.check_dataset(self.classes, self.dims, self.per_class, self.val_frac, self.sep)


@dataclass(frozen=True)
class PartitionSpec:
    kind: str = "label_skew"  # label_skew | clique_dominant
    skew_frac: float = 0.98
    labels_lo: int = 1
    labels_hi: int = 2
    dominance: float = 1.0

    def __post_init__(self):
        if self.kind not in ("label_skew", "clique_dominant"):
            raise ConfigError(f"unknown partition kind {self.kind!r}")


@dataclass(frozen=True)
class RendezvousSpec:
    enabled: bool = False
    every: int = 10
    node: int = 0

    def __post_init__(self):
        if self.every < 1:
            raise ConfigError("rendezvous every must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the world, the walkers and their budget.

    Each block is a spec that checks its own fields when built, enabled or
    not, and building the config checks the rest and the rules that span
    blocks: a config that exists is valid.
    """

    name: str = "run"
    series: str = ""  # label used to group runs in summaries; defaults to name
    graph: GraphSpec = field(default_factory=GraphSpec)
    data: DataSpec = field(default_factory=DataSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    elastic: ElasticSpec = field(default_factory=ElasticSpec)
    iters_per_visit: int = 5
    walkers: int = 1
    start: str = "random"  # random | per_clique
    memory: MemorySpec = field(default_factory=MemorySpec)
    attraction: AttractionSpec = field(default_factory=AttractionSpec)
    rendezvous: RendezvousSpec = field(default_factory=RendezvousSpec)
    confine_cliques: bool = False
    uplink: bool = False
    jumps: int = 400
    eval_every: int = 1
    seeds: tuple[int, ...] = (0,)

    @property
    def series_label(self) -> str:
        return self.series or self.name

    def __post_init__(self):
        for count in ("jumps", "walkers", "eval_every", "iters_per_visit"):
            if getattr(self, count) < 1:
                raise ConfigError(f"{count} must be at least 1")
        if len(set(self.seeds)) < len(self.seeds):  # a repeated seed would repeat a run
            raise ConfigError(f"seeds must not repeat, got {list(self.seeds)}")
        if any(seed < 0 for seed in self.seeds):  # every random stream is seeded by a SeedSequence
            raise ConfigError(f"seeds must be non-negative, got {list(self.seeds)}")
        needs_cliques = (
            self.partition.kind == "clique_dominant"
            or self.confine_cliques
            or self.start == "per_clique"
        )
        if needs_cliques and self.graph.kind != "caveman":
            raise ConfigError("clique-based options require a caveman graph")
        if self.start not in ("random", "per_clique"):
            raise ConfigError(f"unknown start mode {self.start!r}")
        if self.confine_cliques and self.policy.kind == MH:
            raise ConfigError("confinement does not support rows with lazy self-loops (policy kind mh)")
        part = self.partition  # its partitioner's own checks, which need the class and clique counts
        if part.kind == "label_skew":
            datahub.check_label_skew(part.skew_frac, part.labels_lo, part.labels_hi, self.data.classes)
        else:
            datahub.check_clique_dominant(part.dominance, self.graph.cliques, self.data.classes)
        if not 0 <= self.rendezvous.node < self.graph.nodes:  # both generators build exactly that many
            raise ConfigError(f"rendezvous node {self.rendezvous.node} is not in the {self.graph.nodes}-node graph")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["memory"]["schedule"] = [list(stage) for stage in self.memory.schedule]
        doc["seeds"] = list(self.seeds)
        return doc


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _typed(value, tp, name: str):
    """`value` checked against the field type `tp`, with JSON lists made tuples."""
    if is_dataclass(tp):
        return _from_dict(tp, value, name)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:  # `T | None`
        if value is None:
            return None
        (tp,) = [arg for arg in args if arg is not type(None)]
        return _typed(value, tp, name)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{name} must have {len(args)} entries, got {value!r}")
        return tuple(_typed(v, t, f"{name}[{i}]") for i, (v, t) in enumerate(zip(value, args)))
    # bool is an int subclass, and JSON integers are valid numbers
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (tp is not bool and isinstance(value, bool)):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[tp]}, got {value!r}")
    if tp is float and not abs(value) <= sys.float_info.max:  # NaN, ±Infinity or an integer past any double
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _from_dict(cls, doc, name: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be an object, got {doc!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {name} option(s): {sorted(unknown)}")
    return cls(**{key: _typed(value, hints[key], f"{name}.{key}") for key, value in doc.items()})


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Load a config from its JSON form: every field type-checked, absent ones defaulted."""
    return _from_dict(ExperimentConfig, doc, "config")


def set_config_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """Return a copy with one (possibly dotted) config field replaced."""
    doc = cfg.to_dict()
    *parents, leaf = axis.split(".")
    node = doc
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config axis {axis!r}")
    node[leaf] = value
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Environment and run records


@dataclass(eq=False)  # identity semantics: field-wise == is ambiguous on arrays
class Environment:
    """One world's graph and data; its betweenness is computed on first read, by importance runs only."""

    graph: topology.Graph
    partition: datahub.Partition
    node_features: list[np.ndarray]
    node_labels: list[np.ndarray]
    val_features: np.ndarray
    val_labels: np.ndarray
    key: tuple  # the world key (graph, data, partition, seed) it was built from

    @functools.cached_property
    def centrality(self) -> topology.Centrality:  # exact Brandes, once per world
        return topology.betweenness(self.graph)


def build_graph(gspec: GraphSpec, seed: int) -> topology.Graph:
    """The caveman or random-geometric graph a spec describes, at one seed."""
    if gspec.kind == "caveman":
        return topology.gen_connected_caveman(gspec.cliques, gspec.nodes, seed)
    radius = topology.default_rgg_radius(gspec.nodes) if gspec.radius is None else gspec.radius
    return topology.gen_rgg(gspec.nodes, radius, seed, gspec.max_retries)


def build_environment(cfg: ExperimentConfig, seed: int) -> Environment:
    g = build_graph(cfg.graph, seed)
    ds = datahub.gen_synthetic(
        cfg.data.classes, cfg.data.dims, cfg.data.per_class, cfg.data.val_frac, cfg.data.sep, seed
    )
    pspec = cfg.partition
    if pspec.kind == "label_skew":
        part = datahub.partition_label_skew(
            ds, g, pspec.skew_frac, pspec.labels_lo, pspec.labels_hi, seed
        )
    else:
        part = datahub.partition_clique_dominant(ds, g, pspec.dominance, seed)
    held = np.concatenate(part.assignment)  # one gather in node order; each node's arrays are slices of it
    features, labels = ds.features[held], ds.labels[held]
    val_features, val_labels = ds.features[ds.val_indices], ds.labels[ds.val_indices]
    for arr in (features, labels, val_features, val_labels):  # the cells of a world share them
        arr.flags.writeable = False
    ends = np.cumsum([len(ix) for ix in part.assignment]).tolist()
    return Environment(
        graph=g,
        partition=part,
        node_features=[features[a:b] for a, b in zip([0] + ends, ends)],
        node_labels=[labels[a:b] for a, b in zip([0] + ends, ends)],
        val_features=val_features,
        val_labels=val_labels,
        key=_world_key(cfg, seed),
    )


@dataclass
class MetricsRecord:
    series: str
    seed: int
    walker_ids: list[int]
    rows: list[tuple]  # (t, walker_id, loss, accuracy, cum_iters)
    collision_count: int
    collision_intervals: list[int]
    final_accuracy: float


@dataclass
class RunResult:
    run_id: str
    events: list[dict]
    metrics: MetricsRecord


def walker_rng(seed: int, walker_id: int) -> np.random.Generator:
    """Per-walker stream: domain-tagged SeedSequence over seed XOR walker id."""
    return np.random.default_rng(np.random.SeedSequence([_WALKER_TAG, seed ^ walker_id]))


def interaction_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([_INTERACTION_TAG, seed]))


def _initial_walkers(env: Environment, cfg: ExperimentConfig, seed: int, walker_ids) -> list[walker.WalkerState]:
    """The walkers at jump 0, sharing the run's one table."""
    g, shared = env.graph, _base_policy(env, cfg)
    walkers = []
    for wid in walker_ids:
        rng = walker_rng(seed, wid)
        model_seed = int(rng.integers(2 ** 31))
        im = init_model(cfg.learner.arch, cfg.data.dims, cfg.data.classes, model_seed, cfg.learner.hidden)
        if cfg.start == "per_clique":
            members = g.clique_members(wid % g.n_cliques)
            pos = members[int(rng.integers(len(members)))]
        else:
            pos = int(rng.integers(g.node_count))
        home = g.clique_of[pos] if cfg.confine_cliques else None
        walkers.append(walker.WalkerState(id=wid, position=pos, im=im, sm=im, rng=rng, home_clique=home,
                                          policy=shared))
    return walkers


def _base_policy(env: Environment, cfg: ExperimentConfig) -> TransitionPolicy:
    """The run's transition rows, confined to cliques when the config asks. A dynamic run's
    are uniform, and give only the targets: a walker samples running sums of its own."""
    kind = cfg.policy.kind
    if kind == MH:
        pol = policy.mh_transition(env.graph)
    elif kind == IMPORTANCE_STATIC:
        imp = policy.importance_vector(
            env.partition.data_frac,
            env.partition.label_frac,
            np.array(env.centrality.normalized),
            cfg.policy.alpha,
            cfg.policy.normalize_terms,
        )
        pol = policy.build_transition(env.graph, imp, kind=IMPORTANCE_STATIC)
    else:
        pol = policy.uniform_transition(env.graph)
    return swarm.clique_confined_policy(env.graph, pol) if cfg.confine_cliques else pol


def _visit_budget(env: Environment, cfg: ExperimentConfig) -> list[int]:
    """SGD steps of one visit to each node: 0 on an empty node, else the elastic or fixed budget."""
    part = env.partition
    budget = []
    for node, labels in enumerate(env.node_labels):
        if labels.shape[0] == 0:
            budget.append(0)
        elif cfg.elastic.enabled:
            quality = policy.data_quality(
                float(part.data_frac[node]), float(part.label_frac[node]), cfg.elastic.tau2
            )
            budget.append(policy.elastic_iterations(quality, cfg.elastic))
        else:
            budget.append(cfg.iters_per_visit)
    return budget


@dataclass(eq=False)
class Run:
    """One run in progress: what every phase of a jump reads and writes."""

    cfg: ExperimentConfig
    env: Environment
    seed: int
    run_id: str
    swarm: swarm.SwarmState
    interactions_on: bool  # a zero trigger floor leaves walkers independent: no draws and no collisions
    rng_interaction: np.random.Generator
    budget: list[int]  # SGD steps of one visit, per node
    events: list[dict] = field(default_factory=list)
    first_rows: list[tuple] = field(default_factory=list)  # jump 0's metric rows, which no event holds
    visits: list[dict] = field(default_factory=list)  # this jump's visit events, in walker order

    def ids(self, group: Iterable[int]) -> list[int]:
        return [self.swarm.walkers[i].id for i in group]

    def log(self, t: int, kind: str, **fields) -> dict:
        """Log an event keyed run_id, t, kind, then fields, the order events.jsonl keeps; return it."""
        ev = {"run_id": self.run_id, "t": t, "kind": kind, **fields}
        self.events.append(ev)
        return ev

    def log_pursuits(self, t: int, kind: str, pairs: list[tuple[int, int]], **extra) -> None:
        """Log a pursuit_start or pursuit_end event per walker index pair, keyed kind, walkers,
        run_id, t, then extra: the order events.jsonl keeps."""
        for pair in pairs:
            self.events.append({"kind": kind, "walkers": self.ids(pair), "run_id": self.run_id, "t": t, **extra})

    def result(self) -> RunResult:
        rows, tally = _replay(self.events).get(self.run_id, ([], (0, [])))
        metrics = _metrics_record(self.cfg.series_label, self.seed, self.first_rows + rows, tally)
        return RunResult(run_id=self.run_id, events=self.events, metrics=metrics)


def attract(run: Run, t: int) -> None:
    """Draw pursuit triggers for idle pairs from the time since each pair last aggregated."""
    if run.interactions_on:
        started = swarm.tick_attraction(run.swarm, run.cfg.attraction, run.rng_interaction, t)
        run.log_pursuits(t, "pursuit_start", started)


def move(run: Run, t: int) -> None:
    """Move every walker, ascending walker id: by its policy, or steered by a pursuit or homing."""
    s, g = run.swarm, run.env.graph
    for idx, w in enumerate(s.walkers):
        target = swarm.steer_target(s, idx)
        if target is None:
            walker.step(w)
        elif target != w.position:
            w.position = topology.next_hop_toward(g, w.position, target)
        if s.homing[idx] is not None and g.clique_of[w.position] == w.home_clique:
            s.homing[idx] = None  # only a walker with a home clique is ever sent homing


def train(run: Run, t: int) -> None:
    """Train every walker on its node's samples and log the visit; `simulate` opens the lockstep block."""
    env = run.env
    run.visits = []
    for w in run.swarm.walkers:
        node = w.position
        iters = run.budget[node]
        walker.visit(w, env.node_features[node], env.node_labels[node], iters, run.cfg.learner)
        run.visits.append(run.log(t, "visit", walker_id=w.id, node=node, iters=iters))


def merge_memory(run: Run, t: int) -> None:
    """Blend each walker's stale model into its instantaneous one at this jump's weight."""
    if run.cfg.memory.enabled:
        beta = run.cfg.memory.beta_at(t)
        walkers = run.swarm.walkers
        for idx, w in enumerate(walkers):
            walkers[idx] = walker.memory_merge(w, beta)
            run.visits[idx]["beta"] = beta


def collisions(run: Run, t: int) -> None:
    """Average the models of walkers that meet: co-location, then rendezvous, then uplink."""
    s, g, cfg = run.swarm, run.env.graph, run.cfg
    everyone = list(range(s.size))
    if run.interactions_on:
        for group in swarm.colocated_groups(s):
            if all(t < s.inert_until[r, q] for i, r in enumerate(group) for q in group[i + 1:]):
                continue
            node = s.walkers[group[0]].position
            weights = swarm.collide(s, group, t, cfg.attraction.cooldown_max)
            run.log_pursuits(t, "pursuit_end", swarm.end_pursuits(s, group), node=node)
            for idx in group:
                home = s.walkers[idx].home_clique
                if home is not None and g.clique_of[node] != home:
                    s.homing[idx] = swarm.nearest_clique_node(g, node, home)
            run.log(t, "collide", trigger="colocation", walkers=run.ids(group), node=node, weights=weights)
    if cfg.rendezvous.enabled and t % cfg.rendezvous.every == 0:
        weights = swarm.rendezvous_tick(s, cfg.rendezvous.node, t)
        run.log_pursuits(t, "pursuit_end", swarm.end_pursuits(s, everyone), node=cfg.rendezvous.node)
        run.log(t, "rendezvous", walkers=run.ids(everyone), node=cfg.rendezvous.node, weights=weights)
    if cfg.uplink and s.size > 1:
        weights = swarm.collide(s, everyone, t)
        run.log(t, "collide", trigger="uplink", walkers=run.ids(everyone), node=None, weights=weights)


def score(run: Run, t: int) -> None:
    """Measure every walker's model; refresh dynamic rows; log the scores in the visits on evaluation jumps.

    Dynamic mode scores every jump, since its next rows depend on the
    accuracy; other modes score every eval_every jumps. Walkers that hold the
    same model object, as every member does after a collision until it trains
    again, share one evaluation; models are never written in place. A
    refresh computes only the row at each walker's position, which the
    walker keeps: the one row the next movement phase samples (nothing moves
    a walker in between).
    """
    cfg, env = run.cfg, run.env
    dynamic = cfg.policy.kind == IMPORTANCE_DYNAMIC
    logged = t % cfg.eval_every == 0
    if not (dynamic or logged):
        return
    scored: dict[int, tuple[float, float]] = {}  # id(model) -> (loss, acc)
    for idx, w in enumerate(run.swarm.walkers):
        if id(w.im) not in scored:
            scored[id(w.im)] = evaluate(w.im, env.val_features, env.val_labels)
        loss, acc = scored[id(w.im)]
        if dynamic:
            walker.perception_refresh(w, acc, cfg.policy, env.partition.data_frac, env.partition.label_frac,
                                      env.centrality.normalized, env.graph)
            run.visits[idx]["alpha_inst"] = w.alpha
        if logged:
            run.visits[idx].update(loss=loss, acc=acc)


PHASES = (attract, move, train, merge_memory, collisions, score)


def _start(env: Environment, cfg: ExperimentConfig, seed: int, walker_ids: Iterable[int] | None = None) -> Run:
    """A cell's run at jump 0, checked against the world and scored."""
    if env.key != _world_key(cfg, seed):
        raise ConfigError("the environment was built for another graph, data, partition or seed")
    ids = list(range(cfg.walkers)) if walker_ids is None else list(walker_ids)
    if not ids or ids != sorted(set(ids)) or ids[0] < 0 or ids[-1] >= cfg.walkers:
        raise ConfigError(f"walker_ids must be distinct ascending ids in range({cfg.walkers}), got {ids}")
    run = Run(
        cfg=cfg,
        env=env,
        seed=seed,
        run_id=f"{cfg.series_label}:{seed}",
        swarm=swarm.new_swarm(_initial_walkers(env, cfg, seed, ids)),
        interactions_on=cfg.attraction.enabled and cfg.attraction.base_coeff > 0.0 and len(ids) > 1,
        rng_interaction=interaction_rng(seed),
        budget=_visit_budget(env, cfg),
        visits=[{} for _ in ids],  # jump 0 has no visit events: its scores reach only the first rows
    )
    score(run, 0)
    run.first_rows = [(0, w.id, v["loss"], v["acc"], w.cum_iters) for w, v in zip(run.swarm.walkers, run.visits)]
    return run


def simulate(env: Environment, cells: Iterable[tuple]) -> list[RunResult]:
    """Execute the runs of cells that share the world `env`, one jump at a time, in lockstep.

    A cell is (cfg, seed) or (cfg, seed, walker_ids), and its world key must
    be env's. walker_ids defaults to range(cfg.walkers); an explicit subset
    reruns just those walkers on their own sub-streams, which is what makes
    non-interacting multi-walker runs decomposable walker by walker. The ids
    must ascend, as walkers move, and each must be a walker of the full run.

    At each jump every phase runs over the live runs in input order, and the
    `train` phases of all of them share one `lockstep` block, so the walkers
    of the whole batch train as one stack per model shape and spec. A run
    leaves the batch once its `jumps` are done. No run reads another's state,
    and every walker draws from its own stream, so each result equals that
    cell simulated alone; results come in input order.
    """
    runs = [_start(env, *cell) for cell in cells]
    live = runs
    for t in range(1, max((run.cfg.jumps for run in runs), default=0) + 1):
        live = [run for run in live if t <= run.cfg.jumps]
        for phase in PHASES:
            with lockstep() if phase is train else contextlib.nullcontext():
                for run in live:
                    phase(run, t)
    return [run.result() for run in runs]


def run_single(cfg: ExperimentConfig, seed: int) -> RunResult:
    """Build the environment for (cfg, seed) and simulate it."""
    return simulate(build_environment(cfg, seed), [(cfg, seed)])[0]


def thread_count() -> int:
    raw = os.environ.get("XLWALK_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"XLWALK_THREADS must be an integer, got {raw!r}") from None
    return os.cpu_count() or 1 if n == 0 else max(1, n)


def _world_key(cfg: ExperimentConfig, seed: int) -> tuple:
    return (cfg.graph, cfg.data, cfg.partition, seed)


def _run_world_ordered(cells: list[tuple[ExperimentConfig, int]]) -> list[RunResult]:
    """Simulate cells that come grouped by world: each world is built once and its cells run as one batch.

    One world is alive at a time: nothing holds a world once its batch
    returns, so it is released before the next is built.
    """
    results = []
    for _, group in itertools.groupby(cells, key=lambda cell: _world_key(*cell)):
        group = list(group)
        results.extend(simulate(build_environment(*group[0]), group))
    return results


def run_many(cells: list[tuple[ExperimentConfig, int]], threads: int | None = None) -> list[RunResult]:
    """Run (config, seed) cells world by world, possibly in parallel; output order fixed by input.

    Cells are ordered by world (graph, data, partition, seed) in order of
    first appearance, so series that share a world run back to back on one
    build. With several workers each takes a contiguous slice of that order
    and builds each world in its slice once.
    """
    threads = thread_count() if threads is None else threads
    first: dict[tuple, int] = {}
    for cfg, seed in cells:
        first.setdefault(_world_key(cfg, seed), len(first))
    order = sorted(range(len(cells)), key=lambda i: first[_world_key(*cells[i])])
    ordered = [cells[i] for i in order]
    workers = min(threads, len(cells))
    if workers <= 1:
        done = _run_world_ordered(ordered)
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported only when runs fan out
        bounds = [len(ordered) * i // workers for i in range(workers + 1)]
        slices = [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = [res for part in pool.map(_run_world_ordered, slices) for res in part]
    results: list[RunResult] = [None] * len(cells)
    for i, res in zip(order, done):
        results[i] = res
    return results


def run_sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: list,
    seeds: list[int],
    threads: int | None = None,
) -> list[RunResult]:
    """Cross product of axis values and seeds; one series per value."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    if len({str(value) for value in values}) < len(values):  # each value names one series
        raise ConfigError(f"sweep values must not repeat, got {values}")
    cells = []
    for value in values:
        cfg_v = set_config_axis(cfg, axis, value)
        cfg_v = replace(cfg_v, series=f"{axis}={value}")
        for seed in seeds:
            cells.append((cfg_v, seed))
    return run_many(cells, threads)


# ---------------------------------------------------------------------------
# Summaries


def metrics_to_csv(records: list[MetricsRecord]) -> str:
    """Per-jump per-walker evaluation rows, one line per measurement."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["series", "seed", "t", "walker", "loss", "acc", "cum_iters"])
    for rec in records:
        for t, wid, loss, acc, cum in rec.rows:
            w.writerow([rec.series, rec.seed, t, wid, repr(float(loss)), repr(float(acc)), cum])
    return out.getvalue()


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.array(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _per_jump(rec: MetricsRecord, col: int, average: bool) -> tuple[np.ndarray, np.ndarray]:
    """A run's jumps, ascending, and per jump the mean or sum of its walkers' values in row order.

    Jumps with equally many rows form one (jumps, walkers) array reduced along its rows.
    """
    t = np.array([r[0] for r in rec.rows], dtype=np.int64)
    order = np.argsort(t, kind="stable")
    vals = np.array([r[col] for r in rec.rows], dtype=np.float64)[order]
    jumps, starts, counts = np.unique(t[order], return_index=True, return_counts=True)
    out = np.empty(jumps.size)
    for size in np.unique(counts).tolist():
        sel = counts == size
        block = vals[starts[sel, None] + np.arange(size)]
        out[sel] = block.mean(axis=1) if average else block.sum(axis=1)
    return jumps, out


def summarize(records: list[MetricsRecord]) -> str:
    """Aggregate runs into CSV tables: per-jump curves and final summaries.

    Means are taken over seeds (walker values are averaged within each run
    first); the std column is the across-seed standard deviation.
    """
    if not records:
        raise ConfigError("nothing to summarize")
    by_series: dict[str, list[MetricsRecord]] = {}
    for rec in records:
        runs = by_series.setdefault(rec.series, [])
        if any(r.seed == rec.seed for r in runs):
            raise ConfigError(f"duplicate run for series={rec.series} seed={rec.seed}")
        runs.append(rec)

    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["table", "series", "t", "mean", "std", "count"])
    for table, col, average in (("accuracy_vs_jump", 3, True), ("cum_sgd_vs_jump", 4, False)):
        for series in sorted(by_series):
            recs = by_series[series]
            curves = [_per_jump(rec, col, average) for rec in recs]
            shared = functools.reduce(np.intersect1d, [jumps for jumps, _ in curves])
            grid = np.stack([vals[np.searchsorted(jumps, shared)] for jumps, vals in curves], axis=1)
            stats = zip(shared.tolist(), grid.mean(axis=1).tolist(), grid.std(axis=1).tolist())
            w.writerows([table, series, t, repr(m), repr(sd), len(recs)] for t, m, sd in stats)
    for series in sorted(by_series):
        recs = by_series[series]
        mean, std = _mean_std([rec.final_accuracy for rec in recs])
        w.writerow(["final_accuracy", series, "", repr(mean), repr(std), len(recs)])
    for series in sorted(by_series):
        recs = by_series[series]
        per_run = [float(np.mean(rec.collision_intervals)) for rec in recs if rec.collision_intervals]
        n_events = sum(rec.collision_count for rec in recs)
        if per_run:
            mean, std = _mean_std(per_run)
            w.writerow(["collision_interval", series, "", repr(mean), repr(std), n_events])
    return out.getvalue()


def _replay(events: Iterable[dict]) -> dict[str, tuple[list[tuple], tuple[int, list[int]]]]:
    """Replay each run id's events: its metric rows after jump 0, and its co-location collisions.

    Each visit event with an `acc` gives the row (t, walker_id, loss, acc,
    cum_iters), cum_iters the walker's running sum of visit `iters`. A pair's
    collision interval is the jump of the collision minus the last jump at
    which both walkers took part in a collide or rendezvous event, or 0 if
    they never did: the `met_at` stamp that attraction reads. `simulate` and
    `report` both take their rows after jump 0 and their collisions from here.
    """
    cum: dict[tuple[str, int], int] = {}
    last: dict[tuple[str, int, int], int] = {}
    runs: dict[str, tuple[list[tuple], list[int]]] = {}
    counts: dict[str, int] = {}
    for ev in events:
        run_id, t = ev["run_id"], ev["t"]
        rows, intervals = runs.setdefault(run_id, ([], []))
        if ev["kind"] == "visit":
            key = (run_id, ev["walker_id"])
            cum[key] = cum.get(key, 0) + ev["iters"]
            if "acc" in ev:
                rows.append((t, ev["walker_id"], ev["loss"], ev["acc"], cum[key]))
        elif ev["kind"] in ("collide", "rendezvous"):
            ids = ev["walkers"]
            keys = [(run_id, min(r, q), max(r, q)) for i, r in enumerate(ids) for q in ids[i + 1:]]
            if ev.get("trigger") == "colocation":
                counts[run_id] = counts.get(run_id, 0) + 1
                intervals.extend(t - last.get(key, 0) for key in keys)
            for key in keys:
                last[key] = t
    return {run_id: (rows, (counts.get(run_id, 0), intervals)) for run_id, (rows, intervals) in runs.items()}


def _metrics_record(series: str, seed: int, rows: list[tuple], collisions: tuple[int, list[int]]) -> MetricsRecord:
    """A run's record; its final accuracy is the walkers' mean at the last evaluated jump."""
    last_t = max(r[0] for r in rows)
    count, intervals = collisions
    return MetricsRecord(
        series=series,
        seed=seed,
        walker_ids=sorted({r[1] for r in rows}),
        rows=rows,
        collision_count=count,
        collision_intervals=intervals,
        final_accuracy=float(np.mean([r[3] for r in rows if r[0] == last_t])),
    )


def metrics_from_csv(text: str, events: Iterable[dict] | None = None) -> list[MetricsRecord]:
    """Rebuild records, in file order, from a metrics.csv produced by metrics_to_csv.

    Without events the CSV rows stand and collisions are empty. With them, only the jump-0 rows
    come from the CSV, the rest are replayed, and the CSV must be what those records write.
    """
    grouped: dict[tuple[str, int], list[tuple]] = {}
    for line in csv.DictReader(io.StringIO(text)):
        grouped.setdefault((line["series"], int(line["seed"])), []).append(
            (int(line["t"]), int(line["walker"]), float(line["loss"]),
             float(line["acc"]), int(line["cum_iters"]))
        )
    if events is None:
        return [_metrics_record(series, seed, rows, (0, [])) for (series, seed), rows in grouped.items()]
    replay = _replay(events)
    if {f"{series}:{seed}" for series, seed in grouped} != set(replay):
        raise ConfigError("metrics.csv and events.jsonl hold different runs")
    records = []
    for (series, seed), rows in grouped.items():
        replayed, tally = replay[f"{series}:{seed}"]
        records.append(_metrics_record(series, seed, [r for r in rows if r[0] == 0] + replayed, tally))
    if metrics_to_csv(records) != text:
        raise ConfigError("metrics.csv disagrees with the visit events in events.jsonl")
    return records
