"""Configure, run, and record complete walker simulations.

A run is fully determined by (config, seed). Every random stream is derived
from the run seed with a distinct domain tag, and each walker draws from its
own sub-stream seeded by `seed XOR walker_id`, so walkers that never
interact are bit-identical to the same walkers run alone. Outputs carry no
wall-clock or machine state: identical inputs give identical bytes.

Per swarm jump the phases are fixed: attraction bookkeeping, movement
(ascending walker id), local training, memory merge, collisions
(co-location, then rendezvous, then uplink), perception refresh, evaluation.
"""
from __future__ import annotations

import csv
import functools
import io
import logging
import os
import types
import typing
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from . import datahub, policy, swarm, topology, walker
from .errors import ConfigError
from .learner import LearnerSpec, evaluate, init_model
from .policy import (
    IMPORTANCE_DYNAMIC,
    IMPORTANCE_STATIC,
    MH,
    UNIFORM,
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


@dataclass(frozen=True)
class DataSpec:
    classes: int = 10
    dims: int = 32
    per_class: int = 500
    val_frac: float = 0.2
    sep: float = 3.0


@dataclass(frozen=True)
class PartitionSpec:
    kind: str = "label_skew"  # label_skew | clique_dominant
    skew_frac: float = 0.98
    labels_lo: int = 1
    labels_hi: int = 2
    dominance: float = 1.0


@dataclass(frozen=True)
class RendezvousSpec:
    enabled: bool = False
    every: int = 10
    node: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the world, the walkers and their budget.

    The learner, policy, elastic, memory and attraction blocks are the
    subsystems' own specs, which check their fields when built. `validate`
    checks the rest and the rules that span blocks.
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

    def validate(self) -> None:
        if self.jumps < 1:
            raise ConfigError("jump budget must be at least 1")
        if self.walkers < 1:
            raise ConfigError("need at least one walker")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if self.iters_per_visit < 1:
            raise ConfigError("iters_per_visit must be at least 1")
        if self.graph.kind not in ("caveman", "rgg"):
            raise ConfigError(f"unknown graph kind {self.graph.kind!r}")
        if self.partition.kind not in ("label_skew", "clique_dominant"):
            raise ConfigError(f"unknown partition kind {self.partition.kind!r}")
        needs_cliques = (
            self.partition.kind == "clique_dominant"
            or self.confine_cliques
            or self.start == "per_clique"
        )
        if needs_cliques and self.graph.kind != "caveman":
            raise ConfigError("clique-based options require a caveman graph")
        if self.start not in ("random", "per_clique"):
            raise ConfigError(f"unknown start mode {self.start!r}")
        if self.rendezvous.enabled and self.rendezvous.every < 1:
            raise ConfigError("rendezvous every must be at least 1")

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
    cfg = _from_dict(ExperimentConfig, doc, "config")
    cfg.validate()
    return cfg


def set_config_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """Return a copy with one (possibly dotted) config field replaced."""
    doc = cfg.to_dict()
    node = doc
    parts = axis.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config axis {axis!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config axis {axis!r}")
    node[leaf] = value
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Environment and run records


@dataclass(eq=False)  # identity semantics: field-wise == is ambiguous on arrays
class Environment:
    graph: topology.Graph
    centrality: topology.Centrality
    partition: datahub.Partition
    node_features: list[np.ndarray]
    node_labels: list[np.ndarray]
    val_features: np.ndarray
    val_labels: np.ndarray


def build_graph(gspec: GraphSpec, seed: int) -> topology.Graph:
    """The caveman or random-geometric graph a spec describes, at one seed."""
    if gspec.kind == "caveman":
        return topology.gen_connected_caveman(gspec.cliques, gspec.nodes, seed)
    radius = gspec.radius or topology.default_rgg_radius(gspec.nodes)
    return topology.gen_rgg(gspec.nodes, radius, seed, gspec.max_retries)


def build_environment(cfg: ExperimentConfig, seed: int) -> Environment:
    cfg.validate()
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
    node_features = []
    node_labels = []
    for node in range(g.node_count):
        x, y = datahub.node_view(ds, part, node)
        node_features.append(x)
        node_labels.append(y)
    return Environment(
        graph=g,
        centrality=topology.betweenness(g),
        partition=part,
        node_features=node_features,
        node_labels=node_labels,
        val_features=ds.features[ds.val_indices],
        val_labels=ds.labels[ds.val_indices],
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
    series: str
    seed: int
    events: list[dict]
    metrics: MetricsRecord


def walker_rng(seed: int, walker_id: int) -> np.random.Generator:
    """Per-walker stream: domain-tagged SeedSequence over seed XOR walker id."""
    return np.random.default_rng(np.random.SeedSequence([_WALKER_TAG, seed ^ walker_id]))


def interaction_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([_INTERACTION_TAG, seed]))


def _initial_walkers(env: Environment, cfg: ExperimentConfig, seed: int, walker_ids) -> list[walker.WalkerState]:
    g = env.graph
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
        walkers.append(walker.WalkerState(id=wid, position=pos, im=im, sm=im, rng=rng, home_clique=home))
    return walkers


def _base_policy(env: Environment, cfg: ExperimentConfig) -> TransitionPolicy:
    kind = cfg.policy.kind
    if kind == UNIFORM:
        return policy.uniform_transition(env.graph)
    if kind == MH:
        return policy.mh_transition(env.graph)
    imp = policy.importance_vector(
        env.partition.data_frac,
        env.partition.label_frac,
        np.array(env.centrality.normalized),
        cfg.policy.alpha,
        cfg.policy.normalize_terms,
    )
    return policy.build_transition(env.graph, imp, kind=IMPORTANCE_STATIC)


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


def simulate(env: Environment, cfg: ExperimentConfig, seed: int, walker_ids: list[int] | None = None) -> RunResult:
    """Execute one full run over a prebuilt environment.

    walker_ids defaults to range(cfg.walkers); passing an explicit subset
    reruns just those walkers on their own sub-streams, which is what makes
    non-interacting multi-walker runs decomposable walker by walker.
    """
    cfg.validate()
    g = env.graph
    if cfg.rendezvous.enabled and not 0 <= cfg.rendezvous.node < g.node_count:
        raise ConfigError(
            f"rendezvous node {cfg.rendezvous.node} is not in the {g.node_count}-node graph"
        )
    ids = list(range(cfg.walkers)) if walker_ids is None else list(walker_ids)
    run_id = f"{cfg.series_label}:{seed}"
    attraction = cfg.attraction
    # a zero trigger floor leaves walkers independent: no clocks, draws or collisions
    interactions_on = attraction.enabled and attraction.base_coeff > 0.0 and len(ids) > 1

    s = swarm.new_swarm(_initial_walkers(env, cfg, seed, ids))
    rng_interaction = interaction_rng(seed)
    centrality_vec = np.array(env.centrality.normalized)

    dynamic = cfg.policy.kind == IMPORTANCE_DYNAMIC
    budget = _visit_budget(env, cfg)

    def confine(pol: TransitionPolicy) -> TransitionPolicy:
        return swarm.clique_confined_policy(g, pol) if cfg.confine_cliques else pol

    def refresh(w: walker.WalkerState) -> TransitionPolicy:
        return confine(walker.perception_refresh(
            w, env.val_features, env.val_labels, cfg.policy,
            env.partition.data_frac, env.partition.label_frac,
            centrality_vec, g,
        ))

    if dynamic:
        policies = [refresh(w) for w in s.walkers]
    else:  # no static row depends on the walker: one confined policy serves them all
        policies = [confine(_base_policy(env, cfg))] * len(ids)

    events: list[dict] = []
    rows: list[tuple] = []

    def log_swarm_event(ev: dict, t: int, **extra) -> None:
        """Stamp a swarm event with the run and jump, map its walker indices to ids, log it.

        Keys stay in the order kind, walkers, run_id, t, then extra, which
        events.jsonl preserves.
        """
        ev.update(run_id=run_id, t=t, walkers=[ids[i] for i in ev["walkers"]], **extra)
        events.append(ev)

    def record_eval(t: int) -> list[tuple[float, float]]:
        """Validation loss and accuracy per walker, logged as metric rows.

        In dynamic mode every walker was just measured by its perception
        refresh and its model has not changed since, so that result is reused.
        Otherwise walkers that hold the same model object, as every member
        does after a collision until it trains again, share one evaluation;
        models are never written in place.
        """
        out = []
        scored: dict[int, tuple[float, float]] = {}  # id(model) -> (loss, acc)
        for w in s.walkers:
            if dynamic:
                loss, acc = w.cached_loss, w.cached_accuracy
            else:
                if id(w.im) not in scored:
                    scored[id(w.im)] = evaluate(w.im, env.val_features, env.val_labels)
                loss, acc = scored[id(w.im)]
            rows.append((t, w.id, loss, acc, w.cum_iters))
            out.append((loss, acc))
        return out

    record_eval(0)

    for t in range(1, cfg.jumps + 1):
        # 1. attraction clocks and pursuit triggers
        if interactions_on:
            for ev in swarm.tick_attraction(s, attraction, rng_interaction):
                log_swarm_event(ev, t)

        # 2. movement, ascending walker id
        for idx, w in enumerate(s.walkers):
            target = swarm.steer_target(s, idx)
            if target is None:
                walker.step(w, policies[idx], w.rng)
            else:
                if target != w.position:
                    w.position = topology.next_hop_toward(g, w.position, target)
                w.jumps += 1
            if w.home_clique is not None and s.homing[idx] is not None:
                if g.clique_of[w.position] == w.home_clique:
                    s.homing[idx] = None

        # 3. local training
        tick_visits: list[dict] = []
        for w in s.walkers:
            node = w.position
            iters = budget[node]
            walker.visit(w, env.node_features[node], env.node_labels[node], iters, cfg.learner, w.rng)
            w.cum_iters += iters
            ev = {"run_id": run_id, "t": t, "kind": "visit", "walker_id": w.id,
                  "node": node, "iters": iters}
            tick_visits.append(ev)
            events.append(ev)

        # 4. memory merge
        if cfg.memory.enabled:
            beta = cfg.memory.beta_at(t)
            for idx, w in enumerate(s.walkers):
                s.walkers[idx] = walker.memory_merge(w, beta)
                tick_visits[idx]["beta"] = beta

        # 5. collisions: co-location, then rendezvous, then uplink
        if interactions_on:
            for group in swarm.colocated_groups(s):
                if all(s.cooldown[r, q] for i, r in enumerate(group) for q in group[i + 1:]):
                    continue
                node = s.walkers[group[0]].position
                weights = swarm.collide(s, group, cfg.memory.enabled)
                for ev in swarm.end_pursuits(s, group):
                    log_swarm_event(ev, t, node=node)
                swarm.start_cooldown(s, group, attraction.cooldown_max)
                for idx in group:
                    home = s.walkers[idx].home_clique
                    if home is not None and g.clique_of[node] != home:
                        s.homing[idx] = swarm.nearest_clique_node(g, node, home)
                events.append({"run_id": run_id, "t": t, "kind": "collide",
                               "trigger": "colocation", "walkers": [ids[i] for i in group],
                               "node": node, "weights": weights})
        if cfg.rendezvous.enabled and t % cfg.rendezvous.every == 0:
            weights = swarm.rendezvous_tick(s, cfg.rendezvous.every, cfg.rendezvous.node, cfg.memory.enabled)
            for ev in swarm.end_pursuits(s, list(range(s.size))):
                log_swarm_event(ev, t, node=cfg.rendezvous.node)
            events.append({"run_id": run_id, "t": t, "kind": "rendezvous",
                           "walkers": list(ids), "node": cfg.rendezvous.node,
                           "weights": weights})
        if cfg.uplink and len(ids) > 1:
            weights = swarm.uplink_aggregate(s, cfg.memory.enabled)
            events.append({"run_id": run_id, "t": t, "kind": "collide",
                           "trigger": "uplink", "walkers": list(ids),
                           "node": None, "weights": weights})

        # 6. perception refresh: rebuilds only the row at each walker's position,
        # the one row the next movement phase samples (nothing moves a walker in between)
        if dynamic:
            for idx, w in enumerate(s.walkers):
                policies[idx] = refresh(w)
                tick_visits[idx]["alpha_inst"] = w.alpha

        # 7. evaluation
        if t % cfg.eval_every == 0:
            for ev, (loss, acc) in zip(tick_visits, record_eval(t)):
                ev["loss"] = loss
                ev["acc"] = acc

    collisions = _collisions_from_events(events).get(run_id, (0, []))
    metrics = _metrics_record(cfg.series_label, seed, list(ids), rows, collisions)
    return RunResult(run_id=run_id, series=cfg.series_label, seed=seed, events=events, metrics=metrics)


def run_single(cfg: ExperimentConfig, seed: int) -> RunResult:
    """Build the environment for (cfg, seed) and simulate it."""
    env = build_environment(cfg, seed)
    return simulate(env, cfg, seed)


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
    """Simulate cells that come grouped by world, building each world once.

    One world is alive at a time: the previous one is released before the
    next is built.
    """
    results = []
    env, key = None, None
    for cfg, seed in cells:
        if _world_key(cfg, seed) != key:
            env = None  # drop the old world before the new one is built
            key = _world_key(cfg, seed)
            env = build_environment(cfg, seed)
        results.append(simulate(env, cfg, seed))
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


def _collisions_from_events(events: Iterable[dict]) -> dict[str, tuple[int, list[int]]]:
    """Replay co-location collisions per run id: their count and pair intervals.

    A pair's interval is the jump of the collision minus the last jump at
    which both walkers took part in a collide (co-location or uplink) or
    rendezvous event, or 0 if they never did. This replay is the one
    definition of the intervals that `simulate` records and `report` rebuilds;
    it equals the pair clock that drives attraction at each collision.
    """
    last: dict[tuple[str, int, int], int] = {}
    out: dict[str, tuple[int, list[int]]] = {}
    for ev in events:
        if ev["kind"] not in ("collide", "rendezvous"):
            continue
        run_id, t, ids = ev["run_id"], ev["t"], ev["walkers"]
        keys = [(run_id, min(r, q), max(r, q)) for i, r in enumerate(ids) for q in ids[i + 1:]]
        if ev.get("trigger") == "colocation":
            count, intervals = out.get(run_id, (0, []))
            intervals.extend(t - last.get(key, 0) for key in keys)
            out[run_id] = (count + 1, intervals)
        for key in keys:
            last[key] = t
    return out


def _metrics_record(series: str, seed: int, walker_ids: list[int], rows: list[tuple],
                    collisions: tuple[int, list[int]]) -> MetricsRecord:
    """A run's record; its final accuracy is the walkers' mean at the last evaluated jump."""
    last_t = max(r[0] for r in rows)
    count, intervals = collisions
    return MetricsRecord(
        series=series,
        seed=seed,
        walker_ids=walker_ids,
        rows=rows,
        collision_count=count,
        collision_intervals=intervals,
        final_accuracy=float(np.mean([r[3] for r in rows if r[0] == last_t])),
    )


def metrics_from_csv(text: str, events: Iterable[dict] | None = None) -> list[MetricsRecord]:
    """Rebuild records from a metrics.csv produced by metrics_to_csv.

    metrics.csv holds no collisions: they are replayed from the run's events
    when given, and left empty otherwise.
    """
    collisions = _collisions_from_events(events or [])
    reader = csv.DictReader(io.StringIO(text))
    grouped: dict[tuple[str, int], list[tuple]] = {}
    for line in reader:
        key = (line["series"], int(line["seed"]))
        grouped.setdefault(key, []).append(
            (int(line["t"]), int(line["walker"]), float(line["loss"]),
             float(line["acc"]), int(line["cum_iters"]))
        )
    return [
        _metrics_record(series, seed, sorted({r[1] for r in rows}), rows,
                        collisions.get(f"{series}:{seed}", (0, [])))
        for (series, seed), rows in sorted(grouped.items())
    ]
