import concurrent.futures
import csv
import io
import json
import logging
import os
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from xlwalk import experiment, learner, policy, swarm, topology, walker
from xlwalk.errors import ConfigError
from xlwalk.experiment import (
    AttractionSpec,
    DataSpec,
    ExperimentConfig,
    GraphSpec,
    LearnerSpec,
    PartitionSpec,
    PolicySpec,
    RendezvousSpec,
    build_environment,
    config_from_dict,
    metrics_from_csv,
    metrics_to_csv,
    run_many,
    run_single,
    run_sweep,
    set_config_axis,
    simulate,
    summarize,
)
from xlwalk.policy import IMPORTANCE_DYNAMIC, IMPORTANCE_STATIC, MH, UNIFORM, ElasticSpec
from xlwalk.presets import PRESETS, preset_configs
from xlwalk.swarm import clique_confined_policy

from .test_policy import policy_matrix

# The JSON form of ExperimentConfig(): every key, in order, with its default.
DEFAULT_CONFIG_DOC = {
    "name": "run",
    "series": "",
    "graph": {"kind": "caveman", "nodes": 50, "cliques": 8, "radius": None, "max_retries": 100},
    "data": {"classes": 10, "dims": 32, "per_class": 500, "val_frac": 0.2, "sep": 3.0},
    "partition": {"kind": "label_skew", "skew_frac": 0.98, "labels_lo": 1, "labels_hi": 2,
                  "dominance": 1.0},
    "learner": {"arch": "softmax", "hidden": 64, "learning_rate": 0.05, "batch_size": 32, "l2": 0.0},
    "policy": {"kind": "uniform", "alpha": 0.5, "alpha_min": 0.1, "alpha_max": 0.85,
               "acc_min": 0.1, "acc_max": 0.8, "normalize_terms": True},
    "elastic": {"enabled": False, "x_max": 20, "tau1": 10.0, "tau2": 0.4},
    "iters_per_visit": 5,
    "walkers": 1,
    "start": "random",
    "memory": {"enabled": False, "schedule": []},
    "attraction": {"enabled": False, "strength": 0.1, "base_coeff": 0.05, "cooldown_max": 5},
    "rendezvous": {"enabled": False, "every": 10, "node": 0},
    "confine_cliques": False,
    "uplink": False,
    "jumps": 400,
    "eval_every": 1,
    "seeds": [0],
}

# Rules checked when a config is loaded, before any world is built: each subsystem's rules,
# whether or not its block is enabled, and the rules that span blocks.
# (config override, start of the error message).
SPEC_RULES = [
    ({"policy": {"alpha": 1.5}}, "alpha must lie in [0, 1]"),
    ({"policy": {"acc_min": 0.8, "acc_max": 0.8}}, "acc_min must be below acc_max"),
    ({"policy": {"alpha_min": 0.9, "alpha_max": 0.5}}, "alpha_min must not exceed alpha_max"),
    ({"elastic": {"x_max": 0}}, "x_max must be at least 1"),
    ({"memory": {"schedule": [[5, 0.1], [5, 0.2]]}},
     "memory schedule thresholds must be strictly increasing"),
    ({"memory": {"schedule": [[0, 1.5]]}}, "memory blend weights must lie in [0, 1]"),
    ({"attraction": {"enabled": False, "strength": -1}}, "attraction strength must be non-negative"),
    ({"attraction": {"base_coeff": 1.5}}, "base_coeff must lie in [0, 1]"),
    ({"attraction": {"cooldown_max": -1}}, "cooldown_max must be non-negative"),
    ({"confine_cliques": True, "policy": {"kind": "mh"}},
     "confinement does not support rows with lazy self-loops"),
    ({"graph": {"nodes": 12, "cliques": 6}, "partition": {"kind": "clique_dominant"}},
     "6 cliques need at most 4 classes to dominate"),
    ({"graph": {"nodes": 5, "cliques": 8}}, "need n_nodes >= 2 * n_cliques"),
    ({"graph": {"kind": "caveman", "nodes": 12, "cliques": 0}}, "need n_nodes >= 2 * n_cliques"),
    ({"graph": {"kind": "rgg", "nodes": 1, "cliques": 0}}, "need at least 2 nodes"),
    ({"graph": {"kind": "rgg", "nodes": 30, "cliques": 0, "radius": -1.0}}, "radius must be positive"),
    ({"graph": {"kind": "rgg", "nodes": 30, "cliques": 0, "radius": 0.0}}, "radius must be positive"),
    ({"graph": {"kind": "rgg", "nodes": 30, "cliques": 0, "max_retries": 0}}, "max_retries must be positive"),
    ({"data": {"per_class": 1}}, "need n_classes >= 2 and per_class >= 2"),
    ({"data": {"classes": 1}}, "need n_classes >= 2 and per_class >= 2"),
    ({"data": {"val_frac": 1.0}}, "val_frac must lie in (0, 1)"),
    ({"policy": {"alpha_max": 1.5}}, "alpha_min and alpha_max must lie in [0, 1]"),
    ({"policy": {"alpha_min": -0.1}}, "alpha_min and alpha_max must lie in [0, 1]"),
    ({"partition": {"labels_hi": 20}}, "need 1 <= labels_lo <= labels_hi <= 4, got 1 and 20"),
    ({"partition": {"labels_lo": 0}}, "need 1 <= labels_lo <= labels_hi <= 4, got 0 and 2"),
    ({"partition": {"skew_frac": 1.5}}, "skew_frac must lie in [0, 1]"),
    ({"partition": {"kind": "clique_dominant", "dominance": 0.0}}, "dominance must lie in (0, 1]"),
    ({"rendezvous": {"enabled": True, "node": 99}}, "rendezvous node 99 is not in the 12-node graph"),
    ({"rendezvous": {"enabled": False, "every": 0}}, "rendezvous every must be at least 1"),
    ({"data": {"dims": 0}}, "need n_classes >= 2 and per_class >= 2, and n_dims >= 1"),
    ({"data": {"dims": -1}}, "need n_classes >= 2 and per_class >= 2, and n_dims >= 1"),
    ({"learner": {"learning_rate": float("nan")}}, "config.learner.learning_rate must be a finite number"),
    ({"data": {"sep": float("inf")}}, "config.data.sep must be a finite number"),
    ({"graph": {"kind": "rgg", "nodes": 30, "radius": float("-inf")}}, "config.graph.radius must be a finite number"),
    ({"data": {"sep": 10 ** 400}}, "config.data.sep must be a finite number"),
    ({"elastic": {"tau1": -1.0}}, "elastic tau1 and tau2 must be non-negative"),
    ({"elastic": {"tau2": -1.0}}, "elastic tau1 and tau2 must be non-negative"),
    ({"seeds": [0, 0]}, "seeds must not repeat, got [0, 0]"),
    ({"seeds": [3, -1]}, "seeds must be non-negative, got [3, -1]"),
    ({"data": {"sep": float("nan")}}, "config.data.sep must be a finite number"),
]


def small_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        name="small",
        graph=GraphSpec(kind="caveman", nodes=12, cliques=3),
        data=DataSpec(classes=4, dims=6, per_class=60, val_frac=0.25, sep=2.0),
        partition=PartitionSpec(kind="label_skew", skew_frac=0.9, labels_lo=1, labels_hi=2),
        learner=LearnerSpec(learning_rate=0.05, batch_size=8),
        policy=PolicySpec(kind=IMPORTANCE_STATIC, alpha=0.5),
        iters_per_visit=2,
        jumps=30,
        eval_every=5,
        seeds=(0, 1),
    )
    return replace(base, **overrides)


def events_equal(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestConfig:
    def test_roundtrip(self):
        cfg = small_config()
        back = config_from_dict(cfg.to_dict())
        assert back == cfg

    def test_json_roundtrip(self):
        cfg = small_config()
        back = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_unknown_key_rejected(self):
        doc = small_config().to_dict()
        doc["walker_count"] = 3
        with pytest.raises(ConfigError, match="walker_count"):
            config_from_dict(doc)

    def test_unknown_nested_key_rejected(self):
        doc = small_config().to_dict()
        doc["policy"]["temperature"] = 1.0
        with pytest.raises(ConfigError, match="temperature"):
            config_from_dict(doc)

    def test_integers_and_null_accepted_where_allowed(self):
        cfg = config_from_dict({"policy": {"alpha": 1}, "graph": {"radius": None},
                                "memory": {"schedule": [[0, 0], [5, 0.5]]}})
        assert cfg.policy.alpha == 1
        assert cfg.graph.radius is None
        assert cfg.memory.schedule == ((0, 0), (5, 0.5))

    def test_default_schema_is_pinned(self):
        doc = ExperimentConfig().to_dict()
        assert doc == DEFAULT_CONFIG_DOC
        assert json.dumps(doc) == json.dumps(DEFAULT_CONFIG_DOC)  # key order too

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_configs_roundtrip(self, preset):
        for cfg in preset_configs(preset):
            assert config_from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("override,message", SPEC_RULES)
    def test_spec_rules_fail_at_load(self, monkeypatch, override, message):
        def no_world(*args):
            raise AssertionError("a world was built")

        monkeypatch.setattr(experiment, "build_environment", no_world)
        monkeypatch.setattr(experiment, "build_graph", no_world)
        with pytest.raises(ConfigError) as err:
            config_from_dict(dict(small_config().to_dict(), **override))
        assert str(err.value).startswith(message)

    def test_zero_jump_budget_rejected(self):
        with pytest.raises(ConfigError):
            small_config(jumps=0)

    @pytest.mark.parametrize("learner_spec", [
        dict(batch_size=0),
        dict(batch_size=-1),
        dict(learning_rate=-0.1),
        dict(l2=-0.01),
        dict(arch="cnn"),
        dict(arch="mlp", hidden=0),
    ])
    def test_bad_learner_rejected(self, learner_spec):
        with pytest.raises(ConfigError, match="learner"):
            small_config(learner=LearnerSpec(**learner_spec))

    def test_softmax_ignores_hidden(self):
        small_config(learner=LearnerSpec(arch="softmax", hidden=0))

    def test_clique_options_need_caveman(self):
        with pytest.raises(ConfigError):
            small_config(
                graph=GraphSpec(kind="rgg", nodes=20),
                partition=PartitionSpec(kind="clique_dominant"),
            )

    @pytest.mark.parametrize("build", [
        lambda: replace(small_config(), walkers=0),
        lambda: replace(small_config(), rendezvous=RendezvousSpec(node=12)),
        lambda: replace(small_config(), data=DataSpec(classes=4, dims=0)),
        lambda: GraphSpec(kind="caveman", nodes=5, cliques=3),
        lambda: replace(small_config(), partition=PartitionSpec(kind="clique_dominant", dominance=0.0)),
        lambda: RendezvousSpec(every=0),
    ])
    def test_no_invalid_config_can_be_built(self, build):
        """Every rule runs when its spec is built: `replace` and direct construction check too."""
        with pytest.raises(ConfigError):
            build()

    def test_set_axis_top_level(self):
        cfg = set_config_axis(small_config(), "walkers", 3)
        assert cfg.walkers == 3

    def test_set_axis_nested(self):
        cfg = set_config_axis(small_config(), "policy.alpha", 0.9)
        assert cfg.policy.alpha == 0.9

    def test_set_axis_unknown(self):
        with pytest.raises(ConfigError, match="axis"):
            set_config_axis(small_config(), "policy.nonsense", 1)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        cfg = small_config()
        a = run_single(cfg, seed=3)
        b = run_single(cfg, seed=3)
        assert events_equal(a.events, b.events)
        assert a.metrics.rows == b.metrics.rows

    def test_dynamic_policy_reruns(self):
        cfg = small_config(policy=PolicySpec(kind=IMPORTANCE_DYNAMIC))
        a = run_single(cfg, seed=1)
        b = run_single(cfg, seed=1)
        assert events_equal(a.events, b.events)

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = run_single(cfg, seed=0)
        b = run_single(cfg, seed=1)
        assert not events_equal(a.events, b.events)

    def test_run_many_matches_run_single(self):
        cfg = small_config()
        packed = run_many([(cfg, 0), (cfg, 1)])
        assert events_equal(packed[0].events, run_single(cfg, 0).events)
        assert events_equal(packed[1].events, run_single(cfg, 1).events)

    def test_parallel_workers_give_identical_results(self):
        cfg = small_config(jumps=15)
        cells = [(cfg, s) for s in range(3)]
        sequential = run_many(cells, threads=1)
        parallel = run_many(cells, threads=2)
        for a, b in zip(sequential, parallel):
            assert events_equal(a.events, b.events)
            assert a.metrics.rows == b.metrics.rows


def world_cells():
    """Three series on two worlds, with world keys interleaved A0, B0, A0, A1, B1, A1."""
    a_uniform = small_config(name="a-uniform", policy=PolicySpec(kind="uniform"), jumps=12)
    a_static = small_config(name="a-static", jumps=12)
    b = small_config(name="b", graph=GraphSpec(kind="caveman", nodes=15, cliques=3), jumps=12)
    return [(cfg, seed) for seed in (0, 1) for cfg in (a_uniform, b, a_static)]


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: runs each slice here and records it."""

    slices: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, slices):
        slices = list(slices)
        assert len(slices) <= self.max_workers
        _InProcessPool.slices = slices
        return [fn(part) for part in slices]


class TestWorldAtATimeRunner:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_interleaved_worlds_come_back_in_input_order(self, threads):
        cells = world_cells()
        results = run_many(cells, threads=threads)
        assert [(r.metrics.series, r.metrics.seed) for r in results] == [(c.series_label, s) for c, s in cells]
        for (cfg, seed), res in zip(cells, results):
            alone = run_single(cfg, seed)
            assert events_equal(res.events, alone.events)
            assert res.metrics == alone.metrics

    @pytest.fixture
    def built(self, monkeypatch):
        """(graph, seed) of every world build_environment makes."""
        built = []
        real = experiment.build_environment

        def counted(cfg, seed):
            built.append((cfg.graph, seed))
            return real(cfg, seed)

        monkeypatch.setattr(experiment, "build_environment", counted)
        return built

    @pytest.mark.parametrize("kind", ["label_skew", "clique_dominant"])
    def test_a_shared_world_cannot_be_written(self, kind):
        env = build_environment(small_config(partition=PartitionSpec(kind=kind)), seed=0)
        arrays = [*env.node_features, *env.node_labels, env.val_features, env.val_labels]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_each_world_built_once(self, built):
        run_many(world_cells(), threads=1)
        assert len(built) == len(set(built)) == 4

    def test_one_world_alive_at_a_time(self, monkeypatch):
        live = weakref.WeakSet()
        alive_at_build, alive_at_simulate = [], []
        real_build, real_simulate = experiment.build_environment, experiment.simulate

        def tracked_build(cfg, seed):
            alive_at_build.append(len(live))
            env = real_build(cfg, seed)
            live.add(env)
            return env

        def checked_simulate(env, cells):
            alive_at_simulate.append(len(live))
            return real_simulate(env, cells)

        monkeypatch.setattr(experiment, "build_environment", tracked_build)
        monkeypatch.setattr(experiment, "simulate", checked_simulate)
        run_many(world_cells(), threads=1)
        assert alive_at_build == [0] * 4  # the previous world is gone before the next is built
        assert alive_at_simulate == [1] * 4  # one batch per world, its own world alone alive

    def test_a_world_of_single_walker_cells_trains_as_one_stack_per_jump(self, monkeypatch):
        """fig2's six one-walker series share a world: each jump trains them as one 8-row stack
        (six rows rounded up to a power of two), never as six 1-row stacks."""
        heights = []
        real_stack = learner._stack

        def spied_stack(*key_and_sizes):
            heights.append(key_and_sizes[-2])
            return real_stack(*key_and_sizes)

        monkeypatch.setattr(learner, "_stack", spied_stack)
        cells = [(replace(cfg, jumps=10), 0) for cfg in preset_configs("fig2", 1)]
        results = run_many(cells, threads=1)
        assert heights == [8] * 10
        assert all(r.metrics.rows[-1][4] == 10 * cfg.iters_per_visit for r, (cfg, _) in zip(results, cells))

    def test_one_world_over_two_workers(self):
        cfg = small_config(jumps=12)
        cells = [(replace(cfg, name=f"s{i}", policy=PolicySpec(kind=kind)), 0)
                 for i, kind in enumerate(["uniform", "mh", IMPORTANCE_STATIC])]
        sequential = run_many(cells, threads=1)
        parallel = run_many(cells, threads=2)
        for a, b in zip(sequential, parallel):
            assert events_equal(a.events, b.events)
            assert a.metrics == b.metrics

    def test_workers_take_contiguous_world_slices(self, monkeypatch, built):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
        cells = world_cells()
        results = run_many(cells, threads=2)
        keys = [[(c.graph, s) for c, s in part] for part in _InProcessPool.slices]
        a, b = cells[0][0].graph, cells[1][0].graph
        assert keys == [[(a, 0), (a, 0), (b, 0)], [(a, 1), (a, 1), (b, 1)]]
        assert len(built) == 4
        assert [(r.metrics.series, r.metrics.seed) for r in results] == [(c.series_label, s) for c, s in cells]

        built.clear()
        run_many(cells[:1] * 3, threads=2)  # one world, fewer worlds than workers
        assert [len(part) for part in _InProcessPool.slices] == [1, 2]
        assert len(built) == 2

    def test_sequential_runs_load_no_process_pool(self):
        """concurrent.futures and multiprocessing are imported only when runs fan out."""
        src = os.path.dirname(os.path.dirname(experiment.__file__))
        code = ("import sys, xlwalk\n"
                "from xlwalk.experiment import GraphSpec, DataSpec, ExperimentConfig, run_many\n"
                "cfg = ExperimentConfig(graph=GraphSpec(nodes=12, cliques=3), jumps=3,\n"
                "                       data=DataSpec(classes=4, dims=4, per_class=20))\n"
                "run_many([(cfg, 0), (cfg, 1)], threads=1)\n"
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestSimulation:
    @pytest.mark.parametrize("other, seed", [
        ({"graph": GraphSpec(kind="caveman", nodes=16, cliques=4)}, 0),
        ({"data": DataSpec(classes=4, dims=6, per_class=60, val_frac=0.25, sep=2.5)}, 0),
        ({"partition": PartitionSpec(kind="label_skew", skew_frac=0.5)}, 0),
        ({}, 1),
    ], ids=["graph", "data", "partition", "seed"])
    def test_rejects_an_environment_built_for_another_world(self, other, seed):
        cfg = small_config(jumps=3)
        env = build_environment(replace(cfg, **other), seed)
        with pytest.raises(ConfigError, match="another graph, data, partition or seed"):
            simulate(env, [(cfg, 0)])
        simulate(env, [(replace(cfg, walkers=2, jumps=2, **other), seed)])  # same world, other walkers

    def test_visit_events_every_jump(self):
        cfg = small_config()
        res = run_single(cfg, seed=0)
        visits = [ev for ev in res.events if ev["kind"] == "visit"]
        assert len(visits) == cfg.jumps
        assert [ev["t"] for ev in visits] == list(range(1, cfg.jumps + 1))

    def test_eval_cadence(self):
        cfg = small_config(eval_every=5, jumps=30)
        res = run_single(cfg, seed=0)
        ts = sorted({row[0] for row in res.metrics.rows})
        assert ts == [0, 5, 10, 15, 20, 25, 30]

    def test_single_walker_attraction_never_fires(self):
        cfg = small_config(
            walkers=1,
            attraction=AttractionSpec(enabled=True, strength=5.0, base_coeff=1.0),
        )
        res = run_single(cfg, seed=0)
        kinds = {ev["kind"] for ev in res.events}
        assert "pursuit_start" not in kinds and "collide" not in kinds

    def test_rendezvous_schedule(self):
        cfg = small_config(walkers=3, rendezvous=RendezvousSpec(enabled=True, every=10, node=0))
        res = run_single(cfg, seed=0)
        meets = [ev for ev in res.events if ev["kind"] == "rendezvous"]
        assert [ev["t"] for ev in meets] == [10, 20, 30]
        assert all(ev["node"] == 0 for ev in meets)

    def test_uplink_aggregates_every_jump(self):
        cfg = small_config(walkers=2, uplink=True, jumps=10)
        res = run_single(cfg, seed=0)
        ups = [ev for ev in res.events if ev["kind"] == "collide" and ev["trigger"] == "uplink"]
        assert len(ups) == 10
        assert all(ev["node"] is None for ev in ups)

    def test_dynamic_mode_logs_alpha(self):
        cfg = small_config(policy=PolicySpec(kind=IMPORTANCE_DYNAMIC), jumps=5, eval_every=1)
        res = run_single(cfg, seed=0)
        visits = [ev for ev in res.events if ev["kind"] == "visit"]
        assert all("alpha_inst" in ev for ev in visits)
        assert all(0.10 <= ev["alpha_inst"] <= 0.85 for ev in visits)

    def test_collisions_see_merged_models(self, monkeypatch):
        """The memory merge precedes the collisions: every walker meets holding im is sm."""
        seen = []
        real = swarm.collide

        def spy(s, group, *args, **kwargs):
            seen.extend(s.walkers[r].im is s.walkers[r].sm for r in group)
            return real(s, group, *args, **kwargs)

        monkeypatch.setattr(swarm, "collide", spy)
        run_single(mini6_config(memory=walker.MemorySpec(enabled=True, schedule=((0, 0.2),))), seed=0)
        assert seen and all(seen)

    def test_memory_beta_logged(self):
        cfg = small_config(jumps=9)
        cfg = replace(
            cfg, memory=replace(cfg.memory, enabled=True, schedule=((0, 0.0), (3, 0.2), (6, 0.4)))
        )
        res = run_single(cfg, seed=0)
        betas = [ev["beta"] for ev in res.events if ev["kind"] == "visit"]
        assert betas == [0.0, 0.0, 0.2, 0.2, 0.2, 0.4, 0.4, 0.4, 0.4]


class TestVisitBudget:
    """Each visit trains for its node's budget; `walker.visit` skips an empty node, and says so."""

    @pytest.mark.parametrize("elastic", [False, True])
    def test_empty_nodes_take_no_steps(self, caplog, elastic):
        cfg = ExperimentConfig(
            name="sparse",
            graph=GraphSpec(kind="caveman", nodes=16, cliques=4),
            data=DataSpec(classes=2, dims=4, per_class=4),
            learner=LearnerSpec(batch_size=2),
            elastic=ElasticSpec(enabled=elastic),
            iters_per_visit=3,
            walkers=2,
            jumps=40,
            eval_every=20,
        )
        env = build_environment(cfg, seed=0)
        empty = {node for node, y in enumerate(env.node_labels) if y.size == 0}
        assert len(empty) == 10
        part = env.partition

        def expected_iters(node: int) -> int:
            if node in empty:
                return 0
            if not elastic:
                return cfg.iters_per_visit
            quality = policy.data_quality(
                float(part.data_frac[node]), float(part.label_frac[node]), cfg.elastic.tau2
            )
            return policy.elastic_iterations(quality, cfg.elastic)

        with caplog.at_level(logging.DEBUG, logger="xlwalk.walker"):
            res = simulate(env, [(cfg, 0)])[0]
        visits = [ev for ev in res.events if ev["kind"] == "visit"]
        on_empty = [ev for ev in visits if ev["node"] in empty]
        assert on_empty and len(on_empty) < len(visits)
        assert [ev["iters"] for ev in visits] == [expected_iters(ev["node"]) for ev in visits]
        final = {wid: cum for t, wid, _, _, cum in res.metrics.rows if t == cfg.jumps}
        assert final == {wid: sum(ev["iters"] for ev in visits if ev["walker_id"] == wid) for wid in (0, 1)}
        skipped = [rec.getMessage() for rec in caplog.records if "skipped empty node" in rec.getMessage()]
        assert skipped == [f"walker {ev['walker_id']} skipped empty node {ev['node']}" for ev in on_empty]


class TestDynamicModeWork:
    """Dynamic mode evaluates each walker once per jump and builds one row per walker;
    static mode builds one table and no single row."""

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("kind", [IMPORTANCE_DYNAMIC, IMPORTANCE_STATIC])
    def test_evaluate_and_row_counts(self, monkeypatch, kind, eval_every):
        counts = {"evaluate": 0, "rows": 0, "tables": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr("xlwalk.experiment.evaluate", counted("evaluate", learner.evaluate))
        monkeypatch.setattr(policy, "transition_row", counted("rows", policy.transition_row))
        monkeypatch.setattr(policy, "build_transition", counted("tables", policy.build_transition))
        cfg = small_config(policy=PolicySpec(kind=kind), walkers=2, jumps=10, eval_every=eval_every)
        env = build_environment(cfg, seed=0)
        counts.update(evaluate=0, rows=0, tables=0)
        simulate(env, [(cfg, 0)])
        if kind == IMPORTANCE_DYNAMIC:
            assert counts == {"evaluate": 2 * (10 + 1), "rows": 2 * (10 + 1), "tables": 0}
        else:
            assert counts == {"evaluate": 2 * (1 + 10 // eval_every), "rows": 0, "tables": 1}

    @pytest.mark.parametrize("confine", [False, True])
    def test_sampled_rows_match_full_build(self, monkeypatch, confine):
        cfg = small_config(policy=PolicySpec(kind=IMPORTANCE_DYNAMIC), walkers=2, jumps=20,
                           eval_every=1, confine_cliques=confine)
        env = build_environment(cfg, seed=0)
        computed, refreshed, sampled = [], {}, []  # rows built, the last refresh's row per walker
        real_step, real_refresh = walker.step, walker.perception_refresh

        def row_spy(real):
            def spy(*args):
                out = real(*args)
                computed.append(out[:2])
                return out
            return spy

        def refresh_spy(w, *args):
            computed.clear()
            real_refresh(w, *args)
            refreshed[w.id] = computed[-1]  # the confined cut when confined, else the full row

        def step_spy(w):
            accuracy = learner.evaluate(w.im, env.val_features, env.val_labels)[1]
            sampled.append((w.position, accuracy, w.policy.row(w.position)[0], *refreshed[w.id], w.row_cdf))
            return real_step(w)

        monkeypatch.setattr(policy, "transition_row", row_spy(policy.transition_row))
        monkeypatch.setattr(policy, "confined_row", row_spy(policy.confined_row))
        monkeypatch.setattr(walker, "perception_refresh", refresh_spy)
        monkeypatch.setattr(walker, "step", step_spy)
        simulate(env, [(cfg, 0)])
        assert len(sampled) == 2 * 20
        g, part = env.graph, env.partition
        for position, accuracy, targets, refreshed_targets, probs, cdf in sampled:
            alpha = policy.accuracy_scaled_alpha(accuracy, PolicySpec())
            imp = policy.importance_vector(
                part.data_frac, part.label_frac, np.array(env.centrality.normalized), alpha
            )
            full = policy.build_transition(g, imp)
            if confine:  # confined walkers never leave their home clique here
                full = clique_confined_policy(g, full)
            want_targets, want_probs = full.row(position)
            assert np.array_equal(targets, want_targets)
            assert np.array_equal(refreshed_targets, want_targets)
            assert probs.tobytes() == want_probs.tobytes()
            assert cdf.tobytes() == np.cumsum(want_probs).tobytes()


    @pytest.mark.parametrize("confine", [False, True])
    def test_a_run_builds_one_table_and_never_writes_it(self, monkeypatch, confine):
        cfg = small_config(policy=PolicySpec(kind=IMPORTANCE_DYNAMIC), walkers=3, jumps=20,
                           confine_cliques=confine)
        env = build_environment(cfg, seed=0)
        tables, stepped = [], set()
        real_base, real_step = experiment._base_policy, walker.step

        def base_spy(env, cfg):
            pol = real_base(env, cfg)
            tables.append((pol, [a.tobytes() for a in (pol.indptr, pol.targets, pol.probs, pol.cdf)]))
            return pol

        def step_spy(w):
            stepped.add(id(w.policy))
            return real_step(w)

        monkeypatch.setattr(experiment, "_base_policy", base_spy)
        monkeypatch.setattr(walker, "step", step_spy)
        simulate(env, [(cfg, 0)])
        [(pol, before)] = tables
        assert stepped == {id(pol)}
        assert [a.tobytes() for a in (pol.indptr, pol.targets, pol.probs, pol.cdf)] == before


class TestLazyBetweenness:
    """A world computes its betweenness on first read: importance runs read it, and no other run does."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The graphs topology.betweenness is called on."""
        calls = []
        real = topology.betweenness

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(topology, "betweenness", counted)
        return calls

    @pytest.fixture
    def forbidden(self, monkeypatch):
        def fail(g):
            raise AssertionError("betweenness computed for a run that never weighs importance")

        monkeypatch.setattr(topology, "betweenness", fail)

    @pytest.mark.parametrize("kind", [UNIFORM, MH])
    def test_uniform_and_mh_runs_never_compute_it(self, forbidden, kind):
        cfg = small_config(policy=PolicySpec(kind=kind), walkers=2, jumps=10)
        simulate(build_environment(cfg, seed=0), [(cfg, 0)])

    def test_uniform_world_never_computes_it(self, forbidden):
        cfg = small_config(policy=PolicySpec(kind=UNIFORM), walkers=3, jumps=10, uplink=True)
        run_many([(replace(cfg, name=f"u{i}"), seed) for i in range(2) for seed in (0, 1)], threads=1)

    @pytest.mark.parametrize("kind", [IMPORTANCE_STATIC, IMPORTANCE_DYNAMIC])
    def test_importance_runs_compute_it_once(self, calls, kind):
        cfg = small_config(policy=PolicySpec(kind=kind), walkers=2, jumps=10)
        env = build_environment(cfg, seed=0)
        assert calls == []
        simulate(env, [(cfg, 0)])
        simulate(env, [(cfg, 0)])
        assert calls == [env.graph]

    def test_shared_world_computes_it_once(self, calls):
        cfg = small_config(jumps=10)
        cells = [(replace(cfg, name=kind, policy=PolicySpec(kind=kind)), 0)
                 for kind in (UNIFORM, MH, IMPORTANCE_STATIC, IMPORTANCE_DYNAMIC)]
        results = run_many(cells, threads=1)
        assert len(calls) == 1
        for cell, res in zip(cells, results):  # the same results as on a fresh world
            assert res.metrics == run_single(*cell).metrics


def chain_law_bound(mat, start, steps):
    """Stationary law pi of a reversible chain, and `TestChainLaw`'s bound on the total
    variation between pi and the visit frequencies of a steps-long walk from start."""
    vals, vecs = np.linalg.eig(mat.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    pi = pi / pi.sum()
    flow = pi[:, None] * mat
    assert np.allclose(flow, flow.T, atol=1e-12)  # detailed balance: the chain is reversible
    gap = 1.0 - np.sort(np.abs(vals))[-2]
    assert gap > 0.0
    expected = 0.5 * np.sqrt(2.0 * pi * (1.0 - pi) / (gap * steps)).sum()
    expected += 0.5 * np.sqrt((1.0 - pi[start]) / pi[start]) / (gap * steps)
    return pi, 3.0 * expected


class TestRunVisitLaw:
    """A lone walker run by `simulate` visits nodes at the stationary law of its run's rows.

    The per-node counts of the run's visit events are checked against pi of
    the rows `_base_policy` builds, under `TestChainLaw`'s total-variation
    bound. Batches of one sample in two dimensions keep each jump cheap.
    """

    STEPS = 40_000

    @pytest.mark.parametrize("kind, confine", [
        (UNIFORM, False), (MH, False), (IMPORTANCE_STATIC, False), (IMPORTANCE_STATIC, True),
    ])
    def test_visit_counts_match_stationary_law(self, kind, confine):
        cfg = ExperimentConfig(
            graph=GraphSpec(kind="caveman", nodes=15, cliques=3),
            data=DataSpec(classes=3, dims=2, per_class=20, val_frac=0.25),
            learner=LearnerSpec(batch_size=1),
            policy=PolicySpec(kind=kind),
            iters_per_visit=1,
            confine_cliques=confine,
            jumps=self.STEPS,
            eval_every=self.STEPS,
        )
        env = build_environment(cfg, seed=0)
        g = env.graph
        start = experiment._initial_walkers(env, cfg, 0, [0])[0].position
        # confined, the chain is irreducible on the start clique alone
        nodes = g.clique_members(g.clique_of[start]) if confine else list(range(g.node_count))
        mat = policy_matrix(experiment._base_policy(env, cfg))[np.ix_(nodes, nodes)]
        pi, bound = chain_law_bound(mat, nodes.index(start), self.STEPS)

        res = simulate(env, [(cfg, 0)])[0]
        visited = [ev["node"] for ev in res.events if ev["kind"] == "visit"]
        counts = np.bincount(visited, minlength=g.node_count)
        assert len(visited) == counts[nodes].sum() == self.STEPS  # the walk never left its nodes
        tv = 0.5 * np.abs(counts[nodes] / self.STEPS - pi).sum()
        assert tv <= bound, (kind, confine, tv, bound)


class TestSharedModelEvaluation:
    """Walkers holding one merged model object are scored once per evaluation tick."""

    def _count_evaluations(self, monkeypatch, cfg):
        calls = []
        real = learner.evaluate

        def counted(m, features, labels):
            calls.append(m)
            return real(m, features, labels)

        monkeypatch.setattr("xlwalk.experiment.evaluate", counted)
        env = build_environment(cfg, seed=0)
        assert all(x.shape[0] > 0 for x in env.node_features)  # every visit trains
        res = simulate(env, [(cfg, 0)])[0]
        return len(calls), res

    @pytest.mark.parametrize("eval_every", [1, 3])
    def test_uplink_scores_one_model_per_tick(self, monkeypatch, eval_every):
        cfg = small_config(walkers=3, uplink=True, jumps=12, eval_every=eval_every)
        calls, res = self._count_evaluations(monkeypatch, cfg)
        assert calls == cfg.walkers + cfg.jumps // eval_every
        for t in range(eval_every, cfg.jumps + 1, eval_every):
            scores = {(loss, acc) for tt, _, loss, acc, _ in res.metrics.rows if tt == t}
            assert len(scores) == 1

    def test_rendezvous_ticks_share_and_others_do_not(self, monkeypatch):
        cfg = small_config(walkers=3, rendezvous=RendezvousSpec(enabled=True, every=10, node=0),
                           jumps=20, eval_every=5)
        calls, _ = self._count_evaluations(monkeypatch, cfg)
        # t=0, 5 and 15 score every walker; t=10 and 20 follow a rendezvous
        assert calls == 3 * 3 + 2


class TestNonInteraction:
    def test_multiwalker_decomposes_into_single_runs(self):
        """Zero attraction floor and no rendezvous: walkers evolve independently."""
        cfg = small_config(
            walkers=3,
            attraction=AttractionSpec(enabled=True, strength=1.0, base_coeff=0.0),
        )
        env = build_environment(cfg, seed=5)
        multi = simulate(env, [(cfg, 5)])[0]
        multi_visits = {
            wid: [ev["node"] for ev in multi.events if ev["kind"] == "visit" and ev["walker_id"] == wid]
            for wid in range(3)
        }
        for wid in range(3):
            solo = simulate(env, [(cfg, 5, [wid])])[0]
            solo_visits = [ev["node"] for ev in solo.events if ev["kind"] == "visit"]
            assert solo_visits == multi_visits[wid]
            solo_rows = [r for r in solo.metrics.rows]
            multi_rows = [r for r in multi.metrics.rows if r[1] == wid]
            assert solo_rows == multi_rows


    @pytest.mark.parametrize("walker_ids", [[], [0, 0], [-1], [2], [5, 1], [1, 0]])
    def test_walker_ids_outside_the_run_are_rejected(self, walker_ids):
        cfg = small_config(walkers=2, jumps=3)
        env = build_environment(cfg, seed=0)
        with pytest.raises(ConfigError, match="walker_ids must be"):
            simulate(env, [(cfg, 0, walker_ids)])


class TestSweep:
    def test_walker_sweep_shape(self):
        cfg = small_config(jumps=10)
        results = run_sweep(cfg, "walkers", [1, 2], seeds=[0, 1])
        assert [r.metrics.series for r in results] == ["walkers=1"] * 2 + ["walkers=2"] * 2
        assert [r.metrics.seed for r in results] == [0, 1, 0, 1]

    def test_degenerate_sweep_equals_run_single(self):
        cfg = small_config(jumps=10)
        swept = run_sweep(cfg, "policy.alpha", [0.5], seeds=[0])[0]
        single = run_single(replace(cfg, series="policy.alpha=0.5"), 0)
        assert events_equal(swept.events, single.events)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            run_sweep(small_config(), "data.nonsense", [1], seeds=[0])

    def test_empty_values(self):
        with pytest.raises(ConfigError):
            run_sweep(small_config(), "walkers", [], seeds=[0])

    @pytest.mark.parametrize("values", [[2, 2], [1, 3, 1], [True, "True"]])
    def test_repeated_series_rejected_before_any_world(self, monkeypatch, values):
        def no_world(*args):
            raise AssertionError("a world was built")

        monkeypatch.setattr(experiment, "build_environment", no_world)
        with pytest.raises(ConfigError, match="sweep values must not repeat"):
            run_sweep(small_config(), "jumps", values, seeds=[0])


@pytest.fixture(scope="module")
def records():
    cfg = small_config(jumps=10, eval_every=2)
    return [run_single(cfg, s).metrics for s in (0, 1, 2)]


class TestSummaries:

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])

    def test_duplicates_rejected(self, records):
        with pytest.raises(ConfigError):
            summarize([records[0], records[0]])

    def test_single_run_has_zero_std(self, records):
        text = summarize(records[:1])
        for line in text.splitlines()[1:]:
            parts = line.split(",")
            assert float(parts[4]) == 0.0

    def test_identical_runs_mean_equals_value(self, records):
        rec = records[0]
        clone = replace(rec, seed=rec.seed + 100)
        text_two = summarize([rec, clone])
        text_one = summarize([rec])
        mean_two = text_two.splitlines()[1].split(",")[3]
        mean_one = text_one.splitlines()[1].split(",")[3]
        assert mean_two == mean_one

    def test_deterministic_output(self, records):
        assert summarize(records) == summarize(list(records))

    def test_metrics_csv_roundtrip(self, records):
        text = metrics_to_csv(records)
        back = metrics_from_csv(text)
        assert len(back) == len(records)
        for orig, rec in zip(records, back):
            assert rec.series == orig.series
            assert rec.seed == orig.seed
            assert rec.rows == orig.rows
            assert rec.final_accuracy == orig.final_accuracy

    def test_records_replayed_from_events_equal_the_run_records(self):
        """With events, the rows after jump 0 and the collisions are replayed, in file order."""
        results = [run_single(small_config(walkers=3, uplink=True), seed) for seed in (1, 0)]
        records = [res.metrics for res in results]
        events = [ev for res in results for ev in res.events]
        assert metrics_from_csv(metrics_to_csv(records), events) == records


def reference_summarize(records):
    """The per-jump `summarize` the array-reduction one must reproduce byte for byte.

    Each run's value at a jump is `np.mean` or `np.sum` over that jump's rows
    in row order; each reported jump's across-seed mean and std is one
    `np.mean`/`np.std` call over a list of the runs' values.
    """
    if not records:
        raise ConfigError("nothing to summarize")
    seen = set()
    for rec in records:
        key = (rec.series, rec.seed)
        if key in seen:
            raise ConfigError(f"duplicate run for series={rec.series} seed={rec.seed}")
        seen.add(key)

    def mean_std(values):
        arr = np.array(values, dtype=np.float64)
        return float(arr.mean()), float(arr.std())

    by_series = {}
    for rec in records:
        by_series.setdefault(rec.series, []).append(rec)

    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["table", "series", "t", "mean", "std", "count"])

    def per_jump(rec, col, reduce):
        by_t = {}
        for row in rec.rows:
            by_t.setdefault(row[0], []).append(float(row[col]))
        return {t: float(reduce(vals)) for t, vals in by_t.items()}

    for table, col, reduce in (("accuracy_vs_jump", 3, np.mean), ("cum_sgd_vs_jump", 4, np.sum)):
        for series in sorted(by_series):
            recs = by_series[series]
            curves = [per_jump(rec, col, reduce) for rec in recs]
            for t in sorted(set.intersection(*[set(c) for c in curves])):
                mean, std = mean_std([c[t] for c in curves])
                w.writerow([table, series, t, repr(mean), repr(std), len(recs)])
    for series in sorted(by_series):
        recs = by_series[series]
        mean, std = mean_std([rec.final_accuracy for rec in recs])
        w.writerow(["final_accuracy", series, "", repr(mean), repr(std), len(recs)])
    for series in sorted(by_series):
        recs = by_series[series]
        per_run = [float(np.mean(rec.collision_intervals)) for rec in recs if rec.collision_intervals]
        n_events = sum(rec.collision_count for rec in recs)
        if per_run:
            mean, std = mean_std(per_run)
            w.writerow(["collision_interval", series, "", repr(mean), repr(std), n_events])
    return out.getvalue()


def synthetic_records(n_seeds, n_walkers, seed=0, jumps=range(0, 41, 4), series="s"):
    """Runs with random accuracies and step counts: `n_walkers` rows per jump, in t order."""
    rng = np.random.default_rng([seed, n_seeds, n_walkers])
    records = []
    for run in range(n_seeds):
        rows = [(t, wid, float(rng.random()), float(rng.random()), int(rng.integers(0, 10_000)))
                for t in jumps for wid in range(n_walkers)]
        records.append(experiment.MetricsRecord(
            series=series, seed=run, walker_ids=list(range(n_walkers)), rows=rows,
            collision_count=int(rng.integers(0, 5)), collision_intervals=[int(v) for v in rng.integers(0, 30, 3)],
            final_accuracy=float(rng.random()),
        ))
    return records


class TestSummarizeMatchesReference:
    """`summarize` writes exactly `reference_summarize`'s bytes, past the pairwise-sum boundary of 8."""

    @pytest.mark.parametrize("n_walkers", [1, 3, 8, 9, 14])
    @pytest.mark.parametrize("n_seeds", [1, 2, 8, 9, 16, 130])
    def test_synthetic_runs(self, n_seeds, n_walkers):
        records = synthetic_records(n_seeds, n_walkers)
        assert summarize(records) == reference_summarize(records)

    def test_several_series(self):
        records = (synthetic_records(9, 3, series="b") + synthetic_records(2, 14, series="a")
                   + synthetic_records(17, 8, series="c"))
        assert summarize(records) == reference_summarize(records)

    def test_runs_with_different_jumps_report_the_shared_ones(self):
        records = [replace(rec, seed=i, rows=[r for r in rec.rows if r[0] % (i + 1) == 0 or r[0] > 30])
                   for i, rec in enumerate(synthetic_records(9, 9, jumps=range(0, 41)))]
        text = summarize(records)
        assert text == reference_summarize(records)
        jumps = [int(line.split(",")[2]) for line in text.splitlines() if line.startswith("accuracy_vs_jump")]
        assert jumps == [0, *range(31, 41)]  # only jump 0 is a multiple of every run's step 1..9

    @pytest.mark.parametrize("n_walkers", [2, 9, 14])
    def test_walker_missing_at_one_jump(self, n_walkers):
        records = synthetic_records(9, n_walkers)
        rows = records[4].rows
        records[4] = replace(records[4], rows=rows[:n_walkers + 1] + rows[n_walkers + 2:])
        assert summarize(records) == reference_summarize(records)

    @pytest.mark.parametrize("n_walkers", [3, 9])
    def test_rows_out_of_jump_order(self, n_walkers):
        records = synthetic_records(8, n_walkers)
        for i, rec in enumerate(records):
            rows = list(rec.rows)
            np.random.default_rng(i).shuffle(rows)
            records[i] = replace(rec, rows=rows)
        assert summarize(records) == reference_summarize(records)

    def test_simulated_runs(self, records):
        assert summarize(records) == reference_summarize(records)

    def test_metrics_csv_missing_one_row(self):
        """A metrics.csv read without events, one walker's row at one jump deleted, is summarized as
        the per-jump reference does."""
        cfg = small_config(walkers=4)
        lines = metrics_to_csv([run_single(cfg, seed).metrics for seed in cfg.seeds]).splitlines(keepends=True)
        records = metrics_from_csv("".join(lines[:10] + lines[11:]))
        assert summarize(records) == reference_summarize(records)


def mini6_config(**overrides) -> ExperimentConfig:
    """Four clique-confined walkers under weak attraction: a few co-location collisions in 120 jumps."""
    base = ExperimentConfig(
        name="mini6",
        graph=GraphSpec(kind="caveman", nodes=16, cliques=4),
        data=DataSpec(classes=4, dims=4, per_class=40, val_frac=0.25, sep=2.0),
        partition=PartitionSpec(kind="clique_dominant", dominance=1.0),
        learner=LearnerSpec(batch_size=8),
        policy=PolicySpec(kind="uniform"),
        iters_per_visit=1,
        walkers=4,
        start="per_clique",
        confine_cliques=True,
        attraction=AttractionSpec(enabled=True, strength=0.2, base_coeff=0.01, cooldown_max=3),
        jumps=120,
        eval_every=30,
        seeds=(0,),
    )
    return replace(base, **overrides)


PAIR_CLOCK_VARIANTS = {
    "colocation": {},
    "rendezvous": {"rendezvous": RendezvousSpec(enabled=True, every=7, node=5)},
    "rendezvous+uplink": {"rendezvous": RendezvousSpec(enabled=True, every=7, node=5), "uplink": True},
}


class TestInterCollisionReplay:
    def test_logged_intervals_match_event_replay(self):
        res = run_single(mini6_config(), seed=0)
        collides = [ev for ev in res.events if ev["kind"] == "collide"]
        assert collides, "expected at least one collision in 120 jumps"
        last = {}
        replayed = []
        for ev in collides:
            group = ev["walkers"]
            for i, r in enumerate(group):
                for q in group[i + 1:]:
                    replayed.append(ev["t"] - last.get((r, q), 0))
                    last[(r, q)] = ev["t"]
        assert replayed == res.metrics.collision_intervals
        assert res.metrics.collision_count == len(collides)

    @pytest.mark.parametrize("variant", sorted(PAIR_CLOCK_VARIANTS))
    def test_pair_clocks_equal_replayed_intervals(self, monkeypatch, variant):
        """The clock that drives attraction, t - met_at, reads at each co-location the replayed interval."""
        cfg = mini6_config(**PAIR_CLOCK_VARIANTS[variant])
        stamps = []  # met_at as the collision phase of each jump found it
        real_groups = swarm.colocated_groups

        def spy(s):
            stamps.append(s.met_at.copy())
            return real_groups(s)

        monkeypatch.setattr(swarm, "colocated_groups", spy)
        res = run_single(cfg, seed=0)
        assert len(stamps) == cfg.jumps
        colocations = [ev for ev in res.events if ev["kind"] == "collide" and ev["trigger"] == "colocation"]
        assert colocations, "expected co-location collisions in 120 jumps"
        from_clocks = [
            ev["t"] - int(stamps[ev["t"] - 1][r, q])
            for ev in colocations
            for i, r in enumerate(ev["walkers"])
            for q in ev["walkers"][i + 1:]
        ]
        assert from_clocks == res.metrics.collision_intervals
        assert res.metrics.collision_count == len(colocations)

    def test_confined_walkers_return_home(self):
        cfg = ExperimentConfig(
            name="homing",
            graph=GraphSpec(kind="caveman", nodes=16, cliques=4),
            data=DataSpec(classes=4, dims=4, per_class=40, val_frac=0.25, sep=2.0),
            partition=PartitionSpec(kind="clique_dominant", dominance=1.0),
            learner=LearnerSpec(batch_size=8),
            policy=PolicySpec(kind="uniform"),
            iters_per_visit=1,
            walkers=2,
            start="per_clique",
            confine_cliques=True,
            attraction=AttractionSpec(enabled=True, strength=5.0, base_coeff=1.0, cooldown_max=60),
            jumps=60,
            eval_every=60,
            seeds=(0,),
        )
        res = run_single(cfg, seed=0)
        env = build_environment(cfg, seed=0)
        collides = [ev for ev in res.events if ev["kind"] == "collide"]
        assert len(collides) >= 1
        # after the forced early collision the cooldown holds, so the tail of
        # each trajectory must sit inside the walker's home clique again
        homes = {wid: wid % 4 for wid in (0, 1)}  # per_clique start assignment
        for wid, home in homes.items():
            tail = [
                ev["node"] for ev in res.events
                if ev["kind"] == "visit" and ev["walker_id"] == wid and ev["t"] > 50
            ]
            assert all(env.graph.clique_of[n] == home for n in tail)
