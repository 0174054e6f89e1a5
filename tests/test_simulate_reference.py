"""`simulate` against a reference simulator on generated interacting configs and batches.

`reference_simulate` is a plain copy of the simulator's jump loop and its
phases, written one walker at a time. It trains with the per-step
`reference_sgd_steps` loop and scores with the sample-major
`reference_evaluate`, and it shares with the library only what the phases
call: the walker, swarm and policy primitives and the run's initial state.
A generated config runs through both, and the two `RunResult`s, events and
metric rows, must be equal. The reference records its metric rows as it
scores, so the library's rows, replayed from its visit events, are checked
against rows recorded independently. A generated batch of cells on one world runs
through `simulate` at once, and each of its results must equal the
reference run of that cell alone.
"""
from dataclasses import dataclass, field, replace

import pytest

from xlwalk import experiment, swarm, topology, walker
from xlwalk.errors import GenerationError
from xlwalk.experiment import (
    AttractionSpec,
    DataSpec,
    ExperimentConfig,
    GraphSpec,
    LearnerSpec,
    PartitionSpec,
    PolicySpec,
    RendezvousSpec,
    RunResult,
    build_environment,
    simulate,
)
from xlwalk.policy import IMPORTANCE_DYNAMIC, IMPORTANCE_STATIC, MH, UNIFORM, ElasticSpec
from xlwalk.walker import MemorySpec

from .test_learner import reference_evaluate, reference_sgd_steps


@dataclass(eq=False)
class RefRun:
    cfg: ExperimentConfig
    env: experiment.Environment
    run_id: str
    swarm: swarm.SwarmState
    interactions_on: bool
    rng_interaction: object
    budget: list
    events: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    visits: list = field(default_factory=list)

    def ids(self, group):
        return [self.swarm.walkers[i].id for i in group]

    def log(self, t, kind, **fields):
        ev = {"run_id": self.run_id, "t": t, "kind": kind, **fields}
        self.events.append(ev)
        return ev

    def log_pursuits(self, t, kind, pairs, **extra):
        for pair in pairs:
            self.events.append({"kind": kind, "walkers": self.ids(pair), "run_id": self.run_id, "t": t, **extra})


def ref_attract(run, t):
    if run.interactions_on:
        started = swarm.tick_attraction(run.swarm, run.cfg.attraction, run.rng_interaction, t)
        run.log_pursuits(t, "pursuit_start", started)


def ref_move(run, t):
    s, g = run.swarm, run.env.graph
    for idx, w in enumerate(s.walkers):
        target = swarm.steer_target(s, idx)
        if target is None:
            walker.step(w)
        elif target != w.position:
            w.position = topology.next_hop_toward(g, w.position, target)
        if s.homing[idx] is not None and g.clique_of[w.position] == w.home_clique:
            s.homing[idx] = None


def ref_train(run, t):
    env, spec = run.env, run.cfg.learner
    run.visits = []
    for w in run.swarm.walkers:
        node = w.position
        iters = run.budget[node]
        if env.node_labels[node].shape[0] > 0:
            w.im = reference_sgd_steps(w.im, env.node_features[node], env.node_labels[node], iters, spec, w.rng)
            w.samples_since_agg += iters * spec.batch_size
            w.cum_iters += iters
        run.visits.append(run.log(t, "visit", walker_id=w.id, node=node, iters=iters))


def ref_merge_memory(run, t):
    if run.cfg.memory.enabled:
        beta = run.cfg.memory.beta_at(t)
        walkers = run.swarm.walkers
        for idx, w in enumerate(walkers):
            walkers[idx] = walker.memory_merge(w, beta)
            run.visits[idx]["beta"] = beta


def ref_collisions(run, t):
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


def ref_score(run, t):
    cfg, env = run.cfg, run.env
    dynamic = cfg.policy.kind == IMPORTANCE_DYNAMIC
    logged = t % cfg.eval_every == 0
    if not (dynamic or logged):
        return
    for idx, w in enumerate(run.swarm.walkers):
        loss, acc = reference_evaluate(w.im, env.val_features, env.val_labels)
        if dynamic:
            walker.perception_refresh(w, acc, cfg.policy, env.partition.data_frac, env.partition.label_frac,
                                      env.centrality.normalized, env.graph)
            run.visits[idx]["alpha_inst"] = w.alpha
        if logged:
            run.rows.append((t, w.id, loss, acc, w.cum_iters))
            run.visits[idx].update(loss=loss, acc=acc)


REF_PHASES = (ref_attract, ref_move, ref_train, ref_merge_memory, ref_collisions, ref_score)


def reference_simulate(env, cfg, seed, walker_ids=None):
    """One run of cfg's walkers, all of them by default, phase by phase and walker by walker."""
    ids = list(range(cfg.walkers)) if walker_ids is None else list(walker_ids)
    run = RefRun(
        cfg=cfg,
        env=env,
        run_id=f"{cfg.series_label}:{seed}",
        swarm=swarm.new_swarm(experiment._initial_walkers(env, cfg, seed, ids)),
        interactions_on=cfg.attraction.enabled and cfg.attraction.base_coeff > 0.0 and len(ids) > 1,
        rng_interaction=experiment.interaction_rng(seed),
        budget=experiment._visit_budget(env, cfg),
        visits=[{} for _ in ids],
    )
    ref_score(run, 0)
    for t in range(1, cfg.jumps + 1):
        for phase in REF_PHASES:
            phase(run, t)
    _, tally = experiment._replay(run.events).get(run.run_id, ([], (0, [])))
    metrics = experiment._metrics_record(cfg.series_label, seed, run.rows, tally)
    return RunResult(run_id=run.run_id, events=run.events, metrics=metrics)


def configs():
    """A hypothesis strategy of small worlds over every knob that makes walkers interact or
    train unevenly: policy kind, elastic budgets, memory, attraction, rendezvous, uplink,
    confinement, start mode, eval_every and arch. Imports hypothesis when called."""
    from hypothesis import strategies as st

    @st.composite
    def config(draw):
        caveman = draw(st.booleans())
        nodes, classes = draw(st.integers(8, 30)), draw(st.integers(2, 4))
        confine = caveman and draw(st.booleans())
        jumps = draw(st.integers(1, 30))
        return ExperimentConfig(
            graph=(GraphSpec(kind="caveman", nodes=nodes, cliques=draw(st.integers(2, classes))) if caveman
                   else GraphSpec(kind="rgg", nodes=nodes, radius=0.6, max_retries=20)),
            data=DataSpec(classes=classes, dims=draw(st.integers(1, 4)), per_class=draw(st.integers(4, 12)),
                          val_frac=0.25, sep=2.0),
            partition=(PartitionSpec(kind="clique_dominant", dominance=draw(st.sampled_from([0.5, 1.0])))
                       if caveman and draw(st.booleans()) else PartitionSpec(skew_frac=0.9)),
            learner=LearnerSpec(arch=draw(st.sampled_from(["softmax", "mlp"])), hidden=3,
                                batch_size=draw(st.sampled_from([1, 4])), l2=draw(st.sampled_from([0.0, 0.01]))),
            policy=PolicySpec(kind=draw(st.sampled_from(
                [UNIFORM, IMPORTANCE_STATIC, IMPORTANCE_DYNAMIC] + ([] if confine else [MH])))),
            elastic=ElasticSpec(enabled=draw(st.booleans()), x_max=draw(st.sampled_from([1, 3, 8, 40])),
                                 tau1=draw(st.sampled_from([2.0, 10.0]))),
            iters_per_visit=draw(st.integers(1, 3)),
            walkers=draw(st.integers(1, 6)),
            start=draw(st.sampled_from(["random", "per_clique"] if caveman else ["random"])),
            memory=MemorySpec(enabled=draw(st.booleans()), schedule=((0, 0.2), (jumps // 2 + 1, 0.5))),
            attraction=AttractionSpec(enabled=draw(st.booleans()), strength=draw(st.sampled_from([0.0, 0.3])),
                                      base_coeff=draw(st.sampled_from([0.0, 0.05, 0.5])),
                                      cooldown_max=draw(st.integers(0, 3))),
            rendezvous=RendezvousSpec(enabled=draw(st.booleans()), every=draw(st.integers(1, 10)),
                                      node=draw(st.integers(0, nodes - 1))),
            confine_cliques=confine,
            uplink=draw(st.booleans()),
            jumps=jumps,
            eval_every=draw(st.integers(1, 5)),
        )

    return config()


def test_simulate_matches_the_reference_on_generated_configs():
    """Both simulators give equal events and metric rows on generated configs."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(cfg=configs(), seed=st.integers(0, 3))
    def check(cfg, seed):
        try:
            env = build_environment(cfg, seed)
        except GenerationError:  # a geometric graph may stay disconnected after its retries
            assume(False)
        assert simulate(env, [(cfg, seed)]) == [reference_simulate(env, cfg, seed)]

    check()


def test_a_batch_matches_each_cell_run_alone():
    """Generated batches of 1-4 cells on one world that mix jumps, eval_every, walker counts and
    subsets, elastic and fixed budgets, both architectures and two learner specs, with and
    without interactions. The batch trains its walkers as shared stacks, and each of its
    results equals the reference run of that cell alone."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    @st.composite
    def batches(draw):
        caveman, classes = draw(st.booleans()), draw(st.integers(2, 4))
        world = ExperimentConfig(
            graph=(GraphSpec(kind="caveman", nodes=draw(st.integers(8, 20)), cliques=draw(st.integers(2, classes)))
                   if caveman else GraphSpec(kind="rgg", nodes=draw(st.integers(8, 20)), radius=0.6, max_retries=20)),
            data=DataSpec(classes=classes, dims=draw(st.integers(1, 4)), per_class=draw(st.integers(4, 10)),
                          val_frac=0.25, sep=2.0),
            partition=PartitionSpec(skew_frac=0.9),
        )
        seed, cells = draw(st.integers(0, 3)), []
        for i in range(draw(st.integers(1, 4))):
            walkers, jumps = draw(st.integers(1, 4)), draw(st.integers(1, 15))
            cfg = replace(
                world,
                name=f"cell{i}",
                learner=LearnerSpec(arch=draw(st.sampled_from(["softmax", "mlp"])), hidden=3, batch_size=4,
                                    **draw(st.sampled_from([{}, {"learning_rate": 0.1, "l2": 0.01}]))),
                policy=PolicySpec(kind=draw(st.sampled_from([UNIFORM, IMPORTANCE_STATIC, IMPORTANCE_DYNAMIC]))),
                elastic=ElasticSpec(enabled=draw(st.booleans()), x_max=draw(st.sampled_from([1, 8, 70])), tau1=10.0),
                iters_per_visit=draw(st.integers(1, 3)),
                walkers=walkers,
                memory=MemorySpec(enabled=draw(st.booleans()), schedule=((0, 0.2), (jumps // 2 + 1, 0.5))),
                attraction=AttractionSpec(enabled=draw(st.booleans()), strength=0.3, base_coeff=0.5, cooldown_max=1),
                uplink=draw(st.booleans()),
                jumps=jumps,
                eval_every=draw(st.integers(1, 4)),
            )
            subset = draw(st.none() | st.sets(st.integers(0, walkers - 1), min_size=1).map(sorted))
            cells.append((cfg, seed) if subset is None else (cfg, seed, subset))
        return cells

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(cells=batches())
    def check(cells):
        try:
            env = build_environment(*cells[0][:2])
        except GenerationError:  # a geometric graph may stay disconnected after its retries
            assume(False)
        assert simulate(env, cells) == [reference_simulate(env, *cell) for cell in cells]

    check()


UNEVEN = {
    # budgets of 52 and 67 steps, so one tick mixes k on both sides of a gather chunk
    "mlp-clique-dominant": ExperimentConfig(
        graph=GraphSpec(kind="caveman", nodes=24, cliques=4),
        data=DataSpec(classes=4, dims=3, per_class=12, val_frac=0.25, sep=2.0),
        partition=PartitionSpec(kind="clique_dominant", dominance=0.5),
        learner=LearnerSpec(arch="mlp", hidden=3, batch_size=4, l2=0.01),
        elastic=ElasticSpec(enabled=True, x_max=80, tau1=10.0),
        walkers=6,
        start="per_clique",
        memory=MemorySpec(enabled=True, schedule=((0, 0.2), (10, 0.5))),
        attraction=AttractionSpec(enabled=True, strength=0.3, base_coeff=0.05, cooldown_max=2),
        jumps=20,
        eval_every=3,
    ),
    # one clique's nodes hold no samples and the others' budgets differ; every tick ends in an uplink
    "softmax-empty-nodes": ExperimentConfig(
        graph=GraphSpec(kind="caveman", nodes=30, cliques=3),
        data=DataSpec(classes=3, dims=3, per_class=16, val_frac=0.25, sep=2.0),
        partition=PartitionSpec(kind="clique_dominant", dominance=1.0),
        learner=LearnerSpec(batch_size=31),
        policy=PolicySpec(kind=IMPORTANCE_DYNAMIC),
        elastic=ElasticSpec(enabled=True, x_max=12, tau1=20.0),
        walkers=5,
        rendezvous=RendezvousSpec(enabled=True, every=4, node=3),
        uplink=True,
        jumps=25,
    ),
}


@pytest.mark.parametrize("name", sorted(UNEVEN))
def test_simulate_matches_the_reference_on_uneven_budgets(name):
    cfg = UNEVEN[name]
    env = build_environment(cfg, 0)
    assert len(set(experiment._visit_budget(env, cfg))) > 2  # unequal steps, or none, within one tick
    assert simulate(env, [(cfg, 0)]) == [reference_simulate(env, cfg, 0)]
