"""Metamorphic relations of `simulate`: pairs of configs that must give the same run.

No reference simulator is needed: each test runs two configs that differ
only in a knob the relation says is inert, on one world, and compares the
rows and the events.jsonl lines. Every relation runs under a static and a
dynamic policy, on clique-confined walkers that pursue, collide and go home.
Two more relations hold over many runs: `run_many` commutes with a
permutation of its cells, and every non-interacting config, generated over
the knobs a walker has alone, decomposes walker by walker.
"""
import json
from dataclasses import replace

import pytest

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
    build_environment,
    run_many,
    simulate,
)
from xlwalk.policy import IMPORTANCE_DYNAMIC, IMPORTANCE_STATIC, MH, UNIFORM, ElasticSpec
from xlwalk.walker import MemorySpec

from .test_experiment import mini6_config

POLICIES = {
    "static": PolicySpec(kind=IMPORTANCE_STATIC, alpha=0.5),
    "dynamic": PolicySpec(kind=IMPORTANCE_DYNAMIC),
}

# Variants of the four-walker base that each relation also runs on.
VARIANTS = {
    "attraction": {},
    "memory+rendezvous": {
        "memory": MemorySpec(enabled=True, schedule=((0, 0.1), (40, 0.3))),
        "rendezvous": RendezvousSpec(enabled=True, every=9, node=5),
    },
}


def base_config(policy: str, variant: str, **overrides):
    return mini6_config(**{"policy": POLICIES[policy], "jumps": 60, "eval_every": 1,
                           **VARIANTS[variant], **overrides})


def run(cfg):
    env = build_environment(cfg, seed=0)
    return simulate(env, [(cfg, 0)])[0]


def lines(events):
    return [json.dumps(ev) for ev in events]


def assert_same_run(a, b):
    assert a.metrics.rows == b.metrics.rows
    assert lines(a.events) == lines(b.events)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
class TestInertKnobs:
    @pytest.mark.parametrize("k", [2, 7])
    def test_eval_every_only_thins_the_rows(self, policy, variant, k):
        """Scoring draws no randomness: the rows at eval_every=k are those at t = 0 mod k of eval_every=1.

        The visit events agree too once the scores they carry are dropped. In
        dynamic mode this holds only if the scoring pass refreshes every jump.
        """
        every = run(base_config(policy, variant))
        thinned = run(base_config(policy, variant, eval_every=k))
        assert [r for r in every.metrics.rows if r[0] % k == 0] == thinned.metrics.rows

        def unscored(events):
            return lines([{key: v for key, v in ev.items() if key not in ("loss", "acc")} for ev in events])

        assert unscored(every.events) == unscored(thinned.events)
        assert any(ev["kind"] == "collide" for ev in every.events)

    def test_rendezvous_past_the_last_jump_changes_nothing(self, policy, variant):
        cfg = base_config(policy, variant, rendezvous=RendezvousSpec())
        late = replace(cfg, rendezvous=RendezvousSpec(enabled=True, every=cfg.jumps + 1, node=5))
        assert_same_run(run(cfg), run(late))

    def test_uplink_of_one_walker_changes_nothing(self, policy, variant):
        cfg = base_config(policy, variant, walkers=1)
        assert_same_run(run(cfg), run(replace(cfg, uplink=True)))

    def test_zero_trigger_floor_equals_no_attraction(self, policy, variant):
        cfg = base_config(policy, variant, attraction=AttractionSpec())
        floor0 = replace(cfg, attraction=AttractionSpec(enabled=True, strength=0.5, base_coeff=0.0))
        assert_same_run(run(cfg), run(floor0))


def same_result(a, b) -> bool:
    return (a.run_id, lines(a.events), a.metrics) == (b.run_id, lines(b.events), b.metrics)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_many_commutes_with_a_permutation_of_its_cells(threads):
    """Cells over two worlds and three series, in a fixed order and permuted: result i of the
    permuted list is result perm[i] of the first, whichever slice of the world order ran it."""
    cfgs = [
        base_config("static", "attraction", jumps=20, series="a"),
        base_config("dynamic", "memory+rendezvous", jumps=20, series="b"),
        base_config("static", "attraction", jumps=20, series="c", graph=GraphSpec(nodes=20, cliques=4)),
    ]
    cells = [(cfg, seed) for cfg in cfgs for seed in (0, 1)]
    results = run_many(cells, threads=1)
    for perm in ([5, 4, 3, 2, 1, 0], [3, 0, 5, 1, 4, 2]):
        permuted = run_many([cells[i] for i in perm], threads=threads)
        assert all(same_result(res, results[i]) for res, i in zip(permuted, perm))


def test_every_non_interacting_config_decomposes():
    """Each walker of a generated non-interacting run (attraction off or with a zero trigger
    floor, rendezvous off or past the last jump, no uplink) logs the same visit events and
    metric rows as the same walker run alone, and the run logs nothing else."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    @st.composite
    def configs(draw):
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
            learner=LearnerSpec(arch=draw(st.sampled_from(["softmax", "mlp"])), hidden=3, batch_size=4),
            policy=PolicySpec(kind=draw(st.sampled_from(
                [UNIFORM, IMPORTANCE_STATIC, IMPORTANCE_DYNAMIC] + ([] if confine else [MH])))),
            elastic=ElasticSpec(enabled=draw(st.booleans()), x_max=3),
            iters_per_visit=draw(st.integers(1, 3)),
            walkers=draw(st.integers(1, 6)),
            start=draw(st.sampled_from(["random", "per_clique"] if caveman else ["random"])),
            memory=MemorySpec(enabled=draw(st.booleans()), schedule=((0, 0.2), (jumps // 2 + 1, 0.5))),
            attraction=draw(st.sampled_from([AttractionSpec(), AttractionSpec(enabled=True, base_coeff=0.0)])),
            rendezvous=draw(st.sampled_from([RendezvousSpec(), RendezvousSpec(enabled=True, every=jumps + 1)])),
            confine_cliques=confine,
            jumps=jumps,
            eval_every=draw(st.integers(1, 5)),
        )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(cfg=configs(), seed=st.integers(0, 3))
    def check(cfg, seed):
        try:
            env = build_environment(cfg, seed)
        except GenerationError:  # a geometric graph may stay disconnected after its retries
            assume(False)
        multi = simulate(env, [(cfg, seed)])[0]
        assert all(ev["kind"] == "visit" for ev in multi.events)
        for wid in range(cfg.walkers):
            solo = simulate(env, [(cfg, seed, [wid])])[0]
            assert lines(solo.events) == lines([ev for ev in multi.events if ev["walker_id"] == wid])
            assert solo.metrics.rows == [r for r in multi.metrics.rows if r[1] == wid]

    check()
