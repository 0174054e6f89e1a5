"""Metamorphic relations of `simulate`: pairs of configs that must give the same run.

No reference simulator is needed: each test runs two configs that differ
only in a knob the relation says is inert, on one world, and compares the
rows and the events.jsonl lines. Every relation runs under a static and a
dynamic policy, on clique-confined walkers that pursue, collide and go home.
"""
import json
from dataclasses import replace

import pytest

from xlwalk.experiment import AttractionSpec, PolicySpec, RendezvousSpec, build_environment, simulate
from xlwalk.policy import IMPORTANCE_DYNAMIC, IMPORTANCE_STATIC
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
    return simulate(env, cfg, seed=0)


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
