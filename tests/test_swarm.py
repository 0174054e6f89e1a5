import math
from dataclasses import replace

import numpy as np
import pytest

from xlwalk import policy
from xlwalk.errors import ConfigError
from xlwalk.learner import ModelParams, init_model
from xlwalk.policy import build_transition, mh_transition, uniform_transition, validate_policy
from xlwalk.swarm import (
    AttractionSpec,
    attraction_probability,
    clique_confined_policy,
    collide,
    colocated_groups,
    end_pursuits,
    nearest_clique_node,
    new_swarm,
    rendezvous_tick,
    steer_target,
    tick_attraction,
)
from xlwalk.topology import Graph, gen_connected_caveman, next_hop_toward, shortest_path_distances
from xlwalk.walker import WalkerState


def scalar_walker(wid, position, value, samples=0):
    m = ModelParams("softmax", 0, 1, 0, np.array([float(value)]))
    return WalkerState(
        id=wid, position=position, im=m, sm=m, samples_since_agg=samples
    )


def make_swarm(values, positions=None, samples=None):
    positions = positions or [0] * len(values)
    samples = samples or [0] * len(values)
    return new_swarm(
        [scalar_walker(i, p, v, s) for i, (v, p, s) in enumerate(zip(values, positions, samples))]
    )


class CountingRng:
    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class TestAttractionProbability:
    def test_fresh_pair_gets_base_coefficient(self):
        assert attraction_probability(0, AttractionSpec(strength=0.3)) == 0.05

    def test_zero_strength_is_constant(self):
        cfg = AttractionSpec(strength=0.0, base_coeff=0.2)
        assert attraction_probability(0, cfg) == attraction_probability(500, cfg) == 0.2

    def test_caps_at_one(self):
        cfg = AttractionSpec(strength=0.1, base_coeff=0.05)
        assert attraction_probability(30, cfg) == 1.0  # 0.05 * e^3 = 1.0043

    def test_monotone_in_elapsed_and_strength(self):
        cfg = AttractionSpec(strength=0.05, base_coeff=0.01)
        probs = [attraction_probability(t, cfg) for t in range(0, 200, 10)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        stronger = AttractionSpec(strength=0.2, base_coeff=0.01)
        assert attraction_probability(10, stronger) >= attraction_probability(10, cfg)

    def test_huge_exponent_does_not_overflow(self):
        assert attraction_probability(10_000, AttractionSpec(strength=5.0)) == 1.0

    def test_zero_base_disables(self):
        cfg = AttractionSpec(strength=1.0, base_coeff=0.0)
        assert not cfg.enabled
        assert attraction_probability(100, cfg) == 0.0


class TestTickAttraction:
    def test_clocks_advance(self):
        """A pair's clock is t - met_at: it advances with the jump, and a tick writes no pair state."""
        s = make_swarm([1.0, 2.0], positions=[0, 1])
        s.met_at[0, 1] = s.met_at[1, 0] = 3
        s.inert_until[0, 1] = s.inert_until[1, 0] = 5
        stamps = s.met_at.copy(), s.inert_until.copy()
        off = AttractionSpec(enabled=True, strength=0.0, base_coeff=0.0)
        assert tick_attraction(s, off, CountingRng([]), t=9) == []
        cfg = AttractionSpec(strength=math.log(2.0), base_coeff=0.1)  # p = 0.1 * 2 ** (t - 3)
        assert tick_attraction(s, cfg, CountingRng([]), t=4) == []  # inert: no draw
        assert tick_attraction(s, cfg, CountingRng([0.41]), t=5) == []  # p = 0.4
        assert tick_attraction(s, cfg, CountingRng([0.79]), t=6) == [(0, 1)]  # p = 0.8
        assert s.pursuit == [1, 0]
        assert np.array_equal(s.met_at, stamps[0]) and np.array_equal(s.inert_until, stamps[1])

    def test_trigger_sets_mutual_pursuit(self):
        s = make_swarm([1.0, 2.0], positions=[0, 5])
        cfg = AttractionSpec(strength=0.0, base_coeff=0.5)
        started = tick_attraction(s, cfg, CountingRng([0.1]), t=1)
        assert s.pursuit == [1, 0]
        assert started == [(0, 1)]

    def test_cooldown_suppresses_draws(self):
        s = make_swarm([1.0, 2.0], positions=[0, 5])
        s.inert_until[0, 1] = s.inert_until[1, 0] = 3
        cfg = AttractionSpec(strength=0.0, base_coeff=1.0)
        started = tick_attraction(s, cfg, CountingRng([]), t=2)  # draw would crash the stub
        assert started == []
        assert s.pursuit == [None, None]
        assert tick_attraction(s, cfg, CountingRng([0.5]), t=3) == [(0, 1)]  # inert until jump 3

    def test_busy_pairs_skipped(self):
        s = make_swarm([1.0, 2.0, 3.0], positions=[0, 5, 7])
        s.pursuit[0] = 1
        s.pursuit[1] = 0
        cfg = AttractionSpec(strength=0.0, base_coeff=1.0)
        started = tick_attraction(s, cfg, CountingRng([0.0]), t=1)
        assert started == []
        # only the (idle, idle) pair... there is none: 2 is idle but 0,1 busy
        assert s.pursuit == [1, 0, None]

    def test_steer_target_follows_partner(self):
        s = make_swarm([1.0, 2.0], positions=[3, 8])
        s.pursuit[0] = 1
        s.pursuit[1] = 0
        assert steer_target(s, 0) == 8
        assert steer_target(s, 1) == 3
        s.pursuit[0] = s.pursuit[1] = None
        s.homing[1] = 4
        assert steer_target(s, 0) is None
        assert steer_target(s, 1) == 4


class TestCollide:
    def test_sample_weighted_average(self):
        s = make_swarm([1.0, 5.0], samples=[100, 300])
        weights = collide(s, [0, 1], 1)
        assert weights == [101, 301]
        expected = (101 * 1.0 + 301 * 5.0) / 402
        assert s.walkers[0].im.theta[0] == pytest.approx(expected, abs=1e-15)
        assert s.walkers[1].im.theta[0] == s.walkers[0].im.theta[0]
        assert s.walkers[0].samples_since_agg == 0

    def test_zero_counters_mean_equal_weights(self):
        s = make_swarm([2.0, 4.0])
        weights = collide(s, [0, 1], 1)
        assert weights == [1, 1]
        assert s.walkers[0].im.theta[0] == 3.0

    def test_identical_models_unchanged(self):
        s = make_swarm([7.0, 7.0, 7.0], samples=[5, 50, 500])
        collide(s, [0, 1, 2], 1)
        assert all(w.im.theta[0] == 7.0 for w in s.walkers)
        assert all(w.samples_since_agg == 0 for w in s.walkers)

    def test_resets_pair_clocks(self):
        s = make_swarm([1.0, 2.0, 3.0])
        s.met_at[:] = s.inert_until[:] = 4
        collide(s, [0, 2], 9)
        assert s.met_at[0, 2] == s.met_at[2, 0] == 9  # the clock t - met_at restarts at 0
        assert s.inert_until[0, 2] == s.inert_until[2, 0] == 9  # no cooldown: the pair may draw at once
        assert s.met_at[0, 1] == s.met_at[1, 2] == 4  # untouched pairs
        assert s.inert_until[0, 1] == s.inert_until[1, 2] == 4

    def test_memory_sync(self):
        s = make_swarm([1.0, 5.0])
        collide(s, [0, 1], 1)
        assert np.array_equal(s.walkers[0].sm.theta, s.walkers[0].im.theta)
        assert all(w.sm is w.im for w in s.walkers)

    def test_sm_takes_the_merged_model(self):
        """Every merge also sets the stale model, which only memory merges read: a run
        without memory never reads it, and a run with memory resynchronizes on it."""
        s = make_swarm([1.0, 5.0, 9.0])
        for w in s.walkers:
            w.sm = replace(w.sm, theta=w.sm.theta + 100.0)
        untouched = s.walkers[2].sm
        collide(s, [0, 1], 1)
        merged = s.walkers[0].im
        assert merged.theta[0] == 3.0
        assert s.walkers[0].sm is s.walkers[1].sm is merged
        assert s.walkers[2].sm is untouched and untouched.theta[0] == 109.0

    def test_group_of_one_is_noop(self):
        s = make_swarm([1.0], samples=[10])
        weights = collide(s, [0], 5)
        assert weights == []
        assert s.walkers[0].samples_since_agg == 10
        assert not s.met_at.any() and not s.inert_until.any()


class TestRendezvous:
    def test_relocates_and_averages(self):
        s = make_swarm([0.0, 10.0], positions=[3, 8], samples=[0, 0])
        weights = rendezvous_tick(s, node=5, t=10)
        assert weights == [1, 1]
        assert all(w.position == 5 for w in s.walkers)
        assert all(w.im.theta[0] == 5.0 for w in s.walkers)
        assert s.met_at[0, 1] == s.inert_until[0, 1] == 10  # met at 10, never inert

    def test_single_walker_only_relocates(self):
        s = make_swarm([4.0], positions=[2])
        weights = rendezvous_tick(s, node=7, t=10)
        assert weights == []
        assert s.walkers[0].position == 7
        assert s.walkers[0].im.theta[0] == 4.0

    def test_uplink_is_rendezvous_without_relocation(self):
        a = make_swarm([0.0, 10.0], positions=[3, 8])
        collide(a, [0, 1], 1)
        assert [w.position for w in a.walkers] == [3, 8]
        assert all(w.im.theta[0] == 5.0 for w in a.walkers)

    def test_uplink_fixed_point_on_equal_models(self):
        s = make_swarm([6.0, 6.0], positions=[1, 2])
        collide(s, [0, 1], 1)
        collide(s, [0, 1], 2)
        assert all(w.im.theta[0] == 6.0 for w in s.walkers)


class TestColocation:
    def test_groups_by_node(self):
        s = make_swarm([1, 2, 3, 4], positions=[5, 3, 5, 3])
        assert colocated_groups(s) == [[1, 3], [0, 2]]

    def test_singletons_dropped(self):
        s = make_swarm([1, 2], positions=[0, 1])
        assert colocated_groups(s) == []

    def test_end_pursuits_releases_both_sides(self):
        s = make_swarm([1, 2, 3], positions=[0, 0, 9])
        s.pursuit[0] = 2
        s.pursuit[2] = 0
        ended = end_pursuits(s, [0, 1])
        assert s.pursuit == [None, None, None]
        assert ended == [(0, 2)]
        s.pursuit[0], s.pursuit[2] = 2, 0
        assert end_pursuits(s, [2]) == [(0, 2)]  # (min, max) whichever partner is in the group
        assert s.pursuit == [None, None, None]


class TestPursuitTermination:
    def test_mutual_pursuit_meets_within_diameter(self):
        g = gen_connected_caveman(8, 64, 2)
        diameter = max(
            max(d for d in shortest_path_distances(g, s)) for s in range(g.node_count)
        )
        s = make_swarm([1.0, 2.0], positions=[0, 40])
        s.pursuit[0] = 1
        s.pursuit[1] = 0
        steps = 0
        while s.walkers[0].position != s.walkers[1].position:
            steps += 1
            assert steps <= diameter
            for idx in (0, 1):
                w = s.walkers[idx]
                target = steer_target(s, idx)
                if target != w.position:
                    w.position = next_hop_toward(g, w.position, target)


class TestCliqueConfined:
    def test_rows_stay_in_clique(self):
        g = gen_connected_caveman(8, 64, 3)
        pol = clique_confined_policy(g, uniform_transition(g))
        for i in range(g.node_count):
            targets, probs = pol.row(i)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            for t in targets:
                assert g.clique_of[t] == g.clique_of[i]

    def test_single_clique_graph_unchanged(self):
        g = gen_connected_caveman(1, 6, 0)
        base = uniform_transition(g)
        pol = clique_confined_policy(g, base)
        for i in range(6):
            assert np.array_equal(pol.row(i)[1], base.row(i)[1])

    def test_walk_never_leaves_clique(self):
        g = gen_connected_caveman(8, 64, 1)
        pol = clique_confined_policy(g, uniform_transition(g))
        validate_policy(pol, g)
        from xlwalk.walker import step

        m = init_model("softmax", 2, 2, seed=0)
        w = WalkerState(id=0, position=g.clique_members(3)[0], im=m, sm=m, rng=np.random.default_rng(5), policy=pol)
        for _ in range(200):
            step(w)
            assert g.clique_of[w.position] == 3

    def test_requires_cliques(self):
        from xlwalk.topology import gen_rgg

        g = gen_rgg(10, 0.6, 0)
        with pytest.raises(ConfigError):
            clique_confined_policy(g, uniform_transition(g))

    def test_mh_base_rejected(self):
        g = gen_connected_caveman(3, 9, 0)
        with pytest.raises(ConfigError):
            clique_confined_policy(g, mh_transition(g))

    def test_a_row_with_no_mass_inside_its_clique_turns_uniform_over_the_clique(self, caplog):
        g = gen_connected_caveman(2, 6, 0)  # cliques {0, 1, 2} and {3, 4, 5}, one bridge each way
        imp = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])  # a clique-0 node sends all its mass across a bridge
        bridged = [i for i in range(3) if any(g.clique_of[j] for j in g.adjacency[i])]
        with caplog.at_level("WARNING"):
            pol = clique_confined_policy(g, build_transition(g, imp))
            rows = [policy.confined_row(g, i, *build_transition(g, imp).row(i)) for i in bridged]
        warned = [r.getMessage() for r in caplog.records if "confined row" in r.getMessage()]
        assert bridged and warned == 2 * [f"node {i} confined row had zero mass; using uniform" for i in bridged]
        for i, row in zip(bridged, rows):
            inside = [j for j in g.adjacency[i] if g.clique_of[j] == 0]
            for targets, probs in (pol.row(i), row):
                assert targets.tolist() == inside and probs.tolist() == [1.0 / len(inside)] * len(inside)

    def test_a_node_with_no_neighbor_in_its_clique_is_rejected(self):
        g = Graph(node_count=3, adjacency=((1,), (0, 2), (1,)), clique_of=(0, 0, 1))  # node 2 sees only clique 0
        with pytest.raises(ConfigError, match="node 2 has no neighbor inside its clique"):
            clique_confined_policy(g, uniform_transition(g))
        with pytest.raises(ConfigError, match="node 2 has no neighbor inside its clique"):
            policy.confined_row(g, 2, *uniform_transition(g).row(2))

    def test_nearest_clique_node(self):
        g = gen_connected_caveman(4, 16, 0)
        target_clique = 2
        from_node = g.clique_members(0)[1]
        home = nearest_clique_node(g, from_node, target_clique)
        assert g.clique_of[home] == target_clique
        inside = g.clique_members(2)[0]
        assert nearest_clique_node(g, inside, 2) == inside


class TestCooldown:
    def test_start_cooldown_sets_pairs(self):
        s = make_swarm([1, 2, 3])
        collide(s, [0, 2], 4, cooldown=5)
        assert s.inert_until[0, 2] == s.inert_until[2, 0] == 9
        assert s.inert_until[0, 1] == 0
