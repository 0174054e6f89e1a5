import numpy as np
import pytest

from xlwalk import policy
from xlwalk.errors import ConfigError
from xlwalk.learner import LearnerSpec, ModelParams, evaluate, init_model
from xlwalk.policy import (
    IMPORTANCE_STATIC,
    PolicySpec,
    TransitionPolicy,
    accuracy_scaled_alpha,
    build_transition,
    importance_vector,
    mh_transition,
    uniform_transition,
    validate_policy,
)
from xlwalk.swarm import clique_confined_policy
from xlwalk.topology import betweenness, gen_connected_caveman, gen_rgg
from xlwalk.walker import (
    MemorySpec,
    WalkerState,
    memory_merge,
    perception_refresh,
    step,
    visit,
)

from .test_policy import policy_matrix
from .test_topology import graph_from_edges


class FixedRng:
    """Stub generator returning a preset uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def scalar_model(value):
    return ModelParams("softmax", 0, 1, 0, np.array([float(value)]))


def fresh_walker(position=0, dims=4, classes=3, seed=0, **fields):
    m = init_model("softmax", dims, classes, seed=seed)
    return WalkerState(id=0, position=position, im=m, sm=m, **fields)


class TestStep:
    def test_deterministic_row(self):
        pol = TransitionPolicy("uniform", np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0, 1.0]))
        w = fresh_walker(position=0, rng=FixedRng(0.999), policy=pol)
        before = dict(vars(w))
        step(w)
        assert w.position == 1
        assert vars(w) == dict(before, position=1)  # a step moves the walker and writes nothing else

    def test_inverse_cdf_ascending_order(self):
        # uniform row over {a=1, b=2}: draw 0.3 lands in the first bucket, a draw on the
        # boundary 0.5 in the second
        pol = TransitionPolicy("uniform", np.array([0, 2]), np.array([1, 2]), np.array([0.5, 0.5]))
        for u, position in [(0.3, 1), (0.5, 2), (0.7, 2)]:
            w = fresh_walker(0, rng=FixedRng(u), policy=pol)
            step(w)
            assert w.position == position

    def test_draw_past_a_rounded_cdf_stays_in_its_row(self):
        # ten shares of 0.1 sum to 1 - 2**-53, so the largest draw below 1 passes the cdf's end
        pol = TransitionPolicy("uniform", np.array([0, 10, 11]), np.array([*range(1, 11), 0]),
                               np.array([0.1] * 10 + [1.0]))
        u = np.nextafter(1.0, 0.0)
        assert pol.row(0)[1].cumsum()[-1] <= u
        w = fresh_walker(0, rng=FixedRng(u), policy=pol)
        step(w)
        assert w.position == 10

    def test_visit_frequencies_on_triangle(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        w = fresh_walker(0, rng=np.random.default_rng(123), policy=uniform_transition(g))
        counts = np.zeros(3)
        for _ in range(100_000):
            step(w)
            counts[w.position] += 1
        freqs = counts / counts.sum()
        assert np.abs(freqs - 1 / 3).max() < 0.01


class TestVisit:
    def test_empty_node_is_noop(self):
        w = fresh_walker(rng=np.random.default_rng(0))
        im, state = w.im, w.rng.bit_generator.state
        visit(w, np.empty((0, 4)), np.empty(0, dtype=int), 5, LearnerSpec())
        assert w.im is im and w.samples_since_agg == 0 and w.cum_iters == 0
        assert w.rng.bit_generator.state == state  # no draw from the walker's stream

    def test_counters_track_samples(self):
        w = fresh_walker(rng=np.random.default_rng(1))
        before = fresh_walker()
        x = np.random.default_rng(0).normal(size=(30, 4))
        y = np.zeros(30, dtype=int)
        visit(w, x, y, 5, LearnerSpec(batch_size=32))
        assert w.samples_since_agg == 160
        assert w.cum_iters == 5
        assert not np.array_equal(w.im.theta, before.im.theta)
        assert np.array_equal(w.sm.theta, before.sm.theta)  # only the IM trains

    def test_zero_learning_rate_changes_nothing(self):
        w = fresh_walker(rng=np.random.default_rng(1))
        before = w.im
        x = np.random.default_rng(0).normal(size=(30, 4))
        y = np.zeros(30, dtype=int)
        visit(w, x, y, 17, LearnerSpec(learning_rate=0.0))
        assert np.array_equal(w.im.theta, before.theta)


class TestMemoryMerge:
    def test_beta_zero_keeps_im(self):
        w = WalkerState(id=0, position=0, im=scalar_model(1.0), sm=scalar_model(3.0))
        out = memory_merge(w, 0.0)
        assert out.im.theta[0] == 1.0
        assert out.sm.theta[0] == 1.0  # stale copy resynchronized

    def test_beta_one_restores_stale(self):
        w = WalkerState(id=0, position=0, im=scalar_model(1.0), sm=scalar_model(3.0))
        out = memory_merge(w, 1.0)
        assert out.im.theta[0] == 3.0
        assert out.sm.theta[0] == 3.0

    def test_midpoint(self):
        w = WalkerState(id=0, position=0, im=scalar_model(1.0), sm=scalar_model(3.0))
        out = memory_merge(w, 0.5)
        assert out.im.theta[0] == 2.0
        assert out.sm.theta[0] == 2.0

    def test_models_identical_after_merge(self):
        trained = fresh_walker(rng=np.random.default_rng(2))
        visit(trained, np.random.default_rng(0).normal(size=(20, 4)), np.zeros(20, dtype=int), 3, LearnerSpec())
        out = memory_merge(trained, 0.3)
        assert np.array_equal(out.im.theta, out.sm.theta)

    def test_invalid_beta(self):
        with pytest.raises(ConfigError):
            memory_merge(fresh_walker(), 1.5)


class TestMemoryConfig:
    def test_staged_thresholds(self):
        cfg = MemorySpec(enabled=True, schedule=((0, 0.0), (100, 0.2), (200, 0.4)))
        assert cfg.beta_at(0) == 0.0
        assert cfg.beta_at(99) == 0.0
        assert cfg.beta_at(100) == 0.2
        assert cfg.beta_at(299) == 0.4

    def test_thresholds_must_increase(self):
        with pytest.raises(ConfigError):
            MemorySpec(enabled=True, schedule=((10, 0.1), (10, 0.2)))

    def test_beta_range_checked(self):
        with pytest.raises(ConfigError):
            MemorySpec(enabled=True, schedule=((0, 1.5),))


@pytest.fixture(scope="module")
def world():
    g = gen_connected_caveman(3, 12, 0)
    rng = np.random.default_rng(1)
    d = rng.random(12) / 12
    l = rng.random(12)
    c = rng.random(12)
    val_x = rng.normal(size=(50, 4))
    val_y = rng.integers(0, 3, size=50)
    return g, d, l, c, val_x, val_y


def refreshed_row(w, *args):
    """Refresh the walker's row at its position; return the row's targets and the walker's running sums."""
    perception_refresh(w, *args)
    return w.policy.row(w.position)[0], w.row_cdf


class TestPerception:

    # perception_refresh builds only the row at the walker's position, so each
    # check below walks the walker over every node to cover every row.

    def test_accuracy_bounds_match_static_policies(self, world):
        g, d, l, c, val_x, val_y = world
        params = PolicySpec()
        for acc, alpha in [(0.1, 0.10), (0.8, 0.85)]:
            static = build_transition(
                g, importance_vector(d, l, c, alpha, True), kind=IMPORTANCE_STATIC
            )
            scaled = build_transition(g, importance_vector(d, l, c, accuracy_scaled_alpha(acc, params), True))
            for i in range(g.node_count):
                out = fresh_walker(position=i, policy=uniform_transition(g))
                targets, cdf = refreshed_row(out, acc, params, d, l, c, g)
                assert out.alpha == accuracy_scaled_alpha(acc, params)
                assert np.array_equal(targets, static.row(i)[0])
                assert np.allclose(np.diff(cdf, prepend=0.0), static.row(i)[1], atol=1e-15)
                assert cdf.tobytes() == scaled.cdf[scaled.indptr[i]:scaled.indptr[i + 1]].tobytes()

    def test_confined_row_is_cut_to_the_current_clique(self, world):
        g, d, l, c, val_x, val_y = world
        alpha = accuracy_scaled_alpha(0.42, PolicySpec())
        want = clique_confined_policy(g, build_transition(g, importance_vector(d, l, c, alpha, True)))
        pol = clique_confined_policy(g, uniform_transition(g))
        for i in range(g.node_count):
            for home in range(g.n_cliques):  # a walker away from home walks the clique it is in
                w = fresh_walker(position=i, policy=pol, home_clique=home)
                targets, cdf = refreshed_row(w, 0.42, PolicySpec(), d, l, c, g)
                assert np.array_equal(targets, want.row(i)[0])
                assert cdf.tobytes() == np.cumsum(want.row(i)[1]).tobytes()
        validate_policy(pol, g)

    def test_equal_accuracy_gives_identical_policies(self, world):
        g, d, l, c, val_x, val_y = world
        for i in range(g.node_count):
            w = fresh_walker(position=i, policy=uniform_transition(g))
            acc = evaluate(w.im, val_x, val_y)[1]
            targets_a, cdf_a = refreshed_row(w, acc, PolicySpec(), d, l, c, g)
            targets_b, cdf_b = refreshed_row(w, acc, PolicySpec(), d, l, c, g)
            assert np.array_equal(targets_a, targets_b)
            assert np.array_equal(cdf_a, cdf_b)

    def test_negative_importance_rejected(self, world):
        g, d, l, c, val_x, val_y = world
        # negative data shares and zero centrality give every node negative importance
        for i in range(g.node_count):
            w = fresh_walker(position=i, policy=uniform_transition(g))
            with pytest.raises(ConfigError, match="importance values must be non-negative"):
                perception_refresh(w, 0.5, PolicySpec(), -d, l, 0 * c, g)

    def test_zero_importance_row_warns(self, world, caplog):
        g, d, l, c, val_x, val_y = world
        with caplog.at_level("WARNING", logger="xlwalk.walker"):
            targets, cdf = refreshed_row(
                fresh_walker(position=3, policy=uniform_transition(g)), 0.5, PolicySpec(), 0 * d, l, 0 * c, g
            )
        assert cdf.tobytes() == np.cumsum(np.full(targets.size, 1.0 / targets.size)).tobytes()
        assert [r.getMessage() for r in caplog.records] == [
            "zero-importance neighborhood of node 3 fell back to a uniform row"
        ]

    def test_constant_stub_degenerates_to_static(self, world):
        g, d, l, c, val_x, val_y = world
        for i in range(g.node_count):
            w = fresh_walker(position=i, policy=uniform_transition(g))
            rows = [refreshed_row(w, 0.42, PolicySpec(), d, l, c, g) for _ in range(3)]
            for targets, cdf in rows[1:]:
                assert np.array_equal(targets, rows[0][0])
                assert np.array_equal(cdf, rows[0][1])

    def test_other_rows_are_not_built(self, world, monkeypatch):
        g, d, l, c, val_x, val_y = world
        built = []
        real = policy.transition_row

        def counted(g, importance, node):
            built.append(node)
            return real(g, importance, node)

        monkeypatch.setattr(policy, "transition_row", counted)
        pol = uniform_transition(g)
        before = [a.tobytes() for a in (pol.indptr, pol.targets, pol.probs, pol.cdf)]
        w = fresh_walker(position=3, policy=pol)
        perception_refresh(w, 0.42, PolicySpec(), d, l, c, g)
        imp = importance_vector(d, l, c, accuracy_scaled_alpha(0.42, PolicySpec()), True)
        targets, probs, _ = real(g, imp, 3)
        assert built == [3]
        assert [a.tobytes() for a in (pol.indptr, pol.targets, pol.probs, pol.cdf)] == before
        assert np.array_equal(pol.row(3)[0], targets)
        assert probs.tobytes() != pol.row(3)[1].tobytes()
        assert w.row_cdf.tobytes() == np.cumsum(probs).tobytes()

    def test_stale_model_never_read_when_memory_disabled(self):
        """Training with a corrupted stale copy gives an identical IM path."""
        x = np.random.default_rng(3).normal(size=(40, 4))
        y = np.random.default_rng(4).integers(0, 3, size=40)
        w1 = fresh_walker()
        garbage = ModelParams("softmax", 4, 3, 0, np.full(15, 999.0))
        w2 = WalkerState(id=0, position=0, im=w1.im, sm=garbage)
        for seed in range(5):
            w1.rng, w2.rng = np.random.default_rng(seed), np.random.default_rng(seed)
            visit(w1, x, y, 4, LearnerSpec())
            visit(w2, x, y, 4, LearnerSpec())
        assert np.array_equal(w1.im.theta, w2.im.theta)


def chain_law_case(name):
    """(policy, nodes the walk lives on) for one chain-law case."""
    g = gen_rgg(20, 0.45, 0) if name.endswith("rgg") else gen_connected_caveman(3, 15, 0)
    kind = name.split("-")[0]
    if kind == "uniform":
        return uniform_transition(g), list(range(g.node_count))
    if kind == "mh":
        return mh_transition(g), list(range(g.node_count))
    if kind == "importance":
        rng = np.random.default_rng(3)
        imp = importance_vector(rng.random(g.node_count), rng.random(g.node_count),
                                np.array(betweenness(g).normalized), alpha=0.5)
        return build_transition(g, imp, kind=IMPORTANCE_STATIC), list(range(g.node_count))
    # confined to clique 1, the chain is irreducible on that clique alone
    return clique_confined_policy(g, uniform_transition(g)), g.clique_members(1)


class TestChainLaw:
    """A long static walk through `step` visits nodes at the stationary law of its policy.

    Every chain here is reversible (checked below), with stationary law pi
    and absolute spectral gap gap = 1 - lambda*, lambda* the second largest
    eigenvalue modulus. For a reversible chain the occupation frequency f_i
    of a T-step walk has T * Var(f_i) <= (1 + lambda*) / (1 - lambda*) *
    pi_i (1 - pi_i) <= 2 pi_i (1 - pi_i) / gap, so

        E[TV(f, pi)] <= 1/2 * sum_i sqrt(2 pi_i (1 - pi_i) / (gap T))
                        + 1/2 * sqrt((1 - pi_x) / pi_x) / (gap T),

    the second term bounding the bias of starting at node x. The test
    allows three times that. At T = 40,000 that is 0.03 to 0.14 here, while
    sampling targets uniformly instead of by the row's probabilities puts
    the importance walks 0.2 or more away from pi.
    """

    STEPS = 40_000

    @pytest.mark.parametrize("name", [
        "uniform-caveman", "mh-caveman", "importance-caveman",
        "uniform-rgg", "mh-rgg", "importance-rgg",
        "confined-caveman",
    ])
    def test_visit_frequencies_match_stationary_law(self, name):
        pol, nodes = chain_law_case(name)
        n = len(nodes)
        mat = policy_matrix(pol)[np.ix_(nodes, nodes)]
        assert np.allclose(mat.sum(axis=1), 1.0)
        vals, vecs = np.linalg.eig(mat.T)
        pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        pi = pi / pi.sum()
        flow = pi[:, None] * mat
        assert np.allclose(flow, flow.T, atol=1e-12)  # detailed balance: the chain is reversible
        gap = 1.0 - np.sort(np.abs(vals))[-2]
        assert gap > 0.0

        start = int(np.argmax(pi))
        w = fresh_walker(position=nodes[start], rng=np.random.default_rng(11), policy=pol)
        visits = np.zeros(max(nodes) + 1)
        for _ in range(self.STEPS):
            step(w)
            visits[w.position] += 1
        assert visits[nodes].sum() == self.STEPS  # the walk never left its nodes
        freq = visits[nodes] / self.STEPS

        expected = 0.5 * np.sqrt(2.0 * pi * (1.0 - pi) / (gap * self.STEPS)).sum()
        expected += 0.5 * np.sqrt((1.0 - pi[start]) / pi[start]) / (gap * self.STEPS)
        tv = 0.5 * np.abs(freq - pi).sum()
        assert tv <= 3.0 * expected, (name, n, tv, expected)
