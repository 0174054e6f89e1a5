import numpy as np
import pytest

from xlwalk.errors import ConfigError
from xlwalk.policy import (
    ElasticSpec,
    PolicySpec,
    accuracy_scaled_alpha,
    build_transition,
    data_quality,
    elastic_iterations,
    importance_vector,
    mh_transition,
    uniform_transition,
    validate_policy,
)
from xlwalk.swarm import clique_confined_policy
from xlwalk.topology import gen_connected_caveman, gen_rgg

from .test_topology import graph_from_edges, random_connected_graph


def policy_matrix(pol, n):
    mat = np.zeros((n, n))
    for i in range(n):
        targets, probs = pol.row(i)
        mat[i, targets] = probs
    return mat


def node_importance(data_frac, label_frac, centrality, alpha):
    """One node's importance: `importance_vector` over that node alone, terms left raw."""
    one = [np.array([v]) for v in (data_frac, label_frac, centrality)]
    return float(importance_vector(*one, alpha, normalize_terms=False)[0])


class TestImportance:
    def test_weighted_sum_example(self):
        assert node_importance(0.04, 0.2, 0.3, 0.5) == pytest.approx(0.154, abs=1e-15)

    def test_alpha_one_ignores_centrality(self):
        assert node_importance(0.3, 0.5, 0.9, 1.0) == node_importance(0.3, 0.5, 0.0, 1.0)

    def test_alpha_zero_ignores_data(self):
        assert node_importance(0.3, 0.5, 0.9, 0.0) == 0.9

    def test_monotone_in_each_input(self):
        base = node_importance(0.2, 0.3, 0.4, 0.6)
        assert node_importance(0.3, 0.3, 0.4, 0.6) >= base
        assert node_importance(0.2, 0.4, 0.4, 0.6) >= base
        assert node_importance(0.2, 0.3, 0.5, 0.6) >= base

    def test_vector_normalization(self):
        d = np.array([0.01, 0.02])
        l = np.array([0.1, 0.2])
        c = np.array([5.0, 10.0])
        imp = importance_vector(d, l, c, alpha=0.5, normalize_terms=True)
        # both terms rescaled to max 1, so the best node scores exactly 1
        assert imp[1] == 1.0
        assert imp[0] == pytest.approx(0.5 * 0.25 + 0.5 * 0.5)

    def test_vector_raw_mode(self):
        d = np.array([0.01, 0.02])
        l = np.array([0.1, 0.2])
        c = np.array([5.0, 10.0])
        imp = importance_vector(d, l, c, alpha=0.5, normalize_terms=False)
        assert imp[0] == pytest.approx(0.5 * 0.001 + 0.5 * 5.0)


class TestDynamicAlpha:
    def test_lower_bound_maps_exactly(self):
        assert accuracy_scaled_alpha(0.1, PolicySpec()) == 0.10

    def test_upper_bound_maps_exactly(self):
        assert accuracy_scaled_alpha(0.8, PolicySpec()) == 0.85

    def test_midpoint(self):
        assert accuracy_scaled_alpha(0.45, PolicySpec()) == pytest.approx(0.475, abs=1e-12)

    def test_clamped_outside_range(self):
        p = PolicySpec()
        assert accuracy_scaled_alpha(0.0, p) == 0.10
        assert accuracy_scaled_alpha(1.0, p) == 0.85

    def test_monotone(self):
        p = PolicySpec()
        grid = [accuracy_scaled_alpha(a, p) for a in np.linspace(0, 1, 101)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            PolicySpec(acc_min=0.5, acc_max=0.5)
        with pytest.raises(ConfigError):
            PolicySpec(alpha=1.5)


class TestBuildTransition:
    def test_proportional_rows(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        imp = np.array([0.0, 0.2, 0.3, 0.5])
        pol = build_transition(g, imp)
        targets, probs = pol.row(0)
        assert targets.tolist() == [1, 2, 3]
        assert np.allclose(probs, [0.2, 0.3, 0.5])

    def test_zero_importance_falls_back_uniform(self, caplog):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        with caplog.at_level("WARNING"):
            pol = build_transition(g, np.zeros(3))
        # one warning per build, not one per row
        assert [r.getMessage() for r in caplog.records] == [
            "3 zero-importance neighborhood(s) fell back to uniform rows"
        ]
        for i in range(3):
            _, probs = pol.row(i)
            assert np.allclose(probs, 0.5)

    def test_equal_importance_is_uniform(self):
        g = gen_connected_caveman(3, 12, 0)
        pol = build_transition(g, np.full(12, 0.7))
        for i in range(12):
            _, probs = pol.row(i)
            assert np.allclose(probs, 1.0 / g.degree(i))

    def test_scale_invariance(self):
        g = gen_rgg(30, 0.35, 1)
        imp = np.random.default_rng(3).random(30)
        a = build_transition(g, imp)
        b = build_transition(g, imp * 37.5)
        for i in range(30):
            assert np.allclose(a.row(i)[1], b.row(i)[1], atol=1e-14)

    def test_negative_importance_rejected(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ConfigError):
            build_transition(g, np.array([-0.1, 1.0]))


class TestMetropolisHastings:
    def test_min_degree_rule(self):
        # node 0 has degree 3, node 1 degree 5 in this wheel-ish graph
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (4, 5), (2, 4), (3, 5)]
        g = graph_from_edges(6, edges)
        assert g.degree(0) == 3 and g.degree(1) == 5
        pol = mh_transition(g)
        targets, probs = pol.row(0)
        assert probs[list(targets).index(1)] == pytest.approx(1.0 / 5)

    def test_regular_graph_no_self_loop(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 2-regular cycle
        pol = mh_transition(g)
        for i in range(4):
            targets, probs = pol.row(i)
            assert probs[list(targets).index(i)] == pytest.approx(0.0, abs=1e-15)
            off = [p for t, p in zip(targets, probs) if t != i]
            assert np.allclose(off, 0.5)

    def test_uniform_is_stationary(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(4, 13))
            g = random_connected_graph(n, 0.45, rng)
            mat = policy_matrix(mh_transition(g), n)
            pi = np.full(n, 1.0 / n)
            assert np.abs(pi @ mat - pi).max() < 1e-12


class TestUniform:
    def test_rows(self):
        g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        pol = uniform_transition(g)
        _, probs = pol.row(0)
        assert np.allclose(probs, 0.25)
        targets, probs = pol.row(1)
        assert targets.tolist() == [0] and probs.tolist() == [1.0]


class TestDataQuality:
    def test_full_data_full_labels(self):
        assert data_quality(1.0, 1.0, 0.4) == 1.0

    def test_small_fraction_value(self):
        assert data_quality(0.01, 0.2, 0.4) == pytest.approx(0.03228717113652973, abs=1e-15)

    def test_zero_data(self):
        assert data_quality(0.0, 0.7, 0.4) == 0.0

    def test_zero_exponent_at_zero_data(self):
        assert data_quality(0.0, 0.7, 0.0) == 0.7  # 0^0 treated as 1

    def test_bounded_and_monotone_in_labels(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d, l, t = rng.random(3)
            q = data_quality(d, l, t)
            assert 0.0 <= q <= 1.0
            assert data_quality(d, min(1.0, l + 0.1), t) >= q


class TestElasticIterations:
    def test_zero_quality_gives_half_max(self):
        assert elastic_iterations(0.0, ElasticSpec()) == 10

    def test_full_quality_saturates(self):
        assert elastic_iterations(1.0, ElasticSpec()) == 20

    def test_chained_example(self):
        q = data_quality(0.01, 0.2, 0.4)
        assert elastic_iterations(q, ElasticSpec()) == 12

    def test_monotone_and_bounded(self):
        p = ElasticSpec()
        grid = [elastic_iterations(q, p) for q in np.linspace(0, 1, 200)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))
        assert all(1 <= x <= 20 for x in grid)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            ElasticSpec(x_max=0)
        with pytest.raises(ConfigError):
            elastic_iterations(-0.1, ElasticSpec())


class TestRowInvariants:
    @pytest.mark.parametrize("maker", ["uniform", "mh", "importance"])
    def test_rows_sum_to_one_with_valid_support(self, maker):
        rng = np.random.default_rng(5)
        for seed in range(5):
            g = gen_connected_caveman(4, 20, seed) if seed % 2 else gen_rgg(25, 0.3, seed)
            if maker == "uniform":
                pol = uniform_transition(g)
            elif maker == "mh":
                pol = mh_transition(g)
            else:
                pol = build_transition(g, rng.random(g.node_count))
            validate_policy(pol, g, tol=1e-9)


class TestReadOnlyTable:
    """A built table cannot be written, so walkers share one; a caller's running sums must fit the row."""

    @pytest.mark.parametrize("maker", ["uniform", "mh", "importance", "confined"])
    def test_every_array_is_read_only(self, maker):
        g = gen_connected_caveman(3, 12, 0)
        if maker == "mh":
            pol = mh_transition(g)
        elif maker == "importance":
            pol = build_transition(g, np.random.default_rng(0).random(g.node_count))
        else:
            pol = uniform_transition(g)
            if maker == "confined":
                pol = clique_confined_policy(g, pol)
        for array in (pol.indptr, pol.targets, pol.probs, pol.cdf, *pol.row(1)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]

    def test_next_node_draws_over_the_given_running_sums(self):
        pol = uniform_transition(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert [pol.next_node(0, u) for u in (0.3, 0.5, 0.7)] == [1, 2, 3]
        cdf = np.cumsum([0.6, 0.3, 0.1])
        assert [pol.next_node(0, u, cdf) for u in (0.3, 0.5, 0.7, 0.95)] == [1, 1, 2, 3]

    @pytest.mark.parametrize("size", [0, 2, 4])
    def test_next_node_rejects_running_sums_of_another_length(self, size):
        pol = uniform_transition(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        with pytest.raises(ValueError, match="row 0 has 3 targets, got %d running sums" % size):
            pol.next_node(0, 0.5, np.linspace(0.0, 1.0, size))
