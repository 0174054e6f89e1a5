import logging

import numpy as np
import pytest

from xlwalk import policy
from xlwalk.errors import ConfigError, GenerationError
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
from xlwalk.topology import default_rgg_radius, gen_connected_caveman, gen_rgg

from . import reference_tables as reference
from .test_topology import graph_from_edges, random_connected_graph


def policy_matrix(pol):
    """The table as a dense transition matrix: one scatter of its CSR arrays."""
    n = pol.indptr.size - 1
    mat = np.zeros((n, n))
    mat[np.repeat(np.arange(n), np.diff(pol.indptr)), pol.targets] = pol.probs
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
            mat = policy_matrix(mh_transition(g))
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


def stationary(mat):
    """The eigenvector of mat.T for the eigenvalue nearest 1, scaled to sum to 1."""
    vals, vecs = np.linalg.eig(mat.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return pi / pi.sum()


def neighbor_sums(g, values, same_clique=False):
    """Per node, the sum of values over its neighbors, or over its neighbors in its own clique."""
    return np.array([sum(values[j] for j in g.adjacency[i]
                         if not same_clique or g.clique_of[j] == g.clique_of[i]) for i in range(g.node_count)])


class TestStationaryLaw:
    """Every static chain here is reversible, so its stationary law has a closed form: an
    importance row is P(i->j) = imp_j / S_i with S_i the importance summed over i's neighbors,
    so pi_i * P(i->j) = imp_i * imp_j / Z is symmetric and pi_i is proportional to imp_i * S_i.
    Uniform rows are the case imp = 1 (pi proportional to degree), MH rows have the uniform law,
    and confined rows take S_i over the same clique, each clique a closed class of its own.
    Each law is checked against the eigenvector of the table's dense matrix."""

    WORLDS = {"rgg100": lambda: gen_rgg(100, default_rgg_radius(100), 0),
              "caveman50": lambda: gen_connected_caveman(8, 50, 0)}

    @staticmethod
    def importance(g):
        return np.random.default_rng(g.node_count).uniform(0.1, 1.0, g.node_count)  # no row falls back

    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("kind", ["uniform", "mh", "importance"])
    def test_closed_form_law(self, world, kind):
        g = self.WORLDS[world]()
        imp = self.importance(g) if kind == "importance" else np.ones(g.node_count)
        pol = {"uniform": uniform_transition, "mh": mh_transition}.get(kind, lambda g: build_transition(g, imp))(g)
        law = np.ones(g.node_count) if kind == "mh" else imp * neighbor_sums(g, imp)
        assert np.abs(stationary(policy_matrix(pol)) - law / law.sum()).max() < 1e-12

    @pytest.mark.parametrize("kind", ["uniform", "importance"])
    def test_confined_law_within_each_clique(self, kind):
        g = self.WORLDS["caveman50"]()
        imp = self.importance(g) if kind == "importance" else np.ones(g.node_count)
        base = build_transition(g, imp) if kind == "importance" else uniform_transition(g)
        mat, law = policy_matrix(clique_confined_policy(g, base)), imp * neighbor_sums(g, imp, same_clique=True)
        for clique in range(g.n_cliques):
            members = g.clique_members(clique)
            outside = [i for i in range(g.node_count) if i not in members]
            assert not mat[np.ix_(members, outside)].any()  # a closed class
            within = law[members] / law[members].sum()
            assert np.abs(stationary(mat[np.ix_(members, members)]) - within).max() < 1e-12


def table_bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def built_with_warnings(caplog, build, *args):
    """The bytes of the table build(*args) returns, and the warnings it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="xlwalk.policy"):
        out = build(*args)
    arrays = (out.indptr, out.targets, out.probs, out.cdf) if hasattr(out, "cdf") else out
    return table_bytes(arrays), [(r.levelname, r.getMessage()) for r in caplog.records]


def assert_tables_match_the_reference(g, importance, caplog):
    """Every table of g, and its confinement where g has cliques, equals the per-row reference
    byte for byte and logs the same warnings; so does every single row a dynamic walker builds."""
    for kind, build, build_reference, args in [
        ("uniform", uniform_transition, reference.uniform_transition, ()),
        ("mh", mh_transition, reference.mh_transition, ()),
        ("importance", build_transition, reference.build_transition, (importance,)),
    ]:
        got, want = built_with_warnings(caplog, build, g, *args), built_with_warnings(caplog, build_reference, g, *args)
        assert got == want, kind
        if g.clique_of is not None and kind != "mh":
            base, base_reference = build(g, *args), build_reference(g, *args)
            got = built_with_warnings(caplog, clique_confined_policy, g, base)
            assert got == built_with_warnings(caplog, reference.confined_transition, g, base_reference), kind
    for node in range(g.node_count):
        targets, probs, fell_back = row = policy.transition_row(g, importance, node)
        want = reference.transition_row(g, importance, node)
        assert table_bytes(row[:2]) == table_bytes(want[:2]) and fell_back == want[2]
        if g.clique_of is not None:
            got = built_with_warnings(caplog, policy.confined_row, g, node, targets, probs)
            assert got == built_with_warnings(caplog, reference.confined_row, g, node, *want[:2])


def importance_with_zeros(g, seed, zero_share):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(g.node_count) < zero_share, 0.0, rng.random(g.node_count))


class TestTablesMatchThePerRowReference:
    """The whole-array builders against the per-row loops they replaced (tests/reference_tables.py).
    Rows as wide as those of the larger geometric worlds expose a row sum taken in another order."""

    def test_generated_graphs(self, caplog):
        pytest.importorskip("hypothesis")
        from hypothesis import assume, given, settings
        from hypothesis import strategies as st

        @st.composite
        def worlds(draw):
            seed = draw(st.integers(0, 2 ** 16))
            if draw(st.booleans()):
                cliques = draw(st.integers(1, 8))
                g = gen_connected_caveman(cliques, draw(st.integers(2 * cliques, 70)), seed)
            else:
                n = draw(st.integers(2, 70))
                try:
                    g = gen_rgg(n, draw(st.sampled_from([1.0, 1.5, 3.0])) * default_rgg_radius(n), seed, 20)
                except GenerationError:
                    assume(False)
            return g, importance_with_zeros(g, seed, draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])))

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(world=worlds())
        def check(world):
            assert_tables_match_the_reference(*world, caplog)

        check()

    @pytest.mark.parametrize("n", [150, 600, 1000])
    def test_wide_geometric_worlds(self, caplog, n):
        g = gen_rgg(n, default_rgg_radius(n), 0)
        for zero_share in (0.0, 0.6):
            assert_tables_match_the_reference(g, importance_with_zeros(g, n, zero_share), caplog)
