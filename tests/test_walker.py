import numpy as np
import pytest

from xlwalk.errors import ConfigError
from xlwalk.learner import ModelParams, TrainConfig, init_model
from xlwalk.policy import (
    IMPORTANCE_STATIC,
    ImportanceParams,
    TransitionPolicy,
    build_transition,
    importance_vector,
    uniform_transition,
)
from xlwalk.topology import gen_connected_caveman
from xlwalk.walker import (
    MemoryConfig,
    WalkerState,
    memory_merge,
    perception_refresh,
    staged_memory,
    step,
    visit,
)

from .test_topology import graph_from_edges


class FixedRng:
    """Stub generator returning a preset uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def scalar_model(value):
    return ModelParams("softmax", 0, 1, 0, np.array([float(value)]))


def fresh_walker(position=0, dims=4, classes=3, seed=0):
    m = init_model("softmax", dims, classes, seed=seed)
    return WalkerState(id=0, position=position, im=m, sm=m)


class TestStep:
    def test_deterministic_row(self):
        pol = TransitionPolicy(
            kind="uniform",
            targets=(np.array([1]), np.array([0])),
            probs=(np.array([1.0]), np.array([1.0])),
        )
        w = fresh_walker(position=0)
        out = step(w, pol, FixedRng(0.999))
        assert out.position == 1
        assert out.jumps == 1

    def test_inverse_cdf_ascending_order(self):
        # uniform row over {a=1, b=2}: draw 0.3 lands in the first bucket
        pol = TransitionPolicy(
            kind="uniform",
            targets=(np.array([1, 2]),),
            probs=(np.array([0.5, 0.5]),),
        )
        assert step(fresh_walker(0), pol, FixedRng(0.3)).position == 1
        assert step(fresh_walker(0), pol, FixedRng(0.7)).position == 2

    def test_visit_frequencies_on_triangle(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        pol = uniform_transition(g)
        rng = np.random.default_rng(123)
        w = fresh_walker(0)
        counts = np.zeros(3)
        for _ in range(100_000):
            w = step(w, pol, rng)
            counts[w.position] += 1
        freqs = counts / counts.sum()
        assert np.abs(freqs - 1 / 3).max() < 0.01


class TestVisit:
    def test_empty_node_is_noop(self):
        w = fresh_walker()
        out = visit(w, np.empty((0, 4)), np.empty(0, dtype=int), 5, TrainConfig(), np.random.default_rng(0))
        assert out is w

    def test_counters_track_samples(self):
        w = fresh_walker()
        x = np.random.default_rng(0).normal(size=(30, 4))
        y = np.zeros(30, dtype=int)
        out = visit(w, x, y, 5, TrainConfig(batch_size=32), np.random.default_rng(1))
        assert out.samples_since_agg == 160
        assert out.samples_total == 160
        assert not np.array_equal(out.im.theta, w.im.theta)
        assert np.array_equal(out.sm.theta, w.sm.theta)  # only the IM trains

    def test_zero_learning_rate_changes_nothing(self):
        w = fresh_walker()
        x = np.random.default_rng(0).normal(size=(30, 4))
        y = np.zeros(30, dtype=int)
        out = visit(w, x, y, 17, TrainConfig(learning_rate=0.0), np.random.default_rng(1))
        assert np.array_equal(out.im.theta, w.im.theta)


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
        w = fresh_walker()
        trained = visit(
            w,
            np.random.default_rng(0).normal(size=(20, 4)),
            np.zeros(20, dtype=int),
            3,
            TrainConfig(),
            np.random.default_rng(2),
        )
        out = memory_merge(trained, 0.3)
        assert np.array_equal(out.im.theta, out.sm.theta)

    def test_invalid_beta(self):
        with pytest.raises(ConfigError):
            memory_merge(fresh_walker(), 1.5)


class TestMemoryConfig:
    def test_staged_thresholds(self):
        cfg = staged_memory(300)
        assert cfg.schedule == ((0, 0.0), (100, 0.2), (200, 0.4))
        assert cfg.beta_at(0) == 0.0
        assert cfg.beta_at(99) == 0.0
        assert cfg.beta_at(100) == 0.2
        assert cfg.beta_at(299) == 0.4

    def test_thresholds_must_increase(self):
        with pytest.raises(ConfigError):
            MemoryConfig(enabled=True, schedule=((10, 0.1), (10, 0.2)))

    def test_beta_range_checked(self):
        with pytest.raises(ConfigError):
            MemoryConfig(enabled=True, schedule=((0, 1.5),))


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


class TestPerception:

    # perception_refresh builds only the row at the walker's position, so each
    # check below walks the walker over every node to cover every row.

    def test_accuracy_bounds_match_static_policies(self, world, monkeypatch):
        g, d, l, c, val_x, val_y = world
        params = ImportanceParams()
        for acc, alpha in [(0.1, 0.10), (0.8, 0.85)]:
            monkeypatch.setattr("xlwalk.walker.evaluate", lambda *a, acc=acc: (0.5, acc))
            static = build_transition(
                g, importance_vector(d, l, c, alpha, True), kind=IMPORTANCE_STATIC
            )
            for i in range(g.node_count):
                out, pol = perception_refresh(fresh_walker(position=i), val_x, val_y, params, d, l, c, g)
                assert out.cached_accuracy == acc
                assert out.cached_loss == 0.5
                assert pol.nodes() == [i]
                assert np.array_equal(pol.row(i)[0], static.row(i)[0])
                assert np.allclose(pol.row(i)[1], static.row(i)[1], atol=1e-15)

    def test_equal_accuracy_gives_identical_policies(self, world):
        g, d, l, c, val_x, val_y = world
        for i in range(g.node_count):
            w = fresh_walker(position=i)
            _, pol_a = perception_refresh(w, val_x, val_y, ImportanceParams(), d, l, c, g)
            _, pol_b = perception_refresh(w, val_x, val_y, ImportanceParams(), d, l, c, g)
            assert np.array_equal(pol_a.row(i)[1], pol_b.row(i)[1])

    def test_constant_stub_degenerates_to_static(self, world, monkeypatch):
        g, d, l, c, val_x, val_y = world
        monkeypatch.setattr("xlwalk.walker.evaluate", lambda *a: (0.5, 0.42))
        for i in range(g.node_count):
            w = fresh_walker(position=i)
            policies = []
            for _ in range(3):
                w, pol = perception_refresh(w, val_x, val_y, ImportanceParams(), d, l, c, g)
                policies.append(pol)
            for pol in policies[1:]:
                assert np.array_equal(pol.row(i)[1], policies[0].row(i)[1])

    def test_other_rows_are_not_built(self, world):
        g, d, l, c, val_x, val_y = world
        _, pol = perception_refresh(fresh_walker(position=3), val_x, val_y, ImportanceParams(), d, l, c, g)
        with pytest.raises(KeyError):
            pol.row(4)

    def test_stale_model_never_read_when_memory_disabled(self):
        """Training with a corrupted stale copy gives an identical IM path."""
        x = np.random.default_rng(3).normal(size=(40, 4))
        y = np.random.default_rng(4).integers(0, 3, size=40)
        w1 = fresh_walker()
        garbage = ModelParams("softmax", 4, 3, 0, np.full(15, 999.0))
        w2 = WalkerState(id=0, position=0, im=w1.im, sm=garbage)
        for seed in range(5):
            w1 = visit(w1, x, y, 4, TrainConfig(), np.random.default_rng(seed))
            w2 = visit(w2, x, y, 4, TrainConfig(), np.random.default_rng(seed))
        assert np.array_equal(w1.im.theta, w2.im.theta)
