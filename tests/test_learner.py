import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xlwalk.errors import ConfigError
from xlwalk.learner import (
    _CHUNK_STEPS,
    LearnerSpec,
    ModelParams,
    _class_logits,
    _class_sum,
    _log_softmax,
    _split_mlp,
    _stack,
    evaluate,
    init_model,
    lockstep,
    loss_and_grad,
    param_length,
    sgd_steps,
    weighted_average,
)


def make_batch(n, dims, classes, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dims)), rng.integers(0, classes, size=n)


class TestInit:
    def test_softmax_length(self):
        m = init_model("softmax", 32, 10, seed=0)
        assert m.theta.shape == (330,)
        assert param_length("softmax", 32, 10) == 330

    def test_mlp_length(self):
        m = init_model("mlp", 32, 10, seed=0, hidden=64)
        assert m.theta.shape == (2762,)  # 64*33 + 10*65

    def test_same_seed_identical(self):
        a = init_model("softmax", 8, 3, seed=5)
        b = init_model("softmax", 8, 3, seed=5)
        assert np.array_equal(a.theta, b.theta)

    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            init_model("cnn", 8, 3, seed=0)

    def test_length_validation(self):
        with pytest.raises(ConfigError):
            ModelParams(arch="softmax", n_dims=4, n_classes=3, hidden=0, theta=np.zeros(7))


class TestGradients:
    @pytest.mark.parametrize("arch,hidden", [("softmax", 0), ("mlp", 16)])
    def test_matches_central_differences(self, arch, hidden):
        """Central finite differences with step 1e-4 at 10 random coordinates."""
        dims, classes = 7, 4
        x, y = make_batch(20, dims, classes, seed=1)
        rng = np.random.default_rng(2)
        m = init_model(arch, dims, classes, seed=3, hidden=hidden)
        m = ModelParams(arch, dims, classes, m.hidden, rng.normal(0, 0.5, m.theta.shape))
        _, grad = loss_and_grad(m, x, y, l2=0.01)
        coords = rng.choice(m.theta.size, size=10, replace=False)
        h = 1e-4
        numeric = np.empty(10)
        for pos, c in enumerate(coords):
            up = m.theta.copy()
            up[c] += h
            down = m.theta.copy()
            down[c] -= h
            lu, _ = loss_and_grad(ModelParams(arch, dims, classes, m.hidden, up), x, y, l2=0.01)
            ld, _ = loss_and_grad(ModelParams(arch, dims, classes, m.hidden, down), x, y, l2=0.01)
            numeric[pos] = (lu - ld) / (2 * h)
        rel = np.linalg.norm(grad[coords] - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5


class TestSgd:
    def test_zero_learning_rate_is_identity(self):
        x, y = make_batch(30, 5, 3, seed=0)
        m = init_model("softmax", 5, 3, seed=1)
        out = sgd_steps(m, x, y, 10, LearnerSpec(learning_rate=0.0), np.random.default_rng(0))
        assert np.array_equal(out.theta, m.theta)

    def test_input_model_unmodified(self):
        x, y = make_batch(30, 5, 3, seed=0)
        m = init_model("softmax", 5, 3, seed=1)
        before = m.theta.copy()
        sgd_steps(m, x, y, 5, LearnerSpec(learning_rate=0.1), np.random.default_rng(0))
        assert np.array_equal(m.theta, before)

    def test_loss_decreases_on_own_data(self):
        """50 small steps on a single-class node, averaged over 10 seeds."""
        initial, final = [], []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 6))
            y = np.full(40, 2)
            m = init_model("softmax", 6, 4, seed=seed)
            loss0, _ = evaluate(m, x, y)
            out = sgd_steps(m, x, y, 50, LearnerSpec(learning_rate=0.01), rng)
            loss1, _ = evaluate(out, x, y)
            initial.append(loss0)
            final.append(loss1)
        assert np.mean(final) < np.mean(initial)

    def test_deterministic_given_rng_seed(self):
        x, y = make_batch(50, 5, 3, seed=4)
        m = init_model("softmax", 5, 3, seed=1)
        a = sgd_steps(m, x, y, 20, LearnerSpec(), np.random.default_rng(7))
        b = sgd_steps(m, x, y, 20, LearnerSpec(), np.random.default_rng(7))
        assert np.array_equal(a.theta, b.theta)

    def test_empty_data_raises(self):
        m = init_model("softmax", 5, 3, seed=1)
        with pytest.raises(ValueError):
            sgd_steps(m, np.empty((0, 5)), np.empty(0, dtype=int), 1, LearnerSpec(), np.random.default_rng(0))


def reference_sgd_steps(m, features, labels, k, cfg, rng):
    """The per-step loop the fused kernels must reproduce bit for bit."""
    theta = m.theta.copy()
    model = replace(m, theta=theta)
    n = features.shape[0]
    for _ in range(k):
        batch = rng.integers(0, n, size=cfg.batch_size)
        _, grad = loss_and_grad(model, features[batch], labels[batch], cfg.l2)
        theta -= cfg.learning_rate * grad
    return replace(m, theta=theta)


class TestFusedKernelMatchesReference:
    """Same theta bytes and same generator state as the per-step reference loop."""

    @pytest.mark.parametrize("n", [1, 500])
    @pytest.mark.parametrize("batch", [1, 31, 32])
    @pytest.mark.parametrize("k", [1, 7, 30, 2 * _CHUNK_STEPS + 5])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("arch", ["softmax", "mlp"])
    def test_bit_identical(self, arch, l2, k, batch, n):
        x, y = make_batch(n, 12, 5, seed=n + batch)
        m = init_model(arch, 12, 5, seed=1, hidden=9)
        cfg = LearnerSpec(learning_rate=0.1, batch_size=batch, l2=l2)
        fused_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
        fused = sgd_steps(m, x, y, k, cfg, fused_rng)
        ref = reference_sgd_steps(m, x, y, k, cfg, ref_rng)
        assert np.array_equal(fused.theta, ref.theta)
        assert fused_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("arch", ["softmax", "mlp"])
    def test_interleaved_draws(self, arch):
        """Other draws between calls see the generator exactly where the reference leaves it."""
        x, y = make_batch(300, 12, 5, seed=2)
        fused = ref = init_model(arch, 12, 5, seed=1, hidden=9)
        cfg = LearnerSpec(learning_rate=0.1, batch_size=31)
        fused_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for k in (3, 7, 1, 70, 5):
            fused = sgd_steps(fused, x, y, k, cfg, fused_rng)
            ref = reference_sgd_steps(ref, x, y, k, cfg, ref_rng)
            assert fused_rng.random() == ref_rng.random()
        assert np.array_equal(fused.theta, ref.theta)
        assert fused_rng.bit_generator.state == ref_rng.bit_generator.state


class TestSgdWorkspace:
    """The cached per-process stack never leaks into a returned model."""

    def test_result_does_not_share_workspace(self):
        x, y = make_batch(40, 6, 3, seed=0)
        m = init_model("softmax", 6, 3, seed=1)
        cfg = LearnerSpec(learning_rate=0.1, batch_size=8)
        a = sgd_steps(m, x, y, 3, cfg, np.random.default_rng(0))
        b = sgd_steps(m, x, y, 3, cfg, np.random.default_rng(1))
        workspace = _stack("softmax", 6, 3, 0, cfg, 1, 4)[0]  # one row, 3 steps in 4 slots
        for theta in (a.theta, b.theta):
            assert not np.shares_memory(theta, workspace)
        assert not np.shares_memory(a.theta, b.theta)

    def test_second_call_leaves_first_result(self):
        x, y = make_batch(40, 6, 3, seed=0)
        m = init_model("mlp", 6, 3, seed=1, hidden=5)
        cfg = LearnerSpec(arch="mlp", hidden=5, learning_rate=0.1, batch_size=8)
        first = sgd_steps(m, x, y, 4, cfg, np.random.default_rng(0))
        before = first.theta.tobytes()
        sgd_steps(first, x, y, 4, cfg, np.random.default_rng(1))
        assert first.theta.tobytes() == before

    def test_interleaved_specs_and_shapes(self):
        """Alternating calls over two specs and two model shapes each match the reference loop."""
        small, wide = make_batch(120, 6, 3, seed=2), make_batch(120, 9, 4, seed=3)
        specs = [LearnerSpec(learning_rate=0.1, batch_size=8),
                 LearnerSpec(learning_rate=0.05, batch_size=5, l2=0.01)]
        lanes = []
        for (x, y), dims, classes in ((small, 6, 3), (wide, 9, 4)):
            for i, cfg in enumerate(specs):
                m = init_model("softmax", dims, classes, seed=i)
                lanes.append([x, y, cfg, m, m, np.random.default_rng(i), np.random.default_rng(i)])
        for k in (1, 5, 3, 70):
            for lane in lanes:
                x, y, cfg, fused, ref, fused_rng, ref_rng = lane
                lane[3] = sgd_steps(fused, x, y, k, cfg, fused_rng)
                lane[4] = reference_sgd_steps(ref, x, y, k, cfg, ref_rng)
                assert np.array_equal(lane[3].theta, lane[4].theta)
                assert fused_rng.bit_generator.state == ref_rng.bit_generator.state


# Budgets per walker, cycled: equal, unequal, on both sides of a gather chunk and past two.
LOCKSTEP_KS = (5, 1, 64, 65, 30, 2 * _CHUNK_STEPS + 3, 5, 7)


def lockstep_walkers(arch, width, batch, l2):
    """`width` walkers of one shape and spec, each with its own samples, model, stream and k."""
    cfg = LearnerSpec(arch=arch, hidden=9, learning_rate=0.1, batch_size=batch, l2=l2)
    walkers = []
    for i in range(width):
        x, y = make_batch(1 + 37 * i % 300, 12, 5, seed=i)
        walkers.append((init_model(arch, 12, 5, seed=i, hidden=9), x, y, LOCKSTEP_KS[i % len(LOCKSTEP_KS)], i))
    return cfg, walkers


class TestLockstepMatchesReference:
    """Walkers trained in one lockstep block: each gets the reference theta and stream state."""

    @pytest.mark.parametrize("batch", [1, 31, 32])
    @pytest.mark.parametrize("width", [1, 2, 8, 14, 32])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("arch", ["softmax", "mlp"])
    def test_bit_identical(self, arch, l2, width, batch):
        cfg, walkers = lockstep_walkers(arch, width, batch, l2)
        rngs = [np.random.default_rng(seed) for *_, seed in walkers]
        with lockstep():
            trained = [sgd_steps(m, x, y, k, cfg, rng) for (m, x, y, k, _), rng in zip(walkers, rngs)]
        for (m, x, y, k, seed), out, rng in zip(walkers, trained, rngs):
            ref_rng = np.random.default_rng(seed)
            ref = reference_sgd_steps(m, x, y, k, cfg, ref_rng)
            assert np.array_equal(out.theta, ref.theta)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_mixed_shapes_and_specs_in_one_block(self):
        """Calls over two shapes and two specs, interleaved in one block, each match the reference."""
        lanes = []
        for dims, classes, arch in ((6, 3, "softmax"), (9, 4, "mlp")):
            for i, cfg in enumerate([LearnerSpec(arch=arch, hidden=4, learning_rate=0.1, batch_size=8),
                                     LearnerSpec(arch=arch, hidden=4, learning_rate=0.05, batch_size=5, l2=0.01)]):
                x, y = make_batch(50 + i, dims, classes, seed=i)
                lanes.append((init_model(arch, dims, classes, seed=i, hidden=4), x, y, 3 + 40 * i, cfg, i))
        with lockstep():
            trained = [sgd_steps(m, x, y, k, cfg, np.random.default_rng(seed)) for m, x, y, k, cfg, seed in lanes]
        for (m, x, y, k, cfg, seed), out in zip(lanes, trained):
            assert np.array_equal(out.theta, reference_sgd_steps(m, x, y, k, cfg, np.random.default_rng(seed)).theta)

    def test_theta_reads_nan_until_the_block_exits(self):
        cfg, walkers = lockstep_walkers("softmax", 3, 4, 0.0)
        with lockstep():
            trained = [sgd_steps(m, x, y, k, cfg, np.random.default_rng(seed)) for m, x, y, k, seed in walkers]
            assert all(np.isnan(out.theta).all() for out in trained)
        for (m, x, y, k, seed), out in zip(walkers, trained):
            assert np.array_equal(out.theta, reference_sgd_steps(m, x, y, k, cfg, np.random.default_rng(seed)).theta)

    def test_a_block_that_raises_trains_nothing_and_closes(self):
        cfg, walkers = lockstep_walkers("softmax", 2, 4, 0.0)
        (m, x, y, k, _), _ = walkers
        with pytest.raises(KeyError):
            with lockstep():
                queued = sgd_steps(m, x, y, k, cfg, np.random.default_rng(0))
                raise KeyError("inside the block")
        assert np.isnan(queued.theta).all()
        with lockstep():  # no block was left open
            pass
        trained = sgd_steps(m, x, y, k, cfg, np.random.default_rng(0))  # outside a block: trains at once
        assert np.array_equal(trained.theta, reference_sgd_steps(m, x, y, k, cfg, np.random.default_rng(0)).theta)

    def test_float32_features_train_as_their_float64_values(self):
        cfg, ((m, x, y, k, _), *_) = lockstep_walkers("mlp", 1, 4, 0.0)
        x32 = x.astype(np.float32)
        out = sgd_steps(m, x32, y.astype(np.int32), k, cfg, np.random.default_rng(0))
        ref = reference_sgd_steps(m, x32.astype(np.float64), y, k, cfg, np.random.default_rng(0))
        assert np.array_equal(out.theta, ref.theta)

    def test_a_queued_model_cannot_train_again_in_its_block(self):
        cfg, ((m, x, y, k, _), *_) = lockstep_walkers("softmax", 1, 4, 0.0)
        with pytest.raises(RuntimeError):
            with lockstep():
                queued = sgd_steps(m, x, y, k, cfg, np.random.default_rng(0))
                sgd_steps(queued, x, y, k, cfg, np.random.default_rng(1))
        cfg, walkers = lockstep_walkers("softmax", 32, 4, 0.0)
        with pytest.raises(RuntimeError, match="still waiting to train"):
            with lockstep():
                queued = [sgd_steps(m, x, y, k, cfg, np.random.default_rng(s)) for m, x, y, k, s in walkers]
                m, x, y, k, _ = walkers[16]
                sgd_steps(m, x, y, k, cfg, np.random.default_rng(99))  # an input is not queued: it may train again
                sgd_steps(queued[16], x, y, k, cfg, np.random.default_rng(99))
        with pytest.raises(RuntimeError):
            with lockstep():
                with lockstep():
                    pass

    @pytest.mark.parametrize("family, needs", [("Haswell", ("AVX2", "FMA3")), ("Sandybridge", ("AVX",))])
    def test_bit_identical_under_other_blas_kernels(self, family, needs):
        """The same checks in a process whose OpenBLAS runs another kernel family."""
        umath = pytest.importorskip("numpy._core._multiarray_umath")  # numpy 2's home of the CPU flags
        if not all(umath.__cpu_features__.get(flag) for flag in needs):
            pytest.skip(f"this CPU cannot run OpenBLAS's {family} kernels")
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "OPENBLAS_CORETYPE": family,
               "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{Path(__file__).name}::TestLockstepMatchesReference::test_bit_identical",
             f"{Path(__file__).name}::TestFusedKernelMatchesReference::test_bit_identical"],
            cwd=Path(__file__).parent, env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def reference_logits(m, features):
    if m.arch == "softmax":
        w = m.theta.reshape(m.n_classes, m.n_dims + 1)
        return features @ w[:, :-1].T + w[:, -1]
    w1, w2 = _split_mlp(m)
    h = np.tanh(features @ w1[:, :-1].T + w1[:, -1])
    return h @ w2[:, :-1].T + w2[:, -1]


def reference_evaluate(m, features, labels):
    """The sample-major evaluation the class-major `evaluate` must reproduce bit for bit."""
    logp = _log_softmax(reference_logits(m, features))
    loss = -logp[np.arange(features.shape[0]), labels].mean()
    accuracy = float((logp.argmax(axis=1) == labels).mean())
    return float(loss), accuracy


class TestEvaluateMatchesReference:
    """Equal (loss, accuracy) to the sample-major reference, compared with ==."""

    ARCHS = [("softmax", 0), ("mlp", 1), ("mlp", 64)]

    @staticmethod
    def model(arch, hidden, dims, classes, seed):
        m = init_model(arch, dims, classes, seed=seed, hidden=hidden)
        theta = np.random.default_rng(seed).normal(0.0, 1.5, m.theta.shape)
        return ModelParams(arch, dims, classes, m.hidden, theta)

    @pytest.mark.parametrize("classes", [2, 3, 7, 8, 9, 10, 16, 17, 129, 200])
    @pytest.mark.parametrize("dims", [1, 5, 32])
    @pytest.mark.parametrize("arch,hidden", ARCHS)
    def test_shapes(self, arch, hidden, dims, classes):
        for n in (1, 2, 7, 33, 1000):
            x, y = make_batch(n, dims, classes, seed=n + dims + classes)
            m = self.model(arch, hidden, dims, classes, seed=n)
            assert evaluate(m, x, y) == reference_evaluate(m, x, y)

    @pytest.mark.parametrize("n,dims,classes", [(7, 32, 10), (100, 100, 64), (33, 128, 129)])
    @pytest.mark.parametrize("arch,hidden", ARCHS)
    def test_logits_keep_sample_major_products(self, arch, hidden, n, dims, classes):
        """Shapes where `W @ features.T` differs from `features @ W.T` in the last bit."""
        x, _ = make_batch(n, dims, classes, seed=n)
        m = self.model(arch, hidden, dims, classes, seed=dims)
        assert np.array_equal(_class_logits(m, x), reference_logits(m, x).T)

    @pytest.mark.parametrize("arch,hidden", ARCHS)
    def test_all_zero_theta_ties_every_class(self, arch, hidden):
        x, y = make_batch(300, 5, 10, seed=4)
        m = init_model(arch, 5, 10, seed=0, hidden=hidden)
        m = ModelParams(arch, 5, 10, m.hidden, np.zeros_like(m.theta))
        assert evaluate(m, x, y) == reference_evaluate(m, x, y)

    def test_duplicated_rows_label_on_later_tied_class(self):
        """Classes 3, 5 and 8 share one row; argmax picks 3, so a label on 8 is never a hit."""
        x, y = make_batch(500, 6, 10, seed=5)
        w = np.random.default_rng(6).normal(0.0, 2.0, (10, 7))
        w[3] = w[5] = w[8]
        y = np.where(np.arange(500) % 2 == 0, 8, y)
        m = ModelParams("softmax", 6, 10, 0, w.ravel())
        loss, acc = evaluate(m, x, y)
        assert (loss, acc) == reference_evaluate(m, x, y)
        relabeled = np.where(y == 8, 3, y)
        assert evaluate(m, x, relabeled)[1] > acc

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_logits(self, bad):
        """Columns of NaN log-probabilities score as argmax scores them: the first NaN wins."""
        x, y = make_batch(200, 4, 6, seed=10)
        w = np.random.default_rng(11).normal(0.0, 1.0, (6, 5))
        w[2, 0] = bad
        m = ModelParams("softmax", 4, 6, 0, w.ravel())
        with np.errstate(invalid="ignore"):
            loss, acc = evaluate(m, x, y)
            ref_loss, ref_acc = reference_evaluate(m, x, y)
        assert math.isnan(loss) and math.isnan(ref_loss)
        assert acc == ref_acc

    @pytest.mark.parametrize("arch,hidden", ARCHS)
    def test_sliced_features(self, arch, hidden):
        x, y = make_batch(400, 12, 10, seed=7)
        m = self.model(arch, hidden, 5, 10, seed=8)
        view = x[::3, 2:12:2]
        assert not view.flags.c_contiguous
        assert evaluate(m, view, y[::3]) == reference_evaluate(m, view, y[::3])

    def test_class_sum_follows_numpy_order(self):
        """A numpy whose add.reduce order differs from `_class_sum` must fail here, not move bytes."""
        rng = np.random.default_rng(9)
        for classes in range(1, 301):
            x = rng.normal(size=(17, classes)) * rng.uniform(0.1, 10.0)
            assert np.array_equal(_class_sum(np.ascontiguousarray(x.T)), np.add.reduce(x, axis=1))


class TestEvaluate:
    def test_uniform_logits_on_balanced_data(self):
        m = ModelParams("softmax", 4, 10, 0, np.zeros(50))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 4))
        y = np.repeat(np.arange(10), 20)
        loss, acc = evaluate(m, x, y)
        assert abs(loss - math.log(10)) < 1e-12
        assert acc == 0.1  # argmax tie-break picks class 0, which is 10% of labels

    def test_perfect_fit_scores_one(self):
        x = np.array([[10.0, 0.0], [-10.0, 0.0]])
        y = np.array([0, 1])
        theta = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]).ravel()
        m = ModelParams("softmax", 2, 2, 0, theta)
        loss, acc = evaluate(m, x, y)
        assert acc == 1.0
        assert loss < 1e-4

    def test_order_invariant(self):
        x, y = make_batch(60, 5, 3, seed=2)
        m = init_model("softmax", 5, 3, seed=0)
        perm = np.random.default_rng(1).permutation(60)
        loss_a, acc_a = evaluate(m, x, y)
        loss_b, acc_b = evaluate(m, x[perm], y[perm])
        assert acc_a == acc_b
        assert loss_a == pytest.approx(loss_b, abs=1e-12)  # summation order moves the last ulp

    def test_empty_data_raises(self):
        m = init_model("softmax", 5, 3, seed=1)
        with pytest.raises(ValueError):
            evaluate(m, np.empty((0, 5)), np.empty(0, dtype=int))


class TestWeightedAverage:
    def test_identical_models_unchanged(self):
        m = init_model("softmax", 4, 3, seed=0)
        out = weighted_average([m, m], [2.0, 5.0])
        assert np.allclose(out.theta, m.theta)

    def test_two_value_example(self):
        a = ModelParams("softmax", 0, 1, 0, np.array([1.0]))
        b = ModelParams("softmax", 0, 1, 0, np.array([5.0]))
        out = weighted_average([a, b], [100.0, 300.0])
        assert out.theta[0] == 4.0

    def test_joint_permutation_invariance(self):
        models = [init_model("softmax", 4, 3, seed=s) for s in range(3)]
        weights = [1.0, 2.0, 3.0]
        fwd = weighted_average(models, weights)
        rev = weighted_average(models[::-1], weights[::-1])
        assert np.allclose(fwd.theta, rev.theta)

    def test_stays_in_convex_hull(self):
        models = [init_model("softmax", 6, 4, seed=s) for s in range(4)]
        out = weighted_average(models, [0.2, 1.0, 3.0, 0.7])
        stack = np.stack([m.theta for m in models])
        assert np.all(out.theta >= stack.min(axis=0) - 1e-12)
        assert np.all(out.theta <= stack.max(axis=0) + 1e-12)

    def test_zero_weights_fall_back_equal(self, caplog):
        models = [init_model("softmax", 4, 3, seed=s) for s in range(2)]
        with caplog.at_level("WARNING"):
            out = weighted_average(models, [0.0, 0.0])
        assert "zero" in caplog.text
        assert np.allclose(out.theta, (models[0].theta + models[1].theta) / 2)

    def test_mismatched_shapes_rejected(self):
        a = init_model("softmax", 4, 3, seed=0)
        b = init_model("softmax", 5, 3, seed=0)
        with pytest.raises(ConfigError):
            weighted_average([a, b], [1.0, 1.0])
