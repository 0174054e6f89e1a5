import numpy as np
import pytest

from xlwalk.datahub import (
    gen_synthetic,
    partition_clique_dominant,
    partition_label_skew,
    save_dataset,
)
from xlwalk.errors import ConfigError
from xlwalk.experiment import DataSpec
from xlwalk.learner import LearnerSpec, evaluate, init_model, sgd_steps
from xlwalk.topology import gen_connected_caveman, gen_rgg

from .readers import load_dataset

# Critical value of the chi-squared distribution, 9 degrees of freedom, p=0.01.
CHI2_CRIT_DF9 = 21.665994333461924


@pytest.fixture(scope="module")
def ds():
    return gen_synthetic(10, 32, 500, 0.2, 3.0, seed=1)


@pytest.fixture(scope="module")
def g50():
    return gen_connected_caveman(8, 50, 1)


class TestSynthetic:
    def test_sizes(self, ds):
        assert ds.n_samples == 5000
        assert len(ds.train_indices) == 4000
        assert len(ds.val_indices) == 1000
        assert set(ds.train_indices) | set(ds.val_indices) == set(range(5000))
        assert not set(ds.train_indices) & set(ds.val_indices)

    def test_stratified_split(self, ds):
        train_labels = ds.labels[ds.train_indices]
        val_labels = ds.labels[ds.val_indices]
        for k in range(10):
            assert (train_labels == k).sum() == 400
            assert (val_labels == k).sum() == 100

    def test_finite_features(self, ds):
        assert np.isfinite(ds.features).all()

    def test_tiny_dataset(self):
        tiny = gen_synthetic(2, 2, 2, 0.5, 10.0, seed=0)
        assert tiny.n_samples == 4
        assert len(tiny.train_indices) == 2
        assert len(tiny.val_indices) == 2
        # separation 10 puts the class blobs ~14 sigma apart
        mean0 = tiny.features[tiny.labels == 0].mean(axis=0)
        mean1 = tiny.features[tiny.labels == 1].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) > 5.0

    @pytest.mark.parametrize("sep", [float("nan"), float("inf"), -float("inf"), 10 ** 400])
    def test_non_finite_separation_rejected(self, sep):
        with pytest.raises(ConfigError, match="sep must be a finite number"):
            gen_synthetic(2, 2, 2, 0.5, sep, seed=0)
        with pytest.raises(ConfigError, match="sep must be a finite number"):
            DataSpec(sep=sep)

    def test_zero_separation_unlearnable(self):
        flat = gen_synthetic(10, 8, 100, 0.2, 0.0, seed=3)
        model = init_model("softmax", 8, 10, seed=0)
        rng = np.random.default_rng(0)
        trained = sgd_steps(
            model,
            flat.features[flat.train_indices],
            flat.labels[flat.train_indices],
            300,
            LearnerSpec(learning_rate=0.05),
            rng,
        )
        _, acc = evaluate(trained, flat.features[flat.val_indices], flat.labels[flat.val_indices])
        assert acc < 0.2  # chance level is 0.1

    def test_deterministic(self):
        a = gen_synthetic(4, 6, 20, 0.25, 2.0, seed=9)
        b = gen_synthetic(4, 6, 20, 0.25, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            gen_synthetic(1, 4, 10, 0.2, 1.0, 0)
        with pytest.raises(ConfigError):
            gen_synthetic(3, 4, 1, 0.2, 1.0, 0)
        with pytest.raises(ConfigError):
            gen_synthetic(3, 4, 10, 1.0, 1.0, 0)


class TestLabelSkew:
    def test_coverage_and_disjointness(self, ds, g50):
        part = partition_label_skew(ds, g50, 0.98, 1, 2, seed=4)
        seen = np.concatenate(part.assignment)
        assert len(seen) == len(set(seen.tolist())) == 4000
        assert set(seen.tolist()) == set(ds.train_indices.tolist())

    def test_balanced_counts(self, ds, g50):
        part = partition_label_skew(ds, g50, 0.98, 1, 2, seed=4)
        counts = [len(ix) for ix in part.assignment]
        assert max(counts) - min(counts) <= 1

    def test_most_nodes_are_skewed(self, ds, g50):
        part = partition_label_skew(ds, g50, 0.98, 1, 2, seed=4)
        distinct = [len(np.unique(ds.labels[ix])) for ix in part.assignment]
        # 49 of 50 nodes demanded 1-2 labels; pool exhaustion dilutes some
        assert sum(1 for d in distinct if d <= 3) >= 40

    def test_quality_matches_recount(self, ds, g50):
        part = partition_label_skew(ds, g50, 0.9, 1, 2, seed=6)
        for i, ix in enumerate(part.assignment):
            assert part.data_frac[i] == len(ix) / 4000
            assert part.label_frac[i] == len(np.unique(ds.labels[ix])) / 10
        assert part.data_frac.sum() <= 1.0 + 1e-12

    def test_quality_fraction_values(self, ds):
        g = gen_connected_caveman(10, 100, 2)  # 4000/100 -> exactly 40 per node
        part = partition_label_skew(ds, g, 0.98, 1, 2, seed=2)
        two_label = [i for i in range(100)
                     if len(np.unique(ds.labels[part.assignment[i]])) == 2]
        assert two_label
        i = two_label[0]
        assert part.data_frac[i] == 0.01
        assert part.label_frac[i] == 0.2

    def test_zero_skew_uniform_chi2(self):
        small = gen_synthetic(10, 4, 300, 0.2, 1.0, seed=0)
        g = gen_connected_caveman(4, 20, 0)
        stats = []
        for seed in range(20):
            part = partition_label_skew(small, g, 0.0, 1, 2, seed=seed)
            for ix in part.assignment:
                hist = np.bincount(small.labels[ix], minlength=10)
                expected = len(ix) / 10
                stats.append(((hist - expected) ** 2 / expected).sum())
        assert np.mean(stats) < CHI2_CRIT_DF9

    def test_deterministic(self, ds, g50):
        a = partition_label_skew(ds, g50, 0.98, 1, 2, seed=11)
        b = partition_label_skew(ds, g50, 0.98, 1, 2, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a.assignment, b.assignment))

    def test_invalid_params(self, ds, g50):
        with pytest.raises(ConfigError):
            partition_label_skew(ds, g50, 1.5, 1, 2, 0)
        with pytest.raises(ConfigError):
            partition_label_skew(ds, g50, 0.5, 2, 1, 0)
        with pytest.raises(ConfigError):
            partition_label_skew(ds, g50, 0.5, 1, 11, 0)


class TestCliqueDominant:
    def test_exact_cover_ten_cliques(self, ds):
        g = gen_connected_caveman(10, 1000, 3)
        part = partition_clique_dominant(ds, g, 1.0, seed=5)
        assert sum(len(ix) for ix in part.assignment) == 4000
        for i, ix in enumerate(part.assignment):
            labels = np.unique(ds.labels[ix])
            assert labels.tolist() == [g.clique_of[i] % 10]

    def test_pure_cliques_when_oversubscribed(self, ds):
        g = gen_connected_caveman(8, 64, 3)
        part = partition_clique_dominant(ds, g, 1.0, seed=5)
        for i, ix in enumerate(part.assignment):
            labels = np.unique(ds.labels[ix])
            assert labels.tolist() == [g.clique_of[i] % 10]
        # two labels have no preferring clique, so a fifth of the pool is unused
        assert abs(part.data_frac.sum() - 0.8) < 1e-12

    def test_low_dominance_near_uniform(self, ds):
        g = gen_connected_caveman(5, 40, 1)
        part = partition_clique_dominant(ds, g, 0.1, seed=7)
        assert sum(len(ix) for ix in part.assignment) == 4000
        distinct = [len(np.unique(ds.labels[ix])) for ix in part.assignment]
        assert np.mean(distinct) > 5

    def test_requires_cliques(self, ds):
        g = gen_rgg(20, 0.5, 0)
        with pytest.raises(ConfigError):
            partition_clique_dominant(ds, g, 1.0, 0)

    def test_too_many_cliques_rejected(self):
        small = gen_synthetic(4, 4, 50, 0.2, 1.0, seed=0)
        g = gen_connected_caveman(5, 25, 0)
        with pytest.raises(ConfigError):
            partition_clique_dominant(small, g, 1.0, 0)


class TestSerialization:
    def test_dataset_roundtrip_json(self, tmp_path):
        ds = gen_synthetic(3, 4, 10, 0.2, 2.0, seed=2)
        save_dataset(ds, tmp_path / "ds.json")
        back = load_dataset(tmp_path / "ds.json")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.val_indices, ds.val_indices)

    def test_dataset_binary_sidecar(self, tmp_path):
        ds = gen_synthetic(3, 4, 10, 0.2, 2.0, seed=2)
        save_dataset(ds, tmp_path / "ds.json", binary_features=True)
        assert (tmp_path / "ds.features.bin").exists()
        back = load_dataset(tmp_path / "ds.json")
        assert back.features.shape == ds.features.shape
        assert np.allclose(back.features, ds.features, atol=1e-5)  # float32 sidecar


class TestNumpyCanaries:
    """World building relies on these numpy behaviours to keep its bytes; a numpy that
    changes one must fail here, not move the bytes of every world."""

    def test_one_colour_hypergeometric_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        for size, count in [(7, 0), (7, 3), (7, 7), (1, 1), (400, 123)]:
            assert rng.multivariate_hypergeometric([size], count).tolist() == [count]
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 400])
    def test_array_shuffle_matches_list_shuffle(self, n):
        values = np.random.default_rng(n).permutation(10 * n + 1)[:n].astype(np.int64)
        as_list, as_array = values.tolist(), values.copy()
        list_rng, array_rng = np.random.default_rng(5), np.random.default_rng(5)
        list_rng.shuffle(as_list)
        array_rng.shuffle(as_array)
        assert as_array.tolist() == as_list
        assert array_rng.bit_generator.state == list_rng.bit_generator.state

    @pytest.mark.parametrize("shape", [(1,), (5, 3), (500, 32)])
    def test_standard_normal_into_a_block_matches_normal(self, shape):
        fill_rng, normal_rng = np.random.default_rng(11), np.random.default_rng(11)
        block = np.empty((2,) + shape)
        fill_rng.standard_normal(out=block[1])
        assert block[1].tobytes() == normal_rng.normal(size=shape).tobytes()
        assert fill_rng.bit_generator.state == normal_rng.bit_generator.state
