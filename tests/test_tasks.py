import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacl.errors import ConfigError, DataError, GenerationError
from oacl.tasks import (NOISE_SIGMA, SEED_RELABEL, SEED_ROTATION, SEED_SPLIT,
                        _cluster_means, _sample_split, gen_base, gen_task_stream,
                        random_orthogonal, reorder)


def unrotated_task2_train(seed, C, d_in, n_per_class):
    """Oracle: task 2's training split before its rotation is applied."""
    rng = np.random.default_rng([seed, SEED_SPLIT, 2, 0])
    return _sample_split(rng, _cluster_means(seed, C, d_in), n_per_class)


class TestClusterGeometry:
    def test_means_unit_norm_and_separated(self):
        base = gen_base(0, 8, 32, 200)
        # recover per-class empirical means; they concentrate near the true
        # unit-norm means at this sample size
        x, y = base.train
        for c in range(8):
            m = x[y == c].mean(axis=0)
            assert abs(np.linalg.norm(m) - 1.0) < 0.2

    def test_pairwise_angle_at_least_60_degrees(self):
        m = _cluster_means(3, 8, 32)
        gram = m @ m.T
        np.fill_diagonal(gram, 0.0)
        assert np.abs(gram).max() <= 0.5 + 1e-12
        assert np.allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-12)

    def test_infeasible_geometry_raises(self):
        with pytest.raises(GenerationError):
            gen_base(0, 8, 4, 10)  # d_in < C

    def test_base_has_no_test_split_and_keeps_its_streams(self):
        base = gen_base(4, 8, 32, 30, n_val_per_class=5)
        assert base.test is None
        means = _cluster_means(4, 8, 32)
        for k, (split, n) in enumerate(((base.train, 30), (base.val, 5))):
            x, y = _sample_split(np.random.default_rng([4, SEED_SPLIT, 0, k]), means, n)
            assert split[0].tobytes() == x.tobytes()
            assert split[1].tobytes() == y.tobytes()

    def test_noise_scale(self):
        x, y = gen_base(1, 8, 32, 200).train
        resid = np.concatenate([x[y == c] - x[y == c].mean(axis=0)
                                for c in range(8)])
        assert abs(resid.std() - NOISE_SIGMA) < 0.02


class TestSplits:
    def test_split_sizes(self):
        stream = gen_task_stream(0, 2, 8, 32, n_train_per_class=250)
        for task in stream.tasks:
            assert task.train[0].shape == (2000, 32)
            assert task.val[0].shape == (400, 32)
            assert task.test[0].shape == (800, 32)

    def test_splits_are_disjoint_draws(self):
        task = gen_task_stream(0, 1, 8, 32, n_train_per_class=50).tasks[0]
        tr = {row.tobytes() for row in task.train[0]}
        assert not any(row.tobytes() in tr for row in task.test[0])

    def test_class_balance(self):
        task = gen_task_stream(0, 1, 8, 32, n_train_per_class=250).tasks[0]
        counts = np.bincount(task.train[1], minlength=8)
        assert np.array_equal(counts, np.full(8, 250))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(DataError):
            gen_task_stream(0, 2, 8, 32, n_train_per_class=0)
        with pytest.raises(DataError):
            gen_task_stream(0, 2, 8, 32, n_test_per_class=0)
        with pytest.raises(DataError):
            gen_task_stream(0, 2, 8, 32, n_val_per_class=-1)
        with pytest.raises(ConfigError):
            gen_task_stream(0, 0, 8, 32)
        with pytest.raises(ConfigError):
            gen_task_stream(0, 2, 8, 32, shift="scaling")


class TestDeterminismAndShift:
    def test_same_seed_is_bitwise_identical(self):
        a = gen_task_stream(7, 3, 8, 32)
        b = gen_task_stream(7, 3, 8, 32)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train[0], tb.train[0])
            assert np.array_equal(ta.train[1], tb.train[1])

    def test_different_seeds_differ(self):
        a = gen_task_stream(7, 1, 8, 32)
        b = gen_task_stream(8, 1, 8, 32)
        assert not np.array_equal(a.tasks[0].train[0], b.tasks[0].train[0])

    def test_task1_is_base_distribution(self):
        # task 1 has no rotation; its class means match the base dataset's
        # (independent noise draws, so only approximately)
        base = gen_base(5, 8, 32, 250)
        stream = gen_task_stream(5, 2, 8, 32, n_train_per_class=250)
        t1 = stream.tasks[0]
        for c in range(8):
            mb = base.train[0][base.train[1] == c].mean(axis=0)
            mt = t1.train[0][t1.train[1] == c].mean(axis=0)
            assert np.linalg.norm(mb - mt) < 0.3

    def test_rotation_applied_exactly(self):
        # task 2 is its own unrotated draws times its own rotation, exactly
        x0, y0 = unrotated_task2_train(2, 8, 32, 250)
        q = random_orthogonal(np.random.default_rng([2, SEED_ROTATION, 2]), 32)
        x, y = gen_task_stream(2, 2, 8, 32).tasks[1].train
        assert np.allclose(x, x0 @ q.T, atol=1e-12)
        assert np.array_equal(y, y0)
        assert np.allclose(np.linalg.norm(x, axis=1), np.linalg.norm(x0, axis=1),
                           atol=1e-10)

    def test_rotation_moves_the_data(self):
        x0, _ = unrotated_task2_train(2, 8, 32, 250)
        stream = gen_task_stream(2, 2, 8, 32)
        assert not np.allclose(x0, stream.tasks[1].train[0], atol=1e-3)

    def test_relabel_permutes_labels_only(self):
        plain = gen_task_stream(3, 2, 8, 32)
        rel = gen_task_stream(3, 2, 8, 32, shift="rotation+relabel")
        assert np.array_equal(plain.tasks[1].train[0], rel.tasks[1].train[0])
        perm = np.random.default_rng([3, SEED_RELABEL, 2]).permutation(8)
        assert np.array_equal(perm[plain.tasks[1].train[1]], rel.tasks[1].train[1])
        assert np.array_equal(plain.tasks[0].train[1], rel.tasks[0].train[1])

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=2, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_random_orthogonal_is_orthogonal(self, seed, n):
        q = random_orthogonal(np.random.default_rng(seed), n)
        assert np.abs(q @ q.T - np.eye(n)).max() < 1e-10
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10


class TestReorder:
    def test_reorder_permutes_tasks(self):
        stream = gen_task_stream(0, 4, 8, 32, n_train_per_class=10)
        r = reorder(stream, [3, 1, 4, 2])
        assert [t.task_id for t in r.tasks] == [3, 1, 4, 2]
        assert r.order_id == "3-1-4-2"

    def test_invalid_permutation(self):
        stream = gen_task_stream(0, 3, 8, 32, n_train_per_class=10)
        with pytest.raises(ConfigError):
            reorder(stream, [1, 2, 2])
        with pytest.raises(ConfigError):
            reorder(stream, [0, 1, 2])
        for not_a_permutation in (3, "123", [1.0, 2.0, 3.0], [True, 2, 3], [1, "b", 3]):
            with pytest.raises(ConfigError):
                reorder(stream, not_a_permutation)
