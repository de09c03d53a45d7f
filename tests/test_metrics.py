import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacl.backbone import (AdapterStack, Backbone, begin_task, end_task, load_checkpoint,
                           save_checkpoint)
from oacl.errors import DataError, ProtocolError
from oacl.metrics import (AccuracyMatrix, accuracy, avg_final_accuracy,
                          budget_report, forgetting_per_task)


def matrix(rows):
    a = np.array(rows, dtype=float)
    return AccuracyMatrix(a)


class TestAccuracyMatrix:
    def test_shape_checked(self):
        with pytest.raises(DataError):
            AccuracyMatrix(np.zeros((2, 3)))

    def test_range_checked(self):
        with pytest.raises(DataError):
            matrix([[0.5, 1.2], [0.1, 0.3]])

    def test_nan_entries_allowed_off_final_column(self):
        m = matrix([[0.9, 0.8], [np.nan, 0.7]])
        assert avg_final_accuracy(m) == pytest.approx(0.75)

    def test_missing_final_column_rejected(self):
        m = matrix([[0.9, np.nan], [0.1, 0.7]])
        with pytest.raises(DataError):
            avg_final_accuracy(m)


class TestAccuracy:
    def test_perfect_and_chance(self):
        x = np.eye(3)
        assert accuracy(x, np.array([0, 1, 2])) == 1.0
        assert accuracy(x, np.array([1, 2, 0])) == 0.0

    def test_fractional(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        y = np.array([0, 1, 1, 1])
        assert accuracy(logits, y) == 0.75

    def test_tie_breaks_to_lowest_index(self):
        logits = np.zeros((2, 4))
        assert accuracy(logits, np.array([0, 0])) == 1.0
        assert accuracy(logits, np.array([1, 2])) == 0.0

    def test_empty_split_rejected(self):
        with pytest.raises(DataError):
            accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_one_label_for_three_rows_rejected(self):
        # numpy would broadcast the one label across the rows: 1/3
        with pytest.raises(DataError, match="1 labels for 3 rows"):
            accuracy(np.eye(3), np.array([0]))

    def test_two_labels_for_three_rows_rejected(self):
        # numpy would raise its own ValueError on the mismatched shapes
        with pytest.raises(DataError, match="2 labels for 3 rows"):
            accuracy(np.eye(3), np.array([0, 1]))


class TestForgetting:
    def test_no_forgetting(self):
        m = matrix([[0.8, 0.8], [np.nan, 0.9]])
        assert np.allclose(forgetting_per_task(m), [0.0, 0.0])

    def test_hand_computed(self):
        m = matrix([[0.9, 0.6, 0.5],
                    [np.nan, 0.8, 0.7],
                    [np.nan, np.nan, 0.75]])
        assert np.allclose(forgetting_per_task(m), [0.4, 0.1, 0.0])

    def test_peak_after_own_task_counts(self):
        # task 1 improves after task 2 then drops: peak is the max over j >= i
        m = matrix([[0.5, 0.7, 0.4],
                    [np.nan, 0.8, 0.8],
                    [np.nan, np.nan, 0.9]])
        assert forgetting_per_task(m)[0] == pytest.approx(0.3)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50)
    def test_forgetting_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 6))
        a = rng.uniform(0, 1, size=(T, T))
        a[np.tril_indices(T, k=-1)] = np.nan
        f = forgetting_per_task(AccuracyMatrix(a))
        assert (f >= -1e-15).all()
        assert f[T - 1] == 0.0  # last task is evaluated at its own peak


def frozen_stack(reffs_by_task, d=4, r_max=3):
    """Build a 1-point stack whose per-task r_eff values match reffs_by_task
    by setting gate magnitudes above/below the threshold."""
    stack = AdapterStack(1)
    rng = np.random.default_rng(0)
    for t, r_eff in enumerate(reffs_by_task, start=1):
        begin_task(stack, t, r_max, 0.5, d=d, rng=rng)
        ad = stack.points[0][t - 1]
        g = np.full((1, r_max), 0.1)
        g[0, :r_eff] = 1.0
        ad.g.value[...] = g
        end_task(stack)
    return stack


class TestBudgetReport:
    def test_counts_match_hand_computation(self):
        stack = frozen_stack([2, 3], d=4, r_max=3)
        rep = budget_report(stack)
        assert rep.r_eff == {(1, 0): 2, (2, 0): 3}
        # activated = r_eff * 2d + r_max + 1
        assert rep.per_task_activated == {1: 2 * 8 + 4, 2: 3 * 8 + 4}
        assert rep.total_activated == 20 + 28
        assert rep.total_allocated == 56
        assert rep.avg_final_budget == pytest.approx(2.5)
        assert rep.params_saved_fraction == pytest.approx(1 - 48 / 56)
        assert rep.r_max == 3

    def test_requires_all_frozen(self):
        stack = AdapterStack(1)
        begin_task(stack, 1, 2, 0.5, d=4, rng=np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            budget_report(stack)

    def test_full_activation_saves_nothing(self):
        stack = frozen_stack([3, 3], d=4, r_max=3)
        assert budget_report(stack).params_saved_fraction == 0.0

    def test_loaded_checkpoint_gives_the_saved_report(self, tmp_path):
        stack = frozen_stack([2, 0, 3], d=4, r_max=3)
        path = tmp_path / "checkpoint.oacl.npz"
        save_checkpoint(path, Backbone(4, 4, 1, 2, seed=0), stack)
        assert budget_report(load_checkpoint(path)[1]) == budget_report(stack)
