import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacl.adapters import OAAdapter
from oacl.backbone import AdapterStack, begin_task, end_task
from oacl.errors import DimensionError
from oacl.numerics import Tape, zero_grads
from oacl.orthogonality import orth_loss_total, overlap_diagnostic, stack_overlap_summary


def frozen_adapter(d=4, r_max=3, seed=0, g=None, w2=None, tau=0.3):
    ad = OAAdapter(d, r_max, tau, np.random.default_rng(seed))
    if g is not None:
        ad.g.value[...] = g
    if w2 is not None:
        ad.W2.value[...] = w2
    ad.freeze()
    return ad


class TestActivatedBasis:
    def test_open_adapter_has_no_basis(self):
        ad = OAAdapter(4, 2, 0.3, np.random.default_rng(0))
        assert ad.basis is None

    def test_all_masked_gives_empty_basis(self):
        ad = frozen_adapter(tau=5.0)
        assert ad.basis.shape == (4, 0)

    def test_single_active_unit_gate(self):
        # gamma = [1, 0] needs g = [1 + tau, below tau]
        ad = frozen_adapter(d=2, r_max=2, g=[[1.3, 0.1]],
                            w2=[[1.0, 5.0], [2.0, 6.0]], tau=0.3)
        assert np.allclose(ad.basis, [[1.0], [2.0]], atol=1e-15)

    def test_columns_scaled_by_gate(self):
        rng = np.random.default_rng(3)
        w2 = rng.standard_normal((5, 3))
        # gammas 0.5, 0, 2.0 at tau=0.5
        ad = frozen_adapter(d=5, r_max=3, g=[[1.0, 0.2, 2.5]], w2=w2, tau=0.5)
        assert ad.basis.shape == (5, 2)
        assert np.allclose(ad.basis[:, 0], 0.5 * w2[:, 0], atol=1e-14)
        assert np.allclose(ad.basis[:, 1], 2.0 * w2[:, 2], atol=1e-14)


def pair_loss(w2_t, basis: np.ndarray) -> float:
    """orth_loss_total of a one-point stack whose frozen task has ``basis`` and
    whose open task has the up-projection ``w2_t``: ||W2_t^T W2~_s||_F^2."""
    d, r = np.shape(w2_t)
    rng = np.random.default_rng(0)
    stack = AdapterStack(1)
    begin_task(stack, 1, r, 0.3, d=d, rng=rng)
    end_task(stack)
    stack.points[0][0].basis = basis
    begin_task(stack, 2, r, 0.3, d=d, rng=rng)
    stack.points[0][1].W2.value[...] = w2_t
    return float(orth_loss_total(Tape(), stack, 2).value[0, 0])


class TestOrthLossPair:
    def test_orthogonal_columns_give_zero(self):
        basis = np.array([[1.0], [0.0], [0.0]])
        w2_t = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert pair_loss(w2_t, basis) == 0.0

    def test_aligned_unit_columns(self):
        e1 = np.array([[1.0], [0.0]])
        assert pair_loss(e1, e1) == pytest.approx(1.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(12)
        w2_t = rng.standard_normal((3, 2))
        basis = rng.standard_normal((3, 2))
        brute = sum((w2_t[:, i] @ basis[:, j]) ** 2
                    for i in range(2) for j in range(2))
        got = pair_loss(w2_t, basis)
        assert abs(got - brute) / abs(brute) < 1e-12

    def test_row_dim_mismatch(self):
        with pytest.raises(DimensionError):
            pair_loss(np.ones((3, 1)), np.ones((4, 1)))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50)
    def test_gate_scaling_is_quadratic(self, seed):
        rng = np.random.default_rng(seed)
        w2_t = rng.standard_normal((4, 2))
        cols = rng.standard_normal((4, 3))
        c = float(rng.uniform(0.1, 3.0))
        base = pair_loss(w2_t, cols)
        scaled = pair_loss(w2_t, c * cols)
        assert scaled == pytest.approx(c * c * base, rel=1e-10)


def build_stack_with_history(n_points=2, d=4, r_max=2, n_tasks=3, seed=0):
    stack = AdapterStack(n_points)
    rng = np.random.default_rng(seed)
    for t in range(1, n_tasks + 1):
        begin_task(stack, t, r_max, 1e-3, d=d, rng=rng)
        for ad in stack.trainable_adapters():
            ad.W2.value[...] = rng.standard_normal((d, r_max))
            ad.g.value[...] = rng.uniform(-1.5, 1.5, size=(1, r_max))
        if t < n_tasks:
            end_task(stack)
    return stack


class TestOrthLossTotal:
    def test_first_task_is_zero(self):
        stack = AdapterStack(2)
        begin_task(stack, 1, 2, 1e-3, d=4, rng=np.random.default_rng(0))
        t = Tape()
        assert orth_loss_total(t, stack, 1).value[0, 0] == 0.0

    def test_empty_history_bases_give_zero(self):
        stack = AdapterStack(1)
        rng = np.random.default_rng(1)
        begin_task(stack, 1, 2, 5.0, d=4, rng=rng)  # tau huge: everything masked
        end_task(stack)
        begin_task(stack, 2, 2, 1e-3, d=4, rng=rng)
        t = Tape()
        assert orth_loss_total(t, stack, 2).value[0, 0] == 0.0

    def test_additivity_over_pairs_and_points(self):
        stack = build_stack_with_history(n_points=2, n_tasks=3)
        t = Tape()
        total = orth_loss_total(t, stack, 3).value[0, 0]
        expected = 0.0
        for point in range(2):
            cur = stack.points[point][2].W2.value
            for a in stack.points[point][:2]:
                expected += float(((cur.T @ a.basis) ** 2).sum())
        assert total == pytest.approx(expected, rel=1e-12)

    def test_gradients_flow_only_into_current_task(self):
        stack = build_stack_with_history(n_points=1, n_tasks=2)
        current = stack.points[0][1]
        history = stack.points[0][0]
        zero_grads(current.params() + history.params())
        t = Tape()
        t.backward(orth_loss_total(t, stack, 2))
        assert np.abs(current.W2.grad).max() > 0.0
        assert np.array_equal(history.W2.grad, np.zeros_like(history.W2.grad))

    def test_zero_loss_implies_pairwise_orthogonality(self):
        stack = AdapterStack(1)
        rng = np.random.default_rng(4)
        begin_task(stack, 1, 2, 0.3, d=6, rng=rng)
        ad1 = stack.points[0][0]
        ad1.W2.value[...] = 0.0
        ad1.W2.value[0, 0] = 1.0
        ad1.W2.value[1, 1] = 1.0
        end_task(stack)
        begin_task(stack, 2, 2, 0.3, d=6, rng=rng)
        ad2 = stack.points[0][1]
        ad2.W2.value[...] = 0.0
        ad2.W2.value[2, 0] = 1.0
        ad2.W2.value[3, 1] = 1.0
        t = Tape()
        loss = orth_loss_total(t, stack, 2).value[0, 0]
        assert loss < 1e-20
        inner = ad2.W2.value.T @ ad1.basis
        assert np.abs(inner).max() < 1e-10


class TestOverlapDiagnostic:
    def test_orthogonal_pair_is_zero(self):
        basis = np.array([[1.0], [0.0]])
        assert overlap_diagnostic(np.array([[0.0], [1.0]]), basis) == 0.0

    def test_identical_unit_column_is_one(self):
        e1 = np.array([[1.0], [0.0]])
        assert overlap_diagnostic(e1, e1) == pytest.approx(1.0)

    def test_zero_factor_returns_zero(self):
        basis = np.zeros((3, 0))
        assert overlap_diagnostic(np.ones((3, 2)), basis) == 0.0

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50)
    def test_matches_definition_and_range(self, seed):
        rng = np.random.default_rng(seed)
        w2_t = rng.standard_normal((5, 3))
        cols = rng.standard_normal((5, 2))
        got = overlap_diagnostic(w2_t, cols)
        expected = (np.linalg.norm(w2_t.T @ cols)
                    / (np.linalg.norm(w2_t) * np.linalg.norm(cols)))
        assert got == pytest.approx(expected, rel=1e-12)
        assert 0.0 <= got <= 1.0 + 1e-12


class TestStackOverlapSummary:
    def test_lists_every_earlier_task_against_every_later_one(self):
        stack = build_stack_with_history(n_points=2, n_tasks=3)
        end_task(stack)
        summary = stack_overlap_summary(stack)
        assert [(p["point"], p["task_s"], p["task_t"]) for p in summary["pairs"]] == [
            (point, s, t) for point in range(2) for t in (2, 3) for s in range(1, t)]
        for p in summary["pairs"]:
            basis = stack.points[p["point"]][p["task_s"] - 1].basis
            w2_t = stack.points[p["point"]][p["task_t"] - 1].W2.value
            assert p["overlap"] == overlap_diagnostic(w2_t, basis)
        assert summary["mean_overlap"] == np.mean([p["overlap"] for p in summary["pairs"]])
