import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacl.errors import ContractError, DataError, DimensionError, NumericalError
from oacl.numerics import Node, Param, Tape, _matmul, check_gradients


def rand(rng, *shape):
    return rng.standard_normal(shape)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(_matmul(np.eye(2), a), a)

    def test_projector_zeroes_row(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        v = np.array([[5.0], [7.0]])
        assert np.array_equal(_matmul(p, v), np.array([[5.0], [0.0]]))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.abs(_matmul(a, b) - expected).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            _matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_overflow_raises_numerical_error(self):
        t = Tape()
        big = Node(np.full((2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="matmul"):
            t.matmul(big, big)


class TestLinear:
    def test_bitwise_equal_to_matmul_of_transpose(self):
        rng = np.random.default_rng(21)
        xv, wv, up = rand(rng, 5, 3), rand(rng, 4, 3), rand(rng, 5, 4)
        results = []
        for fused in (True, False):
            x, w = Param(xv), Param(wv)
            t = Tape()
            out = t.linear(x, w) if fused else t.matmul(x, t.transpose(w))
            t.backward(t.sum(t.mul(out, Node(up))))
            results.append((out.value, x.grad, w.grad))
        for fused, plain in zip(*results):
            assert fused.shape == plain.shape and fused.tobytes() == plain.tobytes()

    def test_frozen_weight_keeps_only_the_input_edge(self):
        t = Tape()
        x = Param(np.ones((2, 3)))
        w = Param(np.ones((4, 3)), frozen=True)
        t.linear(x, w)
        (_, edges), = t._records
        (inp, vjp), = edges
        assert inp is x and vjp(np.ones((2, 4))).shape == (2, 3)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match="matmul"):
            Tape().linear(Node(np.ones((2, 3))), Node(np.ones((4, 5))))


class TestBackward:
    def test_sum_gives_all_ones(self):
        t = Tape()
        a = Param([[1.0, 2.0], [3.0, 4.0]])
        t.backward(t.sum(a))
        assert np.array_equal(a.grad, np.ones((2, 2)))

    def test_no_param_dependency_leaves_grads_zero(self):
        t = Tape()
        a = Param([[1.0, 2.0]])
        loss = t.sum(t.mul(Node([[1.0, 1.0]]), Node([[2.0, 3.0]])))
        t.backward(loss)
        assert np.array_equal(a.grad, np.zeros((1, 2)))

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        a = Param([[1.0, 2.0]])
        with pytest.raises(ContractError):
            t.backward(t.mul(a, a))

    def test_fanout_accumulates_additively(self):
        # d(x*x + 3x)/dx = 2x + 3, with x feeding two ops
        t = Tape()
        x = Param([[2.0]])
        loss = t.add(t.mul(x, x), t.scale(x, 3.0))
        t.backward(t.sum(loss))
        assert x.grad[0, 0] == pytest.approx(2 * 2.0 + 3.0, abs=1e-15)

    def test_frozen_param_gets_zero_grad(self):
        t = Tape()
        a = Param([[1.0, 2.0]], frozen=True)
        b = Param([[3.0, 4.0]])
        t.backward(t.sum(t.mul(a, b)))
        assert np.array_equal(a.grad, np.zeros((1, 2)))
        assert np.array_equal(b.grad, a.value)

    def test_freezing_is_absolute_regardless_of_topology(self):
        rng = np.random.default_rng(3)
        a = Param(rand(rng, 3, 3))
        a.frozen = True
        t = Tape()
        h = t.tanh(t.matmul(a, a))
        h = t.add(h, t.mul(a, a))
        t.backward(t.sum_sq(h))
        assert np.array_equal(a.grad, np.zeros((3, 3)))

    def test_random_graph_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        a = Param(rand(rng, 2, 3))
        b = Param(rand(rng, 3, 2))

        def closure():
            t = Tape()
            h = t.tanh(t.matmul(a, b))
            loss = t.add(t.sum_sq(h), t.sum(t.matmul(h, t.transpose(h))))
            return t, loss

        result = check_gradients(closure, [a, b], eps=1e-5)
        assert result.max_rel_error < 1e-4
        assert result.kink_skips == 0


class TestCheckGradients:
    def test_quadratic_is_nearly_exact(self):
        a = Param(np.arange(6, dtype=float).reshape(2, 3) + 1.0)

        def closure():
            t = Tape()
            return t, t.sum_sq(a)

        assert check_gradients(closure, [a], eps=1e-4).max_rel_error < 1e-8

    def test_eps_zero_rejected(self):
        a = Param([[1.0]])
        with pytest.raises(ContractError):
            check_gradients(lambda: (Tape(), Node([[0.0]])), [a], eps=0.0)

    def test_eps_out_of_range_rejected(self):
        a = Param([[1.0]])
        with pytest.raises(ContractError):
            check_gradients(lambda: (Tape(), Node([[0.0]])), [a], eps=1e-2)

    def test_kink_adjacent_coordinates_are_skipped(self):
        g = Param([[0.2 + 5e-6, 1.0]])  # first coordinate sits at the kink
        tau = Param([[0.2]])

        def closure():
            t = Tape()
            return t, t.sum_sq(t.soft_threshold(g, tau))

        result = check_gradients(closure, [g], eps=1e-4)
        assert result.kink_skips == 1
        assert result.max_rel_error < 1e-6


class TestOps:
    def test_broadcast_mul_row_vector(self):
        t = Tape()
        a = Param(np.ones((4, 3)))
        g = Param([[1.0, 2.0, 3.0]])
        t.backward(t.sum(t.mul(a, g)))
        assert np.array_equal(g.grad, [[4.0, 4.0, 4.0]])
        assert np.array_equal(a.grad, np.tile([[1.0, 2.0, 3.0]], (4, 1)))

    def test_cross_entropy_uniform_logits(self):
        t = Tape()
        logits = Node(np.zeros((5, 8)))
        loss = t.cross_entropy(logits, np.arange(5) % 8)
        assert loss.value[0, 0] == pytest.approx(np.log(8.0), abs=1e-12)

    def test_cross_entropy_label_out_of_range(self):
        t = Tape()
        with pytest.raises(DataError):
            t.cross_entropy(Node(np.zeros((2, 3))), np.array([0, 3]))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gradient_additivity_at_fanout(self, seed):
        # d(f(x) + g(x))/dx == df/dx + dg/dx exactly
        rng = np.random.default_rng(seed)
        x = Param(rng.standard_normal((2, 2)))

        t = Tape()
        t.backward(t.add(t.sum_sq(x), t.sum(t.tanh(x))))
        combined = x.grad.copy()

        x.zero_grad()
        t = Tape()
        t.backward(t.sum_sq(x))
        first = x.grad.copy()

        x.zero_grad()
        t = Tape()
        t.backward(t.sum(t.tanh(x)))
        second = x.grad.copy()

        assert np.array_equal(combined, first + second)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_composite_graph_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        a = Param(rng.standard_normal((3, 2)))
        b = Param(rng.standard_normal((2, 3)))

        def closure():
            t = Tape()
            m = t.matmul(a, b)
            return t, t.sum_sq(t.tanh(t.sub(m, t.transpose(m))))

        assert check_gradients(closure, [a, b], eps=1e-5).max_rel_error < 1e-4
