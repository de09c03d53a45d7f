import numpy as np
import pytest

from oacl.errors import NumericalError
from oacl.numerics import Param
from oacl.optim import Adam, SGDMomentum, make_optimizer


def quadratic_grad(p):
    p.grad[...] = p.value.copy()  # d/dx of x^2/2


class TestSGDMomentum:
    def test_first_step_is_plain_sgd(self):
        p = Param([[2.0]])
        p.grad[...] = np.array([[4.0]])
        SGDMomentum([p], lr=0.1).step()
        assert p.value[0, 0] == pytest.approx(2.0 - 0.1 * 4.0)

    def test_velocity_accumulates(self):
        p = Param([[0.0]])
        opt = SGDMomentum([p], lr=1.0, momentum=0.5)
        p.grad[...] = np.array([[1.0]])
        opt.step()  # v = 1, x = -1
        p.grad[...] = np.array([[1.0]])
        opt.step()  # v = 1.5, x = -2.5
        assert p.value[0, 0] == pytest.approx(-2.5)

    def test_converges_on_quadratic(self):
        p = Param([[5.0, -3.0]])
        opt = SGDMomentum([p], lr=0.05)
        for _ in range(200):
            quadratic_grad(p)
            opt.step()
        assert np.abs(p.value).max() < 1e-3

    def test_frozen_param_never_moves(self):
        p = Param([[1.0]], frozen=True)
        p.grad[...] = np.array([[10.0]])
        SGDMomentum([p], lr=0.1).step()
        assert p.value[0, 0] == 1.0


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # with bias correction the first update is lr * sign(grad)
        p = Param([[1.0, 1.0]])
        p.grad[...] = np.array([[100.0, -0.5]])
        Adam([p], lr=0.01).step()
        assert np.allclose(p.value, [[0.99, 1.01]], atol=1e-6)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        p = Param(rng.standard_normal((2, 3)))
        ref = p.value.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        opt = Adam([p], lr=0.01)
        for t in range(1, 6):
            g = rng.standard_normal((2, 3))
            p.grad[...] = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert np.abs(p.value - ref).max() < 1e-12

    def test_converges_on_quadratic(self):
        p = Param([[5.0, -3.0]])
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            quadratic_grad(p)
            opt.step()
        assert np.abs(p.value).max() < 1e-3

    def test_nan_gradient_raises(self):
        p = Param([[1.0]])
        p.grad[...] = np.array([[np.nan]])
        with pytest.raises(NumericalError):
            Adam([p], lr=0.1).step()


class TestFactory:
    def test_known_names(self):
        p = Param([[1.0]])
        assert isinstance(make_optimizer("adam", [p], 0.1), Adam)
        assert isinstance(make_optimizer("sgd_momentum", [p], 0.1), SGDMomentum)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", [], 0.1)


def loop_sgd(params, lr, momentum, grads):
    """The per-array SGD loop the flat update replaced, as its oracle."""
    velocity = [np.zeros_like(p) for p in params]
    for step in grads:
        for p, v, g in zip(params, velocity, step):
            v *= momentum
            v += g
            p -= lr * v


def loop_adam(params, lr, grads, betas=(0.9, 0.999), eps=1e-8):
    """The per-array Adam loop the flat update replaced, as its oracle."""
    beta1, beta2 = betas
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, step in enumerate(grads, start=1):
        b1t = 1.0 - beta1 ** t
        b2t = 1.0 - beta2 ** t
        for p, mi, vi, g in zip(params, m, v, step):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * g * g
            p -= lr * (mi / b1t) / (np.sqrt(vi / b2t) + eps)


SHAPES = [(3, 4), (1, 1), (5, 2), (1, 6), (4, 1)]


class TestFlatBuffer:
    def setup_params(self, seed=0):
        rng = np.random.default_rng(seed)
        params = [Param(rng.standard_normal(s)) for s in SHAPES]
        grads = [[rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in SHAPES]
                 for _ in range(7)]
        return params, grads

    @pytest.mark.parametrize("name", ["adam", "sgd_momentum"])
    def test_bitwise_equal_to_the_per_array_loop(self, name):
        params, grads = self.setup_params()
        expected = [p.value.copy() for p in params]
        if name == "adam":
            loop_adam(expected, 3e-3, grads)
        else:
            loop_sgd(expected, 3e-3, 0.9, grads)
        opt = make_optimizer(name, params, 3e-3)
        for step in grads:
            opt.zero_grad()
            for p, g in zip(params, step):
                p.grad += g
            opt.step()
        for p, e in zip(params, expected):
            assert p.value.tobytes() == e.tobytes()

    def test_values_and_grads_are_views_of_one_buffer(self):
        params, _ = self.setup_params()
        before = [p.value.copy() for p in params]
        opt = Adam(params, lr=0.1)
        assert opt.flat.value.size == sum(p.value.size for p in params)
        for p, b in zip(params, before):
            assert np.shares_memory(p.value, opt.flat.value)
            assert np.shares_memory(p.grad, opt.flat.grad)
            assert np.array_equal(p.value, b) and p.value.shape == b.shape
        opt.flat.grad[...] = 1.0
        opt.zero_grad()
        assert all(not p.grad.any() for p in params)

    @pytest.mark.parametrize("cls", [Adam, SGDMomentum])
    def test_param_frozen_at_build_is_not_packed(self, cls):
        params, grads = self.setup_params()
        params[1].frozen = True
        frozen_value = params[1].value
        before = frozen_value.copy()
        opt = cls(params, lr=0.1)
        assert params[1] not in opt.params and len(opt.params) == len(params) - 1
        assert params[1].value is frozen_value
        assert not np.shares_memory(params[1].value, opt.flat.value)
        for step in grads:
            for p, g in zip(params, step):
                p.grad[...] = g
            opt.step()
        assert params[1].value.tobytes() == before.tobytes()

    @pytest.mark.parametrize("cls", [Adam, SGDMomentum])
    def test_nan_names_the_param(self, cls):
        params, _ = self.setup_params()
        opt = cls(params, lr=0.1)
        params[2].grad[0, 1] = np.nan
        with pytest.raises(NumericalError, match=r"param 2 \(shape \(5, 2\)\)"):
            opt.step()
