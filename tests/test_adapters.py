import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacl.adapters import OAAdapter, oa_forward, outer_product_form, soft_threshold
from oacl.errors import ContractError, DimensionError
from oacl.numerics import Node, Param, Tape, zero_grads


def make_adapter(d=6, r_max=4, tau=0.2, seed=0, **kw):
    return OAAdapter(d, r_max, tau, np.random.default_rng(seed), **kw)


class TestSoftThreshold:
    def test_formula(self):
        out = soft_threshold([0.5, -0.1, -0.5], 0.2)
        assert np.allclose(out, [0.3, 0.0, -0.3], atol=1e-15)

    def test_zero_input(self):
        assert np.array_equal(soft_threshold([0.0, 0.0], 0.7), [0.0, 0.0])

    def test_vanishing_threshold_identity(self):
        out = soft_threshold([1.0, -1.0], 1e-15)
        assert np.allclose(out, [1.0, -1.0], atol=1e-14)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ContractError):
            soft_threshold([1.0], 0.0)
        with pytest.raises(ContractError):
            soft_threshold([1.0], -0.1)

    def test_nan_tau_rejected(self):
        with pytest.raises(ContractError):
            soft_threshold([1.0, -2.0], float("nan"))

    def test_nan_tau_node_rejected(self):
        with pytest.raises(ContractError):
            Tape().soft_threshold(Param([[1.0, -2.0]]), Param([[float("nan")]]))

    @pytest.mark.parametrize("tau", [0.0, float("nan")])
    def test_adapter_rejects_nonpositive_tau_init(self, tau):
        with pytest.raises(ContractError):
            make_adapter(tau=tau)


class TestSoftThresholdBackward:
    @staticmethod
    def gate_grads(g, tau, upstream):
        """(g.grad, tau.grad) of sum(upstream * soft(g; tau)), through the tape."""
        g, tau = Param([g]), Param([[tau]])
        t = Tape()
        t.backward(t.sum(t.mul(t.soft_threshold(g, tau), Node([upstream]))))
        return g.grad[0], tau.grad[0, 0]

    def test_positive_active(self):
        dg, dtau = self.gate_grads([0.5], 0.2, [2.0])
        assert dg[0] == 2.0 and dtau == -2.0

    def test_deactivated_blocks_gradient(self):
        dg, dtau = self.gate_grads([0.1], 0.2, [5.0])
        assert dg[0] == 0.0 and dtau == 0.0

    def test_negative_active(self):
        # gamma(g) = g + tau for active negative g: slope 1 in g, +1 in tau
        dg, dtau = self.gate_grads([-0.5], 0.2, [1.0])
        assert dg[0] == 1.0 and dtau == 1.0

    def test_kink_counts_as_inactive(self):
        dg, dtau = self.gate_grads([0.2], 0.2, [1.0])
        assert dg[0] == 0.0 and dtau == 0.0


class TestOAForward:
    def test_zero_w2_is_identity(self):
        ad = make_adapter()
        ad.W2.value[...] = 0.0
        x = np.random.default_rng(1).standard_normal((3, 6))
        y = oa_forward(Tape(), ad, x)
        assert np.array_equal(y.value, x)

    def test_fully_masked_is_identity(self):
        ad = make_adapter(tau=2.0)  # g starts at 1.0 < tau everywhere
        x = np.random.default_rng(2).standard_normal((2, 6))
        y = oa_forward(Tape(), ad, x)
        assert np.array_equal(y.value, x)

    def test_hand_computed_scalar_case(self):
        # d=2, r_max=1: W1=[[1,0]], W2 column [0,1], g=0.7, tau=0.2, x=[2,3]
        # gamma = 0.5, z = 2, delta = [0, 1] * 0.5 * 2 -> y = [2, 4]
        ad = make_adapter(d=2, r_max=1)
        ad.W1.value[...] = [[1.0, 0.0]]
        ad.W2.value[...] = [[0.0], [1.0]]
        ad.g.value[...] = [[0.7]]
        ad.tau.value[...] = [[0.2]]
        y = oa_forward(Tape(), ad, [[2.0, 3.0]])
        assert np.allclose(y.value, [[2.0, 4.0]], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            oa_forward(Tape(), make_adapter(d=6), np.ones((1, 5)))


class TestOuterProductForm:
    def test_matches_oa_forward_on_scalar_case(self):
        ad = make_adapter(d=2, r_max=1)
        ad.W1.value[...] = [[1.0, 0.0]]
        ad.W2.value[...] = [[0.0], [1.0]]
        ad.g.value[...] = [[0.7]]
        ad.tau.value[...] = [[0.2]]
        x = [[2.0, 3.0]]
        assert np.allclose(outer_product_form(ad, x),
                           oa_forward(Tape(), ad, x).value, atol=1e-15)

    def test_empty_mask_is_identity(self):
        ad = make_adapter(tau=5.0)
        x = np.random.default_rng(0).standard_normal((4, 6))
        assert np.array_equal(outer_product_form(ad, x), x)

    def test_single_active_dim_matches_rank1_hand_computation(self):
        ad = make_adapter(d=3, r_max=2, tau=0.5, seed=5)
        ad.g.value[...] = [[0.9, 0.1]]  # only dim 0 active, gamma_0 = 0.4
        x = np.array([[1.0, -2.0, 0.5]])
        z = float(ad.W1.value[0] @ x[0])
        expected = x + 0.4 * z * ad.W2.value[:, 0]
        assert np.allclose(outer_product_form(ad, x), expected, atol=1e-14)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=100)
    def test_equivalence_on_random_configs(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 10))
        r = int(rng.integers(1, 8))
        ad = OAAdapter(d, r, float(rng.uniform(0.05, 0.8)), rng)
        ad.g.value[...] = rng.uniform(-1.5, 1.5, size=(1, r))
        ad.W2.value[...] = rng.standard_normal((d, r))
        x = rng.standard_normal((3, d))
        diff = np.abs(oa_forward(Tape(), ad, x).value
                      - outer_product_form(ad, x)).max()
        assert diff < 1e-10


class TestMaskSemantics:
    def test_output_invariant_to_deactivated_weights(self):
        ad = make_adapter(d=5, r_max=3, tau=0.4, seed=9)
        ad.g.value[...] = [[1.0, 0.1, -0.9]]  # dim 1 deactivated
        x = np.random.default_rng(4).standard_normal((2, 5))
        before = oa_forward(Tape(), ad, x).value
        ad.W2.value[:, 1] = 99.0
        ad.W1.value[1, :] = -55.0
        after = oa_forward(Tape(), ad, x).value
        assert np.array_equal(before, after)

    def test_deactivated_dim_blocks_gradients(self):
        ad = make_adapter(d=5, r_max=3, tau=0.4, seed=9)
        ad.g.value[...] = [[1.0, 0.1, -0.9]]
        x = np.random.default_rng(4).standard_normal((2, 5))
        zero_grads(ad.params())
        t = Tape()
        t.backward(t.sum_sq(oa_forward(t, ad, x)))
        assert ad.g.grad[0, 1] == 0.0
        assert ad.g.grad[0, 0] != 0.0 and ad.g.grad[0, 2] != 0.0

    def test_reactivation_two_step_scenario(self):
        ad = make_adapter(d=4, r_max=2, tau=0.6, seed=2)
        ad.g.value[...] = [[0.5, 2.0]]  # dim 0 inactive at tau=0.6
        x = np.ones((1, 4))

        def grads():
            zero_grads(ad.params())
            t = Tape()
            t.backward(t.sum_sq(oa_forward(t, ad, x)))
            return ad.g.grad.copy()

        assert ad.gamma()[0] == 0.0
        assert grads()[0, 0] == 0.0
        # a threshold update below |g_0| reactivates the dimension
        ad.tau.value[0, 0] = 0.45
        assert ad.gamma()[0] != 0.0
        assert grads()[0, 0] != 0.0


class TestSnapshotMask:
    def test_active_set(self):
        ad = make_adapter(d=4, r_max=3, tau=0.2)
        ad.g.value[...] = [[0.5, -0.1, -0.5]]
        gamma = ad.gamma()
        assert np.count_nonzero(gamma) == 2
        assert list(np.flatnonzero(gamma)) == [0, 2]
        assert np.allclose(gamma, [0.3, 0.0, -0.3], atol=1e-15)

    def test_all_below_threshold(self):
        ad = make_adapter(tau=3.0)
        assert np.count_nonzero(ad.gamma()) == 0

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50)
    def test_r_eff_equals_direct_count(self, seed):
        rng = np.random.default_rng(seed)
        ad = OAAdapter(4, 6, float(rng.uniform(0.01, 1.0)), rng)
        ad.g.value[...] = rng.uniform(-1, 1, size=(1, 6))
        tau = float(ad.tau.value[0, 0])
        assert np.count_nonzero(ad.gamma()) == int((np.abs(ad.g.value) > tau).sum())
        # One gate: the adapter's gamma is bit for bit the gamma the tape
        # trains with, including +0.0 on negative inactive gates.
        taped = Tape().soft_threshold(ad.g, ad.tau).value[0]
        assert ad.gamma().tobytes() == taped.tobytes()
