import numpy as np
import pytest

from oacl.adapters import OAAdapter
from oacl.backbone import (AdapterStack, Backbone, begin_task,
                           build_and_pretrain, end_task, forward,
                           load_checkpoint, predict_logits, save_checkpoint)
from oacl.errors import ConfigError, DimensionError, PretrainingError, ProtocolError
from oacl.numerics import Tape, zero_grads
from oacl.tasks import gen_base

D_IN, D, L, C = 6, 8, 2, 3


def small_backbone(seed=0):
    return Backbone(D_IN, D, L, C, seed)


def fresh_stack(backbone, n_tasks=1, tau=2.0, rng_seed=0, finish_last=False):
    """Stack with n_tasks tasks; tau=2.0 masks everything so adapters start
    as exact identities."""
    stack = AdapterStack(backbone.L)
    rng = np.random.default_rng(rng_seed)
    for t in range(1, n_tasks + 1):
        begin_task(stack, t, 4, tau, d=backbone.d, rng=rng)
        if t < n_tasks or finish_last:
            end_task(stack)
    return stack


class TestForward:
    def test_matches_numpy_oracle_without_adapters(self):
        bb = small_backbone()
        x = np.random.default_rng(1).standard_normal((5, D_IN))
        h = np.tanh(x @ bb.embed.value.T)
        for w in bb.hidden:
            h = np.tanh(h @ w.value.T)
        expected = h @ bb.head.value.T
        assert np.abs(forward(bb, None, x).value - expected).max() < 1e-12

    def test_identity_adapters_do_not_change_logits(self):
        bb = small_backbone()
        stack = fresh_stack(bb, n_tasks=2, finish_last=True)
        x = np.random.default_rng(2).standard_normal((4, D_IN))
        assert np.array_equal(predict_logits(bb, None, x),
                              predict_logits(bb, stack, x))

    def test_deltas_read_presum_hidden_state(self):
        # Two tasks at one point: both residuals must be computed from the
        # same incoming h, i.e. the composed output is h + d1(h) + d2(h),
        # not (h + d1(h)) + d2(h + d1(h)).
        bb = Backbone(D_IN, D, 1, C, seed=3)
        stack = AdapterStack(1)
        rng = np.random.default_rng(4)
        for t in (1, 2):
            begin_task(stack, t, 2, 1e-3, d=D, rng=rng)
            ad = stack.points[0][t - 1]
            ad.W2.value[...] = rng.standard_normal((D, 2))
            end_task(stack)
        x = rng.standard_normal((3, D_IN))
        from oacl.adapters import outer_product_form
        h = np.tanh(x @ bb.embed.value.T) @ bb.hidden[0].value.T
        combined = h.copy()
        for ad in stack.points[0]:
            combined += outer_product_form(ad, h) - h
        expected = np.tanh(combined) @ bb.head.value.T
        got = predict_logits(bb, stack, x)
        assert np.abs(got - expected).max() < 1e-10

    def test_inference_needs_no_task_id(self):
        bb = small_backbone()
        stack = fresh_stack(bb, n_tasks=3, finish_last=True)
        x = np.random.default_rng(5).standard_normal((2, D_IN))
        logits = predict_logits(bb, stack, x)
        assert logits.shape == (2, C)

    def test_wrong_input_width(self):
        with pytest.raises(DimensionError):
            forward(small_backbone(), None, np.ones((2, D_IN + 1)))

    def test_frozen_backbone_blocks_gradients(self):
        bb = small_backbone()
        bb.freeze()
        stack = fresh_stack(bb, tau=1e-3)  # gates active so grads can flow
        params = bb.params() + [p for a in stack.trainable_adapters()
                                for p in a.params()]
        zero_grads(params)
        t = Tape()
        logits = forward(bb, stack, np.ones((2, D_IN)), t)
        t.backward(t.sum_sq(logits))
        for p in bb.params():
            assert np.array_equal(p.grad, np.zeros_like(p.grad))
        assert any(np.abs(a.W1.grad).max() > 0
                   for a in stack.trainable_adapters())


class TestTaskLifecycle:
    def test_begin_out_of_order_rejected(self):
        bb = small_backbone()
        stack = AdapterStack(bb.L)
        with pytest.raises(ProtocolError):
            begin_task(stack, 2, 4, 1e-3, d=D, rng=np.random.default_rng(0))

    def test_double_begin_rejected(self):
        bb = small_backbone()
        stack = fresh_stack(bb)
        with pytest.raises(ProtocolError):
            begin_task(stack, 2, 4, 1e-3, d=D, rng=np.random.default_rng(0))

    def test_end_without_open_task_rejected(self):
        with pytest.raises(ProtocolError):
            end_task(AdapterStack(2))

    def test_end_freezes_and_caches_basis(self):
        bb = small_backbone()
        stack = fresh_stack(bb)
        end_task(stack)
        assert all(a.frozen for point in stack.points for a in point)
        assert all(len(b) == 1 for b in stack.bases)
        assert stack.active_task is None

    def test_only_current_task_trainable(self):
        bb = small_backbone()
        stack = fresh_stack(bb, n_tasks=2)
        trainables = stack.trainable_adapters()
        assert len(trainables) == bb.L
        assert all(not a.frozen for a in trainables)
        assert all(point[0].frozen for point in stack.points)


@pytest.fixture(scope="module")
def base_data():
    return gen_base(0, C, D_IN, 100)


class TestPretraining:
    def test_pretraining_beats_chance_and_freezes(self, base_data):
        bb = build_and_pretrain(0, D_IN, D, L, C, base_data, steps=300)
        assert bb.pretrain_accuracy is not None
        assert bb.pretrain_accuracy > 0.60
        assert all(p.frozen for p in bb.params())

    def test_trivially_separable_data_reaches_95(self):
        # two classes, well separated: near-perfect held-out accuracy
        data = gen_base(1, 2, D_IN, 100)
        bb = build_and_pretrain(1, D_IN, D, L, 2, data, steps=300)
        assert bb.pretrain_accuracy >= 0.95

    def test_zero_budget_returns_random_frozen_backbone(self, base_data):
        bb = build_and_pretrain(0, D_IN, D, L, C, base_data, steps=0)
        assert bb.pretrain_accuracy is None
        assert all(p.frozen for p in bb.params())

    def test_negative_steps_or_empty_batch_rejected(self, base_data):
        with pytest.raises(ConfigError):
            build_and_pretrain(0, D_IN, D, L, C, base_data, steps=-1)
        with pytest.raises(ConfigError):
            build_and_pretrain(0, D_IN, D, L, C, base_data, batch_size=0)

    def test_insufficient_budget_raises(self, base_data):
        with pytest.raises(PretrainingError):
            build_and_pretrain(0, D_IN, D, L, C, base_data, steps=1)

    def test_same_seed_reproduces_weights(self, base_data):
        a = build_and_pretrain(3, D_IN, D, L, C, base_data, steps=50, lr=1e-3)
        # low step budgets can undershoot the gate; compare raw weights via a
        # second identical call
        try:
            b = build_and_pretrain(3, D_IN, D, L, C, base_data, steps=50, lr=1e-3)
        except PretrainingError:
            pytest.skip("budget too small on this seed")
        assert np.array_equal(a.embed.value, b.embed.value)
        assert all(np.array_equal(x.value, y.value)
                   for x, y in zip(a.hidden, b.hidden))


class TestCheckpoint:
    def make_pair(self):
        bb = small_backbone(seed=7)
        bb.freeze()
        stack = AdapterStack(bb.L)
        rng = np.random.default_rng(8)
        for t in (1, 2):
            begin_task(stack, t, 4, 1e-3, d=D, rng=rng)
            for a in stack.trainable_adapters():
                a.W2.value[...] = rng.standard_normal((D, 4))
                a.g.value[...] = rng.uniform(-1, 1, size=(1, 4))
            end_task(stack)
        return bb, stack

    def test_round_trip_preserves_predictions(self, tmp_path):
        bb, stack = self.make_pair()
        p = tmp_path / "model.oacl.npz"
        save_checkpoint(p, bb, stack)
        bb2, stack2 = load_checkpoint(p)
        x = np.random.default_rng(9).standard_normal((5, D_IN))
        assert np.array_equal(predict_logits(bb, stack, x),
                              predict_logits(bb2, stack2, x))

    def test_round_trip_preserves_structure(self, tmp_path):
        bb, stack = self.make_pair()
        p = tmp_path / "model.oacl.npz"
        save_checkpoint(p, bb, stack)
        _, stack2 = load_checkpoint(p)
        assert stack2.task_count == 2
        assert all(a.frozen for point in stack2.points for a in point)
        for point in range(L):
            for i in range(2):
                assert np.array_equal(stack.bases[point][i].W2_tilde,
                                      stack2.bases[point][i].W2_tilde)

    def test_open_task_survives_round_trip(self, tmp_path):
        bb = small_backbone(seed=7)
        bb.freeze()
        stack = fresh_stack(bb, n_tasks=2, tau=1e-3)  # task 1 frozen, task 2 open
        rng = np.random.default_rng(8)
        for a in stack.trainable_adapters():
            a.W2.value[...] = rng.standard_normal((D, 4))
            a.g.value[...] = rng.uniform(-1, 1, size=(1, 4))
        p = tmp_path / "open.oacl.npz"
        save_checkpoint(p, bb, stack)
        _, stack2 = load_checkpoint(p)
        assert stack2.active_task == 2
        trainable = stack2.trainable_adapters()
        assert trainable == [point[1] for point in stack2.points]
        assert [a.state_bytes() for a in trainable] == [
            a.state_bytes() for a in stack.trainable_adapters()]
        assert not any(q.frozen for a in trainable for q in a.params())
        assert [[b.task_id for b in bases] for bases in stack2.bases] == [[1]] * L
        with pytest.raises(ProtocolError):
            begin_task(stack2, 3, 4, 1e-3, d=D, rng=rng)
        end_task(stack2)
        assert stack2.active_task is None

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "other.npz"
        np.savez(p, magic=np.array("OTHER"), x=np.ones(3))
        with pytest.raises(ValueError):
            load_checkpoint(p)
