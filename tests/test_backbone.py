import re

import numpy as np
import pytest

from oacl import cli
from oacl.adapters import OAAdapter
from oacl.backbone import (SEED_PRETRAIN_SHUFFLE, AdapterStack, Backbone, _pretrain_step,
                           begin_task, build_and_pretrain, end_task, forward,
                           load_checkpoint, predict_logits, save_checkpoint)
from oacl.errors import (ConfigError, DimensionError, NumericalError, PretrainingError,
                         ProtocolError)
from oacl.metrics import accuracy
from oacl.numerics import Param, Tape, check_gradients, zero_grads
from oacl.optim import Adam
from oacl.tasks import TaskDataset, gen_base
from oacl.trainer import TrainConfig, total_loss

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
        with pytest.raises(DimensionError):
            predict_logits(small_backbone(), None, np.ones((2, D_IN + 1)))

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


def trained_stack(backbone, n_frozen, open_task=True, seed=8):
    """n_frozen frozen tasks, then optionally one open task, all with random
    up-projections and gates of mixed sign around tau = 1e-3."""
    stack = AdapterStack(backbone.L)
    rng = np.random.default_rng(seed)
    for t in range(1, n_frozen + 1 + int(open_task)):
        begin_task(stack, t, 4, 1e-3, d=backbone.d, rng=rng)
        for a in stack.trainable_adapters():
            a.W2.value[...] = rng.standard_normal((backbone.d, 4))
            a.g.value[...] = rng.uniform(-1, 1, size=(1, 4))
        if t <= n_frozen:
            end_task(stack)
    return stack


class TestTapePruning:
    def test_frozen_backbone_without_stack_records_nothing(self):
        bb = small_backbone()
        bb.freeze()
        tape = Tape()
        forward(bb, None, np.ones((3, D_IN)), tape)
        assert tape._records == []

    @pytest.mark.parametrize("n_frozen", [0, 2])
    def test_records_only_what_the_open_task_reaches(self, n_frozen):
        bb = small_backbone()
        bb.freeze()
        stack = trained_stack(bb, n_frozen)
        tape = Tape()
        forward(bb, stack, np.ones((3, D_IN)), tape)
        # Per layer, the open task records its 4 adapter ops (two linears, the
        # gate and its mul), its add and the tanh; each layer after the first
        # adds its hidden linear and, per frozen task, the linears, mul and add
        # fed by the open task's output; the head adds one linear.
        assert len(tape._records) == 7 * L + 4 * n_frozen * (L - 1)
        trainable = {id(p) for a in stack.trainable_adapters() for p in a.params()}
        seen = set()
        for out, edges in tape._records:
            assert edges
            assert all(id(i) in trainable or id(i) in seen for i, _ in edges)
            seen.add(id(out))

    def test_matmul_backward_forms_only_the_needed_side(self):
        tape = Tape()
        frozen = Param(np.ones((2, 3)), frozen=True)
        open_ = Param(np.ones((3, 4)))
        tape.matmul(frozen, open_)
        (_, edges), = tape._records
        (inp, vjp), = edges
        assert inp is open_ and vjp(np.ones((2, 4))).shape == (3, 4)

    def test_mul_by_a_frozen_gate_keeps_only_the_open_side(self):
        tape = Tape()
        z = tape.tanh(Param(np.ones((2, 3))))
        gamma = Param(np.ones((1, 3)), frozen=True)
        tape.mul(z, gamma)
        (_, edges), = tape._records[1:]
        assert [i for i, _ in edges] == [z]

    def test_soft_threshold_with_a_frozen_tau_keeps_only_g(self):
        tape = Tape()
        g = Param([[0.5, -0.1, 0.3]])
        tau = Param([[0.2]], frozen=True)
        tape.soft_threshold(g, tau)
        (_, edges), = tape._records
        (inp, vjp), = edges
        assert inp is g
        assert np.array_equal(vjp(np.ones((1, 3))), [[1.0, 0.0, 1.0]])

    def test_gradients_with_frozen_tasks_match_finite_differences(self):
        bb = small_backbone()
        bb.freeze()
        stack = trained_stack(bb, n_frozen=2)
        for a in stack.trainable_adapters():  # gates at least 1e-2 from tau
            a.tau.value[...] = 0.3
            a.g.value[...] = np.where(np.abs(a.g.value) < 0.3, 0.15, 0.6) * np.sign(a.g.value)
        cfg = TrainConfig(r_max=4, lambda_orth=1.0, lambda_l2=0.1)
        rng = np.random.default_rng(10)
        x, y = rng.standard_normal((6, D_IN)), rng.integers(0, C, size=6)

        def closure():
            tape = Tape()
            return tape, total_loss(tape, forward(bb, stack, x, tape), y, stack, 3, cfg)

        params = [p for a in stack.trainable_adapters() for p in a.params()]
        res = check_gradients(closure, params, eps=1e-5, rng=np.random.default_rng(11))
        assert res.kink_skips == 0
        assert res.max_rel_error < 1e-4


class TestFrozenGate:
    def test_cached_gamma_equals_gamma_after_end_task_and_load(self, tmp_path):
        bb = small_backbone()
        bb.freeze()
        stack = trained_stack(bb, n_frozen=2)
        for a in stack.trainable_adapters():
            assert a.frozen_gamma is None
            a.g.value[0, :2] = [-5e-4, 5e-4]  # inside tau: inactive, one of each sign
        end_task(stack)
        path = tmp_path / "model.oacl.npz"
        save_checkpoint(path, bb, stack)
        _, loaded = load_checkpoint(path)
        for s in (stack, loaded):
            for adapters in s.points:
                for a in adapters:
                    assert a.frozen_gamma.shape == (1, a.r_max)
                    assert a.frozen_gamma.value.tobytes() == a.gamma().tobytes()

    @pytest.mark.parametrize("open_task", [True, False])
    def test_forward_gates_only_the_open_task(self, open_task):
        bb = small_backbone()
        bb.freeze()
        stack = trained_stack(bb, n_frozen=2, open_task=open_task)
        tape = Tape()
        forward(bb, stack, np.ones((3, D_IN)), tape)
        open_adapters = stack.trainable_adapters()
        assert len(tape.mask_patterns) == len(open_adapters) == (L if open_task else 0)
        for pattern, a in zip(tape.mask_patterns, open_adapters):
            assert np.array_equal(pattern, np.abs(a.g.value) > a.tau.value[0, 0])


class TestTapeFreePredict:
    def test_equals_forward_bitwise_without_frozen_tasks(self):
        bb = small_backbone()
        bb.freeze()
        x = np.random.default_rng(12).standard_normal((7, D_IN))
        for stack in (None, trained_stack(bb, n_frozen=0)):
            assert np.array_equal(predict_logits(bb, stack, x), forward(bb, stack, x).value)

    @pytest.mark.parametrize("open_task", [False, True])
    def test_folded_frozen_tasks_match_forward(self, open_task):
        bb = small_backbone()
        bb.freeze()
        stack = trained_stack(bb, n_frozen=3, open_task=open_task)
        x = np.random.default_rng(13).standard_normal((50, D_IN))
        got, want = predict_logits(bb, stack, x), forward(bb, stack, x).value
        assert np.abs(got - want).max() <= 1e-12
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    def test_fold_sums_the_frozen_residual_maps(self):
        bb = small_backbone()
        assert trained_stack(bb, n_frozen=0).folded == [None] * L
        stack = trained_stack(bb, n_frozen=2, open_task=False)
        for point, adapters in enumerate(stack.points):
            want = sum(a.W2.value @ np.diag(a.gamma()) @ a.W1.value for a in adapters)
            assert np.allclose(stack.folded[point], want, rtol=0, atol=1e-14)

    def test_overflow_raises_numerical_error(self):
        bb = small_backbone()
        bb.embed.value[...] = 1.0
        stack = trained_stack(bb, n_frozen=1)
        x = np.full((2, D_IN), 1e308)  # each embedding sums D_IN of them
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                forward(bb, stack, x)
            with pytest.raises(NumericalError):
                predict_logits(bb, stack, x)


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


def overflowing(data: TaskDataset, seed: int) -> TaskDataset:
    """``data`` with every training row at the largest float, signed like the
    heaviest row of the embedding that ``seed`` draws at these widths: that
    unit's input sums to more than the largest float."""
    w = Backbone(D_IN, D, 1, 2, seed).embed.value
    heaviest = np.abs(w).sum(axis=1).argmax()
    assert np.abs(w[heaviest]).sum() > 1.01
    row = np.sign(w[heaviest]) * np.finfo(np.float64).max
    y = data.train[1]
    return TaskDataset(0, (np.tile(row, (len(y), 1)), y), data.val)


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

    @pytest.mark.parametrize("layers, batch, d_in, classes", [
        (1, 1, D_IN, C), (1, 7, D_IN, 2), (3, 1, D_IN, 2), (3, 7, D_IN, C), (3, 7, D, C)])
    def test_fused_step_gradients_equal_the_tapes(self, layers, batch, d_in, classes):
        """The fused step adds the bytes that forward, cross_entropy and
        backward add, into grads that already hold something."""
        rng = np.random.default_rng(layers * 10 + batch)
        x = rng.standard_normal((batch, d_in))
        y = rng.integers(0, classes, size=batch)
        fused, taped = (Backbone(d_in, D, layers, classes, seed=5) for _ in range(2))
        for a, b in zip(fused.params(), taped.params()):
            a.grad[...] = b.grad[...] = rng.standard_normal(a.grad.shape)
        _pretrain_step(fused, x, y)
        tape = Tape()
        tape.backward(tape.cross_entropy(forward(taped, None, x, tape), y))
        for a, b in zip(fused.params(), taped.params()):
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_pretraining_equals_a_taped_loop(self, base_data):
        """build_and_pretrain gives the weights and accuracy, to the bit, of the
        same loop run on the tape."""
        steps, batch = 50, 7  # 300 rows: the order is redrawn after 42 batches
        got = build_and_pretrain(2, D_IN, D, L, C, base_data, steps=steps, batch_size=batch)
        want = Backbone(D_IN, D, L, C, seed=2)
        opt = Adam(want.params(), lr=3e-3)
        x, y = base_data.train
        rng = np.random.default_rng([2, SEED_PRETRAIN_SHUFFLE])
        order, cursor = rng.permutation(len(y)), 0
        for _ in range(steps):
            if cursor + batch > len(y):
                order, cursor = rng.permutation(len(y)), 0
            idx = order[cursor:cursor + batch]
            cursor += batch
            opt.zero_grad()
            tape = Tape()
            tape.backward(tape.cross_entropy(forward(want, None, x[idx], tape), y[idx]))
            opt.step()
        for a, b in zip(got.params(), want.params()):
            assert a.value.tobytes() == b.value.tobytes()
        assert got.pretrain_accuracy == accuracy(predict_logits(want, None, base_data.val[0]),
                                                 base_data.val[1])

    def test_overflowing_input_raises_numerical_error(self, base_data):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                build_and_pretrain(0, D_IN, D, L, C, overflowing(base_data, 0), steps=5)

    def test_overflowing_pretraining_exits_3(self, tmp_path, monkeypatch):
        real = cli.gen_base
        monkeypatch.setattr(cli, "gen_base", lambda seed, *args: overflowing(real(seed, *args),
                                                                              seed))
        path = tmp_path / "exp.yaml"
        path.write_text(f"backbone: {{d_in: {D_IN}, d: {D}, layers: 1, classes: {C},"
                        " pretrain_per_class: 20, pretrain_steps: 5}\n"
                        "stream: {tasks: 1, n_train_per_class: 4}\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["run", "--config", str(path),
                             "--out", str(tmp_path / "o")]) == cli.EXIT_NUMERICAL

    def test_wrong_input_width_rejected(self, base_data):
        x, y = base_data.train
        wide = TaskDataset(0, (np.hstack([x, x]), y), base_data.val)
        with pytest.raises(DimensionError):
            build_and_pretrain(0, D_IN, D, L, C, wide, steps=5)

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
            assert stack.folded[point].tobytes() == stack2.folded[point].tobytes()

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
        assert [len(bases) for bases in stack2.bases] == [1] * L  # task 1's basis only
        with pytest.raises(ProtocolError):
            begin_task(stack2, 3, 4, 1e-3, d=D, rng=rng)
        end_task(stack2)
        assert stack2.active_task is None

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "other.npz"
        np.savez(p, magic=np.array("OTHER"), x=np.ones(3))
        with pytest.raises(ValueError):
            load_checkpoint(p)

    @pytest.mark.parametrize("damage", ["truncated", "empty", "not_zip", "missing_key",
                                        "short_hidden", "short_W1", "open_before_later",
                                        "tau_1d", "n_tasks_vector", "nan_W1", "nan_tau"])
    def test_damaged_file_raises_one_value_error(self, tmp_path, damage):
        bb, stack = self.make_pair()
        p = tmp_path / "model.oacl.npz"
        save_checkpoint(p, bb, stack)
        data = p.read_bytes()
        if damage == "truncated":
            p.write_bytes(data[:len(data) // 2])
        elif damage == "empty":
            p.write_bytes(b"")
        elif damage == "not_zip":
            p.write_bytes(b"not a checkpoint\n" * 8)
        else:
            with np.load(p) as z:
                arrays = {k: z[k] for k in z.files}
            if damage == "missing_key":
                del arrays["adapter/p1/t2/g"]
            elif damage == "open_before_later":
                arrays["adapter/p0/t1/flags"] = np.array([0, 1])  # task 1 open, task 2 next
            elif damage == "tau_1d":
                arrays["adapter/p0/t1/tau"] = arrays["adapter/p0/t1/tau"].reshape(-1)
            elif damage == "n_tasks_vector":
                arrays["n_tasks"] = np.array([2, 2])
            elif damage in ("nan_W1", "nan_tau"):
                arrays[f"adapter/p1/t1/{damage[4:]}"].flat[0] = np.nan
            else:  # one row where several are expected: numpy would broadcast it
                key = {"short_hidden": "backbone/hidden0", "short_W1": "adapter/p1/t1/W1"}[damage]
                arrays[key] = arrays[key][:1]
            np.savez(p, **arrays)
        with pytest.raises(ValueError, match=re.escape(str(p))) as info:
            load_checkpoint(p)
        assert type(info.value) is ValueError
