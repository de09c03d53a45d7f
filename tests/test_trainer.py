import numpy as np
import pytest

from oacl.adapters import soft_threshold
from oacl.backbone import (ADAPTER_PARAMS, AdapterStack, begin_task, build_and_pretrain,
                           end_task, forward)
from oacl.errors import ConfigError, NumericalError, ProtocolError
from oacl.metrics import avg_final_accuracy
from oacl.numerics import Node, Tape, zero_grads
from oacl.optim import make_optimizer
from oacl.trainer import (SEED_TASK_SHUFFLE, TrainConfig, penalty_grads, run_sequence,
                          total_loss, train_task)
from oacl.tasks import gen_base, gen_task_stream

D_IN, D, L, C = 8, 10, 2, 3


@pytest.fixture(scope="module")
def backbone():
    return build_and_pretrain(0, D_IN, D, L, C, gen_base(0, C, D_IN, 150),
                              steps=400)


@pytest.fixture(scope="module")
def stream():
    return gen_task_stream(0, 2, C, D_IN, n_train_per_class=40)


def small_config(**kw):
    kw.setdefault("r_max", 4)
    kw.setdefault("epochs", 2)
    kw.setdefault("lr", 3e-3)
    return TrainConfig(**kw)


def two_task_stack(cfg):
    """Task 1 frozen with random up-projections, task 2 open."""
    stack = AdapterStack(L)
    rng = np.random.default_rng(1)
    begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D, rng=rng, mask_enabled=cfg.mask_enabled)
    for a in stack.trainable_adapters():
        a.W2.value[...] = rng.standard_normal((D, cfg.r_max))
    end_task(stack)
    begin_task(stack, 2, cfg.r_max, cfg.tau_init, d=D, rng=rng, mask_enabled=cfg.mask_enabled)
    return stack


class TestTrainConfig:
    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(tau_init=2e-4)
        with pytest.raises(ConfigError):
            TrainConfig(lambda_orth=0.7)
        with pytest.raises(ConfigError):
            TrainConfig(lambda_l2=0.3)
        with pytest.raises(ConfigError):
            TrainConfig(variant="lora")
        with pytest.raises(ConfigError):
            TrainConfig(threshold_mode="frozen")
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ConfigError):
            TrainConfig(r_max=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainConfig(lr=lr)

    def test_inc_variant_forces_no_orth_penalty(self, backbone, stream):
        cfg = small_config(variant="inc_adapter", lambda_orth=5.0)
        stack = two_task_stack(cfg)
        tape = Tape()
        x, y = stream.tasks[1].train
        logits = forward(backbone, stack, x[:8], tape)
        n_forward = len(tape._records)
        loss = total_loss(tape, logits, y[:8], stack, 2, cfg)
        assert len(tape._records) == n_forward + 1  # the cross-entropy only
        assert float(loss.value[0, 0]) == float(
            Tape().cross_entropy(Node(logits.value), y[:8]).value[0, 0])

    def test_mask_enabled_only_for_oa(self):
        assert TrainConfig(variant="oa_adapter").mask_enabled
        assert not TrainConfig(variant="o_adapter").mask_enabled
        assert not TrainConfig(variant="inc_adapter").mask_enabled


class TestTrainableParams:
    """What a task trains is what is not frozen: train one task briefly and
    check which of its parameters moved; one that did not move holds no
    gradient."""

    def train_and_check(self, backbone, stream, cfg, moved):
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(0), mask_enabled=cfg.mask_enabled)
        adapters = stack.trainable_adapters()
        before = [{name: getattr(a, name).value.copy() for name in ADAPTER_PARAMS}
                  for a in adapters]
        train_task(backbone, stack, stream.tasks[0], cfg, 0)
        for a, values in zip(adapters, before):
            for name in ADAPTER_PARAMS:
                p = getattr(a, name)
                assert (not np.array_equal(p.value, values[name])) == (name in moved), name
                if name not in moved:
                    assert not p.grad.any(), name

    def test_oa_dynamic_includes_gate_and_threshold(self, backbone, stream):
        cfg = small_config(variant="oa_adapter", threshold_mode="dynamic", epochs=1)
        self.train_and_check(backbone, stream, cfg, ("W1", "W2", "g", "tau"))

    def test_oa_fixed_excludes_threshold(self, backbone, stream):
        cfg = small_config(variant="oa_adapter", threshold_mode="fixed", epochs=1)
        self.train_and_check(backbone, stream, cfg, ("W1", "W2", "g"))

    def test_ablations_train_weights_only(self, backbone, stream):
        for variant in ("o_adapter", "inc_adapter"):
            for mode in ("dynamic", "fixed"):
                cfg = small_config(variant=variant, threshold_mode=mode, epochs=1)
                self.train_and_check(backbone, stream, cfg, ("W1", "W2"))


class TestTotalLoss:
    """total_loss against oracles: a fresh cross-entropy of the same logits,
    ||W2_t^T W2~_s||_F^2 over the stack's bases and soft_threshold of each gate."""

    def run_loss(self, backbone, cfg, t_data, stack, t):
        tape = Tape()
        x, y = t_data.train
        logits = forward(backbone, stack, x[:8], tape)
        ce = float(Tape().cross_entropy(Node(logits.value), y[:8]).value[0, 0])
        return tape, total_loss(tape, logits, y[:8], stack, t, cfg), ce

    def test_decomposition_sums_to_total(self, backbone, stream):
        cfg = small_config(lambda_orth=1.0, lambda_l2=0.1)
        stack = two_task_stack(cfg)
        _, loss, ce = self.run_loss(backbone, cfg, stream.tasks[1], stack, 2)
        adapters = stack.trainable_adapters()
        orth = sum(float(((a.W2.value.T @ basis.W2_tilde) ** 2).sum())
                   for a, bases in zip(adapters, stack.bases) for basis in bases)
        sparsity = sum(float((soft_threshold(a.g.value[0], float(a.tau.value[0, 0])) ** 2).sum())
                       for a in adapters)
        assert float(loss.value[0, 0]) == pytest.approx(
            ce + cfg.lambda_orth * orth + cfg.lambda_l2 * sparsity, rel=1e-12)
        assert orth > 0.0 and sparsity > 0.0

    def test_first_task_has_no_orth_term(self, backbone, stream):
        cfg = small_config(lambda_orth=1.0, lambda_l2=0.0)
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(2))
        _, loss, ce = self.run_loss(backbone, cfg, stream.tasks[0], stack, 1)
        assert float(loss.value[0, 0]) == ce

    def test_unweighted_terms_are_not_recorded(self, backbone, stream):
        cfg = small_config(lambda_orth=0.0, lambda_l2=0.0)
        stack = two_task_stack(cfg)
        tape = Tape()
        x, y = stream.tasks[1].train
        logits = forward(backbone, stack, x[:8], tape)
        n_forward = len(tape._records)
        total_loss(tape, logits, y[:8], stack, 2, cfg)
        assert len(tape._records) == n_forward + 1  # the cross-entropy only

    def test_wrong_task_rejected(self, backbone, stream):
        cfg = small_config()
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(3))
        with pytest.raises(ProtocolError):
            self.run_loss(backbone, cfg, stream.tasks[0], stack, 2)


class TestTrainTask:
    def test_requires_open_task(self, backbone, stream):
        with pytest.raises(ProtocolError):
            train_task(backbone, AdapterStack(L), stream.tasks[0],
                       small_config(), 0)

    def test_training_reduces_loss_and_freezes(self, backbone, stream):
        cfg = small_config(epochs=3)
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(4), mask_enabled=True)
        x, y = stream.tasks[0].train

        def task_loss():
            tape = Tape()
            return float(tape.cross_entropy(
                forward(backbone, stack, x, tape), y).value[0, 0])

        before = task_loss()
        steps = train_task(backbone, stack, stream.tasks[0], cfg, 0)
        assert task_loss() < before
        assert stack.active_task is None
        assert all(a.frozen for point in stack.points for a in point)
        assert steps == cfg.epochs * int(np.ceil(len(y) / cfg.batch_size))

    def test_dynamic_threshold_stays_positive(self, backbone, stream):
        cfg = small_config(threshold_mode="dynamic", lambda_l2=0.5)
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(5), mask_enabled=True)
        train_task(backbone, stack, stream.tasks[0], cfg, 0)
        for point in stack.points:
            assert point[0].tau.value[0, 0] >= 1e-8

    def test_fixed_threshold_never_moves(self, backbone, stream):
        cfg = small_config(threshold_mode="fixed")
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(6), mask_enabled=True)
        train_task(backbone, stack, stream.tasks[0], cfg, 0)
        for point in stack.points:
            assert point[0].tau.value[0, 0] == cfg.tau_init

    def test_frozen_tasks_bitwise_untouched(self, backbone, stream):
        cfg = small_config()
        stack = AdapterStack(L)
        rng = np.random.default_rng(7)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D, rng=rng,
                   mask_enabled=True)
        train_task(backbone, stack, stream.tasks[0], cfg, 0)
        before = [a.state_bytes() for point in stack.points for a in point]
        begin_task(stack, 2, cfg.r_max, cfg.tau_init, d=D, rng=rng,
                   mask_enabled=True)
        train_task(backbone, stack, stream.tasks[1], cfg, 0)
        after = [a.state_bytes() for point in stack.points
                 for a in point[:1]]
        assert before == after


# TrainConfig keywords of each setup the penalty kernel is checked in.
PENALTY_SETUPS = {
    "oa_dynamic": {"variant": "oa_adapter", "threshold_mode": "dynamic"},
    "oa_fixed": {"variant": "oa_adapter", "threshold_mode": "fixed"},
    "o_adapter": {"variant": "o_adapter"},
    "inc_adapter": {"variant": "inc_adapter"},
    "no_l2": {"variant": "oa_adapter", "lambda_l2": 0.0},
    "no_orth": {"variant": "oa_adapter", "lambda_orth": 0.0},
}


def stack_with_history(cfg, n_frozen, shut=None):
    """n_frozen tasks frozen and the next one open, each with random
    up-projections and gates (one gate of each shut). Task ``shut`` is frozen
    with every gate shut, so its activated bases have width 0. The open τ is
    frozen in fixed mode, as train_task does."""
    stack = AdapterStack(L)
    rng = np.random.default_rng(11)
    for t in range(1, n_frozen + 2):
        begin_task(stack, t, cfg.r_max, cfg.tau_init, d=D, rng=rng,
                   mask_enabled=cfg.mask_enabled)
        for a in stack.trainable_adapters():
            a.W2.value[...] = rng.standard_normal(a.W2.shape)
            if cfg.mask_enabled:
                a.g.value[...] = 0.0 if t == shut else rng.uniform(-1.0, 1.0, a.g.shape)
                a.g.value[0, 0] = 0.0
            if cfg.threshold_mode == "fixed":
                a.tau.frozen = True
        if t <= n_frozen:
            end_task(stack)
    return stack


def open_params(stack):
    return [p for a in stack.trainable_adapters() for p in a.params() if not p.frozen]


class TestPenaltyGrads:
    """penalty_grads before Tape.backward(ce) against the oracle
    Tape.backward(total_loss(...)): the same gradient bytes in every open
    parameter, the same loss bits, and the same flat buffer after training."""

    def one_batch(self, backbone, stack, x, y, cfg, kernel):
        t = stack.active_task
        zero_grads(open_params(stack))
        tape = Tape()
        logits = forward(backbone, stack, x, tape)
        if kernel:
            ce = tape.cross_entropy(logits, y)
            value = penalty_grads(stack, t, float(ce.value[0, 0]), cfg)
            tape.backward(ce)
        else:
            loss = total_loss(tape, logits, y, stack, t, cfg)
            value = float(loss.value[0, 0])
            tape.backward(loss)
        return value, [p.grad.tobytes() for p in open_params(stack)]

    @pytest.mark.parametrize("setup", list(PENALTY_SETUPS))
    @pytest.mark.parametrize("n_frozen, shut", [(0, None), (1, None), (3, None), (1, 1), (3, 2)])
    def test_one_batch_matches_the_tape(self, backbone, stream, setup, n_frozen, shut):
        cfg = small_config(**PENALTY_SETUPS[setup])
        stack = stack_with_history(cfg, n_frozen, shut)
        x, y = stream.tasks[1].train
        got = self.one_batch(backbone, stack, x[:16], y[:16], cfg, kernel=True)
        want = self.one_batch(backbone, stack, x[:16], y[:16], cfg, kernel=False)
        assert got == want
        ce = float(Tape().cross_entropy(Node(forward(backbone, stack, x[:16]).value),
                                        y[:16]).value[0, 0])
        penalised = (cfg.mask_enabled and cfg.lambda_l2 > 0.0) or (cfg.orth_weight > 0.0 and any(
            b.W2_tilde.shape[1] for bases in stack.bases for b in bases))
        assert (got[0] > ce) == penalised

    def reference_train(self, backbone, stack, dataset, cfg, seed):
        """train_task's loop on the tape's total_loss, without end_task."""
        t = stack.active_task
        x, y = dataset.train
        opt = make_optimizer(cfg.optimizer, open_params(stack), cfg.lr)
        rng = np.random.default_rng([seed, SEED_TASK_SHUFFLE, t])
        for _ in range(cfg.epochs):
            order = rng.permutation(len(y))
            for lo in range(0, len(y), cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                opt.zero_grad()
                tape = Tape()
                logits = forward(backbone, stack, x[idx], tape)
                tape.backward(total_loss(tape, logits, y[idx], stack, t, cfg))
                opt.step()
                for adapter in stack.trainable_adapters():
                    adapter.clamp_tau()
        return opt.flat.value.tobytes()

    @pytest.mark.parametrize("optimizer", ["adam", "sgd_momentum"])
    @pytest.mark.parametrize("setup", ["oa_dynamic", "oa_fixed", "o_adapter", "inc_adapter"])
    def test_training_matches_the_tape_loop(self, backbone, stream, setup, optimizer):
        cfg = small_config(epochs=3, optimizer=optimizer, **PENALTY_SETUPS[setup])
        want = self.reference_train(backbone, stack_with_history(cfg, 2), stream.tasks[1], cfg, 0)
        stack = stack_with_history(cfg, 2)
        params = open_params(stack)
        train_task(backbone, stack, stream.tasks[1], cfg, 0)
        assert np.concatenate([p.value.ravel() for p in params]).tobytes() == want

    def test_overflowing_penalty_raises(self, backbone, stream):
        cfg = small_config()
        stack = two_task_stack(cfg)
        stack.bases[0][0].W2_tilde *= 1e160
        x, y = stream.tasks[1].train
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError):
                tape = Tape()
                total_loss(tape, forward(backbone, stack, x[:8], tape), y[:8], stack, 2, cfg)
            with pytest.raises(NumericalError):
                train_task(backbone, stack, stream.tasks[1], cfg, 0)


class TestRunSequence:
    def test_full_protocol_shape_and_determinism(self, backbone, stream):
        cfg = small_config(epochs=1)
        res1 = run_sequence(backbone, stream, cfg, 0)
        res2 = run_sequence(backbone, stream, cfg, 0)
        assert res1.matrix.a.shape == (2, 2)
        assert not np.isnan(res1.matrix.a).any()  # full grid is evaluated
        assert np.array_equal(res1.matrix.a, res2.matrix.a)
        assert res1.curves == res2.curves

    def test_curves_cover_all_tasks_at_interval(self, backbone, stream):
        # 28 steps per task: one curve point in each task, the second task's
        # counted on from the first task's 28 steps
        cfg = small_config(epochs=7)
        res = run_sequence(backbone, stream, cfg, 0)
        steps = sorted({s for s, _, _ in res.curves})
        assert steps == [25, 28 + 25]
        for s in steps:
            assert sorted(t for ss, t, _ in res.curves if ss == s) == [1, 2]

    def test_learns_first_task_above_chance(self, backbone, stream):
        cfg = small_config(epochs=3)
        res = run_sequence(backbone, stream, cfg, 0)
        assert res.matrix.a[0, 0] > 1.5 / C
        assert 0.0 <= avg_final_accuracy(res.matrix) <= 1.0
