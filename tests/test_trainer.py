import numpy as np
import pytest

from oacl.backbone import AdapterStack, begin_task, build_and_pretrain, forward
from oacl.errors import ConfigError, ProtocolError
from oacl.metrics import avg_final_accuracy
from oacl.numerics import Tape
from oacl.trainer import (TrainConfig, run_sequence, total_loss, train_task,
                          _trainable_params)
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

    def test_inc_variant_forces_no_orth_penalty(self):
        cfg = TrainConfig(variant="inc_adapter", lambda_orth=5.0)
        assert cfg.lambda_orth == 0.0

    def test_mask_enabled_only_for_oa(self):
        assert TrainConfig(variant="oa_adapter").mask_enabled
        assert not TrainConfig(variant="o_adapter").mask_enabled
        assert not TrainConfig(variant="inc_adapter").mask_enabled


class TestTrainableParams:
    def make_stack(self, cfg):
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(0), mask_enabled=cfg.mask_enabled)
        return stack

    def test_oa_dynamic_includes_gate_and_threshold(self):
        cfg = small_config(variant="oa_adapter", threshold_mode="dynamic")
        params = _trainable_params(self.make_stack(cfg), cfg)
        assert len(params) == L * 4  # W1, W2, g, tau per point

    def test_oa_fixed_excludes_threshold(self):
        cfg = small_config(variant="oa_adapter", threshold_mode="fixed")
        stack = self.make_stack(cfg)
        params = _trainable_params(stack, cfg)
        assert len(params) == L * 3
        assert not any(p is a.tau for a in stack.trainable_adapters()
                       for p in params)

    def test_ablations_train_weights_only(self):
        for variant in ("o_adapter", "inc_adapter"):
            cfg = small_config(variant=variant)
            assert len(_trainable_params(self.make_stack(cfg), cfg)) == L * 2


class TestTotalLoss:
    def run_parts(self, backbone, stream, cfg, t_data, stack, t):
        tape = Tape()
        x, y = t_data.train
        logits = forward(backbone, stack, x[:8], tape)
        return tape, total_loss(tape, logits, y[:8], stack, t, cfg)

    def test_decomposition_sums_to_total(self, backbone, stream):
        cfg = small_config(lambda_orth=1.0, lambda_l2=0.1)
        stack = AdapterStack(L)
        rng = np.random.default_rng(1)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D, rng=rng)
        for a in stack.trainable_adapters():
            a.W2.value[...] = rng.standard_normal((D, cfg.r_max))
        from oacl.backbone import end_task
        end_task(stack)
        begin_task(stack, 2, cfg.r_max, cfg.tau_init, d=D, rng=rng)
        tape, parts = self.run_parts(backbone, stream, cfg,
                                     stream.tasks[1], stack, 2)
        total = float(parts.total.value[0, 0])
        assert total == pytest.approx(
            parts.task + cfg.lambda_orth * parts.orth
            + cfg.lambda_l2 * parts.sparsity, rel=1e-12)
        assert parts.orth > 0.0 and parts.sparsity > 0.0

    def test_first_task_has_no_orth_term(self, backbone, stream):
        cfg = small_config(lambda_orth=1.0, lambda_l2=0.0)
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(2))
        _, parts = self.run_parts(backbone, stream, cfg, stream.tasks[0],
                                  stack, 1)
        assert parts.orth == 0.0
        assert float(parts.total.value[0, 0]) == pytest.approx(parts.task)

    def test_wrong_task_rejected(self, backbone, stream):
        cfg = small_config()
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(3))
        with pytest.raises(ProtocolError):
            self.run_parts(backbone, stream, cfg, stream.tasks[0], stack, 2)


class TestTrainTask:
    def test_requires_open_task(self, backbone, stream):
        with pytest.raises(ProtocolError):
            train_task(backbone, AdapterStack(L), stream.tasks[0],
                       small_config())

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
        report = train_task(backbone, stack, stream.tasks[0], cfg)
        assert task_loss() < before
        assert stack.active_task is None
        assert all(a.frozen for point in stack.points for a in point)
        assert report.steps == cfg.epochs * int(np.ceil(len(y) / cfg.batch_size))

    def test_dynamic_threshold_stays_positive(self, backbone, stream):
        cfg = small_config(threshold_mode="dynamic", lambda_l2=0.5)
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(5), mask_enabled=True)
        train_task(backbone, stack, stream.tasks[0], cfg)
        for point in stack.points:
            assert point[0].tau.value[0, 0] >= 1e-8

    def test_fixed_threshold_never_moves(self, backbone, stream):
        cfg = small_config(threshold_mode="fixed")
        stack = AdapterStack(L)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D,
                   rng=np.random.default_rng(6), mask_enabled=True)
        train_task(backbone, stack, stream.tasks[0], cfg)
        for point in stack.points:
            assert point[0].tau.value[0, 0] == cfg.tau_init

    def test_frozen_tasks_bitwise_untouched(self, backbone, stream):
        cfg = small_config()
        stack = AdapterStack(L)
        rng = np.random.default_rng(7)
        begin_task(stack, 1, cfg.r_max, cfg.tau_init, d=D, rng=rng,
                   mask_enabled=True)
        train_task(backbone, stack, stream.tasks[0], cfg)
        before = [a.state_bytes() for point in stack.points for a in point]
        begin_task(stack, 2, cfg.r_max, cfg.tau_init, d=D, rng=rng,
                   mask_enabled=True)
        train_task(backbone, stack, stream.tasks[1], cfg)
        after = [a.state_bytes() for point in stack.points
                 for a in point[:1]]
        assert before == after


class TestRunSequence:
    def test_full_protocol_shape_and_determinism(self, backbone, stream):
        cfg = small_config(epochs=1)
        res1 = run_sequence(backbone, stream, cfg)
        res2 = run_sequence(backbone, stream, cfg)
        assert res1.matrix.a.shape == (2, 2)
        assert not np.isnan(res1.matrix.a).any()  # full grid is evaluated
        assert np.array_equal(res1.matrix.a, res2.matrix.a)
        assert res1.curves == res2.curves
        assert len(res1.reports) == 2

    def test_curves_cover_all_tasks_at_interval(self, backbone, stream):
        cfg = small_config(epochs=2)
        res = run_sequence(backbone, stream, cfg)
        steps = sorted({s for s, _, _ in res.curves})
        assert all(s % 25 == 0 for s in steps)
        for s in steps:
            assert sorted(t for ss, t, _ in res.curves if ss == s) == [1, 2]

    def test_learns_first_task_above_chance(self, backbone, stream):
        cfg = small_config(epochs=3)
        res = run_sequence(backbone, stream, cfg)
        assert res.matrix.a[0, 0] > 1.5 / C
        assert 0.0 <= avg_final_accuracy(res.matrix) <= 1.0
