"""Every tape-free numpy path against its tape reference, on drawn model states.

A draw is a small model: its widths and depth, up to three frozen tasks (one
of them, optionally, with every gate shut), the open task, a batch and the
training config. Each test checks one path:
- predict_logits against forward: the same bytes with no frozen task;
  otherwise within 1e-12 * max(1, |logit|), since the fold sums the frozen
  tasks' deltas in another order;
- penalty_grads before Tape.backward(ce) against Tape.backward(total_loss):
  the same gradient bytes and the same loss bits;
- _pretrain_step against the taped step: the same gradient bytes;
- train_task against a loop on total_loss: the same parameter bytes.
A last test scales one part of a drawn model to near overflow and checks that
every path either raises NumericalError or gives only finite values.
"""

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oacl.backbone import (AdapterStack, Backbone, _pretrain_step, begin_task, end_task,
                           forward, predict_logits)
from oacl.errors import NumericalError
from oacl.numerics import Node, Tape, zero_grads
from oacl.optim import make_optimizer
from oacl.tasks import TaskDataset
from oacl.trainer import (LAMBDA_L2_GRID, LAMBDA_ORTH_GRID, OPTIMIZERS, SEED_TASK_SHUFFLE,
                          THRESHOLD_MODES, TAU_GRID, VARIANTS, TrainConfig, penalty_grads,
                          total_loss, train_task)


@dataclass(frozen=True)
class Draw:
    d_in: int
    d: int
    L: int
    C: int
    n_frozen: int
    shut: int | None  # the frozen task whose gates are all shut
    open_task: bool  # whether the last task stays open for predict_logits
    rows: int
    config: TrainConfig
    seed: int

    def model(self):
        """A frozen random backbone and a stack of n_frozen frozen tasks and
        one open task, each with random up-projections and gates (gate 0 of
        each shut). The open τ is frozen in fixed mode, as train_task does.
        Each call gives fresh copies of the same values."""
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        backbone = Backbone(self.d_in, self.d, self.L, self.C, self.seed)
        backbone.freeze()
        stack = AdapterStack(self.L)
        for t in range(1, self.n_frozen + 2):
            begin_task(stack, t, cfg.r_max, cfg.tau_init, d=self.d, rng=rng,
                       mask_enabled=cfg.mask_enabled)
            for a in stack.trainable_adapters():
                a.W2.value[...] = rng.standard_normal(a.W2.shape)
                if cfg.mask_enabled:
                    a.g.value[...] = 0.0 if t == self.shut else rng.uniform(-1.0, 1.0, a.g.shape)
                    a.g.value[0, 0] = 0.0
                if cfg.threshold_mode == "fixed":
                    a.tau.frozen = True
            if t <= self.n_frozen:
                end_task(stack)
        return backbone, stack

    def batch(self):
        rng = np.random.default_rng([self.seed, 1])
        return rng.standard_normal((self.rows, self.d_in)), rng.integers(0, self.C, self.rows)


@st.composite
def draws(draw):
    n_frozen = draw(st.integers(0, 3))
    rows = draw(st.integers(1, 9))
    return Draw(
        d_in=draw(st.integers(2, 8)), d=draw(st.integers(2, 10)), L=draw(st.integers(1, 3)),
        C=draw(st.integers(2, 5)), n_frozen=n_frozen,
        shut=draw(st.none() | st.integers(1, n_frozen)) if n_frozen else None,
        open_task=draw(st.booleans()), rows=rows,
        config=TrainConfig(
            variant=draw(st.sampled_from(VARIANTS)),
            threshold_mode=draw(st.sampled_from(THRESHOLD_MODES)),
            tau_init=draw(st.sampled_from(TAU_GRID)),
            lambda_orth=draw(st.sampled_from(LAMBDA_ORTH_GRID)),
            lambda_l2=draw(st.sampled_from(LAMBDA_L2_GRID)),
            optimizer=draw(st.sampled_from(OPTIMIZERS)),
            r_max=draw(st.integers(1, 5)), batch_size=draw(st.integers(1, rows)), epochs=2),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


def edge(n_frozen=3, shut=None, open_task=True, **config):
    return Draw(d_in=6, d=8, L=2, C=3, n_frozen=n_frozen, shut=shut, open_task=open_task,
                rows=9, config=TrainConfig(r_max=4, batch_size=4, epochs=2, **config), seed=5)


# Named cases that every draw-based test runs first.
EDGE_CASES = [
    edge(n_frozen=0),
    edge(open_task=False),
    edge(shut=2),
    edge(lambda_l2=0.0),
    edge(lambda_orth=0.0),
    edge(threshold_mode="fixed"),
    edge(optimizer="sgd_momentum"),
    edge(variant="o_adapter"),
    edge(variant="inc_adapter"),
]


def differential(test):
    """Run ``test`` on every edge case and on 100 draws."""
    for case in reversed(EDGE_CASES):
        test = example(case)(test)
    return settings(max_examples=100)(given(draws())(test))


def open_params(stack):
    return [p for a in stack.trainable_adapters() for p in a.params() if not p.frozen]


@differential
def test_predict_logits_matches_forward(s):
    backbone, stack = s.model()
    if not s.open_task:
        end_task(stack)
    x, _ = s.batch()
    bare = predict_logits(backbone, None, x), forward(backbone, None, x).value
    assert bare[0].tobytes() == bare[1].tobytes()
    got, want = predict_logits(backbone, stack, x), forward(backbone, stack, x).value
    if stack.folded[0] is None:
        assert got.tobytes() == want.tobytes()
    else:
        assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()
        assert (got.argmax(axis=1) == want.argmax(axis=1)).all()


def one_batch(s, kernel):
    """The loss value and the open gradients' bytes of one batch."""
    backbone, stack = s.model()
    x, y = s.batch()
    t = stack.active_task
    zero_grads(open_params(stack))
    tape = Tape()
    logits = forward(backbone, stack, x, tape)
    if kernel:
        ce = tape.cross_entropy(logits, y)
        value = penalty_grads(stack, t, float(ce.value[0, 0]), s.config)
        tape.backward(ce)
    else:
        loss = total_loss(tape, logits, y, stack, t, s.config)
        value = float(loss.value[0, 0])
        tape.backward(loss)
    return value, [p.grad.tobytes() for p in open_params(stack)]


@differential
def test_penalty_grads_match_the_tape(s):
    got = one_batch(s, kernel=True)
    assert got == one_batch(s, kernel=False)
    backbone, stack = s.model()
    x, y = s.batch()
    ce = float(Tape().cross_entropy(Node(forward(backbone, stack, x).value), y).value[0, 0])
    cfg = s.config
    open_gated = any(a.gamma().any() for a in stack.trainable_adapters())
    history = any(a.basis.shape[1] for point in stack.points for a in point[:-1])
    penalised = ((cfg.mask_enabled and cfg.lambda_l2 > 0.0 and open_gated)
                 or (cfg.orth_weight > 0.0 and history))
    assert (got[0] > ce) == penalised


# One and three layers, one and seven rows: the shapes of the step's first tests.
@differential
@example(replace(edge(), L=1, rows=1))
@example(replace(edge(), L=1, rows=7, C=2))
@example(replace(edge(), L=3, rows=1, C=2))
@example(replace(edge(), L=3, rows=7))
@example(replace(edge(), L=3, rows=7, d_in=8))
def test_pretrain_step_matches_the_tape(s):
    """The fused step adds the bytes that forward, cross_entropy and backward
    add, into grads that already hold something."""
    x, y = s.batch()
    fused, taped = (Backbone(s.d_in, s.d, s.L, s.C, s.seed) for _ in range(2))
    rng = np.random.default_rng([s.seed, 2])
    for a, b in zip(fused.params(), taped.params()):
        a.grad[...] = b.grad[...] = rng.standard_normal(a.grad.shape)
    _pretrain_step(fused, x, y)
    tape = Tape()
    tape.backward(tape.cross_entropy(forward(taped, None, x, tape), y))
    assert [p.grad.tobytes() for p in fused.params()] == [
        p.grad.tobytes() for p in taped.params()]


def reference_train(s):
    """train_task's loop on the tape's total_loss, without end_task."""
    cfg = s.config
    backbone, stack = s.model()
    x, y = s.batch()
    t = stack.active_task
    params = open_params(stack)
    opt = make_optimizer(cfg.optimizer, params, cfg.lr)
    rng = np.random.default_rng([s.seed, SEED_TASK_SHUFFLE, t])
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
    return [p.value.tobytes() for p in params]


@differential
def test_train_task_matches_the_tape_loop(s):
    backbone, stack = s.model()
    params = open_params(stack)
    train_task(backbone, stack, TaskDataset(stack.active_task, s.batch(), None), s.config, s.seed)
    assert [p.value.tobytes() for p in params] == reference_train(s)


SITES = ("input", "embed", "hidden", "head", "open W1", "open W2", "frozen W1", "frozen W2",
         "basis")


def blow_up(site, scale, backbone, stack, x):
    """x, after one site of the model is multiplied by scale in place: the
    input, a backbone weight, every open or frozen W1 or W2 (a frozen task's
    basis and fold follow its weights) or every frozen basis alone. A site
    that the model lacks is left alone."""
    if site == "input":
        return x * scale
    if site in ("embed", "head"):
        getattr(backbone, site).value[...] *= scale
    elif site == "hidden":
        backbone.hidden[-1].value[...] *= scale
    elif stack is not None and site.startswith("open"):
        for a in stack.trainable_adapters():
            getattr(a, site[-2:]).value[...] *= scale
    elif stack is not None:
        for point, adapters in enumerate(stack.points):
            frozen = adapters[:-1]  # the last task is open
            for a in frozen:
                if site == "basis":
                    a.basis *= scale
                else:
                    getattr(a, site[-2:]).value[...] *= scale
                    a.freeze()
            if frozen and site != "basis":
                stack.folded[point] = sum((a.W2.value * a.frozen_gamma.value) @ a.W1.value
                                          for a in frozen)
    return x


def finite_or_raises(call) -> bool:
    """Whether call() raises NumericalError or returns only finite arrays."""
    try:
        return all(np.isfinite(v).all() for v in call())
    except NumericalError:
        return True


@settings(max_examples=100)
@given(draws(), st.sampled_from(SITES), st.sampled_from((1e154, 1e300, 1e308)))
@example(edge(), "input", 1e308)
@example(edge(), "head", 1e308)
@example(edge(), "frozen W2", 1e300)
@example(edge(), "basis", 1e154)
def test_overflow_raises_or_stays_finite(s, site, scale):
    cfg = s.config
    with np.errstate(all="ignore"):
        backbone, stack = s.model()
        x, y = s.batch()
        x = blow_up(site, scale, backbone, stack, x)
        t = stack.active_task

        def loss():
            tape = Tape()
            return [total_loss(tape, forward(backbone, stack, x, tape), y, stack, t, cfg).value]

        def penalties():
            params = open_params(stack)
            zero_grads(params)
            ce = Tape().cross_entropy(forward(backbone, stack, x), y)
            return [penalty_grads(stack, t, float(ce.value[0, 0]), cfg)] + [p.grad for p in params]

        def pretrain_step():
            bb = Backbone(s.d_in, s.d, s.L, s.C, s.seed)
            xb = blow_up(site, scale, bb, None, s.batch()[0])
            opt = make_optimizer(cfg.optimizer, bb.params(), cfg.lr)
            opt.zero_grad()
            _pretrain_step(bb, xb, y)
            opt.step()
            return [p.value for p in bb.params()]

        assert finite_or_raises(loss)
        assert finite_or_raises(penalties)
        assert finite_or_raises(pretrain_step)
        if not s.open_task:
            end_task(stack)
        assert finite_or_raises(lambda: [predict_logits(backbone, stack, x)])
