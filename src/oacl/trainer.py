"""Per-task optimization and the sequential continual-learning loop.

The three variants are configuration ablations of the same code path:
``oa_adapter`` trains the soft-threshold mask, ``o_adapter`` fixes the mask
at identity (gamma = 1, g and tau untrainable), and ``inc_adapter`` is
``o_adapter`` without the orthogonality penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import AdapterStack, Backbone, begin_task, end_task, forward, predict_logits
from .errors import ConfigError, DataError, ProtocolError
from .metrics import AccuracyMatrix, accuracy
from .numerics import Node, Tape
from .optim import make_optimizer
from .orthogonality import orth_loss_total
from .tasks import TaskStream

VARIANTS = ("oa_adapter", "o_adapter", "inc_adapter")
THRESHOLD_MODES = ("dynamic", "fixed")
OPTIMIZERS = ("adam", "sgd_momentum")
TAU_GRID = (1e-3, 1e-4, 1e-5)
LAMBDA_ORTH_GRID = (0.0, 0.5, 1.0, 5.0)  # 0 admits the no-constraint ablation
LAMBDA_L2_GRID = (0.0, 0.1, 0.5)

SEED_ADAPTER_INIT = 301
SEED_TASK_SHUFFLE = 302

EVAL_INTERVAL = 25

# Each field that must hold one of a fixed set of values, and that set.
CHOICES = {"variant": VARIANTS, "threshold_mode": THRESHOLD_MODES, "optimizer": OPTIMIZERS,
           "tau_init": TAU_GRID, "lambda_orth": LAMBDA_ORTH_GRID, "lambda_l2": LAMBDA_L2_GRID}


@dataclass
class TrainConfig:
    variant: str = "oa_adapter"
    threshold_mode: str = "dynamic"
    tau_init: float = 1e-4
    lambda_orth: float = 1.0
    lambda_l2: float = 0.1
    r_max: int = 16
    optimizer: str = "adam"
    lr: float = 3e-3
    batch_size: int = 32
    epochs: int = 20

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.r_max < 1:
            raise ConfigError(f"r_max must be >= 1, got {self.r_max}")
        if not 0 < self.lr < np.inf or self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("lr must be positive and finite, batch_size >= 1, epochs >= 0")

    @property
    def mask_enabled(self) -> bool:
        return self.variant == "oa_adapter"

    @property
    def orth_weight(self) -> float:
        """The orthogonality penalty's weight: inc_adapter ignores lambda_orth."""
        return 0.0 if self.variant == "inc_adapter" else self.lambda_orth


def total_loss(tape: Tape, logits: Node, labels: np.ndarray, stack: AdapterStack,
               t: int, config: TrainConfig) -> Node:
    """L = mean cross-entropy + orth_weight * sum_{s<t} pair losses
    + lambda_l2 * sum_layers ||gamma_t||^2, as one scalar node. A term whose
    weight is zero is not recorded."""
    if t != stack.active_task:
        raise ProtocolError(f"total_loss for task {t} but active task is {stack.active_task}")
    loss = tape.cross_entropy(logits, labels)
    if config.orth_weight > 0.0 and t > 1:
        loss = tape.add(loss, tape.scale(orth_loss_total(tape, stack, t), config.orth_weight))
    if config.mask_enabled and config.lambda_l2 > 0.0:
        for adapter in stack.trainable_adapters():
            gamma = tape.soft_threshold(adapter.g, adapter.tau)
            loss = tape.add(loss, tape.scale(tape.sum_sq(gamma), config.lambda_l2))
    return loss


def train_task(backbone: Backbone, stack: AdapterStack, dataset, config: TrainConfig,
               seed: int, eval_hook=None) -> int:
    """Optimize the open task's adapters on its data, then freeze the task.
    Calls eval_hook(step) every EVAL_INTERVAL steps, counting this task's
    steps only. Returns the number of optimizer steps taken."""
    t = stack.active_task
    if t is None:
        raise ProtocolError("train_task requires an open task (call begin_task first)")
    x_train, y_train = dataset.train
    n = len(y_train)
    if n == 0:
        raise DataError(f"task {t} has an empty training split")

    if config.threshold_mode == "fixed":
        for adapter in stack.trainable_adapters():
            adapter.tau.frozen = True
    params = [p for a in stack.trainable_adapters() for p in a.params() if not p.frozen]
    opt = make_optimizer(config.optimizer, params, config.lr)
    rng = np.random.default_rng([seed, SEED_TASK_SHUFFLE, t])
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            opt.zero_grad()
            tape = Tape()
            logits = forward(backbone, stack, x_train[idx], tape)
            tape.backward(total_loss(tape, logits, y_train[idx], stack, t, config))
            opt.step()
            for adapter in stack.trainable_adapters():
                adapter.clamp_tau()
            step += 1
            if eval_hook is not None and step % EVAL_INTERVAL == 0:
                eval_hook(step)

    end_task(stack)
    return step


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    curves: list[tuple[int, int, float]]  # (step, task_id, test accuracy)
    stack: AdapterStack = field(repr=False)


def run_sequence(backbone: Backbone, stream: TaskStream, config: TrainConfig,
                 seed: int) -> RunResult:
    """Sequential protocol: for each task, train on that task's data only,
    then evaluate the composed model on every task's test set."""
    if not stream.tasks:
        raise DataError("task stream is empty")
    T = len(stream.tasks)
    stack = AdapterStack(len(backbone.hidden))
    grid = np.full((T, T), np.nan)
    curves: list[tuple[int, int, float]] = []

    def test_accuracies() -> list[float]:
        # predict_logits is called here, not inside a public function, so that
        # perfbench's traced run sees end-of-task evaluation as a direct child
        # of run_sequence.
        return [accuracy(predict_logits(backbone, stack, x), y)
                for x, y in (task.test for task in stream.tasks)]

    def evaluate_all(step: int):
        # a curve's step counts the earlier tasks' steps too
        curves.extend((done + step, i, acc) for i, acc in enumerate(test_accuracies(), start=1))

    done = 0  # optimizer steps of the tasks trained so far
    for pos, task in enumerate(stream.tasks, start=1):
        rng = np.random.default_rng([seed, SEED_ADAPTER_INIT, pos])
        begin_task(stack, pos, config.r_max, config.tau_init,
                   d=backbone.d, rng=rng, mask_enabled=config.mask_enabled)
        done += train_task(backbone, stack, task, config, seed, eval_hook=evaluate_all)
        grid[:, pos - 1] = test_accuracies()
    return RunResult(matrix=AccuracyMatrix(grid), curves=curves, stack=stack)
