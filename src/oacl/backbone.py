"""Frozen multi-layer backbone with per-layer adapter insertion points.

Inference is task-ID-free: the residual contributions of every task's
adapters at an insertion point are summed, so the same composed model is
evaluated on every task's test set. Serving folds the frozen tasks of each
insertion point into one matrix and runs without a tape.
"""

from __future__ import annotations

import zipfile
from collections.abc import Iterator

import numpy as np

from .adapters import OAAdapter, oa_delta
from .errors import ConfigError, DimensionError, PretrainingError, ProtocolError
from .metrics import accuracy
from .numerics import Node, Param, Tape, _finite, _matmul, _softmax_xent, as_matrix
from .optim import Adam
from .orthogonality import activated_basis
from .tasks import TaskDataset

CHECKPOINT_MAGIC = "OACL1"
ADAPTER_PARAMS = ("W1", "W2", "g", "tau")  # saved with "flags" under _adapter_key
SEED_BACKBONE_INIT = 201
SEED_PRETRAIN_SHUFFLE = 202


class Backbone:
    """Embedding, L hidden layers (tanh), and a global C-class head."""

    def __init__(self, d_in: int, d: int, L: int, C: int, seed: int):
        if L < 1:
            raise ValueError(f"need at least one hidden layer, got L={L}")
        rng = np.random.default_rng([seed, SEED_BACKBONE_INIT])

        def init(rows, cols, fan_in):
            b = 1.0 / np.sqrt(fan_in)
            return Param(rng.uniform(-b, b, size=(rows, cols)))

        self.d_in, self.d, self.L, self.C = d_in, d, L, C
        self.embed = init(d, d_in, d_in)
        self.hidden = [init(d, d, d) for _ in range(L)]
        self.head = init(C, d, d)
        self.pretrain_accuracy: float | None = None  # None when not pretrained

    def params(self) -> list[Param]:
        return [self.embed, *self.hidden, self.head]

    def freeze(self):
        for p in self.params():
            p.frozen = True


class AdapterStack:
    """Per-insertion-point ordered lists of adapters across tasks.

    Tasks 1..t-1 are frozen (with their activated bases cached at freeze
    time); at most one trainable task exists at any time. For inference,
    ``folded[point]`` sums the frozen tasks' residual maps,
    M = sum_s W2_s diag(gamma_s) W1_s, or is None before the first freeze.
    """

    def __init__(self, n_points: int):
        self.points: list[list[OAAdapter]] = [[] for _ in range(n_points)]
        self.bases: list[list] = [[] for _ in range(n_points)]
        self.folded: list[np.ndarray | None] = [None] * n_points
        self.active_task: int | None = None

    @property
    def task_count(self) -> int:
        return len(self.points[0])

    def trainable_adapters(self) -> list[OAAdapter]:
        if self.active_task is None:
            return []
        return [adapters[self.active_task - 1] for adapters in self.points]


def begin_task(stack: AdapterStack, t: int, r_max: int, tau_init: float, *,
               d: int, rng: np.random.Generator, mask_enabled: bool = True) -> AdapterStack:
    if stack.active_task is not None:
        raise ProtocolError(
            f"begin_task({t}) while task {stack.active_task} is still open")
    if t != stack.task_count + 1:
        raise ProtocolError(f"expected task {stack.task_count + 1}, got begin_task({t})")
    for adapters in stack.points:
        adapters.append(OAAdapter(d, r_max, tau_init, rng, mask_enabled=mask_enabled))
    stack.active_task = t
    return stack


def end_task(stack: AdapterStack) -> AdapterStack:
    if stack.active_task is None:
        raise ProtocolError("end_task without an open task")
    t = stack.active_task
    for point, adapters in enumerate(stack.points):
        a = adapters[t - 1]
        a.freeze()
        stack.bases[point].append(activated_basis(a, t))
        term = (a.W2.value * a.frozen_gamma.value) @ a.W1.value
        m = stack.folded[point]
        stack.folded[point] = term if m is None else m + term
    stack.active_task = None
    return stack


def forward(backbone: Backbone, stack: AdapterStack | None, x, tape: Tape | None = None) -> Node:
    """Logits for a batch x (n, d_in) through the composed model."""
    tape = tape if tape is not None else Tape()
    x = x if isinstance(x, Node) else Node(x)
    if x.shape[1] != backbone.d_in:
        raise DimensionError(f"input width {x.shape[1]} does not match d_in={backbone.d_in}")
    h = tape.tanh(tape.linear(x, backbone.embed))
    for layer_idx, w in enumerate(backbone.hidden):
        h = tape.linear(h, w)
        if stack is not None:
            # All tasks' residuals are computed from the same pre-sum h.
            pre = h
            for adapter in stack.points[layer_idx]:
                h = tape.add(h, oa_delta(tape, adapter, pre))
        h = tape.tanh(h)
    return tape.linear(h, backbone.head)


def _numpy_forward(backbone: Backbone, stack: AdapterStack | None,
                   x: np.ndarray) -> Iterator[np.ndarray]:
    """forward(...) without a tape, for a 2-d float64 x, up to the head: yields
    every tanh output, the embedding's first. The same ops in the same order,
    except that each layer adds the frozen tasks' deltas as one pre @ M.T; so
    bitwise equal to forward when no task is frozen, and otherwise only the
    summation order differs. Serving keeps only the last output and
    pretraining keeps them all; tanh runs in place on the layer's own fresh
    array, so serving holds no more arrays at once than one layer needs."""
    if x.shape[1] != backbone.d_in:
        raise DimensionError(f"input width {x.shape[1]} does not match d_in={backbone.d_in}")
    h = _matmul(x, backbone.embed.value.T)
    yield np.tanh(h, out=h)
    for point, w in enumerate(backbone.hidden):
        h = _matmul(h, w.value.T)
        if stack is not None:
            pre = h
            if stack.folded[point] is not None:
                h = _finite(h + _matmul(pre, stack.folded[point].T), "add")
            if stack.active_task is not None:
                a = stack.points[point][stack.active_task - 1]
                z = _matmul(pre, a.W1.value.T)
                if a.mask_enabled:
                    z = _finite(z * a.gamma(), "mul")
                h = _finite(h + _matmul(z, a.W2.value.T), "add")
        yield np.tanh(h, out=h)


def predict_logits(backbone: Backbone, stack: AdapterStack | None, x) -> np.ndarray:
    """Logits for a batch x (n, d_in) through the composed model, without a tape."""
    for h in _numpy_forward(backbone, stack, as_matrix(x)):
        pass
    return _matmul(h, backbone.head.value.T)


def check_pretraining(steps: int, batch_size: int):
    """Pretraining takes a step budget >= 0 and batches of >= 1 row."""
    if steps < 0 or batch_size < 1:
        raise ConfigError(f"need steps >= 0 and batch_size >= 1, got {steps} and {batch_size}")


def _pretrain_step(backbone: Backbone, x: np.ndarray, labels: np.ndarray):
    """Add one batch's mean cross-entropy gradients into the grads of
    backbone.params(), without a tape. The forward is _numpy_forward with no
    stack; the backward runs the numpy expressions of the tape's records in
    its reverse order, so every gradient has the bits that forward,
    Tape.cross_entropy and Tape.backward give. The grads are views into the
    optimizer's flat buffer: written in place."""
    hs = list(_numpy_forward(backbone, None, x))
    head = backbone.head.value
    g = _softmax_xent(_matmul(hs[-1], head.T), labels)[1]
    g *= 1.0 / len(labels)
    backbone.head.grad += (hs[-1].T @ g).T
    g = g @ head
    for i in range(len(backbone.hidden) - 1, -1, -1):
        w, h_in, h_out = backbone.hidden[i], hs[i], hs[i + 1]
        g = g * (1.0 - h_out * h_out)
        w.grad += (h_in.T @ g).T
        g = g @ w.value
    g = g * (1.0 - hs[0] * hs[0])
    backbone.embed.grad += (x.T @ g).T


def build_and_pretrain(seed: int, d_in: int, d: int, L: int, C: int,
                       pretrain_data: TaskDataset, steps: int = 400,
                       lr: float = 3e-3, batch_size: int = 32) -> Backbone:
    """Train a fresh backbone on the base distribution, then freeze it.

    A zero step budget returns a frozen random backbone (pretrain_accuracy None).
    Failing to reach 60% held-out accuracy after the budget signals a broken
    generator or config.
    """
    check_pretraining(steps, batch_size)
    backbone = Backbone(d_in, d, L, C, seed)
    if steps == 0:
        backbone.freeze()
        return backbone

    x_train, y_train = pretrain_data.train
    x_train = as_matrix(x_train)
    x_val, y_val = pretrain_data.val
    opt = Adam(backbone.params(), lr=lr)
    rng = np.random.default_rng([seed, SEED_PRETRAIN_SHUFFLE])
    n = len(y_train)
    order = rng.permutation(n)
    cursor = 0
    for _ in range(steps):
        if cursor + batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        opt.zero_grad()
        _pretrain_step(backbone, x_train[idx], y_train[idx])
        opt.step()

    acc = accuracy(predict_logits(backbone, None, x_val), y_val)
    backbone.pretrain_accuracy = acc
    if acc < 0.60:
        raise PretrainingError(
            f"backbone reached only {acc:.3f} held-out accuracy after {steps} steps")
    backbone.freeze()
    return backbone


# -- checkpoint serialization ------------------------------------------


def _backbone_keys(L: int) -> list[str]:
    """Checkpoint keys of Backbone.params(), in the same order."""
    return ["backbone/embed", *(f"backbone/hidden{i}" for i in range(L)), "backbone/head"]


def _adapter_key(point: int, t: int, name: str) -> str:
    """Checkpoint key of task t's adapter array ``name`` at insertion point ``point``."""
    return f"adapter/p{point}/t{t}/{name}"


def save_checkpoint(path, backbone: Backbone, stack: AdapterStack):
    """Single self-describing binary file (npz) with magic string OACL1."""
    arrays = {
        "magic": np.array(CHECKPOINT_MAGIC),
        "dims": np.array([backbone.d_in, backbone.d, backbone.L, backbone.C]),
        "n_tasks": np.array(stack.task_count),
    }
    for key, p in zip(_backbone_keys(backbone.L), backbone.params()):
        arrays[key] = p.value
    for point, adapters in enumerate(stack.points):
        for t, a in enumerate(adapters, start=1):
            for name in ADAPTER_PARAMS:
                arrays[_adapter_key(point, t, name)] = getattr(a, name).value
            arrays[_adapter_key(point, t, "flags")] = np.array(
                [int(a.frozen), int(a.mask_enabled)])
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def _restore(param: Param, saved: np.ndarray):
    """Copy a saved array into a parameter; numpy would broadcast a smaller
    array into it silently, so the shapes must match. A NaN or inf would load
    silently too and shut every gate or fail every later call."""
    if saved.shape != param.value.shape:
        raise ValueError(f"saved shape {saved.shape} does not fit {param.value.shape}")
    if not np.isfinite(saved).all():
        raise ValueError(f"saved array of shape {saved.shape} is not finite")
    param.value[...] = saved


def load_checkpoint(path) -> tuple[Backbone, AdapterStack]:
    """Rebuild the model through the task lifecycle: begin_task per saved task,
    its saved parameters copied in, end_task for tasks that were frozen. A task
    saved while open is left open. A file that is not a complete checkpoint
    raises one ValueError naming the path."""
    try:
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as z:
            if "magic" not in z or str(z["magic"]) != CHECKPOINT_MAGIC:
                raise ValueError("no magic string")
            d_in, d, L, C = (int(v) for v in z["dims"])
            backbone = Backbone(d_in, d, L, C, seed=0)
            for key, p in zip(_backbone_keys(L), backbone.params()):
                _restore(p, z[key])
            backbone.freeze()
            stack = AdapterStack(L)
            rng = np.random.default_rng(0)  # initial values are overwritten below
            for t in range(1, int(z["n_tasks"]) + 1):
                frozen, mask_enabled = (bool(v) for v in z[_adapter_key(0, t, "flags")])
                begin_task(stack, t, z[_adapter_key(0, t, "W1")].shape[0],
                           float(z[_adapter_key(0, t, "tau")][0, 0]), d=d, rng=rng,
                           mask_enabled=mask_enabled)
                for point, a in enumerate(stack.trainable_adapters()):
                    for name in ADAPTER_PARAMS:
                        _restore(getattr(a, name), z[_adapter_key(point, t, name)])
                if frozen:
                    end_task(stack)
    except (EOFError, IndexError, KeyError, ProtocolError, TypeError, ValueError,
            zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a readable {CHECKPOINT_MAGIC} checkpoint: {e!r}") from e
    return backbone, stack
