"""Frozen multi-layer backbone with per-layer adapter insertion points.

Inference is task-ID-free: the residual contributions of every task's
adapters at an insertion point are summed, so the same composed model is
evaluated on every task's test set. Serving folds the frozen tasks of each
insertion point into one matrix and runs without a tape.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .adapters import OAAdapter, oa_delta
from .errors import ConfigError, DimensionError, PretrainingError, ProtocolError
from .metrics import accuracy
from .numerics import Node, Param, Tape, _finite, as_matrix, matmul, zero_grads
from .optim import Adam
from .orthogonality import activated_basis
from .tasks import TaskDataset

CHECKPOINT_MAGIC = "OACL1"
ADAPTER_PARAMS = ("W1", "W2", "g", "tau")  # checkpoint keys adapter/p{point}/t{t}/{name}
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
        term = (a.W2.value * a.gamma()) @ a.W1.value
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
    h = tape.tanh(tape.matmul(x, tape.transpose(backbone.embed)))
    for layer_idx, w in enumerate(backbone.hidden):
        h = tape.matmul(h, tape.transpose(w))
        if stack is not None:
            # All tasks' residuals are computed from the same pre-sum h.
            pre = h
            for adapter in stack.points[layer_idx]:
                h = tape.add(h, oa_delta(tape, adapter, pre))
        h = tape.tanh(h)
    return tape.matmul(h, tape.transpose(backbone.head))


def predict_logits(backbone: Backbone, stack: AdapterStack | None, x) -> np.ndarray:
    """forward(...).value without a tape: the same ops in the same order, except
    that each layer adds the frozen tasks' deltas as one pre @ M.T. Bitwise equal
    to forward when no task is frozen; otherwise only the summation order differs."""
    x = as_matrix(x)
    if x.shape[1] != backbone.d_in:
        raise DimensionError(f"input width {x.shape[1]} does not match d_in={backbone.d_in}")
    h = np.tanh(matmul(x, backbone.embed.value.T))
    for point, w in enumerate(backbone.hidden):
        h = matmul(h, w.value.T)
        if stack is not None:
            pre = h
            if stack.folded[point] is not None:
                h = _finite(h + matmul(pre, stack.folded[point].T), "add")
            if stack.active_task is not None:
                a = stack.points[point][stack.active_task - 1]
                z = matmul(pre, a.W1.value.T)
                if a.mask_enabled:
                    z = _finite(z * a.gamma(), "mul")
                h = _finite(h + matmul(z, a.W2.value.T), "add")
        h = np.tanh(h)
    return matmul(h, backbone.head.value.T)


def build_and_pretrain(seed: int, d_in: int, d: int, L: int, C: int,
                       pretrain_data: TaskDataset, steps: int = 400,
                       lr: float = 3e-3, batch_size: int = 32) -> Backbone:
    """Train a fresh backbone on the base distribution, then freeze it.

    A zero step budget returns a frozen random backbone (pretrain_accuracy None).
    Failing to reach 60% held-out accuracy after the budget signals a broken
    generator or config.
    """
    if steps < 0 or batch_size < 1:
        raise ConfigError(f"need steps >= 0 and batch_size >= 1, got {steps} and {batch_size}")
    backbone = Backbone(d_in, d, L, C, seed)
    if steps == 0:
        backbone.freeze()
        return backbone

    x_train, y_train = pretrain_data.train
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
        zero_grads(backbone.params())
        tape = Tape()
        logits = forward(backbone, None, x_train[idx], tape)
        loss = tape.cross_entropy(logits, y_train[idx])
        tape.backward(loss)
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
            prefix = f"adapter/p{point}/t{t}"
            for name in ADAPTER_PARAMS:
                arrays[f"{prefix}/{name}"] = getattr(a, name).value
            arrays[f"{prefix}/flags"] = np.array(
                [int(a.frozen), int(a.mask_enabled)])
    with open(path, "wb") as f:
        np.savez(f, **arrays)


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
                p.value[...] = z[key]
            backbone.freeze()
            stack = AdapterStack(L)
            rng = np.random.default_rng(0)  # initial values are overwritten below
            for t in range(1, int(z["n_tasks"]) + 1):
                frozen, mask_enabled = (bool(v) for v in z[f"adapter/p0/t{t}/flags"])
                begin_task(stack, t, z[f"adapter/p0/t{t}/W1"].shape[0],
                           float(z[f"adapter/p0/t{t}/tau"][0, 0]), d=d, rng=rng,
                           mask_enabled=mask_enabled)
                for point, a in enumerate(stack.trainable_adapters()):
                    for name in ADAPTER_PARAMS:
                        getattr(a, name).value[...] = z[f"adapter/p{point}/t{t}/{name}"]
                if frozen:
                    end_task(stack)
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a readable {CHECKPOINT_MAGIC} checkpoint: {e!r}") from e
    return backbone, stack
