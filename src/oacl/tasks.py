"""Deterministic synthetic sequential-task generator.

The base distribution is a set of Gaussian clusters with well-separated
unit-norm means over a global label vocabulary. Sequential tasks apply a
fresh random orthogonal rotation to the inputs (optionally also a label
permutation), giving substantial distribution shift while keeping every
task defined over the same classes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, GenerationError

# Named sub-seed tags; all randomness chains off (global_seed, tag, ...).
SEED_MEANS = 101
SEED_ROTATION = 102
SEED_RELABEL = 103
SEED_SPLIT = 104

NOISE_SIGMA = 0.3
MAX_MEAN_TRIES = 1000


Split = tuple[np.ndarray, np.ndarray]  # (X: (n, d_in) float64, y: (n,) int)


@dataclass
class TaskDataset:
    task_id: int
    train: Split
    val: Split
    test: Split | None = None  # the base dataset has no test split


@dataclass
class TaskStream:
    tasks: list[TaskDataset]
    order_id: str


SHIFTS = ("rotation", "rotation+relabel")


# Each rule on the generators' arguments lives in one checker, called by the
# generator and by the config section that holds the value.
def check_classes(C: int, d_in: int):
    """C unit-norm means 60 degrees apart need C >= 2 classes and d_in >= C."""
    if C < 2 or d_in < C:
        raise GenerationError(f"need C >= 2 and d_in >= C, got C={C}, d_in={d_in}")


def check_split_sizes(n_train: int, n_val: int = 0, n_test: int = 1):
    """Rows per class of each split: a training or test split needs rows, a
    validation split may be empty. The defaults pass, for a caller that has
    only a training split."""
    if n_train <= 0:
        raise DataError(f"n_train_per_class must be positive, got {n_train}")
    if n_val < 0:
        raise DataError(f"n_val_per_class must be non-negative, got {n_val}")
    if n_test <= 0:
        raise DataError(f"n_test_per_class must be positive, got {n_test}")


def check_stream(T: int, shift: str):
    """A stream has at least one task and a known shift."""
    if T < 1:
        raise ConfigError(f"need at least one task, got T={T}")
    if shift not in SHIFTS:
        raise ConfigError(f"unknown shift {shift!r}")


def check_permutation(permutation, T: int):
    """A task order is a 1-based permutation of [1..T], as a list or tuple of ints."""
    if not (isinstance(permutation, (list, tuple))
            and all(type(p) is int for p in permutation)
            and sorted(permutation) == list(range(1, T + 1))):
        raise ConfigError(f"{permutation!r} is not a permutation of 1..{T}")


def _cluster_means(seed: int, C: int, d_in: int, max_cos: float = 0.5) -> np.ndarray:
    """Unit-norm mean directions with pairwise angle >= 60 degrees."""
    check_classes(C, d_in)
    rng = np.random.default_rng([seed, SEED_MEANS])
    for _ in range(MAX_MEAN_TRIES):
        m = rng.standard_normal((C, d_in))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        gram = m @ m.T
        np.fill_diagonal(gram, 0.0)
        if np.abs(gram).max() <= max_cos:
            return m
    raise GenerationError(
        f"could not separate {C} means by >= 60 degrees in {d_in} dimensions")


def _sample_split(rng: np.random.Generator, means: np.ndarray,
                  n_per_class: int) -> Split:
    C, d_in = means.shape
    xs, ys = [], []
    for c in range(C):
        xs.append(means[c] + NOISE_SIGMA * rng.standard_normal((n_per_class, d_in)))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def _sample_splits(seed: int, t: int, means: np.ndarray, sizes) -> Iterator[Split]:
    """One split per entry of ``sizes`` (rows per class), drawn as the caller
    asks for it; split k of task t draws from its own stream
    [seed, SEED_SPLIT, t, k]."""
    for k, n in enumerate(sizes):
        yield _sample_split(np.random.default_rng([seed, SEED_SPLIT, t, k]), means, n)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-uniform orthogonal matrix via QR with sign-corrected diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def gen_base(seed: int, C: int, d_in: int, n_train_per_class: int,
             n_val_per_class: int = 50) -> TaskDataset:
    """Base-distribution dataset, used for backbone pretraining: a training
    and a validation split, no test split (task 0 of the split streams)."""
    check_split_sizes(n_train_per_class, n_val_per_class)
    train, val = _sample_splits(seed, 0, _cluster_means(seed, C, d_in),
                                (n_train_per_class, n_val_per_class))
    return TaskDataset(task_id=0, train=train, val=val)


def gen_task_stream(seed: int, T: int, C: int, d_in: int,
                    n_train_per_class: int = 250, shift: str = "rotation",
                    n_val_per_class: int = 50, n_test_per_class: int = 100) -> TaskStream:
    """Task 1 is the base distribution; every later task rotates the inputs
    by a fresh random orthogonal matrix (and permutes labels for
    shift='rotation+relabel')."""
    check_stream(T, shift)
    check_split_sizes(n_train_per_class, n_val_per_class, n_test_per_class)
    means = _cluster_means(seed, C, d_in)
    tasks = []
    for t in range(1, T + 1):
        if t == 1:
            q = np.eye(d_in)
        else:
            q = random_orthogonal(np.random.default_rng([seed, SEED_ROTATION, t]), d_in)
        relabel = None
        if shift == "rotation+relabel" and t > 1:
            relabel = np.random.default_rng([seed, SEED_RELABEL, t]).permutation(C)
        splits = []
        for x, y in _sample_splits(seed, t, means,
                                   (n_train_per_class, n_val_per_class, n_test_per_class)):
            x = x @ q.T
            if relabel is not None:
                y = relabel[y]
            splits.append((x, y))
        tasks.append(TaskDataset(t, *splits))
    return TaskStream(tasks=tasks, order_id="-".join(str(t) for t in range(1, T + 1)))


def reorder(stream: TaskStream, permutation) -> TaskStream:
    """Reorder the stream by a 1-based permutation of [1..T] (check_permutation)."""
    check_permutation(permutation, len(stream.tasks))
    return TaskStream(tasks=[stream.tasks[p - 1] for p in permutation],
                      order_id="-".join(str(p) for p in permutation))
