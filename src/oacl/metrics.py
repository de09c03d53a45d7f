"""Accuracy matrix, the mean-accuracy summary metric, forgetting statistics,
and parameter-budget accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ProtocolError


@dataclass
class AccuracyMatrix:
    """a[i, j] is test accuracy on task i+1 after training task j+1.

    Entries with j < i are evaluations taken before the task was trained;
    they are stored but excluded from the summary metrics.
    """

    a: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise DataError(f"accuracy grid shape {self.a.shape} is not square")
        defined = self.a[~np.isnan(self.a)]
        if defined.size and (defined.min() < 0.0 or defined.max() > 1.0):
            raise DataError("accuracies must lie in [0, 1]")

    @property
    def T(self) -> int:
        return self.a.shape[0]

    def _require_final_column(self):
        if np.isnan(self.a[:, self.T - 1]).any():
            raise DataError("final column of the accuracy matrix is not fully populated")


def accuracy(logits, labels) -> float:
    """Fraction of rows whose argmax logit is the label; logit ties break
    toward the lowest class index (numpy argmax convention)."""
    if len(labels) == 0:
        raise DataError("cannot evaluate accuracy on an empty split")
    if len(labels) != logits.shape[0]:
        raise DataError(f"{len(labels)} labels for {logits.shape[0]} rows of logits")
    return float((logits.argmax(axis=1) == labels).mean())


def avg_final_accuracy(m: AccuracyMatrix) -> float:
    m._require_final_column()
    return float(m.a[:, m.T - 1].mean())


def forgetting_per_task(m: AccuracyMatrix) -> np.ndarray:
    """f_i = max_{j >= i} a[i, j] - a[i, T]."""
    m._require_final_column()
    out = np.empty(m.T)
    for i in range(m.T):
        row = m.a[i, i:]
        if np.isnan(row).any():
            raise DataError(f"row {i + 1} has missing post-training entries")
        out[i] = row.max() - m.a[i, m.T - 1]
    return out


@dataclass
class BudgetReport:
    r_eff: dict  # (task, layer) -> r_eff
    per_task_activated: dict  # task -> activated parameter count
    total_activated: int
    total_allocated: int
    avg_final_budget: float
    params_saved_fraction: float
    r_max: int


def budget_report(stack) -> BudgetReport:
    """Tabulate per-task, per-layer effective dimensions and the derived
    parameter counts. An activated dimension costs 2d (one W1 row plus one
    W2 column); the gate vector and threshold add r_max + 1 bookkeeping
    parameters per adapter either way."""
    if stack.active_task is not None:
        raise ProtocolError("budget report requires all tasks frozen")
    r_eff: dict = {}
    per_task_act: dict = {}
    total_alloc = 0
    all_reffs = []
    for layer, adapters in enumerate(stack.points):
        for t, adapter in enumerate(adapters, start=1):
            if not adapter.frozen:
                raise ProtocolError(f"task {t} adapter at layer {layer} is not frozen")
            r = adapter.basis.shape[1]
            r_eff[(t, layer)] = r
            all_reffs.append(r)
            d, r_max = adapter.d, adapter.r_max
            per_task_act[t] = per_task_act.get(t, 0) + r * 2 * d + r_max + 1
            total_alloc += r_max * 2 * d + r_max + 1
    total_act = sum(per_task_act.values())
    saved = 1.0 - total_act / total_alloc if total_alloc else 0.0
    return BudgetReport(
        r_eff=r_eff,
        per_task_activated=per_task_act,
        total_activated=total_act,
        total_allocated=total_alloc,
        avg_final_budget=float(np.mean(all_reffs)) if all_reffs else 0.0,
        params_saved_fraction=saved,
        r_max=stack.points[0][0].r_max if all_reffs else 0,
    )
