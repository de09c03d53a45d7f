"""Activated historical subspaces and the asymmetric cross-task
orthogonality loss, plus a normalized overlap diagnostic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import OAAdapter
from .errors import ProtocolError
from .numerics import Node, Tape


@dataclass
class ActivatedBasis:
    """Columns gamma_j * W2[:, j] of a frozen adapter, active j only."""

    task_id: int
    W2_tilde: np.ndarray  # (d, r_eff)


def activated_basis(adapter: OAAdapter, task_id: int) -> ActivatedBasis:
    if adapter.frozen_gamma is None:
        raise ProtocolError("activated basis may only be extracted from a frozen adapter")
    gamma = adapter.frozen_gamma.value[0]
    active = np.flatnonzero(gamma != 0.0)
    w2t = adapter.W2.value[:, active] * gamma[active]
    return ActivatedBasis(task_id=task_id, W2_tilde=w2t)


def orth_loss_total(tape: Tape, stack, t: int) -> Node:
    """Tape-recorded sum of the pair losses ||W2_t^T W2~_s||_F^2 over all
    insertion points and all historical tasks s < t. Gradients flow into the
    current W2 only (the historical bases enter as constants)."""
    total = None
    for point, adapters in enumerate(stack.points):
        current = adapters[t - 1]
        w2_t = tape.transpose(current.W2)
        for basis in stack.bases[point][: t - 1]:
            if basis.W2_tilde.shape[1] == 0:
                continue
            term = tape.sum_sq(tape.matmul(w2_t, tape.constant(basis.W2_tilde)))
            total = term if total is None else tape.add(total, term)
    return total if total is not None else tape.constant([[0.0]])


def overlap_diagnostic(w2_t: np.ndarray, basis: ActivatedBasis) -> float:
    """||W2_t^T W2~_s||_F / (||W2_t||_F ||W2~_s||_F), in [0, 1]; 0 if either
    factor is identically zero."""
    w2_t = np.asarray(w2_t, dtype=np.float64)
    n1 = np.linalg.norm(w2_t)
    n2 = np.linalg.norm(basis.W2_tilde)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return float(np.linalg.norm(w2_t.T @ basis.W2_tilde) / (n1 * n2))


def stack_overlap_summary(stack) -> dict:
    """Overlap diagnostics between every (historical basis s, later task t)
    pair at every insertion point, computed on the final frozen stack."""
    pairs = []
    for point, adapters in enumerate(stack.points):
        for t in range(2, len(adapters) + 1):
            w2_t = adapters[t - 1].W2.value
            for basis in stack.bases[point][: t - 1]:
                pairs.append({
                    "point": point,
                    "task_s": basis.task_id,
                    "task_t": t,
                    "overlap": overlap_diagnostic(w2_t, basis),
                })
    mean = float(np.mean([p["overlap"] for p in pairs])) if pairs else 0.0
    return {"mean_overlap": mean, "pairs": pairs}
