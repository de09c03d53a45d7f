"""The asymmetric cross-task orthogonality loss against each frozen task's
activated basis (``OAAdapter.basis``), plus a normalized overlap diagnostic."""

from __future__ import annotations

import numpy as np

from .numerics import Node, Tape


def orth_loss_total(tape: Tape, stack, t: int) -> Node:
    """Tape-recorded sum of the pair losses ||W2_t^T W2~_s||_F^2 over all
    insertion points and all historical tasks s < t. Gradients flow into the
    current W2 only (the historical bases enter as constants)."""
    total = None
    for adapters in stack.points:
        current = adapters[t - 1]
        w2_t = tape.transpose(current.W2)
        for a in adapters[: t - 1]:
            if a.basis.shape[1] == 0:
                continue
            term = tape.sum_sq(tape.matmul(w2_t, tape.constant(a.basis)))
            total = term if total is None else tape.add(total, term)
    return total if total is not None else tape.constant([[0.0]])


def orth_loss_grad(stack, t: int, w: float) -> float:
    """orth_loss_total without a tape: add the gradient of w * orth_loss_total
    into each open W2's .grad and return orth_loss_total's value. The tape's
    expressions, summed in its record order for the value and in its reverse
    record order for each W2's gradient, so both have the tape's bits. Its
    caller checks the loss this value is added to, so nothing is checked here."""
    terms = [(adapters[t - 1].W2,
              [(a.basis, adapters[t - 1].W2.value.T @ a.basis)
               for a in adapters[: t - 1] if a.basis.shape[1] != 0])
             for adapters in stack.points]
    total = 0.0
    for _, pairs in terms:
        for _, p in pairs:
            total = total + float((p * p).sum())
    for w2, pairs in terms:
        acc = None
        for basis, p in reversed(pairs):
            gi = (2.0 * w * p) @ basis.T
            acc = gi if acc is None else acc + gi
        if acc is not None:
            w2.grad += acc.T
    return total


def overlap_diagnostic(w2_t: np.ndarray, basis: np.ndarray) -> float:
    """||W2_t^T W2~_s||_F / (||W2_t||_F ||W2~_s||_F), in [0, 1]; 0 if either
    factor is identically zero."""
    w2_t = np.asarray(w2_t, dtype=np.float64)
    n1 = np.linalg.norm(w2_t)
    n2 = np.linalg.norm(basis)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return float(np.linalg.norm(w2_t.T @ basis) / (n1 * n2))


def stack_overlap_summary(stack) -> dict:
    """Overlap diagnostics between every (historical basis s, later task t)
    pair at every insertion point, computed on the final frozen stack."""
    pairs = []
    for point, adapters in enumerate(stack.points):
        for t in range(2, len(adapters) + 1):
            w2_t = adapters[t - 1].W2.value
            for s, a in enumerate(adapters[: t - 1], start=1):
                pairs.append({
                    "point": point,
                    "task_s": s,
                    "task_t": t,
                    "overlap": overlap_diagnostic(w2_t, a.basis),
                })
    mean = float(np.mean([p["overlap"] for p in pairs])) if pairs else 0.0
    return {"mean_overlap": mean, "pairs": pairs}
