"""Gated bottleneck adapters: bias-free linear down/up projections whose
effective dimension is governed by a trainable soft-threshold mask."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .numerics import Node, Param, Tape, as_matrix, soft_threshold
from .numerics import soft_threshold_backward  # noqa: F401  (re-exported)


@dataclass
class MaskSnapshot:
    gamma: np.ndarray
    active_indices: np.ndarray
    r_eff: int


W2_INIT_SCALE = 1e-3
TAU_FLOOR = 1e-8


class OAAdapter:
    """One task's adapter for one insertion point.

    Bias-free down/up projections plus a gate vector ``g`` and a shared
    strictly-positive scalar threshold ``tau``. With ``mask_enabled=False``
    the gate path is bypassed (gamma identically 1) and g/tau stay frozen.
    """

    def __init__(self, d: int, r_max: int, tau_init: float, rng: np.random.Generator,
                 mask_enabled: bool = True):
        if tau_init <= 0.0:
            raise ContractError(f"tau_init must be positive, got {tau_init}")
        bound = 1.0 / np.sqrt(d)
        self.d = d
        self.r_max = r_max
        self.W1 = Param(rng.uniform(-bound, bound, size=(r_max, d)))
        self.W2 = Param(rng.uniform(-W2_INIT_SCALE, W2_INIT_SCALE, size=(d, r_max)))
        self.g = Param(np.ones((1, r_max)))
        self.tau = Param([[tau_init]])
        self.mask_enabled = mask_enabled
        if not mask_enabled:
            self.g.frozen = True
            self.tau.frozen = True

    def params(self) -> list[Param]:
        return [self.W1, self.W2, self.g, self.tau]

    @property
    def frozen(self) -> bool:
        return all(p.frozen for p in self.params())

    def freeze(self):
        for p in self.params():
            p.frozen = True

    def gamma(self) -> np.ndarray:
        """Current mask values as a flat (r_max,) vector."""
        if not self.mask_enabled:
            return np.ones(self.r_max)
        return soft_threshold(self.g.value[0], float(self.tau.value[0, 0]))

    def clamp_tau(self):
        if float(self.tau.value[0, 0]) < TAU_FLOOR:
            self.tau.value[0, 0] = TAU_FLOOR

    def state_bytes(self) -> bytes:
        """Raw parameter bytes, for frozen-history immutability checks."""
        return b"".join(p.value.tobytes() for p in self.params())


def oa_delta(tape: Tape, adapter: OAAdapter, x: Node) -> Node:
    """Residual contribution W2 . diag(gamma) . W1 . x for a batch x (n, d)."""
    z = tape.matmul(x, tape.transpose(adapter.W1))
    if adapter.mask_enabled:
        gamma = tape.soft_threshold(adapter.g, adapter.tau)
        z = tape.mul(z, gamma)
    return tape.matmul(z, tape.transpose(adapter.W2))


def oa_forward(tape: Tape, adapter: OAAdapter, x) -> Node:
    """y = x + W2 . diag(soft(g; tau)) . W1 . x, fully tape-recorded."""
    x = x if isinstance(x, Node) else Node(x)
    if x.shape[1] != adapter.d:
        raise DimensionError(f"input width {x.shape[1]} does not match adapter d={adapter.d}")
    return tape.add(x, oa_delta(tape, adapter, x))


def outer_product_form(adapter: OAAdapter, x) -> np.ndarray:
    """Rank-1 sum diagnostic: y = x + sum_i gamma_i (W2[:,i] outer W1[i,:]) x.

    Mathematically identical to oa_forward; kept loop-based on purpose as an
    independent cross-check.
    """
    x = as_matrix(x)
    if x.shape[1] != adapter.d:
        raise DimensionError(f"input width {x.shape[1]} does not match adapter d={adapter.d}")
    gamma = adapter.gamma()
    y = x.copy()
    for i in range(adapter.r_max):
        if gamma[i] == 0.0:
            continue
        rank1 = np.outer(adapter.W2.value[:, i], adapter.W1.value[i, :])
        y += gamma[i] * (x @ rank1.T)
    return y


def snapshot_mask(adapter: OAAdapter) -> MaskSnapshot:
    gamma = adapter.gamma()
    active = np.flatnonzero(gamma != 0.0)
    return MaskSnapshot(gamma=gamma, active_indices=active, r_eff=int(active.size))
