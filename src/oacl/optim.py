"""Textbook first-order optimizers over Param lists.

An optimizer packs the params that are unfrozen when it is built into one
flat Param and rebinds each packed ``value`` and ``grad`` to a view of it, so
a step is one finite check and one elementwise update over the flat arrays.
The update writes into preallocated scratch buffers and keeps the per-array
expression order, so every bit matches an update run param by param. A param
frozen at build time is not packed and never moves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NumericalError
from .numerics import Param, zero_grads


def _guard_finite(params: Sequence[Param]):
    for i, p in enumerate(params):
        if not np.isfinite(p.grad).all():
            raise NumericalError(
                f"non-finite gradient on param {i} (shape {p.value.shape}); "
                f"|value| max {np.abs(p.value).max():.3e}")


class _FlatOptimizer:
    def __init__(self, params: Sequence[Param], lr: float):
        self.params = [p for p in params if not p.frozen]
        self.lr = lr
        self.flat = Param(np.zeros((1, sum(p.value.size for p in self.params))))
        lo = 0
        for p in self.params:
            hi = lo + p.value.size
            value = self.flat.value[0, lo:hi].reshape(p.value.shape)
            grad = self.flat.grad[0, lo:hi].reshape(p.value.shape)
            value[...] = p.value
            grad[...] = p.grad
            p.value, p.grad = value, grad
            lo = hi
        self._s1 = np.empty_like(self.flat.value)
        self._s2 = np.empty_like(self.flat.value)

    def zero_grad(self):
        # Through zero_grads, the one zeroing call: perfbench times a training
        # step from it.
        zero_grads((self.flat,))

    def step(self):
        if not np.isfinite(self.flat.grad).all():
            _guard_finite(self.params)
        self._update()


class SGDMomentum(_FlatOptimizer):
    def __init__(self, params: Sequence[Param], lr: float, momentum: float = 0.9):
        super().__init__(params, lr)
        self.momentum = momentum
        self.velocity = np.zeros_like(self.flat.value)

    def _update(self):
        v, s1 = self.velocity, self._s1
        v *= self.momentum
        v += self.flat.grad
        np.multiply(v, self.lr, out=s1)  # lr * v
        self.flat.value -= s1


class Adam(_FlatOptimizer):
    def __init__(self, params: Sequence[Param], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(self.flat.value)
        self.v = np.zeros_like(self.flat.value)

    def _update(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v, grad, s1, s2 = self.m, self.v, self.flat.grad, self._s1, self._s2
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)  # (1 - beta1) * grad
        m += s1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)  # (1 - beta2) * grad * grad
        s1 *= grad
        v += s1
        # lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.divide(m, b1t, out=s1)
        s1 *= self.lr
        np.divide(v, b2t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        self.flat.value -= s1


def make_optimizer(name: str, params: Sequence[Param], lr: float):
    if name == "adam":
        return Adam(params, lr)
    if name == "sgd_momentum":
        return SGDMomentum(params, lr)
    raise ValueError(f"unknown optimizer {name!r}")
