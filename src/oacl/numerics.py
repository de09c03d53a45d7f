"""Dense float64 matrix kernels and a tape-based reverse-mode gradient engine.

Everything is a 2-d row-major float64 array. The tape is rebuilt per forward
pass (define-by-run); backward walks the records in reverse execution order
exactly once and accumulates gradients additively at fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericalError


def as_matrix(x) -> np.ndarray:
    """Coerce scalars / 1-d / 2-d input to a float64 2-d array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise DimensionError(f"expected at most 2 dimensions, got shape {a.shape}")
    return a


def _finite(a: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericalError(f"non-finite values produced by {op}")
    return a


# -- the soft-threshold gate ------------------------------------------
# gamma = soft(g; tau), shared by the tape op and OAAdapter.gamma(). The two
# kernels do no validation; their callers check tau and shapes once.


def _gate(g: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma, active, sign): gamma_i = sign(g_i) * (|g_i| - tau) where
    |g_i| > tau, else 0.0; |g_i| == tau exactly counts as inactive."""
    active = np.abs(g) > tau
    sign = np.sign(g)
    return np.where(active, sign * (np.abs(g) - tau), 0.0), active, sign


def _gate_backward(active: np.ndarray, sign: np.ndarray, upstream: np.ndarray):
    """(dg, dtau): gamma is a shift of g on active dims, so dgamma/dg = 1
    there and 0 elsewhere; dgamma/dtau = -sign(g) over the same dims."""
    return np.where(active, upstream, 0.0), -(upstream * sign)[active].sum()


def _check_threshold(tau: float) -> float:
    if tau <= 0.0:
        raise ContractError(f"threshold must be positive, got {tau}")
    return tau


def soft_threshold(g, tau: float) -> np.ndarray:
    """gamma_i = sign(g_i) * max(|g_i| - tau, 0)."""
    return _gate(np.asarray(g, dtype=np.float64), _check_threshold(tau))[0]


def soft_threshold_backward(g, tau: float, upstream) -> tuple[np.ndarray, float]:
    """Gradients (dg, dtau) of soft(g; tau) given the upstream gradient."""
    g = np.asarray(g, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if g.shape != upstream.shape:
        raise DimensionError(f"upstream shape {upstream.shape} does not match g {g.shape}")
    _, active, sign = _gate(g, _check_threshold(tau))
    dg, dtau = _gate_backward(active, sign, upstream)
    return dg, float(dtau)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain matrix product with an explicit shape check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return _finite(a @ b, "matmul")


class Node:
    """A value in the computation graph. Immutable once created."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = as_matrix(value)

    @property
    def shape(self):
        return self.value.shape


class Param(Node):
    """A learnable tensor with an accumulated gradient slot and a frozen flag.

    Frozen params receive zero gradient accumulation and are never updated
    by the optimizer.
    """

    __slots__ = ("grad", "frozen")

    def __init__(self, value, frozen: bool = False):
        super().__init__(np.array(as_matrix(value), copy=True))
        self.grad = np.zeros_like(self.value)
        self.frozen = frozen

    def zero_grad(self):
        self.grad[...] = 0.0


def zero_grads(params: Sequence[Param]):
    for p in params:
        p.zero_grad()


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    if g.shape != shape:
        raise DimensionError(f"cannot reduce gradient {g.shape} to {shape}")
    return g


def _broadcastable(a, b) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a.shape, b.shape))


class Tape:
    """Ordered record of executed operations for one forward pass.

    Not shareable across threads. Each op returns a fresh Node; backward
    rules close over the forward values they need.
    """

    def __init__(self):
        self._records: list[tuple[Node, tuple[Node, ...], Callable]] = []
        # Active/inactive pattern of every soft_threshold executed on this
        # tape, in execution order; used by check_gradients to detect kink
        # crossings between finite-difference evaluations.
        self.mask_patterns: list[np.ndarray] = []

    def _push(self, out: Node, inputs: tuple[Node, ...], backward_fn: Callable) -> Node:
        self._records.append((out, inputs, backward_fn))
        return out

    # -- op vocabulary -------------------------------------------------

    def constant(self, value) -> Node:
        return Node(value)

    def matmul(self, a: Node, b: Node) -> Node:
        out = Node(matmul(a.value, b.value))
        av, bv = a.value, b.value

        def back(g):
            return g @ bv.T, av.T @ g

        return self._push(out, (a, b), back)

    def transpose(self, a: Node) -> Node:
        out = Node(a.value.T)

        def back(g):
            return (g.T,)

        return self._push(out, (a,), back)

    def _elementwise(self, a: Node, b: Node, op, name: str) -> Node:
        if not _broadcastable(a.value, b.value):
            raise DimensionError(f"{name} shape mismatch: {a.shape} vs {b.shape}")
        return Node(_finite(op(a.value, b.value), name))

    def add(self, a: Node, b: Node) -> Node:
        out = self._elementwise(a, b, np.add, "add")
        sa, sb = a.shape, b.shape

        def back(g):
            return _unbroadcast(g, sa), _unbroadcast(g, sb)

        return self._push(out, (a, b), back)

    def sub(self, a: Node, b: Node) -> Node:
        out = self._elementwise(a, b, np.subtract, "sub")
        sa, sb = a.shape, b.shape

        def back(g):
            return _unbroadcast(g, sa), _unbroadcast(-g, sb)

        return self._push(out, (a, b), back)

    def mul(self, a: Node, b: Node) -> Node:
        out = self._elementwise(a, b, np.multiply, "mul")
        av, bv = a.value, b.value

        def back(g):
            return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

        return self._push(out, (a, b), back)

    def scale(self, a: Node, c: float) -> Node:
        out = Node(_finite(a.value * c, "scale"))

        def back(g):
            return (g * c,)

        return self._push(out, (a,), back)

    def tanh(self, a: Node) -> Node:
        v = np.tanh(a.value)
        out = Node(v)

        def back(g):
            return (g * (1.0 - v * v),)

        return self._push(out, (a,), back)

    def sum(self, a: Node) -> Node:
        out = Node([[a.value.sum()]])
        shape = a.shape

        def back(g):
            return (np.full(shape, g[0, 0]),)

        return self._push(out, (a,), back)

    def sum_sq(self, a: Node) -> Node:
        """Squared Frobenius norm, as a scalar node."""
        out = Node([[float((a.value * a.value).sum())]])
        av = a.value

        def back(g):
            return (2.0 * g[0, 0] * av,)

        return self._push(out, (a,), back)

    def soft_threshold(self, g: Node, tau: Node) -> Node:
        """Gate gamma = soft(g; tau) for a scalar threshold node (see _gate)."""
        if tau.shape != (1, 1):
            raise DimensionError(f"threshold must be scalar, got shape {tau.shape}")
        gamma, active, sign = _gate(g.value, _check_threshold(float(tau.value[0, 0])))
        out = Node(gamma)
        self.mask_patterns.append(active)

        def back(up):
            dg, dtau = _gate_backward(active, sign, up)
            return dg, np.array([[dtau]])

        return self._push(out, (g, tau), back)

    def cross_entropy(self, logits: Node, labels: np.ndarray) -> Node:
        """Mean softmax cross-entropy over a batch; labels are class indices."""
        from .errors import DataError

        n, c = logits.shape
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
        if labels.min() < 0 or labels.max() >= c:
            raise DataError(f"label outside [0, {c})")
        z = logits.value
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
        nll = lse[:, 0] - z[np.arange(n), labels]
        out = Node([[nll.mean()]])
        softmax = np.exp(z - lse)

        def back(g):
            d = softmax.copy()
            d[np.arange(n), labels] -= 1.0
            return (g[0, 0] / n * d,)

        return self._push(out, (logits,), back)

    # -- backward ------------------------------------------------------

    def backward(self, loss: Node):
        """Populate grads of all unfrozen Params reachable from ``loss``."""
        if loss.shape != (1, 1):
            raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
        nodes: dict[int, Node] = {id(loss): loss}
        for out, inputs, back in reversed(self._records):
            g = grads.pop(id(out), None)
            nodes.pop(id(out), None)
            if g is None:
                continue
            for inp, gi in zip(inputs, back(g)):
                if gi is None:
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
                    nodes[key] = inp
        for key, g in grads.items():
            node = nodes[key]
            if isinstance(node, Param) and not node.frozen:
                node.grad += g


# -- gradient checking ------------------------------------------------


@dataclass
class GradCheckResult:
    max_rel_error: float
    kink_skips: int


def _pattern_key(tape: Tape) -> bytes:
    return b"".join(m.tobytes() for m in tape.mask_patterns)


def check_gradients(
    model_closure: Callable[[], tuple[Tape, Node]],
    params: Sequence[Param],
    eps: float,
    max_coords_per_param: int = 8,
    rng: np.random.Generator | None = None,
) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    ``model_closure`` must deterministically rebuild the forward pass and
    return (tape, scalar loss node). Coordinates whose +/- eps perturbation
    flips any soft-threshold activation pattern sit next to a kink; they are
    skipped and counted instead of compared.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    tape, loss = model_closure()
    base_pattern = _pattern_key(tape)
    zero_grads(params)
    tape.backward(loss)
    analytic = {id(p): p.grad.copy() for p in params}
    rng = rng if rng is not None else np.random.default_rng(0)

    max_err = 0.0
    skips = 0
    for p in params:
        flat = p.value.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            tp, lp = model_closure()
            flat[i] = orig - eps
            tm, lm = model_closure()
            flat[i] = orig
            if _pattern_key(tp) != base_pattern or _pattern_key(tm) != base_pattern:
                skips += 1
                continue
            fd = (lp.value[0, 0] - lm.value[0, 0]) / (2.0 * eps)
            a = analytic[id(p)].reshape(-1)[i]
            max_err = max(max_err, abs(a - fd) / max(1.0, abs(fd)))
    return GradCheckResult(max_rel_error=max_err, kink_skips=skips)
