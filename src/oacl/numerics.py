"""Dense float64 matrix kernels and a tape-based reverse-mode gradient engine.

Everything is a 2-d row-major float64 array. The tape is rebuilt per forward
pass (define-by-run). Each op hands the tape one edge per input, and the tape
keeps only the edges whose input needs a gradient; backward walks the records
in reverse execution order exactly once and accumulates gradients additively
at fan-out. A layer's weight matmul ``x @ w.T`` is one record (``linear``).
Ops wrap their own 2-d float64 outputs as they are; only values from outside
the tape go through ``as_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DataError, DimensionError, NumericalError


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


def _gate_dg(active: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """gamma is a shift of g on active dims: dgamma/dg = 1 there, 0 elsewhere."""
    return np.where(active, upstream, 0.0)


def _gate_dtau(active: np.ndarray, sign: np.ndarray, upstream: np.ndarray) -> float:
    """dgamma/dtau = -sign(g) over the active dims."""
    return -(upstream * sign)[active].sum()


def _check_threshold(tau: float) -> float:
    """A soft threshold is positive; written so that NaN fails too."""
    if not tau > 0.0:
        raise ContractError(f"threshold must be positive, got {tau}")
    return tau


def soft_threshold(g, tau: float) -> np.ndarray:
    """gamma_i = sign(g_i) * max(|g_i| - tau, 0)."""
    return _gate(np.asarray(g, dtype=np.float64), _check_threshold(tau))[0]


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul of two arrays that are already 2-d float64."""
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return _finite(a @ b, "matmul")


def _softmax_xent(z: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy of logits z (n, c) against class indices, after
    checking the labels: the log-sum-exp of each row (n, 1), and the gradient
    of the summed NLL, softmax(z) - onehot(labels)."""
    n, c = z.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label outside [0, {c})")
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    d = np.exp(z - lse)
    d[np.arange(n), labels] -= 1.0
    return lse, d


class Node:
    """A value in the computation graph. Immutable once created."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = as_matrix(value)

    @property
    def shape(self):
        return self.value.shape


def _node(value: np.ndarray) -> Node:
    """A Node around an op's own 2-d float64 output, without as_matrix."""
    n = Node.__new__(Node)
    n.value = value
    return n


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

    Not shareable across threads. Each op returns a fresh Node and hands
    ``_push`` one edge ``(input, vjp)`` per input, where ``vjp(g)`` maps the
    output's gradient to that input's. An edge is kept only when its input
    needs a gradient: an unfrozen Param, or the output of a recorded op. An
    op is recorded only when one of its edges is kept, so no gradient is
    formed that nothing reads. Every op runs its forward checks either way.
    """

    def __init__(self):
        self._records: list[tuple[Node, list[tuple[Node, Callable]]]] = []
        # ids of recorded outputs; the records keep those nodes alive.
        self._recorded: set[int] = set()
        # Active/inactive pattern of every soft_threshold executed on this
        # tape, in execution order; used by check_gradients to detect kink
        # crossings between finite-difference evaluations.
        self.mask_patterns: list[np.ndarray] = []

    def _push(self, out: Node, edges: tuple[tuple[Node, Callable], ...]) -> Node:
        recorded = self._recorded
        kept = []
        for edge in edges:
            i = edge[0]
            if id(i) in recorded or (isinstance(i, Param) and not i.frozen):
                kept.append(edge)
        if kept:
            self._records.append((out, kept))
            recorded.add(id(out))
        return out

    # -- op vocabulary -------------------------------------------------

    def constant(self, value) -> Node:
        return Node(value)

    def matmul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        out = _node(_matmul(av, bv))
        return self._push(out, ((a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)))

    def linear(self, x: Node, w: Node) -> Node:
        """x @ w.T as one record: the bits of matmul(x, transpose(w))."""
        xv, wv = x.value, w.value
        out = _node(_matmul(xv, wv.T))
        return self._push(out, ((x, lambda g: g @ wv), (w, lambda g: (xv.T @ g).T)))

    def transpose(self, a: Node) -> Node:
        return self._push(_node(a.value.T), ((a, lambda g: g.T),))

    def _elementwise(self, a: Node, b: Node, op, name: str) -> Node:
        if not _broadcastable(a.value, b.value):
            raise DimensionError(f"{name} shape mismatch: {a.shape} vs {b.shape}")
        return _node(_finite(op(a.value, b.value), name))

    def add(self, a: Node, b: Node) -> Node:
        out = self._elementwise(a, b, np.add, "add")
        sa, sb = a.shape, b.shape
        return self._push(out, ((a, lambda g: _unbroadcast(g, sa)),
                                (b, lambda g: _unbroadcast(g, sb))))

    def sub(self, a: Node, b: Node) -> Node:
        out = self._elementwise(a, b, np.subtract, "sub")
        sa, sb = a.shape, b.shape
        return self._push(out, ((a, lambda g: _unbroadcast(g, sa)),
                                (b, lambda g: _unbroadcast(-g, sb))))

    def mul(self, a: Node, b: Node) -> Node:
        out = self._elementwise(a, b, np.multiply, "mul")
        av, bv = a.value, b.value
        return self._push(out, ((a, lambda g: _unbroadcast(g * bv, av.shape)),
                                (b, lambda g: _unbroadcast(g * av, bv.shape))))

    def scale(self, a: Node, c: float) -> Node:
        out = _node(_finite(a.value * c, "scale"))
        return self._push(out, ((a, lambda g: g * c),))

    def tanh(self, a: Node) -> Node:
        v = np.tanh(a.value)
        return self._push(_node(v), ((a, lambda g: g * (1.0 - v * v)),))

    def sum(self, a: Node) -> Node:
        shape = a.shape
        return self._push(Node([[a.value.sum()]]), ((a, lambda g: np.full(shape, g[0, 0])),))

    def sum_sq(self, a: Node) -> Node:
        """Squared Frobenius norm, as a scalar node."""
        av = a.value
        out = Node([[float((av * av).sum())]])
        return self._push(out, ((a, lambda g: 2.0 * g[0, 0] * av),))

    def soft_threshold(self, g: Node, tau: Node) -> Node:
        """Gate gamma = soft(g; tau) for a scalar threshold node (see _gate)."""
        if tau.shape != (1, 1):
            raise DimensionError(f"threshold must be scalar, got shape {tau.shape}")
        gamma, active, sign = _gate(g.value, _check_threshold(float(tau.value[0, 0])))
        self.mask_patterns.append(active)
        return self._push(_node(gamma), (
            (g, lambda up: _gate_dg(active, up)),
            (tau, lambda up: np.array([[_gate_dtau(active, sign, up)]]))))

    def cross_entropy(self, logits: Node, labels: np.ndarray) -> Node:
        """Mean softmax cross-entropy over a batch; labels are class indices."""
        z = logits.value
        n = z.shape[0]
        lse, d = _softmax_xent(z, labels)
        nll = lse[:, 0] - z[np.arange(n), labels]
        return self._push(Node([[nll.mean()]]), ((logits, lambda g: g[0, 0] / n * d),))

    # -- backward ------------------------------------------------------

    def backward(self, loss: Node):
        """Add d(loss)/dp into p.grad for every unfrozen Param p reachable
        from ``loss``; the caller zeroes the grads it wants fresh."""
        if loss.shape != (1, 1):
            raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
        for out, edges in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for inp, vjp in edges:
                gi = vjp(g)
                if isinstance(inp, Param):
                    inp.grad += gi
                    continue
                key = id(inp)
                grads[key] = grads[key] + gi if key in grads else gi


# -- gradient checking ------------------------------------------------

GRADCHECK_COORDS = 8  # coordinates compared per param; a smaller param is checked whole


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
        if n <= GRADCHECK_COORDS:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=GRADCHECK_COORDS, replace=False)
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
