"""Span recorder and call wrappers for the traced benchmark run.

The library is not edited: ``Tracer`` replaces oacl's public functions and
tape-op methods with wrappers for the duration of a ``with`` block. A wrapper
records one span (name, start, end, parent) per call and, for a few calls,
counts derived from the call's arguments. Because ``trainer`` and ``cli``
bind functions such as ``forward`` and ``run_sequence`` by name, every module
attribute that refers to a wrapped function is rebound, not only the
defining one.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from array import array
from collections import Counter
from types import FunctionType

import numpy as np

MODULES = ("numerics", "adapters", "backbone", "orthogonality", "trainer",
           "optim", "metrics", "tasks", "cli")
TAPE_OPS = ("constant", "matmul", "transpose", "add", "sub", "mul", "scale",
            "tanh", "sum", "sum_sq", "soft_threshold", "cross_entropy")
# Called once per Node or per tape matmul; the op spans already cover them.
SKIP = {"numerics.as_matrix", "numerics.matmul"}
# The phase timer used with tracing off: one span per stage of a job.
PHASES = {"cli.execute_run", "backbone.build_and_pretrain", "trainer.run_sequence"}


class SpanRecorder:
    """Spans kept in memory as flat arrays; written out once at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def __len__(self):
        return len(self.name)

    def arrays(self) -> dict:
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        return {"name": name, "start": start, "end": end, "parent": parent,
                "dur": dur, "self": dur - children}

    def save(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"],
                 start=a["start"], end=a["end"], parent=a["parent"])


def _trainable(node, param_cls) -> bool:
    return isinstance(node, param_cls) and not node.frozen


class Tracer:
    """Patch oacl for the duration of a ``with`` block.

    ``full=False`` wraps only the job stages in ``PHASES`` (the untraced
    run's phase timer); ``full=True`` wraps every public function of every
    module in ``MODULES``, the tape ops, ``Tape.backward`` and the
    optimizers' ``step``, and counts work derived from call arguments.
    """

    def __init__(self, rec: SpanRecorder, full: bool):
        self.rec = rec
        self.full = full
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._logs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._train_id = rec.name_id("trainer.train_task")

    # -- patching -------------------------------------------------------

    def __enter__(self):
        import oacl
        from oacl import numerics, optim

        self._param = numerics.Param
        self._node = numerics.Node
        mods = {m: importlib.import_module(f"oacl.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and name not in SKIP
                        and (self.full or name in PHASES)):
                    wrappers[obj] = self._wrap(obj, name)
        for mod in (*mods.values(), oacl):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        if self.full:
            for op in TAPE_OPS:
                self._set(numerics.Tape, op, self._wrap(
                    getattr(numerics.Tape, op), f"numerics.op.{op}",
                    post=None if op == "constant" else self._log_op(op)))
            self._set(numerics.Tape, "backward", self._wrap(
                numerics.Tape.backward, "numerics.backward", post=self._on_backward))
            for cls in (optim.Adam, optim.SGDMomentum):
                self._set(cls, "step", self._wrap(cls.step, "optim.step"))
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        return False

    def _set(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name, post=None):
        rec = self.rec
        nid = rec.name_id(name)
        if post is None and name in self._POSTS:
            post = getattr(self, self._POSTS[name])
        pre = self._wrap_eval_hook if name == "trainer.train_task" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            i = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if post is not None:
                post(args, out)
            return out

        return traced

    # -- counts derived from call arguments -----------------------------

    def _wrap_eval_hook(self, args, kwargs):
        """run_sequence passes its eval closure to train_task as ``eval_hook=``;
        time each call of it as a span."""
        hook = kwargs.get("eval_hook")
        if hook is None:
            return args, kwargs
        return args, {**kwargs, "eval_hook": self._wrap(hook, "trainer.eval_hook")}

    def _on_oa_delta(self, args, out):
        self.counts["oa_delta.frozen" if args[1].frozen else "oa_delta.open"] += 1

    def _on_predict(self, args, out):
        self.counts["predict.rows"] += int(np.shape(args[2])[0])

    def _on_orth(self, args, out):
        _, stack, t = args[:3]
        self.counts["orth.calls"] += 1
        self.counts["orth.pairs"] += sum(
            1 for bases in stack.bases for b in bases[:t - 1] if b.W2_tilde.shape[1])

    _POSTS = {"adapters.oa_delta": "_on_oa_delta",
              "backbone.predict_logits": "_on_predict",
              "orthogonality.orth_loss_total": "_on_orth"}

    def _log_op(self, op):
        node_cls = self._node
        logs = self._logs

        def post(args, out):
            tape = args[0]
            ins = tuple(a for a in args[1:] if isinstance(a, node_cls))
            log = logs.get(tape)
            if log is None:
                log = logs[tape] = []
            log.append((op, out, ins))

        return post

    def _on_backward(self, args, out):
        """Replay the backward walk over the logged ops of this tape.

        A gradient is useful when its node depends on a trainable Param,
        since only then does it reach one. Matmul FLOPs are 2nkm forward and
        4nkm backward (both operand gradients are formed).
        """
        tape, loss = args[:2]
        log = self._logs.pop(tape, [])
        phase = "train" if self._train_id in (self.rec.name[i] for i in self.rec.stack[1:]) \
            else "other"
        need: set[int] = set()
        param = self._param
        for op, node, ins in log:
            if any(id(i) in need or _trainable(i, param) for i in ins):
                need.add(id(node))
        reach = {id(loss)}
        c = self.counts
        for op, node, ins in reversed(log):
            if op == "matmul":
                n, k = ins[0].shape
                nkm = n * k * ins[1].shape[1]
                c[f"{phase}.flops"] += 2 * nkm
            if id(node) not in reach:
                continue
            for i in ins:
                c[f"{phase}.grads"] += 1
                if id(i) in need or _trainable(i, param):
                    c[f"{phase}.grads_useful"] += 1
                reach.add(id(i))
            if op == "matmul":
                c[f"{phase}.flops"] += 4 * nkm
        c[f"{phase}.steps"] += 1
        c[f"{phase}.records"] += len(log)
