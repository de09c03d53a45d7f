"""The three benchmark workloads and the checks on their outputs.

Every job goes through the library's public API exactly as a user would:
``cli.load_config`` on a YAML file, ``cli.execute_run`` into a directory,
then ``load_checkpoint`` and ``predict_logits`` on the saved model. Each
operation is counted in ``Ops``; an exception or a wrong output counts as a
failed operation and the run continues.
"""

from __future__ import annotations

import csv
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# Called through the module objects, so that calls made while tracing go
# through the wrappers installed on those modules.
from oacl import backbone, cli, tasks

# --seed n selects the inputs of data seed n % REFERENCE_SEEDS, for which a
# reference output was recorded on the code the benchmark was written for.
REFERENCE_SEEDS = 16
CALL_ROWS = 32
LOGIT_RTOL = 1e-9
LOGIT_ATOL = 1e-12

_TRAIN = {"variant": "oa_adapter", "threshold_mode": "dynamic", "tau_init": 1.0e-4,
          "lambda_orth": 1.0, "lambda_l2": 0.1, "r_max": 16, "optimizer": "adam",
          "lr": 0.003, "batch_size": 32}
_BACKBONE = {"d_in": 32, "d": 64, "layers": 4, "classes": 8,
             "pretrain_per_class": 200, "pretrain_steps": 1200, "pretrain_lr": 0.003,
             "pretrain_batch_size": 32}
_TOY_BACKBONE = {"d_in": 8, "d": 16, "layers": 2, "classes": 4,
                 "pretrain_per_class": 50, "pretrain_steps": 100}
_TOY_STREAM = {"n_train_per_class": 20, "n_val_per_class": 5, "n_test_per_class": 10}
_TOY_TRAIN = {**_TRAIN, "r_max": 4, "batch_size": 8, "epochs": 3}


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is stated in BENCHMARK.json
    config: dict  # experiment config without the seed, as oacl's YAML takes it
    toy: dict  # the same job at a size that runs in about a second
    fixture: bool  # train and save a task stack once, before anything is timed
    serve_passes: int  # passes over every test set per unit, whole and in calls


WORKLOADS = {w.name: w for w in (
    Workload(
        "seq_default",
        {"backbone": _BACKBONE, "stream": {"tasks": 4, "n_train_per_class": 250},
         "train": {**_TRAIN, "epochs": 1}},
        {"backbone": _TOY_BACKBONE, "stream": {"tasks": 2, **_TOY_STREAM},
         "train": _TOY_TRAIN},
        fixture=False, serve_passes=2),
    Workload(
        "train_wide",
        {"backbone": {**_BACKBONE, "d": 256, "pretrain_per_class": 500,
                      "pretrain_steps": 30, "pretrain_batch_size": 512},
         "stream": {"tasks": 3, "n_train_per_class": 2000},
         "train": {**_TRAIN, "batch_size": 512, "epochs": 1}},
        {"backbone": {**_TOY_BACKBONE, "d": 32}, "stream": {"tasks": 2, **_TOY_STREAM},
         "train": {**_TOY_TRAIN, "batch_size": 16}},
        fixture=False, serve_passes=8),
    Workload(
        "infer_stack",
        {"backbone": _BACKBONE, "stream": {"tasks": 10, "n_train_per_class": 100},
         "train": {**_TRAIN, "epochs": 1}},
        {"backbone": _TOY_BACKBONE, "stream": {"tasks": 3, **_TOY_STREAM},
         "train": _TOY_TRAIN},
        fixture=True, serve_passes=2),
)}


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def record(self, ok: bool, why: str = "", n: int = 1):
        self.attempted += n
        if not ok:
            self.failed += n
            self.errors[why] += n

    def guard(self, fn, *args):
        """Run one operation; an exception is recorded by type, not raised."""
        try:
            return fn(*args)
        except Exception as e:  # the run records every failure and continues
            self.record(False, type(e).__name__)
            return None


def samples_per_sequence(cfg) -> int:
    """Optimizer-step samples of one run_sequence: every row once per epoch."""
    st, bb = cfg.stream, cfg.backbone
    return st.tasks * cfg.train.epochs * bb.classes * st.n_train_per_class


class Job:
    """One workload at one data seed, with its reference and scratch space."""

    def __init__(self, workload: Workload, seed: int, toy: bool, work: Path,
                 reference: dict | None):
        self.w = workload
        self.data_seed = seed % REFERENCE_SEEDS
        self.work = work
        self.ops = Ops()
        self.reference = reference  # None while recording the reference
        self.config_path = work / "config.yaml"
        config = {"seed": self.data_seed, "out_dir": str(work / "run"),
                  **(workload.toy if toy else workload.config)}
        self.config_path.write_text(yaml.safe_dump(config, sort_keys=True))
        self.cfg = cli.load_config(self.config_path)
        self.fixture_dir = work / "fixture"
        self.test_sets: list = []  # (x, y) per task, filled by setup()
        self.observed: dict | None = None  # matrix and r_eff of the last job
        self._n = 0

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """What a user pays before the job: config check, data, model load."""
        cfg = cli.load_config(self.config_path)
        bb, st = cfg.backbone, cfg.stream
        stream = tasks.gen_task_stream(
            cfg.seed, st.tasks, bb.classes, bb.d_in, n_train_per_class=st.n_train_per_class,
            shift=st.shift, n_val_per_class=st.n_val_per_class,
            n_test_per_class=st.n_test_per_class)
        self.test_sets = [task.test for task in stream.tasks]
        if self.w.fixture:
            backbone.load_checkpoint(self.fixture_dir / "checkpoint.oacl.npz")
        self.ops.record(True)

    def prepare(self):
        """Train and save the task stack that infer_stack serves."""
        self.ops.guard(self.train, self.fixture_dir)

    # -- jobs ---------------------------------------------------------------

    def train(self, out_dir: Path) -> float:
        """One ``oacl run`` job; returns its wall time and checks its artifacts."""
        started = time.perf_counter()
        cli.execute_run(self.cfg, out_dir)
        wall = time.perf_counter() - started
        observed = {"matrix": _read_matrix(out_dir / "accuracy_matrix.csv"),
                    "r_eff": _read_r_eff(out_dir / "dims.csv")}
        self.observed = observed
        expected = self.expected()
        if expected is None:
            self.ops.record(True)
        elif observed["matrix"] != expected["matrix"]:
            self.ops.record(False, "accuracy_matrix_mismatch")
        else:
            self.ops.record(observed["r_eff"] == expected["r_eff"], "r_eff_mismatch")
        return wall

    def unit(self) -> dict:
        """One measured unit of work: train then serve, or serve the fixture."""
        if self.w.fixture:
            return self.serve(self.fixture_dir)
        self._n += 1
        out_dir = self.work / f"unit{self._n}"
        try:
            run_s = self.ops.guard(self.train, out_dir)
            served = self.serve(out_dir) if run_s is not None else {}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return {**served, "run_s": run_s}

    def serve(self, model_dir: Path) -> dict:
        """Load the saved model and predict every test set, whole and in calls.

        Each call counts as one operation. A call fails when it raises, when
        its logits differ from the whole-set call on the same rows, or when
        the accuracy of its test set differs from the expected final column.
        """
        started = time.perf_counter()
        loaded = self.ops.guard(backbone.load_checkpoint, model_dir / "checkpoint.oacl.npz")
        if loaded is None:
            return {"run_s": time.perf_counter() - started, "full_s": [], "rows": 0,
                    "call_ms": []}
        self.ops.record(True)
        model, stack = loaded
        full_s, full, call_ms, calls = [], [], [], []
        for _ in range(self.w.serve_passes):
            for i, (x, _) in enumerate(self.test_sets):
                t = time.perf_counter()
                full.append((i, self.ops.guard(backbone.predict_logits, model, stack, x)))
                full_s.append(time.perf_counter() - t)
            for i, (x, _) in enumerate(self.test_sets):
                for lo in range(0, len(x), CALL_ROWS):
                    t = time.perf_counter()
                    out = self.ops.guard(backbone.predict_logits, model, stack,
                                         x[lo:lo + CALL_ROWS])
                    call_ms.append(1e3 * (time.perf_counter() - t))
                    calls.append((i, lo, out))
        run_s = time.perf_counter() - started
        self._check_serving(full, calls)
        return {"run_s": run_s, "full_s": full_s, "call_ms": call_ms,
                "rows": self.w.serve_passes * sum(len(y) for _, y in self.test_sets)}

    def _check_serving(self, full, calls):
        final = [row[-1] for row in (self.expected() or self.observed)["matrix"]]
        whole = {}  # test set -> logits of a whole-set call with the right accuracy
        for i, logits in full:
            if logits is None:
                continue  # already counted as a failed call
            ok = _accuracy(logits, self.test_sets[i][1]) == final[i]
            self.ops.record(ok, "full_set_accuracy_mismatch")
            if ok:
                whole.setdefault(i, logits)
        for i, lo, logits in calls:
            if logits is None:
                continue
            ok = i in whole and np.allclose(logits, whole[i][lo:lo + CALL_ROWS],
                                            rtol=LOGIT_RTOL, atol=LOGIT_ATOL)
            self.ops.record(ok, "call_logits_mismatch")

    def expected(self) -> dict | None:
        if self.reference is None:
            return None
        return self.reference[str(self.data_seed)]


def _accuracy(logits, y) -> float:
    return float((logits.argmax(axis=1) == y).mean())


def _read_matrix(path: Path) -> list[list[float]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return [[float(v) for v in row[1:]] for row in rows]


def _read_r_eff(path: Path) -> list[list[int]]:
    r_eff: dict[int, list[int]] = {}
    with open(path, newline="") as f:
        for row in list(csv.reader(f))[1:]:
            r_eff.setdefault(int(row[0]), []).append(int(row[2]))
    return [r_eff[t] for t in sorted(r_eff)]
