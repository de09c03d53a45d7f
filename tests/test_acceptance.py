"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible even under pytest capture).
The multi-seed experiment runs are shared across tests via lazy module-level
caches, since they dominate the suite's runtime.
"""

import dataclasses
import json
from contextlib import contextmanager

import numpy as np
import pytest

from oacl.adapters import OAAdapter, oa_forward, outer_product_form
from oacl.backbone import (AdapterStack, Backbone, begin_task,
                           build_and_pretrain, end_task, forward)
from oacl.cli import main
from oacl.metrics import (AccuracyMatrix, avg_final_accuracy, budget_report,
                          forgetting_per_task)
from oacl.numerics import Node, Tape, check_gradients, zero_grads
from oacl.orthogonality import stack_overlap_summary
from oacl.tasks import gen_base, gen_task_stream
from oacl.trainer import TrainConfig, run_sequence, total_loss

SEEDS = (0, 1, 2)

# Experiment scale: the default 4-task rotated-cluster stream.
D_IN, D, L, C = 32, 64, 4, 8
PRETRAIN_STEPS = 1200
EPOCHS = 20
LR = 3e-3

RUN_CONFIGS = {
    "oa": dict(variant="oa_adapter", lambda_orth=1.0, lambda_l2=0.1,
               tau_init=1e-4),
    "oa_no_orth": dict(variant="oa_adapter", lambda_orth=0.0, lambda_l2=0.1,
                       tau_init=1e-4),
    "o": dict(variant="o_adapter", lambda_orth=1.0),
    "inc": dict(variant="inc_adapter"),
    "oa_fixed": dict(variant="oa_adapter", threshold_mode="fixed",
                     lambda_orth=1.0, lambda_l2=0.1, tau_init=1e-4),
}

_backbones: dict = {}
_streams: dict = {}
_runs: dict = {}


def backbone_for(seed: int) -> Backbone:
    if seed not in _backbones:
        base = gen_base(seed, C, D_IN, 200)
        _backbones[seed] = build_and_pretrain(seed, D_IN, D, L, C, base,
                                              steps=PRETRAIN_STEPS)
    return _backbones[seed]


def stream_for(seed: int):
    if seed not in _streams:
        _streams[seed] = gen_task_stream(seed, 4, C, D_IN,
                                         n_train_per_class=250)
    return _streams[seed]


def run(kind: str, seed: int):
    if (kind, seed) not in _runs:
        cfg = TrainConfig(lr=LR, epochs=EPOCHS, **RUN_CONFIGS[kind])
        _runs[(kind, seed)] = run_sequence(backbone_for(seed),
                                           stream_for(seed), cfg, seed)
    return _runs[(kind, seed)]


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"[acceptance {num:02d}] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {name}: PASS")


def test_01_gradient_correctness(capsys):
    """Analytic gradients of the full training loss match central finite
    differences on 20 random small configurations."""
    with criterion(capsys, 1, "gradient correctness"):
        d_in, d, layers, classes, r_max = 8, 16, 2, 4, 8
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng([900, trial])
            bb = Backbone(d_in, d, layers, classes, seed=trial)
            bb.freeze()
            stack = AdapterStack(layers)
            cfg = TrainConfig(r_max=r_max, lambda_orth=1.0, lambda_l2=0.1)

            def randomize(adapter):
                # gate magnitudes at least 1e-2 away from tau = 0.3
                lo = rng.uniform(0.01, 0.28, size=(1, r_max))
                hi = rng.uniform(0.32, 1.0, size=(1, r_max))
                pick = rng.random((1, r_max)) < 0.5
                adapter.g.value[...] = np.where(pick, lo, hi) * rng.choice(
                    [-1.0, 1.0], size=(1, r_max))
                adapter.tau.value[...] = 0.3
                adapter.W2.value[...] = 0.1 * rng.standard_normal((d, r_max))

            begin_task(stack, 1, r_max, 1e-4, d=d, rng=rng)
            for a in stack.trainable_adapters():
                randomize(a)
            end_task(stack)
            begin_task(stack, 2, r_max, 1e-4, d=d, rng=rng)
            for a in stack.trainable_adapters():
                randomize(a)

            x = rng.standard_normal((8, d_in))
            y = rng.integers(0, classes, size=8)

            def closure():
                tape = Tape()
                logits = forward(bb, stack, x, tape)
                return tape, total_loss(tape, logits, y, stack, 2, cfg)

            params = [p for a in stack.trainable_adapters()
                      for p in (a.W1, a.W2, a.g, a.tau)]
            res = check_gradients(closure, params, eps=1e-5,
                                  rng=np.random.default_rng([901, trial]))
            assert res.kink_skips == 0
            worst = max(worst, res.max_rel_error)
        assert worst < 1e-4, f"worst relative error {worst:.3e}"


def test_02_factored_form_equivalence(capsys):
    """The tape forward pass and the explicit rank-1 outer-product form agree
    to 1e-10 over 100 random adapter configurations."""
    with criterion(capsys, 2, "factored-form equivalence"):
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng([910, trial])
            d = int(rng.integers(2, 24))
            r = int(rng.integers(1, 12))
            ad = OAAdapter(d, r, float(rng.uniform(0.05, 0.8)), rng)
            ad.g.value[...] = rng.uniform(-1.5, 1.5, size=(1, r))
            ad.W2.value[...] = rng.standard_normal((d, r))
            x = rng.standard_normal((4, d))
            diff = np.abs(oa_forward(Tape(), ad, x).value
                          - outer_product_form(ad, x)).max()
            worst = max(worst, float(diff))
        assert worst < 1e-10, f"max abs diff {worst:.3e}"


def test_03_mask_semantics(capsys):
    """Deactivated dimensions are inert: output invariant to their weights,
    zero gradient to their gate, zero contribution to the threshold."""
    with criterion(capsys, 3, "mask semantics"):
        rng = np.random.default_rng(920)
        ad = OAAdapter(6, 4, 1e-3, rng)
        ad.tau.value[...] = 0.4
        ad.g.value[...] = [[1.0, 0.1, -0.8, -0.2]]  # dims 1, 3 deactivated
        x = rng.standard_normal((3, 6))

        before = oa_forward(Tape(), ad, x).value
        ad.W2.value[:, 1] = 1e6
        ad.W1.value[3, :] = -1e6
        after = oa_forward(Tape(), ad, x).value
        assert np.array_equal(before, after)

        zero_grads(ad.params())
        t = Tape()
        t.backward(t.sum_sq(oa_forward(t, ad, x)))
        assert ad.g.grad[0, 1] == 0.0 and ad.g.grad[0, 3] == 0.0
        assert ad.g.grad[0, 0] != 0.0 and ad.g.grad[0, 2] != 0.0

        # threshold gradient decomposes over active dims only
        upstream = rng.standard_normal((1, 4))
        zero_grads(ad.params())
        t = Tape()
        t.backward(t.sum(t.mul(t.soft_threshold(ad.g, ad.tau), Node(upstream))))
        dtau = ad.tau.grad[0, 0]
        expected = -(upstream[0, 0] * np.sign(ad.g.value[0, 0])
                     + upstream[0, 2] * np.sign(ad.g.value[0, 2]))
        assert dtau == expected


def test_04_reactivation(capsys):
    """Lowering the threshold below a gate magnitude flips the dimension from
    inert (zero gate, zero gradient) to live."""
    with criterion(capsys, 4, "reactivation"):
        ad = OAAdapter(4, 2, 1e-3, np.random.default_rng(930))
        ad.tau.value[...] = 0.6
        ad.g.value[...] = [[0.5, 2.0]]
        x = np.ones((1, 4))

        def g_grad():
            zero_grads(ad.params())
            t = Tape()
            t.backward(t.sum_sq(oa_forward(t, ad, x)))
            return ad.g.grad[0, 0]

        assert ad.gamma()[0] == 0.0
        assert g_grad() == 0.0
        ad.tau.value[0, 0] = 0.45  # the optimizer-step analogue
        assert ad.gamma()[0] != 0.0
        assert g_grad() != 0.0


@pytest.mark.slow
def test_05_orthogonality_efficacy(capsys):
    """With the orthogonality penalty on, cross-task up-projection overlap is
    driven well below the unconstrained ablation's."""
    with criterion(capsys, 5, "orthogonality efficacy"):
        for seed in SEEDS:
            with_pen = stack_overlap_summary(run("oa", seed).stack)
            without = stack_overlap_summary(run("oa_no_orth", seed).stack)
            assert with_pen["mean_overlap"] < 0.10, (
                f"seed {seed}: overlap {with_pen['mean_overlap']:.3f}")
            assert without["mean_overlap"] >= 3.0 * with_pen["mean_overlap"], (
                f"seed {seed}: ablation overlap {without['mean_overlap']:.3f} "
                f"vs {with_pen['mean_overlap']:.3f}")


@pytest.mark.slow
def test_06_forgetting_mitigation(capsys):
    """Variant ordering on 3-seed mean final accuracy, plus task-1 retention."""
    with criterion(capsys, 6, "forgetting mitigation"):
        avg = {k: np.mean([avg_final_accuracy(run(k, s).matrix)
                           for s in SEEDS])
               for k in ("oa", "o", "inc")}
        t1 = {k: np.mean([run(k, s).matrix.a[0, -1] for s in SEEDS])
              for k in ("oa", "inc")}
        assert avg["oa"] >= avg["inc"] + 0.05, f"{avg}"
        assert avg["o"] >= avg["inc"] + 0.03, f"{avg}"
        assert t1["oa"] >= t1["inc"] + 0.10, f"task-1 retention {t1}"


@pytest.mark.slow
def test_07_budget_adaptation(capsys):
    """The learned masks allocate less than the full budget, unevenly across
    layers, and most sparsely for the first (in-distribution) task."""
    with criterion(capsys, 7, "budget adaptation"):
        for seed in SEEDS:
            res = run("oa", seed)
            rep = budget_report(res.stack)
            r_max = rep.r_max
            assert rep.avg_final_budget < r_max, (
                f"seed {seed}: mean r_eff {rep.avg_final_budget}")
            per_task_layer = {}
            for (t, layer), r in rep.r_eff.items():
                per_task_layer.setdefault(t, []).append(r)
            assert any(np.std(v) > 0 for v in per_task_layer.values()), (
                f"seed {seed}: no per-layer variation {per_task_layer}")
            task1 = np.mean(per_task_layer[1])
            later = np.mean([r for t, v in per_task_layer.items()
                             for r in v if t > 1])
            assert task1 <= later, (
                f"seed {seed}: task-1 mean r_eff {task1} > later {later}")


@pytest.mark.slow
def test_08_dynamic_vs_fixed_threshold(capsys):
    """Trainable thresholds do at least as well as frozen ones on average."""
    with criterion(capsys, 8, "dynamic vs fixed threshold"):
        dyn = np.mean([avg_final_accuracy(run("oa", s).matrix) for s in SEEDS])
        fix = np.mean([avg_final_accuracy(run("oa_fixed", s).matrix)
                       for s in SEEDS])
        assert dyn >= fix, f"dynamic {dyn:.3f} < fixed {fix:.3f}"


def test_09_determinism_and_protocol(capsys, tmp_path):
    """Byte-identical summaries on rerun; frozen history never mutates;
    fixed-mode thresholds end bit-equal to their initialization."""
    with criterion(capsys, 9, "determinism and protocol"):
        import yaml
        cfg = {
            "seed": 0,
            "backbone": {"d_in": 8, "d": 10, "layers": 2, "classes": 3,
                         "pretrain_per_class": 120, "pretrain_steps": 300},
            "stream": {"tasks": 2, "n_train_per_class": 30},
            "train": {"r_max": 4, "epochs": 1, "lr": 0.003},
        }
        cfg_path = tmp_path / "exp.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1], "summary.json differs across reruns"

        # frozen task-1 adapters are bitwise untouched by task-2 training
        backbone = build_and_pretrain(
            0, 8, 10, 2, 3, gen_base(0, 3, 8, 120), steps=300)
        stream = gen_task_stream(0, 2, 3, 8, n_train_per_class=30)
        tc = TrainConfig(r_max=4, epochs=1, lr=3e-3)
        res = run_sequence(backbone, stream, tc, 0)
        # replay the sequence, snapshotting after task 1
        from oacl.trainer import train_task, SEED_ADAPTER_INIT
        stack = AdapterStack(2)
        begin_task(stack, 1, 4, tc.tau_init,
                   d=10, rng=np.random.default_rng([0, SEED_ADAPTER_INIT, 1]))
        train_task(backbone, stack, stream.tasks[0], tc, 0)
        snap = [a.state_bytes() for pt in stack.points for a in pt]
        begin_task(stack, 2, 4, tc.tau_init,
                   d=10, rng=np.random.default_rng([0, SEED_ADAPTER_INIT, 2]))
        train_task(backbone, stack, stream.tasks[1], tc, 0)
        after = [a.state_bytes() for pt in stack.points for a in pt[:1]]
        assert snap == after, "frozen adapters changed during later training"
        # and the replay matches the one-shot protocol run exactly
        assert after == [a.state_bytes() for pt in res.stack.points
                         for a in pt[:1]]

        fixed = TrainConfig(r_max=4, epochs=1, lr=3e-3, threshold_mode="fixed")
        res_fixed = run_sequence(backbone, stream, fixed, 0)
        for pt in res_fixed.stack.points:
            for a in pt:
                assert a.tau.value[0, 0] == fixed.tau_init, (
                    "fixed-mode threshold moved")


def test_10_metric_oracles(capsys):
    """Summary metrics and budget accounting match brute-force recomputation
    on random matrices and stacks."""
    with criterion(capsys, 10, "metric oracles"):
        for trial in range(50):
            rng = np.random.default_rng([940, trial])
            T = int(rng.integers(1, 7))
            a = rng.uniform(0, 1, size=(T, T))
            m = AccuracyMatrix(T=T, a=a)

            brute_avg = sum(a[i][T - 1] for i in range(T)) / T
            assert abs(avg_final_accuracy(m) - brute_avg) < 1e-12

            f = forgetting_per_task(m)
            for i in range(T):
                peak = max(a[i][j] for j in range(i, T))
                assert abs(f[i] - (peak - a[i][T - 1])) < 1e-12

            # random frozen stack vs hand-counted budget
            n_points = int(rng.integers(1, 4))
            n_tasks = int(rng.integers(1, 4))
            r_max = int(rng.integers(1, 6))
            d = int(rng.integers(2, 8))
            stack = AdapterStack(n_points)
            for t in range(1, n_tasks + 1):
                begin_task(stack, t, r_max, 1e-3, d=d, rng=rng)
                for ad in stack.trainable_adapters():
                    ad.g.value[...] = rng.uniform(-1, 1, size=(1, r_max))
                    ad.tau.value[...] = rng.uniform(0.1, 0.9)
                end_task(stack)
            rep = budget_report(stack)
            total_act = 0
            reffs = []
            for layer, pt in enumerate(stack.points):
                for t, ad in enumerate(pt, start=1):
                    tau = float(ad.tau.value[0, 0])
                    r_eff = sum(1 for gi in ad.g.value[0] if abs(gi) > tau)
                    assert rep.r_eff[(t, layer)] == r_eff
                    reffs.append(r_eff)
                    total_act += r_eff * 2 * d + r_max + 1
            assert rep.total_activated == total_act
            assert abs(rep.avg_final_budget - np.mean(reffs)) < 1e-12
            assert rep.total_allocated == n_points * n_tasks * (
                r_max * 2 * d + r_max + 1)
            assert abs(rep.params_saved_fraction
                       - (1 - total_act / rep.total_allocated)) < 1e-12
