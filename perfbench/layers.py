"""Per-layer metrics of the traced run, computed from recorded spans.

Figures are per job: the mean build of the workload's fixture (infer_stack's
trained stack), plus the mean of its set-up repeats, plus the mean of its
measured units. Counts therefore do not depend on how many units fit in the run.
Ratios and per-step figures marked "computed" are derived from the
arguments of the public tape-op calls, not measured.
"""

from __future__ import annotations

import numpy as np

OPS = ("matmul", "transpose", "add", "mul", "scale", "tanh", "sum_sq",
       "soft_threshold", "cross_entropy", "constant")

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    *[(f"numerics.op.{op}.calls", "count", "lower", "train_samples_per_s on seq_default")
      for op in OPS],
    *[(f"numerics.op.{op}.s", "s", "lower", "train_samples_per_s on seq_default")
      for op in OPS],
    ("numerics.backward.calls", "count", "lower", "train_samples_per_s on seq_default"),
    ("numerics.backward.s", "s", "lower", "train_samples_per_s on seq_default"),
    ("numerics.tape_records_per_step", "count", "lower", "train_samples_per_s on seq_default"),
    ("numerics.grads_computed_per_step", "count", "lower", "train_samples_per_s on train_wide"),
    ("numerics.grad_useful_ratio", "ratio", "higher", "train_samples_per_s on train_wide"),
    ("numerics.matmul_flops_per_step", "flop", "lower", "train_samples_per_s on train_wide"),
    ("adapters.oa_delta.calls_frozen", "count", "lower", "infer_rows_per_s on infer_stack"),
    ("adapters.oa_delta.calls_open", "count", "lower", "train_samples_per_s on seq_default"),
    ("adapters.frozen_delta_share", "ratio", "lower", "infer_call_ms_p50 on infer_stack"),
    ("adapters.oa_delta.s", "s", "lower", "infer_rows_per_s on infer_stack"),
    ("backbone.forward.calls", "count", "lower", "infer_rows_per_s on infer_stack"),
    ("backbone.forward.self_s", "s", "lower", "infer_call_ms_p50 on infer_stack"),
    ("backbone.predict_logits.s", "s", "lower", "run_s on seq_default"),
    ("backbone.predict_logits.rows", "count", "higher", "run_s on seq_default"),
    ("backbone.pretrain.s", "s", "lower", "pretrain_s on train_wide"),
    ("backbone.load_checkpoint.s", "s", "lower", "setup_s on infer_stack"),
    ("backbone.save_checkpoint.s", "s", "lower", "run_s on seq_default"),
    ("backbone.end_task.s", "s", "lower", "setup_s on infer_stack"),
    ("trainer.run_sequence.s", "s", "lower", "train_samples_per_s on seq_default"),
    ("trainer.eval_hook.s", "s", "lower", "run_s on seq_default"),
    ("trainer.eval_hook.share", "ratio", "lower", "run_s on seq_default"),
    ("trainer.end_of_task_eval.s", "s", "lower", "run_s on seq_default"),
    ("trainer.steps", "count", "higher", "train_samples_per_s on seq_default"),
    ("trainer.step_ms_p50", "ms", "lower", "train_samples_per_s on seq_default"),
    ("trainer.step_ms_p99", "ms", "lower", "train_samples_per_s on seq_default"),
    ("trainer.total_loss.self_s", "s", "lower", "train_samples_per_s on seq_default"),
    ("trainer.flop_efficiency", "ratio", "higher", "train_samples_per_s on train_wide"),
    ("optim.step.calls", "count", "lower", "train_samples_per_s on seq_default"),
    ("optim.step.s", "s", "lower", "train_samples_per_s on seq_default"),
    ("orthogonality.orth_loss_total.s", "s", "lower", "train_samples_per_s on seq_default"),
    ("orthogonality.pair_terms_per_step", "count", "lower", "train_samples_per_s on seq_default"),
    ("metrics.budget_report.s", "s", "lower", "run_s on seq_default"),
    ("tasks.gen.s", "s", "lower", "setup_s on train_wide"),
    ("cli.execute_run.self_s", "s", "lower", "run_s on seq_default"),
    ("machine.dgemm_peak_gflops", "GFLOP/s", "higher", "none: the machine's ceiling"),
    ("bench.tracing_overhead_s", "s", "lower", "none: traced minus untraced run_s"),
    ("bench.tracing_overhead_share", "ratio", "lower", "none: overhead over untraced run_s"),
]
# Figures that must repeat exactly from one traced run to the next.
REPEATS = {name for name, unit, _, _ in PER_LAYER if unit in ("count", "flop")} | {
    "numerics.grad_useful_ratio", "adapters.frozen_delta_share"}


def segment_stats(spans: dict, names: list[str], a: int, b: int, counts) -> dict:
    """Additive figures of the spans with index in [a, b) and their counts."""
    ids = {n: i for i, n in enumerate(names)}
    nm = spans["name"][a:b]
    dur = spans["dur"][a:b]
    own = spans["self"][a:b]
    par = spans["parent"][a:b]
    par_name = np.where(par >= 0, spans["name"][np.maximum(par, 0)], -1)
    k = len(names)
    calls = np.bincount(nm, minlength=k)
    total = np.bincount(nm, weights=dur, minlength=k)
    self_total = np.bincount(nm, weights=own, minlength=k)
    stats = {f"calls:{n}": int(calls[i]) for n, i in ids.items()}
    stats.update({f"s:{n}": float(total[i]) for n, i in ids.items()})
    stats.update({f"self:{n}": float(self_total[i]) for n, i in ids.items()})
    stats.update({f"count:{key}": int(v) for key, v in counts.items()})
    run_seq = ids.get("trainer.run_sequence", -1)
    stats["s:end_of_task_eval"] = float(dur[(nm == ids.get("backbone.predict_logits", -1))
                                            & (par_name == run_seq)].sum())
    return stats


def step_ms(spans: dict, names: list[str], a: int, b: int) -> list[float]:
    """One optimizer step runs from zero_grads to the end of optim.step, both
    called directly by train_task; the eval hook falls outside."""
    ids = {n: i for i, n in enumerate(names)}
    train = ids.get("trainer.train_task", -1)
    nm = spans["name"][a:b]
    par = spans["parent"][a:b]
    in_train = (par >= 0) & (spans["name"][np.maximum(par, 0)] == train)
    starts = spans["start"][a:b][in_train & (nm == ids.get("numerics.zero_grads", -1))]
    ends = spans["end"][a:b][in_train & (nm == ids.get("optim.step", -1))]
    return list(1e3 * (ends - starts)) if len(starts) == len(ends) else []


def combine(*groups: list[dict]) -> dict:
    """The sum over groups of each group's mean segment."""
    keys = set().union(*(s for group in groups for s in group))
    return {key: sum(sum(s.get(key, 0) for s in group) / len(group)
                     for group in groups if group)
            for key in keys}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(job: dict, steps: list[float], peak_gflops: float,
                 overhead_s: float, untraced_run_s: float) -> dict:
    """Per-layer metric values by name, in the order of ``PER_LAYER``."""
    g = job.get
    n_steps = g("count:train.steps", 0)
    p50, p99 = (np.percentile(steps, [50, 99]) if steps else (0.0, 0.0))
    flops_per_step = _div(g("count:train.flops", 0), n_steps)
    frozen, open_ = g("count:oa_delta.frozen", 0), g("count:oa_delta.open", 0)
    v = {}
    for op in OPS:
        v[f"numerics.op.{op}.calls"] = g(f"calls:numerics.op.{op}", 0)
        v[f"numerics.op.{op}.s"] = g(f"s:numerics.op.{op}", 0.0)
    v.update({
        "numerics.backward.calls": g("calls:numerics.backward", 0),
        "numerics.backward.s": g("s:numerics.backward", 0.0),
        "numerics.tape_records_per_step": _div(g("count:train.records", 0), n_steps),
        "numerics.grads_computed_per_step": _div(g("count:train.grads", 0), n_steps),
        "numerics.grad_useful_ratio": _div(g("count:train.grads_useful", 0),
                                           g("count:train.grads", 0)),
        "numerics.matmul_flops_per_step": flops_per_step,
        "adapters.oa_delta.calls_frozen": frozen,
        "adapters.oa_delta.calls_open": open_,
        "adapters.frozen_delta_share": _div(frozen, frozen + open_),
        "adapters.oa_delta.s": g("s:adapters.oa_delta", 0.0),
        "backbone.forward.calls": g("calls:backbone.forward", 0),
        "backbone.forward.self_s": g("self:backbone.forward", 0.0),
        "backbone.predict_logits.s": g("s:backbone.predict_logits", 0.0),
        "backbone.predict_logits.rows": g("count:predict.rows", 0),
        "backbone.pretrain.s": g("s:backbone.build_and_pretrain", 0.0),
        "backbone.load_checkpoint.s": g("s:backbone.load_checkpoint", 0.0),
        "backbone.save_checkpoint.s": g("s:backbone.save_checkpoint", 0.0),
        "backbone.end_task.s": g("s:backbone.end_task", 0.0),
        "trainer.run_sequence.s": g("s:trainer.run_sequence", 0.0),
        "trainer.eval_hook.s": g("s:trainer.eval_hook", 0.0),
        "trainer.eval_hook.share": _div(g("s:trainer.eval_hook", 0.0),
                                        g("s:trainer.run_sequence", 0.0)),
        "trainer.end_of_task_eval.s": g("s:end_of_task_eval", 0.0),
        "trainer.steps": n_steps,
        "trainer.step_ms_p50": float(p50),
        "trainer.step_ms_p99": float(p99),
        "trainer.total_loss.self_s": g("self:trainer.total_loss", 0.0),
        "trainer.flop_efficiency": _div(_div(flops_per_step, p50 / 1e3), peak_gflops * 1e9),
        "optim.step.calls": g("calls:optim.step", 0),
        "optim.step.s": g("s:optim.step", 0.0),
        "orthogonality.orth_loss_total.s": g("s:orthogonality.orth_loss_total", 0.0),
        "orthogonality.pair_terms_per_step": _div(g("count:orth.pairs", 0),
                                                  g("count:orth.calls", 0)),
        "metrics.budget_report.s": g("s:metrics.budget_report", 0.0),
        "tasks.gen.s": g("s:tasks.gen_base", 0.0) + g("s:tasks.gen_task_stream", 0.0),
        "cli.execute_run.self_s": g("self:cli.execute_run", 0.0),
        "machine.dgemm_peak_gflops": peak_gflops,
        "bench.tracing_overhead_s": overhead_s,
        "bench.tracing_overhead_share": _div(overhead_s, untraced_run_s),
    })
    return v


def repeat_key(stats: dict) -> tuple:
    """The count figures of one segment, which must repeat exactly."""
    return tuple(sorted((k, v) for k, v in stats.items()
                        if k.startswith(("calls:", "count:"))))
