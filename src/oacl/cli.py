"""Experiment CLI: run / compare / report subcommands.

All randomness derives from the config seed through named sub-seeds; a rerun
with the same config and seed writes a byte-identical summary.json. Wall
time goes to a separate timing file so the summary stays deterministic.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .backbone import build_and_pretrain, save_checkpoint
from .errors import ConfigError, DataError, GenerationError, NumericalError, PretrainingError
from .metrics import avg_final_accuracy, budget_report, forgetting_per_task
from .orthogonality import stack_overlap_summary
from .tasks import gen_base, gen_task_stream, reorder
from .trainer import THRESHOLD_MODES, VARIANTS, TrainConfig, run_sequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMPARE_TOKENS = VARIANTS + THRESHOLD_MODES
# Errors from a config, or from the data and backbone it describes; exit 2.
INPUT_ERRORS = (ConfigError, DataError, GenerationError, PretrainingError)
# Accepted YAML value types per declared scalar field type; a YAML boolean
# is none of them, although Python's bool is an int.
FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass
class BackboneConfig:
    d_in: int = 32
    d: int = 64
    layers: int = 4
    classes: int = 8
    pretrain_per_class: int = 200
    pretrain_steps: int = 1200
    pretrain_lr: float = 3e-3
    pretrain_batch_size: int = 32


@dataclass
class StreamConfig:
    tasks: int = 4
    n_train_per_class: int = 250
    n_val_per_class: int = 50
    n_test_per_class: int = 100
    shift: str = "rotation"
    order: list[int] | None = None


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/run"
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    compare_variants: list[str] = field(default_factory=list)
    compare_seeds: list[int] = field(default_factory=list)


def _dataclass_from_dict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for f in dataclasses.fields(cls):
        want = FIELD_TYPES.get(f.type)
        value = data.get(f.name)
        if f.name in data and want and (isinstance(value, bool) or not isinstance(value, want)):
            raise ConfigError(f"{where}.{f.name}: expected {f.type}, got {value!r}")
    return data


def _check_seed(value, where: str) -> int:
    """Seeds are non-negative ints, the values numpy's seeding accepts."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{where}: expected a non-negative int, got {value!r}")
    return value


def _check_unique(values: list, where: str) -> list:
    """A compare axis names each value once; a repeat would rerun it into one cell."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{where}: a value is listed twice in {values}")
    return values


def _check_seeds(values, where: str) -> list[int]:
    return _check_unique([_check_seed(v, where) for v in values], where)


def load_config(path) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if raw is None:
        raw = {}
    top_names = {"seed", "out_dir", "backbone", "stream", "train", "compare"}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - top_names
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")

    backbone = BackboneConfig(**_dataclass_from_dict(
        BackboneConfig, raw.get("backbone", {}), "backbone"))
    stream = StreamConfig(**_dataclass_from_dict(
        StreamConfig, raw.get("stream", {}), "stream"))
    train_kwargs = _dataclass_from_dict(TrainConfig, raw.get("train", {}), "train")
    if "seed" in train_kwargs:
        raise ConfigError("train.seed: the top-level seed is the only seed")
    compare = raw.get("compare", {})
    if not isinstance(compare, dict):
        raise ConfigError("compare: expected a mapping")
    bad_compare = set(compare) - {"variants", "seeds"}
    if bad_compare:
        raise ConfigError(f"compare: unknown keys {sorted(bad_compare)}")

    seed = _check_seed(raw.get("seed", 0), "seed")
    out_dir = raw.get("out_dir", "runs/run")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir: expected a path string, got {out_dir!r}")
    variants = compare.get("variants", [])
    seeds = compare.get("seeds", [])
    if not isinstance(variants, list) or not all(v in COMPARE_TOKENS for v in variants):
        raise ConfigError(f"compare.variants: expected a list drawn from {COMPARE_TOKENS}, "
                          f"got {variants!r}")
    _check_unique(variants, "compare.variants")
    if not isinstance(seeds, list):
        raise ConfigError(f"compare.seeds: expected a list, got {seeds!r}")
    seeds = _check_seeds(seeds, "compare.seeds")
    if backbone.layers < 1 or backbone.d < 1:
        raise ConfigError("backbone.layers and backbone.d must be >= 1, "
                          f"got {backbone.layers} and {backbone.d}")
    if not 0 < backbone.pretrain_lr < np.inf:
        raise ConfigError("backbone.pretrain_lr must be positive and finite, "
                          f"got {backbone.pretrain_lr}")
    return ExperimentConfig(
        seed=seed,
        out_dir=out_dir,
        backbone=backbone,
        stream=stream,
        train=TrainConfig(**{**train_kwargs, "seed": seed}),
        compare_variants=variants,
        compare_seeds=seeds,
    )


def _config_snapshot(cfg: ExperimentConfig) -> dict:
    return {
        "seed": cfg.seed,
        "backbone": dataclasses.asdict(cfg.backbone),
        "stream": dataclasses.asdict(cfg.stream),
        "train": dataclasses.asdict(cfg.train),
    }


def _make_dir(path: Path):
    """Create an output directory; a path that cannot be one is an input error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e


def execute_run(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Generate the data, pretrain, run the task sequence, and persist all
    artifacts. The generators check the data fields of the config, so a bad
    value fails before the output directory or any training exists."""
    started = time.perf_counter()
    bb, st = cfg.backbone, cfg.stream
    base = gen_base(cfg.seed, bb.classes, bb.d_in, bb.pretrain_per_class)
    stream = gen_task_stream(
        cfg.seed, st.tasks, bb.classes, bb.d_in,
        n_train_per_class=st.n_train_per_class, shift=st.shift,
        n_val_per_class=st.n_val_per_class, n_test_per_class=st.n_test_per_class)
    if st.order is not None:
        stream = reorder(stream, st.order)

    _make_dir(out_dir)
    backbone = build_and_pretrain(
        cfg.seed, bb.d_in, bb.d, bb.layers, bb.classes, base,
        steps=bb.pretrain_steps, lr=bb.pretrain_lr,
        batch_size=bb.pretrain_batch_size)
    result = run_sequence(backbone, stream, cfg.train)
    wall = time.perf_counter() - started

    (out_dir / "config_snapshot.yaml").write_text(
        yaml.safe_dump(_config_snapshot(cfg), sort_keys=True))

    T = result.matrix.T
    with open(out_dir / "accuracy_matrix.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["task"] + [f"after_task_{j}" for j in range(1, T + 1)])
        for i in range(T):
            w.writerow([i + 1] + [repr(float(v)) for v in result.matrix.a[i]])

    with open(out_dir / "curves.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "task_id", "accuracy"])
        for step, task_id, acc in result.curves:
            w.writerow([step, task_id, repr(float(acc))])

    budget = budget_report(result.stack)
    with open(out_dir / "dims.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["task", "layer", "r_eff"])
        w.writerows([t, layer, r] for (t, layer), r in sorted(budget.r_eff.items()))
    overlap = stack_overlap_summary(result.stack)
    summary = {
        "avg_final_accuracy": avg_final_accuracy(result.matrix),
        "forgetting_per_task": forgetting_per_task(result.matrix).tolist(),
        "task_order": stream.order_id,
        "pretrain_accuracy": backbone.pretrain_accuracy,
        "budget": {
            "avg_final_budget": budget.avg_final_budget,
            "params_saved_fraction": budget.params_saved_fraction,
            "total_activated": budget.total_activated,
            "total_allocated": budget.total_allocated,
            "per_task_activated": {str(k): v for k, v in budget.per_task_activated.items()},
            "r_eff": {f"task{t}_layer{l}": v for (t, l), v in budget.r_eff.items()},
        },
        "overlap": overlap,
        "config": _config_snapshot(cfg),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    (out_dir / "timing.txt").write_text(f"wall_time_sec={wall:.3f}\n")
    save_checkpoint(out_dir / "checkpoint.oacl.npz", backbone, result.stack)
    return summary


def _variant_config(cfg: ExperimentConfig, token: str, seed: int) -> ExperimentConfig:
    train = dataclasses.asdict(cfg.train)
    if token in THRESHOLD_MODES:
        train["variant"] = "oa_adapter"
        train["threshold_mode"] = token
    else:
        train["variant"] = token
    train["seed"] = seed
    return dataclasses.replace(cfg, seed=seed, train=TrainConfig(**train))


def cmd_run(config_path, out_override=None, seed_override=None) -> int:
    cfg = load_config(config_path)
    if seed_override is not None:
        _check_seed(seed_override, "--seed")
        cfg = dataclasses.replace(
            cfg, seed=seed_override,
            train=dataclasses.replace(cfg.train, seed=seed_override))
    out_dir = Path(out_override) if out_override else Path(cfg.out_dir)
    execute_run(cfg, out_dir)
    return EXIT_OK


def cmd_compare(config_path, variants=None, seeds=None, out_override=None) -> int:
    cfg = load_config(config_path)
    variants = _check_unique(list(variants), "--variants") if variants else cfg.compare_variants
    seeds = (_check_seeds(seeds, "--seeds") if seeds
             else (cfg.compare_seeds or [cfg.seed]))
    if len(variants) < 2:
        raise ConfigError("compare needs at least two variants")
    out_dir = Path(out_override) if out_override else Path(cfg.out_dir)

    rows = []
    failures = 0
    for token in variants:
        accs, budgets, saved = [], [], []
        for seed in seeds:
            cell_dir = out_dir / token / f"seed{seed}"
            try:
                summary = execute_run(_variant_config(cfg, token, seed), cell_dir)
            except NumericalError as e:
                print(f"[compare] {token} seed {seed} failed: {e}", file=sys.stderr)
                failures += 1
                continue
            accs.append(summary["avg_final_accuracy"])
            budgets.append(summary["budget"]["avg_final_budget"])
            saved.append(summary["budget"]["params_saved_fraction"])
        rows.append([
            token, len(accs),
            repr(float(np.mean(accs))) if accs else "",
            repr(float(np.std(accs))) if accs else "",
            repr(float(np.mean(budgets))) if budgets else "",
            repr(float(np.mean(saved))) if saved else "",
        ])

    _make_dir(out_dir)
    with open(out_dir / "compare.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["variant", "n_seeds", "mean_avg_final_accuracy",
                    "std_avg_final_accuracy", "mean_avg_final_budget",
                    "mean_params_saved_fraction"])
        w.writerows(rows)
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def _load_summary(run_dir: Path) -> dict:
    """The figures ``report`` prints, read from the run's summary.json."""
    path = run_dir / "summary.json"
    try:
        s = json.loads(path.read_text())
        return {
            "avg_final_accuracy": float(s["avg_final_accuracy"]),
            "forgetting_per_task": [float(v) for v in s["forgetting_per_task"]],
            "avg_final_budget": float(s["budget"]["avg_final_budget"]),
            "params_saved_fraction": float(s["budget"]["params_saved_fraction"]),
            "mean_overlap": float(s["overlap"]["mean_overlap"]),
            "task_order": s["task_order"],
        }
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"cannot read run summary {path}: {e!r}") from e


def _format_summary(s: dict) -> str:
    lines = [
        f"avg_final_accuracy: {s['avg_final_accuracy']:.4f}",
        "forgetting_per_task: "
        + " ".join(f"{v:.4f}" for v in s["forgetting_per_task"]),
        f"avg_final_budget: {s['avg_final_budget']:.3f}",
        f"params_saved: {100 * s['params_saved_fraction']:.1f}%",
        f"mean_overlap: {s['mean_overlap']:.4f}",
        f"task_order: {s['task_order']}",
    ]
    return "\n".join(lines)


def cmd_report(run_dir, other_dir=None) -> int:
    s = _load_summary(Path(run_dir))
    o = _load_summary(Path(other_dir)) if other_dir is not None else None
    print(f"== {run_dir} ==")
    print(_format_summary(s))
    if o is not None:
        print(f"\n== {other_dir} ==")
        print(_format_summary(o))
        print("\n== deltas (first - second) ==")
        print(f"avg_final_accuracy: {s['avg_final_accuracy'] - o['avg_final_accuracy']:+.4f}")
        print(f"avg_final_budget: {s['avg_final_budget'] - o['avg_final_budget']:+.3f}")
        print(f"mean_overlap: {s['mean_overlap'] - o['mean_overlap']:+.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oacl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="run a variant/seed grid")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--variants", nargs="*", choices=COMPARE_TOKENS, default=None)
    p_cmp.add_argument("--seeds", nargs="*", type=int, default=None)

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("run_dir")
    p_rep.add_argument("other_dir", nargs="?", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, args.seed)
        if args.command == "compare":
            return cmd_compare(args.config, args.variants, args.seeds, args.out)
        if args.command == "report":
            return cmd_report(args.run_dir, args.other_dir)
    except INPUT_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
