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
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .backbone import Backbone, build_and_pretrain, check_pretraining, save_checkpoint
from .errors import ConfigError, DataError, GenerationError, NumericalError, PretrainingError
from .metrics import avg_final_accuracy, budget_report, forgetting_per_task
from .orthogonality import stack_overlap_summary
from .tasks import (check_classes, check_permutation, check_split_sizes, check_stream,
                    gen_base, gen_task_stream, reorder)
from .trainer import THRESHOLD_MODES, VARIANTS, TrainConfig, run_sequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMPARE_TOKENS = VARIANTS + THRESHOLD_MODES
# Errors from a config, or from the data and backbone it describes; exit 2.
INPUT_ERRORS = (ConfigError, DataError, GenerationError, PretrainingError)


def _check_seed(value, where: str):
    """Seeds are non-negative ints, the values numpy's seeding accepts."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{where}: expected a non-negative int, got {value!r}")


# Each section checks its own values when it is built, from YAML or in code.
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

    def __post_init__(self):
        if self.layers < 1 or self.d < 1:
            raise ConfigError("backbone.layers and backbone.d must be >= 1, "
                              f"got {self.layers} and {self.d}")
        if not 0 < self.pretrain_lr < np.inf:
            raise ConfigError("backbone.pretrain_lr must be positive and finite, "
                              f"got {self.pretrain_lr}")
        check_pretraining(self.pretrain_steps, self.pretrain_batch_size)
        check_classes(self.classes, self.d_in)
        check_split_sizes(self.pretrain_per_class)


@dataclass
class StreamConfig:
    tasks: int = 4
    n_train_per_class: int = 250
    n_val_per_class: int = 50
    n_test_per_class: int = 100
    shift: str = "rotation"
    order: list[int] | None = None

    def __post_init__(self):
        check_stream(self.tasks, self.shift)
        check_split_sizes(self.n_train_per_class, self.n_val_per_class, self.n_test_per_class)
        if self.order is not None:
            check_permutation(self.order, self.tasks)


@dataclass
class CompareConfig:
    """A compare grid's axes. ``oacl compare`` takes each axis from the command
    line, else from here; with no seeds in either it runs the config's seed."""
    variants: list[str] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not all(v in COMPARE_TOKENS for v in self.variants):
            raise ConfigError(f"compare.variants: expected tokens from {COMPARE_TOKENS}, "
                              f"got {self.variants!r}")
        for seed in self.seeds:
            _check_seed(seed, "compare.seeds")
        # a value listed twice would rerun into one cell
        for name, values in (("variants", self.variants), ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                raise ConfigError(f"compare.{name}: a value is listed twice in {values}")


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/run"
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    compare: CompareConfig = field(default_factory=CompareConfig)

    def __post_init__(self):
        _check_seed(self.seed, "seed")


def _from_yaml(kind, value, where: str):
    """``value``, read from YAML, as declared type ``kind``. A float field takes
    a YAML int too; a YAML boolean is no number, although Python's bool is an int."""
    args = typing.get_args(kind)
    if type(None) in args:
        (kind,) = (a for a in args if a is not type(None))
        return None if value is None else _from_yaml(kind, value, where)
    if dataclasses.is_dataclass(kind):
        return _from_dict(kind, value, where)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return [_from_yaml(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def _from_dict(cls, data, where: str):
    """Build dataclass ``cls`` from a YAML mapping; absent keys take the
    class defaults, and the class checks the values it is given."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    kinds = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    return cls(**{name: _from_yaml(kinds[name], value, f"{where}.{name}")
                  for name, value in data.items()})


def load_config(path) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return _from_dict(ExperimentConfig, {} if raw is None else raw, "config")


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


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _pretrain(cfg: ExperimentConfig) -> Backbone:
    """The frozen backbone a run of ``cfg`` starts from. It depends only on the
    seed and the backbone section."""
    bb = cfg.backbone
    base = gen_base(cfg.seed, bb.classes, bb.d_in, bb.pretrain_per_class)
    return build_and_pretrain(
        cfg.seed, bb.d_in, bb.d, bb.layers, bb.classes, base,
        steps=bb.pretrain_steps, lr=bb.pretrain_lr,
        batch_size=bb.pretrain_batch_size)


def execute_run(cfg: ExperimentConfig, out_dir: Path, backbone: Backbone | None = None) -> dict:
    """Generate the data, pretrain unless given the backbone ``_pretrain(cfg)``
    returns, run the task sequence, and persist all artifacts. The config
    checked its values when it was built, so no bad value reaches here."""
    started = time.perf_counter()
    bb, st = cfg.backbone, cfg.stream
    stream = gen_task_stream(
        cfg.seed, st.tasks, bb.classes, bb.d_in,
        n_train_per_class=st.n_train_per_class, shift=st.shift,
        n_val_per_class=st.n_val_per_class, n_test_per_class=st.n_test_per_class)
    if st.order is not None:
        stream = reorder(stream, st.order)

    _make_dir(out_dir)
    if backbone is None:
        backbone = _pretrain(cfg)
    result = run_sequence(backbone, stream, cfg.train, cfg.seed)
    wall = time.perf_counter() - started

    (out_dir / "config_snapshot.yaml").write_text(
        yaml.safe_dump(_config_snapshot(cfg), sort_keys=True))

    _write_csv(out_dir / "accuracy_matrix.csv",
               ["task"] + [f"after_task_{j}" for j in range(1, result.matrix.T + 1)],
               ([i] + [repr(float(v)) for v in row]
                for i, row in enumerate(result.matrix.a, start=1)))
    _write_csv(out_dir / "curves.csv", ["step", "task_id", "accuracy"],
               ([step, task_id, repr(float(acc))] for step, task_id, acc in result.curves))
    budget = budget_report(result.stack)
    _write_csv(out_dir / "dims.csv", ["task", "layer", "r_eff"],
               ([t, layer, r] for (t, layer), r in sorted(budget.r_eff.items())))
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
    if token in THRESHOLD_MODES:
        train = dataclasses.replace(cfg.train, variant="oa_adapter", threshold_mode=token)
    else:
        train = dataclasses.replace(cfg.train, variant=token)
    return dataclasses.replace(cfg, seed=seed, train=train)


def cmd_run(config_path, out_override=None, seed_override=None) -> int:
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)
    out_dir = Path(out_override) if out_override else Path(cfg.out_dir)
    execute_run(cfg, out_dir)
    return EXIT_OK


def cmd_compare(config_path, variants=None, seeds=None, out_override=None) -> int:
    cfg = load_config(config_path)
    grid = CompareConfig(variants or cfg.compare.variants,
                         seeds or cfg.compare.seeds or [cfg.seed])
    if len(grid.variants) < 2:
        raise ConfigError("compare needs at least two variants")
    out_dir = Path(out_override) if out_override else Path(cfg.out_dir)
    _make_dir(out_dir)  # before any pretraining

    rows = []
    failures = 0
    backbones = {}  # one pretrained backbone per seed and backbone section
    for token in grid.variants:
        accs, budgets, saved = [], [], []
        for seed in grid.seeds:
            cell = _variant_config(cfg, token, seed)
            cell_dir = out_dir / token / f"seed{seed}"
            key = (seed, dataclasses.astuple(cell.backbone))
            try:
                if key not in backbones:
                    backbones[key] = _pretrain(cell)
                summary = execute_run(cell, cell_dir, backbones[key])
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

    _write_csv(out_dir / "compare.csv",
               ["variant", "n_seeds", "mean_avg_final_accuracy", "std_avg_final_accuracy",
                "mean_avg_final_budget", "mean_params_saved_fraction"], rows)
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
