import dataclasses
import json
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oacl import cli
from oacl.cli import (COMPARE_TOKENS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, CompareConfig,
                      ExperimentConfig, load_config, main)
from oacl.errors import ConfigError, DataError, GenerationError

# A deliberately tiny experiment so CLI round trips stay fast.
SMALL = {
    "seed": 0,
    "backbone": {"d_in": 8, "d": 10, "layers": 2, "classes": 3,
                 "pretrain_per_class": 120, "pretrain_steps": 300},
    "stream": {"tasks": 2, "n_train_per_class": 30},
    "train": {"r_max": 4, "epochs": 1, "lr": 0.003},
}


def write_config(tmp_path, extra=None, name="exp.yaml"):
    cfg = json.loads(json.dumps(SMALL))
    if extra:
        for k, v in extra.items():
            cfg.setdefault(k, {})
            if isinstance(v, dict):
                cfg[k].update(v)
            else:
                cfg[k] = v
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def assert_same_artifacts(a: Path, b: Path):
    """Two run directories hold the same files, byte for byte, but timing.txt."""
    names = sorted(f.name for f in a.iterdir())
    assert names == sorted(f.name for f in b.iterdir())
    for name in names:
        if name != "timing.txt":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestLoadConfig:
    def test_defaults_from_empty_file(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        cfg = load_config(p)
        assert cfg.seed == 0
        assert cfg.backbone.d == 64
        assert cfg.train.variant == "oa_adapter"

    def test_unknown_top_level_key(self, tmp_path):
        p = write_config(tmp_path, {"banana": 1})
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_nested_key(self, tmp_path):
        p = write_config(tmp_path, {"train": {"momentum": 0.9}})
        with pytest.raises(ConfigError):
            load_config(p)

    def test_invalid_hyperparameter_value(self, tmp_path):
        p = write_config(tmp_path, {"train": {"tau_init": 0.5}})
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_keys_of_mixed_types(self, tmp_path):
        p = tmp_path / "mixed.yaml"
        p.write_text("banana: 1\n7: 2\n")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(p)

    def test_sections_built_in_code_check_themselves(self, tmp_path):
        """The rules hold however a config is built, not only through load_config."""
        cfg = load_config(write_config(tmp_path))
        for error, build in (
                (ConfigError, lambda: dataclasses.replace(cfg, seed=-1)),
                (ConfigError, lambda: dataclasses.replace(cfg.backbone, layers=0)),
                (ConfigError, lambda: dataclasses.replace(cfg.backbone, pretrain_lr=float("nan"))),
                (ConfigError, lambda: dataclasses.replace(cfg.backbone, pretrain_batch_size=0)),
                (GenerationError, lambda: dataclasses.replace(cfg.backbone, classes=40)),
                (GenerationError, lambda: dataclasses.replace(cfg.backbone, classes=1)),
                (DataError, lambda: dataclasses.replace(cfg.backbone, pretrain_per_class=0)),
                (ConfigError, lambda: dataclasses.replace(cfg.stream, tasks=0)),
                (ConfigError, lambda: dataclasses.replace(cfg.stream, shift="nope")),
                (ConfigError, lambda: dataclasses.replace(cfg.stream, order=[1, 1])),
                (ConfigError, lambda: dataclasses.replace(cfg.stream, order=[1, 2, 3])),
                (DataError, lambda: dataclasses.replace(cfg.stream, n_train_per_class=0)),
                (DataError, lambda: dataclasses.replace(cfg.stream, n_val_per_class=-1)),
                (DataError, lambda: dataclasses.replace(cfg.stream, n_test_per_class=0)),
                (ConfigError, lambda: CompareConfig(seeds=[0, 0])),
                (ConfigError, lambda: CompareConfig(seeds=[-1])),
                (ConfigError, lambda: CompareConfig(variants=["lora", "oa_adapter"])),
                (ConfigError, lambda: CompareConfig(variants=["fixed", "fixed"]))):
            with pytest.raises(error):
                build()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_malformed_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("train: [unclosed")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_seed_propagates_to_training(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        seeds = []

        def record(backbone, stream, config, seed):
            seeds.append(seed)
            raise Reached

        monkeypatch.setattr(cli, "run_sequence", record)
        cfg = load_config(write_config(tmp_path, {"seed": 42}))
        with pytest.raises(Reached):
            cli.execute_run(cfg, tmp_path / "o")
        assert seeds == [42]

    @pytest.mark.parametrize("token", [None, *COMPARE_TOKENS])
    def test_snapshot_loads_as_the_config_it_came_from(self, tmp_path, token):
        cfg = load_config(Path(__file__).parents[1] / "configs" / "default.yaml")
        if token is not None:
            cfg = cli._variant_config(cfg, token, seed=1)
        p = tmp_path / "config_snapshot.yaml"
        p.write_text(yaml.safe_dump(cli._config_snapshot(cfg), sort_keys=True))
        loaded = load_config(p)
        assert ((loaded.seed, loaded.backbone, loaded.stream, loaded.train)
                == (cfg.seed, cfg.backbone, cfg.stream, cfg.train))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One shared small run for all artifact assertions."""
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg = write_config(tmp)
    out = tmp / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return out


class TestRunCommand:
    def test_artifacts_present(self, run_dir):
        for name in ("config_snapshot.yaml", "accuracy_matrix.csv",
                     "curves.csv", "dims.csv", "summary.json", "timing.txt",
                     "checkpoint.oacl.npz"):
            assert (run_dir / name).is_file(), name

    def test_summary_contents(self, run_dir):
        s = json.loads((run_dir / "summary.json").read_text())
        assert 0.0 <= s["avg_final_accuracy"] <= 1.0
        assert len(s["forgetting_per_task"]) == 2
        assert s["task_order"] == "1-2"
        assert s["config"]["train"]["variant"] == "oa_adapter"
        assert "wall" not in json.dumps(s)

    def test_accuracy_matrix_csv_parses(self, run_dir):
        rows = (run_dir / "accuracy_matrix.csv").read_text().strip().split("\n")
        assert rows[0] == "task,after_task_1,after_task_2"
        assert len(rows) == 3
        vals = [float(v) for v in rows[1].split(",")[1:]]
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_checkpoint_loads(self, run_dir):
        from oacl.backbone import load_checkpoint
        backbone, stack = load_checkpoint(run_dir / "checkpoint.oacl.npz")
        assert stack.task_count == 2
        assert backbone.d == 10

    def test_rerun_summary_is_byte_identical(self, run_dir, tmp_path):
        cfg = write_config(tmp_path)
        out2 = tmp_path / "out2"
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert ((run_dir / "summary.json").read_bytes()
                == (out2 / "summary.json").read_bytes())

    def test_seed_override_changes_results(self, run_dir, tmp_path):
        cfg = write_config(tmp_path)
        out2 = tmp_path / "out_seed"
        assert main(["run", "--config", str(cfg), "--out", str(out2),
                     "--seed", "1"]) == EXIT_OK
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s2["config"]["seed"] == 1
        s1 = json.loads((run_dir / "summary.json").read_text())
        assert s1 != s2

    def test_snapshot_reruns_the_run(self, run_dir, tmp_path):
        out = tmp_path / "rerun"
        assert main(["run", "--config", str(run_dir / "config_snapshot.yaml"),
                     "--out", str(out)]) == EXIT_OK
        assert_same_artifacts(run_dir, out)


class TestCompareCommand:
    def test_compare_grid_and_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(cfg), "--out", str(out),
                     "--variants", "oa_adapter", "inc_adapter",
                     "--seeds", "0"])
        assert code == EXIT_OK
        rows = (out / "compare.csv").read_text().strip().split("\n")
        assert rows[0].startswith("variant,n_seeds,mean_avg_final_accuracy")
        assert len(rows) == 3
        assert (out / "oa_adapter" / "seed0" / "summary.json").is_file()
        assert (out / "inc_adapter" / "seed0" / "summary.json").is_file()

    def test_cell_does_not_depend_on_the_config_variant(self, tmp_path):
        """An oa_adapter cell trains with the config's lambda_orth, whatever
        variant the config itself names."""
        cells = []
        for variant in ("inc_adapter", "oa_adapter"):
            cfg = write_config(tmp_path, {"train": {"variant": variant, "lambda_orth": 1.0}},
                               name=f"{variant}.yaml")
            out = tmp_path / variant
            assert main(["compare", "--config", str(cfg), "--out", str(out),
                         "--variants", "oa_adapter", "fixed", "--seeds", "0"]) == EXIT_OK
            cells.append(out / "oa_adapter" / "seed0")
        assert_same_artifacts(*cells)

    def test_each_seed_pretrains_once(self, tmp_path, monkeypatch):
        """A 2 x 2 grid pretrains once per seed, and each cell holds the files
        that its own oacl run writes."""
        real = cli.build_and_pretrain
        seeds = []

        def counted(seed, *args, **kwargs):
            seeds.append(seed)
            return real(seed, *args, **kwargs)

        monkeypatch.setattr(cli, "build_and_pretrain", counted)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(write_config(tmp_path)), "--out", str(out),
                     "--variants", "inc_adapter", "fixed", "--seeds", "0", "1"]) == EXIT_OK
        assert sorted(seeds) == [0, 1]
        cells = {"inc_adapter": {"variant": "inc_adapter"},
                 "fixed": {"variant": "oa_adapter", "threshold_mode": "fixed"}}
        for token, train in cells.items():
            path = write_config(tmp_path, {"train": train}, name=f"{token}.yaml")
            for seed in (0, 1):
                alone = tmp_path / token / f"seed{seed}"
                assert main(["run", "--config", str(path), "--out", str(alone),
                             "--seed", str(seed)]) == EXIT_OK
                assert_same_artifacts(out / token / f"seed{seed}", alone)

    def test_single_variant_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path / "x"),
                     "--variants", "oa_adapter", "--seeds", "0"])
        assert code == EXIT_CONFIG

    def test_unknown_variant_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path / "x"),
                     "--variants", "oa_adapter", "lora", "--seeds", "0"])
        assert code == EXIT_CONFIG


class TestReportCommand:
    def test_report_single(self, run_dir, capsys):
        assert main(["report", str(run_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "avg_final_accuracy" in out
        assert "mean_overlap" in out

    def test_report_two_dirs_prints_deltas(self, run_dir, capsys):
        assert main(["report", str(run_dir), str(run_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "deltas" in out
        assert "+0.0000" in out

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost")]) == EXIT_CONFIG

    def test_report_summary_not_json(self, run_dir, tmp_path):
        (tmp_path / "summary.json").write_text('{"avg_final_accuracy": 0.5,')
        assert main(["report", str(tmp_path)]) == EXIT_CONFIG
        assert main(["report", str(run_dir), str(tmp_path)]) == EXIT_CONFIG

    def test_report_summary_missing_key(self, run_dir, tmp_path):
        s = json.loads((run_dir / "summary.json").read_text())
        del s["budget"]["avg_final_budget"]
        (tmp_path / "summary.json").write_text(json.dumps(s))
        assert main(["report", str(tmp_path)]) == EXIT_CONFIG


class TestExitCodes:
    def test_bad_cli_arguments(self):
        assert main(["run"]) == EXIT_CONFIG
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_config_error_exit(self, tmp_path):
        p = write_config(tmp_path, {"train": {"variant": "lora"}})
        assert main(["run", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("extra", [
        {"seed": "abc"},
        {"train": {"lr": "fast"}},
        {"backbone": {"layers": 0}},
        {"backbone": {"classes": 40, "d_in": 32}},
        {"stream": {"order": [1, 1]}},
        {"stream": {"order": 5}},
        {"stream": {"tasks": 0}},
        {"stream": {"n_test_per_class": 0}},
        {"seed": 3.7},
        {"compare": {"seeds": [1.9]}},
        {"seed": -1},
        {"backbone": {"d": 0}},
        {"compare": None},
        {"compare": {"variants": 5}},
        {"backbone": {"d": True}},
        {"backbone": {"pretrain_per_class": True}},
        {"stream": {"n_train_per_class": True}},
        {"stream": {"n_val_per_class": True}},
        {"stream": {"n_test_per_class": True}},
        {"train": {"r_max": True}},
        {"seed": True},
        {"backbone": {"layers": True}},
        {"stream": {"tasks": True}},
        {"train": {"lambda_orth": False}},
        {"train": {"lr": True}},
        {"train": {"epochs": True}},
        {"compare": {"seeds": [True]}},
        {"out_dir": 5},
        {"compare": {"seeds": [0, 0]}},
        {"backbone": {"pretrain_lr": float("nan")}},
        {"backbone": {"pretrain_lr": float("inf")}},
        {"backbone": {"pretrain_lr": 0.0}},
        {"backbone": {"pretrain_lr": -0.003}},
        {"compare": {"variants": ["oa_adapter", "oa_adapter"]}},
        {"train": {"seed": 7}},
        {"backbone": {"pretrain_batch_size": 0}},
        {"backbone": {"pretrain_steps": -1}},
        {"backbone": {"pretrain_per_class": 0}},
        {"stream": {"shift": "nope"}},
    ], ids=["seed_not_int", "lr_not_number", "zero_layers", "classes_above_d_in",
            "order_repeats", "order_not_list", "zero_tasks", "empty_test_split",
            "seed_float", "compare_seed_float", "seed_negative", "zero_width",
            "compare_null", "compare_variants_not_list",
            "width_bool", "pretrain_per_class_bool", "n_train_bool", "n_val_bool",
            "n_test_bool", "r_max_bool", "seed_bool", "layers_bool", "tasks_bool",
            "lambda_orth_bool", "lr_bool", "epochs_bool", "compare_seed_bool",
            "out_dir_not_str", "compare_seed_repeated", "pretrain_lr_nan",
            "pretrain_lr_inf", "pretrain_lr_zero", "pretrain_lr_negative",
            "compare_variant_repeated", "train_seed", "zero_batch",
            "pretrain_steps_negative", "pretrain_per_class_zero", "unknown_shift"])
    def test_bad_value_rejected_before_compute(self, tmp_path, extra):
        p = write_config(tmp_path, extra)
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("backbone", [
        {"pretrain_steps": 3},
    ], ids=["too_few_steps"])
    def test_bad_pretraining_rejected(self, tmp_path, backbone):
        # the accuracy floor, checked after pretraining, once the output directory exists
        p = write_config(tmp_path, {"backbone": backbone})
        assert main(["run", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_negative_seed_argument_rejected(self, tmp_path):
        p = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--seed", "-1"]) == EXIT_CONFIG
        assert main(["compare", "--config", str(p), "--out", str(out),
                     "--variants", "oa_adapter", "fixed", "--seeds", "0", "-1"]) == EXIT_CONFIG
        assert not out.exists()

    def test_repeated_seed_argument_rejected(self, tmp_path):
        p = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["compare", "--config", str(p), "--out", str(out),
                     "--variants", "oa_adapter", "fixed", "--seeds", "0", "0"]) == EXIT_CONFIG
        assert not out.exists()

    def test_repeated_variant_argument_rejected(self, tmp_path):
        p = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["compare", "--config", str(p), "--out", str(out),
                     "--variants", "o_adapter", "o_adapter", "--seeds", "0"]) == EXIT_CONFIG
        assert not out.exists()

    def test_output_path_is_a_file(self, tmp_path):
        p = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["run", "--config", str(p), "--out", str(blocker)]) == EXIT_CONFIG
        assert main(["compare", "--config", str(p), "--out", str(blocker),
                     "--variants", "oa_adapter", "fixed", "--seeds", "0"]) == EXIT_CONFIG
        assert blocker.is_file()

    def test_compare_checks_its_output_before_pretraining(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "build_and_pretrain", lambda *a, **k: calls.append(a))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["compare", "--config", str(write_config(tmp_path)),
                     "--out", str(blocker / "sub"),
                     "--variants", "oa_adapter", "fixed", "--seeds", "0"]) == EXIT_CONFIG
        assert calls == []

    def test_run_checks_its_output_before_generating_data(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "gen_task_stream", lambda *a, **k: calls.append(a))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["run", "--config", str(write_config(tmp_path)),
                     "--out", str(blocker / "sub")]) == EXIT_CONFIG
        assert calls == []


# A run small enough for hundreds of examples: no pretraining, one task.
TINY = {
    "seed": 0,
    "backbone": {"d_in": 4, "d": 4, "layers": 1, "classes": 2,
                 "pretrain_per_class": 4, "pretrain_steps": 0},
    "stream": {"tasks": 1, "n_train_per_class": 4, "n_val_per_class": 1,
               "n_test_per_class": 2},
    "train": {"r_max": 2, "epochs": 1, "batch_size": 8},
    "compare": {"variants": ["oa_adapter", "fixed"], "seeds": [0]},
}


def leaf_fields(cls, path=()):
    """The key path of every scalar or list field under config class ``cls``."""
    kinds = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(kinds[f.name]):
            yield from leaf_fields(kinds[f.name], (*path, f.name))
        else:
            yield (*path, f.name)


FIELDS = list(leaf_fields(ExperimentConfig))
YAML_VALUES = st.one_of(
    st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=4), st.none(),
    st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 3), max_size=2))


class TestMalformedConfigs:
    @settings(max_examples=250, deadline=None)
    @given(field=st.sampled_from(FIELDS), value=YAML_VALUES)
    def test_any_single_field_value_exits_cleanly(self, field, value):
        """Exit 0, 2 or 3 for any value of any one field; never a traceback."""
        cfg = json.loads(json.dumps(TINY))
        section = cfg
        for key in field[:-1]:
            section = section.setdefault(key, {})
        section[field[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.yaml"
            path.write_text(yaml.safe_dump(cfg))
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "o")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
