import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from oacl.cli import (EXIT_CONFIG, EXIT_OK, load_config, main)
from oacl.errors import ConfigError

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_malformed_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("train: [unclosed")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_seed_propagates_to_training(self, tmp_path):
        p = write_config(tmp_path, {"seed": 42})
        assert load_config(p).train.seed == 42


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
    ], ids=["seed_not_int", "lr_not_number", "zero_layers", "classes_above_d_in",
            "order_repeats", "order_not_list", "zero_tasks", "empty_test_split",
            "seed_float", "compare_seed_float", "seed_negative", "zero_width",
            "compare_null", "compare_variants_not_list"])
    def test_bad_value_rejected_before_compute(self, tmp_path, extra):
        p = write_config(tmp_path, extra)
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("backbone", [
        {"pretrain_steps": 3},
        {"pretrain_batch_size": 0},
    ], ids=["too_few_steps", "zero_batch"])
    def test_bad_pretraining_rejected(self, tmp_path, backbone):
        # checked by pretraining itself, after the output directory exists
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
