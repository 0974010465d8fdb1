import os

import numpy as np
import pytest

from roarbench import cli, experiment, pipeline
from roarbench.config import ConfigError, parse_config, serialize_config

MINIMAL = """
[estimators]
ids = grad
"""

BARS = """
[experiment]
seed = 11
runs_per_point = 2
thresholds = 0,0.5
modes = roar

[dataset]
kind = bars
n_train = 120
n_test = 60
size = 6

[estimators]
ids = grad, random

[train]
model = mlp
hidden = 8
steps = 120
batch_size = 16
learning_rate = 0.2
"""


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL)
        assert cfg.runs_per_point == 5
        assert cfg.estimators.ensemble_samples == 15
        assert cfg.estimators.ig_steps == 25
        assert cfg.thresholds == [0.0, 0.1, 0.3, 0.5, 0.7, 0.9]

    def test_empty_estimator_list_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_config("[estimators]\nids =\n")

    def test_unknown_key_names_key_and_line(self):
        text = "[experiment]\nseed = 1\nbogus = 2\n"
        with pytest.raises(ConfigError, match="line 3.*bogus"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\n")

    def test_malformed_value_names_key(self):
        with pytest.raises(ConfigError, match="runs_per_point"):
            parse_config("[experiment]\nruns_per_point = soon\n" + MINIMAL)

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ConfigError, match="sorted"):
            parse_config("[experiment]\nthresholds = 0.5,0.1\n" + MINIMAL)

    @pytest.mark.parametrize("thresholds", ["0.5,0.5", "0.5,0.5000001"])
    def test_thresholds_equal_at_six_decimals_rejected(self, thresholds):
        with pytest.raises(ConfigError, match="6 decimals"):
            parse_config(f"[experiment]\nthresholds = {thresholds}\n"
                         + MINIMAL)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="unknown estimator"):
            parse_config("[estimators]\nids = shapley\n")

    def test_sobel_requires_images(self):
        with pytest.raises(ConfigError, match="sobel"):
            parse_config("[estimators]\nids = sobel\n")

    def test_round_trip(self):
        cfg = parse_config(BARS)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_kind_specific_keys_enforced(self):
        text = "[dataset]\nkind = toy\nsize = 12\n" + MINIMAL
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(text)


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def bars_config(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(BARS)
    return str(path)


class TestCli:
    def test_validate_config_ok(self, bars_config, capsys):
        assert run_cli("validate-config", "--config", bars_config) == 0
        assert "runs_per_point = 2" in capsys.readouterr().out

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nbogus = 1\n")
        assert run_cli("run", "--config", str(bad)) == 1

    def test_missing_config_is_validation_error(self):
        assert run_cli("run", "--config", "/no/such/file.ini") == 1

    def test_thresholds_equal_at_six_decimals_exit_code(self, tmp_path):
        config = tmp_path / "config.ini"
        config.write_text(BARS.replace("thresholds = 0,0.5",
                                       "thresholds = 0.5,0.5000001"))
        assert run_cli("run", "--config", str(config)) == 1

    def test_close_thresholds_keep_distinct_cells(self, tmp_path):
        # 0.5 and 0.50001 agree to 4 decimals; each must get its own cell.
        config = tmp_path / "config.ini"
        config.write_text(BARS.replace("thresholds = 0,0.5",
                                       "thresholds = 0.5,0.50001"))
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", str(config), "--output", out) == 0
        with open(os.path.join(out, "results.csv")) as f:
            rows = [line.split(",")[:4] for line in f.read().splitlines()[1:]]
        assert sorted(rows) == sorted(
            [e, t, "roar", str(r)] for e in ("grad", "random")
            for t in ("0.500000", "0.500010") for r in (0, 1))
        assert run_cli("modify", "--config", str(config),
                       "--output", out) == 0
        assert len(os.listdir(os.path.join(out, "modified"))) == 2 * 2

    def test_run_and_report(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        assert os.path.exists(os.path.join(out, "results.csv"))
        with open(os.path.join(out, "aggregated.csv")) as f:
            lines = f.read().splitlines()
        # header + |estimators| x |thresholds| x |modes|
        assert len(lines) == 1 + 2 * 2 * 1
        assert lines[0] == "estimator,threshold,mode,mean_accuracy,std_accuracy"

    def test_run_is_deterministic(self, bars_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli("run", "--config", bars_config, "--output", out1) == 0
        assert run_cli("run", "--config", bars_config, "--output", out2) == 0
        for name in ("results.csv", "aggregated.csv"):
            with open(os.path.join(out1, name), "rb") as f1, \
                    open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_resume_skips_completed_cells(self, bars_config, tmp_path,
                                          capsys):
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        capsys.readouterr()
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        err = capsys.readouterr().err
        assert "status=skipped" in err
        assert "status=done" not in err

    def test_resume_after_interrupt_matches_uninterrupted(self, bars_config,
                                                          tmp_path):
        full = str(tmp_path / "full")
        assert run_cli("run", "--config", bars_config, "--output", full) == 0
        interrupted = str(tmp_path / "interrupted")
        assert run_cli("run", "--config", bars_config,
                       "--output", interrupted) == 0
        # Simulate an interrupt: drop half the cell fragments and all reports.
        cells = sorted(os.listdir(os.path.join(interrupted, "cells")))
        for name in cells[: len(cells) // 2]:
            os.remove(os.path.join(interrupted, "cells", name))
        os.remove(os.path.join(interrupted, "aggregated.csv"))
        assert run_cli("run", "--config", bars_config,
                       "--output", interrupted) == 0
        for name in ("results.csv", "aggregated.csv"):
            with open(os.path.join(full, name), "rb") as f1, \
                    open(os.path.join(interrupted, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_seed_override_changes_results(self, bars_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli("run", "--config", bars_config, "--output", out1)
        run_cli("run", "--config", bars_config, "--output", out2,
                "--seed", "99")
        with open(os.path.join(out1, "results.csv")) as f1, \
                open(os.path.join(out2, "results.csv")) as f2:
            assert f1.read() != f2.read()

    def test_workers_match_serial_output(self, bars_config, tmp_path):
        serial, parallel = str(tmp_path / "s"), str(tmp_path / "p")
        run_cli("run", "--config", bars_config, "--output", serial)
        run_cli("run", "--config", bars_config, "--output", parallel,
                "--workers", "4")
        with open(os.path.join(serial, "results.csv"), "rb") as f1, \
                open(os.path.join(parallel, "results.csv"), "rb") as f2:
            assert f1.read() == f2.read()

    def test_deletion_metric_command(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("deletion-metric", "--config", bars_config,
                       "--output", out) == 0
        with open(os.path.join(out, "deletion.csv")) as f:
            lines = f.read().splitlines()
        assert len(lines) == 1 + 2 * 2  # estimators x thresholds, run 0 only

    def test_modify_persists_datasets(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 0
        cells = sorted(os.listdir(os.path.join(out, "modified")))
        assert len(cells) == 2 * 2 * 1
        manifest = os.path.join(out, "modified", cells[0], "manifest.txt")
        assert os.path.exists(manifest)

    def test_modify_matches_saved_make_modified_dataset(self, bars_config,
                                                        tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 0
        ctx = experiment.build_context(parse_config(BARS))
        model, _ = experiment.train_baseline(ctx)
        estimates = experiment.compute_all_estimates(ctx, model)
        cfg = ctx.config
        for estimator_id in cfg.estimators.ids:
            for threshold in cfg.thresholds:
                for mode in cfg.modes:
                    name = pipeline.cell_name(estimator_id, threshold, mode)
                    expected = str(tmp_path / "expected" / name)
                    pipeline.save_modified_dataset(
                        pipeline.make_modified_dataset(
                            ctx.dataset, *estimates[estimator_id],
                            estimator_id, threshold, mode,
                            source_id=ctx.source_id,
                            granularity=ctx.granularity,
                            image_shape=ctx.image_shape), expected)
                    got = os.path.join(out, "modified", name)
                    assert sorted(os.listdir(got)) == \
                        sorted(os.listdir(expected))
                    for part in os.listdir(expected):
                        with open(os.path.join(got, part), "rb") as f1, \
                                open(os.path.join(expected, part), "rb") as f2:
                            assert f1.read() == f2.read(), (name, part)

    def test_estimate_writes_score_files(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("estimate", "--config", bars_config,
                       "--output", out) == 0
        files = sorted(os.listdir(os.path.join(out, "estimates")))
        assert files == ["grad.npz", "random.npz"]

    def test_toy_validate_passes_and_writes_csv(self, tmp_path, capsys):
        config = tmp_path / "toy.ini"
        config.write_text(
            "[experiment]\nseed = 9\nruns_per_point = 5\n"
            "[dataset]\nkind = toy\n"
            "[estimators]\nids = grad\n"
            "[train]\nmodel = least_squares\n")
        out = str(tmp_path / "out")
        assert run_cli("toy-validate", "--config", str(config),
                       "--output", out) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured and "FAIL" not in captured
        with open(os.path.join(out, "toy_validation.csv")) as f:
            assert f.readline().strip() == "metric,ranking,threshold,accuracy"
