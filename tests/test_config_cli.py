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

    def test_resume_scores_only_estimators_with_pending_cells(
            self, bars_config, tmp_path, monkeypatch):
        full = str(tmp_path / "full")
        assert run_cli("run", "--config", bars_config, "--output", full) == 0
        resumed = str(tmp_path / "resumed")
        assert run_cli("run", "--config", bars_config,
                       "--output", resumed) == 0
        os.remove(os.path.join(resumed, "cells", pipeline.cell_name(
            "grad", 0.5, "roar") + ".csv"))
        scored = []
        compute_estimates = experiment.compute_estimates

        def counting(estimator_id, *args, **kwargs):
            scored.append(estimator_id)
            return compute_estimates(estimator_id, *args, **kwargs)

        monkeypatch.setattr(experiment, "compute_estimates", counting)
        assert run_cli("run", "--config", bars_config,
                       "--output", resumed) == 0
        # grad's train and test splits; random's cells are all done.
        assert scored == ["grad", "grad"]
        assert run_cli("run", "--config", bars_config,
                       "--output", resumed) == 0
        assert scored == ["grad", "grad"]
        names = sorted(os.listdir(os.path.join(full, "cells")))
        assert names == sorted(os.listdir(os.path.join(resumed, "cells")))
        for name in [*(os.path.join("cells", n) for n in names),
                     "results.csv"]:
            with open(os.path.join(full, name), "rb") as f1, \
                    open(os.path.join(resumed, name), "rb") as f2:
                assert f1.read() == f2.read(), name

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


class TestCollectGrid:
    """A cell fragment must hold exactly the config's runs, all of its own
    cell; anything else is refused by name."""

    @staticmethod
    def write_cells(ctx, out):
        cfg = ctx.config
        os.makedirs(os.path.join(out, "cells"))
        paths = []
        for e in cfg.estimators.ids:
            for t in cfg.thresholds:
                for m in cfg.modes:
                    path = os.path.join(out, "cells",
                                        pipeline.cell_name(e, t, m) + ".csv")
                    with open(path, "w") as f:
                        f.writelines(f"{e},{t:.6f},{m},{r},0.5000000000\n"
                                     for r in range(cfg.runs_per_point))
                    paths.append(path)
        return paths

    @pytest.fixture
    def grid_dir(self, tmp_path):
        ctx = experiment.build_context(parse_config(BARS))
        out = str(tmp_path / "out")
        paths = self.write_cells(ctx, out)
        grid = experiment.collect_grid(ctx, out)
        assert len(grid.records) == 2 * 2 * 1 * 2
        return ctx, out, paths[-1]

    def test_run_count_must_match_config(self, grid_dir):
        ctx, out, path = grid_dir
        with open(path) as f:
            first = f.readline()
        with open(path, "w") as f:
            f.write(first)
        with pytest.raises(pipeline.ProvenanceError,
                           match=f"{os.path.basename(path)}.*1 records"):
            experiment.collect_grid(ctx, out)

    def test_rows_must_name_the_file_cell(self, grid_dir):
        ctx, out, path = grid_dir
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace(",0.500000,roar,", ",0.000000,roar,", 1))
        with pytest.raises(pipeline.ProvenanceError,
                           match=f"{os.path.basename(path)}.*0.000000"):
            experiment.collect_grid(ctx, out)


class TestLoadEstimates:
    """`modify` reuses `estimates/` only if every file holds one score row
    per sample of its split, or one shared row; anything else is refused
    by file name, and the CLI exits 3."""

    @pytest.fixture
    def cached(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("estimate", "--config", bars_config,
                       "--output", out) == 0
        ctx = experiment.build_context(parse_config(BARS))
        return ctx, out, os.path.join(out, "estimates")

    def test_matching_files_load(self, cached):
        ctx, _, directory = cached
        estimates = experiment.load_estimates(ctx, directory)
        d = ctx.dataset.n_features
        for train, test in estimates.values():
            assert train.shape == (len(ctx.dataset.train_x), d)
            assert test.shape == (len(ctx.dataset.test_x), d)

    def test_missing_file_is_refused(self, cached, bars_config):
        ctx, out, directory = cached
        os.remove(os.path.join(directory, "random.npz"))
        with pytest.raises(pipeline.ProvenanceError, match="random.npz"):
            experiment.load_estimates(ctx, directory)
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 3

    @pytest.mark.parametrize("split,rows,extra_columns", [
        ("train", -1, 0), ("test", 0, 1)])
    def test_wrong_shape_is_refused(self, cached, bars_config, split, rows,
                                    extra_columns):
        ctx, out, directory = cached
        path = os.path.join(directory, "grad.npz")
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        n, d = arrays[split].shape
        arrays[split] = np.zeros((n + rows, d + extra_columns))
        np.savez(path, **arrays)
        with pytest.raises(pipeline.ProvenanceError,
                           match=f"grad.npz holds {split} scores of shape"):
            experiment.load_estimates(ctx, directory)
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 3

    def test_shared_row_is_accepted(self, cached, bars_config):
        ctx, out, directory = cached
        d = ctx.dataset.n_features
        np.savez(os.path.join(directory, "grad.npz"),
                 train=np.arange(d, dtype=float), test=np.ones(d))
        train, test = experiment.load_estimates(ctx, directory)["grad"]
        assert train.shape == test.shape == (d,)
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 0
