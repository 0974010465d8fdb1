import importlib.util
import os
import re
import sys
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roarbench import (cli, datasets, estimators, experiment, nn,
                       pipeline)
from roarbench.config import (_DATASET_KEYS, ConfigError, DatasetSpec,
                              EstimatorSpec, ExperimentConfig,
                              _float_text, parse_config, serialize_config)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


BARS_ESTIMATE = f"""
[experiment]
seed = 1
runs_per_point = 1
thresholds = 0,0.1,0.3,0.5,0.7,0.9
modes = roar,kar

[dataset]
kind = bars
n_train = 96
n_test = 32
size = 12

[estimators]
ids = {', '.join(estimators.all_estimator_ids())}

[train]
model = mlp
hidden = 32
steps = 200
batch_size = 32
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

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ConfigError, match="modes must be unique"):
            parse_config("[experiment]\nmodes = roar,kar,roar\n" + MINIMAL)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="unknown estimator"):
            parse_config("[estimators]\nids = shapley\n")

    def test_sobel_requires_images(self):
        with pytest.raises(ConfigError, match="sobel"):
            parse_config("[estimators]\nids = sobel\n")

    def test_round_trip(self):
        cfg = parse_config(BARS)
        assert parse_config(serialize_config(cfg)) == cfg

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
           st.floats(0.0, exclude_min=True, allow_infinity=False),
           st.floats(0.0, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_keeps_every_float(self, thresholds, learning_rate,
                                          ridge):
        cfg = parse_config(BARS)
        cfg.thresholds = sorted({f"{t:.6f}": t for t in thresholds}.values())
        cfg.train.learning_rate = learning_rate
        cfg.train.ridge = ridge
        assert parse_config(serialize_config(cfg)) == cfg

    def test_short_floats_keep_their_text(self):
        # Floats that `:g` already writes exactly keep their old canonical
        # text, so existing config.ini records still match.
        text = serialize_config(parse_config(BARS))
        assert "thresholds = 0,0.5\n" in text
        assert "learning_rate = 0.2\n" in text
        assert "ridge = 1e-08\n" in text
        assert "learning_rate = 0.1234567\n" in serialize_config(
            parse_config(BARS.replace("0.2", "0.1234567")))

    def test_readme_example_parses(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme) as f:
            [block] = re.findall(r"```ini\n(.*?)```", f.read(), re.DOTALL)
        cfg = parse_config(block)
        assert cfg.dataset.kind == "bars" and cfg.train.model == "mlp"

    def test_workers_key_is_checked_and_dropped(self):
        cfg = parse_config("[experiment]\nworkers = 4\n" + MINIMAL)
        assert cfg == parse_config(MINIMAL)
        assert "workers" not in serialize_config(cfg)
        for bad in ("0", "two"):
            with pytest.raises(ConfigError, match="workers"):
                parse_config(f"[experiment]\nworkers = {bad}\n" + MINIMAL)

    def test_kind_specific_keys_enforced(self):
        text = "[dataset]\nkind = toy\nsize = 12\n" + MINIMAL
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(text)


# The canonical text of BARS, pinned byte for byte: the config schema is
# read from the dataclasses, and must not move a key or reword a value.
BARS_CANONICAL = """\
[experiment]
seed = 11
output = results
runs_per_point = 2
thresholds = 0,0.5
modes = roar

[dataset]
kind = bars
n_test = 60
n_train = 120
noise = 0.1
size = 6

[estimators]
ids = grad,random
ig_steps = 25
ensemble_samples = 15
noise_stddev = auto

[train]
model = mlp
hidden = 8
learning_rate = 0.2
steps = 120
batch_size = 16
loss = softmax_cross_entropy
ridge = 1e-08
"""

TOY = "[dataset]\nkind = toy\ndim = 4\n" + MINIMAL


def load_module(*parts):
    """A repository file as a module, imported by path; it stays registered
    so that its dataclasses resolve their module."""
    name = "_config_source_" + "_".join(parts).replace(".", "_")
    spec = importlib.util.spec_from_file_location(name,
                                                  os.path.join(ROOT, *parts))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def assert_round_trips(text):
    cfg = parse_config(text)
    canonical = serialize_config(cfg)
    assert parse_config(canonical) == cfg
    assert serialize_config(parse_config(canonical)) == canonical


class TestSchema:
    def test_bars_canonical_text_is_pinned(self):
        assert serialize_config(parse_config(BARS)) == BARS_CANONICAL

    @given(st.sampled_from(sorted(_DATASET_KEYS)),
           st.floats(0.0, 1e9), st.floats(0.0, 1e9, exclude_min=True),
           st.floats(0.0, 1e9))
    @settings(max_examples=100, deadline=None)
    def test_serialize_writes_every_field_of_each_section(
            self, kind, noise, learning_rate, ridge):
        cfg = ExperimentConfig()
        cfg.dataset.kind = kind
        cfg.dataset.noise = noise
        cfg.train.learning_rate = learning_rate
        cfg.train.ridge = ridge
        sections = {}
        for block in serialize_config(cfg).split("\n\n"):
            header, *lines = block.splitlines()
            sections[header] = [tuple(line.split(" = ")) for line in lines]
        dataset = [f.name for f in fields(DatasetSpec)
                   if f.name in _DATASET_KEYS[kind] and f.name != "kind"]
        expected = {
            "[experiment]": (cfg, [f.name for f in fields(ExperimentConfig)
                                   if f.name not in ("dataset", "estimators",
                                                     "train")]),
            "[dataset]": (cfg.dataset, ["kind", *sorted(dataset)]),
            "[estimators]": (cfg.estimators,
                             [f.name for f in fields(EstimatorSpec)]),
            "[train]": (cfg.train, [f.name for f in fields(nn.TrainConfig)]),
        }
        assert list(sections) == list(expected)
        for header, (section, keys) in expected.items():
            assert [key for key, _ in sections[header]] == keys
            for key, text in sections[header]:
                value = getattr(section, key)
                if isinstance(value, float):
                    assert text == _float_text(value), (header, key)

    def test_integral_noise_is_written_like_every_float(self):
        text = serialize_config(parse_config(
            BARS.replace("size = 6", "size = 6\nnoise = 0")))
        assert "\nnoise = 0\n" in text

    @pytest.mark.parametrize("size", ["full", "tiny"])
    @pytest.mark.parametrize("workload", ["bars-grid", "bars-estimate",
                                          "toy-validate"])
    def test_benchmark_workload_configs_round_trip(self, workload, size):
        workloads = load_module("perfbench", "workloads.py")
        spec = workloads.WORKLOADS[workload]
        assert_round_trips(spec.config_text(spec.params(size), 1))

    def test_bars_benchmark_template_round_trips(self):
        script = load_module("scripts", "bars_benchmark.py")
        assert_round_trips(script.CONFIG_TEMPLATE.format(
            seed=0, runs=5, n_train=1500, n_test=400))


class TestRanges:
    """Every value the program cannot run with is refused at parse time,
    with a ConfigError that names the key."""

    @staticmethod
    def with_values(base, **values):
        """`base`'s canonical text, which names every key, with `values`."""
        text = serialize_config(parse_config(base))
        for key, value in values.items():
            text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text,
                                  flags=re.MULTILINE)
            assert found == 1, key
        return text

    CASES = [
        (BARS, {"ig_steps": 0}), (BARS, {"ensemble_samples": 0}),
        (BARS, {"noise_stddev": -0.5}), (BARS, {"noise_stddev": "nan"}),
        (BARS, {"n_train": 0}), (BARS, {"n_test": 0}), (BARS, {"size": 0}),
        (BARS, {"noise": -0.5}), (TOY, {"dim": 0}),
        (TOY, {"n_informative": 6}), (TOY, {"n_informative": -1}),
        (BARS, {"batch_size": 0}), (BARS, {"batch_size": 64, "n_train": 40}),
        (TOY, {"batch_size": 32, "n_train": 20}), (BARS, {"loss": "bogus"}),
        (BARS, {"hidden": 0}), (BARS, {"hidden": "8,0"}),
        (BARS, {"steps": -1}), (BARS, {"learning_rate": "nan"}),
        (BARS, {"learning_rate": 0}), (BARS, {"learning_rate": "inf"}),
        (BARS, {"ridge": -1}), (BARS, {"ridge": "nan"}),
        (BARS, {"seed": -1}), (BARS, {"seed": 2 ** 64}),
    ]

    @pytest.mark.parametrize(
        "base,values", CASES,
        ids=[("toy:" if base is TOY else "") + ",".join(
            f"{k}={v}" for k, v in values.items()) for base, values in CASES])
    def test_out_of_range_value_names_its_key(self, base, values):
        # The first key of each case is the one refused.
        with pytest.raises(ConfigError, match=next(iter(values))):
            parse_config(self.with_values(base, **values))

    def test_bounds_are_accepted(self):
        parse_config(self.with_values(
            BARS, seed=2 ** 64 - 1, steps=0, batch_size=120, noise=0,
            noise_stddev=0, ridge=0, loss="mean_squared_error"))
        parse_config(self.with_values(TOY, n_informative=4))
        parse_config(self.with_values(TOY, n_informative=0))
        # Only SGD draws batches, so least squares takes any n_train.
        parse_config(self.with_values(TOY, n_train=20, model="least_squares"))

    @pytest.mark.parametrize("command", ["validate-config", "toy-validate",
                                         "run"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_override_is_range_checked(self, tmp_path, capsys, command,
                                            seed):
        config = tmp_path / "config.ini"
        config.write_text(TOY if command == "toy-validate" else BARS)
        out = str(tmp_path / "out")
        assert run_cli(command, "--config", str(config), "--output", out,
                       "--seed", seed) == 1
        assert "seed" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_run_refuses_duplicate_modes(self, tmp_path, capsys):
        # Each mode once: a repeated one would list every run twice.
        config = tmp_path / "config.ini"
        config.write_text(BARS.replace("modes = roar", "modes = roar,roar"))
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", str(config), "--output", out) == 1
        assert "modes must be unique" in capsys.readouterr().err
        assert not os.path.exists(out)


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def bars_config(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(BARS)
    return str(path)


class TestCli:
    @pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["none", "bogus"])
    def test_missing_or_unknown_command_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_command_takes_the_three_options(self, command):
        args = cli.build_parser().parse_args(
            [command, "--config", "c", "--output", "o", "--seed", "3"])
        assert (args.command, args.config, args.output, args.seed) == (
            command, "c", "o", 3)

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

    @pytest.mark.parametrize("deleted", [(), ("grad",), ("random",),
                                         ("grad", "random")],
                             ids=["none", "grad", "random", "grad+random"])
    def test_resume_scores_only_deleted_estimators(
            self, bars_config, tmp_path, monkeypatch, deleted):
        full = str(tmp_path / "full")
        assert run_cli("run", "--config", bars_config, "--output", full) == 0
        resumed = str(tmp_path / "resumed")
        assert run_cli("run", "--config", bars_config,
                       "--output", resumed) == 0
        for estimator_id in deleted:
            os.remove(os.path.join(resumed, "cells", f"{estimator_id}.csv"))
        os.remove(os.path.join(resumed, "results.csv"))
        os.remove(os.path.join(resumed, "aggregated.csv"))
        scored = []
        compute_estimates = experiment.compute_estimates

        def counting(estimator_id, *args, **kwargs):
            scored.append(estimator_id)
            return compute_estimates(estimator_id, *args, **kwargs)

        monkeypatch.setattr(experiment, "compute_estimates", counting)
        assert run_cli("run", "--config", bars_config,
                       "--output", resumed) == 0
        # The train and test splits of each deleted estimator, in config
        # order; an estimator whose fragment exists is never scored.
        assert scored == [e for e in ("grad", "random") if e in deleted
                          for _ in range(2)]
        names = sorted(os.listdir(os.path.join(full, "cells")))
        assert names == ["grad.csv", "random.csv"]
        assert names == sorted(os.listdir(os.path.join(resumed, "cells")))
        for name in [*(os.path.join("cells", n) for n in names),
                     "results.csv", "aggregated.csv"]:
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
        # `workers` is still accepted in configs, and changes nothing.
        workers = tmp_path / "workers.ini"
        workers.write_text(BARS.replace("modes = roar",
                                        "modes = roar\nworkers = 4"))
        serial, parallel = str(tmp_path / "s"), str(tmp_path / "p")
        assert run_cli("run", "--config", bars_config,
                       "--output", serial) == 0
        assert run_cli("run", "--config", str(workers),
                       "--output", parallel) == 0
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

    def test_deletion_metric_scores_test_split_one_estimator_at_a_time(
            self, bars_config, tmp_path, monkeypatch):
        events = []
        compute_estimates = experiment.compute_estimates
        rank_split = pipeline.rank_split

        def scoring(estimator_id, settings, model, x, targets, passes=None):
            events.append(("score", estimator_id, len(x)))
            return compute_estimates(estimator_id, settings, model, x,
                                     targets, passes)

        def ranking(dataset, split, scores):
            events.append(("rank", len(scores)))
            return rank_split(dataset, split, scores)

        monkeypatch.setattr(experiment, "compute_estimates", scoring)
        monkeypatch.setattr(pipeline, "rank_split", ranking)
        out = str(tmp_path / "out")
        assert run_cli("deletion-metric", "--config", bars_config,
                       "--output", out) == 0
        # n_test = 60: the 120 train rows are never scored, and each
        # estimator is ranked before the next is scored.
        assert events == [("score", "grad", 60), ("rank", 60),
                          ("score", "random", 60), ("rank", 60)]
        monkeypatch.undo()
        # Scoring both splits up front gives the same bytes.
        ctx = experiment.build_context(parse_config(BARS))
        model, _ = experiment.train_baseline(ctx)
        estimates = dict(experiment.compute_all_estimates(ctx, model))
        expected = str(tmp_path / "expected.csv")
        pipeline.run_deletion_metric(
            ctx.dataset, model,
            [(e, test) for e, (_, test) in estimates.items()],
            ctx.config.thresholds).to_csv(expected)
        with open(os.path.join(out, "deletion.csv"), "rb") as f1, \
                open(expected, "rb") as f2:
            assert f1.read() == f2.read()

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
        estimates = dict(experiment.compute_all_estimates(ctx, model))
        cfg = ctx.config
        for estimator_id in cfg.estimators.ids:
            for threshold in cfg.thresholds:
                for mode in cfg.modes:
                    name = pipeline.cell_name(estimator_id, threshold, mode)
                    expected = str(tmp_path / "expected" / name)
                    pipeline.save_modified_dataset(
                        pipeline.make_modified_dataset(
                            ctx.dataset, *estimates[estimator_id],
                            estimator_id, threshold, mode, seed=cfg.seed,
                            source_id=cfg.dataset.kind), expected)
                    got = os.path.join(out, "modified", name)
                    assert sorted(os.listdir(got)) == \
                        sorted(os.listdir(expected))
                    for part in os.listdir(expected):
                        with open(os.path.join(got, part), "rb") as f1, \
                                open(os.path.join(expected, part), "rb") as f2:
                            assert f1.read() == f2.read(), (name, part)

    def test_modify_reusing_estimates_trains_no_baseline(
            self, bars_config, tmp_path, monkeypatch):
        fresh, reused = str(tmp_path / "fresh"), str(tmp_path / "reused")
        assert run_cli("modify", "--config", bars_config,
                       "--output", fresh) == 0
        assert run_cli("estimate", "--config", bars_config,
                       "--output", reused) == 0
        trained = []
        train_baseline = experiment.train_baseline
        monkeypatch.setattr(experiment, "train_baseline",
                            lambda ctx: trained.append(1) or
                            train_baseline(ctx))
        assert run_cli("modify", "--config", bars_config,
                       "--output", reused) == 0
        assert trained == []
        names = sorted(os.listdir(os.path.join(fresh, "modified")))
        assert names == sorted(os.listdir(os.path.join(reused, "modified")))
        for name in names:
            cell = os.path.join("modified", name)
            for part in os.listdir(os.path.join(fresh, cell)):
                with open(os.path.join(fresh, cell, part), "rb") as f1, \
                        open(os.path.join(reused, cell, part), "rb") as f2:
                    assert f1.read() == f2.read(), (name, part)

    def test_estimate_writes_score_files(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("estimate", "--config", bars_config,
                       "--output", out) == 0
        files = sorted(os.listdir(os.path.join(out, "estimates")))
        assert files == ["grad.npz", "random.npz"]

    def test_estimate_runs_each_family_pass_once(self, tmp_path,
                                                 monkeypatch):
        # The benchmark's bars-estimate config: all 17 registry ids at
        # registry defaults, over three 64-row blocks (96 train, 32 test).
        config = tmp_path / "estimate.ini"
        config.write_text(BARS_ESTIMATE)
        calls = []
        input_gradient = estimators.input_gradient
        monkeypatch.setattr(
            estimators, "input_gradient",
            lambda *args, **kwargs: calls.append(1) or input_gradient(
                *args, **kwargs))
        out = str(tmp_path / "out")
        assert run_cli("estimate", "--config", str(config),
                       "--output", out) == 0
        # Per block: one pass each of grad, gb and ig (all 25 ig steps go
        # through one call), shared by `<b>-sq`, and 15 noisy copies of
        # each, shared by sg, sg_sq and var.
        assert len(calls) == 3 * (3 + 15 * 3) == 144
        ctx = experiment.build_context(parse_config(BARS_ESTIMATE))
        saved = dict(experiment.load_estimates(
            ctx, os.path.join(out, "estimates")))
        model, _ = experiment.train_baseline(ctx)
        settings = experiment.estimator_settings(ctx)
        calls.clear()
        # Scoring each id on its own, with no passes shared, runs every
        # pass again: per block, 3 base passes for the bases and again for
        # `<b>-sq`, and 15 noisy copies of each for each of sg, sg_sq, var.
        ds = ctx.dataset
        for estimator_id in ctx.config.estimators.ids:
            for got, (x, y, split) in zip(
                    saved[estimator_id],
                    ((ds.train_x, ds.train_y, "train"),
                     (ds.test_x, ds.test_y, "test"))):
                [(_, fresh)] = experiment.score_split(settings, model, x, y,
                                                      [estimator_id], split)
                assert got.tobytes() == fresh.tobytes(), estimator_id
        assert len(calls) == 3 * (3 + 3 + 3 * 15 * 3) == 423

    def test_run_runs_each_family_pass_once(self, tmp_path, monkeypatch,
                                            capsys):
        # `run` shares passes within a family as `estimate` does, even though
        # each estimator retrains before the next is scored.
        config = tmp_path / "run.ini"
        config.write_text(BARS_ESTIMATE)
        calls = []
        input_gradient = estimators.input_gradient
        monkeypatch.setattr(
            estimators, "input_gradient",
            lambda *args, **kwargs: calls.append(1) or input_gradient(
                *args, **kwargs))
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", str(config), "--output", out) == 0
        assert len(calls) == 3 * (3 + 15 * 3) == 144
        with open(os.path.join(out, "results.csv"), "rb") as f:
            full = f.read()
        # Logged, and written, in family order: `<b>-sq` right after `<b>`.
        done = re.findall(r"estimator=(\S+) status=done",
                          capsys.readouterr().err)
        ids = estimators.all_estimator_ids()
        assert sorted(done) == sorted(ids)
        assert done.index("grad-sq") == done.index("grad") + 1
        assert done.index("var-grad") == done.index("sg_sq-grad") + 1
        # Alone in its family on the rerun, var-grad runs its 15 noisy
        # passes per block, and the grid comes out the same.
        os.remove(os.path.join(out, "cells", "var-grad.csv"))
        os.remove(os.path.join(out, "results.csv"))
        calls.clear()
        assert run_cli("run", "--config", str(config), "--output", out) == 0
        assert len(calls) == 3 * 15
        with open(os.path.join(out, "results.csv"), "rb") as f:
            assert f.read() == full
        err = capsys.readouterr().err
        assert re.findall(r"estimator=(\S+) status=done", err) == ["var-grad"]
        assert err.count("status=skipped") == len(ids) - 1

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
    """An estimator's fragment must hold exactly the config's runs of that
    estimator, in grid order, each a well-formed row; anything else is
    refused by name."""

    @staticmethod
    def write_fragments(ctx, out):
        cfg = ctx.config
        os.makedirs(os.path.join(out, "cells"))
        paths = []
        for e in cfg.estimators.ids:
            path = os.path.join(out, "cells", f"{e}.csv")
            with open(path, "w") as f:
                f.writelines(f"{e},{t:.6f},{m},{r},0.5000000000\n"
                             for t in cfg.thresholds for m in cfg.modes
                             for r in range(cfg.runs_per_point))
            paths.append(path)
        return paths

    @pytest.fixture
    def grid_dir(self, tmp_path):
        ctx = experiment.build_context(parse_config(BARS))
        out = str(tmp_path / "out")
        paths = self.write_fragments(ctx, out)
        grid = experiment.collect_grid(ctx.config, out)
        assert len(grid.records) == 2 * 2 * 1 * 2
        return ctx, out, paths[-1]

    def test_run_count_must_match_config(self, grid_dir):
        ctx, out, path = grid_dir
        with open(path) as f:
            first = f.readline()
        with open(path, "w") as f:
            f.write(first)
        with pytest.raises(pipeline.ProvenanceError,
                           match=f"{os.path.basename(path)} row 2: expected "
                                 f"random,0.000000,roar,1, found nothing"):
            experiment.collect_grid(ctx.config, out)

    def test_rows_must_name_the_file_cell(self, grid_dir):
        ctx, out, path = grid_dir
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace(",0.500000,roar,", ",0.000000,roar,", 1))
        with pytest.raises(pipeline.ProvenanceError,
                           match=f"{os.path.basename(path)} row 3:.*found "
                                 f"random,0.000000,roar,0"):
            experiment.collect_grid(ctx.config, out)

    @pytest.mark.parametrize("field,value", [(3, "abc"), (4, "abc"),
                                             (4, "")],
                             ids=["run", "accuracy", "empty-accuracy"])
    def test_malformed_field_names_the_fragment(self, grid_dir, field,
                                                value):
        ctx, out, path = grid_dir
        with open(path) as f:
            rows = [line.split(",") for line in f.read().splitlines()]
        rows[1][field] = value
        with open(path, "w") as f:
            f.writelines(",".join(row) + "\n" for row in rows)
        with pytest.raises(pipeline.ProvenanceError,
                           match=os.path.basename(path)):
            experiment.collect_grid(ctx.config, out)

    @pytest.mark.parametrize("outcome", ["nan", "1.5", "failed:banana"])
    def test_corrupt_outcome_names_the_fragment(self, grid_dir, outcome):
        ctx, out, path = grid_dir
        with open(path) as f:
            rows = f.read().splitlines()
        rows[1] = rows[1].rpartition(",")[0] + "," + outcome
        with open(path, "w") as f:
            f.writelines(row + "\n" for row in rows)
        with pytest.raises(pipeline.ProvenanceError,
                           match=f"corrupt record in .*"
                                 f"{os.path.basename(path)}"):
            experiment.collect_grid(ctx.config, out)

    def test_outcomes_at_the_range_ends_are_read(self, grid_dir):
        ctx, out, path = grid_dir
        with open(path) as f:
            rows = f.read().splitlines()
        for i, outcome in enumerate(["0.0000000000", "1.0000000000",
                                     "failed:17"]):
            rows[i] = rows[i].rpartition(",")[0] + "," + outcome
        with open(path, "w") as f:
            f.writelines(row + "\n" for row in rows)
        grid = experiment.collect_grid(ctx.config, out)
        assert [f.reason for f in grid.failures] == ["failed:17"]
        assert len(grid.records) == 2 * 2 * 1 * 2 - 1


class TestOutputConfig:
    """An output directory is tied to the config that filled it through
    `<output>/config.ini`; `run` and `report` refuse any other config."""

    @staticmethod
    def tree(out):
        files = {}
        for root, _, names in os.walk(out):
            for name in names:
                with open(os.path.join(root, name), "rb") as f:
                    files[os.path.relpath(os.path.join(root, name), out)] = \
                        f.read()
        return files

    def test_changed_config_is_refused_and_writes_nothing(self, tmp_path,
                                                          capsys):
        short, long = tmp_path / "short.ini", tmp_path / "long.ini"
        short.write_text(BARS.replace("steps = 120", "steps = 5"))
        long.write_text(BARS.replace("steps = 120", "steps = 300"))
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", str(short), "--output", out) == 0
        with open(os.path.join(out, "config.ini")) as f:
            recorded = f.read()
        # The canonical config, without its `output` line.
        assert recorded == serialize_config(parse_config(
            short.read_text())).replace("output = results\n", "")
        assert "steps = 5\n" in recorded
        before = self.tree(out)
        capsys.readouterr()
        for command in ("run", "report"):
            assert run_cli(command, "--config", str(long),
                           "--output", out) == 3
            err = capsys.readouterr().err
            assert "ProvenanceError" in err and "config.ini" in err
            assert "status=" not in err and "baseline" not in err
        assert self.tree(out) == before
        assert run_cli("report", "--config", str(short), "--output", out) == 0
        assert self.tree(out) == before

    def test_learning_rate_differing_in_7th_digit_is_refused(self,
                                                             tmp_path):
        out = str(tmp_path / "out")
        for status, rate in ((0, "0.1234567"), (3, "0.1234568")):
            path = tmp_path / f"{rate}.ini"
            path.write_text(BARS.replace("steps = 120", "steps = 5")
                            .replace("learning_rate = 0.2",
                                     f"learning_rate = {rate}"))
            assert run_cli("run", "--config", str(path),
                           "--output", out) == status

    def test_deletion_metric_refuses_another_config(self, tmp_path):
        short, long = tmp_path / "short.ini", tmp_path / "long.ini"
        short.write_text(BARS.replace("steps = 120", "steps = 10"))
        long.write_text(BARS.replace("steps = 120", "steps = 50"))
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", str(short), "--output", out) == 0
        before = self.tree(out)
        assert run_cli("deletion-metric", "--config", str(long),
                       "--output", out) == 3
        assert self.tree(out) == before
        assert not any(name.startswith("deletion") for name in before)

    def test_modify_refuses_estimates_of_another_config(self, tmp_path):
        short, long = tmp_path / "short.ini", tmp_path / "long.ini"
        short.write_text(BARS.replace("steps = 120", "steps = 20"))
        long.write_text(BARS.replace("steps = 120", "steps = 50"))
        out = str(tmp_path / "out")
        assert run_cli("estimate", "--config", str(short),
                       "--output", out) == 0
        assert "steps = 20\n" in (tmp_path / "out" / "config.ini").read_text()
        before = self.tree(out)
        assert run_cli("modify", "--config", str(long), "--output", out) == 3
        assert run_cli("estimate", "--config", str(long),
                       "--output", out) == 3
        assert self.tree(out) == before
        assert not os.path.exists(os.path.join(out, "modified"))

    @pytest.mark.parametrize("first,then", [("estimate", "modify"),
                                            ("modify", "run"),
                                            ("run", "estimate"),
                                            ("deletion-metric", "run")])
    def test_unrecorded_outputs_are_refused(self, bars_config, tmp_path,
                                            first, then):
        # Outputs of any command, once their config.ini is gone, belong to
        # no known config: no command adopts them.
        out = str(tmp_path / "out")
        assert run_cli(first, "--config", bars_config, "--output", out) == 0
        os.remove(os.path.join(out, "config.ini"))
        before = self.tree(out)
        assert run_cli(then, "--config", bars_config, "--output", out) == 3
        assert self.tree(out) == before

    def test_run_then_deletion_metric_with_one_config(self, bars_config,
                                                      tmp_path):
        out = str(tmp_path / "out")
        for command in ("run", "deletion-metric"):
            assert run_cli(command, "--config", bars_config,
                           "--output", out) == 0
        assert os.path.exists(os.path.join(out, "deletion.csv"))
        assert os.path.exists(os.path.join(out, "results.csv"))

    def test_missing_record_is_refused(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        os.remove(os.path.join(out, "config.ini"))
        before = self.tree(out)
        assert run_cli("report", "--config", bars_config,
                       "--output", out) == 3
        # Fragments of an unknown config are not adopted by `run` either.
        assert run_cli("run", "--config", bars_config, "--output", out) == 3
        assert self.tree(out) == before

    def test_toy_validate_refuses_another_seed(self, tmp_path, capsys):
        config = tmp_path / "toy.ini"
        config.write_text(
            "[experiment]\nseed = 9\nruns_per_point = 5\n"
            "[dataset]\nkind = toy\n"
            "[estimators]\nids = grad\n"
            "[train]\nmodel = least_squares\n")
        out = str(tmp_path / "out")
        assert run_cli("toy-validate", "--config", str(config),
                       "--output", out) == 0
        assert "seed = 9\n" in (tmp_path / "out" / "config.ini").read_text()
        before = self.tree(out)
        capsys.readouterr()
        assert run_cli("toy-validate", "--config", str(config),
                       "--output", out, "--seed", "10") == 3
        err = capsys.readouterr().err
        assert "ProvenanceError" in err and "config.ini" in err
        assert self.tree(out) == before
        assert run_cli("toy-validate", "--config", str(config),
                       "--output", out) == 0
        assert self.tree(out) == before

    @pytest.mark.parametrize("command", ["estimate", "modify", "run",
                                         "deletion-metric"])
    def test_another_config_is_refused_before_the_dataset_is_built(
            self, tmp_path, monkeypatch, capsys, command):
        out = str(tmp_path / "out")
        experiment.check_output_config(
            parse_config(BARS.replace("steps = 120", "steps = 10")), out,
            stamp=True)
        config = tmp_path / "long.ini"
        config.write_text(BARS.replace("steps = 120", "steps = 50"))
        built = []
        monkeypatch.setattr(experiment, "build_context", built.append)
        capsys.readouterr()
        assert run_cli(command, "--config", str(config),
                       "--output", out) == 3
        assert "config.ini records another config" in capsys.readouterr().err
        assert built == []
        assert os.listdir(out) == ["config.ini"]

    def test_run_reports_from_the_config_it_ran(self, bars_config, tmp_path,
                                                monkeypatch):
        # The config file changes on disk while the grid runs; the report
        # is written from the config the grid ran.
        run_grid = experiment.run_grid

        def run_then_edit(ctx, model, output_dir):
            run_grid(ctx, model, output_dir)
            with open(bars_config, "w") as f:
                f.write(BARS.replace("steps = 120", "steps = 50"))

        monkeypatch.setattr(experiment, "run_grid", run_then_edit)
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        assert "steps = 120\n" in (tmp_path / "out" / "config.ini").read_text()
        grid = experiment.collect_grid(parse_config(BARS), out)
        with open(os.path.join(out, "results.csv")) as f:
            assert len(f.read().splitlines()) == 1 + len(grid.records)

    def test_report_builds_no_dataset(self, bars_config, tmp_path,
                                      monkeypatch):
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        before = self.tree(out)
        reports = [name for name in os.listdir(out) if name.endswith(".csv")]
        # results, aggregated, failures, one plot per id
        assert len(reports) == 5
        for name in reports:
            os.remove(os.path.join(out, name))

        def no_dataset(cfg):
            raise AssertionError("report built a dataset")

        monkeypatch.setattr(experiment, "build_context", no_dataset)
        assert run_cli("report", "--config", bars_config,
                       "--output", out) == 0
        assert self.tree(out) == before

    def test_toy_validation_script_refuses_another_seed(self, tmp_path,
                                                        capsys):
        script = load_module("scripts", "toy_validation.py")
        out = str(tmp_path / "out")
        args = ["--n-train", "400", "--n-test", "200", "--runs", "1",
                "--output", out]
        assert script.main(["--seed", "9", *args]) == 0
        assert "curves written to" in capsys.readouterr().out
        before = self.tree(out)
        assert sorted(before) == ["config.ini", "toy_validation.csv"]
        assert script.main(["--seed", "10", *args]) == 3
        assert "ProvenanceError" in capsys.readouterr().err
        assert self.tree(out) == before

    def test_corrupt_fragment_is_named_by_report(self, bars_config, tmp_path,
                                                 capsys):
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        path = os.path.join(out, "cells", "grad.csv")
        with open(path) as f:
            rows = f.read().splitlines()
        rows[0] = rows[0].rsplit(",", 1)[0] + ",abc"
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run_cli("report", "--config", bars_config,
                       "--output", out) == 3
        err = capsys.readouterr().err
        assert "ProvenanceError" in err and path in err


# BARS over both modes with t = 1: ROAR and KAR at t = 0 and at t = 1 are
# the rank-free cells, and the two estimators share each of their keys.
GRID = BARS.replace("thresholds = 0,0.5", "thresholds = 0,0.5,1").replace(
    "modes = roar", "modes = roar,kar")


class TestRankFreeGrid:
    """`run` trains each rank-free cell once per grid, whichever estimators'
    fragments are missing, and every other cell as it always has."""

    @pytest.fixture
    def grid_config(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text(GRID)
        return str(path)

    @staticmethod
    def counting(seen):
        make_trainer = experiment.make_trainer

        def make(cfg):
            trainer = make_trainer(cfg)

            def train(stack, seeds):
                seen.extend(map(tuple, seeds))
                return trainer(stack, seeds)
            return train
        return make

    def test_each_rank_free_key_trains_once_per_run(self, grid_config,
                                                    tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(experiment, "make_trainer", self.counting(seen))
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", grid_config, "--output", out) == 0
        rank_free = [tuple(pipeline.run_seeds(11, key, 2)) for key in
                     (pipeline.NONE_REPLACED, pipeline.ALL_REPLACED)]
        baseline = (pipeline.derive_seed(11, "baseline"),)
        assert sorted(seen) == sorted(rank_free + [baseline] + [
            tuple(pipeline.run_seeds(11, (e, "0.500000", mode), 2))
            for e in ("grad", "random") for mode in ("roar", "kar")])
        # A rerun with one fragment missing loads the baseline and trains
        # its ranked cells and the rank-free keys, once each.
        os.remove(os.path.join(out, "cells", "random.csv"))
        seen.clear()
        assert run_cli("run", "--config", grid_config, "--output", out) == 0
        assert sorted(seen) == sorted(rank_free + [
            tuple(pipeline.run_seeds(11, ("random", "0.500000", mode), 2))
            for mode in ("roar", "kar")])

    @pytest.mark.parametrize("deleted", ["grad", "random"])
    def test_resume_is_byte_identical(self, grid_config, tmp_path, deleted):
        full, resumed = str(tmp_path / "full"), str(tmp_path / "resumed")
        for out in (full, resumed):
            assert run_cli("run", "--config", grid_config,
                           "--output", out) == 0
        os.remove(os.path.join(resumed, "cells", f"{deleted}.csv"))
        os.remove(os.path.join(resumed, "results.csv"))
        assert run_cli("run", "--config", grid_config,
                       "--output", resumed) == 0
        for name in ("cells/grad.csv", "cells/random.csv", "results.csv",
                     "aggregated.csv"):
            with open(os.path.join(full, name), "rb") as f1, \
                    open(os.path.join(resumed, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_rank_free_rows_are_shared_and_ranked_rows_keep_their_bits(
            self, grid_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", grid_config, "--output", out) == 0
        with open(os.path.join(out, "results.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        accuracy = {tuple(row[:4]): row[4] for row in rows}
        assert len(accuracy) == 2 * 3 * 2 * 2
        for t in ("0.000000", "1.000000"):
            for mode in ("roar", "kar"):
                for run in "01":
                    assert accuracy["grad", t, mode, run] == \
                        accuracy["random", t, mode, run]
        # A ranked cell trains its modified dataset alone with the seeds
        # derived from (estimator, t, mode): the bits of every earlier
        # version.
        ctx = experiment.build_context(parse_config(GRID))
        model, _ = experiment.train_baseline(ctx)
        estimates = dict(experiment.compute_all_estimates(ctx, model))
        trainer = experiment.make_trainer(ctx.config)
        for e in ("grad", "random"):
            for mode in ("roar", "kar"):
                modified = pipeline.make_modified_dataset(
                    ctx.dataset, *estimates[e], e, 0.5, mode)
                seeds = [pipeline.derive_seed(11, e, "0.500000", mode, run)
                         for run in range(2)]
                [results] = trainer(nn.DatasetStack.of([modified]), [seeds])
                for run, (_, acc) in enumerate(results):
                    assert accuracy[e, "0.500000", mode, str(run)] == \
                        f"{acc:.10f}"


class TestBaselineCache:
    """The first command of an output directory that needs the baseline
    trains it and saves `<output>/baseline.npz`; later ones load it."""

    @staticmethod
    def counting(trained):
        train_baseline = experiment.train_baseline

        def train(ctx):
            trained.append(1)
            return train_baseline(ctx)
        return train

    def test_run_then_deletion_metric_trains_once(self, bars_config,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        trained = []
        monkeypatch.setattr(experiment, "train_baseline",
                            self.counting(trained))
        out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
        for command in ("run", "deletion-metric"):
            assert run_cli(command, "--config", bars_config,
                           "--output", out) == 0
        assert trained == [1]
        marks = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("baseline accuracy=")]
        assert len(marks) == 2 and marks[0] == marks[1]
        assert run_cli("deletion-metric", "--config", bars_config,
                       "--output", fresh) == 0
        assert trained == [1, 1]
        for name in ("deletion.csv", "deletion_aggregated.csv"):
            with open(os.path.join(out, name), "rb") as f1, \
                    open(os.path.join(fresh, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_loaded_baseline_is_bit_identical(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("estimate", "--config", bars_config,
                       "--output", out) == 0
        ctx = experiment.build_context(parse_config(BARS))
        model, acc = experiment.train_baseline(ctx)
        loaded, loaded_acc = experiment.load_baseline(
            ctx.config, os.path.join(out, "baseline.npz"))
        assert loaded_acc == acc
        assert len(loaded.layers) == len(model.layers)
        for a, b in zip(loaded.layers, model.layers):
            assert a.weight.tobytes() == b.weight.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_baseline_of_another_config_is_refused(self, tmp_path, capsys):
        short, long = tmp_path / "short.ini", tmp_path / "long.ini"
        short.write_text(BARS.replace("steps = 120", "steps = 10"))
        long.write_text(BARS.replace("steps = 120", "steps = 50"))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli("deletion-metric", "--config", str(short),
                       "--output", a) == 0
        assert run_cli("deletion-metric", "--config", str(long),
                       "--output", b) == 0
        os.replace(os.path.join(a, "baseline.npz"),
                   os.path.join(b, "baseline.npz"))
        before = TestOutputConfig.tree(b)
        capsys.readouterr()
        assert run_cli("deletion-metric", "--config", str(long),
                       "--output", b) == 3
        err = capsys.readouterr().err
        assert "ProvenanceError" in err and "baseline.npz" in err
        assert TestOutputConfig.tree(b) == before

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_unreadable_baseline_is_refused_by_name(self, bars_config,
                                                    tmp_path, capsys, damage):
        out = str(tmp_path / "out")
        assert run_cli("deletion-metric", "--config", bars_config,
                       "--output", out) == 0
        path = os.path.join(out, "baseline.npz")
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:len(data) // 2] if damage == "truncated" else b"")
        with pytest.raises(pipeline.ProvenanceError, match=re.escape(path)):
            experiment.load_baseline(parse_config(BARS), path)
        capsys.readouterr()
        assert run_cli("deletion-metric", "--config", bars_config,
                       "--output", out) == 3
        err = capsys.readouterr().err
        assert "ProvenanceError" in err and path in err


class TestModifyProvenance:
    def test_manifests_record_the_config_seed(self, tmp_path):
        config = tmp_path / "seed5.ini"
        config.write_text(BARS.replace("seed = 11", "seed = 5"))
        out = str(tmp_path / "out")
        assert run_cli("modify", "--config", str(config), "--output", out) == 0
        modified = os.path.join(out, "modified")
        for name in os.listdir(modified):
            with open(os.path.join(modified, name, "manifest.txt")) as f:
                assert "seed=5\n" in f.read().splitlines(True), name
            assert pipeline.load_modified_dataset(
                os.path.join(modified, name)).provenance.seed == 5


class TestFailures:
    """A diverged run is the same failure, reason included, whether the
    library's `run_roar` or the CLI's resumable grid records it."""

    @staticmethod
    def diverging(make_trainer):
        def make(cfg):
            trainer = make_trainer(cfg)

            def train(stack, seeds):
                results = trainer(stack, seeds)
                if seeds == [[pipeline.derive_seed(cfg.seed, "baseline")]]:
                    return results  # the baseline trains as usual
                # Runs with odd seeds diverge, at a seed-dependent step.
                return [[nn.TrainingDivergedError(seed % 97) if seed % 2
                         else result for seed, result in zip(s, r)]
                        for s, r in zip(seeds, results)]
            return train
        return make

    def test_run_roar_matches_cli_run(self, bars_config, tmp_path,
                                      monkeypatch):
        monkeypatch.setattr(experiment, "make_trainer",
                            self.diverging(experiment.make_trainer))
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        ctx = experiment.build_context(parse_config(BARS))
        cfg = ctx.config
        model, _ = experiment.train_baseline(ctx)
        grid = pipeline.run_roar(
            ctx.dataset, dict(experiment.compute_all_estimates(ctx, model)),
            cfg.thresholds, experiment.make_trainer(cfg), cfg.runs_per_point,
            cfg.modes, cfg.seed)
        assert grid.failures
        assert all(f.reason.startswith("failed:") for f in grid.failures)
        assert grid.failures == experiment.collect_grid(ctx.config, out).failures
        expected = str(tmp_path / "expected.csv")
        grid.to_csv(expected)
        with open(os.path.join(out, "results.csv"), "rb") as f1, \
                open(expected, "rb") as f2:
            assert f1.read() == f2.read()


    def test_report_lists_failed_runs(self, bars_config, tmp_path,
                                      monkeypatch, capsys):
        monkeypatch.setattr(experiment, "make_trainer",
                            self.diverging(experiment.make_trainer))
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        grid = experiment.collect_grid(parse_config(BARS), out)
        assert grid.failures
        with open(os.path.join(out, "failures.csv")) as f:
            assert f.read().splitlines() == [
                "estimator,threshold,mode,run,reason",
                *map(pipeline.record_row, grid.failures)]
        assert f"failed runs={len(grid.failures)}\n" in \
            capsys.readouterr().err

    def test_report_without_failures_writes_the_header(self, bars_config,
                                                       tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run_cli("run", "--config", bars_config, "--output", out) == 0
        with open(os.path.join(out, "failures.csv")) as f:
            assert f.read() == "estimator,threshold,mode,run,reason\n"
        assert "failed runs" not in capsys.readouterr().err


class TestIdxRun:
    @staticmethod
    def idx_config(tmp_path, n_classes):
        """A least-squares config over IDX files of 6 x 6 images with
        `n_classes` labels."""
        rng = np.random.default_rng(3)
        lines = ["[experiment]", "runs_per_point = 1", "[dataset]",
                 "kind = idx"]
        for split, n in (("train", 40), ("test", 20)):
            for part, array in (
                    ("images", rng.integers(0, 256, (n, 6, 6), np.uint8)),
                    ("labels", np.arange(n, dtype=np.uint8) % n_classes)):
                path = str(tmp_path / f"{split}-{part}.idx")
                datasets.write_idx(path, array)
                lines.append(f"{split}_{part} = {path}")
        lines += ["[estimators]", "ids = grad, random", "[train]",
                  "model = least_squares"]
        config = tmp_path / "idx.ini"
        config.write_text("\n".join(lines) + "\n")
        return str(config)

    def test_least_squares_refuses_more_than_two_classes(self, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        for n_classes, status in ((2, 0), (3, 3)):
            config = self.idx_config(tmp_path, n_classes)
            assert run_cli("run", "--config", config,
                           "--output", str(out / str(n_classes))) == status
        assert "least_squares fits 2 classes, not 3" in \
            capsys.readouterr().err
        assert os.listdir(out / "3") == ["config.ini"]


class TestLoadEstimates:
    """`modify` reuses `estimates/` only if every file holds finite scores,
    one row per sample of its split or one shared row; anything else is
    refused by file name, when it is reached, and the CLI exits 3."""

    @pytest.fixture
    def cached(self, bars_config, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("estimate", "--config", bars_config,
                       "--output", out) == 0
        ctx = experiment.build_context(parse_config(BARS))
        return ctx, out, os.path.join(out, "estimates")

    def test_matching_files_load(self, cached):
        ctx, _, directory = cached
        estimates = dict(experiment.load_estimates(ctx, directory))
        d = ctx.dataset.n_features
        for train, test in estimates.values():
            assert train.shape == (len(ctx.dataset.train_x), d)
            assert test.shape == (len(ctx.dataset.test_x), d)

    def test_missing_file_is_refused(self, cached, bars_config):
        ctx, out, directory = cached
        os.remove(os.path.join(directory, "random.npz"))
        with pytest.raises(pipeline.ProvenanceError, match="random.npz"):
            dict(experiment.load_estimates(ctx, directory))
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
            dict(experiment.load_estimates(ctx, directory))
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 3

    @pytest.mark.parametrize("split,bad", [("train", np.nan),
                                           ("test", np.inf)])
    def test_non_finite_scores_are_refused(self, cached, bars_config, split,
                                           bad):
        ctx, out, directory = cached
        path = os.path.join(directory, "grad.npz")
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays[split][:, 3] = bad
        np.savez(path, **arrays)
        with pytest.raises(pipeline.ProvenanceError,
                           match=f"grad.npz holds non-finite {split} scores"):
            dict(experiment.load_estimates(ctx, directory))
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 3
        assert not os.path.exists(os.path.join(out, "modified"))

    @pytest.mark.parametrize("content", [b"junk", b"", b"PK\x03\x04"],
                             ids=["junk", "empty", "zip_header"])
    def test_unreadable_file_is_refused_by_name(self, cached, bars_config,
                                                capsys, content):
        ctx, out, directory = cached
        path = os.path.join(directory, "grad.npz")
        with open(path, "wb") as f:
            f.write(content)
        with pytest.raises(pipeline.ProvenanceError, match=re.escape(path)):
            dict(experiment.load_estimates(ctx, directory))
        capsys.readouterr()
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 3
        assert path in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "modified"))

    def test_corrupt_later_file_is_refused_after_earlier_cells(
            self, cached, bars_config, capsys):
        # The files are read one estimator at a time, so `random.npz`, the
        # second, is refused after `grad`'s cells may have been written;
        # each of those is a valid cell of this config.
        _, out, directory = cached
        path = os.path.join(directory, "random.npz")
        with open(path, "wb") as f:
            f.write(b"junk")
        capsys.readouterr()
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 3
        assert path in capsys.readouterr().err
        modified = os.path.join(out, "modified")
        names = os.listdir(modified) if os.path.isdir(modified) else []
        for name in names:
            cell = pipeline.load_modified_dataset(
                os.path.join(modified, name))
            assert cell.provenance.estimator_id == "grad"

    def test_shared_row_is_accepted(self, cached, bars_config):
        ctx, out, directory = cached
        d = ctx.dataset.n_features
        dtype = ctx.dataset.train_x.dtype
        np.savez(os.path.join(directory, "grad.npz"),
                 train=np.arange(d, dtype=dtype), test=np.ones(d, dtype))
        train, test = dict(experiment.load_estimates(ctx, directory))["grad"]
        assert train.shape == test.shape == (d,)
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 0


class TestImageDtype:
    """Image data is float32 (`nn.TRAIN_DTYPE`) end to end: an mlp
    baseline's layers, every score file and every modified cell. A score
    file or baseline in another dtype, such as one written while they were
    float64, is refused by name, and the CLI exits 3."""

    @staticmethod
    def arrays(path):
        with np.load(path) as data:
            return {name: data[name] for name in data.files}

    def test_mlp_baseline_scores_and_cells_are_float32(self, bars_config,
                                                       tmp_path):
        out = tmp_path / "out"
        assert run_cli("modify", "--config", bars_config,
                       "--output", str(out)) == 0
        baseline = self.arrays(out / "baseline.npz")
        layers = [name for name in baseline
                  if name.startswith(("weight_", "bias_"))]
        assert layers and all(baseline[name].dtype == np.float32
                              for name in layers)
        for path in (out / "estimates").iterdir():
            scores = self.arrays(path)
            assert scores["train"].dtype == scores["test"].dtype \
                == np.float32, path.name
        for cell in (out / "modified").iterdir():
            loaded = pipeline.load_modified_dataset(str(cell))
            assert loaded.train_x.dtype == loaded.test_x.dtype == np.float32

    def test_least_squares_scores_of_images_are_stored_in_float32(
            self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("modify", "--config",
                       TestIdxRun.idx_config(tmp_path, 2),
                       "--output", str(out)) == 0
        assert self.arrays(out / "baseline.npz")["weight_0"].dtype \
            == np.float64
        for path in (out / "estimates").iterdir():
            scores = self.arrays(path)
            assert scores["train"].dtype == scores["test"].dtype \
                == np.float32, path.name

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_score_file_in_float64_is_refused(self, bars_config, tmp_path,
                                              capsys, split):
        out = str(tmp_path / "out")
        assert run_cli("estimate", "--config", bars_config,
                       "--output", out) == 0
        path = os.path.join(out, "estimates", "grad.npz")
        arrays = self.arrays(path)
        arrays[split] = arrays[split].astype(np.float64)
        np.savez(path, **arrays)
        ctx = experiment.build_context(parse_config(BARS))
        with pytest.raises(pipeline.ProvenanceError,
                           match=f"grad.npz holds {split} scores in float64"):
            dict(experiment.load_estimates(
                ctx, os.path.join(out, "estimates")))
        capsys.readouterr()
        assert run_cli("modify", "--config", bars_config,
                       "--output", out) == 3
        assert path in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "modified"))

    @pytest.mark.parametrize("model,stale", [("mlp", np.float64),
                                             ("least_squares", np.float32)])
    def test_baseline_in_another_dtype_is_refused(self, tmp_path, capsys,
                                                  model, stale):
        config = tmp_path / "config.ini"
        config.write_text(BARS.replace("model = mlp", f"model = {model}"))
        out = str(tmp_path / "out")
        assert run_cli("deletion-metric", "--config", str(config),
                       "--output", out) == 0
        path = os.path.join(out, "baseline.npz")
        arrays = self.arrays(path)
        arrays["weight_0"] = arrays["weight_0"].astype(stale)
        np.savez(path, **arrays)
        capsys.readouterr()
        assert run_cli("deletion-metric", "--config", str(config),
                       "--output", out) == 3
        err = capsys.readouterr().err
        assert "ProvenanceError" in err and path in err
        assert f"weight_0 in {np.dtype(stale)}" in err


# Twelve ids on 500 12 x 12 images: each id's float32 scores take 0.29 MB,
# all twelve 3.5 MB.
STREAMED = """
[experiment]
seed = 5
thresholds = 0,0.5
modes = roar

[dataset]
kind = bars
n_train = 400
n_test = 100
size = 12

[estimators]
ids = grad, gb, sg-grad, sg-gb, sg_sq-grad, sg_sq-gb, var-grad, var-gb, \
grad-sq, gb-sq, random, sobel
ensemble_samples = 2

[train]
model = mlp
hidden = 8
steps = 20
batch_size = 16
"""


class TestStreamedEstimates:
    """`estimate` saves each estimator's scores as soon as both splits are
    scored, and `modify` reads them one estimator at a time, so neither
    holds the scores of every configured id."""

    def test_peak_memory_stays_below_every_ids_scores(self, tmp_path):
        config = tmp_path / "config.ini"
        config.write_text(STREAMED)
        spec = parse_config(STREAMED)
        n = spec.dataset.n_train + spec.dataset.n_test
        every_id = (len(spec.estimators.ids) * n * spec.dataset.size ** 2
                    * np.dtype(nn.TRAIN_DTYPE).itemsize)
        out = str(tmp_path / "out")
        peaks = {}
        for command in ("estimate", "modify"):
            tracemalloc.start()
            try:
                assert run_cli(command, "--config", str(config),
                               "--output", out) == 0
                peaks[command] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < every_id, (peaks, every_id)

    def test_estimate_writes_each_file_before_scoring_the_next(
            self, tmp_path, monkeypatch):
        config = tmp_path / "config.ini"
        config.write_text(BARS.replace(
            "ids = grad, random",
            "ids = sg-grad, grad, random, var-grad\nensemble_samples = 2"))
        directory = tmp_path / "out" / "estimates"
        seen = []
        compute_estimates = experiment.compute_estimates

        def recording(estimator_id, *args, **kwargs):
            seen.append((estimator_id,
                         sorted(p.name for p in directory.glob("*.npz"))))
            return compute_estimates(estimator_id, *args, **kwargs)

        monkeypatch.setattr(experiment, "compute_estimates", recording)
        assert run_cli("estimate", "--config", str(config),
                       "--output", str(tmp_path / "out")) == 0
        # Family order: var-grad shares sg-grad's noisy passes.
        order = ["sg-grad", "var-grad", "grad", "random"]
        assert seen == [(e, sorted(f"{d}.npz" for d in order[:i]))
                        for i, e in enumerate(order)
                        for split in ("train", "test")]

    @pytest.mark.parametrize("command", ["estimate", "run", "modify"])
    def test_no_pair_is_held_while_the_next_is_made(self, tmp_path,
                                                    monkeypatch, command):
        # Each call that makes scores, one split at a time for `estimate`
        # and `run`, one (train, test) pair for `modify`, finds the arrays
        # of every earlier pair freed: only the train scores of the pair
        # being scored may still be alive.
        config = tmp_path / "config.ini"
        config.write_text(BARS.replace(
            "ids = grad, random",
            "ids = sg-grad, grad, random, var-grad\nensemble_samples = 2"))
        out = str(tmp_path / "out")
        if command == "modify":
            assert run_cli("estimate", "--config", str(config),
                           "--output", out) == 0
        refs, alive = [], []
        name = "load_estimate" if command == "modify" else "compute_estimates"
        make = getattr(experiment, name)

        def recording(*args, **kwargs):
            held = 0 if command == "modify" or len(refs) % 2 == 0 else 1
            alive.append(sum(ref() is not None for ref in refs) - held)
            made = make(*args, **kwargs)
            refs.extend(map(weakref.ref, made if command == "modify"
                            else [made]))
            return made

        monkeypatch.setattr(experiment, name, recording)
        assert run_cli(command, "--config", str(config),
                       "--output", out) == 0
        assert len(alive) == (4 if command == "modify" else 8)
        assert alive == [0] * len(alive)


class TestEstimatorSettings:
    """`estimator_settings` carries each `[estimators]` key to the settings
    field of the same name."""

    def test_each_key_maps_to_its_field(self):
        cfg = parse_config(BARS.replace(
            "ids = grad, random",
            "ids = grad, random\nig_steps = 7\nensemble_samples = 4\n"
            "noise_stddev = 0.25"))
        ctx = experiment.build_context(cfg)
        settings = experiment.estimator_settings(ctx)
        assert (settings.ig_steps, settings.ensemble_samples,
                settings.noise_stddev) == (7, 4, 0.25)
        assert settings.seed == pipeline.derive_seed(11, "ensemble")
        assert settings.image_shape == ctx.dataset.image_shape == (6, 6, 1)

    def test_run_and_deletion_metric_score_the_test_split_alike(
            self, monkeypatch, tmp_path):
        # `estimate`, `run` and `deletion-metric` draw one test-split noise;
        # the train split draws its own.
        ctx = experiment.build_context(parse_config(BARS.replace(
            "ids = grad, random",
            "ids = sg-grad, var-grad, random\nensemble_samples = 3")))
        model, _ = experiment.train_baseline(ctx)
        estimated = dict(experiment.compute_all_estimates(ctx, model))
        deletion = dict(experiment.deletion_estimates(ctx, model))
        ran = {}

        def record(ds, scores, *args):
            ran.update(scores)
            return pipeline.ResultGrid()

        monkeypatch.setattr(pipeline, "run_roar", record)
        experiment.run_grid(ctx, model, str(tmp_path))
        for estimator_id, (train, test) in estimated.items():
            assert test.tobytes() == deletion[estimator_id].tobytes()
            assert [a.tobytes() for a in ran[estimator_id]] == [
                train.tobytes(), test.tobytes()]
        n = min(len(ctx.dataset.train_x), len(ctx.dataset.test_x))
        train, test = estimated["sg-grad"]
        assert not np.array_equal(train[:n], test[:n])

    def test_auto_noise_is_0_15_of_the_train_range(self):
        # Unbounded toy features: the train and test ranges differ.
        ctx = experiment.build_context(parse_config(TOY.replace(
            "dim = 4\n", "dim = 4\nn_train = 200\nn_test = 100\n")))
        assert ctx.config.estimators.noise_stddev == "auto"
        train, test = ctx.dataset.train_x, ctx.dataset.test_x
        stddev = experiment.estimator_settings(ctx).noise_stddev
        assert stddev == 0.15 * (train.max() - train.min())
        assert stddev != 0.15 * (test.max() - test.min())
