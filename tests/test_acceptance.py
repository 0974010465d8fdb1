"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here and nowhere else."""

import os

import numpy as np
import pytest
from scipy import stats

from roarbench import cli, datasets, nn, pipeline, validation
from roarbench.estimators import (EnsembleConfig, IGConfig, SG, SG_SQ, VAR,
                                  control_random, control_sobel, ensemble,
                                  estimate_grad, estimate_ig)
from conftest import finite_difference, sample_away_from_kinks

TOY_SEED = 9

# Directional retrain-vs-no-retrain margin on the bars task, frozen from a
# reference run (observed margins 0.25-0.35 over seeds 0-2).
RETRAIN_MARGIN = 0.15


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def result():
    return validation.run_toy_validation(seed=TOY_SEED, runs_per_point=5)


class TestCriterion1ToyCurveShapes:
    """Synthetic-data contrast between retraining and the frozen-model
    deletion metric, with quantitative curve-shape bounds."""

    def test_inverted_roar_flat_until_informative_removed(self, result):
        check = result.checks[0]
        report("1a inverted-ranking retrain curve flat for t <= 0.70",
               check.passed, check.detail)

    def test_inverted_deletion_degrades_early(self, result):
        check = result.checks[1]
        report("1b inverted-ranking no-retrain drop >= 10 points at t=0.5",
               check.passed, check.detail)

    def test_ground_truth_roar_hits_chance(self, result):
        check = result.checks[2]
        report("1c ground-truth retrain accuracy near chance for t >= 0.25",
               check.passed, check.detail)


class TestCriterion2RetrainingMatters:
    def test_random_control_retrain_beats_no_retrain_at_t09(self):
        margins = []
        for seed in (0, 1, 2):
            image = datasets.generate_bars(1500, 400, size=12, seed=seed)
            ds = image.as_dataset()
            trainer = nn.mlp_trainer([32], nn.TrainConfig(
                learning_rate=0.2, steps=600, batch_size=32))
            [(model, _)] = trainer(ds, [pipeline.derive_seed(seed,
                                                             "baseline")])
            scores = control_random(ds.train_x.shape[1], seed=123)
            est = {"random": (scores, scores)}
            roar = pipeline.run_roar(
                ds, est, [0.9], trainer, runs_per_point=3, base_seed=seed,
                granularity=pipeline.PIXEL, image_shape=image.image_shape
            ).aggregate()[0][3]
            deletion = pipeline.run_deletion_metric(
                ds, model, est, [0.9], granularity=pipeline.PIXEL,
                image_shape=image.image_shape).aggregate()[0][3]
            margins.append(roar - deletion)
        worst = min(margins)
        report("2 retrained random control beats frozen model at t=0.9",
               worst >= RETRAIN_MARGIN,
               f"min margin {worst:.3f} over 3 seeds (need >= "
               f"{RETRAIN_MARGIN})")


class TestCriterion3GradientCorrectness:
    def test_100_random_mlps_match_finite_differences(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            n_hidden = rng.integers(1, 3)  # 2-3 layers total
            widths = [int(rng.integers(2, 33)) for _ in range(n_hidden)]
            dim = int(rng.integers(2, 17))
            out = int(rng.integers(1, 5))
            model = nn.init_mlp([dim, *widths, out], rng)
            x = sample_away_from_kinks(model, rng, dim)
            target = int(rng.integers(0, out))
            g = nn.input_gradient(model, x, target)
            fd = finite_difference(model, x, target)
            scale = max(np.abs(fd).max(), 1e-8)
            worst = max(worst, np.abs(g - fd).max() / scale)
        report("3 standard gradients match central finite differences",
               worst < 1e-4, f"worst relative error {worst:.2e}")


class TestCriterion4IntegratedGradients:
    def test_linear_exactness(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 3))
        model = nn.Model([nn.Affine(weight=w, bias=rng.standard_normal(3))])
        x = rng.standard_normal(6)
        ref = rng.standard_normal(6)
        worst = 0.0
        for k in (1, 5, 25):
            [e] = estimate_ig(model, x[None], [2],
                              IGConfig(steps=k, reference=ref))
            worst = max(worst, np.abs(e - (x - ref) * w[:, 2]).max())
        report("4 path-integral scores analytically exact on linear models",
               worst <= 1e-10, f"worst deviation {worst:.2e}")

    def test_completeness(self):
        worst = 0.0
        for seed in (2, 12, 28, 29):
            rng = np.random.default_rng(seed)
            model = nn.init_mlp([6, 12, 8, 1], rng)
            x = rng.uniform(0.2, 1.0, 6)
            [e] = estimate_ig(model, x[None], [0], IGConfig(steps=25))
            gap = nn.forward(model, x)[0] - nn.forward(model, np.zeros(6))[0]
            worst = max(worst, abs(e.sum() - gap) / abs(gap))
        report("4 completeness within 1% at 25 steps",
               worst <= 0.01, f"worst relative residual {worst:.4f}")


class TestCriterion5EnsembleIdentities:
    def test_variance_decomposition_and_degeneracy(self):
        rng = np.random.default_rng(3)
        model = nn.init_mlp([5, 8, 2], rng)
        x = rng.standard_normal((1, 5))

        cfg = EnsembleConfig(samples=15, noise_stddev=0.3, seed=21)
        sg = ensemble(estimate_grad, SG, model, x, [0], cfg)
        sg_sq = ensemble(estimate_grad, SG_SQ, model, x, [0], cfg)
        var = ensemble(estimate_grad, VAR, model, x, [0], cfg)
        identity_err = np.abs(var - (sg_sq - sg ** 2)).max()

        zero = EnsembleConfig(samples=15, noise_stddev=0.0, seed=21)
        base = estimate_grad(model, x, [0])
        exact = (
            np.array_equal(
                ensemble(estimate_grad, SG, model, x, [0], zero), base)
            and np.array_equal(
                ensemble(estimate_grad, SG_SQ, model, x, [0], zero),
                base ** 2)
            and np.array_equal(
                ensemble(estimate_grad, VAR, model, x, [0], zero),
                np.zeros_like(base)))
        report("5 ensemble identities",
               identity_err <= 1e-10 and exact,
               f"variance-decomposition error {identity_err:.2e}, "
               f"zero-noise degeneracy exact: {exact}")


class TestCriterion6ModificationInvariants:
    def test_counts_identity_extremes_complementarity(self):
        rng = np.random.default_rng(7)
        p = 16
        x = rng.standard_normal(p)
        replacement = np.full((p, 1), 0.125)
        ok = True
        details = []

        for t in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            spec = pipeline.ModificationSpec(t, pipeline.ROAR, replacement)
            order = rng.permutation(p)
            out = pipeline.modify_sample(x, order, spec)
            count = int((out == 0.125).sum())
            if count != pipeline.n_modified(t, p):
                ok = False
                details.append(f"count mismatch at t={t}")

        spec0 = pipeline.ModificationSpec(0.0, pipeline.ROAR, replacement)
        if not np.array_equal(pipeline.modify_sample(x, np.arange(p), spec0),
                              x):
            ok = False
            details.append("t=0 not identity")
        spec1 = pipeline.ModificationSpec(1.0, pipeline.ROAR, replacement)
        if not np.array_equal(pipeline.modify_sample(x, np.arange(p), spec1),
                              np.full(p, 0.125)):
            ok = False
            details.append("t=1 not all-replacement")

        # Keep-mode at the same integral t replaces exactly the positions
        # remove-mode leaves untouched.
        for numerator in range(p + 1):
            t = numerator / p
            order = rng.permutation(p)
            removed = pipeline.modify_sample(
                x, order, pipeline.ModificationSpec(t, pipeline.ROAR,
                                                    replacement))
            kept = pipeline.modify_sample(
                x, order, pipeline.ModificationSpec(t, pipeline.KAR,
                                                    replacement))
            touched_r = set(np.nonzero(removed != x)[0])
            touched_k = set(np.nonzero(kept != x)[0])
            if touched_r | touched_k != set(range(p)) or touched_r & touched_k:
                ok = False
                details.append(f"complementarity broken at t={t}")

        report("6 modification invariants", ok,
               "; ".join(details) if details else
               "counts, extremes, and remove/keep complementarity hold")


class TestCriterion7Determinism:
    CONFIG = (
        "[experiment]\nseed = 11\nruns_per_point = 2\nthresholds = 0,0.5\n"
        "modes = roar,kar\n"
        "[dataset]\nkind = bars\nn_train = 120\nn_test = 60\nsize = 6\n"
        "[estimators]\nids = grad, random\n"
        "[train]\nmodel = mlp\nhidden = 8\nsteps = 120\nbatch_size = 16\n"
        "learning_rate = 0.2\n")

    def test_full_runs_and_resume_are_byte_identical(self, tmp_path):
        config = tmp_path / "config.ini"
        config.write_text(self.CONFIG)

        def run(out):
            assert cli.main(["run", "--config", str(config),
                             "--output", out]) == 0
            with open(os.path.join(out, "aggregated.csv"), "rb") as f:
                return f.read()

        first = run(str(tmp_path / "a"))
        second = run(str(tmp_path / "b"))

        resumed_dir = str(tmp_path / "c")
        run(resumed_dir)
        cells = sorted(os.listdir(os.path.join(resumed_dir, "cells")))
        for name in cells[::2]:
            os.remove(os.path.join(resumed_dir, "cells", name))
        os.remove(os.path.join(resumed_dir, "aggregated.csv"))
        resumed = run(resumed_dir)

        report("7 grid execution deterministic and resumable",
               first == second == resumed,
               f"rerun identical: {first == second}, resume identical: "
               f"{first == resumed}")


class TestCriterion8Controls:
    def test_sobel_zero_on_constant_and_random_subsets_uniform(self):
        sobel_zero = not control_sobel(np.full((9, 9, 1), 0.7)).any()

        n, t, draws = 20, 0.3, 10_000
        k = pipeline.n_modified(t, n)
        counts = np.zeros(n)
        for seed in range(draws):
            order = pipeline.rank_features(control_random(n, seed))
            counts[order[:k]] += 1
        expected = draws * k / n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        p_value = stats.chi2.sf(chi2, n - 1)

        report("8 control estimators behave",
               sobel_zero and p_value > 0.01,
               f"sobel zero on constant image: {sobel_zero}, "
               f"subset-uniformity p = {p_value:.3f}")
