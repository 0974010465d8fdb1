import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from roarbench import estimators, experiment, nn
from roarbench.estimators import (ENSEMBLE_MODES, ROW_BLOCK,
                                  EstimatorSettings, SG, SG_SQ, VAR,
                                  all_estimator_ids, compute_estimates,
                                  control_random, control_sobel,
                                  ensemble_moments, ensemble_noise,
                                  estimate_gb, estimate_grad, estimate_ig)
from roarbench.pipeline import derive_seed, n_modified, rank_features
from conftest import finite_difference, sample_away_from_kinks


def affine_model(w, b=None):
    w = np.asarray(w, dtype=float)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, dtype=float)
    return nn.Model([nn.Affine(weight=w, bias=b)])


class TestGrad:
    def test_single_affine_gives_weight_column(self):
        w = [[1.0, -2.0], [0.5, 4.0]]
        [e] = estimate_grad(affine_model(w), np.array([[3.0, -1.0]]), [1])
        np.testing.assert_array_equal(e, [-2.0, 4.0])

    def test_zero_weights_give_zero_scores(self):
        [e] = estimate_grad(affine_model(np.zeros((3, 2))), np.ones((1, 3)),
                            [0])
        np.testing.assert_array_equal(e, np.zeros(3))

    def test_matches_finite_differences(self, rng):
        model = nn.init_mlp([4, 7, 2], rng)
        x = sample_away_from_kinks(model, rng, 4)
        [e] = estimate_grad(model, x[None], [0])
        np.testing.assert_allclose(e, finite_difference(model, x, 0),
                                   rtol=1e-4, atol=1e-7)


class TestGuidedBackprop:
    def test_no_rectifiers_equals_grad(self, rng):
        model = affine_model(rng.standard_normal((4, 3)))
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(estimate_gb(model, x[None], [2]),
                                      estimate_grad(model, x[None], [2]))

    def test_hand_traced_negative_path_zeroed(self):
        model = nn.Model([
            nn.Affine(weight=np.eye(2), bias=np.zeros(2)),
            nn.Affine(weight=np.array([[-1.0], [1.0]]), bias=np.zeros(1)),
        ])
        [e] = estimate_gb(model, np.array([[2.0, 3.0]]), [0])
        np.testing.assert_array_equal(e, [0.0, 1.0])

    def test_all_positive_network_equals_grad(self, rng):
        model = nn.Model([
            nn.Affine(weight=rng.uniform(0.1, 1.0, (3, 5)),
                      bias=rng.uniform(0.0, 0.2, 5)),
            nn.Affine(weight=rng.uniform(0.1, 1.0, (5, 2)),
                      bias=np.zeros(2)),
        ])
        x = rng.uniform(0.1, 1.0, 3)
        np.testing.assert_array_equal(estimate_gb(model, x[None], [0]),
                                      estimate_grad(model, x[None], [0]))


def per_step_ig(model, x, targets, steps, reference=None):
    """Integrated gradients as one gradient pass per path step, summed in
    input space: the reference the batched path is checked against."""
    ref = np.zeros(x.shape[1:]) if reference is None else reference
    total = np.zeros_like(x)
    for j in range(1, steps + 1):
        total += nn.input_gradient(model, ref + (j / steps) * (x - ref),
                                   targets)
    return (x - ref) * total / steps


class TestIntegratedGradients:
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 9), min_size=0, max_size=2),
           st.booleans(), st.integers(1, 30),
           st.integers(1, 2 * ROW_BLOCK + 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_step_oracle(self, seed, hidden, zero_ref, steps, n):
        # The batched path sums the steps' masked gradients before W1, so
        # only float order differs from one pass per step.
        rng = np.random.default_rng(seed)
        model = nn.init_mlp([5, *hidden, 3], rng)
        x = rng.standard_normal((n, 5))
        targets = rng.integers(0, 3, n)
        ref = None if zero_ref else rng.standard_normal(5)
        want = per_step_ig(model, x, targets, steps, ref)
        got = estimate_ig(model, x, targets, steps, reference=ref)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_are_refused(self, rng, steps):
        model = nn.init_mlp([4, 6, 2], rng)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            estimate_ig(model, np.ones((2, 4)), [0, 1], steps)

    def test_input_at_reference_gives_zeros(self, rng):
        model = nn.init_mlp([4, 6, 2], rng)
        x = rng.standard_normal(4)
        [e] = estimate_ig(model, x[None], [0], 10, reference=x.copy())
        np.testing.assert_array_equal(e, np.zeros(4))

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_linear_model_is_analytically_exact(self, rng, k):
        # Constant gradient along the path: e = (x - x0) * w, any k.
        w = rng.standard_normal((5, 2))
        model = affine_model(w)
        x = rng.standard_normal(5)
        ref = rng.standard_normal(5)
        [e] = estimate_ig(model, x[None], [1], k, reference=ref)
        np.testing.assert_allclose(e, (x - ref) * w[:, 1], atol=1e-10)

    # Seeds chosen so the straight path from the zero reference crosses few
    # rectifier kinks; frozen after checking the completeness residual.
    @pytest.mark.parametrize("seed", [2, 12, 28, 29])
    def test_completeness_within_one_percent(self, seed):
        rng = np.random.default_rng(seed)
        model = nn.init_mlp([6, 12, 8, 1], rng)
        x = rng.uniform(0.2, 1.0, 6)
        [e] = estimate_ig(model, x[None], [0], 25)
        gap = (nn.forward(model, x[None])[0, 0]
               - nn.forward(model, np.zeros((1, 6)))[0, 0])
        assert abs(e.sum() - gap) <= 0.01 * abs(gap)

    def test_reference_shape_mismatch(self, rng):
        model = nn.init_mlp([4, 2], rng)
        with pytest.raises(ValueError, match="reference shape"):
            estimate_ig(model, np.ones((1, 4)), [0], 5, reference=np.ones(3))

    @pytest.mark.parametrize("sizes", [[4, 2], [4, 6, 2]])
    def test_target_count_mismatch_names_the_rows(self, rng, sizes):
        model = nn.init_mlp(sizes, rng)
        with pytest.raises(ValueError, match=r"\(2,\) targets for 3 rows"):
            estimate_ig(model, np.ones((3, 4)), [0, 1], 25)


def reduced_ensemble(base, mode, model, x, targets, cfg, first_row=0):
    """The SG (mean), SG-SQ (mean of squares) or VAR (population variance)
    reduction of the noisy-pass moments."""
    mean, mean_sq = ensemble_moments(base, model, x, targets, cfg, first_row)
    return {SG: mean, SG_SQ: mean_sq, VAR: mean_sq - mean ** 2}[mode]


def registry_ensemble(mode, model, x, cfg):
    """The registry's `<mode>-grad` scores, with target unit 0."""
    return compute_estimates(f"{mode}-grad", cfg, model, x,
                             np.zeros(len(x), dtype=int))


class TestEnsemble:
    @pytest.fixture
    def setup(self, rng):
        model = nn.init_mlp([5, 8, 2], rng)
        x = rng.standard_normal((1, 5))
        return model, x

    def test_zero_noise_degenerates_exactly(self, setup):
        model, x = setup
        cfg = EstimatorSettings(ensemble_samples=15, noise_stddev=0.0,
                                seed=3)
        base = estimate_grad(model, x, [0])
        np.testing.assert_array_equal(
            registry_ensemble(SG, model, x, cfg), base)
        np.testing.assert_array_equal(
            registry_ensemble(SG_SQ, model, x, cfg), base ** 2)
        np.testing.assert_array_equal(
            registry_ensemble(VAR, model, x, cfg), np.zeros_like(base))

    def test_variance_decomposition_identity(self, setup):
        model, x = setup
        cfg = EstimatorSettings(ensemble_samples=15, noise_stddev=0.3,
                                seed=11)
        sg = registry_ensemble(SG, model, x, cfg)
        sg_sq = registry_ensemble(SG_SQ, model, x, cfg)
        var = registry_ensemble(VAR, model, x, cfg)
        np.testing.assert_allclose(var, sg_sq - sg ** 2, atol=1e-10)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_samples_below_one_are_refused(self, setup, noise):
        model, x = setup
        cfg = EstimatorSettings(ensemble_samples=0, noise_stddev=noise)
        with pytest.raises(ValueError, match="ensemble_samples must be >= 1"):
            ensemble_moments(estimate_grad, model, x, [0], cfg)

    def test_linear_model_sg_equals_grad_and_var_vanishes(self, rng):
        model = affine_model(rng.standard_normal((4, 2)))
        x = rng.standard_normal((1, 4))
        cfg = EstimatorSettings(ensemble_samples=15, noise_stddev=0.5,
                                seed=7)
        base = estimate_grad(model, x, [0])
        np.testing.assert_allclose(
            reduced_ensemble(estimate_grad, SG, model, x, [0], cfg), base,
            atol=1e-12)
        np.testing.assert_allclose(
            reduced_ensemble(estimate_grad, VAR, model, x, [0], cfg)[0],
            np.zeros(4), atol=1e-10)

    def test_estimator_id_composition(self, setup):
        # The registry id "var-gb" is the VAR ensemble over guided backprop.
        model, x = setup
        cfg = EstimatorSettings(ensemble_samples=2, noise_stddev=0.1,
                                seed=0)
        np.testing.assert_array_equal(
            compute_estimates("var-gb", cfg, model, x, np.array([0])),
            reduced_ensemble(estimate_gb, VAR, model, x, [0], cfg))


class TestEnsembleNoise:
    # Row counts of 7, 715 and 2,160 values: odd and even S * d.
    @pytest.mark.parametrize("count", [7, 715, 2160])
    @pytest.mark.parametrize("first, n", [(0, 1), (5, 3), (60, 10),
                                          (63, 70), (127, 2)])
    def test_sub_range_matches_longer_draw(self, count, first, n):
        full = ensemble_noise(31, 0, 2 * ROW_BLOCK + 8, count)
        np.testing.assert_array_equal(ensemble_noise(31, first, n, count),
                                      full[first:first + n])

    def test_standard_normal_at_a_fixed_seed(self):
        z = ensemble_noise(20, 0, 100, 2160).astype(np.float64).ravel()
        tolerance = 5 / np.sqrt(z.size)
        assert z.size >= 10 ** 5
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < tolerance
        assert abs(z.var() - 1.0) < tolerance
        # 1 - u >= 2**-24 bounds the Box-Muller radius.
        assert np.abs(z).max() <= np.sqrt(48 * np.log(2)) + 1e-5

    def test_one_generator_per_call(self, monkeypatch, rng):
        built = []

        def counted(name):
            make = getattr(np.random, name)
            return lambda *args, **kwargs: built.append(name) or make(
                *args, **kwargs)

        for name in ("default_rng", "Generator", "PCG64", "Philox"):
            monkeypatch.setattr(np.random, name, counted(name))
        model = nn.init_mlp([5, 4, 2], rng)
        x = rng.standard_normal((2 * ROW_BLOCK + 3, 5))
        cfg = EstimatorSettings(ensemble_samples=3, noise_stddev=0.2, seed=4)
        ensemble_moments(estimate_grad, model, x, np.zeros(len(x), int), cfg)
        assert sorted(built) == ["Generator", "PCG64"]


class TestSquare:
    @staticmethod
    def squared(scores):
        # A single affine column makes `scores` the exact input gradient.
        model = affine_model(np.asarray(scores)[:, None])
        [e] = compute_estimates("grad-sq", EstimatorSettings(), model,
                                np.zeros((1, len(scores))), np.array([0]))
        return e

    def test_elementwise_square(self):
        e = self.squared(np.array([-2.0, 3.0]))
        np.testing.assert_array_equal(e, [4.0, 9.0])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_square_ranks_like_absolute_value(self, values):
        scores = np.array(values)
        squared = self.squared(scores)
        np.testing.assert_array_equal(rank_features(squared),
                                      rank_features(np.abs(scores) ** 2))


class TestRandomControl:
    def test_same_seed_reproduces(self):
        a = control_random(10, seed=99)
        b = control_random(10, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_independent_of_input_content(self):
        # Shape and seed fully determine the scores.
        assert np.array_equal(control_random((4, 4, 1), 5),
                              control_random((4, 4, 1), 5))

    def test_top_t_subsets_are_uniform(self):
        n, t, draws = 20, 0.3, 10_000
        k = n_modified(t, n)
        counts = np.zeros(n)
        for seed in range(draws):
            order = rank_features(control_random(n, seed))
            counts[order[:k]] += 1
        expected = draws * k / n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, n - 1) > 0.01


class TestSobelControl:
    def test_constant_image_scores_zero(self):
        e = control_sobel(np.full((5, 7, 3), 0.42))
        np.testing.assert_array_equal(e, np.zeros((5, 7, 3)))

    def test_vertical_step_edge_hand_oracle(self):
        # Left half 0, right half 1: gradient magnitude 4 on the two columns
        # straddling the step, 0 elsewhere (replicate padding).
        image = np.zeros((4, 6, 1))
        image[:, 3:, 0] = 1.0
        scores = control_sobel(image)[:, :, 0]
        expected = np.zeros((4, 6))
        expected[:, 2:4] = 4.0
        np.testing.assert_array_equal(scores, expected)

    def test_broadcast_across_channels(self):
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(6, 6, 3))
        scores = control_sobel(image)
        np.testing.assert_array_equal(scores[:, :, 0], scores[:, :, 1])
        np.testing.assert_array_equal(scores[:, :, 0], scores[:, :, 2])

    def test_requires_image_metadata(self):
        with pytest.raises(ValueError, match="image"):
            control_sobel(np.ones(16))

    def test_stack_matches_per_image(self):
        images = np.random.default_rng(1).uniform(size=(5, 6, 7, 2))
        stacked = control_sobel(images)
        assert stacked.shape == images.shape
        for image, scores in zip(images, stacked):
            np.testing.assert_array_equal(scores, control_sobel(image))


def one_row(estimator_id, settings, model, x, targets, i):
    """Row i scored on its own, drawing ensemble noise from its index i."""
    mode, _, base_id = estimator_id.partition("-")
    rows = slice(i, i + 1)
    if mode in ENSEMBLE_MODES:
        base = {"grad": estimate_grad, "gb": estimate_gb,
                "ig": partial(estimate_ig, steps=settings.ig_steps)}[base_id]
        scores = reduced_ensemble(base, mode, model, x[rows],
                                  targets[rows], settings, first_row=i)
    else:
        scores = compute_estimates(estimator_id, settings, model, x[rows],
                                   targets[rows])
    return scores[0]


class TestComputeEstimates:
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(2, 8), min_size=0, max_size=2),
           st.integers(1, 3), st.integers(1, 2))
    @settings(max_examples=6, deadline=None)
    def test_row_blocks_match_one_row_calls(self, seed, hidden, out, c):
        rng = np.random.default_rng(seed)
        image_shape = (2, 3, c)
        d = 6 * c
        model = nn.init_mlp([d, *hidden, out], rng)
        n = 2 * ROW_BLOCK + 3
        x = rng.standard_normal((n, d))
        targets = rng.integers(0, out, n)
        settings = EstimatorSettings(
            ig_steps=3, ensemble_samples=2, noise_stddev=0.3,
            seed=int(rng.integers(2 ** 32)), image_shape=image_shape)
        for estimator_id in all_estimator_ids():
            batch = compute_estimates(estimator_id, settings, model, x,
                                      targets)
            rows = np.stack([one_row(estimator_id, settings, model, x,
                                     targets, i) for i in range(n)])
            np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-12,
                                       err_msg=estimator_id)

    @given(st.integers(0, 2 ** 32 - 1),
           st.permutations(all_estimator_ids()), st.integers(1, 17),
           st.sampled_from([1, ROW_BLOCK, 2 * ROW_BLOCK + 3]),
           st.sampled_from([0.0, 0.3]), st.integers(1, 2))
    @settings(max_examples=12, deadline=None)
    def test_family_loop_matches_fresh_calls(self, seed, order, k, n, noise,
                                             depth):
        rng = np.random.default_rng(seed)
        ids = order[:k]
        d = 12
        model = nn.init_mlp([d, *[5] * depth, 3], rng)
        x = rng.standard_normal((n, d))
        y = rng.integers(0, 3, n)
        settings = EstimatorSettings(
            ig_steps=3, ensemble_samples=2, noise_stddev=noise,
            seed=int(rng.integers(2 ** 32)), image_shape=(2, 2, 3))
        shared = list(experiment.score_split(settings, model, x, y, ids,
                                             "train"))
        assert sorted(e for e, _ in shared) == sorted(ids)
        # Every id but the random control draws from the split's key.
        keyed = replace(settings, seed=derive_seed(settings.seed, "train"))
        for estimator_id, scores in shared:
            fresh = compute_estimates(
                estimator_id, settings if estimator_id == "random" else keyed,
                model, x, y)
            assert scores.tobytes() == fresh.tobytes(), estimator_id

    def test_splits_draw_apart_and_share_the_random_ranking(self, rng,
                                                            monkeypatch):
        # The same rows scored as "train" and as "test": every ensemble row
        # differs, the bases do not, and `random` is the one shared draw. A
        # base that returns its input shows the noise itself.
        monkeypatch.setattr(estimators, "estimate_grad",
                            lambda model, x, targets: x.copy())
        model = nn.init_mlp([6, 5, 2], rng)
        x = rng.standard_normal((ROW_BLOCK + 6, 6))
        y = rng.integers(0, 2, len(x))
        settings = EstimatorSettings(ensemble_samples=3, noise_stddev=0.3,
                                     seed=17)
        ids = ["sg-grad", "var-grad", "grad", "random"]
        train, test = (dict(experiment.score_split(settings, model, x, y, ids,
                                                   split))
                       for split in ("train", "test"))
        for estimator_id in ("sg-grad", "var-grad"):
            assert np.all(np.any(train[estimator_id] != test[estimator_id],
                                 axis=1)), estimator_id
        assert train["grad"].tobytes() == test["grad"].tobytes()
        shared = np.tile(control_random(6, settings.seed), (len(x), 1))
        assert train["random"].tobytes() == shared.tobytes()
        assert test["random"].tobytes() == shared.tobytes()

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            compute_estimates("shapley", EstimatorSettings(), None,
                              np.ones((2, 3)), np.zeros(2, dtype=int))


def cast_model(model, dtype):
    return nn.Model([nn.Affine(a.weight.astype(dtype), a.bias.astype(dtype))
                     for a in model.layers])


class TestDtypes:
    """Scores come out in the dtype of the rows and the model together, as
    `nn.forward` computes; ensemble moments accumulate in float64."""

    @staticmethod
    def problem(rng, n=2 * ROW_BLOCK + 3):
        model = nn.init_mlp([12, 5, 3], rng)
        x = rng.standard_normal((n, 12))
        y = rng.integers(0, 3, n)
        settings = EstimatorSettings(ig_steps=3, ensemble_samples=2,
                                     noise_stddev=0.3, seed=5,
                                     image_shape=(2, 2, 3))
        return model, x, y, settings

    def test_float64_model_on_float64_rows_scores_in_float64(self, rng):
        model, x, y, settings = self.problem(rng)
        for estimator_id in all_estimator_ids():
            scores = compute_estimates(estimator_id, settings, model, x, y)
            assert scores.dtype == np.float64, estimator_id

    def test_float32_model_on_float32_rows_scores_in_float32(self, rng):
        model, x, y, settings = self.problem(rng)
        model, x = cast_model(model, np.float32), x.astype(np.float32)
        for estimator_id in all_estimator_ids():
            scores = compute_estimates(estimator_id, settings, model, x, y)
            assert scores.dtype == np.float32, estimator_id

    def test_float64_model_promotes_float32_rows_like_the_whole_split(
            self, rng):
        model, x, y, settings = self.problem(rng)
        x32 = x.astype(np.float32)
        for estimator_id in all_estimator_ids():
            got = compute_estimates(estimator_id, settings, model, x32, y)
            want = compute_estimates(estimator_id, settings, model,
                                     x32.astype(np.float64), y)
            if estimator_id in estimators.CONTROL_IDS:
                # Computed as ever, stored in the split's dtype.
                want = want.astype(np.float32)
            assert got.dtype == want.dtype, estimator_id
            assert got.tobytes() == want.tobytes(), estimator_id

    @pytest.mark.parametrize("estimator_id", ["grad", "ig", "sg-grad"])
    def test_float64_model_promotes_one_block_at_a_time(self, rng,
                                                        estimator_id):
        # The float64 scores themselves take `out` bytes; a float64 copy of
        # the float32 split would take as much again.
        model, x, y, settings = self.problem(rng, n=32 * ROW_BLOCK)
        x32 = x.astype(np.float32)
        out = x.nbytes
        tracemalloc.start()
        try:
            compute_estimates(estimator_id, settings, model, x32, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out, (peak, out)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_float32_passes_accumulate_in_float64(self, rng, noise):
        model, x, y, settings = self.problem(rng)
        settings = replace(settings, noise_stddev=noise)
        model, x = cast_model(model, np.float32), x.astype(np.float32)
        mean, mean_sq = ensemble_moments(estimate_grad, model, x, y, settings)
        assert mean.dtype == mean_sq.dtype == np.float64
        # Oracle: each noisy copy is the float64 sum rounded once to float32
        # and scored in float32; the scores are summed in float64. With no
        # noise both copies are x, and the mean of two equal values is
        # exact, as is the one pass that zero noise takes.
        n, d = x.shape
        samples = settings.ensemble_samples
        noise_rows = ensemble_noise(settings.seed, 0, n, samples * d)
        acc, acc_sq = np.zeros((n, d)), np.zeros((n, d))
        for sample in range(samples):
            noisy = (noise_rows[:, sample * d:(sample + 1) * d]
                     .astype(np.float64) * noise + x).astype(np.float32)
            scores = estimate_grad(model, noisy, y)
            assert scores.dtype == np.float32
            acc += scores.astype(np.float64)
            acc_sq += scores.astype(np.float64) ** 2
        assert mean.tobytes() == (acc / samples).tobytes()
        assert mean_sq.tobytes() == (acc_sq / samples).tobytes()
        var = compute_estimates("var-grad", settings, model, x, y)
        assert var.dtype == np.float32
        assert var.tobytes() == (mean_sq - mean ** 2).astype(
            np.float32).tobytes()
