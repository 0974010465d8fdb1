import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roarbench import nn
from conftest import finite_difference, sample_away_from_kinks


def identity_model():
    return nn.Model([nn.Affine(weight=np.eye(2), bias=np.zeros(2))])


def two_layer_model():
    # Hand-evaluated oracle network: 2x2 affine, rectifier, 2x1 affine.
    return nn.Model([
        nn.Affine(weight=np.array([[1.0, 2.0], [3.0, 4.0]]),
                  bias=np.array([1.0, -1.0])),
        nn.Affine(weight=np.array([[1.0], [-1.0]]), bias=np.array([0.5])),
    ])


def one_row_gradient(model, x, target, mode=nn.STANDARD):
    """The input gradient of the single sample x, passed as one row."""
    return nn.input_gradient(model, x[None], [target], mode=mode)[0]


class TestForward:
    def test_identity_affine(self):
        out = nn.forward(identity_model(), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_rectifier(self):
        # Identity affine, rectifier, identity affine.
        model = nn.Model([nn.Affine(weight=np.eye(2), bias=np.zeros(2)),
                          nn.Affine(weight=np.eye(2), bias=np.zeros(2))])
        np.testing.assert_array_equal(
            nn.forward(model, np.array([[-1.0, 3.0]])), [[0.0, 3.0]])

    def test_two_layer_hand_oracle(self):
        model = two_layer_model()
        # x=[1,-1]: pre=[-1,-3] -> relu [0,0] -> 0.5
        assert nn.forward(model, np.array([[1.0, -1.0]]))[0, 0] == 0.5
        # x=[0,1]: pre=[4,3] -> 4-3+0.5 = 1.5
        assert nn.forward(model, np.array([[0.0, 1.0]]))[0, 0] == 1.5

    def test_batch_matches_single(self):
        model = two_layer_model()
        batch = np.array([[1.0, -1.0], [0.0, 1.0]])
        out = nn.forward(model, batch)
        assert out.shape == (2, 1)
        np.testing.assert_allclose(out[:, 0], [0.5, 1.5])

    def test_shape_mismatch_names_layer(self):
        with pytest.raises(nn.DimensionError, match="layer 0"):
            nn.forward(identity_model(), np.array([[1.0, 2.0, 3.0]]))

    def test_layer_index_counts_affine_layers(self):
        model = nn.Model([nn.Affine(weight=np.eye(2), bias=np.zeros(2)),
                          nn.Affine(weight=np.eye(3), bias=np.zeros(3))])
        with pytest.raises(nn.DimensionError, match="layer 1") as err:
            nn.forward(model, np.array([[1.0, 2.0]]))
        assert err.value.layer_index == 1

    @pytest.mark.parametrize("call", [
        lambda x: nn.forward(identity_model(), x),
        lambda x: nn.input_gradient(identity_model(), x, 0)])
    def test_single_sample_is_refused(self, call):
        with pytest.raises(ValueError, match=r"expected \(n, d\) rows"):
            call(np.array([1.0, 2.0]))


class TestInputGradient:
    def test_single_affine_equals_weight_row(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = nn.Model([nn.Affine(weight=w, bias=np.array([0.5, -0.5]))])
        for target in (0, 1):
            np.testing.assert_array_equal(
                one_row_gradient(model, np.array([0.7, -1.3]), target),
                w[:, target])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = nn.init_mlp([5, 9, 3], rng)
        x = sample_away_from_kinks(model, rng, 5)
        g = one_row_gradient(model, x, 1)
        fd = finite_difference(model, x, 1)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)

    def test_guided_noop_on_positive_gradients(self, rng):
        # Non-negative weights and inputs keep every backward entry positive.
        model = nn.Model([
            nn.Affine(weight=rng.uniform(0.1, 1.0, (4, 6)),
                      bias=rng.uniform(0.1, 0.5, 6)),
            nn.Affine(weight=rng.uniform(0.1, 1.0, (6, 2)),
                      bias=np.zeros(2)),
        ])
        x = rng.uniform(0.1, 1.0, 4)
        np.testing.assert_array_equal(
            one_row_gradient(model, x, 0, mode=nn.STANDARD),
            one_row_gradient(model, x, 0, mode=nn.GUIDED))

    def test_guided_zeroes_negative_backward_path(self):
        # Identity first layer, both units active; second layer [-1, 1].
        model = nn.Model([
            nn.Affine(weight=np.eye(2), bias=np.zeros(2)),
            nn.Affine(weight=np.array([[-1.0], [1.0]]), bias=np.zeros(1)),
        ])
        x = np.array([2.0, 3.0])
        np.testing.assert_array_equal(
            one_row_gradient(model, x, 0, mode=nn.STANDARD), [-1.0, 1.0])
        np.testing.assert_array_equal(
            one_row_gradient(model, x, 0, mode=nn.GUIDED), [0.0, 1.0])

    def test_invalid_target(self):
        with pytest.raises(IndexError):
            one_row_gradient(identity_model(), np.array([1.0, 2.0]), 5)

    @pytest.mark.parametrize("mode", [nn.STANDARD, nn.GUIDED])
    def test_batch_matches_single(self, rng, mode):
        model = nn.init_mlp([5, 9, 7, 3], rng)
        x = rng.standard_normal((11, 5))
        targets = rng.integers(0, 3, 11)
        batch = nn.input_gradient(model, x, targets, mode=mode)
        assert batch.shape == (11, 5)
        for row, target, g in zip(x, targets, batch):
            np.testing.assert_allclose(
                g, one_row_gradient(model, row, int(target), mode=mode),
                rtol=0, atol=1e-12)

    def test_target_count_must_match_rows(self):
        with pytest.raises(ValueError, match="targets"):
            nn.input_gradient(identity_model(), np.ones((3, 2)), [0, 1])


def separable_blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal([-3.0, -3.0], 0.3, (n, 2))
    x1 = rng.normal([3.0, 3.0], 0.3, (n, 2))
    x = np.vstack([x0, x1])
    y = np.repeat([0, 1], n)
    perm = rng.permutation(2 * n)
    half = n
    return nn.ArrayDataset(x[perm][:2 * n - half], y[perm][:2 * n - half],
                           x[perm][2 * n - half:], y[perm][2 * n - half:])


def relabelled(ds, n_classes):
    """`ds` with its labels cycling through all n_classes classes."""
    return nn.ArrayDataset(ds.train_x, np.arange(len(ds.train_y)) % n_classes,
                           ds.test_x, np.arange(len(ds.test_y)) % n_classes)


def train_on(sizes, ds, cfg, seeds):
    """The results of training `seeds` on the one dataset `ds`."""
    [results] = nn.train(sizes, nn.DatasetStack.of([ds]), cfg, [seeds])
    return results


def assert_same_result(stacked, solo):
    """Equal weights and accuracy, or the same failure step."""
    if isinstance(solo, nn.TrainingDivergedError):
        assert isinstance(stacked, nn.TrainingDivergedError)
        assert stacked.step == solo.step
        return
    assert not isinstance(stacked, nn.TrainingDivergedError)
    assert stacked[1] == solo[1]
    for la, lb in zip(stacked[0].layers, solo[0].layers, strict=True):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)


class TestTrain:
    def test_separable_blobs_reach_perfect_accuracy(self):
        ds = separable_blobs()
        [(_, acc)] = train_on([2, 8, 2], ds, nn.TrainConfig(
            learning_rate=0.1, steps=400, batch_size=32), [0])
        assert acc == 1.0

    def test_constant_inputs_predict_majority_class(self):
        x_train = np.full((200, 3), 0.5)
        y_train = np.array([0] * 140 + [1] * 60)
        x_test = np.full((100, 3), 0.5)
        y_test = np.array([0] * 60 + [1] * 40)
        ds = nn.ArrayDataset(x_train, y_train, x_test, y_test)
        [(_, acc)] = train_on([3, 4, 2], ds, nn.TrainConfig(
            learning_rate=0.1, steps=400, batch_size=32), [1])
        assert acc == 0.6  # test-set majority-class frequency

    def test_same_seed_is_bit_identical(self):
        ds = separable_blobs(seed=3)
        cfg = nn.TrainConfig(learning_rate=0.05, steps=150, batch_size=16)
        [(model_a, acc_a)] = train_on([2, 6, 2], ds, cfg, [42])
        [(model_b, acc_b)] = train_on([2, 6, 2], ds, cfg, [42])
        assert acc_a == acc_b
        for la, lb in zip(model_a.layers, model_b.layers, strict=True):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_carries_step_index(self):
        ds = separable_blobs(seed=5)
        [result] = train_on([2, 4, 2], ds, nn.TrainConfig(
            learning_rate=1e9, steps=200, batch_size=16,
            loss="mean_squared_error"), [0])
        assert isinstance(result, nn.TrainingDivergedError)
        assert result.step >= 0

    def test_empty_dataset_rejected(self):
        ds = nn.ArrayDataset(np.empty((0, 2)), np.empty(0, dtype=int),
                             np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            train_on([2, 2], ds, nn.TrainConfig(batch_size=1), [0])

    def test_returned_layers_are_float64_arrays_of_their_own(self):
        base = separable_blobs(n=30, seed=2)
        stack = nn.DatasetStack.of([base, base])
        cfg = nn.TrainConfig(learning_rate=0.1, steps=20, batch_size=8)
        results = nn.train([2, 5, 4, 2], stack, cfg, [[0, 1], [2]])
        arrays = []
        for model, _ in (r for cell in results for r in cell):
            for layer in model.layers:
                for a in (layer.weight, layer.bias):
                    assert a.dtype == np.float64
                    assert a.flags.c_contiguous and a.flags.owndata
                    arrays.append(a)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])


def reference_loss(logits, labels, loss):
    """The float64 loss and output gradient, class axis reduced whole."""
    r, b, c = logits.shape
    if loss == "softmax_cross_entropy":
        shifted = logits - logits.max(axis=2, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=2,
                                                         keepdims=True))
        picked = (np.arange(r)[:, None], np.arange(b), labels)
        grad = np.exp(log_probs)
        grad[picked] -= 1.0
        return -log_probs[picked].sum(axis=1) / b, grad / b
    diff = logits - np.eye(c)[labels]
    return (diff ** 2).reshape(r, -1).sum(axis=1) / (b * c), \
        2.0 * diff / (b * c)


class TestLoss:
    LOSSES = ["softmax_cross_entropy", "mean_squared_error"]

    @staticmethod
    def batch(rng, c, r=4, b=7):
        logits = 3.0 * rng.standard_normal((r, b, c))
        labels = rng.integers(0, c, (r, b))
        onehot = np.eye(c, dtype=np.float32)[labels]
        return logits, labels, onehot

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("c", [1, 2, 3, 10])
    def test_float32_matches_float64_reference(self, rng, c, loss):
        logits, labels, onehot = self.batch(rng, c)
        value, grad = nn._loss_and_output_grad(logits.astype(np.float32),
                                               onehot, loss)
        assert value.dtype == grad.dtype == np.float32
        ref_value, ref_grad = reference_loss(logits, labels, loss)
        np.testing.assert_allclose(value, ref_value, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-5, atol=1e-6)

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("c", [1, 2, 3, 10])
    def test_non_finite_logit_spoils_only_its_run(self, rng, c, loss, bad):
        logits, _, onehot = self.batch(rng, c)
        logits = logits.astype(np.float32)
        clean, _ = nn._loss_and_output_grad(logits, onehot, loss)
        logits[1, 3, c - 1] = bad
        value, _ = nn._loss_and_output_grad(logits, onehot, loss)
        assert np.isfinite(value).tolist() == [True, False, True, True]
        np.testing.assert_array_equal(value[[0, 2, 3]], clean[[0, 2, 3]])


class TestStackedTrain:
    """A stack of R runs must replay the R one-seed trainings exactly."""

    @given(seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                          max_size=5),
           hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
           loss=st.sampled_from(["softmax_cross_entropy",
                                 "mean_squared_error"]),
           batch_size=st.integers(1, 9), steps=st.integers(0, 25),
           n_classes=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_stack_equals_one_seed_calls(self, seeds, hidden, loss,
                                         batch_size, steps, n_classes):
        ds = relabelled(separable_blobs(n=20, seed=7), n_classes)
        sizes = [2, *hidden, n_classes]
        cfg = nn.TrainConfig(learning_rate=0.3, steps=steps,
                             batch_size=batch_size, loss=loss)
        stacked = train_on(sizes, ds, cfg, seeds)
        assert len(stacked) == len(seeds)
        for seed, result in zip(seeds, stacked):
            [solo] = train_on(sizes, ds, cfg, [seed])
            assert_same_result(result, solo)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("loss,learning_rate", [
        ("mean_squared_error", 0.5), ("softmax_cross_entropy", 50.0)])
    def test_diverged_runs_leave_the_others_untouched(self, loss,
                                                      learning_rate):
        ds = separable_blobs(seed=5)
        cfg = nn.TrainConfig(learning_rate=learning_rate, steps=200,
                             batch_size=16, loss=loss)
        seeds = list(range(8))
        stacked = train_on([2, 4, 2], ds, cfg, seeds)
        diverged = [isinstance(r, nn.TrainingDivergedError) for r in stacked]
        assert any(diverged) and not all(diverged)
        for seed, result in zip(seeds, stacked):
            [solo] = train_on([2, 4, 2], ds, cfg, [seed])
            assert_same_result(result, solo)

    @staticmethod
    def mixed(base, seed, scale=1.0):
        """`base` with its features mixed by a seeded affine map; same
        labels, so it stacks with `base`."""
        rng = np.random.default_rng(seed)
        m, b = rng.standard_normal((2, 2)), rng.standard_normal(2)
        return nn.ArrayDataset(scale * (base.train_x @ m + b), base.train_y,
                               scale * (base.test_x @ m + b), base.test_y)

    @given(n_datasets=st.integers(1, 4), data=st.data(),
           hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
           loss=st.sampled_from(["softmax_cross_entropy",
                                 "mean_squared_error"]),
           batch_size=st.integers(1, 9), steps=st.integers(0, 25),
           n_classes=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_dataset_stack_equals_per_dataset_calls(self, n_datasets, data,
                                                    hidden, loss, batch_size,
                                                    steps, n_classes):
        base = relabelled(separable_blobs(n=20, seed=7), n_classes)
        datasets = [base, *(self.mixed(base, k) for k in range(1,
                                                               n_datasets))]
        seeds = [data.draw(st.lists(st.integers(0, 2 ** 64 - 1), max_size=3))
                 for _ in datasets]
        sizes = [2, *hidden, n_classes]
        cfg = nn.TrainConfig(learning_rate=0.3, steps=steps,
                             batch_size=batch_size, loss=loss)
        stacked = nn.train(sizes, nn.DatasetStack.of(datasets), cfg, seeds)
        assert [len(results) for results in stacked] == list(map(len, seeds))
        for ds, ds_seeds, results in zip(datasets, seeds, stacked):
            for result, solo in zip(results, train_on(sizes, ds, cfg,
                                                      ds_seeds),
                                    strict=True):
                assert_same_result(result, solo)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("loss,learning_rate,scale", [
        ("mean_squared_error", 0.05, 1e3),
        ("softmax_cross_entropy", 0.5, 1e4)])
    def test_diverging_dataset_leaves_the_others_untouched(
            self, loss, learning_rate, scale):
        base = separable_blobs(seed=5)
        datasets = [base, self.mixed(base, 1, scale), self.mixed(base, 2)]
        seeds = [[0, 1], [2, 3, 4], [5]]
        cfg = nn.TrainConfig(learning_rate=learning_rate, steps=200,
                             batch_size=16, loss=loss)
        stacked = nn.train([2, 4, 2], nn.DatasetStack.of(datasets), cfg,
                           seeds)
        diverged = [[isinstance(r, nn.TrainingDivergedError) for r in results]
                    for results in stacked]
        assert diverged == [[False] * 2, [True] * 3, [False]]
        for ds, ds_seeds, results in zip(datasets, seeds, stacked):
            for result, solo in zip(results, train_on([2, 4, 2], ds, cfg,
                                                      ds_seeds),
                                    strict=True):
                assert_same_result(result, solo)

    @pytest.mark.parametrize("n", [5, 1000, 2 ** 31 + 1])
    @pytest.mark.parametrize("batch_size", [1, 3, 17])
    def test_bulk_index_draw_equals_per_step_draws(self, n, batch_size):
        # The trainer draws all of a run's batch indices in one call after
        # its initialization; that must be the per-step sequence. At
        # n = 2**31 + 1 about half of the bounded draws are rejected.
        steps, seed = 40, 2 ** 63 + 11
        bulk_rng = np.random.default_rng(np.uint64(seed))
        nn.init_mlp([3, 5, 2], bulk_rng)
        bulk = bulk_rng.integers(0, n, size=(steps, batch_size))
        step_rng = np.random.default_rng(np.uint64(seed))
        nn.init_mlp([3, 5, 2], step_rng)
        per_step = [step_rng.integers(0, n, size=batch_size)
                    for _ in range(steps)]
        np.testing.assert_array_equal(bulk, np.stack(per_step))


def reference_sgd_step(model, x, y, learning_rate, loss):
    """`model` after one float64 SGD step on the batch (x, y), by hand."""
    inputs, h = [], x
    for i, layer in enumerate(model.layers):
        if i > 0:
            h = np.maximum(h, 0.0)
        inputs.append(h)
        h = h @ layer.weight + layer.bias
    b, c = h.shape
    onehot = np.eye(c)[y]
    if loss == "softmax_cross_entropy":
        p = np.exp(h - h.max(axis=1, keepdims=True))
        g = (p / p.sum(axis=1, keepdims=True) - onehot) / b
    else:
        g = 2.0 * (h - onehot) / (b * c)
    layers = []
    for layer, a in zip(reversed(model.layers), reversed(inputs)):
        layers.append(nn.Affine(layer.weight - learning_rate * (a.T @ g),
                                layer.bias - learning_rate * g.sum(axis=0)))
        g = (g @ layer.weight.T) * (a > 0.0)
    return nn.Model(layers[::-1])


class TestOneStep:
    """One SGD step of `train`, against a float64 step by hand: pins where
    the first bias and the learning rate enter the stacked step."""

    @pytest.mark.parametrize("loss", ["softmax_cross_entropy",
                                      "mean_squared_error"])
    @pytest.mark.parametrize("hidden", [[5], [4, 3]], ids=["1", "2"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_one_step_equals_float64_oracle(self, loss, hidden, n_classes):
        rng = np.random.default_rng(8)
        n, d, batch, lr = 40, 6, 16, 0.5
        x = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
        y = np.arange(n) % n_classes
        ds = nn.ArrayDataset(x, y, x, y)
        sizes = [d, *hidden, n_classes]
        cfg = nn.TrainConfig(learning_rate=lr, steps=1, batch_size=batch,
                             loss=loss)
        seeds = [3, 11]
        for seed, (model, _) in zip(seeds, train_on(sizes, ds, cfg, seeds),
                                    strict=True):
            # The run's init, then its batch, from its own stream; training
            # starts from the init rounded to float32.
            run_rng = np.random.default_rng(np.uint64(seed))
            init = nn.init_mlp(sizes, run_rng)
            [idx] = run_rng.integers(0, n, size=(1, batch))
            for layer in init.layers:
                layer.weight = layer.weight.astype(np.float32).astype(float)
                layer.bias = layer.bias.astype(np.float32).astype(float)
            want = reference_sgd_step(init, x[idx], y[idx], lr, loss)
            for got, ref, start in zip(model.layers, want.layers,
                                       init.layers, strict=True):
                # The step moves every layer by more than the tolerance.
                assert np.abs(ref.weight - start.weight).max() > 1e-3
                np.testing.assert_allclose(got.weight, ref.weight,
                                           rtol=1e-5, atol=1e-6)
                np.testing.assert_allclose(got.bias, ref.bias, rtol=1e-5,
                                           atol=1e-6)


class TestScoring:
    """Each run's returned accuracy must be the one `accuracy` gives the
    model `train` returns for it, its first bias split back out."""

    @given(n_datasets=st.integers(1, 3), data=st.data(),
           hidden=st.lists(st.integers(1, 6), max_size=2),
           n_classes=st.integers(1, 4), extra_outputs=st.integers(0, 1),
           steps=st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_each_run_scores_as_accuracy(self, n_datasets, data, hidden,
                                         n_classes, extra_outputs, steps):
        # One class leaves labels all 0, so a one-output model thresholds.
        base = relabelled(separable_blobs(n=20, seed=7), n_classes)
        datasets = [base, *(TestStackedTrain.mixed(base, k)
                            for k in range(1, n_datasets))]
        seeds = [data.draw(st.lists(st.integers(0, 2 ** 64 - 1), max_size=3))
                 for _ in datasets]
        sizes = [2, *hidden, n_classes + extra_outputs]
        cfg = nn.TrainConfig(learning_rate=0.3, steps=steps, batch_size=8,
                             loss="mean_squared_error")
        stacked = nn.train(sizes, nn.DatasetStack.of(datasets), cfg, seeds)
        for ds, results in zip(datasets, stacked, strict=True):
            for result in results:
                if isinstance(result, nn.TrainingDivergedError):
                    continue
                model, acc = result
                assert acc == nn.accuracy(model, ds.test_x, ds.test_y)


class TestLeastSquares:
    @staticmethod
    def dataset(x, y):
        return nn.ArrayDataset(x, y, x, y)

    def test_exact_interpolation_on_identity(self):
        ds = self.dataset(np.eye(2), np.array([1, 0]))
        model = nn.fit_least_squares(ds, ridge=0.0)
        np.testing.assert_allclose(model.layers[0].weight[:, 0], [1.0, 0.0],
                                   atol=1e-12)

    def test_huge_ridge_shrinks_weights_to_zero(self, rng):
        ds = self.dataset(rng.standard_normal((30, 3)),
                          rng.integers(0, 2, 30))
        model = nn.fit_least_squares(ds, ridge=1e12)
        assert np.abs(model.layers[0].weight).max() < 1e-9

    def test_matches_normal_equation_oracle(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.integers(0, 2, 50)
        ds = self.dataset(x, y)
        model = nn.fit_least_squares(ds, ridge=0.0)
        w_oracle = np.linalg.inv(x.T @ x) @ x.T @ y.astype(float)
        np.testing.assert_allclose(model.layers[0].weight[:, 0], w_oracle,
                                   atol=1e-8)

    def test_singular_system_raises_without_ridge(self):
        x = np.ones((10, 2))  # duplicate columns
        ds = self.dataset(x, np.zeros(10, dtype=int))
        with pytest.raises(nn.SingularMatrixError):
            nn.fit_least_squares(ds, ridge=0.0)
