import numpy as np
import pytest

from roarbench import nn
from conftest import finite_difference, sample_away_from_kinks


def identity_model():
    return nn.Model([nn.Affine(weight=np.eye(2), bias=np.zeros(2))])


def two_layer_model():
    # Hand-evaluated oracle network: 2x2 affine, rectifier, 2x1 affine.
    return nn.Model([
        nn.Affine(weight=np.array([[1.0, 2.0], [3.0, 4.0]]),
                  bias=np.array([1.0, -1.0])),
        nn.Rectifier(),
        nn.Affine(weight=np.array([[1.0], [-1.0]]), bias=np.array([0.5])),
    ])


class TestForward:
    def test_identity_affine(self):
        out = nn.forward(identity_model(), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_rectifier(self):
        model = nn.Model([nn.Rectifier()])
        np.testing.assert_array_equal(
            nn.forward(model, np.array([-1.0, 3.0])), [0.0, 3.0])

    def test_two_layer_hand_oracle(self):
        model = two_layer_model()
        # x=[1,-1]: pre=[-1,-3] -> relu [0,0] -> 0.5
        assert nn.forward(model, np.array([1.0, -1.0]))[0] == 0.5
        # x=[0,1]: pre=[4,3] -> 4-3+0.5 = 1.5
        assert nn.forward(model, np.array([0.0, 1.0]))[0] == 1.5

    def test_batch_matches_single(self):
        model = two_layer_model()
        batch = np.array([[1.0, -1.0], [0.0, 1.0]])
        out = nn.forward(model, batch)
        assert out.shape == (2, 1)
        np.testing.assert_allclose(out[:, 0], [0.5, 1.5])

    def test_shape_mismatch_names_layer(self):
        with pytest.raises(nn.DimensionError, match="layer 0"):
            nn.forward(identity_model(), np.array([1.0, 2.0, 3.0]))


class TestInputGradient:
    def test_single_affine_equals_weight_row(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = nn.Model([nn.Affine(weight=w, bias=np.array([0.5, -0.5]))])
        for target in (0, 1):
            np.testing.assert_array_equal(
                nn.input_gradient(model, np.array([0.7, -1.3]), target),
                w[:, target])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = nn.init_mlp([5, 9, 3], rng)
        x = sample_away_from_kinks(model, rng, 5)
        g = nn.input_gradient(model, x, 1)
        fd = finite_difference(model, x, 1)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)

    def test_guided_noop_on_positive_gradients(self, rng):
        # Non-negative weights and inputs keep every backward entry positive.
        model = nn.Model([
            nn.Affine(weight=rng.uniform(0.1, 1.0, (4, 6)),
                      bias=rng.uniform(0.1, 0.5, 6)),
            nn.Rectifier(),
            nn.Affine(weight=rng.uniform(0.1, 1.0, (6, 2)),
                      bias=np.zeros(2)),
        ])
        x = rng.uniform(0.1, 1.0, 4)
        np.testing.assert_array_equal(
            nn.input_gradient(model, x, 0, mode=nn.STANDARD),
            nn.input_gradient(model, x, 0, mode=nn.GUIDED))

    def test_guided_zeroes_negative_backward_path(self):
        # Identity first layer, both units active; second layer [-1, 1].
        model = nn.Model([
            nn.Affine(weight=np.eye(2), bias=np.zeros(2)),
            nn.Rectifier(),
            nn.Affine(weight=np.array([[-1.0], [1.0]]), bias=np.zeros(1)),
        ])
        x = np.array([2.0, 3.0])
        np.testing.assert_array_equal(
            nn.input_gradient(model, x, 0, mode=nn.STANDARD), [-1.0, 1.0])
        np.testing.assert_array_equal(
            nn.input_gradient(model, x, 0, mode=nn.GUIDED), [0.0, 1.0])

    def test_invalid_target(self):
        with pytest.raises(IndexError):
            nn.input_gradient(identity_model(), np.array([1.0, 2.0]), 5)

    @pytest.mark.parametrize("mode", [nn.STANDARD, nn.GUIDED])
    def test_batch_matches_single(self, rng, mode):
        model = nn.init_mlp([5, 9, 7, 3], rng)
        x = rng.standard_normal((11, 5))
        targets = rng.integers(0, 3, 11)
        batch = nn.input_gradient(model, x, targets, mode=mode)
        assert batch.shape == (11, 5)
        for row, target, g in zip(x, targets, batch):
            np.testing.assert_allclose(
                g, nn.input_gradient(model, row, int(target), mode=mode),
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


class TestTrain:
    def test_separable_blobs_reach_perfect_accuracy(self):
        ds = separable_blobs()
        _, acc = nn.train([2, 8, 2], ds, nn.TrainConfig(
            learning_rate=0.1, steps=400, batch_size=32, seed=0))
        assert acc == 1.0

    def test_constant_inputs_predict_majority_class(self):
        x_train = np.full((200, 3), 0.5)
        y_train = np.array([0] * 140 + [1] * 60)
        x_test = np.full((100, 3), 0.5)
        y_test = np.array([0] * 60 + [1] * 40)
        ds = nn.ArrayDataset(x_train, y_train, x_test, y_test)
        _, acc = nn.train([3, 4, 2], ds, nn.TrainConfig(
            learning_rate=0.1, steps=400, batch_size=32, seed=1))
        assert acc == 0.6  # test-set majority-class frequency

    def test_same_seed_is_bit_identical(self):
        ds = separable_blobs(seed=3)
        cfg = nn.TrainConfig(learning_rate=0.05, steps=150, batch_size=16,
                             seed=42)
        model_a, acc_a = nn.train([2, 6, 2], ds, cfg)
        model_b, acc_b = nn.train([2, 6, 2], ds, cfg)
        assert acc_a == acc_b
        for la, lb in zip(model_a.layers, model_b.layers):
            if isinstance(la, nn.Affine):
                np.testing.assert_array_equal(la.weight, lb.weight)
                np.testing.assert_array_equal(la.bias, lb.bias)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_carries_step_index(self):
        ds = separable_blobs(seed=5)
        with pytest.raises(nn.TrainingDivergedError) as info:
            nn.train([2, 4, 2], ds, nn.TrainConfig(
                learning_rate=1e9, steps=200, batch_size=16, seed=0,
                loss="mean_squared_error"))
        assert info.value.step >= 0

    def test_empty_dataset_rejected(self):
        ds = nn.ArrayDataset(np.empty((0, 2)), np.empty(0, dtype=int),
                             np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            nn.train([2, 2], ds, nn.TrainConfig(batch_size=1))


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
