import hashlib
from dataclasses import replace

import numpy as np
import pytest

from roarbench import experiment, nn, pipeline, validation
from roarbench.config import ConfigError, DatasetSpec, ExperimentConfig
from roarbench.toydata import (GROUND_TRUTH, INVERTED, RANDOM, generate_toy,
                               ground_truth_ranking)

# Reference-run oracle: least squares (ridge 1e-8, bias) on the seed-9
# dataset with the default 10000/2000 split, frozen once.
FROZEN_BASELINE_SEED = 9
FROZEN_BASELINE_ACCURACY = 0.849

FROZEN_DIGESTS = {
    9: {"train_x": "76256738c7d91f93afaed444dc11eadf"
                   "42bf538609c51d19069cdbe058d7e268",
        "train_y": "98cd18292793330c497088745f31a1cc"
                   "e454d1ca7393990aabf0f2e9d86a225d",
        "test_x": "1d0abc82fb3c54ade5c01c26668269d3"
                  "bea0bf21c585ebf87854f66cd0dfaca3",
        "test_y": "6cc548d7b31068ec02bb67ad6c26cd48"
                  "7b7555d8894da444bbdb41b8fc898985"},
    13: {"train_x": "f65c4344ad764b87d70ee11a0169cac3"
                    "85b10048406c9487ffbd2c5e30e80ccf",
         "train_y": "49d57148af294636f4c146f7273612327"
                    "dd57758993282b6cc5f280c244a6859",
         "test_x": "2a6195a33ce189670e330c48af1f3888"
                   "32da0a1a120ee560e0a77ffea76fabab",
         "test_y": "275dd3e0462f29b7ff437ec580252a08"
                   "42b8c1354f30ca702f462a2064d8191a"},
}


@pytest.fixture(scope="module")
def toy():
    return generate_toy(seed=FROZEN_BASELINE_SEED)


class TestGenerator:
    def test_uninformative_coefficients_are_exactly_zero(self, toy):
        assert np.all(toy.signal_coeffs[4:] == 0.0)
        assert np.all(toy.signal_coeffs[:4] != 0.0)

    def test_label_balance(self):
        ds = generate_toy(n_train=8_000, seed=1)
        labels = np.concatenate([ds.train_y, ds.test_y])
        # Binomial(1e4, 0.5): 4 sigma is 0.02.
        assert abs(labels.mean() - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        a = generate_toy(80, 20, seed=3)
        b = generate_toy(80, 20, seed=3)
        for split in ("train_x", "train_y", "test_x", "test_y"):
            np.testing.assert_array_equal(getattr(a, split),
                                          getattr(b, split))

    @pytest.mark.parametrize("seed", sorted(FROZEN_DIGESTS))
    def test_draw_is_frozen(self, seed):
        """The arrays of the default-size draw, as the generator gave them
        when it still returned the unsplit samples and split them after."""
        ds = generate_toy(seed=seed)
        assert {split: hashlib.sha256(getattr(ds, split).tobytes()).hexdigest()
                for split in FROZEN_DIGESTS[seed]} == FROZEN_DIGESTS[seed]

    def test_frozen_least_squares_baseline(self, toy):
        model = nn.fit_least_squares(toy, ridge=1e-8, fit_bias=True)
        assert nn.accuracy(model, toy.test_x, toy.test_y) == \
            FROZEN_BASELINE_ACCURACY

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="n_informative exceeds dim"):
            generate_toy(dim=4, n_informative=5)


class TestReferenceRankings:
    def test_ground_truth_leads_with_informative_indices(self, toy):
        order = ground_truth_ranking(toy, GROUND_TRUTH)
        assert set(order[:4]) == {0, 1, 2, 3}

    def test_inverted_is_elementwise_reversal(self, toy):
        gt = ground_truth_ranking(toy, GROUND_TRUTH)
        np.testing.assert_array_equal(ground_truth_ranking(toy, INVERTED),
                                      gt[::-1])

    def test_random_is_reproducible_permutation(self, toy):
        a = ground_truth_ranking(toy, RANDOM, seed=5)
        b = ground_truth_ranking(toy, RANDOM, seed=5)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.sort(a), np.arange(16))


class TestExchangeability:
    def test_permuting_uninformative_features_keeps_accuracy(self, toy):
        ds = toy
        model = nn.fit_least_squares(ds, ridge=1e-8, fit_bias=True)
        base = nn.accuracy(model, ds.test_x, ds.test_y)

        perm = np.arange(16)
        perm[4:] = 4 + np.random.default_rng(0).permutation(12)
        shuffled = nn.ArrayDataset(ds.train_x[:, perm], ds.train_y,
                                   ds.test_x[:, perm], ds.test_y)
        model_p = nn.fit_least_squares(shuffled, ridge=1e-8, fit_bias=True)
        acc_p = nn.accuracy(model_p, shuffled.test_x, shuffled.test_y)
        assert acc_p == pytest.approx(base, abs=1e-9)


class TestOneDrawPerConfig:
    """Every command takes a toy config's data from `build_context`."""

    CONFIG = ExperimentConfig(seed=13, runs_per_point=1, dataset=DatasetSpec(
        kind="toy", n_train=300, n_test=100))

    def test_toy_validation_retrains_on_the_context_dataset(self,
                                                           monkeypatch):
        seen = []
        run_roar = pipeline.run_roar
        monkeypatch.setattr(pipeline, "run_roar", lambda dataset, *a, **kw:
                            seen.append(dataset) or run_roar(dataset, *a, **kw))
        validation.run_toy_validation(self.CONFIG)
        expected = experiment.build_context(self.CONFIG).dataset
        [dataset] = seen
        for split in ("train_x", "train_y", "test_x", "test_y"):
            np.testing.assert_array_equal(getattr(dataset, split),
                                          getattr(expected, split))

    def test_toy_validation_refuses_another_dataset_kind(self):
        cfg = replace(self.CONFIG, dataset=DatasetSpec(kind="bars"))
        with pytest.raises(ConfigError, match="kind 'toy', not 'bars'"):
            validation.run_toy_validation(cfg)
