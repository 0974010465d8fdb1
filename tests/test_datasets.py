import struct

import numpy as np
import pytest

from roarbench import datasets, nn, pipeline


def write_raw(path, payload: bytes):
    with open(path, "wb") as f:
        f.write(payload)


class TestIdx:
    def test_image_header_arithmetic(self, tmp_path):
        images = np.arange(10 * 28 * 28, dtype=np.uint64).astype(np.uint8)
        images = images.reshape(10, 28, 28)
        path = tmp_path / "images.idx"
        datasets.write_idx(str(path), images)
        assert path.stat().st_size == 4 + 12 + 7840
        loaded = datasets.read_idx(str(path))
        assert loaded.shape == (10, 28, 28)

    def test_labels_file(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_raw(path, struct.pack(">BBBBI", 0, 0, 8, 1, 10) + bytes(10))
        labels = datasets.read_idx(str(path))
        assert labels.shape == (10,)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        original = rng.integers(0, 256, (7, 5, 4), dtype=np.uint8)
        path = tmp_path / "data.idx"
        datasets.write_idx(str(path), original)
        np.testing.assert_array_equal(datasets.read_idx(str(path)), original)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        write_raw(path, b"\xff\xff\x08\x01" + struct.pack(">I", 0))
        with pytest.raises(datasets.IdxFormatError, match="magic"):
            datasets.read_idx(str(path))

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        path = tmp_path / "short.idx"
        write_raw(path, struct.pack(">BBBBI", 0, 0, 8, 1, 10) + bytes(4))
        with pytest.raises(datasets.IdxFormatError,
                           match="expected 18 bytes, found 12"):
            datasets.read_idx(str(path))

    def test_load_idx_pairs_grayscale_channel(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (6, 8, 8), dtype=np.uint8)
        labels = rng.integers(0, 3, 6, dtype=np.uint8)
        datasets.write_idx(str(tmp_path / "im.idx"), images)
        datasets.write_idx(str(tmp_path / "lb.idx"), labels)
        loaded_images, loaded_labels = datasets.load_idx(
            str(tmp_path / "im.idx"), str(tmp_path / "lb.idx"))
        assert loaded_images.shape == (6, 8, 8, 1)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(1)
        datasets.write_idx(str(tmp_path / "im.idx"),
                           rng.integers(0, 256, (6, 4, 4), dtype=np.uint8))
        datasets.write_idx(str(tmp_path / "lb.idx"),
                           rng.integers(0, 3, 5, dtype=np.uint8))
        with pytest.raises(datasets.IdxFormatError, match="6 images"):
            datasets.load_idx(str(tmp_path / "im.idx"),
                              str(tmp_path / "lb.idx"))

    def test_train_and_test_image_shapes_must_match(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = []
        for split, side in (("train", 6), ("test", 7)):
            for part, array in (
                    ("images", rng.integers(0, 256, (4, side, side),
                                            dtype=np.uint8)),
                    ("labels", rng.integers(0, 2, 4, dtype=np.uint8))):
                paths.append(str(tmp_path / f"{split}-{part}.idx"))
                datasets.write_idx(paths[-1], array)
        with pytest.raises(datasets.IdxFormatError) as err:
            datasets.load_idx_dataset(*paths)
        for name in (paths[0], paths[2], "(6, 6, 1)", "(7, 7, 1)"):
            assert name in str(err.value)


def image_dataset(rng, n=12, m=6, h=5, w=4, c=3):
    return datasets.make_image_dataset(
        rng.integers(0, 256, (n, h, w, c), dtype=np.uint8),
        rng.integers(0, 2, n, dtype=np.uint8),
        rng.integers(0, 256, (m, h, w, c), dtype=np.uint8),
        rng.integers(0, 2, m, dtype=np.uint8))


def channel_means(ds):
    """Per-channel train mean, as the replacement values of every pixel."""
    replacement = pipeline.replacement_matrix(ds)
    assert (replacement == replacement[0]).all()
    return replacement[0]


class TestChannelMeans:
    def test_all_zero(self):
        zeros = np.zeros((3, 4, 4, 2), np.uint8)
        ds = datasets.make_image_dataset(zeros, np.zeros(3, np.uint8),
                                         zeros[:2], np.zeros(2, np.uint8))
        np.testing.assert_array_equal(channel_means(ds), [0.0, 0.0])

    def test_constant_half(self):
        images = np.full((1, 4, 4, 1), 128, np.uint8)
        ds = datasets.make_image_dataset(images, np.zeros(1, np.uint8),
                                         images, np.zeros(1, np.uint8))
        np.testing.assert_allclose(channel_means(ds), [128 / 255])

    def test_matches_two_pass_oracle(self, rng):
        ds = image_dataset(rng)
        means = channel_means(ds)
        # Independent summation, one channel at a time.
        stacked = ds.train_x.reshape(-1, 5, 4, 3)
        for c in range(3):
            total = 0.0
            count = 0
            for image in stacked:
                for row in image[:, :, c]:
                    total += float(row.sum())
                    count += len(row)
            assert abs(means[c] - total / count) < 1e-12


class TestNormalization:
    def test_features_are_the_float64_quotient_rounded_once(self):
        raw = np.arange(256, dtype=np.uint8).reshape(4, 8, 8, 1)
        ds = datasets.make_image_dataset(raw, np.zeros(4, np.uint8),
                                         raw[:1], np.zeros(1, np.uint8))
        want = (raw.reshape(4, -1) / 255.0).astype(nn.TRAIN_DTYPE)
        assert ds.train_x.dtype == ds.test_x.dtype == nn.TRAIN_DTYPE
        assert ds.train_x.tobytes() == want.tobytes()
        assert ds.test_x.tobytes() == want[:1].tobytes()

    def test_values_in_unit_range(self, rng):
        ds = image_dataset(rng)
        assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0

    def test_scaling_by_255_recovers_raw_bytes(self, rng):
        raw = rng.integers(0, 256, (4, 3, 3, 1), dtype=np.uint8)
        ds = datasets.make_image_dataset(raw, np.zeros(4, np.uint8),
                                         raw, np.zeros(4, np.uint8))
        np.testing.assert_allclose(
            ds.train_x * 255, raw.reshape(4, -1).astype(float), atol=1e-12)


class TestBars:
    def test_shapes_and_metadata(self):
        ds = datasets.generate_bars(30, 10, size=9, seed=0)
        assert ds.train_x.shape == (30, 81)
        assert ds.image_shape == (9, 9, 1)
        assert nn.DatasetStack.of([ds]).n_classes == 2

    def test_deterministic(self):
        a = datasets.generate_bars(20, 5, seed=4)
        b = datasets.generate_bars(20, 5, seed=4)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)

    @pytest.mark.parametrize("n", [0, 1, 37])
    @pytest.mark.parametrize("size", [2, 12])
    @pytest.mark.parametrize("seed", [0, 5, 2 ** 40 + 3])
    def test_images_match_a_per_image_loop(self, n, size, seed):
        # Oracle: the same draws, each bar painted one image at a time, and
        # rounded once to the training dtype.
        rng = np.random.default_rng(np.uint64(seed))

        def batch(count):
            images = np.zeros((count, size, size))
            labels = rng.integers(0, 2, size=count)
            positions = rng.integers(0, size, size=count)
            intensity = rng.uniform(0.6, 1.0, size=count)
            for i in range(count):
                if labels[i] == 0:
                    images[i, positions[i], :] = intensity[i]
                else:
                    images[i, :, positions[i]] = intensity[i]
            images = np.clip(images + rng.normal(0, 0.1, images.shape), 0, 1)
            return (images.reshape(count, size * size).astype(nn.TRAIN_DTYPE),
                    labels)

        train, test = batch(n), batch(n // 2)
        ds = datasets.generate_bars(n, n // 2, size=size, seed=seed)
        for got, want in ((ds.train_x, train[0]), (ds.train_y, train[1]),
                          (ds.test_x, test[0]), (ds.test_y, test[1])):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_classes_are_learnable(self):
        from roarbench import nn
        image = datasets.generate_bars(400, 100, size=8, seed=2)
        [[(_, acc)]] = nn.train([64, 16, 2], nn.DatasetStack.of([image]),
                                nn.TrainConfig(learning_rate=0.2, steps=400,
                                               batch_size=32), [[0]])
        assert acc > 0.9


class TestPipelineReadsTheShape:
    """Bars and IDX datasets carry their (H, W, C) shape, so every pipeline
    entry point ranks pixels by their summed channel scores and replaces
    them with the per-channel train means, with no shape argument."""

    THRESHOLDS = (0.0, 0.3, 0.75)

    @pytest.fixture(params=["bars", "idx"])
    def dataset(self, request, tmp_path):
        if request.param == "bars":
            ds = datasets.generate_bars(12, 6, size=4, seed=1)
            assert ds.image_shape == (4, 4, 1)
            return ds
        rng = np.random.default_rng(5)
        paths = []
        for split, n in (("train", 10), ("test", 6)):
            for part, array in (
                    ("images", rng.integers(0, 256, (n, 3, 4, 2), np.uint8)),
                    ("labels", rng.integers(0, 2, n, np.uint8))):
                paths.append(str(tmp_path / f"{split}-{part}.idx"))
                datasets.write_idx(paths[-1], array)
        ds = datasets.load_idx_dataset(*paths)
        assert ds.image_shape == (3, 4, 2)
        return ds

    @staticmethod
    def expected(ds, x, scores, threshold, mode):
        """Independent per-pixel reference for one modified split, in the
        split's dtype: each channel's mean is taken in float64 and rounded
        to it."""
        h, w, c = ds.image_shape
        means = ds.train_x.reshape(-1, c).mean(axis=0, dtype=np.float64)
        means = means.astype(x.dtype)
        pixel_scores = scores.reshape(len(x), h * w, c).sum(axis=2)
        k = pipeline.n_modified(threshold, h * w)
        pixels = x.reshape(len(x), h * w, c).copy()
        for i in range(len(x)):
            order = np.argsort(-pixel_scores[i], kind="stable")
            pixels[i, order[:k] if mode == pipeline.ROAR else order[k:]] = \
                means
        return pixels.reshape(x.shape)

    @staticmethod
    def scores(ds):
        rng = np.random.default_rng(9)
        return (rng.standard_normal(ds.train_x.shape),
                rng.standard_normal(ds.test_x.shape))

    def cells(self):
        return [(t, mode) for t in self.THRESHOLDS
                for mode in (pipeline.ROAR, pipeline.KAR)]

    def test_generate_modified_datasets(self, dataset):
        train_scores, test_scores = self.scores(dataset)
        out = list(pipeline.generate_modified_datasets(
            dataset, {"e": (train_scores, test_scores)}.items(),
            self.THRESHOLDS,
            modes=(pipeline.ROAR, pipeline.KAR)))
        assert len(out) == len(self.cells())
        for m, (t, mode) in zip(out, self.cells()):
            np.testing.assert_allclose(m.train_x, self.expected(
                dataset, dataset.train_x, train_scores, t, mode), rtol=1e-12)
            np.testing.assert_allclose(m.test_x, self.expected(
                dataset, dataset.test_x, test_scores, t, mode), rtol=1e-12)

    def test_run_roar(self, dataset):
        train_scores, test_scores = self.scores(dataset)
        seen = []

        def trainer(stack, seeds):
            seen.extend((stack.train_x(c), stack.test_x(c))
                        for c in range(stack.size))
            return [[(None, 1.0)] * len(s) for s in seeds]

        grid = pipeline.run_roar(
            dataset, {"e": (train_scores, test_scores)}, self.THRESHOLDS,
            trainer, runs_per_point=2, modes=(pipeline.ROAR, pipeline.KAR))
        assert len(grid.records) == 2 * len(self.cells())
        assert len(seen) == len(self.cells())
        for (train_x, test_x), (t, mode) in zip(seen, self.cells()):
            np.testing.assert_allclose(train_x, self.expected(
                dataset, dataset.train_x, train_scores, t, mode), rtol=1e-12)
            np.testing.assert_allclose(test_x, self.expected(
                dataset, dataset.test_x, test_scores, t, mode), rtol=1e-12)

    def test_run_deletion_metric(self, dataset, monkeypatch):
        _, test_scores = self.scores(dataset)
        seen = []
        monkeypatch.setattr(pipeline, "accuracy",
                            lambda model, x, y: seen.append(x) or 1.0)
        pipeline.run_deletion_metric(dataset, None, [("e", test_scores)],
                                     self.THRESHOLDS)
        assert len(seen) == len(self.THRESHOLDS)
        for test_x, t in zip(seen, self.THRESHOLDS):
            np.testing.assert_allclose(test_x, self.expected(
                dataset, dataset.test_x, test_scores, t, pipeline.ROAR),
                rtol=1e-12)
