import struct

import numpy as np
import pytest

from roarbench import datasets, pipeline


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


def image_dataset(rng, n=12, m=6, h=5, w=4, c=3):
    return datasets.make_image_dataset(
        rng.integers(0, 256, (n, h, w, c), dtype=np.uint8),
        rng.integers(0, 2, n, dtype=np.uint8),
        rng.integers(0, 256, (m, h, w, c), dtype=np.uint8),
        rng.integers(0, 2, m, dtype=np.uint8))


def channel_means(ds):
    """Per-channel train mean, as the replacement values of every pixel."""
    replacement = pipeline.replacement_matrix(ds.train_x, ds.image_shape)
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
    def test_values_in_unit_range(self, rng):
        ds = image_dataset(rng)
        assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0

    def test_record_inverts_normalization(self, rng):
        raw = rng.integers(0, 256, (4, 3, 3, 1), dtype=np.uint8)
        ds = datasets.make_image_dataset(raw, np.zeros(4, np.uint8),
                                         raw, np.zeros(4, np.uint8))
        recovered = ds.normalization.invert(ds.train_x)
        np.testing.assert_allclose(
            recovered, raw.reshape(4, -1).astype(float), atol=1e-12)


class TestBars:
    def test_shapes_and_metadata(self):
        ds = datasets.generate_bars(30, 10, size=9, seed=0)
        assert ds.train_x.shape == (30, 81)
        assert ds.image_shape == (9, 9, 1)
        assert ds.n_classes == 2

    def test_deterministic(self):
        a = datasets.generate_bars(20, 5, seed=4)
        b = datasets.generate_bars(20, 5, seed=4)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)

    def test_classes_are_learnable(self):
        from roarbench import nn
        image = datasets.generate_bars(400, 100, size=8, seed=2)
        [(_, acc)] = nn.train([64, 16, 2], image.as_dataset(),
                              nn.TrainConfig(learning_rate=0.2, steps=400,
                                             batch_size=32), [0])
        assert acc > 0.9
