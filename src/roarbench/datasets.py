"""Image dataset ingestion: IDX (big-endian) reading and writing, [0,1]
normalization, and a synthetic oriented-bar generator so experiments need no
downloads. Image features are held in the training dtype, `nn.TRAIN_DTYPE`."""

from __future__ import annotations

import struct

import numpy as np

from .nn import TRAIN_DTYPE, ArrayDataset

IDX_UBYTE = 0x08


class IdxFormatError(ValueError):
    pass


def read_idx(path: str) -> np.ndarray:
    """Parse one IDX file (unsigned-byte payload, any dimensionality)."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4:
        raise IdxFormatError(f"{path}: truncated header ({len(data)} bytes)")
    zero1, zero2, dtype, ndim = struct.unpack(">BBBB", data[:4])
    if zero1 != 0 or zero2 != 0 or dtype != IDX_UBYTE:
        raise IdxFormatError(
            f"{path}: bad magic bytes {data[:4].hex()} (expect 0000 08 nn)")
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxFormatError(f"{path}: truncated dimension table")
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    expected = int(np.prod(dims)) + header_len
    if len(data) != expected:
        raise IdxFormatError(
            f"{path}: expected {expected} bytes, found {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, offset=header_len).reshape(dims)


def write_idx(path: str, array: np.ndarray):
    array = np.ascontiguousarray(array, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">BBBB", 0, 0, IDX_UBYTE, array.ndim))
        f.write(struct.pack(f">{array.ndim}I", *array.shape))
        f.write(array.tobytes())


def load_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read an IDX image/label file pair; grayscale images get C = 1."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim == 3:
        images = images[:, :, :, None]
    if images.ndim != 4:
        raise IdxFormatError(
            f"{images_path}: expected 3 or 4 dimensions, found {images.ndim}")
    if labels.ndim != 1:
        raise IdxFormatError(f"{labels_path}: labels must be 1-dimensional")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{images.shape[0]} images vs {labels.shape[0]} labels")
    return images, labels


def make_image_dataset(train_images: np.ndarray, train_labels: np.ndarray,
                       test_images: np.ndarray, test_labels: np.ndarray
                       ) -> ArrayDataset:
    """Flatten uint8 (n, H, W, C) image stacks and divide by 255, so the
    features lie in [0, 1], as TRAIN_DTYPE features; the dataset carries the
    (H, W, C) shape. Each byte's quotient is taken in float64 and rounded
    once, through a 256-entry table, so no float64 copy of a split is made.
    """
    scale = (np.arange(256) / 255.0).astype(TRAIN_DTYPE)
    return ArrayDataset(
        train_x=scale[train_images.reshape(len(train_images), -1)],
        train_y=train_labels.astype(np.int64),
        test_x=scale[test_images.reshape(len(test_images), -1)],
        test_y=test_labels.astype(np.int64),
        image_shape=tuple(train_images.shape[1:]),
    )


def load_idx_dataset(train_images_path, train_labels_path,
                     test_images_path, test_labels_path) -> ArrayDataset:
    train = load_idx(train_images_path, train_labels_path)
    test = load_idx(test_images_path, test_labels_path)
    if train[0].shape[1:] != test[0].shape[1:]:
        raise IdxFormatError(
            f"{train_images_path} holds images of shape {train[0].shape[1:]}"
            f", {test_images_path} of shape {test[0].shape[1:]}")
    return make_image_dataset(*train, *test)


def generate_bars(n_train: int, n_test: int, size: int = 12,
                  noise: float = 0.1, seed: int = 0) -> ArrayDataset:
    """Two-class oriented-bar images: one bright horizontal (class 0) or
    vertical (class 1) bar at a random position, plus clipped Gaussian noise.
    The images are drawn in float64 and rounded once to TRAIN_DTYPE.
    """
    rng = np.random.default_rng(np.uint64(seed))

    def batch(n):
        images = np.zeros((n, size, size))
        labels = rng.integers(0, 2, size=n)
        positions = rng.integers(0, size, size=n)
        intensity = rng.uniform(0.6, 1.0, size=n)
        rows, cols = labels == 0, labels == 1
        images[rows, positions[rows], :] = intensity[rows, None]
        images[cols, :, positions[cols]] = intensity[cols, None]
        images = np.clip(images + rng.normal(0, noise, images.shape), 0, 1)
        return (images.reshape(n, size * size).astype(TRAIN_DTYPE),
                labels.astype(np.int64))

    train_x, train_y = batch(n_train)
    test_x, test_y = batch(n_test)
    return ArrayDataset(train_x, train_y, test_x, test_y,
                        image_shape=(size, size, 1))
