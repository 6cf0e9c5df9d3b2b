"""Dataset containers, IDX/CSV ingestion, deterministic splitting, flattening.

Images live in float64 arrays of shape (N, H, W, C) with values in [0, 1];
labels are int64 class ids. Both are frozen after construction so datasets
can be shared freely across threads.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShiftDetectError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class TensorDataset:
    """An image tensor in [0, 1] plus integer class labels."""

    images: np.ndarray  # (N, H, W, C) float64 in [0, 1]
    labels: np.ndarray  # (N,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        images = np.ascontiguousarray(np.asarray(self.images, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if images.ndim != 4:
            raise ShiftDetectError(f"images must be (N, H, W, C), got shape {images.shape}")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ShiftDetectError(
                f"labels length {labels.shape} does not match image count {images.shape[0]}"
            )
        if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
            raise ShiftDetectError("pixel values must lie in [0, 1]")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ShiftDetectError(f"labels must lie in [0, {self.num_classes}), got range "
                                   f"[{labels.min()}, {labels.max()}]")
        images.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.images.shape[1:]

    @property
    def dim(self) -> int:
        h, w, c = self.image_shape
        return h * w * c

    def subset(self, indices) -> "TensorDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return TensorDataset(self.images[idx], self.labels[idx], self.num_classes)

    def class_indices(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id)


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train/val/test parts drawn from one pool."""

    train: TensorDataset
    val: TensorDataset
    test: TensorDataset
    seed: int


def _read_exact(f, count: int, path) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise ShiftDetectError(f"{path}: expected {count} more bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path) -> TensorDataset:
    """Read an IDX image/label file pair (big-endian, unsigned byte payload).

    Image header: magic 0x00000803, u32 count, u32 rows, u32 cols, then
    count*rows*cols pixel bytes. Label header: magic 0x00000801, u32 count,
    then count label bytes. Pixels are scaled by 1/255 into [0, 1]. The
    class count is the largest label + 1.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise ShiftDetectError(
                f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        raw = _read_exact(f, count * rows * cols, images_path)
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    images = pixels.reshape(count, rows, cols, 1)

    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise ShiftDetectError(
                f"{labels_path}: magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(f, label_count, labels_path), dtype=np.uint8)
    if label_count != count:
        raise ShiftDetectError(f"{label_count} labels for {count} images")

    labels = labels.astype(np.int64)
    return TensorDataset(images, labels, int(labels.max()) + 1 if labels.size else 0)


def write_idx(ds: TensorDataset, images_path, labels_path) -> None:
    """Write a dataset as an IDX pair; pixels are quantized to the byte grid.

    Only single-channel images and labels in [0, 255] are representable in
    this format.
    """
    h, w, c = ds.image_shape
    if c != 1:
        raise ShiftDetectError(f"IDX stores single-channel images, got {c} channels")
    if ds.labels.size and ds.labels.max() > 255:
        raise ShiftDetectError(f"IDX stores labels as bytes in [0, 255], got {ds.labels.max()}")
    pixels = np.rint(ds.images * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, ds.n, h, w))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, ds.n))
        f.write(ds.labels.astype(np.uint8).tobytes())


def load_csv(path) -> TensorDataset:
    """Read one sample per row: float pixels in [0, 1], integer label >= 0 last.

    Each row is a 1-pixel-high image, and the class count is the largest
    label + 1. A row that does not parse, whose length differs from the
    first row's, or that holds a pixel outside [0, 1] or a negative label
    raises ShiftDetectError("<path> line <n>: ...").
    """
    rows = []
    labels = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            for line in reader:
                if not line:
                    continue
                if rows and len(line) != len(rows[0]) + 1:
                    raise ValueError(f"{len(line)} fields, expected {len(rows[0]) + 1}")
                pixels, label = [float(v) for v in line[:-1]], int(line[-1])
                if not all(0.0 <= v <= 1.0 for v in pixels):  # NaN fails too
                    raise ValueError("pixel values must lie in [0, 1]")
                if label < 0:
                    raise ValueError(f"labels must be >= 0, got {label}")
                rows.append(pixels)
                labels.append(label)
        except (ValueError, csv.Error) as exc:
            raise ShiftDetectError(f"{path} line {reader.line_num}: {exc}") from exc
    width = len(rows[0]) if rows else 0
    images = np.asarray(rows, dtype=np.float64).reshape(len(rows), 1, width, 1)
    return TensorDataset(images, labels, max(labels) + 1 if labels else 0)


def write_csv(ds: TensorDataset, path) -> None:
    """Inverse of load_csv; floats are written with round-trip precision."""
    flat = flatten(ds)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        for row, label in zip(flat, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def split_indices(n: int, n_train: int, n_val: int, n_test: int,
                  seed: int | np.random.SeedSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices of the train/val/test parts random_split takes from n rows."""
    total = n_train + n_val + n_test
    if total > n:
        raise ShiftDetectError(f"requested {total} samples from a pool of {n}")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:total]


def random_split(pool: TensorDataset, n_train: int, n_val: int, n_test: int,
                 seed: int) -> DataSplit:
    """Partition a pool into disjoint train/val/test parts of exact sizes.

    A single permutation of the pool (numpy PCG64 generator, Fisher-Yates
    shuffle) is sliced into the three parts, so equal seeds reproduce the
    split bit-exactly. Leftover samples beyond the requested counts are
    left unused.
    """
    train, val, test = split_indices(pool.n, n_train, n_val, n_test, seed)
    return DataSplit(train=pool.subset(train), val=pool.subset(val),
                     test=pool.subset(test), seed=seed)


def flatten(ds: TensorDataset) -> np.ndarray:
    """Row i is image i in raster order (rows, cols, channels); shape (N, H*W*C)."""
    return ds.images.reshape(ds.n, ds.dim)
