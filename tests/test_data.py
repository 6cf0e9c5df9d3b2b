import re
import struct

import numpy as np
import pytest

from shiftdetect.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    TensorDataset,
    flatten,
    load_csv,
    load_idx,
    random_split,
    write_csv,
    write_idx,
)
from shiftdetect.errors import ShiftDetectError


def _write_idx_pair(tmp_path, pixel_bytes, labels, rows=2, cols=2):
    count = len(labels)
    images = tmp_path / "imgs.idx"
    with open(images, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols))
        f.write(bytes(pixel_bytes))
    lab = tmp_path / "labs.idx"
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, count))
        f.write(bytes(labels))
    return images, lab


def test_load_idx_hand_built(tmp_path):
    # two 2x2 images with known bytes -> pixels are bytes / 255
    pixel_bytes = [0, 255, 128, 64, 10, 20, 30, 40]
    images, labels = _write_idx_pair(tmp_path, pixel_bytes, [3, 1])
    ds = load_idx(images, labels)
    assert ds.n == 2
    assert ds.image_shape == (2, 2, 1)
    expected = np.array(pixel_bytes, dtype=np.float64).reshape(2, 2, 2, 1) / 255.0
    assert np.array_equal(ds.images, expected)
    assert list(ds.labels) == [3, 1]
    assert ds.num_classes == 4


def test_load_idx_empty_file(tmp_path):
    images, labels = _write_idx_pair(tmp_path, [], [])
    ds = load_idx(images, labels)
    assert ds.n == 0


def test_load_idx_bad_magic(tmp_path):
    images, labels = _write_idx_pair(tmp_path, [0, 0, 0, 0], [1])
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x09\x99" + images.read_bytes()[4:])
    with pytest.raises(ShiftDetectError, match="bad.idx: magic 0x00000999, expected 0x00000803"):
        load_idx(bad, labels)


def test_load_idx_truncated(tmp_path):
    images, labels = _write_idx_pair(tmp_path, [0, 0, 0, 0], [1])
    clipped = tmp_path / "short.idx"
    clipped.write_bytes(images.read_bytes()[:-2])
    with pytest.raises(ShiftDetectError, match="short.idx: expected 4 more bytes, got 2"):
        load_idx(clipped, labels)


def test_load_idx_label_count_mismatch(tmp_path):
    images, _ = _write_idx_pair(tmp_path, [0, 0, 0, 0], [1])
    labels = tmp_path / "labs2.idx"
    with open(labels, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, 2))
        f.write(bytes([1, 0]))
    with pytest.raises(ShiftDetectError, match="^2 labels for 1 images$"):
        load_idx(images, labels)


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 5, 4, 1)) / 255.0
    ds = TensorDataset(images, rng.integers(0, 3, 7), 3)
    write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
    back = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.labels.max() + 1


def test_write_idx_refuses_labels_above_a_byte(tmp_path):
    images = np.zeros((2, 2, 2, 1))
    write_idx(TensorDataset(images, [255, 0], 256), tmp_path / "i.idx", tmp_path / "l.idx")
    assert list(load_idx(tmp_path / "i.idx", tmp_path / "l.idx").labels) == [255, 0]
    with pytest.raises(ValueError, match="got 300"):
        write_idx(TensorDataset(images, [300, 0], 301), tmp_path / "i2.idx", tmp_path / "l2.idx")
    assert not (tmp_path / "i2.idx").exists()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    ds = TensorDataset(rng.random((6, 1, 9, 1)), rng.integers(0, 4, 6), 4)
    write_csv(ds, tmp_path / "d.csv")
    back = load_csv(tmp_path / "d.csv")
    assert np.array_equal(flatten(back), flatten(ds))
    assert back.image_shape == (1, 9, 1)
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.labels.max() + 1


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    ds = load_csv(path)
    assert ds.n == 0


@pytest.mark.parametrize("second_row, message", [
    ("0.3,1", "2 fields, expected 3"),
    ("0.3,abc,1", "could not convert string to float: 'abc'"),
    ("0.3,0.4,1.5", r"invalid literal for int\(\) with base 10: '1.5'"),
    ("0.3,1.5,1", r"pixel values must lie in \[0, 1\]"),
    ("0.3,nan,1", r"pixel values must lie in \[0, 1\]"),
    ("0.3,0.4,-1", "labels must be >= 0, got -1"),
], ids=["short-row", "text-pixel", "fractional-label", "pixel-above-1", "nan-pixel",
        "negative-label"])
def test_csv_names_the_file_and_line_of_a_bad_row(tmp_path, second_row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"0.1,0.2,0\n{second_row}\n0.5,0.6,1\n")
    with pytest.raises(ShiftDetectError, match=f"^{re.escape(str(path))} line 2: {message}$"):
        load_csv(path)


def test_dataset_invariants_enforced():
    with pytest.raises(ShiftDetectError, match=r"^pixel values must lie in \[0, 1\]$"):
        TensorDataset(np.full((1, 2, 2, 1), 1.5), np.zeros(1, dtype=int), 2)
    with pytest.raises(ShiftDetectError,
                       match=r"^labels must lie in \[0, 2\), got range \[5, 5\]$"):
        TensorDataset(np.zeros((1, 2, 2, 1)), np.array([5]), 2)
    with pytest.raises(ShiftDetectError,
                       match=r"^labels length \(1,\) does not match image count 2$"):
        TensorDataset(np.zeros((2, 2, 2, 1)), np.zeros(1, dtype=int), 2)


def test_dataset_rejects_nan_pixels(tmp_path):
    images = np.zeros((2, 2, 2, 1))
    images[1, 0, 1, 0] = np.nan
    with pytest.raises(ShiftDetectError, match=r"^pixel values must lie in \[0, 1\]$"):
        TensorDataset(images, np.zeros(2, dtype=int), 2)
    path = tmp_path / "nan.csv"
    path.write_text("0.0,nan,0\n")
    with pytest.raises(ShiftDetectError, match=r"line 1: pixel values must lie in \[0, 1\]$"):
        load_csv(path)


def test_random_split_deterministic():
    pool = TensorDataset(np.linspace(0, 1, 10).reshape(10, 1, 1, 1),
                         np.arange(10) % 3, 3)
    a = random_split(pool, 6, 2, 2, seed=7)
    b = random_split(pool, 6, 2, 2, seed=7)
    for part_a, part_b in zip(a, b, strict=True):
        assert np.array_equal(part_a.images, part_b.images)


def test_random_split_is_a_partition():
    pool = TensorDataset(np.linspace(0, 1, 10).reshape(10, 1, 1, 1),
                         np.zeros(10, dtype=int), 1)
    train, val, test = random_split(pool, 6, 2, 2, seed=3)
    assert (train.n, val.n, test.n) == (6, 2, 2)
    seen = np.concatenate([flatten(train), flatten(val), flatten(test)]).ravel()
    assert len(seen) == 10
    assert len(np.unique(seen)) == 10  # pairwise disjoint, union is the pool


def test_random_split_different_seeds_differ():
    rng = np.random.default_rng(0)
    pool = TensorDataset(rng.random((10000, 1, 1, 1)), np.zeros(10000, dtype=int), 1)
    differing = 0
    for seed_a, seed_b in ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)):
        _, _, ta = random_split(pool, 6000, 2000, 2000, seed_a)
        _, _, tb = random_split(pool, 6000, 2000, 2000, seed_b)
        differing += not np.array_equal(flatten(ta), flatten(tb))
    assert differing == 5


def test_random_split_insufficient():
    pool = TensorDataset(np.zeros((5, 1, 1, 1)), np.zeros(5, dtype=int), 1)
    with pytest.raises(ShiftDetectError, match="^requested 6 samples from a pool of 5$"):
        random_split(pool, 4, 1, 1, seed=0)


def test_flatten_shape_and_constant():
    ds = TensorDataset(np.full((1, 28, 28, 1), 0.5), np.zeros(1, dtype=int), 1)
    flat = flatten(ds)
    assert flat.shape == (1, 784)
    assert np.all(flat == 0.5)


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(2)
    ds = TensorDataset(rng.random((4, 3, 5, 2)), rng.integers(0, 2, 4), 2)
    back = TensorDataset(flatten(ds).reshape(ds.n, *ds.image_shape), ds.labels, ds.num_classes)
    assert np.array_equal(back.images, ds.images)
