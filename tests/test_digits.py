import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftdetect import digits


def test_make_digits_shapes_and_range():
    ds = digits.make_digits(40, seed=0)
    assert ds.images.shape == (40, 28, 28, 1)
    assert ds.num_classes == 10
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert set(np.unique(ds.labels)) <= set(range(10))


def test_make_digits_deterministic():
    a = digits.make_digits(25, seed=3)
    b = digits.make_digits(25, seed=3)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_digit_classes_are_visually_distinct():
    # mean images of different digits should differ clearly
    ds = digits.make_digits(400, seed=1)
    means = [ds.images[ds.labels == d].mean(axis=0) for d in range(10)]
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.abs(means[i] - means[j]).mean() > 0.01


def _sha256(array, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


# SHA-256 of the float64 images and int64 labels of the per-image renderer;
# any change to the bytes of the corpus (and so to records.csv) shows here;
# 700 = 21 * 32 + 28 ends on a ragged batch of shifts.BATCH_IMAGES
@pytest.mark.parametrize("n, seed, images_sha, labels_sha", [
    (0, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (700, 99,
     "7d16ca1e5fb9e9fc13ce8e1822a0f9b2bb807ddab880bd433f07b5c77433536a",
     "02687171c9e39274abf12e42fe0f4b58cc85b08e9ab1ba4cfae2efd488ce8b12"),
], ids=["empty", "n700"])
def test_make_digits_golden_bytes(n, seed, images_sha, labels_sha):
    ds = digits.make_digits(n, seed=seed)
    assert ds.images.shape == (n, 28, 28, 1)
    assert _sha256(ds.images, "<f8") == images_sha
    assert _sha256(ds.labels, "<i8") == labels_sha


def _render_reference(digit, size, radius, brightness):
    """Per-image renderer: the max over the digit's strokes of each stroke's coverage."""
    margin_x, span_x = size * 0.25, size * 0.5
    margin_y, span_y = size * 0.15, size * 0.7
    ys, xs = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    canvas = np.zeros((size, size))
    for name in digits._DIGIT_SEGMENTS[digit]:
        x0, y0, x1, y1 = digits._SEGMENTS[name]
        ax, ay = margin_x + x0 * span_x, margin_y + y0 * span_y
        bx, by = margin_x + x1 * span_x, margin_y + y1 * span_y
        vx, vy = bx - ax, by - ay
        length_sq = vx * vx + vy * vy
        t = np.clip(((xs - ax) * vx + (ys - ay) * vy) / length_sq, 0.0, 1.0)
        dist = np.hypot(xs - (ax + t * vx), ys - (ay + t * vy))
        canvas = np.maximum(canvas, np.clip(radius + 0.5 - dist, 0.0, 1.0))
    return np.clip(canvas * brightness, 0.0, 1.0)


@st.composite
def _render_problem(draw):
    size = draw(st.integers(1, 40))
    strokes = draw(st.lists(st.tuples(st.integers(0, 9), st.floats(0.0, 3.0),
                                      st.floats(0.0, 1.5)), min_size=1, max_size=6))
    return size, strokes


@given(_render_problem())
def test_min_distance_render_equals_max_over_strokes(problem):
    size, strokes = problem
    labels, radius, brightness = (np.array(v) for v in zip(*strokes))
    out = digits._render_batch(digits._segment_distances(size), labels, radius, brightness)
    assert out.shape == (len(strokes), size, size)
    for j, (digit, r, b) in enumerate(strokes):
        assert out[j].tobytes() == _render_reference(digit, size, r, b).tobytes()
