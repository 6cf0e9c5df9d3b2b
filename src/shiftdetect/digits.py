"""Procedural handwritten-digit-style corpus for demos and desk-scale runs.

Digits are rendered from seven-segment stroke templates with per-sample
jitter (rotation, translation, zoom, stroke width, brightness, pixel
noise), giving a deterministic labeled image dataset with MNIST-like
geometry (28x28x1, 10 classes) without bundling or downloading anything.
"""

from __future__ import annotations

import numpy as np

from .data import DataSplit, TensorDataset
from .shifts import BATCH_IMAGES, affine_transform_images

# Segment endpoints in a unit box (x0, y0, x1, y1), y growing downward.
_SEGMENTS = {
    "A": (0.15, 0.05, 0.85, 0.05),
    "B": (0.85, 0.05, 0.85, 0.50),
    "C": (0.85, 0.50, 0.85, 0.95),
    "D": (0.15, 0.95, 0.85, 0.95),
    "E": (0.15, 0.50, 0.15, 0.95),
    "F": (0.15, 0.05, 0.15, 0.50),
    "G": (0.15, 0.50, 0.85, 0.50),
}

_DIGIT_SEGMENTS = {
    0: "ABCDEF", 1: "BC", 2: "ABGED", 3: "ABCDG", 4: "FGBC",
    5: "AFGCD", 6: "AFGEDC", 7: "ABC", 8: "ABCDEFG", 9: "ABCDFG",
}

IMAGE_SIZE = 28


# Bounds of the six per-image style draws, in draw order: stroke radius,
# brightness, rotation (degrees), x and y translation, zoom.
_STYLE_LOW = np.array([0.9, 0.75, -12.0, -0.06, -0.06, 0.95])
_STYLE_SPAN = np.array([1.6, 1.0, 12.0, 0.06, 0.06, 1.15]) - _STYLE_LOW


def _segment_distances(size: int) -> np.ndarray:
    """(10, size, size) distance from each pixel to the nearest stroke of each digit."""
    margin_x, span_x = size * 0.25, size * 0.5
    margin_y, span_y = size * 0.15, size * 0.7
    ys, xs = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    dists = {}
    for name, (x0, y0, x1, y1) in _SEGMENTS.items():
        ax, ay = margin_x + x0 * span_x, margin_y + y0 * span_y
        bx, by = margin_x + x1 * span_x, margin_y + y1 * span_y
        vx, vy = bx - ax, by - ay
        length_sq = vx * vx + vy * vy
        t = np.clip(((xs - ax) * vx + (ys - ay) * vy) / length_sq, 0.0, 1.0)
        dists[name] = np.hypot(xs - (ax + t * vx), ys - (ay + t * vy))
    return np.stack([np.minimum.reduce([dists[name] for name in _DIGIT_SEGMENTS[d]])
                     for d in range(10)])


def _render_batch(table: np.ndarray, labels: np.ndarray, radius: np.ndarray,
                  brightness: np.ndarray) -> np.ndarray:
    """Anti-aliased strokes: pixel value falls off linearly at the edge.

    clip(radius + 0.5 - d, 0, 1) never increases with d, so one clip of the
    nearest-stroke distance equals the max over the digit's strokes.
    """
    coverage = np.clip((radius + 0.5)[:, None, None] - table[labels], 0.0, 1.0)
    return np.clip(coverage * brightness[:, None, None], 0.0, 1.0)


def make_digits(n: int, seed: int = 0, size: int = IMAGE_SIZE,
                rotation_offsets: dict[int, float] | None = None,
                noise_sigma: float = 0.03) -> TensorDataset:
    """Generate n labeled digit images with randomized style and pose.

    rotation_offsets adds a systematic per-class rotation bias on top of
    the random jitter, which is how a deliberately non-iid subpopulation
    can be produced (all other style draws stay identically distributed).
    Images are rendered and transformed in batches; the random draws keep
    their per-image order, so the output does not depend on the batch size.
    """
    rotation_offsets = rotation_offsets or {}
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    images = np.empty((n, size, size, 1))
    table = _segment_distances(size)
    for start in range(0, n, BATCH_IMAGES):
        stop = min(start + BATCH_IMAGES, n)
        style = np.empty((stop - start, 6))
        for j, i in enumerate(range(start, stop)):
            # Generator.uniform's own formula, low + (high - low) * U, without
            # its per-call argument checks; the same bits as six uniform calls
            style[j] = _STYLE_LOW + _STYLE_SPAN * rng.random(6)
            style[j, 2] += rotation_offsets.get(int(labels[i]), 0.0)
            # the noise is drawn here to keep the draw order; it is added below
            images[i] = rng.normal(0.0, noise_sigma, size=(size, size, 1))
        base = _render_batch(table, labels[start:stop], style[:, 0], style[:, 1])
        jittered = affine_transform_images(base[..., None], style[:, 2],
                                           style[:, 3:5], style[:, 5])
        images[start:stop] = np.clip(jittered + images[start:stop], 0.0, 1.0)
    return TensorDataset(images, labels, 10)


def make_benchmark_split(n_train: int, n_val: int, n_test: int, seed: int = 0,
                         skewed_class: int | None = None,
                         skew_rotation_deg: float = 8.0) -> DataSplit:
    """Train/val/test corpus, optionally with a non-iid canonical split.

    With skewed_class set, the training part draws that class with a
    systematic rotation bias while val/test do not, mimicking a dataset
    whose shipped split is not a random partition of one pool. With
    skewed_class=None all three parts are iid draws from the same process.
    """
    offsets = {skewed_class: skew_rotation_deg} if skewed_class is not None else None
    train = make_digits(n_train, seed=seed, rotation_offsets=offsets)
    val = make_digits(n_val, seed=seed + 1)
    test = make_digits(n_test, seed=seed + 2)
    return DataSplit(train=train, val=val, test=test, seed=seed)
