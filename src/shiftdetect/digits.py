"""Procedural handwritten-digit-style corpus for demos and desk-scale runs.

Digits are rendered from seven-segment stroke templates with per-sample
jitter (rotation, translation, zoom, stroke width, brightness, pixel
noise), giving a deterministic labeled image dataset with MNIST-like
geometry (28x28x1, 10 classes) without bundling or downloading anything.
"""

from __future__ import annotations

import numpy as np

from .data import TensorDataset
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
NOISE_SIGMA = 0.03  # std of the additive pixel noise, on the [0, 1] pixel scale


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


def make_digits(n: int, seed: int = 0) -> TensorDataset:
    """Generate n labeled digit images with randomized style and pose.

    Draw order: the n labels, then per image its six style uniforms (stroke
    radius, brightness, rotation, x and y translation, zoom) followed by its
    IMAGE_SIZE * IMAGE_SIZE standard normals. Style is low + span * U and
    the noise NOISE_SIGMA * Z + 0.0, the formulas of Generator.uniform and
    Generator.normal, so the bits equal those of per-image uniform and normal
    calls. Images are rendered and transformed in batches
    (affine_transform_images, whose out-of-image corners read 0.0 times the
    nearest edge pixel); the output does not depend on the batch size.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE, 1))
    table = _segment_distances(IMAGE_SIZE)
    uniforms = np.empty((BATCH_IMAGES, 6))
    normals = np.empty((BATCH_IMAGES, IMAGE_SIZE, IMAGE_SIZE, 1))
    for start in range(0, n, BATCH_IMAGES):
        stop = min(start + BATCH_IMAGES, n)
        count = stop - start
        for j in range(count):
            rng.random(out=uniforms[j])
            rng.standard_normal(out=normals[j])
        style = _STYLE_LOW + _STYLE_SPAN * uniforms[:count]
        noise = NOISE_SIGMA * normals[:count]
        noise += 0.0  # as loc + scale * Z in Generator.normal: -0.0 becomes 0.0
        base = _render_batch(table, labels[start:stop], style[:, 0], style[:, 1])
        jittered = affine_transform_images(base[..., None], style[:, 2],
                                           style[:, 3:5], style[:, 5])
        jittered += noise
        np.clip(jittered, 0.0, 1.0, out=images[start:stop])
    return TensorDataset(images, labels, 10)
