import hashlib

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shiftdetect import digits, nets
from shiftdetect.data import TensorDataset, flatten
from shiftdetect.errors import ClassAbsent, DimensionMismatch, MissingContext
from shiftdetect.shifts import (
    ShiftSpec,
    affine_transform_image,
    affine_transform_images,
    apply_adversarial,
    apply_gaussian_noise,
    apply_image_shift,
    apply_knockout,
    apply_only_zero,
    apply_shift,
    intensity_of,
    preset,
    with_seed,
)


def _dataset(n=50, h=6, w=6, c=1, seed=0, classes=4):
    rng = np.random.default_rng(seed)
    return TensorDataset(rng.random((n, h, w, c)), rng.integers(0, classes, n), classes)


# ---------------------------------------------------------------------------
# gaussian noise

def test_gaussian_sigma_zero_identity():
    ds = _dataset()
    out = apply_gaussian_noise(ds, 0.0, 1.0, seed=1)
    assert np.array_equal(out.images, ds.images)


def test_gaussian_delta_zero_identity():
    ds = _dataset()
    out = apply_gaussian_noise(ds, 50.0, 0.0, seed=1)
    assert np.array_equal(out.images, ds.images)


def test_gaussian_noise_scale_on_byte_range():
    # wide-range pixels around 0.5 so clipping stays rare at sigma=25
    rng = np.random.default_rng(2)
    ds = TensorDataset(np.clip(rng.normal(0.5, 0.05, (200, 10, 10, 1)), 0, 1),
                       np.zeros(200, dtype=int), 1)
    sigma = 25.0
    out = apply_gaussian_noise(ds, sigma, 1.0, seed=3)
    diffs = (out.images - ds.images).ravel()
    measured = diffs.std()
    assert abs(measured - sigma / 255.0) / (sigma / 255.0) < 0.05
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0
    assert np.array_equal(out.labels, ds.labels)


def test_gaussian_affects_exactly_floor_delta_n():
    ds = _dataset(n=41)
    out = apply_gaussian_noise(ds, 40.0, 0.5, seed=4)
    changed = np.any(out.images != ds.images, axis=(1, 2, 3)).sum()
    assert changed == 20  # floor(0.5 * 41)


def test_gaussian_deterministic():
    ds = _dataset()
    a = apply_gaussian_noise(ds, 10.0, 0.5, seed=5)
    b = apply_gaussian_noise(ds, 10.0, 0.5, seed=5)
    assert np.array_equal(a.images, b.images)


# ---------------------------------------------------------------------------
# image shift

def test_affine_identity_is_exact():
    img = np.random.default_rng(6).random((9, 7, 2))
    out = affine_transform_image(img)
    assert np.max(np.abs(out - img)) < 1e-6


def test_affine_90_degree_hand_pattern():
    # hand-derived: rotating [[a,b],[c,d]] by 90 deg (clockwise content,
    # rows growing downward) gives [[c,a],[d,b]]
    img = np.array([[0.1, 0.4], [0.7, 1.0]])[..., None]
    out = affine_transform_image(img, angle_deg=90.0)
    expected = np.array([[0.7, 0.1], [1.0, 0.4]])[..., None]
    assert np.allclose(out, expected, atol=1e-12)


def test_affine_zoom_fills_border_from_center():
    img = np.zeros((8, 8, 1))
    img[3:5, 3:5, 0] = 1.0
    out = affine_transform_image(img, zoom=2.0)
    assert out.sum() > img.sum()  # the bright center grows
    assert out.min() >= 0.0 and out.max() <= 1.0


def _affine_reference(image, angle_deg, trans_frac, zoom):
    """Single-image bilinear transform, one corner gather at a time."""
    h, w, c = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dx = xs - cx - trans_frac[0] * w
    dy = ys - cy - trans_frac[1] * w
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    src_x = (cos_t * dx + sin_t * dy) / zoom + cx
    src_y = (-sin_t * dx + cos_t * dy) / zoom + cy
    x0 = np.floor(src_x).astype(np.int64)
    y0 = np.floor(src_y).astype(np.int64)
    fx = (src_x - x0)[..., None]
    fy = (src_y - y0)[..., None]

    def corner(yi, xi):
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        return image[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1), :] * valid[..., None]

    out = ((1 - fy) * (1 - fx) * corner(y0, x0)
           + (1 - fy) * fx * corner(y0, x0 + 1)
           + fy * (1 - fx) * corner(y0 + 1, x0)
           + fy * fx * corner(y0 + 1, x0 + 1))
    return np.clip(out, 0.0, 1.0)


@st.composite
def _affine_batch(draw):
    n, h = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    w = draw(st.integers(1, 12).filter(lambda v: v != h))
    c = draw(st.sampled_from([1, 2]))
    images = draw(hnp.arrays(np.float64, (n, h, w, c), elements=st.floats(0.0, 1.0)))
    poses = draw(st.lists(st.tuples(st.floats(-180.0, 180.0), st.floats(-0.5, 0.5),
                                    st.floats(-0.5, 0.5), st.floats(0.5, 2.0)),
                          min_size=n, max_size=n))
    return images, poses


@given(_affine_batch())
def test_affine_batch_equals_single_image_calls(batch):
    images, poses = batch
    angles, tx, ty, zooms = (np.array(v) for v in zip(*poses))
    out = affine_transform_images(images, angles, np.stack([tx, ty], axis=1), zooms)
    assert out.shape == images.shape
    for i, (angle, x, y, zoom) in enumerate(poses):
        single = affine_transform_image(images[i], angle, (x, y), zoom)
        assert out[i].tobytes() == single.tobytes()
        assert single.tobytes() == _affine_reference(images[i], angle, (x, y), zoom).tobytes()


def test_image_shift_zero_params_identity():
    ds = _dataset()
    out = apply_image_shift(ds, 0.0, 0.0, 0.0, 1.0, seed=7)
    assert np.max(np.abs(out.images - ds.images)) < 1e-6


def test_image_shift_perturbs_and_stays_in_range():
    ds = _dataset(n=30, h=12, w=12)
    out = apply_image_shift(ds, 40.0, 0.2, 0.2, 1.0, seed=8)
    per_image_l2 = np.sqrt(((out.images - ds.images) ** 2).sum(axis=(1, 2, 3)))
    assert np.mean(per_image_l2) > 0.0
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0
    assert np.array_equal(out.labels, ds.labels)


def test_image_shift_deterministic_and_respects_delta():
    ds = _dataset(n=30)
    a = apply_image_shift(ds, 20.0, 0.1, 0.1, 0.5, seed=9)
    b = apply_image_shift(ds, 20.0, 0.1, 0.1, 0.5, seed=9)
    assert np.array_equal(a.images, b.images)
    changed = np.any(a.images != ds.images, axis=(1, 2, 3)).sum()
    assert changed <= 15  # floor(0.5 * 30), minus any no-op draws


def test_large_image_shift_golden_bytes():
    # large_img_shift parameters on half of a digits set; SHA-256 of the
    # float64 images of the per-image transform
    ds = digits.make_digits(200, seed=11)
    out = apply_image_shift(ds, 90.0, 0.4, 0.4, 0.5, seed=7)
    images = np.ascontiguousarray(out.images, dtype="<f8").tobytes()
    assert hashlib.sha256(images).hexdigest() == (
        "e0d38faf5300f65a03696928d179a6d6d192de4681dd720cb0a562d2ae260ac2")
    assert np.array_equal(out.labels, ds.labels)


# ---------------------------------------------------------------------------
# knockout / only-zero

def test_knockout_counts():
    rng = np.random.default_rng(10)
    labels = np.concatenate([np.zeros(980, dtype=int), rng.integers(1, 4, 520)])
    ds = TensorDataset(rng.random((1500, 2, 2, 1)), labels, 4)
    out = apply_knockout(ds, 0, 0.5, seed=11)
    assert (out.labels == 0).sum() == 490
    assert (out.labels != 0).sum() == 520


def test_knockout_delta_extremes():
    ds = _dataset(n=40)
    assert np.array_equal(apply_knockout(ds, 0, 0.0, seed=0).images, ds.images)
    wiped = apply_knockout(ds, 0, 1.0, seed=0)
    assert (wiped.labels == 0).sum() == 0


def test_knockout_preserves_survivor_order_and_pixels():
    ds = _dataset(n=25)
    out = apply_knockout(ds, 1, 0.7, seed=12)
    keep_mask = np.isin(np.arange(ds.n), _surviving_indices(ds, out))
    survivors = flatten(ds)[keep_mask]
    assert np.array_equal(flatten(out), survivors)


def _surviving_indices(original, shifted):
    # match rows of shifted back to original positions, in order
    orig = flatten(original)
    out = flatten(shifted)
    idx, pos = [], 0
    for row in out:
        while not np.array_equal(orig[pos], row):
            pos += 1
        idx.append(pos)
        pos += 1
    return np.array(idx)


def test_knockout_class_absent():
    ds = TensorDataset(np.zeros((5, 2, 2, 1)), np.ones(5, dtype=int), 3)
    with pytest.raises(ClassAbsent):
        apply_knockout(ds, 0, 0.5, seed=0)


def test_only_zero():
    ds = _dataset(n=60)
    out = apply_only_zero(ds)
    assert np.all(out.labels == 0)
    assert out.n == (ds.labels == 0).sum()
    with pytest.raises(ClassAbsent):
        apply_only_zero(TensorDataset(np.zeros((3, 2, 2, 1)), np.ones(3, dtype=int), 2))


# ---------------------------------------------------------------------------
# adversarial

def _toy_classifier(ds, seed=0):
    cfg = nets.TrainConfig(max_epochs=8, batch_size=16, seed=seed)
    return nets.train_label_classifier((flatten(ds), ds.labels),
                                       (flatten(ds), ds.labels),
                                       ds.num_classes, cfg, hidden_dims=(16,))


def test_adversarial_epsilon_zero_identity():
    ds = _dataset(n=20)
    clf = _toy_classifier(ds)
    out = apply_adversarial(ds, clf, 0.0, 1.0, seed=13)
    assert np.array_equal(out.images, ds.images)


def test_adversarial_linf_ball_and_range():
    ds = _dataset(n=30)
    clf = _toy_classifier(ds)
    eps = 0.07
    out = apply_adversarial(ds, clf, eps, 1.0, seed=14)
    assert np.max(np.abs(out.images - ds.images)) <= eps + 1e-12
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0
    assert np.array_equal(out.labels, ds.labels)


def test_adversarial_dim_mismatch():
    ds = _dataset(n=10)
    other = _dataset(n=10, h=3, w=3)
    clf = _toy_classifier(other)
    with pytest.raises(DimensionMismatch):
        apply_adversarial(ds, clf, 0.1, 1.0, seed=0)


# ---------------------------------------------------------------------------
# dispatch, composites, presets

def test_apply_shift_empty_composite_identity():
    ds = _dataset()
    out = apply_shift(ShiftSpec(kind="composite"), ds)
    assert np.array_equal(out.images, ds.images)
    assert np.array_equal(out.labels, ds.labels)


def test_apply_shift_gaussian_sigma_zero_identity():
    ds = _dataset()
    spec = ShiftSpec(kind="gaussian_noise", sigma=0.0, delta=0.7, seed=1)
    assert np.array_equal(apply_shift(spec, ds).images, ds.images)


def test_apply_shift_adversarial_requires_classifier():
    ds = _dataset()
    with pytest.raises(MissingContext):
        apply_shift(ShiftSpec(kind="adversarial", epsilon=0.1), ds)


def test_composite_image_plus_knockout():
    ds = _dataset(n=200, h=8, w=8)
    spec = preset("medium_img_shift+ko_shift", delta=0.4, seed=15)
    out = apply_shift(spec, ds)
    n_class0 = (ds.labels == 0).sum()
    assert (out.labels == 0).sum() == n_class0 - int(0.4 * n_class0)
    # survivors include perturbed pixels from the image component
    assert out.n < ds.n
    assert not np.array_equal(out.images[:5], ds.images[:5])


def test_only_zero_plus_medium_img_composition():
    ds = _dataset(n=120)
    spec = preset("only_zero_shift+medium_img_shift", delta=0.1, seed=16)
    out = apply_shift(spec, ds)
    assert np.all(out.labels == 0)


def test_preset_names_and_intensities():
    assert preset("large_gn_shift", 1.0).sigma == 100.0
    assert preset("small_gn_shift", 1.0).sigma == 1.0
    assert preset("medium_img_shift", 0.5).rot_max_deg == 40.0
    assert intensity_of("small_img_shift") == "small"
    assert intensity_of("adv_shift") == "medium"
    assert intensity_of("medium_img_shift+ko_shift") == "large"
    with pytest.raises(ValueError):
        preset("nonexistent_shift")


def test_spec_serialization_round_trip():
    spec = preset("medium_img_shift+ko_shift", delta=0.3, seed=21)
    back = ShiftSpec.from_dict(spec.to_dict())
    assert back == spec


def test_with_seed_reseeds_parts():
    spec = preset("only_zero_shift+medium_img_shift", delta=0.5, seed=0)
    reseeded = with_seed(spec, 99)
    assert reseeded.seed == 99
    assert reseeded.parts[0].seed != spec.parts[0].seed


def test_shift_determinism_bitwise():
    ds = _dataset(n=64)
    spec = preset("large_gn_shift", delta=0.5, seed=17)
    a, b = apply_shift(spec, ds), apply_shift(spec, ds)
    assert np.array_equal(a.images, b.images)
