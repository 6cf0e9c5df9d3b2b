import hashlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shiftdetect import digits, nets
from shiftdetect.data import TensorDataset, flatten
from shiftdetect.errors import ShiftDetectError
from shiftdetect.shifts import (
    PRESET_NAMES,
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
    needs_classifier,
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
    c = draw(st.sampled_from([1, 2, 3]))
    # -0.0 pixels pin the border rule: a corner outside the image reads its
    # nearest edge pixel times 0.0, which is -0.0 there and not 0.0
    pixels = st.one_of(st.just(-0.0), st.floats(0.0, 1.0))
    images = draw(hnp.arrays(np.float64, (n, h, w, c), elements=pixels))
    # translations of up to 4 widths and zooms down to 0.1 read far outside
    poses = draw(st.lists(st.tuples(st.floats(-180.0, 180.0), st.floats(-4.0, 4.0),
                                    st.floats(-4.0, 4.0), st.floats(0.1, 2.0)),
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


@pytest.mark.parametrize("angle, trans, zoom", [
    (0.0, (0.0, 0.0), 0.0), (0.0, (0.0, 0.0), -1.0), (float("nan"), (0.0, 0.0), 1.0),
    (0.0, (float("inf"), 0.0), 1.0), (0.0, (0.0, 0.0), float("inf")),
])
def test_affine_refuses_a_degenerate_pose(angle, trans, zoom):
    with pytest.raises(ValueError, match="finite"):
        affine_transform_image(np.ones((4, 4, 1)), angle, trans, zoom)


def test_image_shift_zero_params_identity():
    ds = _dataset()
    out = apply_image_shift(ds, 0.0, 0.0, 0.0, 1.0, seed=7)
    assert np.max(np.abs(out.images - ds.images)) < 1e-6


@pytest.mark.parametrize("h, w", [(1, 8), (8, 1), (1, 1)])
def test_image_shift_refuses_images_one_pixel_high_or_wide(h, w):
    # a CSV row is read as a (1, D, 1) image; moving it in a plane it does
    # not have would zero most of its pixels
    ds = _dataset(n=5, h=h, w=w)
    for delta in (0.0, 1.0):
        with pytest.raises(ValueError, match=re.escape(f"got image shape {(h, w, 1)}")):
            apply_image_shift(ds, 40.0, 0.2, 0.2, delta, seed=0)
    with pytest.raises(ValueError, match="at least 2 pixels high and wide"):
        apply_shift(preset("small_img_shift", 1.0), ds)


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
    with pytest.raises(ShiftDetectError, match="^no samples of class 0$"):
        apply_knockout(ds, 0, 0.5, seed=0)


def test_only_zero():
    ds = _dataset(n=60)
    out = apply_only_zero(ds)
    assert np.all(out.labels == 0)
    assert out.n == (ds.labels == 0).sum()
    with pytest.raises(ShiftDetectError, match="^no samples of class 0$"):
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
    with pytest.raises(ShiftDetectError, match="^classifier expects dim 9, dataset has 36$"):
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_apply_refuses_a_parameter_that_is_not_finite_and_nonnegative(bad):
    # the parent let inf noise saturate every image, and NaN or inf image
    # parameters end in numpy's OverflowError
    ds = _dataset()
    clf = nets.SoftmaxClassifier(net=nets.init_network((ds.dim, 4)), num_classes=4)
    for apply in (lambda: apply_gaussian_noise(ds, bad, 1.0, seed=0),
                  lambda: apply_image_shift(ds, bad, 0.1, 0.1, 1.0, seed=0),
                  lambda: apply_image_shift(ds, 10.0, 0.1, bad, 1.0, seed=0),
                  lambda: apply_adversarial(ds, clf, bad, 1.0, seed=0)):
        with pytest.raises(ValueError):
            apply()
    for field in ("sigma", "rot_max_deg", "trans_max_frac", "zoom_max_frac", "epsilon"):
        kind = {"sigma": "gaussian_noise", "epsilon": "adversarial"}.get(field, "image")
        with pytest.raises(ValueError, match=f"{field} must be"):
            ShiftSpec(kind=kind, **{field: bad})


@pytest.mark.parametrize("delta", [True, False, "0.5", math.nan, -0.1, 1.5])
def test_spec_refuses_a_delta_that_is_not_a_fraction(delta):
    # a JSON true is not the fraction 1
    with pytest.raises(ValueError, match="delta must be a finite number in"):
        ShiftSpec(kind="gaussian_noise", sigma=1.0, delta=delta)
    with pytest.raises(ValueError, match="delta must be a finite number in"):
        preset("ko_shift", delta=delta)


def test_apply_shift_adversarial_requires_classifier():
    ds = _dataset()
    with pytest.raises(ShiftDetectError, match="^adversarial shift needs a classifier$"):
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
    for name in ("nonexistent_shift", "huge_gn_shift", "tiny_img_shift"):
        with pytest.raises(ValueError, match=f"unknown preset '{name}'; known: no_shift"):
            preset(name)
    assert intensity_of("huge_gn_shift") == "custom"


# sha256 of the JSON list of [name, delta, seed, epsilon, spec.to_dict(),
# intensity_of(name)] over _preset_calls(), recorded from the name-parsing
# presets the table replaced
PRESET_SPECS_SHA256 = "721c51b9c0ddae727da8482050478ba2cb8e7f5462e2101a7c860a618c7efc70"


def _preset_calls():
    """Every (name, delta, seed, epsilon) a bench config may ask for over a grid:
    no_shift at delta 0 only, and epsilon for adv_shift only (None: not given)."""
    for name in PRESET_NAMES:
        deltas = (0,) if name == "no_shift" else (0, 0.1, 0.5, 1)
        epsilons = (0.1, 0.25) if name == "adv_shift" else (None,)
        yield from itertools.product([name], deltas, (0, 7), epsilons)


def test_preset_specs_are_pinned():
    docs = [[name, delta, seed, eps, preset(name, delta, seed, eps).to_dict(),
             intensity_of(name)] for name, delta, seed, eps in _preset_calls()]
    assert len(docs) == 90
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == PRESET_SPECS_SHA256


def test_preset_refuses_values_it_does_not_read():
    with pytest.raises(ValueError, match="ko_shift does not read epsilon"):
        preset("ko_shift", epsilon=0.2)
    with pytest.raises(ValueError, match="no_shift takes delta 0.0 only, got 0.7"):
        preset("no_shift", 0.7)
    assert preset("no_shift") == preset("no_shift", 0.0) == preset("no_shift", delta=0)
    assert preset("no_shift").delta == 0.0
    # not given: delta 1, seed 0, epsilon 0.1
    assert preset("adv_shift") == preset("adv_shift", 1.0, 0, 0.1)


def test_needs_classifier_walks_composites():
    adv = preset("adv_shift", 0.5)
    assert needs_classifier(adv)
    assert not any(needs_classifier(preset(n)) for n in PRESET_NAMES if n != "adv_shift")
    nested = ShiftSpec(kind="composite", parts=(
        preset("ko_shift"), ShiftSpec(kind="composite", parts=(preset("small_gn_shift"), adv))))
    assert needs_classifier(nested)
    with pytest.raises(ShiftDetectError, match="^adversarial shift needs a classifier$"):
        apply_shift(nested, _dataset())


def test_readme_names_exactly_the_preset_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Shift presets:(.*?)\.\s", readme, re.S).group(1)
    names = []
    for item in re.findall(r"`([^`]+)`", listed):
        braces = re.fullmatch(r"\{([^}]*)\}(.*)", item)
        names += ([f"{level}{braces.group(2)}" for level in braces.group(1).split(",")]
                  if braces else [item])
    assert sorted(names) == sorted(PRESET_NAMES)
    assert len(names) == len(set(names))


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
