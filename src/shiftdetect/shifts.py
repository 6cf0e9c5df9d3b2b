"""Simulated dataset perturbations, applied to test data only.

Each shift touches exactly floor(delta * N) samples chosen without
replacement by a seeded generator, preserves the [0, 1] pixel range and
label validity, and is a pure function of (dataset, spec): re-running
yields bitwise-identical output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nets
from .data import TensorDataset, flatten
from .errors import Rule, ShiftDetectError, check_fields, check_object, key, rules_of

# kind -> (the fields it reads besides delta and seed, its applier
# (ds, spec, classifier) -> ds); a composite applies its parts in order
_KINDS = {
    "gaussian_noise": (("sigma",), lambda ds, s, clf: apply_gaussian_noise(
        ds, s.sigma, s.delta, s.seed)),
    "image": (("rot_max_deg", "trans_max_frac", "zoom_max_frac"), lambda ds, s, clf:
              apply_image_shift(ds, s.rot_max_deg, s.trans_max_frac, s.zoom_max_frac,
                                s.delta, s.seed)),
    "knockout": (("class_id",), lambda ds, s, clf: apply_knockout(
        ds, s.class_id, s.delta, s.seed)),
    "only_zero": ((), lambda ds, s, clf: apply_only_zero(ds)),
    "adversarial": (("epsilon",), lambda ds, s, clf: apply_adversarial(
        ds, clf, s.epsilon, s.delta, s.seed)),
    # each part through the module-level apply_shift, so patching it sees parts too
    "composite": (("parts",), lambda ds, s, clf: functools.reduce(
        lambda out, part: apply_shift(part, out, clf), s.parts, ds)),
}
_PARAM = Rule("finite number", 0)


@dataclass(frozen=True)
class ShiftSpec:
    """Declarative description of a perturbation.

    delta is the fraction of samples affected; seed drives every random
    choice. The other fields are read as the kind's _KINDS row says: sigma
    is on the 0-255 byte scale, and parts are applied in order, each with
    its own delta and seed. A field that breaks its rule, read or not,
    raises ShiftDetectError naming the field.
    """

    kind: str = key(Rule("string", choices=tuple(_KINDS)))
    delta: float = key(Rule("finite number", 0, 1), 1.0)
    seed: int = key(Rule("integer", 0), 0)
    sigma: float = key(_PARAM, 0.0)
    rot_max_deg: float = key(_PARAM, 0.0)
    trans_max_frac: float = key(_PARAM, 0.0)
    zoom_max_frac: float = key(_PARAM, 0.0)
    class_id: int = key(Rule("integer"), 0)
    epsilon: float = key(_PARAM, 0.0)
    parts: tuple = key(Rule("list"), ())

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "delta": self.delta, "seed": self.seed}
        out.update((name, getattr(self, name)) for name in _KINDS[self.kind][0])
        if "parts" in out:
            out["parts"] = [p.to_dict() for p in self.parts]
        return out

    @staticmethod
    def from_dict(raw, path: str = "spec") -> "ShiftSpec":
        """Inverse of to_dict. raw must be an object holding kind and only the
        keys to_dict writes for that kind, each keeping its rule, and each
        part likewise; the error names the key's path from path on."""
        rules = rules_of(ShiftSpec)
        Rule("object").check(raw, path)
        kind = raw.get("kind")
        rules["kind"].check(kind, f"{path}.kind")
        keys = ("kind", "delta", "seed", *_KINDS[kind][0])
        check_object(raw, {k: rules[k] for k in keys}, path, f"{path} ({kind} shift)")
        parts = tuple(ShiftSpec.from_dict(p, f"{path}.parts[{i}]")
                      for i, p in enumerate(raw.get("parts", ())))
        return ShiftSpec(**{**raw, "parts": parts})


# ---------------------------------------------------------------------------
# Individual shift operations

def _affected_indices(n: int, delta: float, rng) -> np.ndarray:
    count = int(math.floor(delta * n))
    return rng.permutation(n)[:count]


def apply_gaussian_noise(ds: TensorDataset, sigma: float, delta: float,
                         seed: int) -> TensorDataset:
    """Add iid N(0, sigma^2) pixel noise to a delta-fraction of samples.

    sigma is expressed on the 0-255 byte scale and divided by 255 before
    adding to the normalized pixels, then the result is clipped to [0, 1].
    Labels are untouched.
    """
    _PARAM.check(sigma, "sigma")
    if sigma == 0.0 or delta == 0.0 or ds.n == 0:
        return ds
    rng = np.random.default_rng(seed)
    idx = _affected_indices(ds.n, delta, rng)
    images = np.array(ds.images)
    noise = rng.normal(0.0, sigma / 255.0, size=(idx.size, *ds.image_shape))
    images[idx] = np.clip(images[idx] + noise, 0.0, 1.0)
    return TensorDataset(images, ds.labels, ds.num_classes)


# Images per call of the batched affine kernel (and of the digit renderer):
# large enough to amortise numpy call overhead, small enough that the
# per-pixel coordinate temporaries stay a few MB at any corpus size.
BATCH_IMAGES = 32


def affine_transform_images(images: np.ndarray, angle_deg, trans_frac,
                            zoom) -> np.ndarray:
    """Rotate / translate / zoom each (H, W, C) image of an (N, H, W, C) batch.

    angle_deg and zoom hold one value per image, trans_frac one (x, y) pair
    per image; the conventions are those of affine_transform_image, and each
    output image is bit-identical to that function's result on its own. A
    non-finite angle or translation, or a zoom that is not a finite value
    > 0, raises ValueError.

    Border rule: a corner outside the image reads its nearest edge pixel
    times 0.0 (so -0.0 or NaN where that pixel is negative or NaN), and an
    inside corner reads its pixel. The corners are read from a copy of the
    batch with a 2-pixel border of such cells: a floored source coordinate
    clipped into [-2, h] x [-2, w] leaves every pair of neighbours that
    touches the image where it was and moves a pair that lies wholly outside
    into the border.
    """
    images = np.asarray(images)
    n, h, w, c = images.shape
    angle_deg = np.asarray(angle_deg, dtype=np.float64).reshape(n)
    trans = np.asarray(trans_frac, dtype=np.float64).reshape(n, 2)
    zoom = np.asarray(zoom, dtype=np.float64).reshape(n, 1, 1)
    if not (np.isfinite(angle_deg).all() and np.isfinite(trans).all()
            and np.isfinite(zoom).all() and (zoom > 0).all()):
        raise ValueError("affine poses need a finite angle and translation "
                         "and a finite zoom > 0")
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # (n, 1, w) and (n, h, 1): the same values as the full (n, h, w) grids
    dx = (np.arange(w, dtype=np.float64) - cx) - (trans[:, 0] * w)[:, None, None]
    dy = (np.arange(h, dtype=np.float64)[:, None] - cy) - (trans[:, 1] * w)[:, None, None]
    # math.cos/sin per image: np.cos may differ from them in the last bit
    theta = [math.radians(a) for a in angle_deg]
    cos_t = np.array([math.cos(t) for t in theta]).reshape(n, 1, 1)
    sin_t = np.array([math.sin(t) for t in theta]).reshape(n, 1, 1)
    src_x = cos_t * dx + sin_t * dy
    src_x /= zoom
    src_x += cx
    src_y = -sin_t * dx + cos_t * dy
    src_y /= zoom
    src_y += cy

    x0 = np.floor(src_x).astype(np.int64)
    y0 = np.floor(src_y).astype(np.int64)
    fx = src_x - x0
    fy = src_y - y0
    # channels first, so the (n, h, w) weights broadcast over whole images;
    # the border bands are filled from the edge rows, then the edge columns
    hp, wp = h + 4, w + 4
    padded = np.empty((c, n, hp, wp))
    padded[:, :, 2:-2, 2:-2] = images.transpose(3, 0, 1, 2)
    np.multiply(padded[:, :, 2:3, 2:-2], 0.0, out=padded[:, :, :2, 2:-2])
    np.multiply(padded[:, :, -3:-2, 2:-2], 0.0, out=padded[:, :, -2:, 2:-2])
    np.multiply(padded[:, :, :, 2:3], 0.0, out=padded[:, :, :, :2])
    np.multiply(padded[:, :, :, -3:-2], 0.0, out=padded[:, :, :, -2:])
    pixels = padded.reshape(c, n * hp * wp)
    # flat index of each top-left corner in padded
    base = np.clip(y0, -2, h, out=y0)
    base *= wp
    base += np.clip(x0, -2, w, out=x0)
    base += (np.arange(n) * (hp * wp) + 2 * wp + 2)[:, None, None]

    def corner(offset, weight):
        # weight * pixels[:, base + offset]; a weight times a pixel rounds
        # as the pixel times the weight
        value = pixels[:, offset:].take(base, axis=1)
        value *= weight
        return value

    gy, gx = 1 - fy, 1 - fx
    out = corner(0, gy * gx)
    out += corner(1, gy * fx)
    out += corner(wp, fy * gx)
    out += corner(wp + 1, fy * fx)
    np.clip(out, 0.0, 1.0, out=out)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def affine_transform_image(image: np.ndarray, angle_deg: float = 0.0,
                           trans_frac: tuple[float, float] = (0.0, 0.0),
                           zoom: float = 1.0) -> np.ndarray:
    """Rotate / translate / zoom one (H, W, C) image about its center.

    Positive angles rotate the content clockwise (rows grow downward);
    translations are fractions of the image width on both axes; zoom >= 1
    magnifies. Inverse-mapped bilinear interpolation, out-of-bounds filled
    with zero, so outputs stay inside the input value range.
    """
    return affine_transform_images(np.asarray(image)[None], [angle_deg],
                                   [trans_frac], [zoom])[0]


def apply_image_shift(ds: TensorDataset, rot_max_deg: float, trans_max_frac: float,
                      zoom_max_frac: float, delta: float, seed: int) -> TensorDataset:
    """Random affine perturbation of a delta-fraction of images.

    Per affected image i, a generator seeded by (seed, i) draws the
    rotation angle U[-rot_max, +rot_max], per-axis translations
    U[-t, +t] * width, and a zoom-in factor U[1, 1 + zoom_max], so the
    result does not depend on processing order. Images 1 pixel high or
    wide (a CSV row is read as one) have no plane to move in and raise
    ShiftDetectError.
    """
    for name, value in (("rot_max_deg", rot_max_deg), ("trans_max_frac", trans_max_frac),
                        ("zoom_max_frac", zoom_max_frac)):
        _PARAM.check(value, name)
    if min(ds.image_shape[:2]) < 2:
        raise ShiftDetectError(f"image shifts need images at least 2 pixels high and wide, "
                               f"got image shape {ds.image_shape}")
    if delta == 0.0 or ds.n == 0:
        return ds
    master = np.random.default_rng(seed)
    idx = _affected_indices(ds.n, delta, master)
    images = np.array(ds.images)
    for start in range(0, idx.size, BATCH_IMAGES):
        rows = idx[start:start + BATCH_IMAGES]
        params = np.empty((rows.size, 4))
        for j, i in enumerate(rows):
            rng = np.random.default_rng(np.random.SeedSequence([seed, int(i)]))
            params[j] = (rng.uniform(-rot_max_deg, rot_max_deg),
                         rng.uniform(-trans_max_frac, trans_max_frac),
                         rng.uniform(-trans_max_frac, trans_max_frac),
                         rng.uniform(1.0, 1.0 + zoom_max_frac))
        images[rows] = affine_transform_images(images[rows], params[:, 0],
                                               params[:, 1:3], params[:, 3])
    return TensorDataset(images, ds.labels, ds.num_classes)


def apply_knockout(ds: TensorDataset, class_id: int, delta: float,
                   seed: int) -> TensorDataset:
    """Remove floor(delta * N_class) samples of one class, creating imbalance.

    Survivors keep their original order; pixels are untouched.
    """
    members = ds.class_indices(class_id)
    if members.size == 0:
        raise ShiftDetectError(f"no samples of class {class_id}")
    rng = np.random.default_rng(seed)
    count = int(math.floor(delta * members.size))
    removed = members[rng.permutation(members.size)[:count]]
    keep = np.ones(ds.n, dtype=bool)
    keep[removed] = False
    return ds.subset(np.flatnonzero(keep))


def apply_only_zero(ds: TensorDataset) -> TensorDataset:
    """Restrict the dataset to class-0 samples."""
    members = ds.class_indices(0)
    if members.size == 0:
        raise ShiftDetectError("no samples of class 0")
    return ds.subset(members)


def apply_adversarial(ds: TensorDataset, clf: nets.SoftmaxClassifier,
                      epsilon: float, delta: float, seed: int) -> TensorDataset:
    """Fast gradient sign attack on a delta-fraction of samples.

    x' = clip_[0,1](x + epsilon * sign(d CE(clf(x), y) / dx)); the true
    labels drive the loss and are left unchanged in the output.
    """
    _PARAM.check(epsilon, "epsilon")
    if clf.net.in_dim != ds.dim:
        raise ShiftDetectError(f"classifier expects dim {clf.net.in_dim}, dataset has {ds.dim}")
    if ds.n and ds.labels.max() >= clf.num_classes:
        raise ShiftDetectError(f"dataset labels run to {ds.labels.max()}, but the classifier "
                               f"has {clf.num_classes} classes")
    if epsilon == 0.0 or delta == 0.0 or ds.n == 0:
        return ds
    rng = np.random.default_rng(seed)
    idx = _affected_indices(ds.n, delta, rng)
    flat = flatten(ds)
    grad = nets.input_gradient(clf, flat[idx], ds.labels[idx])
    perturbed = np.clip(flat[idx] + epsilon * np.sign(grad), 0.0, 1.0)
    images = np.array(ds.images)
    images[idx] = perturbed.reshape(idx.size, *ds.image_shape)
    return TensorDataset(images, ds.labels, ds.num_classes)


def needs_classifier(spec: ShiftSpec) -> bool:
    """Whether spec or any of its parts is adversarial, so needs the label classifier."""
    return spec.kind == "adversarial" or any(map(needs_classifier, spec.parts))


def apply_shift(spec: ShiftSpec, ds: TensorDataset,
                classifier: nets.SoftmaxClassifier | None = None) -> TensorDataset:
    """Dispatch a ShiftSpec; composites apply their parts in listed order.

    A spec that needs_classifier raises ShiftDetectError without a classifier.
    """
    if classifier is None and needs_classifier(spec):
        raise ShiftDetectError("adversarial shift needs a classifier")
    return _KINDS[spec.kind][1](ds, spec, classifier)


# ---------------------------------------------------------------------------
# Named presets

def _fixed(kind: str, **params):
    """Builder of a one-part preset: params fixed, delta and seed given."""
    return lambda delta, seed, epsilon: ShiftSpec(kind=kind, delta=delta, seed=seed, **params)


_knockout = _fixed("knockout", class_id=0)
_medium_image = _fixed("image", rot_max_deg=40.0, trans_max_frac=0.2, zoom_max_frac=0.2)

# name -> (intensity, build); build(delta, seed, epsilon) gives the preset's spec.
# The two composites fix their first part and give delta to the second.
_PRESETS = {
    "no_shift": ("none", lambda delta, seed, epsilon: ShiftSpec(
        kind="composite", delta=0.0, seed=seed)),
    "small_gn_shift": ("small", _fixed("gaussian_noise", sigma=1.0)),
    "medium_gn_shift": ("medium", _fixed("gaussian_noise", sigma=10.0)),
    "large_gn_shift": ("large", _fixed("gaussian_noise", sigma=100.0)),
    "small_img_shift": ("small", _fixed("image", rot_max_deg=10.0, trans_max_frac=0.05,
                                        zoom_max_frac=0.1)),
    "medium_img_shift": ("medium", _medium_image),
    "large_img_shift": ("large", _fixed("image", rot_max_deg=90.0, trans_max_frac=0.4,
                                        zoom_max_frac=0.4)),
    "adv_shift": ("medium", lambda delta, seed, epsilon: ShiftSpec(
        kind="adversarial", epsilon=epsilon, delta=delta, seed=seed)),
    "ko_shift": ("small", _knockout),
    "medium_img_shift+ko_shift": ("large", lambda delta, seed, epsilon: ShiftSpec(
        kind="composite", delta=delta, seed=seed,
        parts=(_medium_image(0.5, seed, epsilon), _knockout(delta, seed + 1, epsilon)))),
    "only_zero_shift+medium_img_shift": ("large", lambda delta, seed, epsilon: ShiftSpec(
        kind="composite", delta=delta, seed=seed,
        parts=(ShiftSpec(kind="only_zero", seed=seed), _medium_image(delta, seed + 1, epsilon)))),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, delta: float | None = None, seed: int | None = None,
           epsilon: float | None = None) -> ShiftSpec:
    """Expand a named preset of _PRESETS into a fully resolved ShiftSpec.

    None means "not given": delta defaults to 1.0, seed to 0 and epsilon to
    0.1. A given delta or epsilon must show in the spec with the value given,
    so only adv_shift reads epsilon and no_shift takes delta 0 only; any
    other value, or an unknown name, raises ValueError.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    spec = _PRESETS[name][1](1.0 if delta is None else delta, 0 if seed is None else seed,
                             0.1 if epsilon is None else epsilon)
    carried = spec.to_dict()
    for key, value in (("delta", delta), ("epsilon", epsilon)):
        if value is not None and key not in carried:
            raise ValueError(f"{name} does not read {key}")
        if value is not None and carried[key] != value:
            raise ValueError(f"{name} takes {key} {carried[key]!r} only, got {value!r}")
    return spec


def intensity_of(name: str) -> str:
    """small / medium / large grouping of a preset name ('custom' otherwise)."""
    return _PRESETS[name][0] if name in _PRESETS else "custom"


def with_seed(spec: ShiftSpec, seed: int) -> ShiftSpec:
    """Copy of spec (including composite parts) re-seeded deterministically."""
    parts = tuple(with_seed(p, seed + 1 + i) for i, p in enumerate(spec.parts))
    return replace(spec, seed=seed, parts=parts)
