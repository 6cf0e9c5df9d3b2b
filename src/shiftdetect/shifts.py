"""Simulated dataset perturbations, applied to test data only.

Each shift touches exactly floor(delta * N) samples chosen without
replacement by a seeded generator, preserves the [0, 1] pixel range and
label validity, and is a pure function of (dataset, spec): re-running
yields bitwise-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nets
from .data import TensorDataset, flatten
from .errors import ClassAbsent, DimensionMismatch, MissingContext

KIND_GAUSSIAN_NOISE = "gaussian_noise"
KIND_IMAGE = "image"
KIND_KNOCKOUT = "knockout"
KIND_ONLY_ZERO = "only_zero"
KIND_ADVERSARIAL = "adversarial"
KIND_COMPOSITE = "composite"

_KINDS = (KIND_GAUSSIAN_NOISE, KIND_IMAGE, KIND_KNOCKOUT, KIND_ONLY_ZERO,
          KIND_ADVERSARIAL, KIND_COMPOSITE)


@dataclass(frozen=True)
class ShiftSpec:
    """Declarative description of a perturbation.

    delta is the fraction of samples affected; seed drives every random
    choice. Parameter fields are read according to kind: sigma (gaussian
    noise, on the 0-255 byte scale), rot_max_deg / trans_max_frac /
    zoom_max_frac (image), class_id (knockout), epsilon (adversarial),
    parts (composite; applied in order, each with its own delta and seed).
    """

    kind: str
    delta: float = 1.0
    seed: int = 0
    sigma: float = 0.0
    rot_max_deg: float = 0.0
    trans_max_frac: float = 0.0
    zoom_max_frac: float = 0.0
    class_id: int = 0
    epsilon: float = 0.0
    parts: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "delta": self.delta, "seed": self.seed}
        if self.kind == KIND_GAUSSIAN_NOISE:
            out["sigma"] = self.sigma
        elif self.kind == KIND_IMAGE:
            out.update(rot_max_deg=self.rot_max_deg, trans_max_frac=self.trans_max_frac,
                       zoom_max_frac=self.zoom_max_frac)
        elif self.kind == KIND_KNOCKOUT:
            out["class_id"] = self.class_id
        elif self.kind == KIND_ADVERSARIAL:
            out["epsilon"] = self.epsilon
        elif self.kind == KIND_COMPOSITE:
            out["parts"] = [p.to_dict() for p in self.parts]
        return out

    @staticmethod
    def from_dict(raw: dict) -> "ShiftSpec":
        raw = dict(raw)
        parts = tuple(ShiftSpec.from_dict(p) for p in raw.pop("parts", ()))
        return ShiftSpec(parts=parts, **raw)


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
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
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
    output image is bit-identical to that function's result on its own.
    """
    images = np.asarray(images)
    n, h, w, c = images.shape
    angle_deg = np.asarray(angle_deg, dtype=np.float64).reshape(n)
    trans = np.asarray(trans_frac, dtype=np.float64).reshape(n, 2)
    zoom = np.asarray(zoom, dtype=np.float64).reshape(n, 1, 1)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dx = xs - cx - (trans[:, 0] * w)[:, None, None]
    dy = ys - cy - (trans[:, 1] * w)[:, None, None]
    # math.cos/sin per image: np.cos may differ from them in the last bit
    theta = [math.radians(a) for a in angle_deg]
    cos_t = np.array([math.cos(t) for t in theta]).reshape(n, 1, 1)
    sin_t = np.array([math.sin(t) for t in theta]).reshape(n, 1, 1)
    src_x = (cos_t * dx + sin_t * dy) / zoom + cx
    src_y = (-sin_t * dx + cos_t * dy) / zoom + cy

    x0 = np.floor(src_x).astype(np.int64)
    y0 = np.floor(src_y).astype(np.int64)
    fx = (src_x - x0)[..., None]
    fy = (src_y - y0)[..., None]
    # pixels are gathered by flat index; per axis, both neighbours' clipped
    # offset and in-range mask are computed once for the four corners
    pixels = images.reshape(n * h * w, c)
    first_row = (np.arange(n) * h)[:, None, None]
    rows = [(first_row + np.clip(yi, 0, h - 1)) * w for yi in (y0, y0 + 1)]
    cols = [np.clip(xi, 0, w - 1) for xi in (x0, x0 + 1)]
    row_ok = [(yi >= 0) & (yi < h) for yi in (y0, y0 + 1)]
    col_ok = [(xi >= 0) & (xi < w) for xi in (x0, x0 + 1)]

    def corner(i, j):
        return pixels[rows[i] + cols[j]] * (row_ok[i] & col_ok[j])[..., None]

    out = ((1 - fy) * (1 - fx) * corner(0, 0)
           + (1 - fy) * fx * corner(0, 1)
           + fy * (1 - fx) * corner(1, 0)
           + fy * fx * corner(1, 1))
    return np.clip(out, 0.0, 1.0)


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
    result does not depend on processing order.
    """
    if min(rot_max_deg, trans_max_frac, zoom_max_frac) < 0:
        raise ValueError("image shift parameters must be >= 0")
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
        raise ClassAbsent(f"no samples of class {class_id}")
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
        raise ClassAbsent("no samples of class 0")
    return ds.subset(members)


def apply_adversarial(ds: TensorDataset, clf: nets.SoftmaxClassifier,
                      epsilon: float, delta: float, seed: int) -> TensorDataset:
    """Fast gradient sign attack on a delta-fraction of samples.

    x' = clip_[0,1](x + epsilon * sign(d CE(clf(x), y) / dx)); the true
    labels drive the loss and are left unchanged in the output.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if clf.net.in_dim != ds.dim:
        raise DimensionMismatch(
            f"classifier expects dim {clf.net.in_dim}, dataset has {ds.dim}"
        )
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


def apply_shift(spec: ShiftSpec, ds: TensorDataset,
                classifier: nets.SoftmaxClassifier | None = None) -> TensorDataset:
    """Dispatch a ShiftSpec; composites apply their parts in listed order."""
    if spec.kind == KIND_GAUSSIAN_NOISE:
        return apply_gaussian_noise(ds, spec.sigma, spec.delta, spec.seed)
    if spec.kind == KIND_IMAGE:
        return apply_image_shift(ds, spec.rot_max_deg, spec.trans_max_frac,
                                 spec.zoom_max_frac, spec.delta, spec.seed)
    if spec.kind == KIND_KNOCKOUT:
        return apply_knockout(ds, spec.class_id, spec.delta, spec.seed)
    if spec.kind == KIND_ONLY_ZERO:
        return apply_only_zero(ds)
    if spec.kind == KIND_ADVERSARIAL:
        if classifier is None:
            raise MissingContext("adversarial shift needs a classifier")
        return apply_adversarial(ds, classifier, spec.epsilon, spec.delta, spec.seed)
    for part in spec.parts:
        ds = apply_shift(part, ds, classifier)
    return ds


# ---------------------------------------------------------------------------
# Named presets

_GN_SIGMA = {"small": 1.0, "medium": 10.0, "large": 100.0}
_IMG_PARAMS = {
    "small": (10.0, 0.05, 0.1),
    "medium": (40.0, 0.2, 0.2),
    "large": (90.0, 0.4, 0.4),
}

PRESET_NAMES = (
    "no_shift",
    "small_gn_shift", "medium_gn_shift", "large_gn_shift",
    "small_img_shift", "medium_img_shift", "large_img_shift",
    "adv_shift", "ko_shift",
    "medium_img_shift+ko_shift",
    "only_zero_shift+medium_img_shift",
)

_INTENSITY = {
    "no_shift": "none",
    "small_gn_shift": "small", "small_img_shift": "small", "ko_shift": "small",
    "medium_gn_shift": "medium", "medium_img_shift": "medium", "adv_shift": "medium",
    "large_gn_shift": "large", "large_img_shift": "large",
    "medium_img_shift+ko_shift": "large",
    "only_zero_shift+medium_img_shift": "large",
}


def preset(name: str, delta: float = 1.0, seed: int = 0,
           epsilon: float = 0.1) -> ShiftSpec:
    """Expand a named preset into a fully resolved ShiftSpec.

    Gaussian-noise levels use sigma in {1, 10, 100} (byte scale); image
    levels use (rotation, translation, zoom) maxima in {(10, .05, .1),
    (40, .2, .2), (90, .4, .4)}. The two composite presets fix their first
    component and give the variable delta to the second.
    """
    if name == "no_shift":
        return ShiftSpec(kind=KIND_COMPOSITE, delta=0.0, seed=seed)
    if name.endswith("_gn_shift"):
        level = name.split("_")[0]
        return ShiftSpec(kind=KIND_GAUSSIAN_NOISE, sigma=_GN_SIGMA[level],
                         delta=delta, seed=seed)
    if name.endswith("_img_shift") and "+" not in name:
        rot, trans, zoom = _IMG_PARAMS[name.split("_")[0]]
        return ShiftSpec(kind=KIND_IMAGE, rot_max_deg=rot, trans_max_frac=trans,
                         zoom_max_frac=zoom, delta=delta, seed=seed)
    if name == "adv_shift":
        return ShiftSpec(kind=KIND_ADVERSARIAL, epsilon=epsilon, delta=delta, seed=seed)
    if name == "ko_shift":
        return ShiftSpec(kind=KIND_KNOCKOUT, class_id=0, delta=delta, seed=seed)
    if name == "medium_img_shift+ko_shift":
        rot, trans, zoom = _IMG_PARAMS["medium"]
        return ShiftSpec(kind=KIND_COMPOSITE, delta=delta, seed=seed, parts=(
            ShiftSpec(kind=KIND_IMAGE, rot_max_deg=rot, trans_max_frac=trans,
                      zoom_max_frac=zoom, delta=0.5, seed=seed),
            ShiftSpec(kind=KIND_KNOCKOUT, class_id=0, delta=delta, seed=seed + 1),
        ))
    if name == "only_zero_shift+medium_img_shift":
        rot, trans, zoom = _IMG_PARAMS["medium"]
        return ShiftSpec(kind=KIND_COMPOSITE, delta=delta, seed=seed, parts=(
            ShiftSpec(kind=KIND_ONLY_ZERO, delta=1.0, seed=seed),
            ShiftSpec(kind=KIND_IMAGE, rot_max_deg=rot, trans_max_frac=trans,
                      zoom_max_frac=zoom, delta=delta, seed=seed + 1),
        ))
    raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


def intensity_of(name: str) -> str:
    """small / medium / large grouping of a preset name ('custom' otherwise)."""
    return _INTENSITY.get(name, "custom")


def with_seed(spec: ShiftSpec, seed: int) -> ShiftSpec:
    """Copy of spec (including composite parts) re-seeded deterministically."""
    parts = tuple(with_seed(p, seed + 1 + i) for i, p in enumerate(spec.parts))
    return replace(spec, seed=seed, parts=parts)
