"""Simulated dataset shifts
============================

Applies each named perturbation preset to a digit test set and shows what
changes: pixel statistics for covariate shifts, class frequencies for
label shifts, and an ASCII rendering of one image before and after.
"""

import numpy as np

from shiftdetect import TrainConfig, flatten, random_split, train_label_classifier
from shiftdetect import digits, shifts


def ascii_digit(image, threshold=0.35):
    rows = []
    for r in image[::2, :, 0]:  # halve vertically so it fits a terminal
        rows.append("".join("#" if v > threshold else "." for v in r))
    return "\n".join(rows)


corpus = digits.make_digits(2000, seed=3)
train, val, test = random_split(corpus, 1500, 250, 250, seed=0)

clf = train_label_classifier((flatten(train), train.labels),
                             (flatten(val), val.labels), 10,
                             TrainConfig(max_epochs=8, patience=4, seed=1),
                             hidden_dims=(128,))

print("original class counts:", np.bincount(test.labels, minlength=10))
print(ascii_digit(test.images[0]), "\n")

for name, delta in (("small_gn_shift", 1.0), ("large_gn_shift", 1.0),
                    ("medium_img_shift", 1.0), ("adv_shift", 1.0),
                    ("ko_shift", 0.5), ("only_zero_shift+medium_img_shift", 0.5)):
    spec = shifts.preset(name, delta=delta, seed=11)
    shifted = shifts.apply_shift(spec, test, classifier=clf)
    mean_l2 = 0.0
    if shifted.n == test.n:
        mean_l2 = float(np.sqrt(((shifted.images - test.images) ** 2)
                                .sum(axis=(1, 2, 3))).mean())
    print(f"{name} (delta={delta}, intensity={shifts.intensity_of(name)}):")
    print(f"  samples {test.n} -> {shifted.n}; mean per-image L2 change {mean_l2:.2f}")
    print(f"  class counts: {np.bincount(shifted.labels, minlength=10)}")

# a closer look at one image under the medium image shift
spec = shifts.preset("medium_img_shift", delta=1.0, seed=11)
shifted = shifts.apply_shift(spec, test)
print("\nsame digit after a random rotation/translation/zoom draw:")
print(ascii_digit(shifted.images[0]))
