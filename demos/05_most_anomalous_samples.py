"""Most-anomalous samples via the domain classifier
====================================================

Trains a source-vs-target classifier on half of each sample, tests its
held-out accuracy against chance with a binomial test, and, when that
gate fires, ranks the held-out target samples by how confidently the
classifier assigns them to the target domain. The top of the ranking
shows what the shift looks like; the bottom shows the most source-like
target samples.
"""

from shiftdetect import TrainConfig, flatten, harness
from shiftdetect import digits, shifts


def ascii_digit(row, threshold=0.35):
    image = row.reshape(28, 28)
    return "\n".join("".join("#" if v > threshold else "." for v in r)
                     for r in image[::2])


source = digits.make_digits(800, seed=21)
target_clean = digits.make_digits(800, seed=22)

# target = mostly rotated/zoomed images, with the clean tail left intact
spec = shifts.preset("medium_img_shift", delta=0.9, seed=5)
target = shifts.apply_shift(spec, target_clean)

cfg = TrainConfig(batch_size=32, lr0=0.1, max_epochs=12, patience=6, seed=0)
check = harness.run_domain_classifier_test(flatten(source), flatten(target),
                                           cfg, alpha=0.05, seed=1)
print(f"held-out accuracy: {check.accuracy:.3f} on {check.n_heldout} samples")
print(f"binomial p-value:  {check.outcome.p_value:.2e} "
      f"(reject chance: {check.outcome.reject})\n")

top_different, top_similar = harness.top_exemplars(check, k=3)
if not check.outcome.reject:
    print("gate not passed; no exemplars to show")
else:
    print("top DIFFERENT target samples (most confidently 'target'):")
    for idx, score in top_different:
        print(f"--- score {score:.3f} ---")
        print(ascii_digit(check.heldout_target[idx]))
    print("\ntop SIMILAR target samples (most source-like):")
    for idx, score in top_similar:
        print(f"--- score {score:.3f} ---")
        print(ascii_digit(check.heldout_target[idx]))
