"""A small end-to-end benchmark
================================

Runs the full experiment grid at toy scale: fit every reducer once on the
training split, re-split validation/test per run, apply each shift to the
test side only, sweep target sample sizes, and tabulate detection
accuracy. Runs in well under a minute.
"""

from shiftdetect import digits, harness, shifts
from shiftdetect.dimred import DrKind
from shiftdetect.harness import ExperimentConfig, MethodSpec, NamedShift
from shiftdetect.stattest import TestMode

cfg = ExperimentConfig(
    methods=(MethodSpec(DrKind.NORED), MethodSpec(DrKind.PCA),
             MethodSpec(DrKind.SRP), MethodSpec(DrKind.BBSDS),
             MethodSpec(DrKind.BBSDH), MethodSpec(DrKind.PCA, TestMode.MULTIVARIATE),
             MethodSpec(DrKind.CLASSIF)),
    shifts=(
        NamedShift("no_shift", shifts.preset("no_shift"), "none"),
        NamedShift("medium_gn@0.5", shifts.preset("medium_gn_shift", 0.5), "medium"),
        NamedShift("large_gn@1.0", shifts.preset("large_gn_shift", 1.0), "large"),
        NamedShift("medium_img@0.5", shifts.preset("medium_img_shift", 0.5), "medium"),
    ),
    n_train=2000, n_val=700, n_test=700,
    sample_sizes=(10, 50, 200, 500), runs=3,
    latent_dim=16, hidden_dim=128, domain_hidden_dim=16,
    ae_epochs=6, clf_epochs=8, domain_epochs=8, n_perms=300, seed=42,
)

pool = digits.make_digits(3400, seed=9)
result = harness.run_experiment(pool, cfg)
print(f"{len(result.records)} grid cells in "
      f"{result.elapsed_seconds:.0f}s\n")

print("detection accuracy by shift and sample size")
print(f"{'shift':>18s} " + " ".join(f"s={s:<5d}" for s in cfg.sample_sizes))
rows = harness.detection_accuracy(result, ("shift", "sample_size"))
for shift_name in ("no_shift", "medium_gn@0.5", "medium_img@0.5", "large_gn@1.0"):
    cells = {r["sample_size"]: r["accuracy"] for r in rows if r["shift"] == shift_name}
    print(f"{shift_name:>18s} " + " ".join(f"{cells[s]:.2f}  " for s in cfg.sample_sizes))

print("\ndetection accuracy by method at the largest size")
rows = harness.detection_accuracy(result, ("method", "mode", "sample_size"))
for row in rows:
    if row["sample_size"] == 500:
        print(f"  {row['method']:>7s} ({row['mode']:12s}): {row['accuracy']:.2f}")

# the rows bench writes to pvalue_curves.csv, read off the records
print("\np-value evolution for the medium image shift, no reduction:")
for s in cfg.sample_sizes:
    ps = [r.outcome.p_value for r in result.records if r.status == "ok"
          and (r.shift, r.method, r.sample_size) == ("medium_img@0.5", "nored", s)]
    print(f"  s={s:<4d} mean p = {sum(ps) / len(ps):.4f} [{min(ps):.4f}, {max(ps):.4f}]")
