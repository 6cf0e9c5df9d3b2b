"""The public API of the package and of its command line, pinned.

A change that adds or removes an export of the `shiftdetect` package or a
subcommand of the `shiftdetect` command must edit a list below, so the
change shows in the diff and CHANGES.md can name it. Submodules are
attributes of the package once imported; they are not exports.
"""

import argparse
import types

import shiftdetect
from shiftdetect.cli import build_parser

SUBCOMMANDS = ["bench", "detect", "report", "shift"]

# detect's options, each with its type (None: a string) and default: the
# nine training flags, then the method, the test and the exemplar report
DETECT_OPTIONS = {
    "--alpha": (float, 0.05),
    "--seed": (int, 0),
    "--latent-dim": (int, 32),
    "--ae-lr0": (float, 2.0),
    "--hidden-dim": (int, 64),
    "--epochs": (int, 20),
    "--batch-size": (int, 32),
    "--lr0": (float, 0.1),
    "--patience": (int, 10),
    "--method": (None, "nored"),
    "--mode": (None, "univariate"),
    "--exemplars": (int, None),
    "--out": (None, None),
}

PUBLIC_NAMES = [
    "Autoencoder",
    "DomainCheck",
    "DrKind",
    "ExperimentConfig",
    "ExperimentResult",
    "MethodSpec",
    "NamedShift",
    "NetParams",
    "PcaModel",
    "Record",
    "Representation",
    "ShiftSpec",
    "SoftmaxClassifier",
    "SrpMatrix",
    "TensorDataset",
    "TestMode",
    "TestOutcome",
    "TestTag",
    "TrainConfig",
    "apply_adversarial",
    "apply_gaussian_noise",
    "apply_image_shift",
    "apply_knockout",
    "apply_only_zero",
    "apply_shift",
    "binomial_two_sided",
    "bonferroni_aggregate",
    "build_srp",
    "chi2_independence",
    "detection_accuracy",
    "dispatch_test",
    "domain_scores",
    "encode",
    "fit_pca",
    "flatten",
    "hard_predictions",
    "init_network",
    "load_csv",
    "load_idx",
    "load_model",
    "mmd2_unbiased",
    "mmd_permutation_test",
    "pca_project",
    "preset",
    "random_split",
    "reduce",
    "run_domain_classifier_test",
    "run_experiment",
    "save_model",
    "softmax_outputs",
    "srp_project",
    "top_exemplars",
    "train_autoencoder",
    "train_domain_classifier",
    "train_label_classifier",
    "write_csv",
    "write_idx",
]


def test_public_names_are_pinned():
    exported = sorted(name for name, value in vars(shiftdetect).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES  # one sorted name a line: a diff shows each


def _subparsers():
    subparsers, = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return subparsers.choices


def test_subcommands_are_pinned():
    assert sorted(_subparsers()) == SUBCOMMANDS


def test_detect_options_are_pinned():
    options = {action.option_strings[-1]: (action.type, action.default)
               for action in _subparsers()["detect"]._actions
               if action.option_strings and action.option_strings != ["-h", "--help"]}
    assert options == DETECT_OPTIONS
