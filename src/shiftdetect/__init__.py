"""Dataset-shift detection toolkit.

Reduce high-dimensional samples to low-dimensional representations, apply
statistical two-sample tests to decide whether source and target data come
from the same distribution, simulate shifts, and benchmark the detectors.
"""

from .data import (
    TensorDataset,
    flatten,
    load_csv,
    load_idx,
    random_split,
    write_csv,
    write_idx,
)
from .dimred import (
    DrKind,
    PcaModel,
    Representation,
    SrpMatrix,
    build_srp,
    fit_pca,
    load_model,
    pca_project,
    reduce,
    save_model,
    srp_project,
)
from .harness import (
    DomainCheck,
    ExperimentConfig,
    ExperimentResult,
    MethodSpec,
    NamedShift,
    Record,
    detection_accuracy,
    run_domain_classifier_test,
    run_experiment,
    top_exemplars,
)
from .nets import (
    Autoencoder,
    NetParams,
    SoftmaxClassifier,
    TrainConfig,
    domain_scores,
    encode,
    hard_predictions,
    init_network,
    softmax_outputs,
    train_autoencoder,
    train_domain_classifier,
    train_label_classifier,
)
from .shifts import (
    ShiftSpec,
    apply_adversarial,
    apply_gaussian_noise,
    apply_image_shift,
    apply_knockout,
    apply_only_zero,
    apply_shift,
    preset,
)
from .stattest import (
    TestMode,
    TestOutcome,
    TestTag,
    binomial_two_sided,
    bonferroni_aggregate,
    chi2_independence,
    dispatch_test,
    mmd2_unbiased,
    mmd_permutation_test,
)

__version__ = "0.1.0"
