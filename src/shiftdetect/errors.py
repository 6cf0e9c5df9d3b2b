"""Exception types shared across the package.

Everything derives from ShiftDetectError so callers can catch the whole
family; most also derive from ValueError because they signal bad inputs.
"""


class ShiftDetectError(Exception):
    pass


class BadMagic(ShiftDetectError, ValueError):
    """IDX file does not start with the expected magic number."""


class TruncatedFile(ShiftDetectError, ValueError):
    """File ended before the header-declared payload was read."""


class DimensionMismatch(ShiftDetectError, ValueError):
    """Array shapes are inconsistent with each other or with a fitted model."""


class InsufficientData(ShiftDetectError, ValueError):
    """Requested split sizes exceed the available pool."""


class BadK(ShiftDetectError, ValueError):
    """Latent dimension outside the admissible range."""


class NotFitted(ShiftDetectError, ValueError):
    """A reducer handle was required but not supplied or not trained."""


class BadDims(ShiftDetectError, ValueError):
    """Network layer dimension list is too short or non-positive."""


class Diverged(ShiftDetectError, RuntimeError):
    """Training produced a non-finite loss."""


class EmptySample(ShiftDetectError, ValueError):
    """Two-sample test received an empty sample."""


class NonFiniteInput(ShiftDetectError, ValueError):
    """Two-sample test received NaN or infinite values."""


class EmptyInput(ShiftDetectError, ValueError):
    """Aggregation received no p-values."""


class TooFewSamples(ShiftDetectError, ValueError):
    """MMD estimator needs at least two samples per side."""


class DegenerateTable(ShiftDetectError, ValueError):
    """Contingency table has a row without observations."""


class BadCounts(ShiftDetectError, ValueError):
    """Binomial test received successes > n or n < 1."""


class IncompatibleMode(ShiftDetectError, ValueError):
    """Test mode not applicable to the representation kind."""


class SampleCapExceeded(ShiftDetectError, ValueError):
    """Multivariate kernel test called with more target samples than allowed."""


class ClassAbsent(ShiftDetectError, ValueError):
    """Shift references a class with no samples in the dataset."""


class MissingContext(ShiftDetectError, ValueError):
    """Shift needs extra context (e.g. a classifier) that was not provided."""


class EmptyResult(ShiftDetectError, ValueError):
    """Aggregation over an experiment result with no usable records."""


class NotFound(ShiftDetectError, KeyError):
    """Requested (shift, method) pair has no records."""


class ConfigInvalid(ShiftDetectError, ValueError):
    """Experiment or CLI configuration failed validation."""
